//! Robustness: the frontend must never panic — on arbitrary byte soup it
//! returns structured errors; on valid programs, transforms keep the module
//! verifiable and semantics intact; and no nesting depth overflows the
//! stack.

use hls_ir::frontend::parser::MAX_NESTING;
use hls_ir::frontend::{compile, compile_to_ir, finish, CompileError, Stage};
use hls_ir::interp::Interpreter;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_and_parser_never_panic(input in ".{0,200}") {
        // Any result is fine; panics are not.
        let _ = compile(&input);
    }

    #[test]
    fn token_soup_never_panics(tokens in prop::collection::vec(
        prop::sample::select(vec![
            "int32", "uint8", "void", "for", "if", "else", "return", "x", "y",
            "(", ")", "{", "}", "[", "]", ";", ",", "+", "-", "*", "/", "=",
            "<", ">", "==", "0", "1", "42", "#pragma HLS unroll",
        ]), 0..40)) {
        let input = tokens.join(" ");
        let _ = compile(&input);
    }
}

/// Random-but-valid accumulation kernels: the unroll factor must never
/// change the computed result.
fn acc_kernel() -> impl Strategy<Value = (String, u32, Vec<i64>)> {
    (2u32..6, prop::sample::select(vec!["+", "^", "|"]), 1u32..5).prop_flat_map(
        |(len_pow, op, factor)| {
            let len = 1u32 << len_pow;
            let src = format!(
                "int32 f(int32 a[{len}]) {{ int32 s = 0; for (i = 0; i < {len}; i++) {{ s = s {op} a[i]; }} return s; }}"
            );
            let data = prop::collection::vec(-1000i64..1000, len as usize);
            (Just(src), Just(factor), data)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unroll_factor_never_changes_results((src, factor, data) in acc_kernel()) {
        let reference = compile(&src).unwrap();
        let expected = Interpreter::new(&reference)
            .run_top(&[], std::slice::from_ref(&data))
            .unwrap();

        let (m, mut d) = compile_to_ir(&src, "t").unwrap();
        d.set_unroll("f/loop0", factor);
        let unrolled = finish(m, &d).unwrap();
        hls_ir::verify::verify_module(&unrolled).unwrap();
        let got = Interpreter::new(&unrolled)
            .run_top(&[], std::slice::from_ref(&data))
            .unwrap();
        prop_assert_eq!(got.ret, expected.ret, "factor {}", factor);
    }
}

/// The five ways to nest MiniHLS `n` levels deep, as `(shape, source)`:
/// each body is `prefix + open×n + middle + close×n + suffix`.
fn nested_sources(n: usize) -> [(&'static str, String); 5] {
    [
        ("parens", "return ", "(", "a", ")", ";"),
        ("unary", "return ", "- ", "a", "", ";"),
        ("ternary", "return ", "a ? a : ", "a", "", ";"),
        ("if", "", "if (a) { ", "", "}", " return a;"),
        ("chain", "return ", "a + ", "a", "", ";"),
    ]
    .map(|(shape, prefix, open, middle, close, suffix)| {
        let body = format!(
            "{prefix}{}{middle}{}{suffix}",
            open.repeat(n),
            close.repeat(n)
        );
        (shape, format!("int32 f(int32 a) {{ {body} }}"))
    })
}

/// Compile every shape at depth `n` on a fresh thread with the default
/// stack, the way a `congestd` worker would.
fn compile_on_default_stack(n: usize) -> Vec<(&'static str, Result<(), CompileError>)> {
    std::thread::spawn(move || {
        nested_sources(n)
            .into_iter()
            .map(|(shape, src)| (shape, compile(&src).map(drop)))
            .collect()
    })
    .join()
    .expect("compiling nested source panicked")
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    for (shape, result) in compile_on_default_stack(100_000) {
        let e = result.expect_err(shape);
        assert_eq!(e.stage, Stage::Parse, "{shape}: {e}");
        assert!(e.message.contains("nesting"), "{shape}: {e}");
    }
}

#[test]
fn nesting_under_the_cap_still_compiles() {
    // Each shape's top level costs a few levels of its own (the function
    // body block, the statement's expression), so stay a little under.
    for depth in [64, MAX_NESTING - 8] {
        for (shape, result) in compile_on_default_stack(depth) {
            assert!(result.is_ok(), "{shape} at {depth}: {result:?}");
        }
    }
}
