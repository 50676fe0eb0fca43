//! A reference interpreter for the IR, used only by the tests in this
//! directory.
//!
//! Executes a module's top function on concrete inputs, with bit-accurate
//! wrapping to each operation's result type. Its purpose is *testing*: the
//! directive transforms (inlining, unrolling, constant folding, DCE) must
//! all preserve a program's observable behaviour, and the interpreter is the
//! oracle that checks it.

use hls_ir::function::{ArrayId, FuncId, Function, Region};
use hls_ir::module::Module;
use hls_ir::op::{CmpPred, OpId, OpKind};
use hls_ir::types::IrType;
use std::collections::HashMap;
use std::fmt;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Division or remainder by zero.
    DivideByZero(OpId),
    /// Array access out of bounds.
    OutOfBounds {
        /// The offending op.
        op: OpId,
        /// Evaluated index.
        index: i64,
        /// Array length.
        len: u32,
    },
    /// Wrong number of scalar arguments supplied.
    ArgCount {
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// Wrong number/shape of array arguments supplied.
    ArrayArg(String),
    /// Executed an op the interpreter does not model.
    Unsupported(OpKind),
    /// Execution exceeded the step budget (runaway loop).
    StepBudget,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivideByZero(op) => write!(f, "divide by zero at {op}"),
            InterpError::OutOfBounds { op, index, len } => {
                write!(f, "index {index} out of bounds (len {len}) at {op}")
            }
            InterpError::ArgCount { expected, got } => {
                write!(f, "expected {expected} scalar arguments, got {got}")
            }
            InterpError::ArrayArg(m) => write!(f, "array argument error: {m}"),
            InterpError::Unsupported(k) => write!(f, "unsupported op kind `{k}`"),
            InterpError::StepBudget => write!(f, "step budget exceeded"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Wrap `v` to the value range of `ty`.
pub fn wrap(v: i64, ty: IrType) -> i64 {
    let bits = ty.bits();
    if bits >= 64 {
        return v;
    }
    let mask = (1u64 << bits) - 1;
    let u = (v as u64) & mask;
    if ty.is_signed() && (u >> (bits - 1)) & 1 == 1 {
        (u | !mask) as i64
    } else {
        u as i64
    }
}

/// Interpreter over one module.
pub struct Interpreter<'a> {
    module: &'a Module,
    /// Remaining execution steps (guards against runaway loops).
    budget: u64,
}

/// The result of running a function: the return value (if any) and the final
/// contents of its interface arrays (in parameter order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Returned value (None for void functions).
    pub ret: Option<i64>,
    /// Final contents of array parameters, in declaration order.
    pub arrays: Vec<Vec<i64>>,
}

impl<'a> Interpreter<'a> {
    /// A fresh interpreter with the default step budget (10 million ops).
    pub fn new(module: &'a Module) -> Self {
        Interpreter {
            module,
            budget: 10_000_000,
        }
    }

    /// Run the top function with scalar arguments `args` and array-parameter
    /// contents `arrays` (in parameter order; lengths must match).
    ///
    /// # Errors
    /// Returns an [`InterpError`] on division by zero, out-of-bounds access,
    /// argument mismatches, or step-budget exhaustion.
    pub fn run_top(&mut self, args: &[i64], arrays: &[Vec<i64>]) -> Result<RunResult, InterpError> {
        self.run_function(self.module.top, args, arrays)
    }

    /// Run a specific function.
    ///
    /// # Errors
    /// See [`Interpreter::run_top`].
    pub fn run_function(
        &mut self,
        func: FuncId,
        args: &[i64],
        arrays: &[Vec<i64>],
    ) -> Result<RunResult, InterpError> {
        let f = self.module.function(func);
        // Array storage: interface arrays initialized from inputs, locals
        // zero-filled.
        let mut store: Vec<Vec<i64>> = Vec::with_capacity(f.arrays.len());
        let mut provided = arrays.iter();
        for a in &f.arrays {
            if a.is_param {
                let v = provided
                    .next()
                    .ok_or_else(|| InterpError::ArrayArg(format!("missing `{}`", a.name)))?;
                if v.len() != a.len as usize {
                    return Err(InterpError::ArrayArg(format!(
                        "`{}` expects {} elements, got {}",
                        a.name,
                        a.len,
                        v.len()
                    )));
                }
                store.push(v.clone());
            } else {
                store.push(vec![0; a.len as usize]);
            }
        }
        let n_scalars = f
            .params
            .iter()
            .filter(|p| matches!(p.kind, hls_ir::function::ParamKind::Scalar))
            .count();
        if args.len() != n_scalars {
            return Err(InterpError::ArgCount {
                expected: n_scalars,
                got: args.len(),
            });
        }

        let mut values: Vec<i64> = vec![0; f.ops.len()];
        let mut ret = None;
        self.exec_region(
            f,
            &f.body,
            args,
            &mut store,
            &mut values,
            &mut ret,
            &HashMap::new(),
        )?;

        // Return final interface-array contents in parameter order.
        let out_arrays = f
            .arrays
            .iter()
            .filter(|a| a.is_param)
            .map(|a| store[a.id.index()].clone())
            .collect();
        Ok(RunResult {
            ret,
            arrays: out_arrays,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_region(
        &mut self,
        f: &Function,
        region: &Region,
        args: &[i64],
        store: &mut [Vec<i64>],
        values: &mut [i64],
        ret: &mut Option<i64>,
        phi_env: &HashMap<OpId, i64>,
    ) -> Result<(), InterpError> {
        match region {
            Region::Block(ops) => {
                for &id in ops {
                    self.exec_op(f, id, args, store, values, ret, phi_env)?;
                }
                Ok(())
            }
            Region::Seq(rs) => {
                for r in rs {
                    self.exec_region(f, r, args, store, values, ret, phi_env)?;
                }
                Ok(())
            }
            Region::Loop {
                body, trip_count, ..
            } => {
                // Identify this loop's phis (direct ops with Phi kind).
                let mut direct = Vec::new();
                collect_direct(body, &mut direct);
                let phis: Vec<OpId> = direct
                    .iter()
                    .copied()
                    .filter(|&id| f.op(id).kind == OpKind::Phi)
                    .collect();
                for iter in 0..*trip_count {
                    let mut env = phi_env.clone();
                    for &p in &phis {
                        let op = f.op(p);
                        let v = if op.operands.is_empty() {
                            // Induction variable: the iteration index.
                            wrap(iter as i64, op.ty)
                        } else if iter == 0 {
                            values[op.operands[0].src.index()]
                        } else {
                            // Latch value from the previous iteration.
                            values[op.operands[1].src.index()]
                        };
                        env.insert(p, v);
                    }
                    self.exec_region(f, body, args, store, values, ret, &env)?;
                }
                // After the loop, the phi's register holds the final latch
                // value — that is what ops after the loop observe.
                for &p in &phis {
                    let op = f.op(p);
                    if op.operands.len() >= 2 {
                        values[p.index()] = wrap(values[op.operands[1].src.index()], op.ty);
                    }
                }
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_op(
        &mut self,
        f: &Function,
        id: OpId,
        args: &[i64],
        store: &mut [Vec<i64>],
        values: &mut [i64],
        ret: &mut Option<i64>,
        phi_env: &HashMap<OpId, i64>,
    ) -> Result<(), InterpError> {
        if self.budget == 0 {
            return Err(InterpError::StepBudget);
        }
        self.budget -= 1;
        let op = f.op(id);
        let v = |n: usize| values[op.operands[n].src.index()];
        let value = match op.kind {
            OpKind::Const => op.imm.unwrap_or(0),
            OpKind::Read => args.get(op.imm.unwrap_or(0) as usize).copied().unwrap_or(0),
            OpKind::Phi => *phi_env.get(&id).unwrap_or(&0),
            OpKind::Add => v(0).wrapping_add(v(1)),
            OpKind::Sub => v(0).wrapping_sub(v(1)),
            OpKind::Mul => v(0).wrapping_mul(v(1)),
            OpKind::SDiv | OpKind::UDiv => {
                let d = v(1);
                if d == 0 {
                    return Err(InterpError::DivideByZero(id));
                }
                v(0).wrapping_div(d)
            }
            OpKind::SRem | OpKind::URem => {
                let d = v(1);
                if d == 0 {
                    return Err(InterpError::DivideByZero(id));
                }
                v(0).wrapping_rem(d)
            }
            OpKind::And => v(0) & v(1),
            OpKind::Or => v(0) | v(1),
            OpKind::Xor => v(0) ^ v(1),
            OpKind::Not => !v(0),
            OpKind::Shl => v(0).wrapping_shl(v(1) as u32 & 63),
            OpKind::LShr => {
                // Logical shift over the operand's width.
                let w = f.op(op.operands[0].src).ty.bits();
                let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                (((v(0) as u64) & mask) >> (v(1) as u32 & 63)) as i64
            }
            OpKind::AShr => v(0).wrapping_shr(v(1) as u32 & 63),
            OpKind::ICmp | OpKind::FCmp => {
                let pred = CmpPred::from_imm(op.imm.unwrap_or(0)).unwrap_or(CmpPred::Eq);
                pred.eval(v(0), v(1)) as i64
            }
            OpKind::Select | OpKind::Mux => {
                if v(0) != 0 {
                    v(1)
                } else {
                    v(2)
                }
            }
            OpKind::Load => {
                let arr = op.array.expect("load without array");
                let idx = v(0);
                self.bounds(f, arr, idx, id)?;
                store[arr.index()][idx as usize]
            }
            OpKind::Store => {
                let arr = op.array.expect("store without array");
                let idx = v(0);
                self.bounds(f, arr, idx, id)?;
                let elem = f.array(arr).elem;
                store[arr.index()][idx as usize] = wrap(v(1), elem);
                0
            }
            OpKind::ZExt => {
                let from = f.op(op.operands[0].src).ty;
                let w = from.bits();
                let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                ((v(0) as u64) & mask) as i64
            }
            OpKind::SExt | OpKind::Trunc => v(0),
            OpKind::Sqrt => {
                let x = v(0).max(0) as u64;
                (x as f64).sqrt().floor() as i64
            }
            OpKind::Call => {
                let callee = op.callee.expect("call without callee");
                let callee_f = self.module.function(callee);
                let call_args: Vec<i64> =
                    op.operands.iter().map(|o| values[o.src.index()]).collect();
                // Array args alias caller arrays: copy in, run, copy back.
                let in_arrays: Vec<Vec<i64>> = op
                    .array_args
                    .iter()
                    .map(|a| store[a.index()].clone())
                    .collect();
                let result = self.run_function(callee, &call_args, &in_arrays)?;
                for (caller_arr, out) in op.array_args.iter().zip(result.arrays) {
                    store[caller_arr.index()] = out;
                }
                let _ = callee_f;
                result.ret.unwrap_or(0)
            }
            OpKind::Return => {
                if let Some(o) = op.operands.first() {
                    *ret = Some(values[o.src.index()]);
                }
                0
            }
            OpKind::Alloca | OpKind::Write | OpKind::Port | OpKind::Branch | OpKind::Switch => 0,
            OpKind::GetElementPtr | OpKind::BitConcat | OpKind::BitSelect => {
                return Err(InterpError::Unsupported(op.kind))
            }
            OpKind::FAdd | OpKind::FSub | OpKind::FMul | OpKind::FDiv => {
                return Err(InterpError::Unsupported(op.kind))
            }
        };
        values[id.index()] = wrap(value, op.ty);
        Ok(())
    }

    fn bounds(&self, f: &Function, arr: ArrayId, idx: i64, op: OpId) -> Result<(), InterpError> {
        let len = f.array(arr).len;
        if idx < 0 || idx as u32 >= len {
            return Err(InterpError::OutOfBounds {
                op,
                index: idx,
                len,
            });
        }
        Ok(())
    }
}

fn collect_direct(r: &Region, out: &mut Vec<OpId>) {
    match r {
        Region::Block(ops) => out.extend_from_slice(ops),
        Region::Seq(rs) => rs.iter().for_each(|r| collect_direct(r, out)),
        Region::Loop { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_ir::frontend::{compile, compile_to_ir, compile_with_directives, finish};

    fn run(src: &str, args: &[i64], arrays: &[Vec<i64>]) -> RunResult {
        let m = compile(src).unwrap();
        Interpreter::new(&m).run_top(args, arrays).unwrap()
    }

    #[test]
    fn arithmetic_and_compare() {
        let r = run(
            "int32 f(int32 x, int32 y) { return x * y + (x > y ? 1 : 0); }",
            &[6, 7],
            &[],
        );
        assert_eq!(r.ret, Some(42));
    }

    #[test]
    fn loops_accumulate() {
        let r = run(
            "int32 f(int32 a[8]) { int32 s = 0; for (i = 0; i < 8; i++) { s = s + a[i]; } return s; }",
            &[],
            &[(1..=8).collect()],
        );
        assert_eq!(r.ret, Some(36));
    }

    #[test]
    fn stores_visible_in_result() {
        let r = run(
            "void f(int8 a[4], int8 v) { for (i = 0; i < 4; i++) { a[i] = v + i; } }",
            &[10],
            &[vec![0; 4]],
        );
        assert_eq!(r.arrays[0], vec![10, 11, 12, 13]);
    }

    #[test]
    fn predication_matches_if_semantics() {
        let r = run(
            "int32 f(int32 x) { int32 y = 0; if (x > 5) { y = 1; } else { y = 2; } return y; }",
            &[9],
            &[],
        );
        assert_eq!(r.ret, Some(1));
        let r = run(
            "int32 f(int32 x) { int32 y = 0; if (x > 5) { y = 1; } else { y = 2; } return y; }",
            &[3],
            &[],
        );
        assert_eq!(r.ret, Some(2));
    }

    #[test]
    fn calls_pass_scalars_and_arrays() {
        let r = run(
            "void fill(int32 a[4], int32 v) { for (i = 0; i < 4; i++) { a[i] = v; } }\n\
             int32 f(int32 a[4]) { fill(a, 9); return a[3]; }",
            &[],
            &[vec![0; 4]],
        );
        assert_eq!(r.ret, Some(9));
        assert_eq!(r.arrays[0], vec![9; 4]);
    }

    #[test]
    fn builtins_evaluate() {
        let r = run(
            "int32 f(int32 x) { return min(x, 3) + max(x, 3) + abs(0 - x) + popcount(x) + sqrt(x); }",
            &[16],
            &[],
        );
        // min=3, max=16, abs=16, popcount(16)=1, sqrt(16)=4.
        assert_eq!(r.ret, Some(3 + 16 + 16 + 1 + 4));
    }

    #[test]
    fn narrow_types_wrap() {
        let r = run("int8 f(int8 x) { return x + 100; }", &[100], &[]);
        // 200 wraps to -56 in int8... via int9 add then trunc to int8 on
        // return: 200 -> 8-bit -56.
        assert_eq!(r.ret, Some(wrap(200, IrType::int(8))));
    }

    #[test]
    fn divide_by_zero_reported() {
        let m = compile("int32 f(int32 x) { return 10 / x; }").unwrap();
        let err = Interpreter::new(&m).run_top(&[0], &[]).unwrap_err();
        assert!(matches!(err, InterpError::DivideByZero(_)));
    }

    #[test]
    fn unrolling_preserves_semantics() {
        let src = "int32 f(int32 a[16], int32 k) { int32 s = 0; for (i = 0; i < 16; i++) { s = s + a[i] * k + i; } return s; }";
        let plain = compile(src).unwrap();
        let arrays = vec![(0..16).map(|i| (i * 3 % 7) as i64).collect::<Vec<_>>()];
        let expected = Interpreter::new(&plain).run_top(&[5], &arrays).unwrap();
        for factor in [2u32, 4, 16] {
            let (m, mut d) = compile_to_ir(src, "t").unwrap();
            d.set_unroll("f/loop0", factor);
            let m = finish(m, &d).unwrap();
            let got = Interpreter::new(&m).run_top(&[5], &arrays).unwrap();
            assert_eq!(got.ret, expected.ret, "unroll factor {factor}");
        }
    }

    #[test]
    fn inlining_preserves_semantics() {
        let src = "int32 g(int32 a[4], int32 k) { int32 s = 0; for (i = 0; i < 4; i++) { s = s + a[i] * k; } return s; }\n\
                   int32 f(int32 a[4], int32 b[4]) { return g(a, 2) - g(b, 3); }";
        let arrays = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]];
        let plain = compile(src).unwrap();
        let expected = Interpreter::new(&plain).run_top(&[], &arrays).unwrap();
        let mut d = hls_ir::directives::Directives::new();
        d.set_inline("g", true);
        let inlined = compile_with_directives(src, "t", &d).unwrap();
        let got = Interpreter::new(&inlined).run_top(&[], &arrays).unwrap();
        assert_eq!(got.ret, expected.ret);
        assert_eq!(
            expected.ret,
            Some(2 * (1 + 2 + 3 + 4) - 3 * (5 + 6 + 7 + 8))
        );
    }

    #[test]
    fn nested_unroll_preserves_semantics() {
        let src = "int32 f(int32 a[16]) { int32 s = 0; for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { s = s + a[i * 4 + j] * (i + 1); } } return s; }";
        let arrays = vec![(0..16).map(|i| i as i64 + 1).collect::<Vec<_>>()];
        let plain = compile(src).unwrap();
        let expected = Interpreter::new(&plain).run_top(&[], &arrays).unwrap();
        let (m, mut d) = compile_to_ir(src, "t").unwrap();
        d.set_full_unroll("f/loop0");
        d.set_full_unroll("f/loop1");
        let m = finish(m, &d).unwrap();
        let got = Interpreter::new(&m).run_top(&[], &arrays).unwrap();
        assert_eq!(got.ret, expected.ret);
    }
}
