//! Minimal, fully offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and macros this workspace's
//! property tests use: range strategies, tuples, `Just`, `prop_map`,
//! `prop_flat_map`, `prop::collection::vec`, `prop::sample::select`, a
//! `.{n,m}`-style string strategy, and the `proptest!` / `prop_assert*` /
//! `prop_assume!` macros. Cases are generated deterministically (seeded per
//! test name and case index); there is no shrinking — a failure reports the
//! case index so it can be replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a generated case did not complete normally.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// `prop_assert!`-style failure with a rendered message.
    Fail(String),
}

/// Runner configuration (shim: only the case count is honoured).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-(test, case) RNG used by the `proptest!` macro.
#[doc(hidden)]
pub fn __rng_for(test_name: &str, case: u32) -> StdRng {
    // An FNV-1a-shaped hash of the test path (FNV's offset basis, xor then
    // multiply per byte), mixed with the case index. It is not FNV-1a: the
    // multiplier is 2^44 + 0x1b3, where FNV-1a's 64-bit prime is
    // 2^40 + 0x1b3. It stays as it is because it seeds every property
    // test: another hash would change the cases each test runs.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// A generator of values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then generate from a strategy derived from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

impl<T: rand::SampleUniform + Copy> Strategy for core::ops::Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($name:ident . $idx:tt),+ ))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_strategy_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// String strategy from a regex-like pattern.
///
/// The shim understands `.{n,m}` ("between n and m arbitrary non-newline
/// characters") and `.` (one character); any other pattern generates itself
/// literally.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut StdRng) -> String {
        fn arbitrary_char(rng: &mut StdRng) -> char {
            loop {
                let c = match rng.gen_range(0u32..10) {
                    0..=5 => char::from(rng.gen_range(0x20u8..0x7f)),
                    6 | 7 => char::from(rng.gen_range(0x00u8..0x20)),
                    8 => char::from_u32(rng.gen_range(0x80u32..0xD800)).unwrap_or('ÿ'),
                    _ => {
                        char::from_u32(rng.gen_range(0x1_0000u32..0x11_0000)).unwrap_or('\u{10000}')
                    }
                };
                if c != '\n' {
                    return c;
                }
            }
        }
        if let Some((min, max)) = parse_dot_repeat(self) {
            let len = if max > min {
                rng.gen_range(min..max + 1)
            } else {
                min
            };
            (0..len).map(|_| arbitrary_char(rng)).collect()
        } else if *self == "." {
            arbitrary_char(rng).to_string()
        } else {
            (*self).to_string()
        }
    }
}

/// Parse `.{n,m}` into `(n, m)`.
fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Sub-strategies namespaced like upstream proptest.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Accepted size specifications for [`vec`].
        #[derive(Debug, Clone)]
        pub struct SizeRange {
            lo: usize,
            hi: usize, // exclusive
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n + 1 }
            }
        }

        impl From<core::ops::Range<usize>> for SizeRange {
            fn from(r: core::ops::Range<usize>) -> Self {
                SizeRange {
                    lo: r.start,
                    hi: r.end,
                }
            }
        }

        /// Strategy producing `Vec`s of `element` with a size drawn from
        /// `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// See [`vec`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
                let len = if self.size.hi > self.size.lo + 1 {
                    rng.gen_range(self.size.lo..self.size.hi)
                } else {
                    self.size.lo
                };
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }
    }

    /// Sampling strategies.
    pub mod sample {
        use super::super::Strategy;
        use rand::rngs::StdRng;
        use rand::Rng;

        /// Strategy choosing uniformly from a fixed set of values.
        ///
        /// # Panics
        /// [`Strategy::generate`] panics if `values` is empty.
        pub fn select<T: Clone>(values: Vec<T>) -> Select<T> {
            Select { values }
        }

        /// See [`select`].
        pub struct Select<T: Clone> {
            values: Vec<T>,
        }

        impl<T: Clone> Strategy for Select<T> {
            type Value = T;
            fn generate(&self, rng: &mut StdRng) -> T {
                assert!(!self.values.is_empty(), "select over an empty set");
                self.values[rng.gen_range(0..self.values.len())].clone()
            }
        }
    }
}

/// Types with a canonical whole-domain strategy, usable via [`any`].
pub trait Arbitrary: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

macro_rules! arbitrary_uniform {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                use rand::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_uniform!(u8, u16, u32, u64, i8, i16, i32, i64);

/// Strategy over `T`'s whole domain. See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: uniform over its whole domain.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Everything a property test needs.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Define property tests. See the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg $cfg:expr; $( $(#[$meta:meta])* fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::__rng_for(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case,
                    );
                    $(let $pat = $crate::Strategy::generate(&($strat), &mut __rng);)+
                    let __outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match __outcome {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err($crate::TestCaseError::Reject) => continue,
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            panic!("proptest {} failed at case {}: {}", stringify!($name), __case, msg)
                        }
                    }
                }
            }
        )*
    };
}

/// Assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?}` != `{:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(*__a == *__b, $($fmt)+);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: both sides equal `{:?}`",
            __a
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..10, y in -2.5f64..2.5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-2.5..2.5).contains(&y));
        }

        #[test]
        fn vec_respects_size(v in prop::collection::vec(0u32..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 5));
        }

        #[test]
        fn map_and_flat_map_compose(
            s in (1u32..4).prop_flat_map(|n| {
                (Just(n), prop::collection::vec(0i64..10, n as usize))
            })
        ) {
            prop_assert_eq!(s.1.len(), s.0 as usize);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }

        #[test]
        fn string_pattern_has_no_newline(s in ".{0,40}") {
            prop_assert!(s.chars().count() <= 40);
            prop_assert!(!s.contains('\n'));
        }

        #[test]
        fn select_picks_member(c in prop::sample::select(vec!["a", "b", "c"])) {
            prop_assert!(["a", "b", "c"].contains(&c));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = prop::collection::vec(0u64..1000, 5..20);
        let a = Strategy::generate(&strat, &mut crate::__rng_for("t", 3));
        let b = Strategy::generate(&strat, &mut crate::__rng_for("t", 3));
        assert_eq!(a, b);
    }
}
