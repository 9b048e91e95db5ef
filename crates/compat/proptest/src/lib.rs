//! In-tree stand-in for `proptest`.
//!
//! Implements the subset this workspace uses: the `proptest!` macro over
//! `name in strategy` arguments, range strategies for the numeric types,
//! `proptest::collection::vec`, `proptest::bool::ANY`,
//! `ProptestConfig::with_cases`, and the `prop_assert*` macros. Cases are
//! generated from a deterministic per-test seed; there is no shrinking —
//! a failing case panics with the case index so it can be replayed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 64;

/// Subset of proptest's configuration: the case count.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: DEFAULT_CASES,
        }
    }
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test random source.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Derives a generator from the test name and case index.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(
            h ^ ((case as u64) << 32 | case as u64),
        ))
    }
}

impl rand::RngCore for TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A value generator.
pub trait Strategy {
    /// Generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.start..=<$t>::MAX)
            }
        }
    )*};
}

impl_range_strategy!(u16, u32, u64, usize, i32, i64);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
    }
}

/// A strategy that yields a constant.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Uniform boolean strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniform boolean strategy instance.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.gen::<bool>()
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng as _;

    /// Size specification for [`vec()`]: a fixed length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values with lengths drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi_exclusive {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi_exclusive)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The names tests import with `use proptest::prelude::*`.
pub mod prelude {
    /// Module alias so `proptest::collection::vec` resolves inside the
    /// macro body as well.
    pub use crate as proptest;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Property-test entry macro.
///
/// Runs each property for a number of deterministic cases (default
/// [`DEFAULT_CASES`]; override with `#![proptest_config(...)]`). Failures
/// panic with the case index. No shrinking.
#[macro_export]
macro_rules! proptest {
    (@cases $cases:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases: u32 = $cases;
                for case in 0..cases {
                    let mut __rng = $crate::TestRng::for_case(stringify!($name), case);
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                    let run = || -> () { $body };
                    run();
                }
            }
        )*
    };
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cases ($cfg).cases; $($rest)*);
    };
    (
        $($rest:tt)*
    ) => {
        $crate::proptest!(@cases $crate::DEFAULT_CASES; $($rest)*);
    };
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_sample_in_bounds(x in 5u64..100, f in -1.0f64..1.0) {
            prop_assert!((5..100).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_spec(xs in proptest::collection::vec(0u32..10, 3..7)) {
            prop_assert!((3..7).contains(&xs.len()));
            prop_assert!(xs.iter().all(|&v| v < 10));
        }

        #[test]
        fn fixed_len_vec(xs in proptest::collection::vec(0.0f64..1.0, 5)) {
            prop_assert_eq!(xs.len(), 5);
        }

        #[test]
        fn open_range(mask in 1u64..) {
            prop_assert!(mask >= 1);
        }
    }

    #[test]
    fn deterministic_cases() {
        let mut a = crate::TestRng::for_case("t", 0);
        let mut b = crate::TestRng::for_case("t", 0);
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
