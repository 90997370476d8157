//! Offline property-testing shim.
//!
//! The workspace's test suites were written against the `proptest` crate,
//! which is unavailable in the hermetic build environment (no network, no
//! vendored registry). This crate re-implements the *subset* of the
//! proptest API the workspace actually uses — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, range/tuple/vec/bool strategies, and
//! `ProptestConfig::with_cases` — on top of a small deterministic RNG.
//!
//! Differences from upstream proptest, by design:
//!
//! - No shrinking: a failing case reports its inputs via the assertion
//!   message (every generated binding is `Debug`-formatted on failure).
//! - Deterministic: cases are derived from a fixed per-test seed (hash of
//!   the test's module path and name), so failures reproduce exactly in
//!   CI. Renaming or moving a property test therefore redraws its cases,
//!   so a rename must name, in CHANGES.md, a mutation of the code under
//!   test that the renamed test still catches.
//! - `ProptestConfig` only carries `cases`.

use std::ops::{Range, RangeInclusive};

/// Deterministic split-mix/xoshiro generator driving all case generation.
#[derive(Debug, Clone)]
pub struct TestRunner {
    state: [u64; 4],
}

fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRunner {
    /// Seed a runner; distinct seeds give independent streams.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        Self {
            state: [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)],
        }
    }

    /// Seed derived from a test name (FNV-1a), so each test has a stable
    /// independent stream.
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Self::new(h)
    }

    /// Next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2x = s2 ^ s0;
        let mut s3x = s3 ^ s1;
        let s1x = s1 ^ s2x;
        let s0x = s0 ^ s3x;
        s2x ^= t;
        s3x = s3x.rotate_left(45);
        self.state = [s0x, s1x, s2x, s3x];
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// A value generator. The shim keeps proptest's name so call sites read
/// identically, but `sample` replaces the tree-based `new_tree` API.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draw one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (runner.next_u64() as u128 % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (runner.next_u64() as u128 % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * runner.next_f64() as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                // Hit the endpoints occasionally: inclusive ranges are used
                // for boundary-sensitive properties (e.g. probabilities).
                match runner.next_u64() % 32 {
                    0 => lo,
                    1 => hi,
                    _ => lo + (hi - lo) * runner.next_f64() as $t,
                }
            }
        }
    )*};
}

float_range_strategy!(f32, f64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.sample(runner),)+)
            }
        }
    )+};
}

tuple_strategy!((A, B), (A, B, C), (A, B, C, D));

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::{Strategy, TestRunner};

    /// Strategy yielding uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The upstream `proptest::bool::ANY` constant.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, runner: &mut TestRunner) -> bool {
            runner.next_u64() & 1 == 1
        }
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRunner};
    use std::ops::Range;

    /// Size specifier for [`vec()`]: a fixed length or a half-open range.
    #[derive(Debug, Clone)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Fixed(usize),
        /// Uniformly drawn length in `[start, end)`.
        Between(usize, usize),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Fixed(n)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange::Between(r.start, r.end)
        }
    }

    /// Strategy for vectors of values drawn from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Create a vector strategy (`proptest::collection::vec(elem, size)`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let len = match self.size {
                SizeRange::Fixed(n) => n,
                SizeRange::Between(lo, hi) => lo + runner.below(hi - lo),
            };
            (0..len).map(|_| self.element.sample(runner)).collect()
        }
    }
}

/// Runtime configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The items `use proptest::prelude::*` is expected to bring in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRunner};
}

/// Assert a condition inside a `proptest!` body; on failure the current
/// case aborts with the formatted message (no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Property-test entry point mirroring `proptest::proptest!`.
///
/// Supports an optional `#![proptest_config(expr)]` header followed by any
/// number of `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::for_test(concat!(
                ::std::module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let result: ::std::result::Result<(), ::std::string::String> = (|| {
                    $(let $pat = $crate::Strategy::sample(&($strat), &mut runner);)+
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(msg) = result {
                    panic!(
                        "proptest case {}/{} failed: {}",
                        case + 1,
                        config.cases,
                        msg
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_is_deterministic() {
        let mut a = TestRunner::new(7);
        let mut b = TestRunner::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = TestRunner::new(1);
        for _ in 0..500 {
            let v = (3u32..9).sample(&mut r);
            assert!((3..9).contains(&v));
            let f = (-2.0f64..5.0).sample(&mut r);
            assert!((-2.0..5.0).contains(&f));
            let fi = (0.0f64..=1.0).sample(&mut r);
            assert!((0.0..=1.0).contains(&fi));
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut r = TestRunner::new(2);
        for _ in 0..100 {
            let v = collection::vec(0u32..4, 2..6).sample(&mut r);
            assert!((2..6).contains(&v.len()));
            let fixed = collection::vec(0u32..4, 3).sample(&mut r);
            assert_eq!(fixed.len(), 3);
        }
    }

    proptest! {
        #[test]
        fn macro_generates_and_checks(x in 0u32..10, flips in collection::vec(bool::ANY, 0..4)) {
            prop_assert!(x < 10);
            prop_assert_eq!(flips.len(), flips.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(pair in (0u32..3, -1.0f32..1.0)) {
            prop_assert!(pair.0 < 3);
            prop_assert!((-1.0..1.0).contains(&pair.1));
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_reports_case() {
        proptest! {
            fn inner(x in 0u32..4) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        inner();
    }
}
