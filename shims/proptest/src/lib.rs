//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the subset of proptest the test suites use: the [`Strategy`]
//! trait (ranges, tuples, [`Just`], `prop_map`, unions, `any`,
//! `collection::vec`), the `proptest!` macro, and the `prop_assert_*`
//! family. Differences from upstream, deliberately accepted:
//!
//! * cases are generated from a **fixed seed** — runs are deterministic
//!   and reproducible, with no persistence file;
//! * there is **no shrinking**: a failing case reports its inputs via the
//!   panic message instead of a minimized counterexample;
//! * `prop_assert!` panics (like `assert!`) instead of returning a
//!   `TestCaseError`.

#![deny(missing_docs)]

use std::fmt::Debug;
use std::ops::Range;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

/// Deterministic generator driving all strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// The fixed-seed generator used by `proptest!` runs.
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A recipe for generating test values.
pub trait Strategy {
    /// The generated value type.
    type Value: Debug;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<V: Debug> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_strategy_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}

impl_strategy_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_tuple {
    ($($s:ident . $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_strategy_tuple!(S0.0);
impl_strategy_tuple!(S0.0, S1.1);
impl_strategy_tuple!(S0.0, S1.1, S2.2);
impl_strategy_tuple!(S0.0, S1.1, S2.2, S3.3);
impl_strategy_tuple!(S0.0, S1.1, S2.2, S3.3, S4.4);
impl_strategy_tuple!(S0.0, S1.1, S2.2, S3.3, S4.4, S5.5);

/// Weighted-free union over same-valued strategies ([`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V: Debug> Union<V> {
    /// Build from boxed alternatives (must be non-empty).
    pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<V: Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Box a strategy for use in a [`Union`] (helper for `prop_oneof!`).
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

// ---------------------------------------------------------------------------
// any / Arbitrary
// ---------------------------------------------------------------------------

/// Types with a canonical full-range strategy.
pub trait Arbitrary: Debug + Sized {
    /// Draw an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` (full range).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;

    /// Acceptable size arguments for [`vec()`]: a fixed `usize` or a range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Config + macros
// ---------------------------------------------------------------------------

/// Number-of-cases configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// How many random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::deterministic();
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(|| { $body })
                    );
                    if let Err(payload) = outcome {
                        eprintln!(
                            "proptest case {case} of {} failed with inputs: {inputs}",
                            config.cases
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
}

/// Choose uniformly between the given strategies (same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

/// Property assertion (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion (panics on failure, like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion (panics on failure, like `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return;
        }
    };
}

/// The common imports (`use proptest::prelude::*`).
pub mod prelude {
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop` module path (`prop::collection::vec` etc.).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_vec(xs in prop::collection::vec(0u64..10, 1..20), b in any::<bool>()) {
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            prop_assert!(xs.iter().all(|&x| x < 10));
            let _ = b;
        }

        #[test]
        fn oneof_and_map(v in prop_oneof![Just(1u32), (2u32..5).prop_map(|x| x * 10)]) {
            prop_assert!(v == 1 || (20..50).contains(&v), "{v}");
        }
    }
}
