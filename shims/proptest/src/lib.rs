//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this shim implements
//! the subset of the proptest API the workspace's property tests rely on:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(...)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_oneof!`],
//! * the [`strategy::Strategy`] trait with `prop_map` / `prop_flat_map`,
//! * numeric range strategies, tuples, [`collection::vec`], [`option::of`].
//!
//! Generation is **deterministic**: each test draws from a splitmix64
//! stream seeded by the test's module path and name, so failures reproduce
//! exactly across runs and machines. There is no shrinking — a failing case
//! is reported with its case index and message.

#![forbid(unsafe_code)]

use std::fmt;

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Failure raised by `prop_assert*` inside a property body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Creates a failure with a message.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG seeded from a test's fully-qualified name.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the name gives a stable per-test seed.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }
}

pub mod strategy {
    //! The value-generation abstraction.

    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of type `Value` from a [`TestRng`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { base: self, f }
        }

        /// Generates an intermediate value, then generates from the strategy
        /// `f` builds from it.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type but keeping `Value`.
    /// Going through a function (rather than an `as` cast) pins the boxed
    /// `Value` to the source strategy's, which keeps `prop_oneof!` arms
    /// inferring correctly.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    /// Uniform choice between boxed strategies (the `prop_oneof!` backend).
    pub struct OneOf<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> OneOf<V> {
        /// Builds from a non-empty option list.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let ix = rng.below(self.options.len() as u64) as usize;
            self.options[ix].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u64;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.next_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:ident . $ix:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$ix.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Anything usable as the vector-length parameter of [`vec()`].
    pub trait SizeRange {
        /// Draws a length.
        fn sample(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty size range");
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Generates `Vec`s whose length is drawn from `size` and whose elements
    /// come from `element`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.sample(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `Option` strategies.

    use super::strategy::Strategy;
    use super::TestRng;

    /// Generates `None` about a quarter of the time, otherwise `Some` of the
    /// inner strategy.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{ProptestConfig, TestCaseError};
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng =
                $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property {} failed at case {}/{}: {}",
                        stringify!($name),
                        case,
                        cfg.cases,
                        e
                    );
                }
            }
        }
        $crate::__proptest_impl!{ @cfg ($cfg) $($rest)* }
    };
}

/// Asserts inside a property body; failure aborts the case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                $($fmt)+
            )));
        }
    };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                l,
                r
            )));
        }
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $($crate::strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = crate::TestRng::for_test("ranges");
        for _ in 0..1000 {
            let x = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&x));
            let f = (0.5f64..2.0).generate(&mut rng);
            assert!((0.5..2.0).contains(&f));
            let i = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn determinism_per_test_name() {
        let draw = || {
            let mut rng = crate::TestRng::for_test("fixed");
            crate::collection::vec((0u64..100, 0.0f64..1.0), 1..10).generate(&mut rng)
        };
        assert_eq!(format!("{:?}", draw()), format!("{:?}", draw()));
    }

    #[test]
    fn flat_map_and_map_compose() {
        let strat = (1usize..5).prop_flat_map(|n| crate::collection::vec(0u32..10, n));
        let mut rng = crate::TestRng::for_test("fm");
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
        let doubled = (0u32..10).prop_map(|x| x * 2);
        assert_eq!(doubled.generate(&mut rng) % 2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_roundtrip(v in crate::collection::vec(0u32..50, 1..8), k in 1u32..4) {
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|&x| x < 50), "out of range: {v:?}");
            prop_assert_eq!(k >= 1, true);
        }

        #[test]
        fn oneof_selects_all_arms(x in prop_oneof![0usize..10, 100usize..110]) {
            prop_assert!(x < 10 || (100..110).contains(&x));
        }
    }
}
