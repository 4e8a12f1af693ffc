//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! `proptest!` macro (both `x in strategy` and `x: Type` parameter
//! forms, optional `#![proptest_config(..)]`), `prop_assert*`,
//! `prop_oneof!`, `any::<T>()`, range/tuple strategies, `prop_map`,
//! and the `collection::vec` / `option::of` / `array::uniform4`
//! helpers.
//!
//! Differences from the real crate, deliberately accepted:
//! generation is plain pseudo-random with **no shrinking**, failures
//! report the seed and case index instead of a minimized input, and
//! value distributions are uniform rather than proptest's biased ones.
//! Runs are fully deterministic: the per-case seed is derived only
//! from the test name and case index.

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ------------------------------------------------------------------ rng

/// Deterministic generator handed to strategies (SplitMix64 core).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test-name hash and case index; fully deterministic.
    #[must_use]
    pub fn deterministic(name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; bound must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Modulo bias is irrelevant at property-test scale.
        self.next_u64() % bound
    }
}

// ------------------------------------------------------------- strategy

/// A recipe for generating values of `Self::Value`.
///
/// Object-safe so `prop_oneof!` can hold heterogeneous arms.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values; mirrors the real crate's combinator.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<T> Strategy for Box<dyn Strategy<Value = T>> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (**self).generate(rng)
    }
}

/// Box a strategy for storage in a [`Union`] (used by `prop_oneof!`).
pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Output of [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed arms; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// # Panics
    ///
    /// Panics when `arms` is empty.
    #[must_use]
    pub fn new(arms: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng)
    }
}

// ---------------------------------------------------------- `any::<T>`

/// Types with a canonical whole-domain strategy.
pub trait Arbitrary: Sized {
    fn arbitrary_with(rng: &mut TestRng) -> Self;
}

/// Strategy over the whole domain of `T`; see [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_with(rng)
    }
}

/// The canonical strategy for `T` (`any::<u64>()` etc.).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! arbitrary_ints {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            // `allow`, not `expect`: the cast truncates or wraps for
            // some of the macro's types and not for others.
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                reason = "keeps the low bits of a uniform u64: uniform in every narrower type"
            )]
            fn arbitrary_with(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary_with(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary_with(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
    fn arbitrary_with(rng: &mut TestRng) -> Self {
        std::array::from_fn(|_| T::arbitrary_with(rng))
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary_with(rng: &mut TestRng) -> Self {
        if rng.next_u64() & 3 == 0 {
            None
        } else {
            Some(T::arbitrary_with(rng))
        }
    }
}

// ----------------------------------------------------- range strategies

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                clippy::cast_sign_loss,
                reason = "two's-complement span arithmetic: the span of a range fits its type's width"
            )]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_possible_wrap,
                clippy::cast_sign_loss,
                reason = "two's-complement span arithmetic: the span of a range fits its type's width"
            )]
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(rng.below(span as u64) as $t)
            }
        }
    )*};
}

range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ----------------------------------------------------- tuple strategies

macro_rules! tuple_strategies {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategies! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
}

// ------------------------------------------------------------- modules

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Vector length specification; converts from `Range<usize>` or an
    /// exact `usize`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    /// Strategy producing `Vec<S::Value>` with length drawn from the range.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    use super::{Strategy, TestRng};

    /// Strategy producing `Option<S::Value>`, mostly `Some`.
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `proptest::option::of(strategy)`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod array {
    use super::{Strategy, TestRng};

    /// Strategy producing `[S::Value; N]` from one element strategy.
    #[derive(Clone)]
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            std::array::from_fn(|_| self.0.generate(rng))
        }
    }

    /// `proptest::array::uniform4(strategy)`.
    pub fn uniform4<S: Strategy>(inner: S) -> UniformArray<S, 4> {
        UniformArray(inner)
    }
}

// --------------------------------------------------------------- config

/// Per-block configuration; only the case count is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl fmt::Display for ProptestConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProptestConfig(cases={})", self.cases)
    }
}

// --------------------------------------------------------------- macros

/// Assertion macros: plain panics (no shrinking), so std semantics apply.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Uniform choice among strategy arms producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($arm)),+])
    };
}

/// The property-test block macro. Supports:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))] // optional
///     #[test]
///     fn name(a in strategy, mut b in strategy, c: Type) { body }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    // Entry: optional block-level config, then functions.
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@fns ($config); $($rest)*);
    };
    (@fns ($config:expr);) => {};
    (@fns ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            for case in 0..u64::from(config.cases) {
                let mut prop_rng = $crate::TestRng::deterministic(stringify!($name), case);
                let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $crate::proptest!(@bind prop_rng; $($params)*);
                    $body
                }));
                if let Err(payload) = outcome {
                    eprintln!(
                        "proptest shim: {} failed at case {case}/{} \
                         (deterministic seed: test name + case index)",
                        stringify!($name),
                        config.cases,
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
        $crate::proptest!(@fns ($config); $($rest)*);
    };
    // Parameter munchers: `x in strategy` and `x: Type` forms, with
    // optional `mut` and optional trailing comma.
    (@bind $rng:ident;) => {};
    (@bind $rng:ident; mut $name:ident in $strat:expr, $($rest:tt)*) => {
        let mut $name = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    (@bind $rng:ident; mut $name:ident in $strat:expr) => {
        let mut $name = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    (@bind $rng:ident; $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    (@bind $rng:ident; $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::generate(&($strat), &mut $rng);
    };
    (@bind $rng:ident; mut $name:ident : $ty:ty, $($rest:tt)*) => {
        let mut $name = <$ty as $crate::Arbitrary>::arbitrary_with(&mut $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    (@bind $rng:ident; mut $name:ident : $ty:ty) => {
        let mut $name = <$ty as $crate::Arbitrary>::arbitrary_with(&mut $rng);
    };
    (@bind $rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary_with(&mut $rng);
        $crate::proptest!(@bind $rng; $($rest)*);
    };
    (@bind $rng:ident; $name:ident : $ty:ty) => {
        let $name = <$ty as $crate::Arbitrary>::arbitrary_with(&mut $rng);
    };
    // No block-level config: default.
    ($($rest:tt)*) => {
        $crate::proptest!(@fns ($crate::ProptestConfig::default()); $($rest)*);
    };
}

pub mod prelude {
    //! Mirror of `proptest::prelude`: the names tests import with `*`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Any, Arbitrary,
        Just, ProptestConfig, Strategy, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_per_name_and_case() {
        let mut a = TestRng::deterministic("t", 3);
        let mut b = TestRng::deterministic("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::deterministic("t", 4);
        assert_ne!(TestRng::deterministic("t", 3).next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn all_param_forms(
            x in 1u64..10,
            mut v in crate::collection::vec(any::<u8>(), 0..8),
            y: u16,
            arr: [u8; 4],
            opt in crate::option::of(0u8..4),
            quad in crate::array::uniform4(0u64..100),
            choice in prop_oneof![(1u8..2).prop_map(|v| v * 10), Just(7u8)],
        ) {
            prop_assert!((1..10).contains(&x));
            v.push(0);
            prop_assert!(!v.is_empty());
            let _ = (y, arr);
            if let Some(o) = opt {
                prop_assert!(o < 4);
            }
            prop_assert!(quad.iter().all(|&q| q < 100));
            prop_assert!(choice == 10 || choice == 7);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(pair in (any::<bool>(), 0u32..5)) {
            prop_assert!(pair.1 < 5);
        }
    }
}
