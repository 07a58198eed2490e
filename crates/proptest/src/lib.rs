//! In-tree, dependency-free stand-in for `proptest`.
//!
//! The build environment resolves crates hermetically (no registry
//! access), so this crate provides the proptest 1.x API subset the
//! workspace's property tests use: the [`Strategy`](strategy::Strategy) trait with
//! `prop_map`/`prop_flat_map`, range/tuple/`Just`/`collection::vec`/
//! `option::of`/`any` strategies, `ProptestConfig`, and the `proptest!`
//! / `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! inputs via the assertion message and its deterministic seed instead),
//! and case generation is a simple seeded RNG derived from the test name
//! so failures reproduce exactly across runs. Case count defaults to 64
//! and can be raised with the `PROPTEST_CASES` environment variable.

#![forbid(unsafe_code)]

pub mod strategy {
    use rand::rngs::SmallRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// The RNG handed to strategies; deterministic per test case.
    pub type TestRng = SmallRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Output of [`Strategy::prop_map`].
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

    /// Output of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.start..self.end)
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(*self.start()..=*self.end())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, G);

    /// Types with a canonical "any value" strategy ([`any`]).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen::<u64>() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy for the full value range of `T` (see [`any`]).
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// `any::<T>()` — any representable value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Length specifications accepted by [`vec()`].
    pub trait SizeRange {
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl SizeRange for RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// A `Vec` of values from `element`, with length drawn from `size`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample_len(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }
}

pub mod option {
    use crate::strategy::{Strategy, TestRng};
    use rand::Rng;

    /// `Some` roughly four times out of five, `None` otherwise.
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.gen_bool(0.8) {
                Some(self.0.generate(rng))
            } else {
                None
            }
        }
    }

    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }
}

pub mod test_runner {
    use crate::strategy::TestRng;
    use rand::SeedableRng;

    /// Runner configuration; only `cases` is meaningful here.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            let cases =
                std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
            Self { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// An assertion failed: the property is violated.
        Fail(String),
        /// `prop_assume!` rejected the inputs: draw another case.
        Reject(String),
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Drive one property: draw cases until `config.cases` are accepted,
    /// panicking (with the reproducing seed) on the first failure.
    pub fn run<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let base = fnv1a(name.as_bytes());
        let mut accepted: u32 = 0;
        let mut attempt: u64 = 0;
        let max_attempts = config.cases as u64 * 20 + 100;
        while accepted < config.cases {
            attempt += 1;
            if attempt > max_attempts {
                panic!(
                    "{name}: gave up after {max_attempts} attempts \
                     ({accepted}/{} cases accepted; prop_assume! rejects too much)",
                    config.cases
                );
            }
            let seed = base ^ attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rng = TestRng::seed_from_u64(seed);
            match case(&mut rng) {
                Ok(()) => accepted += 1,
                Err(TestCaseError::Reject(_)) => continue,
                Err(TestCaseError::Fail(msg)) => {
                    panic!("{name}: property failed at case {accepted} (seed {seed:#x}): {msg}")
                }
            }
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

pub use strategy::Just;

/// Define property tests. Mirrors upstream `proptest!`: an optional
/// `#![proptest_config(...)]` header, then `#[test] fn` items whose
/// parameters are `pattern in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($p:pat in $s:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                $(let $p = $crate::strategy::Strategy::generate(&($s), __rng);)*
                let mut __case = ||
                    -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                };
                __case()
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Assert inside a `proptest!` body; failure reports the case's seed.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(
                    *__l == *__r,
                    "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    __l,
                    __r
                );
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (__l, __r) => {
                $crate::prop_assert!(*__l == *__r, $($fmt)+);
            }
        }
    };
}

/// Reject the current case (draw a fresh one) unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, Vec<u32>)> {
        (1usize..5).prop_flat_map(|n| {
            (Just(n), crate::collection::vec(0u32..100, n)).prop_map(|(n, v)| (n, v))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]
        #[test]
        fn ranges_in_bounds(x in 3usize..10, y in 0.0f32..1.0, (n, v) in pair()) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((0.0..1.0).contains(&y));
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_rejects(mut x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            x += 2;
            prop_assert!(x % 2 == 0);
        }

        #[test]
        fn option_and_any(o in crate::option::of(1usize..8), b in any::<bool>()) {
            if let Some(v) = o {
                prop_assert!((1..8).contains(&v));
            }
            prop_assert!(usize::from(b) <= 1);
        }
    }

    #[test]
    fn failure_panics_with_seed() {
        let caught = std::panic::catch_unwind(|| {
            crate::test_runner::run(
                &ProptestConfig::with_cases(4),
                "always_fails",
                |_rng| -> Result<(), TestCaseError> { Err(TestCaseError::Fail("nope".into())) },
            );
        });
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("always_fails") && msg.contains("seed"), "{msg}");
    }
}
