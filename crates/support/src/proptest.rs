//! A miniature property-testing harness with a `proptest`-flavoured surface.
//!
//! The real `proptest` crate is not available offline, so this module
//! provides the small subset the workspace's tests use: the [`proptest!`](crate::proptest!)
//! macro wrapping `fn name(arg in strategy, …) { … }` test bodies, range and
//! collection strategies, `prop_assert!`/`prop_assert_eq!`, and a
//! [`ProptestConfig`] with a configurable case count. Inputs are drawn from a
//! deterministic per-test RNG stream (seeded from the test name), so failures
//! are reproducible; there is no shrinking — the failing inputs are printed
//! instead.

use crate::rng::{Rng, SimRng};
use std::ops::Range;

/// Configuration accepted by `#![proptest_config(…)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut SimRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_int_strategy!(u64, u32, usize);

/// Collection strategies (`collection::vec`).
pub mod collection {
    use super::{Strategy, *};

    /// A strategy producing `Vec`s whose length is drawn from `len` and whose
    /// elements are drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` values with a length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut SimRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Deterministic 64-bit FNV-1a hash used to derive a per-test RNG seed from
/// the test's name.
pub const fn fnv1a(name: &str) -> u64 {
    let bytes = name.as_bytes();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    hash
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use super::collection;
    pub use super::{ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Declares property tests. See the module documentation.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::proptest::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let config: $crate::proptest::ProptestConfig = $cfg;
                let mut rng = $crate::rng::SimRng::seed_from_u64(
                    $crate::proptest::fnv1a(concat!(module_path!(), "::", stringify!($name))),
                );
                for __case in 0..config.cases {
                    $(
                        let $arg = $crate::proptest::Strategy::sample(&($strategy), &mut rng);
                    )*
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}, ",)*),
                        $(&$arg,)*
                    );
                    let __result: ::std::result::Result<(), ::std::string::String> = (|| {
                        $body
                        Ok(())
                    })();
                    if let Err(message) = __result {
                        panic!(
                            "property {} failed at case {}/{} with inputs [{}]: {}",
                            stringify!($name),
                            __case + 1,
                            config.cases,
                            __inputs,
                            message,
                        );
                    }
                }
            }
        )*
    };
}

/// Property-style assertion: fails the current case (with its inputs printed)
/// instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Property-style equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 0.0f64..10.0, n in 1usize..5) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..5).contains(&n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn vec_strategy_respects_length(values in collection::vec(0.5f64..2.0, 2..6)) {
            prop_assert!((2..6).contains(&values.len()));
            for v in &values {
                prop_assert!((0.5..2.0).contains(v), "value {v} out of range");
            }
        }
    }

    #[test]
    fn failing_property_reports_inputs() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("always_fails"), "message: {message}");
        assert!(message.contains("x ="), "message: {message}");
    }

    #[test]
    fn fnv1a_is_stable_and_distinct() {
        assert_eq!(super::fnv1a("abc"), super::fnv1a("abc"));
        assert_ne!(super::fnv1a("abc"), super::fnv1a("abd"));
    }
}
