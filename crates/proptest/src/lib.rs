//! A self-contained, deterministic subset of the `proptest` API.
//!
//! The build environment for this repository has no network access, so the
//! real crates-io `proptest` cannot be fetched. This crate implements the
//! slice of its API the workspace's property tests use — `proptest!`,
//! `prop_assert!`/`prop_assert_eq!`, `any::<T>()`, integer-range strategies,
//! tuples, `prop_map`, and `proptest::collection::{vec, btree_map}` — over a
//! fast deterministic PRNG.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case is reported with its generated inputs
//!   (via `Debug` in the assertion message) but not minimized.
//! * **Deterministic.** Every run draws the same cases from a fixed seed, so
//!   CI failures reproduce locally without a persistence file.
//! * **Fixed case count** ([`test_runner::CASES`]) instead of a
//!   configuration system.

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The subset of `proptest::prelude::*` the tests rely on.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Defines property tests: each `fn` runs its body against
/// [`test_runner::CASES`] generated inputs.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// addition_commutes();
/// ```
///
/// In test code, write `#[test]` above each `fn` (the attribute passes
/// through) so the harness picks it up.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
                for case in 0..$crate::test_runner::CASES {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let case_desc = {
                        let mut desc = String::new();
                        $(
                            desc.push_str(concat!(stringify!($arg), " = "));
                            desc.push_str(&format!("{:?}, ", &$arg));
                        )+
                        desc
                    };
                    let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                    if let Err(err) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}\n  inputs: {}",
                            stringify!($name),
                            case + 1,
                            $crate::test_runner::CASES,
                            err,
                            case_desc,
                        );
                    }
                }
            }
        )+
    };
}

/// `assert!` that fails the property (with context) instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(concat!(
                "assertion failed: ",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// `assert_eq!` counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (left_val, right_val) => {
                if !(*left_val == *right_val) {
                    return Err($crate::test_runner::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        left_val,
                        right_val
                    )));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (left_val, right_val) => {
                if !(*left_val == *right_val) {
                    return Err($crate::test_runner::TestCaseError::fail(format!(
                        "assertion failed: `{} == {}`: {}\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        format!($($fmt)+),
                        left_val,
                        right_val
                    )));
                }
            }
        }
    };
}

/// Skips the current case when its inputs don't fit the property's
/// precondition. Without shrinking there is nothing to record, so a skipped
/// case simply succeeds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)+)?) => {
        if !($cond) {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 0u8..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn tuples_and_maps_compose(
            pair in (0u32..10, 0u32..10).prop_map(|(a, b)| a + b),
            items in crate::collection::vec(any::<bool>(), 1..8),
        ) {
            prop_assert!(pair < 20);
            prop_assert!(!items.is_empty() && items.len() < 8);
        }

        #[test]
        fn btree_map_sizes_respected(
            map in crate::collection::btree_map(0u64..100, any::<u8>(), 1..10),
        ) {
            prop_assert!(!map.is_empty() && map.len() < 10);
        }

        #[test]
        fn exact_count_vec(v in crate::collection::vec(0u32..5, 3)) {
            prop_assert_eq!(v.len(), 3);
        }
    }

    #[test]
    fn determinism_across_runs() {
        let mut a = crate::test_runner::TestRng::deterministic("seed");
        let mut b = crate::test_runner::TestRng::deterministic("seed");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "property")]
    fn failures_panic_with_context() {
        proptest! {
            #[allow(dead_code)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100);
            }
        }
        always_fails();
    }
}
