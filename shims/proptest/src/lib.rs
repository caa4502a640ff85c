//! Minimal, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this crate implements
//! exactly the surface the workspace's property tests use:
//!
//! - the [`proptest!`] macro (with an optional `#![proptest_config(..)]`
//!   header), [`prop_assert!`] and [`prop_assert_eq!`];
//! - [`Strategy`](strategy::Strategy) implemented for numeric
//!   [`std::ops::Range`]s, tuples of up to six strategies,
//!   [`prop::collection::vec`], and
//!   [`Strategy::prop_map`](strategy::Strategy::prop_map);
//! - [`prelude::ProptestConfig`] / [`prelude::TestCaseError`].
//!
//! Differences from real proptest, by design:
//!
//! - **Deterministic generation.** Each case's RNG is seeded from the test
//!   name and case index, so a failure reproduces on every run with no
//!   persistence files. `*.proptest-regressions` files are ignored;
//!   regression inputs are pinned as explicit unit tests instead.
//! - **No shrinking.** The failing input is printed verbatim (it is often
//!   already small because sizes are drawn low-biased).

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Namespace mirror of `proptest::prop` (only `collection::vec` is used).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        pub use crate::strategy::vec;
    }
}

/// The common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Defines property tests. Mirrors `proptest::proptest!`: an optional
/// `#![proptest_config(expr)]` header followed by test functions whose
/// arguments are drawn from strategies (`arg in strategy`). As in real
/// proptest, each function carries its own `#[test]` attribute; the macro
/// passes attributes through and adds none.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { @cfg [$cfg] $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            @cfg [$crate::test_runner::ProptestConfig::default()] $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (@cfg [$cfg:expr]) => {};
    (@cfg [$cfg:expr]
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(
                &config,
                stringify!($name),
                ($($strat,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
        $crate::__proptest_body! { @cfg [$cfg] $($rest)* }
    };
}

/// Fails the current property case (early-returns a `TestCaseError`)
/// when the condition is false. Mirrors `proptest::prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Equality variant of [`prop_assert!`]. Mirrors `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+),
            l,
            r
        );
    }};
}
