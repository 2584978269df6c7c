//! Offline mini-proptest.
//!
//! Implements the subset of the `proptest` API this workspace uses —
//! the `proptest!` / `prop_assert*` macros, `Strategy` with
//! `prop_map`, range and tuple strategies, `prop::collection::vec`,
//! `prop_oneof!` / `Just`, and a deterministic
//! `TestRunner` — with seeded random generation and **no shrinking**.
//! Failing cases report the generated values instead of a minimized
//! counterexample.

#![forbid(unsafe_code)]

pub mod strategy;
pub mod test_runner;

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// Number of elements a [`vec()`] strategy may produce.
    #[derive(Debug, Clone, Copy)]
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
                hi: r.end.max(r.start + 1),
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing a `Vec` of values from an element strategy.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, runner: &mut TestRunner) -> Self::Value {
            let len = runner.rng().gen_range(self.size.lo..self.size.hi);
            (0..len).map(|_| self.element.generate(runner)).collect()
        }
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRunner;
    use rand::Rng;

    /// Strategy producing uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// The canonical boolean strategy.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn generate(&self, runner: &mut TestRunner) -> bool {
            runner.rng().gen_range(0u8..2) == 1
        }
    }
}

/// Everything a test module usually imports.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` module alias exported by proptest's prelude.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Assert inside a proptest body; failure aborts this case with a
/// report of the condition.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "assertion failed: {:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{}: {:?} == {:?}", format!($($fmt)*), a, b);
    }};
}

/// `assert_ne!` inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "assertion failed: {:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{}: {:?} != {:?}", format!($($fmt)*), a, b);
    }};
}

/// Discard the current case unless the hypothesis holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).into(),
            ));
        }
    };
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Define `#[test]` functions whose arguments are drawn from
/// strategies. Supports the optional
/// `#![proptest_config(ProptestConfig::with_cases(n))]` header.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            let mut runner = $crate::test_runner::TestRunner::deterministic();
            let mut passed: u32 = 0;
            let mut attempts: u32 = 0;
            while passed < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_mul(16).max(64) {
                    panic!(
                        "proptest '{}': too many rejected cases ({} passed of {})",
                        stringify!($name), passed, config.cases
                    );
                }
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut runner);)*
                let outcome: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (|| {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => passed += 1,
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!("proptest '{}' failed: {}", stringify!($name), msg)
                    }
                }
            }
        }
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 1u64..10, pair in (0usize..5, 0usize..5)) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(pair.0 < 5 && pair.1 < 5);
        }

        #[test]
        fn vec_and_map(v in prop::collection::vec((0u32..3).prop_map(|x| x * 2), 0..8)) {
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|x| [0, 2, 4].contains(x)));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(7u64), 0u64..3]) {
            prop_assert!(v == 7 || v < 3);
        }

        #[test]
        fn assume_rejects(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert_ne!(x, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_header_accepted(x in 0u8..2) {
            prop_assert!(x < 2);
        }
    }

    #[test]
    fn new_tree_current_api() {
        use crate::strategy::{Strategy, ValueTree};
        let mut runner = TestRunner::deterministic();
        let v = (0u64..5).new_tree(&mut runner).expect("strategy").current();
        assert!(v < 5);
    }

    #[test]
    fn deterministic_runner_reproduces() {
        use crate::strategy::Strategy;
        let gen = |runner: &mut TestRunner| {
            (0..20)
                .map(|_| (0u64..1000).generate(runner))
                .collect::<Vec<_>>()
        };
        let a = gen(&mut TestRunner::deterministic());
        let b = gen(&mut TestRunner::deterministic());
        assert_eq!(a, b);
    }
}
