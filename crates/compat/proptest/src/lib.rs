//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! This workspace builds in fully offline environments, so the property
//! tests cannot pull the real `proptest` from crates.io. This crate
//! implements exactly the API subset the workspace uses:
//!
//! * [`Strategy`](strategy::Strategy) with `prop_map` / `prop_flat_map`,
//! * integer/float range strategies, tuple strategies,
//!   [`Just`](strategy::Just),
//! * [`collection::vec`], [`bool::ANY`], `any::<T>()` for a few types,
//!   and `&'static str` patterns of the `.{lo,hi}` form,
//! * the [`proptest!`] macro with optional `#![proptest_config(..)]`,
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_oneof!`.
//!
//! Differences from the real crate: generated values are **not shrunk**
//! on failure, and each test's random stream is seeded deterministically
//! from the test's module path plus the case index, so failures are
//! reproducible run to run. The number of cases per property defaults to
//! 64 and can be overridden with the `PROPTEST_CASES` environment
//! variable or `ProptestConfig::with_cases`.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;

#[allow(clippy::module_inception)]
pub mod bool {
    //! Strategies for `bool` values.
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Uniform `true` / `false`.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolStrategy;

    /// The canonical boolean strategy.
    pub const ANY: BoolStrategy = BoolStrategy;

    impl Strategy for BoolStrategy {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// SplitMix64 — the same generator `banks-datagen` uses, duplicated here
/// so the compat crate stays dependency-free.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded constructor.
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, span)`.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }
}

/// Deterministic per-test, per-case seed: FNV-1a over the test name mixed
/// with the case index.
pub fn test_rng(test_name: &str, case: u64) -> TestRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TestRng::new(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Runner configuration. Only the case count is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    /// A config running exactly `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Defines property tests. Each function body runs `config.cases` times
/// with freshly generated inputs; assertion macros panic on failure (no
/// shrinking).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; the config expression is
/// threaded as a depth-0 capture so it can be reused in every test.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($p:pat_param in $s:expr),* $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                for __case in 0..__config.cases {
                    let mut __rng = $crate::test_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        __case as u64,
                    );
                    let _ = &mut __rng;
                    $(
                        let $p = $crate::strategy::Strategy::generate(&($s), &mut __rng);
                    )*
                    $body
                }
            }
        )+
    };
}

/// Assertion inside a property: plain `assert!` (failing cases are not
/// shrunk).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Uniform choice between several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![ $( $crate::strategy::arm($s) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = crate::test_rng("x", 0);
        let mut b = crate::test_rng("x", 0);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_rng("x", 1);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0usize..5, f in 0.25f64..=0.75) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 5);
            prop_assert!((0.25..=0.75).contains(&f));
        }

        #[test]
        fn vec_sizes_respected(v in crate::collection::vec(0u16..9, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&e| e < 9));
        }

        #[test]
        fn oneof_and_maps_compose(op in prop_oneof![
            (0u16..4).prop_map(|v| v as u32),
            Just(99u32),
        ]) {
            prop_assert!(op < 4 || op == 99);
        }

        #[test]
        fn string_pattern_lengths(s in ".{0,12}") {
            prop_assert!(s.chars().count() <= 12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        #[test]
        fn config_attribute_parses(b in crate::bool::ANY, o in any::<Option<i64>>()) {
            let _ = (b, o);
        }
    }
}
