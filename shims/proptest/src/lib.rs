//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the strategy/macro subset its tests actually use: the [`proptest!`]
//! macro, `prop_assert*`, [`prop_oneof!`], [`Just`], range and tuple
//! strategies, a regex-lite string strategy, `collection::{vec, btree_set,
//! btree_map}`, `prop_map`/`prop_recursive`, and [`ProptestConfig`].
//!
//! Differences from upstream, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs (`Debug`) and the
//!   deterministic per-test seed instead of a minimized counterexample.
//! * **Deterministic streams.** Each test's RNG is seeded from its name,
//!   so failures reproduce without a regression file; the
//!   `proptest-regressions/` files upstream writes are ignored.
//! * **Smaller default case count** (64) to keep `cargo test -q` fast.

// Vendored stand-in, not a production decode/serving path: its
// internal test harness panics by documented contract, so the
// workspace-wide unwrap/expect wall is relaxed here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

/// Deterministic test RNG (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from an arbitrary byte string (the test name).
    pub fn from_name(name: &str) -> Self {
        let mut state = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            state ^= u64::from(b);
            state = state.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A failed test case (what `prop_assert*` returns).
#[derive(Debug, Clone)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy
// ---------------------------------------------------------------------------

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value: fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> MapStrategy<Self, F>
    where
        Self: Sized,
        U: fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        MapStrategy { inner: self, f }
    }

    /// Builds a recursive strategy: values are either from `self` (the
    /// leaves) or from `recurse` applied to the previous layer, nested at
    /// most `depth` levels. The `_desired_size`/`_expected_branch_size`
    /// tuning knobs of upstream proptest are accepted and ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut layer = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(layer).boxed();
            // Lean toward leaves so expected tree size stays bounded.
            layer = Union::new(vec![(2, leaf.clone()), (3, deeper)]).boxed();
        }
        layer
    }

    /// Type-erases the strategy behind a cheaply clonable handle.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// `prop_map` adapter.
#[derive(Clone)]
pub struct MapStrategy<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for MapStrategy<S, F>
where
    S: Strategy,
    U: fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A type-erased, clonable strategy handle.
pub struct BoxedStrategy<T>(Arc<dyn StrategyObj<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

trait StrategyObj<T> {
    fn sample_dyn(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> StrategyObj<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

impl<T: fmt::Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample_dyn(rng)
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Weighted choice between strategies of one value type ([`prop_oneof!`]).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds a union; weights must not all be zero.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|&(w, _)| u64::from(w)).sum();
        assert!(total > 0, "prop_oneof! needs a positive total weight");
        Union { arms, total }
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union { arms: self.arms.clone(), total: self.total }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < u64::from(*w) {
                return s.sample(rng);
            }
            pick -= u64::from(*w);
        }
        self.arms[self.arms.len() - 1].1.sample(rng)
    }
}

// --- ranges ----------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((u128::from(rng.next_u64()) % span) as $t)
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

// --- tuples ----------------------------------------------------------------

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3),);

// --- regex-lite string strategy --------------------------------------------

#[derive(Debug, Clone)]
enum CharSet {
    /// Inclusive character ranges, e.g. `[a-z0-9_]`.
    Classes(Vec<(char, char)>),
    /// `.` — printable ASCII.
    Any,
}

impl CharSet {
    fn draw(&self, rng: &mut TestRng) -> char {
        match self {
            CharSet::Any => char::from(rng.below(95) as u8 + 0x20),
            CharSet::Classes(ranges) => {
                let total: u64 =
                    ranges.iter().map(|&(a, b)| (b as u64) - (a as u64) + 1).sum();
                let mut pick = rng.below(total);
                for &(a, b) in ranges {
                    let span = (b as u64) - (a as u64) + 1;
                    if pick < span {
                        return char::from_u32(a as u32 + pick as u32).unwrap_or(a);
                    }
                    pick -= span;
                }
                ranges[0].0
            }
        }
    }
}

#[derive(Debug, Clone)]
struct PatternPiece {
    set: CharSet,
    min: u32,
    max: u32,
}

/// Parses the regex subset the workspace's string strategies use:
/// literal characters, `[...]` classes of chars and ranges, `.`, and
/// quantifiers `{n}`, `{m,n}`, `?`, `*`, `+` (the last two capped at 8).
fn parse_pattern(pattern: &str) -> Vec<PatternPiece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut pieces = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let set = match chars[i] {
            '.' => {
                i += 1;
                CharSet::Any
            }
            '[' => {
                let close = chars[i + 1..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| p + i + 1)
                    .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"));
                let mut ranges = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        ranges.push((chars[j], chars[j + 2]));
                        j += 3;
                    } else {
                        ranges.push((chars[j], chars[j]));
                        j += 1;
                    }
                }
                i = close + 1;
                CharSet::Classes(ranges)
            }
            '\\' => {
                i += 2;
                CharSet::Classes(vec![(chars[i - 1], chars[i - 1])])
            }
            c => {
                i += 1;
                CharSet::Classes(vec![(c, c)])
            }
        };
        let (min, max) = match chars.get(i) {
            Some('{') => {
                let close = chars[i + 1..]
                    .iter()
                    .position(|&c| c == '}')
                    .map(|p| p + i + 1)
                    .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"));
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.trim().parse().expect("bad quantifier"),
                        n.trim().parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n: u32 = body.trim().parse().expect("bad quantifier");
                        (n, n)
                    }
                }
            }
            Some('?') => {
                i += 1;
                (0, 1)
            }
            Some('*') => {
                i += 1;
                (0, 8)
            }
            Some('+') => {
                i += 1;
                (1, 8)
            }
            _ => (1, 1),
        };
        pieces.push(PatternPiece { set, min, max });
    }
    pieces
}

impl Strategy for &'static str {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let n = piece.min + rng.below(u64::from(piece.max - piece.min + 1)) as u32;
            for _ in 0..n {
                out.push(piece.set.draw(rng));
            }
        }
        out
    }
}

// --- collections -----------------------------------------------------------

/// A size specification for collection strategies.
#[derive(Debug, Clone)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange { min: r.start, max: r.end }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { min: *r.start(), max: *r.end() + 1 }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n + 1 }
    }
}

/// Collection strategies (`proptest::collection::*`).
pub mod collection {
    use super::*;

    /// `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// `BTreeSet` of values from `element`; sizes that dedup cannot reach
    /// are clipped rather than looped on forever.
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// `BTreeMap` with keys from `key` and values from `value`.
    pub fn btree_map<K, V>(
        key: K,
        value: V,
        size: impl Into<SizeRange>,
    ) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        BTreeMapStrategy { key, value, size: size.into() }
    }

    /// Strategy produced by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.min + rng.below((self.size.max - self.size.min) as u64) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy produced by [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = self.size.min + rng.below((self.size.max - self.size.min) as u64) as usize;
            let mut out = BTreeSet::new();
            for _ in 0..n.saturating_mul(16) {
                if out.len() >= n {
                    break;
                }
                out.insert(self.element.sample(rng));
            }
            out
        }
    }

    /// Strategy produced by [`btree_map`].
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: SizeRange,
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        K::Value: Ord,
        V: Strategy,
    {
        type Value = BTreeMap<K::Value, V::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
            let n = self.size.min + rng.below((self.size.max - self.size.min) as u64) as usize;
            let mut out = BTreeMap::new();
            for _ in 0..n.saturating_mul(16) {
                if out.len() >= n {
                    break;
                }
                out.insert(self.key.sample(rng), self.value.sample(rng));
            }
            out
        }
    }
}

/// Numeric "any value" strategies (`proptest::num::*::ANY`).
pub mod num {
    macro_rules! any_mod {
        ($($m:ident : $t:ty),*) => {$(
            /// `ANY` strategy for the corresponding primitive.
            pub mod $m {
                /// Every value of the type, uniformly.
                pub const ANY: ::std::ops::RangeInclusive<$t> = <$t>::MIN..=<$t>::MAX;
            }
        )*};
    }
    any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize, i32: i32, i64: i64);
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Weighted (or unweighted) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// `assert!` that fails the current case instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` that fails the current case instead of panicking outright.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {:?} != {:?}", a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {:?} != {:?} — {}", a, b, format!($($fmt)*)
        );
    }};
}

/// Declares property tests: each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` that samples its inputs [`ProptestConfig::cases`]
/// times and runs the body against each sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cfg: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..cfg.cases {
                    // Sampled into a tuple first so the inputs can be
                    // rendered for the failure message even when a binding
                    // pattern (`mut x`) is not an expression, and even when
                    // the body moves the values.
                    let sampled = ($($crate::Strategy::sample(&($strat), &mut rng),)*);
                    let rendered_inputs = format!("{sampled:?}");
                    let ($($arg,)*) = sampled;
                    let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{} with inputs {}: {}",
                            stringify!($name),
                            case + 1,
                            cfg.cases,
                            rendered_inputs,
                            e,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// The glob import test modules use.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
    /// Upstream re-exports strategies under `prop::`; mirror the alias.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    proptest! {
        #[test]
        fn ranges_sample_in_bounds(x in 3u32..17, y in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size(v in crate::collection::vec(0u8..255, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn btree_set_is_deduped(s in crate::collection::btree_set(0u32..50, 1..20)) {
            prop_assert!(!s.is_empty() && s.len() < 20);
        }

        #[test]
        fn string_pattern_shape(s in "[a-c][a-c0-9]{0,3}") {
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().next().map(|c| ('a'..='c').contains(&c)).unwrap_or(false));
        }

        #[test]
        fn oneof_and_just(v in prop_oneof![Just(1u32), Just(2), Just(3)]) {
            prop_assert!([1, 2, 3].contains(&v));
        }

        #[test]
        fn oneof_weighted(v in prop_oneof![9 => Just(1u32), 1 => Just(2)]) {
            prop_assert!(v == 1 || v == 2);
        }

        #[test]
        fn tuples_and_prop_map(p in (0u8..4, 0u8..4).prop_map(|(a, b)| (b, a))) {
            prop_assert!(p.0 < 4 && p.1 < 4);
        }
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone)]
        enum Tree {
            Leaf(u8),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(v) => usize::from(*v < 16),
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u8..16).prop_map(Tree::Leaf).prop_recursive(4, 24, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
        });
        let mut rng = TestRng::from_name("recursive_strategy_terminates");
        let mut seen_node = false;
        for _ in 0..64 {
            let t = strat.sample(&mut rng);
            assert!(depth(&t) <= 5);
            seen_node |= matches!(t, Tree::Node(_, _));
        }
        assert!(seen_node, "recursion should produce internal nodes");
    }

    #[test]
    fn config_controls_case_count() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static RUNS: AtomicU32 = AtomicU32::new(0);
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(7))]
            fn counted(_x in 0u8..10) {
                RUNS.fetch_add(1, Ordering::Relaxed);
            }
        }
        counted();
        assert_eq!(RUNS.load(Ordering::Relaxed), 7);
    }
}
