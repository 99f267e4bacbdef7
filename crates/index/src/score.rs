//! BM25 scoring with the hardware's precomputed sub-expressions (paper
//! §2.2, §4.3 "Scoring Unit").
//!
//! IIU strength-reduces BM25 by precomputing, at index time,
//!
//! * per term: `idf̄(q) = idf(q) · (k₁ + 1)`, and
//! * per document: `dl̄(d) = k₁ · (1 − b + b · |d| / avgdl)`,
//!
//! so the scoring unit only computes `s̄ = 1 / (tf + dl̄(d))` with a
//! pipelined fixed-point divider and then `s = idf̄ · s̄ · tf`. This module
//! provides both a double-precision reference and the Q16.16 fixed-point
//! path the hardware uses; tests bound their divergence.
//!
//! The IDF follows Lucene's BM25 similarity,
//! `idf = ln(1 + (N − n + 0.5) / (n + 0.5))`, which is the paper's formula
//! guarded against negative values for terms occurring in more than half
//! the corpus (Lucene is the paper's baseline, so its IDF is the one the
//! comparison actually ran against).

use std::fmt;

/// BM25 free parameters (`k₁` limits tf scaling, `b` controls length
/// normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation constant; Lucene default 1.2.
    pub k1: f64,
    /// Length-normalization strength; Lucene default 0.75.
    pub b: f64,
}

/// The mean of `doc_lens`, summed in document order; 1 for an empty
/// corpus.
pub fn avgdl(doc_lens: &[u32]) -> f64 {
    if doc_lens.is_empty() {
        return 1.0;
    }
    doc_lens.iter().map(|&l| f64::from(l)).sum::<f64>() / doc_lens.len() as f64
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

impl Bm25Params {
    /// Inverse document frequency of a term occurring in `df` of `n_docs`
    /// documents (Lucene-style, always non-negative).
    pub fn idf(&self, n_docs: u64, df: u64) -> f64 {
        let n = n_docs as f64;
        let d = df as f64;
        (1.0 + (n - d + 0.5) / (d + 0.5)).ln()
    }

    /// The precomputed per-term constant `idf̄ = idf · (k₁ + 1)`.
    pub fn idf_bar(&self, n_docs: u64, df: u64) -> f64 {
        self.idf(n_docs, df) * (self.k1 + 1.0)
    }

    /// The precomputed per-document constant
    /// `dl̄(d) = k₁ · (1 − b + b · |d| / avgdl)`.
    pub fn dl_bar(&self, doc_len: u32, avgdl: f64) -> f64 {
        self.k1 * (1.0 - self.b + self.b * f64::from(doc_len) / avgdl)
    }

    /// The Q16.16 `dl̄` of every document of `doc_lens` at `avgdl`: the
    /// table the scoring datapath and the block bounds read.
    pub fn dl_bars(&self, doc_lens: &[u32], avgdl: f64) -> Vec<Fixed> {
        let dl_bar = |l: u64| Fixed::from_f64(self.dl_bar(l as u32, avgdl));
        memoized(doc_lens.iter().map(|&l| u64::from(l)), dl_bar)
    }

    /// Reference (double-precision) per-term score contribution:
    /// `idf̄ · tf / (tf + dl̄)`.
    pub fn term_score(&self, idf_bar: f64, dl_bar: f64, tf: u32) -> f64 {
        let tf = f64::from(tf);
        idf_bar * tf / (tf + dl_bar)
    }
}

/// `f` of every key, evaluated once per key while it stays in a small
/// direct-mapped memo: document lengths and document frequencies repeat a
/// lot, and the conversions they feed cost a division and a rounding (and
/// a logarithm) each.
pub(crate) fn memoized(
    keys: impl Iterator<Item = u64>,
    f: impl Fn(u64) -> Fixed,
) -> Vec<Fixed> {
    const SLOTS: usize = 4096;
    let mut memo = vec![(u64::MAX, Fixed::ZERO); SLOTS];
    keys.map(|key| {
        let slot = &mut memo[key as usize % SLOTS];
        if slot.0 != key {
            *slot = (key, f(key));
        }
        slot.1
    })
    .collect()
}

/// An unsigned Q16.16 fixed-point number, the arithmetic format of the
/// scoring unit's datapath.
///
/// # Example
///
/// ```
/// use iiu_index::Fixed;
/// let x = Fixed::from_f64(1.5);
/// assert_eq!(x.raw(), 3 << 15);
/// assert!((x.to_f64() - 1.5).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fixed(u32);

impl Fixed {
    /// Number of fractional bits.
    pub const FRAC_BITS: u32 = 16;
    /// The value 0.
    pub const ZERO: Fixed = Fixed(0);
    /// The value 1.0.
    pub const ONE: Fixed = Fixed(1 << Self::FRAC_BITS);

    /// Converts from `f64`, saturating at the representable range and
    /// flooring negatives to zero (the SU datapath is unsigned).
    pub fn from_f64(v: f64) -> Self {
        if v <= 0.0 {
            return Fixed(0);
        }
        let scaled = v * f64::from(1u32 << Self::FRAC_BITS);
        if scaled >= f64::from(u32::MAX) {
            Fixed(u32::MAX)
        } else {
            Fixed(scaled.round() as u32)
        }
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / f64::from(1u32 << Self::FRAC_BITS)
    }

    /// Raw Q16.16 bits.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Constructs from raw Q16.16 bits.
    pub fn from_raw(raw: u32) -> Self {
        Fixed(raw)
    }

    /// Saturating addition (used when summing per-term scores).
    pub fn saturating_add(self, other: Fixed) -> Fixed {
        Fixed(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}", self.to_f64())
    }
}

/// The scoring-unit datapath in software: one adder, one fixed-point
/// reciprocal, two multiplies (paper §4.3).
///
/// Computes `idf̄ · tf / (tf + dl̄)` entirely in integer arithmetic:
///
/// 1. `denom = (tf << 16) + dl̄`  (Q16.16)
/// 2. `s̄ = 2^48 / denom`          (Q0.32 reciprocal, the pipelined divider)
/// 3. `s = ((s̄ · tf) · idf̄) >> 32` (Q16.16 result)
///
/// Returns zero when `tf` is zero.
pub fn term_score_fixed(idf_bar: Fixed, dl_bar: Fixed, tf: u32) -> Fixed {
    if tf == 0 {
        return Fixed::ZERO;
    }
    let denom: u64 = (u64::from(tf) << Fixed::FRAC_BITS) + u64::from(dl_bar.raw());
    // denom >= tf<<16 >= 1<<16, so the reciprocal fits in 32 bits:
    // 2^48 / 2^16 = 2^32 at most, and tf >= 1 keeps it strictly below.
    let recip_q32: u64 = (1u64 << 48) / denom;
    let s_tf_q32: u64 = recip_q32 * u64::from(tf); // <= 2^32 (since tf/denom <= 1)
    let score_q16: u64 = (s_tf_q32 * u64::from(idf_bar.raw())) >> 32;
    Fixed(score_q16.min(u64::from(u32::MAX)) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idf_decreases_with_document_frequency() {
        let p = Bm25Params::default();
        let rare = p.idf(1_000_000, 10);
        let common = p.idf(1_000_000, 500_000);
        assert!(rare > common);
        assert!(common > 0.0, "Lucene-style IDF stays positive");
    }

    #[test]
    fn idf_positive_even_for_ubiquitous_terms() {
        let p = Bm25Params::default();
        assert!(p.idf(100, 100) > 0.0);
    }

    #[test]
    fn dl_bar_grows_with_doc_length() {
        let p = Bm25Params::default();
        assert!(p.dl_bar(1000, 100.0) > p.dl_bar(10, 100.0));
        // At |d| = avgdl, dl_bar = k1 exactly.
        assert!((p.dl_bar(100, 100.0) - p.k1).abs() < 1e-12);
    }

    #[test]
    fn term_score_saturates_in_tf() {
        let p = Bm25Params::default();
        let idf_bar = p.idf_bar(1_000_000, 100);
        let dl_bar = p.dl_bar(100, 120.0);
        let s1 = p.term_score(idf_bar, dl_bar, 1);
        let s10 = p.term_score(idf_bar, dl_bar, 10);
        let s1000 = p.term_score(idf_bar, dl_bar, 1000);
        assert!(s1 < s10 && s10 < s1000);
        // Saturation: the score approaches idf_bar asymptotically.
        assert!(s1000 < idf_bar);
        assert!(idf_bar - s1000 < idf_bar * 0.01);
    }

    #[test]
    fn fixed_constants() {
        assert_eq!(Fixed::ZERO.to_f64(), 0.0);
        assert_eq!(Fixed::ONE.to_f64(), 1.0);
        assert_eq!(Fixed::from_f64(-3.0), Fixed::ZERO);
        assert_eq!(Fixed::from_f64(1e12), Fixed::from_raw(u32::MAX));
    }

    #[test]
    fn fixed_score_matches_reference() {
        let p = Bm25Params::default();
        for (n_docs, df, doc_len, tf) in [
            (1_000_000u64, 100u64, 80u32, 1u32),
            (1_000_000, 100, 80, 7),
            (1_000_000, 500_000, 300, 3),
            (30_000_000, 12_000, 1000, 40),
            (100, 1, 5, 1),
        ] {
            let avgdl = 120.0;
            let idf_bar = p.idf_bar(n_docs, df);
            let dl_bar = p.dl_bar(doc_len, avgdl);
            let reference = p.term_score(idf_bar, dl_bar, tf);
            let fixed =
                term_score_fixed(Fixed::from_f64(idf_bar), Fixed::from_f64(dl_bar), tf);
            let err = (fixed.to_f64() - reference).abs();
            assert!(
                err < 1e-3 * reference.max(1.0),
                "fixed={} ref={reference} err={err}",
                fixed.to_f64()
            );
        }
    }

    #[test]
    fn fixed_score_zero_tf_is_zero() {
        assert_eq!(
            term_score_fixed(Fixed::from_f64(10.0), Fixed::from_f64(1.0), 0),
            Fixed::ZERO
        );
    }

    #[test]
    fn fixed_score_monotone_in_tf() {
        let idf_bar = Fixed::from_f64(8.0);
        let dl_bar = Fixed::from_f64(1.5);
        let mut prev = Fixed::ZERO;
        for tf in 1..100 {
            let s = term_score_fixed(idf_bar, dl_bar, tf);
            assert!(s >= prev, "score must not decrease with tf");
            prev = s;
        }
    }

    #[test]
    fn saturating_add_caps() {
        let big = Fixed::from_raw(u32::MAX - 5);
        assert_eq!(big.saturating_add(Fixed::from_raw(100)), Fixed::from_raw(u32::MAX));
    }

    proptest! {
        #[test]
        fn prop_fixed_close_to_reference(
            df in 1u64..1_000_000,
            doc_len in 1u32..5000,
            tf in 1u32..10_000,
        ) {
            let p = Bm25Params::default();
            let n_docs = 1_000_000u64;
            let avgdl = 250.0;
            let idf_bar = p.idf_bar(n_docs, df.min(n_docs));
            let dl_bar = p.dl_bar(doc_len, avgdl);
            let reference = p.term_score(idf_bar, dl_bar, tf);
            let fixed = term_score_fixed(
                Fixed::from_f64(idf_bar),
                Fixed::from_f64(dl_bar),
                tf,
            ).to_f64();
            // Relative error bound dominated by the Q16.16 quantization of
            // idf_bar and dl_bar.
            prop_assert!((fixed - reference).abs() < 2e-3 * reference.max(0.5));
        }

        #[test]
        fn prop_fixed_roundtrip(v in 0.0f64..65_000.0) {
            let f = Fixed::from_f64(v);
            prop_assert!((f.to_f64() - v).abs() <= 1.0 / 65536.0);
        }
    }
}
