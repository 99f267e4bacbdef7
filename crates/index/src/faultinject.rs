//! Deterministic fault injection for serialized indexes.
//!
//! A production load path (the paper's `init(file invFile)` host primitive,
//! §4.1) must survive truncated, bit-flipped and adversarially spliced
//! inputs without panicking. This module generates such inputs
//! *deterministically* — every corruption is a pure function of a seed —
//! so a failure reproduces from its seed alone, and drives them through
//! [`crate::io::deserialize`] to produce a survival report.
//!
//! The generator is a SplitMix64 PRNG (Steele et al., "Fast splittable
//! pseudorandom number generators") so the crate needs no `rand`
//! dependency.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::IndexError;
use crate::index::InvertedIndex;
use crate::io::deserialize;

/// SplitMix64: tiny, seedable, statistically solid for fuzzing purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
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
        debug_assert!(bound > 0, "below() needs a positive bound");
        self.next_u64() % bound.max(1)
    }
}

/// One concrete corruption applied to a serialized index.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Corruption {
    /// Flip one bit.
    BitFlip {
        /// Byte offset of the flipped bit.
        byte: usize,
        /// Bit position within the byte (0..8).
        bit: u8,
    },
    /// Cut the file to a prefix.
    Truncate {
        /// New length in bytes.
        len: usize,
    },
    /// Overwrite a run of bytes with pseudo-random content.
    Splice {
        /// Start offset of the overwritten run.
        at: usize,
        /// Length of the run.
        len: usize,
    },
    /// Overwrite 4 bytes with an adversarial length-like value — the
    /// mutation bit-packed formats are most sensitive to (huge counts,
    /// off-by-one sizes, sign-bit patterns).
    LengthField {
        /// Byte offset of the 32-bit field.
        at: usize,
        /// The value written (little endian).
        value: u32,
    },
}

/// Deterministically derives one corruption from `seed` and applies it to a
/// copy of `bytes`. Returns the corrupted bytes and a description of what
/// was done. Empty input is returned unchanged as a zero-length truncation;
/// any other input is guaranteed to come back byte-different (a splice or
/// length-field write that happens to reproduce the original bytes falls
/// back to a bit flip, so no trial of a campaign is wasted on a no-op).
pub fn corrupt(bytes: &[u8], seed: u64) -> (Vec<u8>, Corruption) {
    let mut rng = SplitMix64::new(seed);
    let out = bytes.to_vec();
    if out.is_empty() {
        return (out, Corruption::Truncate { len: 0 });
    }
    let len = out.len() as u64;
    let (out, kind) = apply(&mut rng, out, len);
    if out.len() == bytes.len() && out == bytes {
        let mut out = out;
        let byte = rng.below(len) as usize;
        let bit = rng.below(8) as u8;
        out[byte] ^= 1 << bit;
        return (out, Corruption::BitFlip { byte, bit });
    }
    (out, kind)
}

fn apply(rng: &mut SplitMix64, mut out: Vec<u8>, len: u64) -> (Vec<u8>, Corruption) {
    match rng.below(4) {
        0 => {
            let byte = rng.below(len) as usize;
            let bit = (rng.below(8)) as u8;
            out[byte] ^= 1 << bit;
            (out, Corruption::BitFlip { byte, bit })
        }
        1 => {
            let cut = rng.below(len) as usize;
            out.truncate(cut);
            (out, Corruption::Truncate { len: cut })
        }
        2 => {
            let at = rng.below(len) as usize;
            let run = 1 + rng.below(64.min(len)) as usize;
            let end = (at + run).min(out.len());
            for b in &mut out[at..end] {
                *b = (rng.next_u64() & 0xff) as u8;
            }
            (out, Corruption::Splice { at, len: end - at })
        }
        _ => {
            // Length-like fields are 4 or 8 bytes; hitting any aligned or
            // unaligned offset with an adversarial 32-bit value exercises
            // the count/offset sanity checks.
            let at = rng.below(len) as usize;
            let value = match rng.below(6) {
                0 => u32::MAX,
                1 => u32::MAX - 1,
                2 => 1 << 31,
                3 => (len as u32).wrapping_add(1),
                4 => 0,
                _ => (rng.next_u64() & 0xffff_ffff) as u32,
            };
            let end = (at + 4).min(out.len());
            let le = value.to_le_bytes();
            out[at..end].copy_from_slice(&le[..end - at]);
            (out, Corruption::LengthField { at, value })
        }
    }
}

/// Deterministic shard-level fault plan for chaos campaigns against a
/// sharded engine.
///
/// Every decision is a pure function of `(seed, query sequence, shard)`,
/// so a chaos run reproduces exactly from its plan — the same property
/// [`corrupt`] gives byte-level campaigns. The plan itself injects
/// nothing; the sharded engine consults it at fan-out and turns draws
/// into real faults (a panic inside the shard closure, a sleep past the
/// pool deadline, a worker kill).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardChaosPlan {
    /// Probability a given `(seq, shard)` execution panics.
    pub panic_rate: f64,
    /// Probability a given `(seq, shard)` execution stalls for [`Self::stall`].
    pub stall_rate: f64,
    /// How long a stalled execution sleeps — set it past the pool's shard
    /// deadline to exercise the wedged path.
    pub stall: std::time::Duration,
    /// Deterministic panic window `(seq_start, seq_end, shard)`: every
    /// execution of `shard` with `seq_start <= seq < seq_end` panics.
    /// Long enough a window trips shard quarantine on purpose.
    pub panic_burst: Option<(u64, u64, usize)>,
    /// Worker assassinations: at each `(seq, shard)` the engine kills
    /// that shard's worker thread before fan-out, exercising dead-worker
    /// detection and respawn.
    pub kills: Vec<(u64, usize)>,
    /// Seed for the rate draws.
    pub seed: u64,
}

impl ShardChaosPlan {
    /// A plan that injects nothing (the default).
    pub const NONE: ShardChaosPlan = ShardChaosPlan {
        panic_rate: 0.0,
        stall_rate: 0.0,
        stall: std::time::Duration::ZERO,
        panic_burst: None,
        kills: Vec::new(),
        seed: 0,
    };

    /// Whether this plan can ever inject a fault.
    pub fn is_quiet(&self) -> bool {
        self.panic_rate <= 0.0
            && self.stall_rate <= 0.0
            && self.panic_burst.is_none()
            && self.kills.is_empty()
    }

    fn draw(&self, seq: u64, shard: usize, salt: u64) -> f64 {
        let mut rng = SplitMix64::new(
            self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (shard as u64) ^ salt,
        );
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the execution of `shard` for query `seq` must panic.
    pub fn sabotage_panic(&self, seq: u64, shard: usize) -> bool {
        if let Some((start, end, s)) = self.panic_burst {
            if shard == s && (start..end).contains(&seq) {
                return true;
            }
        }
        self.panic_rate > 0.0 && self.draw(seq, shard, 0xFA11) < self.panic_rate
    }

    /// How long the execution of `shard` for query `seq` must stall, if
    /// at all.
    pub fn sabotage_stall(&self, seq: u64, shard: usize) -> Option<std::time::Duration> {
        (self.stall_rate > 0.0 && self.draw(seq, shard, 0x57A11) < self.stall_rate)
            .then_some(self.stall)
    }

    /// The shard whose worker must be killed before query `seq` fans
    /// out, if any.
    pub fn kill(&self, seq: u64) -> Option<usize> {
        self.kills.iter().find(|(at, _)| *at == seq).map(|&(_, s)| s)
    }
}

impl Default for ShardChaosPlan {
    fn default() -> Self {
        Self::NONE
    }
}

/// Outcome tally of a deterministic corruption campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SurvivalReport {
    /// Corruptions attempted.
    pub trials: u64,
    /// Loads rejected with a typed [`IndexError`].
    pub typed_errors: u64,
    /// Rejections specifically via [`IndexError::ChecksumMismatch`].
    pub checksum_rejections: u64,
    /// Loads that succeeded and decoded to an index deep-equal to the
    /// original. Every byte of a v5 file is under the magic check, a
    /// section CRC or the footer, and [`corrupt`] rules out byte-identity,
    /// so only a CRC collision lands here.
    pub accepted_equal: u64,
    /// Loads that succeeded but decoded to a *different* index — silent
    /// corruption. Must stay 0 for the format to be considered hardened.
    pub accepted_divergent: u64,
}

impl SurvivalReport {
    /// Whether every corruption was either rejected with a typed error or
    /// proved to be a semantic no-op.
    pub fn survived(&self) -> bool {
        self.accepted_divergent == 0 && self.trials == self.typed_errors + self.accepted_equal
    }
}

/// Outcome tally of a corruption campaign against the zero-copy mapped
/// load path, which splits rejection across *two* moments: eager checks
/// at [`crate::storage::map_index`] time and lazy per-list checks on
/// first payload touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MappedSurvivalReport {
    /// Corruptions attempted.
    pub trials: u64,
    /// Loads rejected with a typed [`IndexError`] at open (magic, header,
    /// doc-table, section-table, column, name or directory CRC, section
    /// tiling, directory windows, truncation, or an unmappable file).
    pub open_rejections: u64,
    /// Loads that opened clean but whose full-index sweep (per-term
    /// [`InvertedIndex::verify_term`][crate::index::InvertedIndex::verify_term]
    /// plus decoding every block) hit a typed error — each list's first
    /// touch catching payload corruption.
    pub touch_rejections: u64,
    /// Of [`Self::touch_rejections`], those surfacing specifically as
    /// [`IndexError::ChecksumMismatch`].
    pub touch_checksum_rejections: u64,
    /// Loads that opened, swept clean, and deep-compared equal to the
    /// original — possible only for corruption in bytes the mapped path
    /// deliberately does not hash (the whole-file footer CRC; see the
    /// [`crate::storage`] module docs for the trade).
    pub accepted_equal: u64,
    /// Loads that swept clean but decoded to a *different* index —
    /// silent corruption. Must stay 0.
    pub accepted_divergent: u64,
}

impl MappedSurvivalReport {
    /// Whether every corruption was rejected (at open or on first touch)
    /// or proved to be a semantic no-op.
    pub fn survived(&self) -> bool {
        self.accepted_divergent == 0
            && self.trials
                == self.open_rejections + self.touch_rejections + self.accepted_equal
    }
}

/// Sweeps every term of a mapped index through the lazily-verified path:
/// `verify_term` plus a decode of every block. Returns the first typed
/// error, i.e. the moment a query would have surfaced the corruption.
fn sweep_mapped(idx: &InvertedIndex) -> Result<(), IndexError> {
    let mut out = Vec::new();
    for id in 0..idx.num_terms() as u32 {
        idx.verify_term(id)?;
        let list = idx.encoded_list(id);
        for b in 0..list.num_blocks() {
            out.clear();
            list.try_decode_block_into(b, &mut out)?;
        }
    }
    Ok(())
}

/// Runs `trials` deterministic corruptions of `bytes` through the mapped
/// loader [`crate::storage::map_index`], writing each mutation to
/// `scratch` and — when the open succeeds — sweeping every term through
/// the first-touch decode path before deep-comparing against `original`.
///
/// Panics inside the load or sweep are not caught: under `cargo test` a
/// panic is the failure signal. Only scratch-file I/O errors propagate.
///
/// # Errors
///
/// Returns the underlying error if `scratch` cannot be (re)written.
pub fn mapped_survival_report(
    original: &InvertedIndex,
    bytes: &[u8],
    trials: u64,
    seed_base: u64,
    scratch: &std::path::Path,
) -> std::io::Result<MappedSurvivalReport> {
    let mut report = MappedSurvivalReport { trials, ..Default::default() };
    for t in 0..trials {
        let (mutated, _what) = corrupt(bytes, seed_base + t);
        std::fs::write(scratch, &mutated)?;
        match crate::storage::map_index(scratch) {
            Err(_) => report.open_rejections += 1,
            Ok(mapped) => match sweep_mapped(&mapped) {
                Err(e) => {
                    report.touch_rejections += 1;
                    if matches!(e, IndexError::ChecksumMismatch { .. }) {
                        report.touch_checksum_rejections += 1;
                    }
                }
                Ok(()) if mapped == *original => report.accepted_equal += 1,
                Ok(()) => report.accepted_divergent += 1,
            },
        }
    }
    std::fs::remove_file(scratch).ok();
    Ok(report)
}

/// Runs `trials` deterministic corruptions (seeds `seed_base..seed_base +
/// trials`) of `bytes` through [`deserialize`], comparing any successful
/// load against `original`.
///
/// Panics inside `deserialize` are *not* caught here: under `cargo test` a
/// panic is the failure signal we want. (`iiu inspect --fault-rate` runs
/// its own campaign, stacking corruptions per trial, with a
/// `catch_unwind` around each load.)
pub fn survival_report(
    original: &InvertedIndex,
    bytes: &[u8],
    trials: u64,
    seed_base: u64,
) -> SurvivalReport {
    let mut report = SurvivalReport { trials, ..Default::default() };
    for t in 0..trials {
        let (mutated, _what) = corrupt(bytes, seed_base + t);
        match deserialize(&mutated) {
            Err(e) => {
                report.typed_errors += 1;
                if matches!(e, IndexError::ChecksumMismatch { .. }) {
                    report.checksum_rejections += 1;
                }
            }
            Ok(idx) => {
                if idx == *original {
                    report.accepted_equal += 1;
                } else {
                    report.accepted_divergent += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, IndexBuilder};
    use crate::io::serialize;

    fn sample() -> InvertedIndex {
        let mut b = IndexBuilder::new(BuildOptions::default());
        b.add_document("the quick brown fox jumps over the lazy dog");
        b.add_document("pack my box with five dozen liquor jugs");
        b.add_document("the five boxing wizards jump quickly");
        b.build()
    }

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "16 draws should not collide");
    }

    #[test]
    fn corrupt_is_deterministic() {
        let bytes = serialize(&sample()).expect("serialize");
        for seed in 0..50 {
            let (a, ka) = corrupt(&bytes, seed);
            let (b, kb) = corrupt(&bytes, seed);
            assert_eq!(a, b);
            assert_eq!(ka, kb);
        }
    }

    #[test]
    fn corrupt_changes_or_truncates() {
        let bytes = serialize(&sample()).expect("serialize");
        let mut changed = 0;
        for seed in 0..200 {
            let (m, _) = corrupt(&bytes, seed);
            if m != bytes {
                changed += 1;
            }
        }
        // The bit-flip fallback guarantees every corruption of a non-empty
        // file actually changes the bytes.
        assert_eq!(changed, 200, "only {changed}/200 corruptions changed the bytes");
    }

    #[test]
    fn survival_report_on_hardened_format() {
        let idx = sample();
        let bytes = serialize(&idx).expect("serialize");
        let report = survival_report(&idx, &bytes, 300, 0xfa_017);
        assert!(report.survived(), "unsurvived: {report:?}");
        assert!(report.typed_errors > 0);
        assert!(report.checksum_rejections > 0, "checksums never fired: {report:?}");
    }

    #[test]
    fn shard_chaos_plan_is_deterministic_and_respects_rates() {
        let plan = ShardChaosPlan {
            panic_rate: 0.05,
            stall_rate: 0.02,
            stall: std::time::Duration::from_millis(5),
            panic_burst: Some((100, 110, 2)),
            kills: vec![(7, 1)],
            seed: 0xC0_FFEE,
        };
        assert!(!plan.is_quiet());
        let mut panics = 0u32;
        let mut stalls = 0u32;
        for seq in 0..4_000u64 {
            for shard in 0..4 {
                // Deterministic: the same draw twice agrees.
                assert_eq!(plan.sabotage_panic(seq, shard), plan.sabotage_panic(seq, shard));
                if plan.sabotage_panic(seq, shard) {
                    panics += 1;
                }
                if plan.sabotage_stall(seq, shard).is_some() {
                    stalls += 1;
                }
            }
        }
        // 16 000 draws at 5% / 2%: expect ~800 / ~320, generous bands.
        assert!((400..1600).contains(&panics), "panic draws off-rate: {panics}");
        assert!((120..700).contains(&stalls), "stall draws off-rate: {stalls}");
        // The burst window always panics its shard, and only its shard.
        for seq in 100..110 {
            assert!(plan.sabotage_panic(seq, 2));
        }
        assert!(!plan.sabotage_panic(99, 2) || plan.panic_rate > 0.0);
        assert_eq!(plan.kill(7), Some(1));
        assert_eq!(plan.kill(8), None);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = ShardChaosPlan::NONE;
        assert!(plan.is_quiet());
        for seq in 0..500 {
            for shard in 0..8 {
                assert!(!plan.sabotage_panic(seq, shard));
                assert!(plan.sabotage_stall(seq, shard).is_none());
            }
            assert_eq!(plan.kill(seq), None);
        }
    }

    #[test]
    fn bounds_section_faults_surface_typed_errors() {
        // Every corruption landing in the score-bounds section must be
        // rejected with a typed error — a silently-wrong bound would make
        // pruned top-k drop valid results.
        use crate::io::{deserialize, section_sizes};
        let idx = sample();
        let bytes = serialize(&idx).expect("serialize");
        let sections = section_sizes(&idx);
        let at = sections.iter().position(|(name, _)| *name == "bounds").expect("a section");
        let start = sections[..at].iter().map(|(_, n)| *n as usize).sum::<usize>();
        let end = start + sections[at].1 as usize;
        assert!(end > start);
        for byte in start..end {
            for bit in [0u8, 3, 7] {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                assert!(
                    deserialize(&m).is_err(),
                    "bounds-section flip at byte {byte} bit {bit} was accepted"
                );
            }
        }
        for cut in start..bytes.len() {
            assert!(deserialize(&bytes[..cut]).is_err(), "truncation at {cut} was accepted");
        }
    }
}
