//! The benchmark's own randomness and hashing, so that a change to the
//! product's samplers (`QuerySampler`, the `rand` shim) cannot move the
//! benchmark's inputs: `--seed` is the only source of randomness.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// The generator of one labelled input of `seed`: every input draws
    /// from its own sub-stream, so that adding a draw to one does not
    /// shift every later one.
    pub fn substream(seed: u64, label: u64) -> SplitMix64 {
        SplitMix64(
            SplitMix64::new(seed).next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }
}

/// Inverse-CDF sampler over a fixed weight vector.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// `cum[i]` = sum of weights `0..=i`.
    cum: Vec<f64>,
}

impl Cdf {
    /// # Panics
    ///
    /// Panics when `weights` is empty or sums to zero: a sampler over
    /// nothing is a bug in the caller.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut total = 0.0;
        let cum: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        assert!(total > 0.0, "Cdf needs positive total weight");
        Cdf { cum }
    }

    /// Zipf popularity over `n` ranks: weight of rank `r` (0-based) is
    /// `1 / (r + 1)^s`.
    pub fn zipf(n: usize, s: f64) -> Self {
        Cdf::new((0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)))
    }

    /// The index whose cumulative-weight interval contains `u * total`,
    /// for `u` in `[0, 1)`.
    pub fn index_for(&self, u: f64) -> usize {
        let total = self.cum[self.cum.len() - 1];
        let target = u * total;
        self.cum.partition_point(|&c| c <= target).min(self.cum.len() - 1)
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.index_for(rng.next_f64())
    }
}

/// 64-bit FNV-1a, the format-independent fingerprint of the inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv1a {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so that `("ab", "c")` and `("a", "bc")` differ.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of the published SplitMix64 for seed 1234567.
        let mut r = SplitMix64::new(1_234_567);
        assert_eq!(r.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(r.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn zipf_inverse_cdf_hits_the_interval_edges() {
        // Three ranks, s = 1: weights 1, 1/2, 1/3; total 11/6.
        let z = Cdf::zipf(3, 1.0);
        let total = 11.0 / 6.0;
        assert_eq!(z.index_for(0.0), 0);
        assert_eq!(z.index_for(1.0 / total - 1e-9), 0);
        assert_eq!(z.index_for(1.0 / total + 1e-9), 1);
        assert_eq!(z.index_for(1.5 / total - 1e-9), 1);
        assert_eq!(z.index_for(1.5 / total + 1e-9), 2);
        assert_eq!(z.index_for(1.0 - 1e-12), 2);
        // A draw of exactly 1.0 cannot happen, but must not index past
        // the end if a caller rounds up to it.
        assert_eq!(z.index_for(1.0), 2);
    }

    #[test]
    fn zipf_draws_follow_the_weights() {
        let z = Cdf::zipf(4, 1.0);
        let mut rng = SplitMix64::new(7);
        let mut hits = [0u32; 4];
        for _ in 0..48_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        // Expected shares 12/25, 6/25, 4/25, 3/25 of 48k.
        for (got, want) in hits.iter().zip([23_040.0, 11_520.0, 7_680.0, 5_760.0]) {
            assert!((f64::from(*got) - want).abs() < want * 0.05, "{hits:?}");
        }
    }

    #[test]
    fn fnv1a_known_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.hex(), "cbf29ce484222325");
        h.bytes(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        let mut h = Fnv1a::default();
        h.bytes(b"foobar");
        assert_eq!(h.hex(), "85944171f73967e8");
    }

    #[test]
    fn shuffle_is_a_permutation_and_seeded() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64::new(9).shuffle(&mut a);
        SplitMix64::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        assert_ne!(a, sorted);
    }
}
