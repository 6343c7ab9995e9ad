//! The benchmark's only source of randomness: a local splitmix64 stream
//! seeded from `--seed`, plus a table-driven Zipfian sampler over it.

/// splitmix64 (Steele, Lea, Flood 2014): one 64-bit state word, full
/// period, and cheap enough that op generation never shows in a round.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `(seed, lane)`. The stream's state is the
    /// *output* of a splitmix chain over seed and lane, never an offset
    /// from them: the state only ever advances by the golden-ratio
    /// increment, so two states that differ by a small multiple of it are
    /// one sequence read a few draws apart, and rounds drawn from such lanes
    /// would ask for each other's keys.
    pub fn stream(seed: u64, lane: u64) -> Self {
        let keyed = SplitMix64(seed).next_u64();
        SplitMix64(SplitMix64(keyed ^ lane).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `0..n` with exponent `theta` (0 = uniform), drawn by
/// binary search in the cumulative weight table. Rank `r` is record id
/// `r`: YCSB keys are pseudo-random strings, so hot ids are still spread
/// over the whole key space.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::stream(42, 1);
        let mut b = SplitMix64::stream(42, 1);
        let mut c = SplitMix64::stream(43, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
        // Reference value of splitmix64 from seed 0.
        assert_eq!(SplitMix64(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    /// Neighbouring lanes are not one sequence read a few draws apart: no
    /// value of one lane's first thousand shows up in the next lanes'.
    #[test]
    fn lanes_do_not_overlap() {
        use std::collections::BTreeSet;
        for seed in [0, 1, 42, u64::MAX] {
            let draws = |lane| -> BTreeSet<u64> {
                let mut s = SplitMix64::stream(seed, lane);
                (0..1_000).map(|_| s.next_u64()).collect()
            };
            let first = draws(1);
            for lane in 2..8 {
                assert!(first.is_disjoint(&draws(lane)), "seed {seed}: lanes 1 and {lane} overlap");
            }
        }
    }

    #[test]
    fn below_stays_in_range_and_zipf_skews() {
        let mut rng = SplitMix64::stream(7, 0);
        assert!((0..10_000).all(|_| rng.below(17) < 17));
        let zipf = Zipf::new(1000, 0.5);
        let mut low = 0;
        for _ in 0..10_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            low += usize::from(r < 100);
        }
        // theta = 0.5 puts about 30 % of the mass on the first 10 % of ranks.
        assert!((2500..3700).contains(&low), "low-rank draws: {low}");
        let flat = Zipf::new(1000, 0.0);
        let low_flat = (0..10_000).filter(|_| flat.sample(&mut rng) < 100).count();
        assert!((800..1200).contains(&low_flat), "uniform low-rank draws: {low_flat}");
    }
}
