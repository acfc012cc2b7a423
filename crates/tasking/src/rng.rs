//! SplitMix64: the seeded generator behind every random choice in the
//! simulation. Each derived draw is pinned to one exact formula,
//! because the drawn values reach the committed artifacts' bytes.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n`: the next output modulo `n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw below 0");
        (self.next_u64() % n as u64) as usize
    }

    /// A draw from `lo..hi`: `lo + unit · (hi − lo)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "cannot draw from an empty range");
        lo + self.unit() * (hi - lo)
    }

    /// `true` with probability `p`: a unit draw below `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "p must be a probability");
        self.unit() < p
    }

    /// 53 random mantissa bits in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = 3 + rng.below(14);
            assert!((3..17).contains(&x));
            let y = 1 + rng.below(4);
            assert!((1..=4).contains(&y));
            let f = rng.uniform(0.25, 0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn chance_respects_probability() {
        let mut rng = SplitMix64::new(2);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((25_000..35_000).contains(&hits), "got {hits}");
    }
}
