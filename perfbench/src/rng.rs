//! The benchmark's only source of randomness: a seeded generator and
//! a Zipf sampler. Same seed, same stream — on every host and build.

/// SplitMix64 (Steele, Lea & Flood): 64 bits of state, full period,
/// good enough to pick objects and quantities and trivially portable.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` (writer index,
    /// preload, sampling, …) so lanes never share a sequence.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_lanes_differ() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1, 0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zipf_head_share_matches_the_harmonic_number() {
        // P(rank 0) = 1 / H_256 = 0.1633; the first 8 ranks carry
        // H_8 / H_256 = 0.4438 of the draws.
        let z = Zipf::new(256, 1.0);
        let mut r = Rng::new(42, 0);
        let n = 200_000;
        let (mut head, mut top8) = (0u32, 0u32);
        for _ in 0..n {
            let k = z.sample(&mut r);
            assert!(k < 256);
            head += (k == 0) as u32;
            top8 += (k < 8) as u32;
        }
        let head = f64::from(head) / f64::from(n);
        let top8 = f64::from(top8) / f64::from(n);
        assert!((head - 0.1633).abs() < 0.005, "head share {head}");
        assert!((top8 - 0.4438).abs() < 0.007, "top-8 share {top8}");
    }
}
