//! Deterministic random-number generation shared across the workspace.
//!
//! Every stochastic component in the reproduction (synthetic datasets, weight
//! initialization, RRAM programming noise, dropout-free fine-tuning order)
//! draws from this wrapper so that experiments are reproducible from a single
//! seed.

/// Deterministic random number generator used throughout the workspace.
///
/// Implements xoshiro256++ (public-domain, Blackman & Vigna) seeded through
/// SplitMix64, so the workspace needs no external RNG crate and the stream is
/// bit-identical on every platform. Adds Gaussian sampling (Box–Muller) plus
/// a `split` operation for handing independent streams to sub-components.
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    /// Cached second Gaussian sample from the last Box–Muller transform.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the xoshiro256++ state, as
        // recommended by the xoshiro reference implementation.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Derives an independent generator, advancing this generator once.
    ///
    /// Used to give sub-systems (e.g. each RRAM array) their own stream while
    /// keeping the top-level experiment reproducible.
    pub fn split(&mut self) -> Self {
        let seed = self.next_u64() ^ 0x9e37_79b9_7f4a_7c15;
        Rng::seed_from(seed)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits of a u64 → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` (debug builds) via `debug_assert!`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo < hi, "uniform_range requires lo < hi");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "below requires n > 0");
        // Modulo bias is ≤ n/2⁶⁴, far below anything the experiments can
        // resolve, and keeps the sampler branch-free and reproducible.
        (self.next_u64() % n as u64) as usize
    }

    /// Fair coin flip with probability `p` of returning `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal sample (mean 0, standard deviation 1) via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Box–Muller transform: two uniforms -> two independent normals.
        let u1 = loop {
            let u = self.uniform();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2 = self.uniform();
        let radius = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(radius * theta.sin());
        radius * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_stream() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::seed_from(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn normal_with_scales_and_shifts() {
        let mut rng = Rng::seed_from(9);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal_with(3.0, 0.5)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03);
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::seed_from(11);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn split_streams_are_independent_but_deterministic() {
        let mut parent_a = Rng::seed_from(21);
        let mut parent_b = Rng::seed_from(21);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        for _ in 0..16 {
            assert_eq!(child_a.uniform().to_bits(), child_b.uniform().to_bits());
        }
        // Child differs from a fresh parent stream.
        let mut parent_c = Rng::seed_from(21);
        let same = (0..32)
            .filter(|_| child_a.uniform() == parent_c.uniform())
            .count();
        assert!(same < 4);
    }
}
