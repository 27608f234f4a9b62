//! Key-selection distributions.

use rand::Rng;

/// How clients pick keys.
///
/// The paper's clients "select the keys uniformly" by default (§VI-B); the
/// skewed-workload experiment uses "a Zipfian distribution with exponent
/// value of one" (§VII-G).
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every key in `0..n` equally likely.
    Uniform {
        /// Key-space size.
        n: u64,
    },
    /// Zipf over ranks `1..=n` mapped to keys `0..n`: key `k` has
    /// probability proportional to `1 / (k+1)^theta`.
    Zipf {
        /// Key-space size.
        n: u64,
        /// Skew exponent (1.0 in the paper).
        theta: f64,
        /// Normalization constant `H_{n,theta}` (precomputed).
        harmonic: f64,
    },
}

impl KeyDist {
    /// A uniform distribution over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform(n: u64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        KeyDist::Uniform { n }
    }

    /// A Zipf distribution over `0..n` with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is not positive and finite.
    pub fn zipf(n: u64, theta: f64) -> Self {
        assert!(n > 0, "key space must be non-empty");
        assert!(
            theta > 0.0 && theta.is_finite(),
            "exponent must be positive"
        );
        // Generalized harmonic number H_{n,theta}. For n = 10M this loop is
        // a one-off ~40ms cost at construction.
        let harmonic: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(theta)).sum();
        KeyDist::Zipf { n, theta, harmonic }
    }

    /// Key-space size (largest producible key + 1).
    pub fn n(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } | KeyDist::Zipf { n, .. } => *n,
        }
    }

    /// Draws a key.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            KeyDist::Uniform { n } => rng.gen_range(0..n),
            KeyDist::Zipf { n, theta, harmonic } => {
                // Inversion by bisection on the CDF: O(log n) per sample
                // with no per-key tables. The CDF at rank r is
                // H_{r,theta} / H_{n,theta}; we avoid storing prefix sums by
                // using the approximation of the generalized harmonic number
                // via the integral, falling back to exact summation for the
                // head where mass concentrates.
                let u: f64 = rng.gen_range(0.0..1.0) * harmonic;
                // Head: first 64 ranks hold most of the mass at theta ≈ 1.
                let mut acc = 0.0;
                for k in 1..=64.min(n) {
                    acc += 1.0 / (k as f64).powf(theta);
                    if acc >= u {
                        return k - 1;
                    }
                }
                // Tail: bisect on the integral approximation
                //   H_{r} ≈ acc64 + ∫_{64}^{r} x^-theta dx.
                let acc64 = acc;
                let tail_mass = |r: f64| -> f64 {
                    if (theta - 1.0).abs() < 1e-9 {
                        acc64 + (r / 64.0).ln()
                    } else {
                        acc64 + (r.powf(1.0 - theta) - 64f64.powf(1.0 - theta)) / (1.0 - theta)
                    }
                };
                let (mut lo, mut hi) = (64f64, n as f64);
                for _ in 0..64 {
                    let mid = (lo + hi) / 2.0;
                    if tail_mass(mid) < u {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                (hi.ceil() as u64).clamp(1, n) - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_the_space_evenly() {
        let dist = KeyDist::uniform(10);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[dist.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn zipf_concentrates_mass_on_small_keys() {
        let dist = KeyDist::zipf(1_000_000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let total = 100_000u32;
        let mut head = 0u32;
        let mut key0 = 0u32;
        for _ in 0..total {
            let k = dist.sample(&mut rng);
            assert!(k < 1_000_000);
            if k < 100 {
                head += 1;
            }
            if k == 0 {
                key0 += 1;
            }
        }
        // With theta=1, n=1e6: H_n ≈ ln(1e6)+0.577 ≈ 14.4; P(k<100) ≈
        // H_100/H_n ≈ 5.19/14.39 ≈ 36%; P(k=0) ≈ 1/14.39 ≈ 7%.
        let head_frac = head as f64 / total as f64;
        assert!(
            (0.30..0.43).contains(&head_frac),
            "head fraction {head_frac}"
        );
        let k0_frac = key0 as f64 / total as f64;
        assert!((0.05..0.09).contains(&k0_frac), "key-0 fraction {k0_frac}");
    }

    #[test]
    fn zipf_rank_frequencies_decay() {
        let dist = KeyDist::zipf(10_000, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 16];
        for _ in 0..200_000 {
            let k = dist.sample(&mut rng);
            if (k as usize) < counts.len() {
                counts[k as usize] += 1;
            }
        }
        // Key 0 should be drawn roughly twice as often as key 1, three
        // times as often as key 2, etc. Allow generous tolerance.
        assert!(counts[0] as f64 > 1.6 * counts[1] as f64);
        assert!(counts[1] as f64 > 1.3 * counts[2] as f64);
    }

    #[test]
    fn deterministic_given_a_seed() {
        let dist = KeyDist::zipf(1000, 1.0);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| dist.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn n_accessor() {
        assert_eq!(KeyDist::uniform(42).n(), 42);
        assert_eq!(KeyDist::zipf(42, 1.0).n(), 42);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_uniform_rejected() {
        let _ = KeyDist::uniform(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_theta_rejected() {
        let _ = KeyDist::zipf(10, 0.0);
    }
}
