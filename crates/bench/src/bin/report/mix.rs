//! Seeded operation mixes: exact class shares and Zipf-distributed keys.
//!
//! Everything here runs before the timed phase. A workload draws its whole
//! operation sequence from one `spade_datagen::rng` stream, so the same
//! `--seed` sends the same queries in the same order on every commit.

use spade_datagen::Rng;

/// Uniform draw from `0..n`.
pub fn below<R: Rng>(r: &mut R, n: usize) -> usize {
    (r.next_u64() % n as u64) as usize
}

/// One cycle of operation classes with *exact* shares: class `c` fills
/// `count` of the cycle's slots, and the slots are shuffled once from the
/// seed. A workload repeats the cycle, so any run of whole cycles — however
/// many fit into the measured seconds — has exactly the stated mix, and the
/// percentile each workload reports stays inside the latency mode of the
/// class it was placed in.
pub fn class_cycle<C: Copy, R: Rng>(shares: &[(C, usize)], r: &mut R) -> Vec<C> {
    let mut cycle: Vec<C> = shares
        .iter()
        .flat_map(|&(c, count)| std::iter::repeat_n(c, count))
        .collect();
    // Fisher–Yates.
    for i in (1..cycle.len()).rev() {
        cycle.swap(i, below(r, i + 1));
    }
    cycle
}

/// Zipf(`s`) over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`, sampled by inverse
/// CDF over a table built once.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn share(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample<R: Rng>(&self, r: &mut R) -> usize {
        let u: f64 = r.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_cycle_has_exact_shares_and_is_seeded() {
        let shares = [('s', 13), ('r', 4), ('k', 3)];
        let a = class_cycle(&shares, &mut spade_datagen::rng(7));
        let b = class_cycle(&shares, &mut spade_datagen::rng(7));
        let c = class_cycle(&shares, &mut spade_datagen::rng(8));
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed shuffles differently");
        assert_eq!(a.len(), 20);
        for (class, count) in shares {
            assert_eq!(a.iter().filter(|&&x| x == class).count(), count);
        }
    }

    #[test]
    fn zipf_draws_are_seeded_and_match_their_shares() {
        let z = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut r = spade_datagen::rng(seed);
            (0..200_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3), "same seed, same draws");
        let total: f64 = (0..64).map(|k| z.share(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in [0usize, 1, 7, 63] {
            let got = a.iter().filter(|&&x| x == k).count() as f64 / a.len() as f64;
            assert!(
                (got - z.share(k)).abs() < 0.01,
                "rank {k}: drew {got}, share {}",
                z.share(k)
            );
        }
        assert!(a.iter().all(|&k| k < 64));
    }
}
