//! Zipf-distributed sampling.
//!
//! Real bibliographic data is heavy-tailed: a few authors write very many
//! papers and a few papers collect very many citations. The paper's
//! prestige mechanism (§2.2) and hub discussion (§2.1) only matter on such
//! skewed data, so the synthetic DBLP draws author and citation choices
//! from Zipf distributions.

use crate::rng::Rng;

/// A Zipf(n, s) sampler over ranks `0..n` (rank 0 most popular), using a
/// precomputed cumulative table and binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n ≥ 1` ranks with exponent `s ≥ 0`.
    pub(crate) fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be finite, ≥ 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// Draw one rank in `0..n`.
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.next_f64() * total;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Expected probability of rank `k` (the tests' oracle).
    #[cfg(test)]
    pub(crate) fn probability(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.probability(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_ranks() {
        let z = Zipf::new(100, 1.0);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(50));
    }

    #[test]
    fn samples_match_expected_head_mass() {
        let z = Zipf::new(50, 1.0);
        let mut rng = Rng::new(11);
        let n = 20_000;
        let head_expected: f64 = (0..5).map(|k| z.probability(k)).sum();
        let mut head = 0usize;
        for _ in 0..n {
            if z.sample(&mut rng) < 5 {
                head += 1;
            }
        }
        let observed = head as f64 / n as f64;
        assert!(
            (observed - head_expected).abs() < 0.02,
            "observed {observed:.3}, expected {head_expected:.3}"
        );
    }

    #[test]
    fn sample_in_range() {
        let z = Zipf::new(7, 1.5);
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut rng = Rng::new(0);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.probability(0), 1.0);
    }
}
