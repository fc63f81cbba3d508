//! Community generation: random genomes with log-normal abundances.

use bioseq::{Base, DnaSeq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};

/// One reference genome in the community.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    pub id: String,
    pub seq: DnaSeq,
}

/// A synthetic community: genomes plus normalized relative abundances.
#[derive(Debug, Clone)]
pub struct Community {
    pub genomes: Vec<Genome>,
    /// Relative abundances, sum = 1.
    pub abundances: Vec<f64>,
}

impl Community {
    /// Total bases across all genomes.
    pub fn total_bases(&self) -> usize {
        self.genomes.iter().map(|g| g.seq.len()).sum()
    }

    /// Expected coverage of genome `i` when sampling `n_reads` reads of
    /// `read_len` with abundance-weighted genome selection.
    pub fn expected_coverage(&self, i: usize, n_reads: usize, read_len: usize) -> f64 {
        self.abundances[i] * n_reads as f64 * read_len as f64 / self.genomes[i].seq.len() as f64
    }
}

/// Parameters for community generation.
#[derive(Debug, Clone)]
pub struct CommunityConfig {
    /// Number of species.
    pub n_species: usize,
    /// Genome length range (inclusive min, exclusive max).
    pub genome_len: (usize, usize),
    /// σ of the log-normal abundance distribution (0 = uniform community;
    /// real metagenomes are highly skewed, σ ≈ 1–2).
    pub abundance_sigma: f64,
    /// Order-2 Markov repetitiveness: probability that the next base copies
    /// the base `period` positions back (creates repeats that fork de
    /// Bruijn graphs, as real genomes do).
    pub repeat_prob: f64,
    /// Period of the copy-back process.
    pub repeat_period: usize,
    /// RNG seed — all generation is deterministic given the config.
    pub seed: u64,
}

impl Default for CommunityConfig {
    fn default() -> Self {
        CommunityConfig {
            n_species: 10,
            genome_len: (20_000, 60_000),
            abundance_sigma: 1.0,
            repeat_prob: 0.0,
            repeat_period: 97,
            seed: 42,
        }
    }
}

/// Generate a community deterministically from the config.
pub fn generate_community(cfg: &CommunityConfig) -> Community {
    assert!(cfg.n_species > 0, "need at least one species");
    assert!(cfg.genome_len.0 >= 1 && cfg.genome_len.1 > cfg.genome_len.0);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut genomes = Vec::with_capacity(cfg.n_species);
    for s in 0..cfg.n_species {
        let len = rng.gen_range(cfg.genome_len.0..cfg.genome_len.1);
        let mut seq = DnaSeq::with_capacity(len);
        for i in 0..len {
            let code = if i >= cfg.repeat_period && rng.gen_bool(cfg.repeat_prob) {
                seq.code(i - cfg.repeat_period)
            } else {
                rng.gen_range(0..4)
            };
            seq.push(Base::from_code(code));
        }
        genomes.push(Genome { id: format!("species_{s}"), seq });
    }
    let abundances = if cfg.abundance_sigma <= 0.0 {
        vec![1.0 / cfg.n_species as f64; cfg.n_species]
    } else {
        let dist = LogNormal::new(0.0, cfg.abundance_sigma).expect("valid sigma");
        let raw: Vec<f64> = (0..cfg.n_species).map(|_| dist.sample(&mut rng)).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / sum).collect()
    };
    Community { genomes, abundances }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let cfg = CommunityConfig::default();
        let a = generate_community(&cfg);
        let b = generate_community(&cfg);
        assert_eq!(a.genomes, b.genomes);
        assert_eq!(a.abundances, b.abundances);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = CommunityConfig::default();
        let a = generate_community(&cfg);
        cfg.seed = 43;
        let b = generate_community(&cfg);
        assert_ne!(a.genomes[0].seq, b.genomes[0].seq);
    }

    #[test]
    fn abundances_normalized() {
        let cfg = CommunityConfig { n_species: 25, abundance_sigma: 1.5, ..Default::default() };
        let c = generate_community(&cfg);
        let sum: f64 = c.abundances.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(c.abundances.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn uniform_when_sigma_zero() {
        let cfg = CommunityConfig { n_species: 4, abundance_sigma: 0.0, ..Default::default() };
        let c = generate_community(&cfg);
        for &a in &c.abundances {
            assert!((a - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_abundances_are_skewed() {
        let cfg =
            CommunityConfig { n_species: 40, abundance_sigma: 2.0, seed: 7, ..Default::default() };
        let c = generate_community(&cfg);
        let max = c.abundances.iter().cloned().fold(0.0, f64::max);
        let min = c.abundances.iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 10.0, "σ=2 must produce strong skew (got {})", max / min);
    }

    #[test]
    fn genome_lengths_in_range() {
        let cfg = CommunityConfig { genome_len: (500, 700), n_species: 8, ..Default::default() };
        let c = generate_community(&cfg);
        for g in &c.genomes {
            assert!(g.seq.len() >= 500 && g.seq.len() < 700);
        }
    }

    #[test]
    fn repeats_increase_self_similarity() {
        let base = CommunityConfig {
            n_species: 1,
            genome_len: (8000, 8001),
            repeat_prob: 0.0,
            seed: 3,
            ..Default::default()
        };
        let plain = generate_community(&base);
        let repeaty = generate_community(&CommunityConfig { repeat_prob: 0.4, ..base });
        let self_match = |g: &DnaSeq, period: usize| {
            (period..g.len()).filter(|&i| g.code(i) == g.code(i - period)).count() as f64
                / (g.len() - period) as f64
        };
        let p = self_match(&plain.genomes[0].seq, 97);
        let r = self_match(&repeaty.genomes[0].seq, 97);
        assert!(r > p + 0.2, "repeat process must raise periodic self-match ({p:.2} -> {r:.2})");
    }

    #[test]
    fn expected_coverage_math() {
        let cfg = CommunityConfig {
            n_species: 1,
            genome_len: (10_000, 10_001),
            abundance_sigma: 0.0,
            ..Default::default()
        };
        let c = generate_community(&cfg);
        let cov = c.expected_coverage(0, 1000, 100);
        assert!((cov - 10.0).abs() < 1e-9);
    }
}
