//! Dataset presets standing in for the paper's arcticsynth and WA datasets.
//!
//! | preset | stands in for | paper size | our size | scale factor |
//! |--------|---------------|------------|----------|--------------|
//! | `arcticsynth_like(1.0)` | arcticsynth (synthetic community) | 32 M reads | 20 k pairs | ~1/800 |
//! | `wa_like(1.0)` | WA marine communities | 2.465 B reads | 60 k pairs | ~1/20 000 |
//!
//! The scale factor shrinks read count *and* genome sizes together so
//! per-base coverage — the statistic local assembly sees — stays in the
//! paper's regime (arcticsynth ≈ uniform synthetic coverage; WA ≈ skewed
//! community with long coverage tail). The `scale` argument multiplies the
//! default sizes for larger benchmark runs.

use crate::community::{generate_community, Community, CommunityConfig};
use crate::reads::{simulate_reads, ReadSimConfig};
use bioseq::PairedRead;

/// A fully-specified dataset preset.
#[derive(Debug, Clone)]
pub struct Preset {
    pub name: String,
    pub community: CommunityConfig,
    pub reads: ReadSimConfig,
}

impl Preset {
    /// Materialize the preset: generate the community and its reads.
    pub fn generate(&self) -> (Community, Vec<PairedRead>) {
        let community = generate_community(&self.community);
        let pairs = simulate_reads(&community, &self.reads);
        (community, pairs)
    }
}

/// Arcticsynth-like: a modest synthetic community with mild skew and clean
/// reads — the paper's small-scale / standalone-kernel dataset.
pub fn arcticsynth_like(scale: f64) -> Preset {
    assert!(scale > 0.0);
    let n_pairs = ((20_000.0 * scale) as usize).max(200);
    Preset {
        name: format!("arcticsynth-like(x{scale})"),
        community: CommunityConfig {
            n_species: ((12.0 * scale.sqrt()) as usize).max(3),
            genome_len: (30_000, 80_000),
            abundance_sigma: 0.8,
            repeat_prob: 0.02,
            repeat_period: 97,
            seed: 0xA5C7,
        },
        reads: ReadSimConfig {
            read_len: 150,
            n_pairs,
            insert_mean: 350.0,
            insert_sd: 30.0,
            qual_hi: 38,
            qual_lo: 8,
            lo_frac: 0.02,
            seed: 0xA5C7_0001,
        },
    }
}

/// WA-like: many species, strong abundance skew, more repeats — the
/// paper's large-scale marine-communities dataset, scaled down.
pub fn wa_like(scale: f64) -> Preset {
    assert!(scale > 0.0);
    let n_pairs = ((60_000.0 * scale) as usize).max(500);
    Preset {
        name: format!("WA-like(x{scale})"),
        community: CommunityConfig {
            n_species: ((40.0 * scale.sqrt()) as usize).max(5),
            genome_len: (20_000, 120_000),
            abundance_sigma: 1.8,
            repeat_prob: 0.05,
            repeat_period: 131,
            seed: 0x3A11,
        },
        reads: ReadSimConfig {
            read_len: 150,
            n_pairs,
            insert_mean: 400.0,
            insert_sd: 40.0,
            qual_hi: 37,
            qual_lo: 6,
            lo_frac: 0.03,
            seed: 0x3A11_0001,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_generate() {
        let (community, pairs) = arcticsynth_like(0.02).generate();
        assert!(!community.genomes.is_empty());
        assert_eq!(pairs.len(), 400);
    }

    #[test]
    fn wa_is_more_skewed_than_arctic() {
        let a = generate_community(&arcticsynth_like(0.1).community);
        let w = generate_community(&wa_like(0.1).community);
        let skew = |c: &Community| {
            let max = c.abundances.iter().cloned().fold(0.0, f64::max);
            max * c.abundances.len() as f64
        };
        assert!(skew(&w) > skew(&a), "WA-like must be more skewed");
        assert!(w.genomes.len() > a.genomes.len());
    }

    #[test]
    fn scale_grows_pairs() {
        assert!(wa_like(2.0).reads.n_pairs > wa_like(1.0).reads.n_pairs);
        assert_eq!(arcticsynth_like(1.0).reads.n_pairs, 20_000);
    }

    #[test]
    fn deterministic_across_calls() {
        let (c1, p1) = arcticsynth_like(0.01).generate();
        let (c2, p2) = arcticsynth_like(0.01).generate();
        assert_eq!(c1.genomes, c2.genomes);
        assert_eq!(p1, p2);
    }
}
