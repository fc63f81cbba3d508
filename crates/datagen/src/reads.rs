//! Illumina-like paired-end read simulation.

use crate::community::Community;
use bioseq::{phred_to_prob, Base, DnaSeq, PairedRead, Read};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Read-simulation parameters.
#[derive(Debug, Clone)]
pub struct ReadSimConfig {
    /// Read length (paper datasets: 150 bp).
    pub read_len: usize,
    /// Number of read *pairs* to generate.
    pub n_pairs: usize,
    /// Mean insert (fragment) size.
    pub insert_mean: f64,
    /// Insert size standard deviation.
    pub insert_sd: f64,
    /// Mean Phred quality of good bases.
    pub qual_hi: u8,
    /// Phred quality of the degraded tail / bad cycles.
    pub qual_lo: u8,
    /// Fraction of bases that get the low quality (errors follow quality).
    pub lo_frac: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReadSimConfig {
    fn default() -> Self {
        ReadSimConfig {
            read_len: 150,
            n_pairs: 10_000,
            insert_mean: 350.0,
            insert_sd: 30.0,
            qual_hi: 38,
            qual_lo: 8,
            lo_frac: 0.02,
            seed: 1,
        }
    }
}

/// Simulate paired-end reads from a community.
///
/// Fragments are drawn from genomes proportionally to abundance, positions
/// uniformly. Mate 1 is the fragment's 5' prefix; mate 2 is the reverse
/// complement of its 3' suffix. Each base receives a Phred score and then a
/// substitution error with probability `10^(-q/10)` — so low-quality bases
/// really are less trustworthy, which is what the extension objects'
/// quality tiers key on.
pub fn simulate_reads(community: &Community, cfg: &ReadSimConfig) -> Vec<PairedRead> {
    assert!(cfg.read_len >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let insert_dist = Normal::new(cfg.insert_mean, cfg.insert_sd).expect("valid insert");
    // Cumulative abundance for genome selection.
    let mut cum = Vec::with_capacity(community.abundances.len());
    let mut acc = 0.0;
    for &a in &community.abundances {
        acc += a;
        cum.push(acc);
    }
    let mut pairs = Vec::with_capacity(cfg.n_pairs);
    let mut pair_id = 0usize;
    while pairs.len() < cfg.n_pairs {
        let x: f64 = rng.gen_range(0.0..acc);
        let gi = cum.partition_point(|&c| c < x).min(community.genomes.len() - 1);
        let genome = &community.genomes[gi].seq;
        let insert =
            (insert_dist.sample(&mut rng).round() as usize).clamp(cfg.read_len, usize::MAX);
        if genome.len() < insert {
            continue; // genome too short for this fragment; resample
        }
        let start = rng.gen_range(0..=genome.len() - insert);
        let frag = genome.subseq(start, insert);
        let r1 = sample_read(&frag, cfg, &mut rng, false, format!("p{pair_id}/1"));
        let r2 = sample_read(&frag, cfg, &mut rng, true, format!("p{pair_id}/2"));
        let mut pr = PairedRead::new(r1, r2);
        pr.insert_size = Some(insert as u32);
        pairs.push(pr);
        pair_id += 1;
    }
    pairs
}

fn sample_read(
    frag: &DnaSeq,
    cfg: &ReadSimConfig,
    rng: &mut StdRng,
    from_3prime: bool,
    id: String,
) -> Read {
    let tmpl = if from_3prime {
        frag.subseq(frag.len() - cfg.read_len, cfg.read_len).revcomp()
    } else {
        frag.subseq(0, cfg.read_len)
    };
    let mut seq = DnaSeq::with_capacity(cfg.read_len);
    let mut quals = Vec::with_capacity(cfg.read_len);
    for i in 0..cfg.read_len {
        let q = if rng.gen_bool(cfg.lo_frac) { cfg.qual_lo } else { cfg.qual_hi };
        let mut code = tmpl.code(i);
        if rng.gen_bool(phred_to_prob(q)) {
            // Substitution: one of the three other bases.
            code = (code + rng.gen_range(1..4)) & 3;
        }
        seq.push(Base::from_code(code));
        quals.push(q);
    }
    Read::new(id, seq, quals)
}

/// Flatten pairs into single reads (both mates), as the assembler ingests.
pub fn flatten_pairs(pairs: &[PairedRead]) -> Vec<Read> {
    let mut out = Vec::with_capacity(pairs.len() * 2);
    for p in pairs {
        out.push(p.r1.clone());
        out.push(p.r2.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::{generate_community, CommunityConfig};

    fn small_community(seed: u64) -> Community {
        generate_community(&CommunityConfig {
            n_species: 3,
            genome_len: (5_000, 6_000),
            abundance_sigma: 0.5,
            seed,
            ..Default::default()
        })
    }

    fn sim_cfg(n: usize) -> ReadSimConfig {
        ReadSimConfig {
            n_pairs: n,
            read_len: 100,
            insert_mean: 250.0,
            insert_sd: 20.0,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic() {
        let c = small_community(1);
        let a = simulate_reads(&c, &sim_cfg(100));
        let b = simulate_reads(&c, &sim_cfg(100));
        assert_eq!(a, b);
    }

    #[test]
    fn read_shape() {
        let c = small_community(2);
        let pairs = simulate_reads(&c, &sim_cfg(50));
        assert_eq!(pairs.len(), 50);
        for p in &pairs {
            assert_eq!(p.r1.len(), 100);
            assert_eq!(p.r2.len(), 100);
            assert!(p.insert_size.unwrap() >= 100);
        }
    }

    #[test]
    fn mate1_matches_genome_mostly() {
        // With errors ~ 1% (hi qual 38 + 2% low-qual bases) mate 1 should
        // be a near-substring of some genome.
        let c = small_community(3);
        let pairs = simulate_reads(&c, &sim_cfg(20));
        let mut matched = 0;
        for p in &pairs {
            for g in &c.genomes {
                // Check a 40-base error-free window exists in the genome.
                for start in [0usize, 30, 60] {
                    if g.seq.contains(&p.r1.seq.subseq(start, 40)) {
                        matched += 1;
                        break;
                    }
                }
            }
        }
        assert!(matched >= 15, "only {matched}/20 mate-1s matched a genome");
    }

    #[test]
    fn mate2_is_reverse_strand() {
        let c = small_community(4);
        let pairs = simulate_reads(&c, &sim_cfg(20));
        let mut matched = 0;
        for p in &pairs {
            let rc = p.r2.seq.revcomp();
            for g in &c.genomes {
                for start in [0usize, 30, 60] {
                    if g.seq.contains(&rc.subseq(start, 40)) {
                        matched += 1;
                        break;
                    }
                }
            }
        }
        assert!(matched >= 15, "only {matched}/20 mate-2s matched reverse strand");
    }

    #[test]
    fn abundance_drives_sampling() {
        let mut c = small_community(5);
        // Make species 0 dominate.
        c.abundances = vec![0.9, 0.05, 0.05];
        let pairs = simulate_reads(&c, &sim_cfg(200));
        let mut counts = [0usize; 3];
        for p in &pairs {
            for (gi, g) in c.genomes.iter().enumerate() {
                if g.seq.contains(&p.r1.seq.subseq(0, 30))
                    || g.seq.contains(&p.r1.seq.subseq(0, 30).revcomp())
                {
                    counts[gi] += 1;
                    break;
                }
            }
        }
        assert!(
            counts[0] > 5 * (counts[1] + counts[2]).max(1),
            "dominant species undersampled: {counts:?}"
        );
    }

    #[test]
    fn flatten_interleaves() {
        let c = small_community(6);
        let pairs = simulate_reads(&c, &sim_cfg(5));
        let flat = flatten_pairs(&pairs);
        assert_eq!(flat.len(), 10);
        assert_eq!(flat[0].id, "p0/1");
        assert_eq!(flat[1].id, "p0/2");
    }

    #[test]
    fn error_rate_tracks_quality() {
        // With all-low-quality reads, mismatches versus the template must
        // be much more frequent.
        let c = small_community(7);
        let hi = simulate_reads(
            &c,
            &ReadSimConfig { lo_frac: 0.0, n_pairs: 50, read_len: 100, ..Default::default() },
        );
        let lo = simulate_reads(
            &c,
            &ReadSimConfig {
                lo_frac: 1.0,
                n_pairs: 50,
                read_len: 100,
                seed: 1,
                ..Default::default()
            },
        );
        let err_frac = |pairs: &[PairedRead], comm: &Community| {
            let mut total = 0usize;
            let mut errs = 0usize;
            for p in pairs {
                // Find the best-matching genome window by brute force.
                let probe = &p.r1.seq;
                let mut best = usize::MAX;
                for g in &comm.genomes {
                    for s in 0..g.seq.len().saturating_sub(probe.len()) {
                        let d = g.seq.subseq(s, probe.len()).hamming(probe);
                        best = best.min(d);
                        if best == 0 {
                            break;
                        }
                    }
                }
                if best != usize::MAX {
                    total += probe.len();
                    errs += best;
                }
            }
            errs as f64 / total.max(1) as f64
        };
        // Sample a few pairs to keep the brute force cheap.
        let e_hi = err_frac(&hi[..6], &c);
        let e_lo = err_frac(&lo[..6], &c);
        assert!(e_lo > e_hi + 0.05, "low-qual reads must err more: {e_hi:.4} vs {e_lo:.4}");
    }
}
