//! Assembly statistics: the standard contiguity and correctness metrics
//! (N50/L50, totals) plus reference-based evaluation against the known
//! source genomes of a synthetic community.

use bioseq::DnaSeq;
use kmer::{CanonicalKmerIter, KmerTable};

/// Contiguity statistics of a contig/scaffold set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyStats {
    /// Number of sequences.
    pub count: usize,
    /// Total bases.
    pub total_bases: usize,
    /// Longest sequence.
    pub longest: usize,
    /// N50: length such that sequences at least this long cover ≥ half the
    /// total bases.
    pub n50: usize,
    /// L50: the number of sequences needed to reach half the total bases.
    pub l50: usize,
    /// Mean length.
    pub mean_len: f64,
}

impl AssemblyStats {
    /// Compute stats over a sequence set.
    pub fn of(seqs: &[DnaSeq]) -> AssemblyStats {
        let mut lens: Vec<usize> = seqs.iter().map(DnaSeq::len).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0usize;
        let mut n50 = 0usize;
        let mut l50 = 0usize;
        for (i, &l) in lens.iter().enumerate() {
            acc += l;
            if acc * 2 >= total {
                n50 = l;
                l50 = i + 1;
                break;
            }
        }
        AssemblyStats {
            count: lens.len(),
            total_bases: total,
            longest: lens.first().copied().unwrap_or(0),
            n50,
            l50,
            mean_len: if lens.is_empty() { 0.0 } else { total as f64 / lens.len() as f64 },
        }
    }

    /// One-line rendering.
    pub fn render(&self) -> String {
        format!(
            "{} seqs, {} bp total, longest {}, N50 {}, L50 {}, mean {:.0}",
            self.count, self.total_bases, self.longest, self.n50, self.l50, self.mean_len
        )
    }
}

/// Reference-based evaluation of an assembly against known genomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefEval {
    /// Fraction of reference k-mers recovered by the assembly.
    pub genome_fraction: f64,
    /// Fraction of assembly k-mers found in the references (1 − this is a
    /// misassembly/chimera indicator).
    pub precision: f64,
    /// k used for the comparison.
    pub k: usize,
}

/// Evaluate an assembly against reference genomes by canonical k-mer
/// containment — a fast stand-in for whole-genome alignment evaluation
/// (QUAST-style), robust to strand and contig order.
pub fn evaluate_against_refs(assembly: &[DnaSeq], refs: &[DnaSeq], k: usize) -> RefEval {
    let ref_set = kmer_set(refs, k);
    let asm_set = kmer_set(assembly, k);
    // Both fractions share one numerator: the k-mers in both sets.
    let shared = asm_set.iter().filter(|(km, _)| ref_set.slot(km).is_some()).count();
    RefEval {
        genome_fraction: if ref_set.is_empty() {
            0.0
        } else {
            shared as f64 / ref_set.len() as f64
        },
        precision: if asm_set.is_empty() { 1.0 } else { shared as f64 / asm_set.len() as f64 },
        k,
    }
}

/// The distinct canonical k-mers of `seqs`.
fn kmer_set(seqs: &[DnaSeq], k: usize) -> KmerTable<()> {
    let mut set = KmerTable::new(k);
    for s in seqs {
        for (_, km, _) in CanonicalKmerIter::new(s, k) {
            set.entry(&km);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmer::{Kmer, KmerIter};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    /// The `HashSet` evaluation the k-mer table replaced.
    fn evaluate_oracle(assembly: &[DnaSeq], refs: &[DnaSeq], k: usize) -> RefEval {
        let set = |seqs: &[DnaSeq]| -> HashSet<Kmer> {
            seqs.iter()
                .filter(|s| s.len() >= k)
                .flat_map(|s| KmerIter::new(s, k).map(|(_, km)| km.canonical()))
                .collect()
        };
        let (ref_set, asm_set) = (set(refs), set(assembly));
        let recovered = ref_set.intersection(&asm_set).count();
        let genuine = asm_set.iter().filter(|km| ref_set.contains(*km)).count();
        RefEval {
            genome_fraction: if ref_set.is_empty() {
                0.0
            } else {
                recovered as f64 / ref_set.len() as f64
            },
            precision: if asm_set.is_empty() { 1.0 } else { genuine as f64 / asm_set.len() as f64 },
            k,
        }
    }

    fn random_genome(len: usize, seed: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn seqs(lens: &[usize]) -> Vec<DnaSeq> {
        lens.iter()
            .map(|&n| (0..n).map(|i| bioseq::Base::from_code((i % 4) as u8)).collect())
            .collect()
    }

    #[test]
    fn n50_basic() {
        // Lengths 10, 8, 6, 4, 2 → total 30; cumulative 10, 18 ≥ 15 → N50=8, L50=2.
        let s = AssemblyStats::of(&seqs(&[10, 8, 6, 4, 2]));
        assert_eq!(s.n50, 8);
        assert_eq!(s.l50, 2);
        assert_eq!(s.total_bases, 30);
        assert_eq!(s.longest, 10);
    }

    #[test]
    fn n50_single_sequence() {
        let s = AssemblyStats::of(&seqs(&[100]));
        assert_eq!(s.n50, 100);
        assert_eq!(s.l50, 1);
    }

    #[test]
    fn empty_assembly() {
        let s = AssemblyStats::of(&[]);
        assert_eq!(s.n50, 0);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_len, 0.0);
    }

    #[test]
    fn perfect_assembly_full_fraction() {
        let genome = random_genome(500, 1);
        let eval =
            evaluate_against_refs(std::slice::from_ref(&genome), std::slice::from_ref(&genome), 21);
        assert!((eval.genome_fraction - 1.0).abs() < 1e-12);
        assert!((eval.precision - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rc_assembly_still_counts() {
        let genome = random_genome(300, 2);
        let rc = vec![genome.revcomp()];
        let eval = evaluate_against_refs(&rc, std::slice::from_ref(&genome), 21);
        assert!((eval.genome_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_assembly_half_fraction() {
        let genome = random_genome(1000, 3);
        let half = vec![genome.subseq(0, 500)];
        let eval = evaluate_against_refs(&half, std::slice::from_ref(&genome), 21);
        assert!(eval.genome_fraction > 0.40 && eval.genome_fraction < 0.56);
        assert!(eval.precision > 0.99, "half of the real genome is all genuine");
    }

    #[test]
    fn foreign_sequence_lowers_precision() {
        let genome = random_genome(400, 4);
        let junk = random_genome(400, 5);
        let eval =
            evaluate_against_refs(&[genome.clone(), junk], std::slice::from_ref(&genome), 21);
        assert!(eval.precision < 0.8, "junk contig must show up: {}", eval.precision);
    }

    /// Genomes plus an assembly of reference pieces (either strand),
    /// foreign sequence and too-short fragments.
    fn arb_eval_case() -> impl Strategy<Value = (Vec<DnaSeq>, Vec<DnaSeq>, usize)> {
        let genomes = proptest::collection::vec((60usize..400, any::<u64>()), 1..4);
        let pieces =
            proptest::collection::vec((any::<u8>(), 0usize..400, 0usize..200, any::<u64>()), 0..8);
        (0usize..4, genomes, pieces).prop_map(|(ki, genomes, pieces)| {
            let k = [15, 31, 33, 63][ki];
            let refs: Vec<DnaSeq> =
                genomes.iter().map(|&(len, seed)| random_genome(len, seed)).collect();
            let assembly = pieces
                .iter()
                .map(|&(pick, start, len, seed)| {
                    let g = &refs[pick as usize % refs.len()];
                    let start = start % g.len();
                    let piece = g.subseq(start, len.min(g.len() - start));
                    match pick % 3 {
                        0 => piece,
                        1 => piece.revcomp(),
                        _ => random_genome(len, seed),
                    }
                })
                .collect();
            (refs, assembly, k)
        })
    }

    proptest! {
        #[test]
        fn table_evaluation_matches_hashset_oracle((refs, assembly, k) in arb_eval_case()) {
            prop_assert_eq!(
                evaluate_against_refs(&assembly, &refs, k),
                evaluate_oracle(&assembly, &refs, k)
            );
        }
    }
}
