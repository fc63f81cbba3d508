//! Classification of alignments into per-contig-end candidate read sets.
//!
//! The local-assembly module extends each contig end using only "the reads
//! that align to the end of a contig" (paper §2.3). A read qualifies for the
//! right end when, oriented into contig-forward coordinates, it overlaps the
//! contig by at least `min_overlap` bases and hangs at least `min_overhang`
//! bases past the end (reads fully inside the contig cannot supply novel
//! k-mers). Mirror rule for the left end. Candidate counts are capped at
//! [`CandidateParams::max_candidates`] per end — the paper's empirical upper
//! limit of ~3000 reads per contig.

use crate::aligner::{align_read, AlignParams};
use crate::index::SeedIndex;
use bioseq::{DnaSeq, Read};
use rayon::prelude::*;

/// Parameters for candidate classification.
#[derive(Debug, Clone)]
pub struct CandidateParams {
    pub align: AlignParams,
    /// Minimum bases hanging past the contig end.
    pub min_overhang: usize,
    /// Cap on candidates per contig end (paper: ~3000 empirical max).
    pub max_candidates: usize,
}

impl Default for CandidateParams {
    fn default() -> Self {
        CandidateParams { align: AlignParams::default(), min_overhang: 5, max_candidates: 3000 }
    }
}

/// Candidate reads for both ends of one contig, oriented contig-forward.
#[derive(Debug, Clone, Default)]
pub struct EndCandidates {
    /// Reads overlapping and extending past the right (3') end.
    pub right: Vec<Read>,
    /// Reads overlapping and extending past the left (5') end.
    pub left: Vec<Read>,
}

impl EndCandidates {
    /// Total candidate reads across both ends.
    pub fn total(&self) -> usize {
        self.right.len() + self.left.len()
    }
}

/// Align every read and bucket the qualifying ones per contig end.
///
/// Output is indexed like `contigs`. Deterministic: candidates appear in
/// read order regardless of thread count.
pub fn collect_candidates(
    contigs: &[DnaSeq],
    reads: &[Read],
    idx: &SeedIndex,
    params: &CandidateParams,
) -> Vec<EndCandidates> {
    // Parallel phase: per-read classification (read_idx kept for ordering).
    let mut tagged: Vec<(usize, u32, bool, Read)> = reads
        .par_iter()
        .enumerate()
        .flat_map_iter(|(ri, read)| {
            let hits = align_read(idx, contigs, read, &params.align);
            let rlen = read.len() as i64;
            let min_overhang = params.min_overhang as i64;
            let mut out = Vec::new();
            for h in hits {
                let clen = contigs[h.contig as usize].len() as i64;
                let right = h.offset + rlen - clen >= min_overhang && h.offset < clen;
                let left = -h.offset >= min_overhang && h.offset + rlen > 0;
                if !right && !left {
                    continue;
                }
                let oriented = if h.rc { read.revcomp() } else { read.clone() };
                if right && left {
                    out.push((ri, h.contig, true, oriented.clone()));
                    out.push((ri, h.contig, false, oriented));
                } else {
                    out.push((ri, h.contig, right, oriented));
                }
            }
            out
        })
        .collect();

    // Deterministic bucketing.
    tagged.sort_by_key(|(ri, contig, is_right, _)| (*contig, *is_right, *ri));
    let mut result = vec![EndCandidates::default(); contigs.len()];
    for (_, contig, is_right, read) in tagged {
        let slot = &mut result[contig as usize];
        let v = if is_right { &mut slot.right } else { &mut slot.left };
        if v.len() < params.max_candidates {
            v.push(read);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    /// A genome with a contig that is a window of it, plus reads tiling the
    /// genome, gives both-end candidates.
    fn setup() -> (Vec<DnaSeq>, Vec<Read>, SeedIndex) {
        let genome = random_seq(1000, 21);
        let contig = genome.subseq(400, 200);
        let mut reads = Vec::new();
        let mut pos = 0;
        while pos + 100 <= genome.len() {
            reads.push(Read::with_uniform_qual(format!("r{pos}"), genome.subseq(pos, 100), 35));
            pos += 10;
        }
        let contigs = vec![contig];
        let idx = SeedIndex::build(&contigs, 17, 500);
        (contigs, reads, idx)
    }

    #[test]
    fn both_ends_get_candidates() {
        let (contigs, reads, idx) = setup();
        let cands = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].right.is_empty(), "right end needs candidates");
        assert!(!cands[0].left.is_empty(), "left end needs candidates");
    }

    #[test]
    fn interior_reads_excluded() {
        let (contigs, reads, idx) = setup();
        let cands = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        // A read fully inside the contig (genome pos 430..530 ⊂ 400..600)
        // must not be a candidate for either end: every candidate read must
        // actually hang off an end. Verify by alignment of each stored read.
        for r in cands[0].right.iter() {
            // Oriented reads must share a long exact suffix... simpler:
            // every right candidate must contain bases not in the contig.
            assert!(!contigs[0].contains(&r.seq), "read {} is fully interior", r.id);
        }
    }

    #[test]
    fn oriented_reads_match_contig_forward() {
        let (contigs, mut reads, idx) = setup();
        // Reverse-complement every read: orientation must be fixed up so
        // stored candidates still align forward.
        for r in &mut reads {
            *r = r.revcomp();
        }
        let cands = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        assert!(!cands[0].right.is_empty());
        for r in &cands[0].right {
            // A forward-oriented right-end candidate overlaps the contig's
            // suffix; check that some 30-mer of the read appears in the
            // contig as-is (not rc).
            let mut found = false;
            for start in 0..=(r.len().saturating_sub(30)) {
                if contigs[0].contains(&r.seq.subseq(start, 30)) {
                    found = true;
                    break;
                }
            }
            assert!(found, "candidate not oriented contig-forward");
        }
    }

    #[test]
    fn cap_respected() {
        let (contigs, reads, idx) = setup();
        let p = CandidateParams { max_candidates: 3, ..Default::default() };
        let cands = collect_candidates(&contigs, &reads, &idx, &p);
        assert!(cands[0].right.len() <= 3);
        assert!(cands[0].left.len() <= 3);
    }

    #[test]
    fn no_reads_no_candidates() {
        let contigs = vec![random_seq(200, 5)];
        let idx = SeedIndex::build(&contigs, 17, 500);
        let cands = collect_candidates(&contigs, &[], &idx, &CandidateParams::default());
        assert_eq!(cands[0].total(), 0);
    }

    /// Contig = genome[400..600) and reads genome[p..p+100) for p = 0, 10,
    /// …: a read overhangs the right end by p - 500 bases and the left by
    /// 400 - p, and overlaps the contig by at least 30 bases when
    /// 330 <= p <= 570.
    #[test]
    fn ends_get_the_reads_that_hang_past_them() {
        let (contigs, reads, idx) = setup();
        let cands = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        let ids = |v: &[Read]| v.iter().map(|r| r.id.clone()).collect::<Vec<_>>();
        let want = |ps: std::ops::RangeInclusive<usize>| {
            ps.step_by(10).map(|p| format!("r{p}")).collect::<Vec<_>>()
        };
        assert_eq!(ids(&cands[0].right), want(510..=570));
        assert_eq!(ids(&cands[0].left), want(330..=390));
    }

    /// The candidate sets, capped or not, are the same at 1, 2 and 4
    /// threads, for reads from either strand.
    #[test]
    fn same_candidates_at_any_thread_count() {
        let (contigs, mut reads, _) = setup();
        for r in reads.iter_mut().skip(1).step_by(3) {
            *r = r.revcomp();
        }
        for max_candidates in [3000, 4] {
            let p = CandidateParams { max_candidates, ..Default::default() };
            let run = |threads| {
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(
                    || {
                        let idx = SeedIndex::build(&contigs, 17, 500);
                        collect_candidates(&contigs, &reads, &idx, &p)
                    },
                )
            };
            let one = run(1);
            // Seven reads hang past each end; the cap of 4 cuts both.
            let want = max_candidates.min(7);
            assert_eq!((one[0].right.len(), one[0].left.len()), (want, want));
            for threads in [2, 4] {
                let other = run(threads);
                assert_eq!(one[0].right, other[0].right, "{threads} threads");
                assert_eq!(one[0].left, other[0].left, "{threads} threads");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (contigs, reads, idx) = setup();
        let a = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        let b = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
        assert_eq!(a[0].right.len(), b[0].right.len());
        for (x, y) in a[0].right.iter().zip(&b[0].right) {
            assert_eq!(x, y);
        }
    }
}
