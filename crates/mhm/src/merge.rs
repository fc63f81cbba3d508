//! Paired-read merging — the pipeline's first phase.
//!
//! When a fragment is shorter than twice the read length the two mates
//! overlap; merging them yields one longer, higher-confidence read. We scan
//! overlap lengths largest-first and accept the first overlap whose
//! mismatch fraction is under the threshold, taking the higher-quality base
//! at each overlapped position.

use bioseq::{DnaSeq, PairedRead, Read};
use rayon::prelude::*;

/// Merge parameters.
#[derive(Debug, Clone)]
pub struct MergeParams {
    /// Minimum overlap between mate 1 and rc(mate 2).
    pub min_overlap: usize,
    /// Maximum mismatch fraction within the overlap.
    pub max_mismatch_frac: f64,
}

impl Default for MergeParams {
    fn default() -> Self {
        MergeParams { min_overlap: 16, max_mismatch_frac: 0.08 }
    }
}

/// Outcome statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeStats {
    pub pairs_in: usize,
    pub merged: usize,
    pub unmerged: usize,
}

/// Try to merge one pair; `None` if no acceptable overlap exists.
pub fn merge_pair(pair: &PairedRead, params: &MergeParams) -> Option<Read> {
    let r1 = &pair.r1;
    let r2rc = pair.r2.revcomp();
    let max_ov = r1.len().min(r2rc.len());
    for ov in (params.min_overlap..=max_ov).rev() {
        let allowed = (params.max_mismatch_frac * ov as f64) as usize;
        let mut mism = 0usize;
        let off = r1.len() - ov;
        let mut ok = true;
        for i in 0..ov {
            if r1.seq.code(off + i) != r2rc.seq.code(i) {
                mism += 1;
                if mism > allowed {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // Build the merged read: r1 prefix + consensus overlap + r2rc suffix.
        let total = r1.len() + r2rc.len() - ov;
        let mut seq = DnaSeq::with_capacity(total);
        let mut quals = Vec::with_capacity(total);
        for i in 0..off {
            seq.push(r1.seq.base(i));
            quals.push(r1.quals[i]);
        }
        for i in 0..ov {
            let (q1, q2) = (r1.quals[off + i], r2rc.quals[i]);
            if q1 >= q2 {
                seq.push(r1.seq.base(off + i));
            } else {
                seq.push(r2rc.seq.base(i));
            }
            // Agreement boosts confidence; disagreement keeps the winner's q.
            let q = if r1.seq.code(off + i) == r2rc.seq.code(i) {
                q1.saturating_add(q2).min(bioseq::qual::MAX_QUAL)
            } else {
                q1.max(q2)
            };
            quals.push(q);
        }
        for i in ov..r2rc.len() {
            seq.push(r2rc.seq.base(i));
            quals.push(r2rc.quals[i]);
        }
        return Some(Read::new(format!("{}_merged", r1.id), seq, quals));
    }
    None
}

/// Merge all pairs in parallel; unmerged pairs contribute both mates as-is.
pub fn merge_reads(pairs: &[PairedRead], params: &MergeParams) -> (Vec<Read>, MergeStats) {
    let results: Vec<Option<Read>> = pairs.par_iter().map(|p| merge_pair(p, params)).collect();
    let mut reads = Vec::with_capacity(pairs.len() * 2);
    let mut stats = MergeStats { pairs_in: pairs.len(), ..Default::default() };
    for (pair, merged) in pairs.iter().zip(results) {
        match merged {
            Some(r) => {
                reads.push(r);
                stats.merged += 1;
            }
            None => {
                reads.push(pair.r1.clone());
                reads.push(pair.r2.clone());
                stats.unmerged += 1;
            }
        }
    }
    (reads, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test params tolerant of the short overlaps in these fixtures.
    fn test_params() -> MergeParams {
        MergeParams { min_overlap: 8, max_mismatch_frac: 0.12 }
    }

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    /// A fragment and the two mates an ideal sequencer would produce.
    fn pair_from_fragment(frag: &DnaSeq, read_len: usize) -> PairedRead {
        let r1 = Read::with_uniform_qual("f/1", frag.subseq(0, read_len), 30);
        let r2 = Read::with_uniform_qual(
            "f/2",
            frag.subseq(frag.len() - read_len, read_len).revcomp(),
            30,
        );
        PairedRead::new(r1, r2)
    }

    #[test]
    fn overlapping_pair_merges_to_fragment() {
        // 30-base fragment, 20-base reads → 10-base overlap.
        let frag = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGG");
        let pair = pair_from_fragment(&frag, 20);
        let merged = merge_pair(&pair, &test_params()).expect("must merge");
        assert_eq!(merged.seq, frag);
        assert_eq!(merged.len(), 30);
    }

    #[test]
    fn non_overlapping_pair_does_not_merge() {
        let frag: DnaSeq = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGGACGTTGCAGT");
        let pair = pair_from_fragment(&frag, 15); // 40-base frag, no overlap
        assert!(merge_pair(&pair, &MergeParams::default()).is_none());
    }

    #[test]
    fn mismatches_within_threshold_tolerated() {
        let frag = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGG");
        let mut pair = pair_from_fragment(&frag, 20);
        // Corrupt one base inside the overlap of r1 (position 15) at LOW
        // quality; r2's copy (high quality) must win in the consensus.
        let mut codes = pair.r1.seq.codes().to_vec();
        codes[15] ^= 1;
        pair.r1 = Read::new(
            "f/1",
            DnaSeq::from_codes(codes),
            (0..20).map(|i| if i == 15 { 5 } else { 30 }).collect(),
        );
        let merged = merge_pair(&pair, &test_params()).expect("one mismatch ok");
        assert_eq!(merged.seq, frag, "consensus must repair the error");
    }

    #[test]
    fn quality_boost_on_agreement() {
        let frag = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGG");
        let pair = pair_from_fragment(&frag, 20);
        let merged = merge_pair(&pair, &test_params()).unwrap();
        // Overlap positions (10..20 of the merged read) agree → boosted q.
        assert!(merged.quals[15] > 30);
        assert_eq!(merged.quals[0], 30);
    }

    #[test]
    fn merge_reads_keeps_unmerged_mates() {
        let frag_short = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGG");
        let frag_long = seq("ACGGTTCAAGTACCGGTTAAGGCCAATTGGACGTTGCAGT");
        let pairs = vec![pair_from_fragment(&frag_short, 20), pair_from_fragment(&frag_long, 15)];
        let (reads, stats) = merge_reads(&pairs, &test_params());
        assert_eq!(stats.pairs_in, 2);
        assert_eq!(stats.merged, 1);
        assert_eq!(stats.unmerged, 1);
        assert_eq!(reads.len(), 3); // merged + two unmerged mates
    }

    #[test]
    fn spurious_overlap_rejected() {
        // Unrelated mates must not merge even at min_overlap.
        let r1 = Read::with_uniform_qual("a", seq("ACGGTTCAAGTACCGGTTAA"), 30);
        let r2 = Read::with_uniform_qual("b", seq("GGCCAATTGGACGTTGCAGT"), 30);
        let pair = PairedRead::new(r1, r2);
        assert!(merge_pair(&pair, &MergeParams::default()).is_none());
    }
}
