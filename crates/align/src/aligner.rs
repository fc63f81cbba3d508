//! Seed lookup, diagonal grouping, and ungapped verification.

use crate::index::SeedIndex;
use bioseq::{DnaSeq, Read};
use kmer::{CanonicalKmerIter, Kmer};

/// Alignment parameters.
#[derive(Debug, Clone)]
pub struct AlignParams {
    /// Minimum seeds on the same diagonal before verification is attempted.
    pub min_seeds: usize,
    /// Stride between query seeds taken from the read.
    pub seed_stride: usize,
    /// Minimum read↔contig overlap length to accept.
    pub min_overlap: usize,
    /// Maximum mismatch fraction within the overlap.
    pub max_mismatch_frac: f64,
}

impl Default for AlignParams {
    fn default() -> Self {
        AlignParams { min_seeds: 2, seed_stride: 4, min_overlap: 30, max_mismatch_frac: 0.1 }
    }
}

/// A verified read-to-contig alignment.
///
/// Coordinates are in contig space for the read *as oriented* (`rc == true`
/// means the reverse complement of the read aligns forward to the contig).
/// `offset` is the contig position of oriented-read base 0 and may be
/// negative (read hangs off the left end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignHit {
    pub contig: u32,
    /// Contig coordinate of oriented-read base 0 (can be negative).
    pub offset: i64,
    /// True if the read's reverse complement is the aligning orientation.
    pub rc: bool,
    /// Bases compared (overlap of read extent and contig extent).
    pub overlap: u32,
    /// Mismatches within the overlap.
    pub mismatches: u32,
}

/// Align one read against the index; returns all accepted alignments
/// (at most one per (contig, orientation, diagonal) group).
///
/// Every `seed_stride`-th canonical seed of the read votes for the
/// (contig, orientation, diagonal) of each of its hits. The votes are
/// sorted and counted in runs; groups with at least `min_seeds` votes are
/// verified strongest first, ties broken by the group key.
pub fn align_read(
    idx: &SeedIndex,
    contigs: &[DnaSeq],
    read: &Read,
    params: &AlignParams,
) -> Vec<AlignHit> {
    let k = idx.seed_k();
    if read.len() < k {
        return Vec::new();
    }
    // The seeds are gathered before any is looked up, so the lookups'
    // cache misses overlap.
    let seeds: Vec<(usize, Kmer, bool)> =
        CanonicalKmerIter::new(&read.seq, k).step_by(params.seed_stride).collect();
    // One (contig, rc, diagonal) per seed hit.
    let mut votes: Vec<(u32, bool, i64)> = Vec::with_capacity(seeds.len());
    let rlen = read.len() as i64;
    for &(pos, canon, read_fwd) in &seeds {
        for hit in idx.lookup(&canon) {
            // Same strand sense => read-forward alignment.
            let rc = hit.fwd != read_fwd;
            let diag = if rc {
                // In rc-read coordinates the seed starts at rlen - k - pos.
                i64::from(hit.pos) - (rlen - k as i64 - pos as i64)
            } else {
                i64::from(hit.pos) - pos as i64
            };
            votes.push((hit.contig, rc, diag));
        }
    }
    votes.sort_unstable();
    let mut groups: Vec<((u32, bool, i64), usize)> = Vec::new();
    for run in votes.chunk_by(|a, b| a == b) {
        if run.len() >= params.min_seeds {
            groups.push((run[0], run.len()));
        }
    }
    // Strongest groups first; the keys are distinct, so the order is total.
    groups.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut hits = Vec::new();
    let mut seen: Vec<(u32, bool)> = Vec::new();
    let mut revcomp = None;
    for ((contig, rc, diag), _) in groups {
        // One alignment per (contig, orientation): keep the best diagonal.
        if seen.contains(&(contig, rc)) {
            continue;
        }
        let oriented =
            if rc { revcomp.get_or_insert_with(|| read.seq.revcomp()) } else { &read.seq };
        if let Some(hit) = verify(contigs, contig, diag, rc, oriented, params) {
            hits.push(hit);
            seen.push((contig, rc));
        }
    }
    hits.sort_by_key(|h| (h.contig, h.rc, h.offset));
    hits
}

/// Ungapped verification of an oriented read at a fixed diagonal.
fn verify(
    contigs: &[DnaSeq],
    contig: u32,
    offset: i64,
    rc: bool,
    oriented: &DnaSeq,
    params: &AlignParams,
) -> Option<AlignHit> {
    let ctg = &contigs[contig as usize];
    let clen = ctg.len() as i64;
    let rlen = oriented.len() as i64;
    let start = offset.max(0);
    let end = (offset + rlen).min(clen);
    let overlap = end - start;
    if overlap < params.min_overlap as i64 {
        return None;
    }
    let mut mismatches = 0u32;
    for cpos in start..end {
        let rpos = (cpos - offset) as usize;
        if ctg.code(cpos as usize) != oriented.code(rpos) {
            mismatches += 1;
        }
    }
    if f64::from(mismatches) > params.max_mismatch_frac * overlap as f64 {
        return None;
    }
    Some(AlignHit { contig, offset, rc, overlap: overlap as u32, mismatches })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmer::KmerIter;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// `align_read` as a map of (contig, rc, diagonal) seed counts over the
    /// read's forward k-mers, each canonicalized on its own, with the read
    /// reverse-complemented per reverse-strand group.
    fn align_read_oracle(
        idx: &SeedIndex,
        contigs: &[DnaSeq],
        read: &Read,
        params: &AlignParams,
    ) -> Vec<AlignHit> {
        let k = idx.seed_k();
        if read.len() < k {
            return Vec::new();
        }
        let mut groups: HashMap<(u32, bool, i64), usize> = HashMap::new();
        let rlen = read.len() as i64;
        for (pos, km) in KmerIter::new(&read.seq, k) {
            if pos % params.seed_stride != 0 {
                continue;
            }
            let canon = km.canonical();
            let read_fwd = canon == km;
            for hit in idx.lookup(&canon) {
                let rc = hit.fwd != read_fwd;
                let diag = if rc {
                    i64::from(hit.pos) - (rlen - k as i64 - pos as i64)
                } else {
                    i64::from(hit.pos) - pos as i64
                };
                *groups.entry((hit.contig, rc, diag)).or_insert(0) += 1;
            }
        }
        let mut sorted: Vec<((u32, bool, i64), usize)> = groups.into_iter().collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut hits = Vec::new();
        let mut seen: Vec<(u32, bool)> = Vec::new();
        for ((contig, rc, diag), seeds) in sorted {
            if seeds < params.min_seeds || seen.contains(&(contig, rc)) {
                continue;
            }
            let oriented = if rc { read.seq.revcomp() } else { read.seq.clone() };
            if let Some(hit) = verify(contigs, contig, diag, rc, &oriented, params) {
                hits.push(hit);
                seen.push((contig, rc));
            }
        }
        hits.sort_by_key(|h| (h.contig, h.rc, h.offset));
        hits
    }

    proptest! {
        /// The sorted grouping returns the oracle's hits in the oracle's
        /// order. Contigs are cut from two short genomes that share a
        /// planted repeat, so one seed hits several contigs and diagonals;
        /// reads come from either strand of a genome, with substitutions,
        /// some overhanging a contig end and some shorter than `seed_k`.
        #[test]
        fn align_read_matches_hashmap_grouping(
            genomes in proptest::collection::vec(proptest::collection::vec(0u8..4, 300), 2),
            repeat in proptest::collection::vec(0u8..4, 20..60),
            plants in proptest::collection::vec((0usize..2, 0usize..240), 0..5),
            spans in proptest::collection::vec((0usize..2, 0usize..300, 10usize..200), 1..8),
            reads in proptest::collection::vec(
                (
                    (0usize..2, 0usize..300, 1usize..150),
                    any::<bool>(),
                    proptest::collection::vec((any::<usize>(), 1u8..4), 0..8),
                ),
                1..16,
            ),
            k in 8usize..22,
            wide_stride in any::<bool>(),
            min_seeds in 1usize..4,
        ) {
            let mut genomes = genomes;
            for &(g, at) in &plants {
                let end = (at + repeat.len()).min(300);
                genomes[g][at..end].copy_from_slice(&repeat[..end - at]);
            }
            let cut = |g: usize, s: usize, n: usize| genomes[g][s..(s + n).min(300)].to_vec();
            let contigs: Vec<DnaSeq> =
                spans.iter().map(|&(g, s, n)| DnaSeq::from_codes(cut(g, s, n))).collect();
            let idx = SeedIndex::build(&contigs, k, 50);
            let params = AlignParams {
                min_seeds,
                seed_stride: if wide_stride { 4 } else { 1 },
                min_overlap: 20,
                ..AlignParams::default()
            };
            for ((g, s, n), rc, subs) in &reads {
                let mut codes = cut(*g, *s, *n);
                for &(at, delta) in subs {
                    if !codes.is_empty() {
                        let i = at % codes.len();
                        codes[i] = (codes[i] + delta) % 4;
                    }
                }
                let mut seq = DnaSeq::from_codes(codes);
                if *rc {
                    seq = seq.revcomp();
                }
                let read = Read::with_uniform_qual("r", seq, 30);
                prop_assert_eq!(
                    align_read(&idx, &contigs, &read, &params),
                    align_read_oracle(&idx, &contigs, &read, &params)
                );
            }
        }
    }

    /// In a tandem repeat every diagonal that keeps the read inside the
    /// contig collects every seed and verifies without a mismatch, so the
    /// group order's tie-break alone picks the one alignment: the smallest
    /// diagonal with the most seeds.
    #[test]
    fn tied_diagonals_resolve_to_the_smallest() {
        let unit = random_seq(7, 3);
        let mut contig = DnaSeq::new();
        for _ in 0..90 {
            contig.extend_from(&unit);
        }
        let contigs = vec![contig];
        let idx = SeedIndex::build(&contigs, 17, 200);
        let read = Read::with_uniform_qual("r", contigs[0].subseq(301, 100), 35);
        let params = AlignParams { seed_stride: 1, ..AlignParams::default() };
        let hits = align_read(&idx, &contigs, &read, &params);
        assert_eq!(hits, align_read_oracle(&idx, &contigs, &read, &params));
        let fwd: Vec<&AlignHit> = hits.iter().filter(|h| !h.rc).collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].offset, 301 % 7, "the leftmost full-length placement");
    }

    fn random_seq(len: usize, seed: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn setup(len: usize) -> (Vec<DnaSeq>, SeedIndex) {
        let c = random_seq(len, 99);
        let idx = SeedIndex::build(std::slice::from_ref(&c), 17, 200);
        (vec![c], idx)
    }

    #[test]
    fn exact_interior_read_aligns() {
        let (contigs, idx) = setup(500);
        let read = Read::with_uniform_qual("r", contigs[0].subseq(100, 100), 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert_eq!(hits.len(), 1);
        let h = hits[0];
        assert_eq!(h.offset, 100);
        assert!(!h.rc);
        assert_eq!(h.overlap, 100);
        assert_eq!(h.mismatches, 0);
    }

    #[test]
    fn rc_read_aligns_with_rc_flag() {
        let (contigs, idx) = setup(500);
        let read = Read::with_uniform_qual("r", contigs[0].subseq(200, 100).revcomp(), 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert_eq!(hits.len(), 1);
        assert!(hits[0].rc);
        assert_eq!(hits[0].offset, 200);
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn read_with_errors_still_aligns() {
        let (contigs, idx) = setup(500);
        let mut codes = contigs[0].subseq(50, 100).codes().to_vec();
        codes[10] ^= 1;
        codes[60] ^= 2;
        let read = Read::with_uniform_qual("r", DnaSeq::from_codes(codes), 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mismatches, 2);
    }

    #[test]
    fn overhanging_read_has_negative_offset() {
        let (contigs, idx) = setup(500);
        // Read = 40 novel bases + first 60 contig bases: hangs off the left.
        let mut seq = random_seq(40, 7);
        seq.extend_from(&contigs[0].subseq(0, 60));
        let read = Read::with_uniform_qual("r", seq, 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].offset, -40);
        assert_eq!(hits[0].overlap, 60);
    }

    #[test]
    fn unrelated_read_no_hit() {
        let (contigs, idx) = setup(500);
        let read = Read::with_uniform_qual("r", random_seq(100, 12345), 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert!(hits.is_empty());
    }

    #[test]
    fn short_overlap_rejected() {
        let (contigs, idx) = setup(500);
        // Only 20 bases overlap the contig's right end.
        let mut seq = contigs[0].subseq(480, 20);
        seq.extend_from(&random_seq(80, 55));
        let read = Read::with_uniform_qual("r", seq, 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert!(hits.is_empty(), "20 < min_overlap 30 must reject");
    }

    #[test]
    fn multi_contig_hits_are_separate() {
        let a = random_seq(300, 1);
        let b = random_seq(300, 2);
        let contigs = vec![a.clone(), b.clone()];
        let idx = SeedIndex::build(&contigs, 17, 200);
        let read = Read::with_uniform_qual("r", a.subseq(100, 80), 35);
        let hits = align_read(&idx, &contigs, &read, &AlignParams::default());
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].contig, 0);
    }
}
