//! Canonical k-mer seed index over a contig set.

use bioseq::DnaSeq;
use kmer::{CanonicalKmerIter, Kmer, KmerTable};

/// One indexed seed occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedHit {
    /// Contig index (position in the indexed slice).
    pub contig: u32,
    /// Seed start position within the contig.
    pub pos: u32,
    /// True if the contig-forward k-mer equals its canonical form.
    pub fwd: bool,
}

/// A canonical k-mer → occurrence-list index over contigs.
///
/// Seeds whose canonical k-mer occurs more than `max_occ` times across the
/// contig set are dropped as repeats (standard seed masking; keeps lookup
/// cost bounded on repetitive metagenomes).
///
/// The occurrences live in one flat slab, each seed's hits contiguous and
/// in (contig, position) order; the table maps a seed to its `(start, len)`
/// in the slab, the paper's prefix-offset layout for its GPU tables.
#[derive(Debug)]
pub struct SeedIndex {
    seed_k: usize,
    ranges: KmerTable<(u32, u32)>,
    hits: Vec<SeedHit>,
}

impl SeedIndex {
    /// Index every k-mer of every contig. The first pass numbers the
    /// seeds in order of first occurrence and counts them; the prefix sum
    /// of the counts in that order gives each kept seed its range, and the
    /// second pass writes the hits, so the slab fills almost in order and
    /// the table is probed once per occurrence.
    pub fn build(contigs: &[DnaSeq], seed_k: usize, max_occ: usize) -> SeedIndex {
        let seeds = || {
            contigs.iter().enumerate().flat_map(move |(ci, c)| {
                CanonicalKmerIter::new(c, seed_k).map(move |(pos, canon, fwd)| {
                    (canon, SeedHit { contig: ci as u32, pos: pos as u32, fwd })
                })
            })
        };
        // (seed number, occurrences) per seed; a fresh entry has 0.
        let mut ranges: KmerTable<(u32, u32)> = KmerTable::new(seed_k);
        let mut seed_of = Vec::new();
        for (canon, _) in seeds() {
            let next = ranges.len() as u32;
            let (id, n) = ranges.entry(&canon);
            if *n == 0 {
                *id = next;
            }
            *n += 1;
            seed_of.push(*id);
        }
        let kept = |n: u32| n as usize <= max_occ;
        let mut count = vec![0u32; ranges.len()];
        for &(id, n) in ranges.values() {
            count[id as usize] = n;
        }
        // Each kept seed's start in the slab, advanced as its hits land.
        let mut next = Vec::with_capacity(count.len());
        let mut total = 0u32;
        for &n in &count {
            next.push(total);
            if kept(n) {
                total += n;
            }
        }
        let mut hits = vec![SeedHit { contig: 0, pos: 0, fwd: false }; total as usize];
        for ((_, hit), &id) in seeds().zip(&seed_of) {
            if kept(count[id as usize]) {
                let at = &mut next[id as usize];
                hits[*at as usize] = hit;
                *at += 1;
            }
        }
        if count.iter().any(|&n| !kept(n)) {
            ranges.retain(|&(_, n)| kept(n));
        }
        // `next` now holds each range's end.
        for (id, n) in ranges.values_mut() {
            *id = next[*id as usize] - *n;
        }
        SeedIndex { seed_k, ranges, hits }
    }

    /// Seed length.
    pub fn seed_k(&self) -> usize {
        self.seed_k
    }

    /// Number of distinct seeds retained.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True if no seeds were indexed.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Occurrences of a canonical k-mer.
    pub fn lookup(&self, canon: &Kmer) -> &[SeedHit] {
        self.ranges.get(canon).map_or(&[], |&(start, n)| &self.hits[start as usize..][..n as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The index as a map of occurrence lists, before repeat masking.
    fn oracle(contigs: &[DnaSeq], k: usize) -> HashMap<Kmer, Vec<SeedHit>> {
        let mut map: HashMap<Kmer, Vec<SeedHit>> = HashMap::new();
        for (ci, c) in contigs.iter().enumerate() {
            for pos in 0..(c.len() + 1).saturating_sub(k) {
                let km = Kmer::from_seq(c, pos, k);
                let canon = km.canonical();
                let hit = SeedHit { contig: ci as u32, pos: pos as u32, fwd: canon == km };
                map.entry(canon).or_default().push(hit);
            }
        }
        map
    }

    proptest! {
        /// `lookup` returns the oracle's list, in (contig, pos) order, for
        /// every seed occurring at most `max_occ` times and nothing for the
        /// rest; a seed occurring exactly `n` times is kept at `max_occ = n`
        /// and dropped at `max_occ = n - 1`. Contigs are cut from a short
        /// genome so seeds repeat, and some are shorter than `seed_k`.
        #[test]
        fn lookup_matches_oracle(
            genome in proptest::collection::vec(0u8..4, 90),
            spans in proptest::collection::vec((0usize..90, 0usize..40), 1..12),
            k in 3usize..12,
            max_occ in 1usize..6,
        ) {
            let contigs: Vec<DnaSeq> = spans
                .iter()
                .map(|&(s, n)| DnaSeq::from_codes(genome[s..(s + n).min(90)].to_vec()))
                .collect();
            let all = oracle(&contigs, k);
            let idx = SeedIndex::build(&contigs, k, max_occ);
            prop_assert_eq!(idx.len(), all.values().filter(|v| v.len() <= max_occ).count());
            for (km, hits) in &all {
                let want: &[SeedHit] = if hits.len() <= max_occ { hits } else { &[] };
                prop_assert_eq!(idx.lookup(km), want);
            }
            if let Some((km, hits)) = all.iter().max_by_key(|(km, v)| (v.len(), **km)) {
                let n = hits.len();
                prop_assert_eq!(SeedIndex::build(&contigs, k, n).lookup(km), hits.as_slice());
                prop_assert!(SeedIndex::build(&contigs, k, n - 1).lookup(km).is_empty());
            }
        }
    }

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    #[test]
    fn indexes_all_positions() {
        let c = seq("ACGGTTCAAGTA");
        let idx = SeedIndex::build(std::slice::from_ref(&c), 8, 100);
        // 12 - 8 + 1 = 5 k-mers, all unique for this sequence.
        assert_eq!(idx.len(), 5);
        let km = Kmer::from_seq(&c, 2, 8).canonical();
        let hits = idx.lookup(&km);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].pos, 2);
        assert_eq!(hits[0].contig, 0);
    }

    #[test]
    fn repeat_masking() {
        // A homopolymer makes one k-mer occur many times.
        let c = seq(&"A".repeat(50));
        let idx = SeedIndex::build(std::slice::from_ref(&c), 8, 10);
        assert_eq!(idx.len(), 0, "repeat seed must be masked");
        let idx2 = SeedIndex::build(&[c], 8, 100);
        assert_eq!(idx2.len(), 1);
    }

    #[test]
    fn orientation_recorded() {
        let c = seq("ACGGTTCAAGTA");
        let idx = SeedIndex::build(std::slice::from_ref(&c), 8, 100);
        for pos in 0..5usize {
            let km = Kmer::from_seq(&c, pos, 8);
            let canon = km.canonical();
            let hit = idx.lookup(&canon)[0];
            assert_eq!(hit.fwd, canon == km, "pos {pos}");
        }
    }

    #[test]
    fn short_contigs_skipped() {
        let idx = SeedIndex::build(&[seq("ACG")], 8, 100);
        assert!(idx.is_empty());
    }
}
