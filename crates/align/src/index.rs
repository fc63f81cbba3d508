//! Canonical k-mer seed index over a contig set.

use bioseq::DnaSeq;
use kmer::hash::{hash_kmer, partition};
use kmer::{CanonicalKmerIter, Kmer, KmerTable};
use rayon::prelude::*;

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
/// The seeds are split into hash partitions, one per rayon thread at build
/// time ([`kmer::hash::partition`], as k-mer counting splits them). Each
/// partition keeps its occurrences in one flat slab, each seed's hits
/// contiguous and in (contig, position) order, and a table mapping a seed
/// to its `(start, len)` in the slab, the paper's prefix-offset layout for
/// its GPU tables. A seed lives in exactly one partition, so what
/// [`SeedIndex::lookup`] returns does not depend on the partition count.
#[derive(Debug)]
pub struct SeedIndex {
    seed_k: usize,
    parts: Vec<Part>,
}

/// One hash partition of a [`SeedIndex`].
#[derive(Debug)]
struct Part {
    ranges: KmerTable<(u32, u32)>,
    hits: Vec<SeedHit>,
}

impl SeedIndex {
    /// Index every k-mer of every contig, one partition per rayon thread.
    /// Each partition's table and seed numbering are sized up front from
    /// its share of the occurrences, so neither grows mid-build.
    pub fn build(contigs: &[DnaSeq], seed_k: usize, max_occ: usize) -> SeedIndex {
        let parts = rayon::current_num_threads();
        let occurrences: usize = contigs.iter().map(|c| (c.len() + 1).saturating_sub(seed_k)).sum();
        // A partition's share, with room for the hash's imbalance.
        let share = occurrences / parts;
        let presize = share + share / 64 + 64;
        let ids: Vec<usize> = (0..parts).collect();
        let parts = ids
            .par_iter()
            .map(|&part| Part::build(contigs, seed_k, max_occ, (part, parts), presize))
            .collect();
        SeedIndex { seed_k, parts }
    }

    /// Seed length.
    pub fn seed_k(&self) -> usize {
        self.seed_k
    }

    /// Number of distinct seeds retained.
    pub fn len(&self) -> usize {
        self.parts.iter().map(|p| p.ranges.len()).sum()
    }

    /// True if no seeds were indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occurrences of a canonical k-mer.
    pub fn lookup(&self, canon: &Kmer) -> &[SeedHit] {
        let part = &self.parts[partition(canon, self.parts.len())];
        part.ranges.get(canon).map_or(&[], |&(start, n)| &part.hits[start as usize..][..n as usize])
    }
}

impl Part {
    /// Partition `part.0` of `part.1`, over the seeds it owns. The first
    /// pass numbers them in order of first occurrence and counts them; the
    /// prefix sum of the counts in that order gives each kept seed its
    /// range, and the second pass writes the hits, so the slab fills almost
    /// in order and the table is probed once per occurrence. `presize`
    /// bounds the partition's occurrences, with slack.
    fn build(
        contigs: &[DnaSeq],
        seed_k: usize,
        max_occ: usize,
        part: (usize, usize),
        presize: usize,
    ) -> Part {
        // (seed number, occurrences) per seed; a fresh entry has 0.
        let mut ranges: KmerTable<(u32, u32)> = KmerTable::with_capacity(seed_k, presize);
        let mut seed_of = Vec::with_capacity(presize);
        // A contig's seeds are gathered before any is inserted, so the
        // probes' cache misses overlap instead of waiting, one at a time,
        // on the rolling window.
        let mut batch = Vec::new();
        for (ci, c) in contigs.iter().enumerate() {
            batch.clear();
            batch.extend(owned(c, ci, seed_k, part).map(|(canon, _)| (canon, hash_kmer(&canon))));
            for (canon, hash) in &batch {
                let next = ranges.len() as u32;
                let (id, n) = ranges.entry_hashed(canon, *hash);
                if *n == 0 {
                    *id = next;
                }
                *n += 1;
                seed_of.push(*id);
            }
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
        let seeds = contigs.iter().enumerate().flat_map(|(ci, c)| owned(c, ci, seed_k, part));
        for ((_, hit), &id) in seeds.zip(&seed_of) {
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
        Part { ranges, hits }
    }
}

/// The seed occurrences of contig `ci` that partition `part.0` of `part.1`
/// owns, in position order.
fn owned(
    c: &DnaSeq,
    ci: usize,
    seed_k: usize,
    (part, parts): (usize, usize),
) -> impl Iterator<Item = (Kmer, SeedHit)> + '_ {
    CanonicalKmerIter::new(c, seed_k)
        .filter(move |(_, canon, _)| partition(canon, parts) == part)
        .map(move |(pos, canon, fwd)| (canon, SeedHit { contig: ci as u32, pos: pos as u32, fwd }))
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

    /// Run `op` with rayon pinned to `threads` threads.
    fn on_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
    }

    proptest! {
        /// At 1, 2 and 4 threads (as many partitions), `lookup` returns the
        /// oracle's list, in (contig, pos) order, for every seed occurring
        /// at most `max_occ` times and nothing for the rest; a seed
        /// occurring exactly `n` times is kept at `max_occ = n` and dropped
        /// at `max_occ = n - 1`. Contigs are cut from a short genome so
        /// seeds repeat, and some are shorter than `seed_k`.
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
            let kept = all.values().filter(|v| v.len() <= max_occ).count();
            for threads in [1, 2, 4] {
                let build = |max_occ| on_threads(threads, || SeedIndex::build(&contigs, k, max_occ));
                let idx = build(max_occ);
                prop_assert_eq!(idx.parts.len(), threads, "one partition per thread");
                prop_assert_eq!(idx.len(), kept);
                for (km, hits) in &all {
                    let want: &[SeedHit] = if hits.len() <= max_occ { hits } else { &[] };
                    prop_assert_eq!(idx.lookup(km), want);
                }
                if let Some((km, hits)) = all.iter().max_by_key(|(km, v)| (v.len(), **km)) {
                    let n = hits.len();
                    prop_assert_eq!(build(n).lookup(km), hits.as_slice());
                    prop_assert!(build(n - 1).lookup(km).is_empty());
                }
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
