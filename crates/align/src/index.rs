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
#[derive(Debug)]
pub struct SeedIndex {
    seed_k: usize,
    map: KmerTable<Vec<SeedHit>>,
    contig_lens: Vec<u32>,
}

impl SeedIndex {
    /// Index every k-mer of every contig.
    pub fn build(contigs: &[DnaSeq], seed_k: usize, max_occ: usize) -> SeedIndex {
        let mut map: KmerTable<Vec<SeedHit>> = KmerTable::new(seed_k);
        let mut contig_lens = Vec::with_capacity(contigs.len());
        for (ci, c) in contigs.iter().enumerate() {
            contig_lens.push(c.len() as u32);
            for (pos, canon, fwd) in CanonicalKmerIter::new(c, seed_k) {
                map.entry(&canon).push(SeedHit { contig: ci as u32, pos: pos as u32, fwd });
            }
        }
        map.retain(|v| v.len() <= max_occ);
        SeedIndex { seed_k, map, contig_lens }
    }

    /// Seed length.
    pub fn seed_k(&self) -> usize {
        self.seed_k
    }

    /// Number of distinct seeds retained.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no seeds were indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Length of contig `i`.
    pub fn contig_len(&self, i: u32) -> u32 {
        self.contig_lens[i as usize]
    }

    /// Number of contigs covered by the index.
    pub fn num_contigs(&self) -> usize {
        self.contig_lens.len()
    }

    /// Occurrences of a canonical k-mer.
    pub fn lookup(&self, canon: &Kmer) -> &[SeedHit] {
        self.map.get(canon).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(idx.num_contigs(), 1);
    }
}
