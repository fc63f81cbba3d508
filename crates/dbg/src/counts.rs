//! Canonical k-mer counting with per-side extension votes.

use bioseq::{Base, Read};
use kmer::{CanonicalKmerIter, KmerTable};

/// Occurrence count and extension votes for one canonical k-mer.
///
/// `left`/`right` are indexed by base code and count how often that base was
/// observed immediately before/after the k-mer, *in the canonical
/// orientation*. When a k-mer occurs reverse-complemented in a read, its
/// neighbours are complemented and swapped before voting, so votes from both
/// strands accumulate coherently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VertexCounts {
    /// Total occurrences (both strands).
    pub count: u32,
    /// Votes for the base preceding the k-mer.
    pub left: [u16; 4],
    /// Votes for the base following the k-mer.
    pub right: [u16; 4],
}

impl VertexCounts {
    fn add(&mut self, left: Option<Base>, right: Option<Base>) {
        self.count = self.count.saturating_add(1);
        if let Some(b) = left {
            let i = b as usize;
            self.left[i] = self.left[i].saturating_add(1);
        }
        if let Some(b) = right {
            let i = b as usize;
            self.right[i] = self.right[i].saturating_add(1);
        }
    }

    /// The unique extension base on a side, if exactly one base is *viable*
    /// (MetaHipMer's UU criterion).
    ///
    /// Viability is both absolute (`min_votes`) and relative (at least 10%
    /// of the side's votes): at high coverage, recurrent sequencing errors
    /// easily reach 2 absolute votes, and without the relative gate they
    /// would fork — and fragment — every well-covered region.
    pub fn unique_ext(&self, side: Side, min_votes: u16) -> Option<Base> {
        let mut found = None;
        for b in Base::ALL {
            if self.is_viable(side, b, min_votes) {
                if found.is_some() {
                    return None; // fork
                }
                found = Some(b);
            }
        }
        found
    }

    /// Does `base` pass the viability gate on `side` (absolute votes and
    /// ≥10% of the side's total)?
    pub fn is_viable(&self, side: Side, base: Base, min_votes: u16) -> bool {
        let votes = match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        };
        let total: u32 = votes.iter().map(|&v| u32::from(v)).sum();
        let v = votes[base as usize];
        v >= min_votes && u32::from(v) * 10 >= total
    }

    /// Number of viable bases on `side`.
    pub fn viable_bases(&self, side: Side, min_votes: u16) -> usize {
        Base::ALL.iter().filter(|&&b| self.is_viable(side, b, min_votes)).count()
    }
}

/// Which side of a k-mer an extension is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Map from canonical k-mer to its counts.
pub type KmerCountMap = KmerTable<VertexCounts>;

/// Count canonical k-mers (and their extension votes) across `reads` into
/// one [`KmerTable`], then drop k-mers with fewer than `min_count`
/// occurrences.
///
/// This is the pipeline's "k-mer analysis" phase: the `min_count = 2`
/// default implements the paper's "filtering out erroneous k-mers (those
/// that occur only once)".
pub fn count_kmers(reads: &[Read], k: usize, min_count: u32) -> KmerCountMap {
    let mut table = KmerCountMap::new(k);
    // A read's occurrences are gathered before any is inserted, so the
    // inserts' cache misses overlap instead of waiting, one at a time, on
    // the rolling window (about 1.5× faster at k=31).
    let mut occurrences = Vec::new();
    for read in reads {
        let seq = &read.seq;
        occurrences.clear();
        occurrences.extend(CanonicalKmerIter::new(seq, k).map(|(pos, canon, fwd)| {
            let left = (pos > 0).then(|| seq.base(pos - 1));
            let right = (pos + k < seq.len()).then(|| seq.base(pos + k));
            if fwd {
                (canon, left, right)
            } else {
                // Reverse-complemented occurrence: neighbours swap sides and
                // complement.
                (canon, right.map(Base::complement), left.map(Base::complement))
            }
        }));
        for (canon, left, right) in &occurrences {
            table.entry(canon).add(*left, *right);
        }
    }
    if min_count > 1 {
        table.retain(|v| v.count >= min_count);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::DnaSeq;
    use kmer::{Kmer, KmerIter};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn read(s: &str) -> Read {
        Read::with_uniform_qual("r", DnaSeq::from_str_strict(s).unwrap(), 30)
    }

    /// The `HashMap` counter that `count_kmers` replaced, kept as its
    /// oracle: no filter, one map entry per canonical k-mer.
    fn oracle_counts(reads: &[Read], k: usize) -> HashMap<Kmer, VertexCounts> {
        let mut map = HashMap::new();
        for read in reads {
            accumulate_read(&mut map, read, k);
        }
        map
    }

    /// Add one read's k-mers to `map`.
    fn accumulate_read(map: &mut HashMap<Kmer, VertexCounts>, read: &Read, k: usize) {
        let seq = &read.seq;
        if seq.len() < k {
            return;
        }
        for (pos, km) in KmerIter::new(seq, k) {
            let left = if pos > 0 { Some(seq.base(pos - 1)) } else { None };
            let right = if pos + k < seq.len() { Some(seq.base(pos + k)) } else { None };
            let canon = km.canonical();
            let (l, r) = if canon == km {
                (left, right)
            } else {
                (right.map(Base::complement), left.map(Base::complement))
            };
            map.entry(canon).or_default().add(l, r);
        }
    }

    /// `table` holds exactly the oracle's entries that pass `min_count`.
    fn assert_matches_oracle(
        table: &KmerCountMap,
        oracle: &HashMap<Kmer, VertexCounts>,
        min_count: u32,
    ) {
        let kept: Vec<_> = oracle.iter().filter(|(_, v)| v.count >= min_count).collect();
        assert_eq!(table.len(), kept.len());
        for (km, v) in kept {
            assert_eq!(table.get(km), Some(v), "k-mer {km}");
        }
    }

    #[test]
    fn counts_both_strands_together() {
        let r1 = read("ACGTA");
        let r2 = Read::with_uniform_qual("r2", r1.seq.revcomp(), 30);
        let map = count_kmers(&[r1, r2], 4, 1);
        // ACGT(c)=ACGT count 2 (one per strand); CGTA canonical count 2.
        let km = Kmer::from_seq(&DnaSeq::from_str_strict("ACGT").unwrap(), 0, 4);
        assert_eq!(map.get(&km.canonical()).unwrap().count, 2);
    }

    #[test]
    fn min_count_filters_singletons() {
        // Chosen so no k-mer is its own (or another's) reverse complement.
        let map = count_kmers(&[read("ACGGTTCAAGT")], 8, 2);
        assert!(map.is_empty(), "all k-mers occur once");
        let map1 = count_kmers(&[read("ACGGTTCAAGT")], 8, 1);
        assert_eq!(map1.len(), 4);
    }

    #[test]
    fn extension_votes_forward() {
        // Read TACGTG: k-mer ACGT at pos 1, left=T right=G.
        let map = count_kmers(&[read("TACGTG"), read("TACGTG")], 4, 1);
        let km = Kmer::from_seq(&DnaSeq::from_str_strict("ACGT").unwrap(), 0, 4).canonical();
        let v = map.get(&km).unwrap();
        // ACGT is canonical (its rc is itself; palindrome), votes may appear
        // on both sides. Check via a non-palindromic k-mer instead.
        assert!(v.count >= 2);
        let km2 = Kmer::from_seq(&DnaSeq::from_str_strict("TACG").unwrap(), 0, 4);
        let canon2 = km2.canonical();
        let v2 = map.get(&canon2).unwrap();
        assert_eq!(v2.count, 2);
        if canon2 == km2 {
            assert_eq!(v2.right[Base::T as usize], 2);
        } else {
            assert_eq!(v2.left[Base::A as usize], 2);
        }
    }

    #[test]
    fn rc_occurrence_votes_coherently() {
        // The same locus seen from both strands must produce identical votes.
        let fwd = read("GGACGTTC");
        let rc = Read::with_uniform_qual("rc", fwd.seq.revcomp(), 30);
        let m_f = count_kmers(&[fwd.clone(), fwd.clone()], 5, 1);
        let m_rc = count_kmers(&[rc.clone(), rc], 5, 1);
        assert_eq!(m_f.len(), m_rc.len());
        for (km, v) in m_f.iter() {
            let v2 = m_rc.get(&km).expect("same canonical k-mers");
            assert_eq!(v, v2, "kmer {km}");
        }
    }

    #[test]
    fn unique_ext_detects_fork() {
        let mut v = VertexCounts::default();
        v.right[0] = 3;
        assert_eq!(v.unique_ext(Side::Right, 2), Some(Base::A));
        v.right[2] = 3;
        assert_eq!(v.unique_ext(Side::Right, 2), None);
        assert_eq!(v.unique_ext(Side::Left, 1), None);
    }

    #[test]
    fn short_reads_ignored() {
        let map = count_kmers(&[read("ACG")], 5, 1);
        assert!(map.is_empty());
    }

    #[test]
    fn large_read_set_matches_oracle() {
        // Enough reads to grow the table through many doublings.
        let mut reads = Vec::new();
        let base = "ACGTTGCAAGCTTGGCATTGCAACGGTTACGATCGATCGGATCCAATTGG";
        for i in 0..2000 {
            let rot = i % 20;
            let s: String = base.chars().cycle().skip(rot).take(30).collect();
            reads.push(read(&s));
        }
        let oracle = oracle_counts(&reads, 11);
        assert_matches_oracle(&count_kmers(&reads, 11, 1), &oracle, 1);
        assert_matches_oracle(&count_kmers(&reads, 11, 40), &oracle, 40);
    }

    /// k-mer lengths at and around the word boundaries, and both ends.
    const ORACLE_KS: [usize; 13] = [1, 2, 15, 16, 31, 32, 33, 63, 64, 65, 99, 127, 128];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `count_kmers` equals the oracle on size and on every k-mer's
        /// count and votes, before and after the `min_count` filter. Reads
        /// are shorter than, as long as and longer than k, drawn from
        /// both strands of one genome so k-mers recur, plus a flanked
        /// palindromic k-mer at even k.
        #[test]
        fn count_kmers_matches_oracle(
            genome in proptest::collection::vec(0u8..4, 400),
            spans in proptest::collection::vec((0usize..150, 0usize..100, any::<bool>()), 1..40),
            half in proptest::collection::vec(0u8..4, 64),
        ) {
            let genome = DnaSeq::from_codes(genome);
            for k in ORACLE_KS {
                let mut reads: Vec<Read> = spans
                    .iter()
                    .map(|&(start, extra, rc)| {
                        let s = genome.subseq(start, (k + extra).saturating_sub(3));
                        Read::with_uniform_qual("r", if rc { s.revcomp() } else { s }, 30)
                    })
                    .collect();
                if k % 2 == 0 {
                    let left = DnaSeq::from_codes(half[..k / 2].to_vec());
                    let mut pal = genome.subseq(0, 3);
                    pal.extend_from(&left);
                    pal.extend_from(&left.revcomp());
                    pal.extend_from(&genome.subseq(3, 3));
                    reads.push(Read::with_uniform_qual("pal", pal.clone(), 30));
                    reads.push(Read::with_uniform_qual("pal", pal, 30));
                }
                let oracle = oracle_counts(&reads, k);
                assert_matches_oracle(&count_kmers(&reads, k, 1), &oracle, 1);
                assert_matches_oracle(&count_kmers(&reads, k, 2), &oracle, 2);
            }
        }
    }

    #[test]
    fn retain_keeps_survivors_and_drops_the_rest() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Random reads seen once, twice or three times.
        let mut rng = StdRng::seed_from_u64(5);
        let mut reads = Vec::new();
        for i in 0..300 {
            let s = DnaSeq::from_codes((0..40).map(|_| rng.gen_range(0..4)).collect());
            for _ in 0..=i % 3 {
                reads.push(Read::with_uniform_qual("r", s.clone(), 30));
            }
        }
        let mut table = count_kmers(&reads, 9, 1);
        let before: Vec<(Kmer, VertexCounts)> = table.iter().map(|(km, v)| (km, *v)).collect();
        let capacity = table.capacity();
        table.retain(|v| v.count >= 3);
        let survivors = before.iter().filter(|(_, v)| v.count >= 3).count();
        assert!(survivors > 0 && survivors < before.len(), "the filter must split the set");
        assert_eq!(table.len(), survivors);
        assert!(table.capacity() < capacity, "the rebuilt table shrinks");
        for (km, v) in &before {
            if v.count >= 3 {
                assert_eq!(table.get(km), Some(v), "survivor {km} lost");
            } else {
                assert_eq!(table.get(km), None, "dropped {km} still present");
            }
        }
    }
}
