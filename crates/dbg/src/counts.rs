//! Canonical k-mer counting with per-side extension votes.

use bioseq::{Base, DnaSeq};
use kmer::hash::{hash_kmer, partition};
use kmer::{CanonicalKmerIter, Kmer, KmerTable};
use rayon::prelude::*;

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
        let votes = match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        };
        let total: u32 = votes.iter().map(|&v| u32::from(v)).sum();
        let mut found = None;
        for b in Base::ALL {
            let v = votes[b as usize];
            if v >= min_votes && u32::from(v) * 10 >= total {
                if found.is_some() {
                    return None; // fork
                }
                found = Some(b);
            }
        }
        found
    }
}

/// Which side of a k-mer an extension is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Bits of each singleton filter per k-mer occurrence in a partition. At
/// the presets' 0.4-0.5 distinct k-mers per occurrence, a word of the
/// first filter holds about three k-mers, and under 1% of singletons pass.
const FILTER_BITS_PER_OCC: usize = 8;

/// Canonical k-mers and their counts, split into hash partitions, each its
/// own [`KmerTable`]. Slot `s` of partition `p` is the global slot
/// `p << shift | s`, so one index addresses every vertex.
#[derive(Debug, Clone)]
pub struct KmerCountMap {
    k: usize,
    parts: Vec<KmerTable<VertexCounts>>,
    /// log2 of the largest partition's slot count.
    shift: u32,
}

impl KmerCountMap {
    fn from_parts(k: usize, parts: Vec<KmerTable<VertexCounts>>) -> KmerCountMap {
        let largest = parts.iter().map(KmerTable::capacity).max().expect("one partition or more");
        KmerCountMap { k, parts, shift: largest.trailing_zeros() }
    }

    /// The k the map was counted at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of k-mers.
    pub fn len(&self) -> usize {
        self.parts.iter().map(KmerTable::len).sum()
    }

    /// True if the map holds no k-mer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global slot of a canonical k-mer, if present.
    #[inline]
    pub(crate) fn slot(&self, canon: &Kmer) -> Option<usize> {
        let p = partition(canon, self.parts.len());
        self.parts[p].slot(canon).map(|s| p << self.shift | s)
    }

    /// The counts of a canonical k-mer, if present.
    pub fn get(&self, canon: &Kmer) -> Option<&VertexCounts> {
        self.slot(canon).map(|slot| self.at(slot))
    }

    /// Number of global slots; every k-mer's slot is below it.
    pub(crate) fn slot_count(&self) -> usize {
        self.parts.len() << self.shift
    }

    /// The partition and its local slot for a global `slot`.
    #[inline]
    fn split(&self, slot: usize) -> (&KmerTable<VertexCounts>, usize) {
        (&self.parts[slot >> self.shift], slot & ((1 << self.shift) - 1))
    }

    /// The counts in an occupied global `slot`.
    #[inline]
    pub(crate) fn at(&self, slot: usize) -> &VertexCounts {
        let (table, s) = self.split(slot);
        table.at(s)
    }

    /// The packed words of the k-mer in an occupied global `slot`; they
    /// order as the k-mers do.
    #[inline]
    pub(crate) fn key_words(&self, slot: usize) -> &[u64] {
        let (table, s) = self.split(slot);
        table.key_words(s)
    }

    /// The k-mer in an occupied global `slot`.
    pub(crate) fn kmer_at(&self, slot: usize) -> Kmer {
        let (table, s) = self.split(slot);
        table.key_at(s)
    }

    /// Every occupied global slot, partition by partition.
    pub(crate) fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.parts
            .iter()
            .enumerate()
            .flat_map(move |(p, table)| table.slots().map(move |s| p << self.shift | s))
    }

    /// Every k-mer with its counts, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, &VertexCounts)> + '_ {
        self.parts.iter().flat_map(KmerTable::iter)
    }
}

/// Count canonical k-mers (and their extension votes) across `seqs`, then
/// drop k-mers with fewer than `min_count` occurrences.
///
/// This is the pipeline's "k-mer analysis" phase: the `min_count = 2`
/// default implements the paper's "filtering out erroneous k-mers (those
/// that occur only once)". The k-mers are split into one hash partition per
/// rayon thread, and each thread counts its own partition over every
/// sequence. With `min_count > 1` it reads the sequences twice. The first
/// pass marks each k-mer in a Bloom filter, and a k-mer already marked
/// there in a second one. The second pass counts exactly the k-mers marked
/// in the second filter, so the table is allocated once and never holds
/// most singletons. The counts are the same at any thread count and any
/// false-positive rate.
pub fn count_kmers<S: AsRef<DnaSeq>>(seqs: &[S], k: usize, min_count: u32) -> KmerCountMap {
    // One non-generic body, compiled (and optimized) in this crate.
    let seqs: Vec<&DnaSeq> = seqs.iter().map(AsRef::as_ref).collect();
    count_seqs(&seqs, k, min_count)
}

fn count_seqs(seqs: &[&DnaSeq], k: usize, min_count: u32) -> KmerCountMap {
    let parts = rayon::current_num_threads();
    let occurrences: usize = seqs.iter().map(|s| (s.len() + 1).saturating_sub(k)).sum();
    let filter_bits = occurrences / parts * FILTER_BITS_PER_OCC;
    let ids: Vec<usize> = (0..parts).collect();
    let tables = ids
        .par_iter()
        .map(|&part| Partition { k, part, parts }.count(seqs, min_count, filter_bits))
        .collect();
    KmerCountMap::from_parts(k, tables)
}

/// Partition `part` of `parts` at one k.
#[derive(Debug, Clone, Copy)]
struct Partition {
    k: usize,
    part: usize,
    parts: usize,
}

impl Partition {
    /// This partition's table: k-mers with at least `min_count`
    /// occurrences, sifted through two singleton filters of `filter_bits`
    /// bits each when `min_count > 1`.
    fn count(
        self,
        seqs: &[&DnaSeq],
        min_count: u32,
        filter_bits: usize,
    ) -> KmerTable<VertexCounts> {
        if min_count <= 1 {
            let mut table = KmerTable::<VertexCounts>::new(self.k);
            self.scan(seqs, |canon, hash, left, right| {
                table.entry_hashed(canon, hash).add(left, right);
            });
            return table;
        }
        // Pass 1: a k-mer whose bits in `once` were already set is a
        // candidate: a repeat, or a false positive that `retain` drops
        // below. `twice` holds the candidates and counts them, so the table
        // is allocated once, at its final size.
        let (mut once, mut twice) = (Bloom::new(filter_bits), Bloom::new(filter_bits));
        let mut candidates = 0;
        self.scan(seqs, |_, hash, _, _| {
            if once.insert(hash) && !twice.insert(hash) {
                candidates += 1;
            }
        });
        drop(once);
        // Pass 2: exact counts and votes, for the candidates only. A few
        // candidates share their bits in `twice` and went uncounted; the
        // margin covers them.
        let mut table =
            KmerTable::<VertexCounts>::with_capacity(self.k, candidates + candidates / 16);
        self.scan(seqs, |canon, hash, left, right| {
            if twice.contains(hash) {
                table.entry_hashed(canon, hash).add(left, right);
            }
        });
        drop(twice);
        table.retain(|v| v.count >= min_count);
        table
    }

    /// Call `visit(canon, hash_kmer(canon), left, right)` for every
    /// occurrence of a canonical k-mer of `seqs` that this partition owns;
    /// `left` and `right` are its neighbours in the canonical orientation.
    fn scan(self, seqs: &[&DnaSeq], mut visit: impl FnMut(&Kmer, u64, Option<Base>, Option<Base>)) {
        let k = self.k;
        // A sequence's occurrences are gathered before any is visited, so
        // the visits' cache misses overlap instead of waiting, one at a
        // time, on the rolling window (about 1.5× faster at k=31).
        let mut owned = Vec::new();
        for seq in seqs {
            owned.clear();
            owned.extend(
                CanonicalKmerIter::new(seq, k)
                    .filter(|(_, canon, _)| partition(canon, self.parts) == self.part)
                    .map(|(pos, canon, fwd)| {
                        let left = (pos > 0).then(|| seq.base(pos - 1));
                        let right = (pos + k < seq.len()).then(|| seq.base(pos + k));
                        if fwd {
                            (canon, left, right)
                        } else {
                            // Reverse-complemented occurrence: neighbours
                            // swap sides and complement.
                            (canon, right.map(Base::complement), left.map(Base::complement))
                        }
                    }),
            );
            for (canon, left, right) in &owned {
                visit(canon, hash_kmer(canon), *left, *right);
            }
        }
    }
}

/// A blocked Bloom filter over k-mer hashes: each key sets two bits of one
/// word, so a test costs one cache miss. The word comes from hash bits 12
/// and up, the bits from bits 0-11.
#[derive(Debug)]
struct Bloom {
    words: Vec<u64>,
}

impl Bloom {
    /// A filter of at least `bits` bits (a power-of-two number of words).
    fn new(bits: usize) -> Bloom {
        Bloom { words: vec![0; bits.div_ceil(64).next_power_of_two()] }
    }

    /// The word and the two bits of `hash`.
    #[inline]
    fn locate(&self, hash: u64) -> (usize, u64) {
        let word = (hash >> 12) as usize & (self.words.len() - 1);
        (word, 1u64 << (hash & 63) | 1u64 << (hash >> 6 & 63))
    }

    /// Set `hash`'s bits; true if they were all set already.
    #[inline]
    fn insert(&mut self, hash: u64) -> bool {
        let (word, bits) = self.locate(hash);
        let seen = self.words[word] & bits == bits;
        self.words[word] |= bits;
        seen
    }

    /// True if `hash`'s bits are all set.
    #[inline]
    fn contains(&self, hash: u64) -> bool {
        let (word, bits) = self.locate(hash);
        self.words[word] & bits == bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bioseq::Read;
    use kmer::KmerIter;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// `op` on a pool of `threads` threads, so `count_kmers` uses that many
    /// partitions.
    fn with_threads<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
    }

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
        let mut table = with_threads(1, || count_kmers(&reads, 9, 1)).parts.remove(0);
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

    /// Reads from both strands of a random genome, a few with one
    /// substitution, so some k-mers are singletons and some repeat.
    fn noisy_reads(genome_len: usize, n: usize, seed: u64) -> Vec<Read> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let genome = DnaSeq::from_codes((0..genome_len).map(|_| rng.gen_range(0..4)).collect());
        (0..n)
            .map(|_| {
                let len = rng.gen_range(100..=150);
                let mut codes =
                    genome.subseq(rng.gen_range(0..genome_len - len), len).codes().to_vec();
                if rng.gen_bool(0.3) {
                    let at = rng.gen_range(0..len);
                    codes[at] ^= rng.gen_range(1..4);
                }
                let s = DnaSeq::from_codes(codes);
                Read::with_uniform_qual("r", if rng.gen_bool(0.5) { s.revcomp() } else { s }, 30)
            })
            .collect()
    }

    #[test]
    fn counts_match_the_oracle_at_1_2_and_4_threads() {
        let reads = noisy_reads(1500, 120, 21);
        for k in [15, 31, 33, 63, 65, 99] {
            let oracle = oracle_counts(&reads, k);
            for threads in [1, 2, 4] {
                for min_count in [1, 2] {
                    let map = with_threads(threads, || count_kmers(&reads, k, min_count));
                    assert_eq!(map.parts.len(), threads, "one partition per thread");
                    assert_matches_oracle(&map, &oracle, min_count);
                }
            }
        }
    }

    #[test]
    fn a_saturated_filter_still_matches_the_oracle() {
        // 64 filter bits: a handful of k-mers set them all, so every later
        // k-mer, singletons included, becomes a candidate.
        let reads = noisy_reads(1000, 60, 4);
        let k = 31;
        let mut filter = Bloom::new(64);
        for read in &reads {
            for (_, canon, _) in CanonicalKmerIter::new(&read.seq, k) {
                filter.insert(hash_kmer(&canon));
            }
        }
        assert_eq!(filter.words, [u64::MAX], "the filter saturates");
        let oracle = oracle_counts(&reads, k);
        let seqs: Vec<&DnaSeq> = reads.iter().map(|r| &r.seq).collect();
        for parts in [1, 2] {
            for min_count in [2, 3] {
                let tables = (0..parts)
                    .map(|part| Partition { k, part, parts }.count(&seqs, min_count, 64))
                    .collect();
                let map = KmerCountMap::from_parts(k, tables);
                assert_matches_oracle(&map, &oracle, min_count);
            }
        }
    }

    #[test]
    fn borrowed_sequences_count_as_reads() {
        // Counting sequences by reference equals counting reads.
        let reads = noisy_reads(800, 40, 9);
        let seqs: Vec<&DnaSeq> = reads.iter().map(|r| &r.seq).collect();
        let oracle = oracle_counts(&reads, 21);
        assert_matches_oracle(&count_kmers(&seqs, 21, 2), &oracle, 2);
    }
}
