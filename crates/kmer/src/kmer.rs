//! Fixed-width packed k-mer type.

use bioseq::{Base, DnaSeq};

/// Maximum supported k. MetaHipMer's iterative assembly uses k up to 99;
/// four 64-bit words give us headroom to 128.
pub const MAX_K: usize = 128;

/// Number of backing words.
pub const KMER_WORDS: usize = MAX_K / 32;

/// A k-mer packed at 2 bits per base, LSB-first (base `i` at bits `2i` of
/// word `i/32`) — the same layout as [`bioseq::PackedSeq`], so a k-mer can be
/// materialized from a packed read window without re-encoding.
///
/// Invariant: bits above position `2k` are zero (needed for `Eq`/`Ord`/hash
/// to be well-defined).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Kmer {
    words: [u64; KMER_WORDS],
    k: u16,
}

impl Kmer {
    /// The k-mer spanning `seq[start .. start+k]`.
    ///
    /// Panics if the window is out of bounds or `k` is 0 or > [`MAX_K`].
    pub fn from_seq(seq: &DnaSeq, start: usize, k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        assert!(start + k <= seq.len(), "k-mer window out of bounds");
        let mut words = [0u64; KMER_WORDS];
        for j in 0..k {
            words[j / 32] |= u64::from(seq.code(start + j)) << ((j % 32) * 2);
        }
        Kmer { words, k: k as u16 }
    }

    /// Construct from pre-packed words (LSB-first 2-bit codes). High bits
    /// beyond `2k` are cleared.
    pub fn from_words(mut words_in: [u64; KMER_WORDS], k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        mask_high(&mut words_in, k);
        Kmer { words: words_in, k: k as u16 }
    }

    /// Construct from a window of a packed word slice (e.g. a packed read in
    /// device memory): bases `[start, start+k)` where base `i` of the slice
    /// lives at word `i/32`, bits `2(i%32)`.
    pub fn from_packed_words(words: &[u64], start: usize, k: usize) -> Kmer {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        let mut out = [0u64; KMER_WORDS];
        for j in 0..k {
            let i = start + j;
            let code = (words[i / 32] >> ((i % 32) * 2)) & 3;
            out[j / 32] |= code << ((j % 32) * 2);
        }
        Kmer { words: out, k: k as u16 }
    }

    /// k (length in bases).
    #[inline]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Backing words (low `2k` bits significant).
    #[inline]
    pub fn words(&self) -> &[u64; KMER_WORDS] {
        &self.words
    }

    /// 2-bit code of base `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        assert!(i < self.k(), "base index out of range");
        ((self.words[i / 32] >> ((i % 32) * 2)) & 3) as u8
    }

    /// Base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.code(i))
    }

    /// The k-mer obtained by dropping the first base and appending `b` —
    /// one step of a rightward mer-walk. Touches the `⌈k/32⌉` words that
    /// carry bases only.
    pub fn shift_right(&self, b: Base) -> Kmer {
        let (k, nwords) = (self.k(), self.k().div_ceil(32));
        let mut words = self.words;
        // Shift the packed value right by one base (2 bits), carrying across
        // word boundaries; bits above 2k stay zero. Then insert the new
        // base at position k-1, in the last word.
        for w in 0..nwords {
            words[w] >>= 2;
            if w + 1 < nwords {
                words[w] |= words[w + 1] << 62;
            }
        }
        words[nwords - 1] |= u64::from(b.code()) << (((k - 1) % 32) * 2);
        Kmer { words, k: self.k }
    }

    /// The k-mer obtained by dropping the last base and prepending `b` —
    /// one step of a leftward mer-walk. Touches the `⌈k/32⌉` words that
    /// carry bases only.
    pub fn shift_left(&self, b: Base) -> Kmer {
        let (k, nwords) = (self.k(), self.k().div_ceil(32));
        let mut words = self.words;
        // Shift left by one base, then drop the base pushed past k-1.
        for w in (0..nwords).rev() {
            words[w] <<= 2;
            if w > 0 {
                words[w] |= words[w - 1] >> 62;
            }
        }
        words[0] |= u64::from(b.code());
        words[nwords - 1] &= u64::MAX >> (64 * nwords - 2 * k);
        Kmer { words, k: self.k }
    }

    /// Reverse complement, in O(words): complement each word, reverse its
    /// 2-bit groups, reverse the word order, then shift the bases down to
    /// position 0 (by `64·⌈k/32⌉ − 2k` bits).
    pub fn revcomp(&self) -> Kmer {
        let k = self.k();
        let nwords = k.div_ceil(32);
        let mut words = [0u64; KMER_WORDS];
        for w in 0..nwords {
            words[nwords - 1 - w] = reverse_groups(!self.words[w]);
        }
        // Fewer than 64 bits: the last word holds at least one base.
        let shift = 64 * nwords - 2 * k;
        if shift > 0 {
            for w in 0..nwords {
                let carry = if w + 1 < nwords { words[w + 1] << (64 - shift) } else { 0 };
                words[w] = (words[w] >> shift) | carry;
            }
        }
        Kmer { words, k: self.k }
    }

    /// Canonical form: the lexicographically smaller of the k-mer and its
    /// reverse complement (comparison over base codes from position 0).
    pub fn canonical(&self) -> Kmer {
        let rc = self.revcomp();
        if self.cmp_bases(&rc) <= std::cmp::Ordering::Equal {
            *self
        } else {
            rc
        }
    }

    /// True if this k-mer equals its own canonical form.
    pub fn is_canonical(&self) -> bool {
        self.cmp_bases(&self.revcomp()) != std::cmp::Ordering::Greater
    }

    /// Lexicographic comparison by base sequence (not by packed words:
    /// LSB-first packing does not preserve lexicographic order), in
    /// O(words): the lowest differing 2-bit group decides.
    pub fn cmp_bases(&self, other: &Kmer) -> std::cmp::Ordering {
        debug_assert_eq!(self.k, other.k);
        for (a, b) in self.words.iter().zip(&other.words) {
            let diff = a ^ b;
            if diff != 0 {
                let at = diff.trailing_zeros() & !1;
                return ((a >> at) & 3).cmp(&((b >> at) & 3));
            }
        }
        std::cmp::Ordering::Equal
    }

    /// Unpack to a `DnaSeq`.
    pub fn to_seq(&self) -> DnaSeq {
        (0..self.k()).map(|i| self.base(i)).collect()
    }
}

impl std::fmt::Display for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", self.base(i))?;
        }
        Ok(())
    }
}

/// `x` with the order of its 32 2-bit groups reversed.
fn reverse_groups(x: u64) -> u64 {
    const PAIRS: u64 = 0x3333_3333_3333_3333;
    const NIBBLES: u64 = 0x0f0f_0f0f_0f0f_0f0f;
    let x = ((x >> 2) & PAIRS) | ((x & PAIRS) << 2);
    let x = ((x >> 4) & NIBBLES) | ((x & NIBBLES) << 4);
    x.swap_bytes()
}

fn mask_high(words: &mut [u64; KMER_WORDS], k: usize) {
    let full_words = (2 * k) / 64;
    let rem_bits = (2 * k) % 64;
    for (w, word) in words.iter_mut().enumerate() {
        if w > full_words || (w == full_words && rem_bits == 0) {
            *word = 0;
        } else if w == full_words {
            *word &= (1u64 << rem_bits) - 1;
        }
    }
}

/// Iterator over the k-mers of a sequence, left to right.
pub struct KmerIter<'a> {
    seq: &'a DnaSeq,
    k: usize,
    pos: usize,
    cur: Option<Kmer>,
}

impl<'a> KmerIter<'a> {
    /// K-mers of `seq`; yields nothing if `seq.len() < k`.
    pub fn new(seq: &'a DnaSeq, k: usize) -> KmerIter<'a> {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        KmerIter { seq, k, pos: 0, cur: None }
    }
}

impl Iterator for KmerIter<'_> {
    /// `(start_position, kmer)`
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.k > self.seq.len() {
            return None;
        }
        let km = match self.cur {
            // Incremental shift is O(words); recomputing would be O(k).
            Some(prev) => prev.shift_right(self.seq.base(self.pos + self.k - 1)),
            None => Kmer::from_seq(self.seq, 0, self.k),
        };
        self.cur = Some(km);
        let at = self.pos;
        self.pos += 1;
        Some((at, km))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.seq.len() + 1).saturating_sub(self.pos + self.k);
        (n, Some(n))
    }
}

/// Iterator over the canonical k-mers of a sequence, left to right.
///
/// It keeps a rolling forward window and a rolling reverse-complement
/// window over the `⌈k/32⌉` words that carry bases, updated in place, so
/// each step costs O(words) rather than the O(k) of [`Kmer::canonical`] on
/// a fresh k-mer.
pub struct CanonicalKmerIter<'a> {
    codes: &'a [u8],
    k: usize,
    nwords: usize,
    /// Start of the next k-mer.
    pos: usize,
    /// The k-mer at `pos - 1`. Before the first step: bases `0..k-1` at
    /// positions `1..k` over a placeholder at position 0, which the first
    /// step drops.
    fwd: [u64; KMER_WORDS],
    /// The reverse complement of `fwd` (before the first step, without the
    /// placeholder).
    rc: [u64; KMER_WORDS],
}

impl<'a> CanonicalKmerIter<'a> {
    /// Canonical k-mers of `seq`; yields nothing if `seq.len() < k`.
    pub fn new(seq: &'a DnaSeq, k: usize) -> CanonicalKmerIter<'a> {
        assert!((1..=MAX_K).contains(&k), "k={k} out of range");
        let codes = seq.codes();
        let mut it = CanonicalKmerIter {
            codes,
            k,
            nwords: k.div_ceil(32),
            pos: 0,
            fwd: [0; KMER_WORDS],
            rc: [0; KMER_WORDS],
        };
        // Base j at forward position j+1, complemented at rc position k-2-j.
        for (j, &c) in codes.iter().take(k - 1).enumerate() {
            let (f, r) = (j + 1, k - 2 - j);
            it.fwd[f / 32] |= u64::from(c) << ((f % 32) * 2);
            it.rc[r / 32] |= u64::from(3 - c) << ((r % 32) * 2);
        }
        it
    }
}

impl Iterator for CanonicalKmerIter<'_> {
    /// `(start_position, canonical kmer, fwd)`, where `fwd` is true when the
    /// forward k-mer is the canonical one (ties, i.e. palindromes, included).
    type Item = (usize, Kmer, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &c = self.codes.get(self.pos + self.k - 1)?;
        let (fwd, rc, k) = (&mut self.fwd, &mut self.rc, self.k);
        // One instance per word count, so each loop unrolls.
        let is_fwd = match self.nwords {
            1 => roll::<1>(fwd, rc, k, c),
            2 => roll::<2>(fwd, rc, k, c),
            3 => roll::<3>(fwd, rc, k, c),
            _ => roll::<4>(fwd, rc, k, c),
        };
        let at = self.pos;
        self.pos += 1;
        let words = if is_fwd { *fwd } else { *rc };
        Some((at, Kmer { words, k: k as u16 }, is_fwd))
    }
}

/// Roll a k-mer window of `N` words and its reverse complement one base
/// on, appending `code`; true if the forward k-mer is canonical (sorts no
/// later than its reverse complement by bases).
#[inline(always)]
fn roll<const N: usize>(
    fwd: &mut [u64; KMER_WORDS],
    rc: &mut [u64; KMER_WORDS],
    k: usize,
    code: u8,
) -> bool {
    // Forward: drop the first base, append `code` at position k-1.
    for w in 0..N {
        fwd[w] >>= 2;
        if w + 1 < N {
            fwd[w] |= fwd[w + 1] << 62;
        }
    }
    // Position k-1 lies in word N-1, as N = ⌈k/32⌉.
    fwd[N - 1] |= u64::from(code) << (((k - 1) % 32) * 2);
    // Reverse complement: drop the last base, prepend the complement.
    for w in (0..N).rev() {
        rc[w] <<= 2;
        if w > 0 {
            rc[w] |= rc[w - 1] >> 62;
        }
    }
    rc[0] |= u64::from(3 - code);
    rc[N - 1] &= u64::MAX >> (64 * N - 2 * k);
    // As `Kmer::cmp_bases`: the lowest differing base decides.
    for w in 0..N {
        let diff = fwd[w] ^ rc[w];
        if diff != 0 {
            let at = diff.trailing_zeros() & !1;
            return (fwd[w] >> at) & 3 < (rc[w] >> at) & 3;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seq(s: &str) -> DnaSeq {
        DnaSeq::from_str_strict(s).unwrap()
    }

    #[test]
    fn from_seq_and_display() {
        let km = Kmer::from_seq(&seq("ACGTACGT"), 1, 5);
        assert_eq!(km.to_string(), "CGTAC");
        assert_eq!(km.k(), 5);
    }

    #[test]
    fn shift_right_walks() {
        let km = Kmer::from_seq(&seq("ACGTA"), 0, 4); // ACGT
        let next = km.shift_right(Base::A);
        assert_eq!(next.to_string(), "CGTA");
    }

    #[test]
    fn shift_left_walks() {
        let km = Kmer::from_seq(&seq("ACGT"), 0, 4);
        let prev = km.shift_left(Base::T);
        assert_eq!(prev.to_string(), "TACG");
    }

    #[test]
    fn shift_crosses_word_boundary() {
        // k=40 spans two words.
        let s: DnaSeq = (0..41).map(|i| Base::from_code((i % 4) as u8)).collect();
        let km = Kmer::from_seq(&s, 0, 40);
        let shifted = km.shift_right(s.base(40));
        let direct = Kmer::from_seq(&s, 1, 40);
        assert_eq!(shifted, direct);
    }

    #[test]
    fn revcomp_known() {
        let km = Kmer::from_seq(&seq("AACGT"), 0, 5);
        assert_eq!(km.revcomp().to_string(), "ACGTT");
    }

    #[test]
    fn canonical_picks_smaller() {
        let km = Kmer::from_seq(&seq("TTTT"), 0, 4);
        assert_eq!(km.canonical().to_string(), "AAAA");
        let km2 = Kmer::from_seq(&seq("AAAA"), 0, 4);
        assert_eq!(km2.canonical().to_string(), "AAAA");
    }

    #[test]
    fn kmer_iter_yields_all() {
        let s = seq("ACGTAC");
        let kmers: Vec<String> = KmerIter::new(&s, 4).map(|(_, k)| k.to_string()).collect();
        assert_eq!(kmers, vec!["ACGT", "CGTA", "GTAC"]);
    }

    #[test]
    fn kmer_iter_short_seq_empty() {
        let s = seq("ACG");
        assert_eq!(KmerIter::new(&s, 4).count(), 0);
    }

    #[test]
    fn from_packed_words_matches() {
        let s: DnaSeq = (0..100).map(|i| Base::from_code(((i * 7) % 4) as u8)).collect();
        let packed = bioseq::PackedSeq::from_seq(&s);
        for start in [0usize, 5, 31, 32, 33, 50] {
            let a = Kmer::from_packed_words(packed.words(), start, 33);
            let b = Kmer::from_seq(&s, start, 33);
            assert_eq!(a, b, "start={start}");
        }
    }

    fn arb_kseq(k: usize, extra: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, k + extra..k + extra + 1).prop_map(DnaSeq::from_codes)
    }

    /// Base-by-base reverse complement: the oracle for [`Kmer::revcomp`].
    fn revcomp_oracle(km: &Kmer) -> Kmer {
        let k = km.k();
        let mut words = [0u64; KMER_WORDS];
        for i in 0..k {
            let j = k - 1 - i;
            words[j / 32] |= u64::from(km.code(i) ^ 3) << ((j % 32) * 2);
        }
        Kmer::from_words(words, k)
    }

    /// Base-by-base comparison: the oracle for [`Kmer::cmp_bases`].
    fn cmp_bases_oracle(a: &Kmer, b: &Kmer) -> std::cmp::Ordering {
        (0..a.k())
            .map(|i| a.code(i).cmp(&b.code(i)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    proptest! {
        #[test]
        fn revcomp_matches_oracle(codes in proptest::collection::vec(0u8..4, MAX_K)) {
            let s = DnaSeq::from_codes(codes);
            for k in 1..=MAX_K {
                let km = Kmer::from_seq(&s, 0, k);
                prop_assert_eq!(km.revcomp(), revcomp_oracle(&km), "k={}", k);
            }
        }

        #[test]
        fn cmp_bases_matches_oracle(
            a in proptest::collection::vec(0u8..4, MAX_K),
            b in proptest::collection::vec(0u8..4, MAX_K),
            at in 0..MAX_K,
            flip in 1u8..4,
        ) {
            // `near` differs from `a` in one base only.
            let mut near = a.clone();
            near[at] ^= flip;
            let (a, b, near) =
                (DnaSeq::from_codes(a), DnaSeq::from_codes(b), DnaSeq::from_codes(near));
            for k in 1..=MAX_K {
                let ka = Kmer::from_seq(&a, 0, k);
                for other in [Kmer::from_seq(&b, 0, k), Kmer::from_seq(&near, 0, k), ka, ka.revcomp()] {
                    prop_assert_eq!(ka.cmp_bases(&other), cmp_bases_oracle(&ka, &other), "k={}", k);
                }
            }
        }

        #[test]
        fn canonical_iter_matches_canonical(
            codes in proptest::collection::vec(0u8..4, 0..MAX_K + 40),
        ) {
            let s = DnaSeq::from_codes(codes);
            for k in 1..=MAX_K {
                let got: Vec<(usize, Kmer, bool)> = CanonicalKmerIter::new(&s, k).collect();
                let want: Vec<(usize, Kmer, bool)> = KmerIter::new(&s, k)
                    .map(|(pos, km)| (pos, km.canonical(), km.is_canonical()))
                    .collect();
                prop_assert_eq!(got, want, "k={}", k);
            }
        }

        #[test]
        fn iter_matches_direct(codes in proptest::collection::vec(0u8..4, 21..120)) {
            let s = DnaSeq::from_codes(codes);
            let k = 21;
            for (pos, km) in KmerIter::new(&s, k) {
                prop_assert_eq!(km, Kmer::from_seq(&s, pos, k));
            }
        }

        #[test]
        fn revcomp_involution(k in 1usize..=64, seed in any::<u64>()) {
            let s: DnaSeq = (0..k).map(|i| {
                Base::from_code(((seed >> ((i % 29) * 2)) & 3) as u8)
            }).collect();
            let km = Kmer::from_seq(&s, 0, k);
            prop_assert_eq!(km.revcomp().revcomp(), km);
        }

        #[test]
        fn canonical_idempotent(s in arb_kseq(33, 0)) {
            let km = Kmer::from_seq(&s, 0, 33);
            let c = km.canonical();
            prop_assert_eq!(c.canonical(), c);
            prop_assert!(c.is_canonical());
        }

        #[test]
        fn canonical_same_for_rc(s in arb_kseq(33, 0)) {
            let km = Kmer::from_seq(&s, 0, 33);
            prop_assert_eq!(km.canonical(), km.revcomp().canonical());
        }

        #[test]
        fn shift_right_equals_from_seq(s in arb_kseq(55, 1)) {
            let km = Kmer::from_seq(&s, 0, 55);
            let next = km.shift_right(s.base(55));
            prop_assert_eq!(next, Kmer::from_seq(&s, 1, 55));
        }

        #[test]
        fn shift_left_inverts_shift_right(s in arb_kseq(40, 1)) {
            let km = Kmer::from_seq(&s, 0, 40);
            let next = km.shift_right(s.base(40));
            let back = next.shift_left(s.base(0));
            prop_assert_eq!(back, km);
        }

        #[test]
        fn to_seq_round_trip(s in arb_kseq(77, 0)) {
            let km = Kmer::from_seq(&s, 0, 77);
            prop_assert_eq!(km.to_seq(), s);
        }
    }
}
