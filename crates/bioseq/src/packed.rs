//! 2-bit-packed DNA storage, word-addressable for the GPU simulator.
//!
//! [`PackedSeq`] stores 32 bases per `u64` word, least-significant pair
//! first. The word layout is part of the public contract: the GPU local
//! assembly keeps reads in device memory in exactly this layout and loads
//! them as whole 64-bit words, so coalescing analysis in `gpusim` sees the
//! real addresses.

use crate::base::Base;
use crate::seq::DnaSeq;

/// Bases per 64-bit word.
pub const BASES_PER_WORD: usize = 32;

/// A DNA sequence packed at 2 bits per base into `u64` words.
///
/// Base `i` lives in word `i / 32`, bit offset `2 * (i % 32)`,
/// least-significant bits first. Unused high bits of the last word are zero
/// (an invariant maintained by all mutators, relied on by `PartialEq`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
}

impl PackedSeq {
    /// Empty sequence.
    pub fn new() -> PackedSeq {
        PackedSeq { words: Vec::new(), len: 0 }
    }

    /// Pack an unpacked sequence.
    pub fn from_seq(seq: &DnaSeq) -> PackedSeq {
        let mut p = PackedSeq::with_capacity(seq.len());
        for i in 0..seq.len() {
            p.push_code(seq.code(i));
        }
        p
    }

    /// Empty sequence with capacity for `cap` bases.
    pub fn with_capacity(cap: usize) -> PackedSeq {
        PackedSeq { words: Vec::with_capacity(cap.div_ceil(BASES_PER_WORD)), len: 0 }
    }

    /// Length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bases are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Backing words (layout documented on the type).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Append a 2-bit code (masked).
    pub fn push_code(&mut self, code: u8) {
        let code = u64::from(code & 3);
        let word = self.len / BASES_PER_WORD;
        let off = (self.len % BASES_PER_WORD) * 2;
        if word == self.words.len() {
            self.words.push(0);
        }
        self.words[word] |= code << off;
        self.len += 1;
    }

    /// Append a base.
    pub fn push(&mut self, b: Base) {
        self.push_code(b.code());
    }

    /// 2-bit code at position `i`. Panics if out of bounds.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let word = self.words[i / BASES_PER_WORD];
        ((word >> ((i % BASES_PER_WORD) * 2)) & 3) as u8
    }

    /// Base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.code(i))
    }

    /// Unpack to a `DnaSeq`.
    pub fn unpack(&self) -> DnaSeq {
        let mut codes = Vec::with_capacity(self.len);
        for i in 0..self.len {
            codes.push(self.code(i));
        }
        DnaSeq::from_codes(codes)
    }

    /// Extract `k` consecutive 2-bit codes starting at `start` into the low
    /// bits of up to `ceil(k/32)` words (same packing as the sequence, but
    /// shifted to start at bit 0). Used by the GPU kernels to materialize a
    /// k-mer from a packed read with a handful of word loads.
    pub fn extract_window(&self, start: usize, k: usize) -> Vec<u64> {
        assert!(start + k <= self.len, "window out of bounds");
        let mut out = vec![0u64; k.div_ceil(BASES_PER_WORD)];
        for j in 0..k {
            let c = u64::from(self.code(start + j));
            out[j / BASES_PER_WORD] |= c << ((j % BASES_PER_WORD) * 2);
        }
        out
    }
}

impl FromIterator<Base> for PackedSeq {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> PackedSeq {
        let mut p = PackedSeq::new();
        for b in iter {
            p.push(b);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_known() {
        let s = DnaSeq::from_str_strict("ACGTTGCA").unwrap();
        let p = PackedSeq::from_seq(&s);
        assert_eq!(p.len(), 8);
        assert_eq!(p.num_words(), 1);
        assert_eq!(p.unpack(), s);
    }

    #[test]
    fn crosses_word_boundary() {
        let s: DnaSeq = (0..100).map(|i| Base::from_code((i % 4) as u8)).collect();
        let p = PackedSeq::from_seq(&s);
        assert_eq!(p.num_words(), 4);
        for i in 0..100 {
            assert_eq!(p.code(i), s.code(i));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let p = PackedSeq::from_seq(&DnaSeq::from_str_strict("ACGT").unwrap());
        p.code(4);
    }

    #[test]
    fn extract_window_basic() {
        let s = DnaSeq::from_str_strict("ACGTACGTACGT").unwrap();
        let p = PackedSeq::from_seq(&s);
        let w = p.extract_window(2, 4); // GTAC
        assert_eq!(w.len(), 1);
        assert_eq!(w[0] & 0xff, 0b01_00_11_10); // A=00 C=01 G=10 T=11, LSB first
    }

    fn arb_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, 0..max_len).prop_map(DnaSeq::from_codes)
    }

    proptest! {
        #[test]
        fn round_trip(s in arb_seq(300)) {
            let p = PackedSeq::from_seq(&s);
            prop_assert_eq!(p.unpack(), s);
        }

        #[test]
        fn random_access_matches(s in arb_seq(300), idx in 0usize..300) {
            let p = PackedSeq::from_seq(&s);
            if idx < s.len() {
                prop_assert_eq!(p.code(idx), s.code(idx));
            }
        }

        #[test]
        fn window_matches_subseq(s in arb_seq(300), start in 0usize..100, k in 1usize..80) {
            if start + k <= s.len() {
                let p = PackedSeq::from_seq(&s);
                let w = p.extract_window(start, k);
                // Rebuild and compare against subseq.
                let mut rebuilt = DnaSeq::with_capacity(k);
                for j in 0..k {
                    rebuilt.push_code(((w[j / BASES_PER_WORD] >> ((j % BASES_PER_WORD) * 2)) & 3) as u8);
                }
                prop_assert_eq!(rebuilt, s.subseq(start, k));
            }
        }

        #[test]
        fn equal_content_equal_packed(s in arb_seq(300)) {
            let p1 = PackedSeq::from_seq(&s);
            let p2: PackedSeq = s.iter().collect();
            prop_assert_eq!(p1, p2);
        }
    }
}
