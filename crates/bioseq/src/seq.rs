//! Unpacked DNA sequence: one 2-bit code per byte.
//!
//! [`DnaSeq`] trades memory for speed: every base occupies a full byte so the
//! hot inner loops of k-mer extraction and mer-walking index it directly with
//! no shifting. Use [`crate::PackedSeq`] where footprint matters.

use crate::base::Base;

/// A DNA sequence stored as one 2-bit code (`0..=3`) per byte.
///
/// Invariant: every byte of the backing vector is `< 4`. All constructors
/// uphold this; `from_codes_unchecked` is the only way around it and is
/// `pub(crate)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// Empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq { codes: Vec::new() }
    }

    /// Empty sequence with reserved capacity.
    pub fn with_capacity(cap: usize) -> DnaSeq {
        DnaSeq { codes: Vec::with_capacity(cap) }
    }

    /// Parse from ASCII (`ACGT`, case-insensitive). Returns `None` if any
    /// character is not a concrete nucleotide.
    pub fn from_ascii(s: &[u8]) -> Option<DnaSeq> {
        let mut codes = Vec::with_capacity(s.len());
        for &ch in s {
            codes.push(Base::from_ascii(ch)?.code());
        }
        Some(DnaSeq { codes })
    }

    /// Parse from a `&str` of `ACGT`.
    pub fn from_str_strict(s: &str) -> Option<DnaSeq> {
        Self::from_ascii(s.as_bytes())
    }

    /// Build from raw 2-bit codes; any byte `>= 4` is masked to 2 bits.
    pub fn from_codes(codes: Vec<u8>) -> DnaSeq {
        let codes = codes.into_iter().map(|c| c & 3).collect();
        DnaSeq { codes }
    }

    /// Length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if the sequence has no bases.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The 2-bit code at position `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u8 {
        self.codes[i]
    }

    /// The base at position `i`.
    #[inline]
    pub fn base(&self, i: usize) -> Base {
        Base::from_code(self.codes[i])
    }

    /// Raw code slice (every byte `< 4`).
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Append a base.
    #[inline]
    pub fn push(&mut self, b: Base) {
        self.codes.push(b.code());
    }

    /// Append a raw code (masked to 2 bits).
    #[inline]
    pub fn push_code(&mut self, c: u8) {
        self.codes.push(c & 3);
    }

    /// Append all bases of `other`.
    pub fn extend_from(&mut self, other: &DnaSeq) {
        self.codes.extend_from_slice(&other.codes);
    }

    /// Sub-sequence `[start, start+len)` as a new `DnaSeq`.
    pub fn subseq(&self, start: usize, len: usize) -> DnaSeq {
        DnaSeq { codes: self.codes[start..start + len].to_vec() }
    }

    /// Iterator over bases.
    pub fn iter(&self) -> impl Iterator<Item = Base> + '_ {
        self.codes.iter().map(|&c| Base::from_code(c))
    }

    /// Reverse complement as a new sequence.
    pub fn revcomp(&self) -> DnaSeq {
        DnaSeq { codes: self.codes.iter().rev().map(|&c| c ^ 3).collect() }
    }

    /// Reverse-complement in place.
    pub fn revcomp_in_place(&mut self) {
        self.codes.reverse();
        for c in &mut self.codes {
            *c ^= 3;
        }
    }

    /// ASCII rendering (`ACGT`).
    pub fn to_ascii(&self) -> Vec<u8> {
        self.codes.iter().map(|&c| Base::from_code(c).to_ascii()).collect()
    }

    /// Truncate to `len` bases.
    pub fn truncate(&mut self, len: usize) {
        self.codes.truncate(len);
    }

    /// True if `other` appears as a contiguous sub-sequence of `self`.
    pub fn contains(&self, other: &DnaSeq) -> bool {
        if other.is_empty() {
            return true;
        }
        self.codes.windows(other.len()).any(|w| w == other.codes.as_slice())
    }

    /// Hamming distance to another sequence of equal length.
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &DnaSeq) -> usize {
        assert_eq!(self.len(), other.len(), "hamming requires equal lengths");
        self.codes.iter().zip(&other.codes).filter(|(a, b)| a != b).count()
    }
}

/// Lets code that only reads bases take sequences and reads alike.
impl AsRef<DnaSeq> for DnaSeq {
    fn as_ref(&self) -> &DnaSeq {
        self
    }
}

impl std::fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Base> for DnaSeq {
    fn from_iter<T: IntoIterator<Item = Base>>(iter: T) -> DnaSeq {
        DnaSeq { codes: iter.into_iter().map(|b| b.code()).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_render() {
        let s = DnaSeq::from_str_strict("ACGTacgt").unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn parse_rejects_n() {
        assert!(DnaSeq::from_str_strict("ACGNT").is_none());
    }

    #[test]
    fn revcomp_known() {
        let s = DnaSeq::from_str_strict("AACGT").unwrap();
        assert_eq!(s.revcomp().to_string(), "ACGTT");
    }

    #[test]
    fn subseq_and_contains() {
        let s = DnaSeq::from_str_strict("ACGTACGT").unwrap();
        let sub = s.subseq(2, 4);
        assert_eq!(sub.to_string(), "GTAC");
        assert!(s.contains(&sub));
        assert!(!s.contains(&DnaSeq::from_str_strict("TTTT").unwrap()));
    }

    #[test]
    fn hamming_distance() {
        let a = DnaSeq::from_str_strict("ACGT").unwrap();
        let b = DnaSeq::from_str_strict("ACCA").unwrap();
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.hamming(&a), 0);
    }

    #[test]
    fn empty_contains_empty() {
        let e = DnaSeq::new();
        assert!(e.contains(&DnaSeq::new()));
        assert!(DnaSeq::from_str_strict("A").unwrap().contains(&e));
    }

    fn arb_seq(max_len: usize) -> impl Strategy<Value = DnaSeq> {
        proptest::collection::vec(0u8..4, 0..max_len).prop_map(DnaSeq::from_codes)
    }

    proptest! {
        #[test]
        fn revcomp_is_involution(s in arb_seq(200)) {
            prop_assert_eq!(s.revcomp().revcomp(), s);
        }

        #[test]
        fn revcomp_preserves_len(s in arb_seq(200)) {
            prop_assert_eq!(s.revcomp().len(), s.len());
        }

        #[test]
        fn ascii_round_trip(s in arb_seq(200)) {
            let ascii = s.to_ascii();
            prop_assert_eq!(DnaSeq::from_ascii(&ascii).unwrap(), s);
        }

        #[test]
        fn in_place_matches_functional(s in arb_seq(200)) {
            let mut t = s.clone();
            t.revcomp_in_place();
            prop_assert_eq!(t, s.revcomp());
        }
    }
}
