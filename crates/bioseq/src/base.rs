//! Single-nucleotide type with the canonical 2-bit encoding.

/// A single DNA nucleotide.
///
/// The discriminants are the standard 2-bit codes (`A=0, C=1, G=2, T=3`),
/// chosen so that complementation is `code ^ 3`:
///
/// ```
/// use bioseq::Base;
/// assert_eq!(Base::A.complement(), Base::T);
/// assert_eq!(Base::C.complement(), Base::G);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Base {
    A = 0,
    C = 1,
    G = 2,
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Construct from a 2-bit code. Panics if `code > 3`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            3 => Base::T,
            _ => unreachable!(),
        }
    }

    /// The 2-bit code of this base.
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parse an ASCII nucleotide (case-insensitive). Returns `None` for
    /// anything outside `ACGTacgt` (including `N`).
    #[inline]
    pub fn from_ascii(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    /// Upper-case ASCII representation.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        const LUT: [u8; 4] = [b'A', b'C', b'G', b'T'];
        LUT[self as usize]
    }

    /// Watson–Crick complement (`A<->T`, `C<->G`).
    #[inline]
    pub fn complement(self) -> Base {
        Base::from_code(self.code() ^ 3)
    }
}

impl std::fmt::Display for Base {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in 0..4u8 {
            assert_eq!(Base::from_code(code).code(), code);
        }
    }

    #[test]
    fn ascii_round_trip() {
        for &b in &Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
            assert_eq!(Base::from_ascii(b.to_ascii().to_ascii_lowercase()), Some(b));
        }
    }

    #[test]
    fn rejects_non_acgt() {
        for ch in [b'N', b'n', b'X', b'-', b' ', 0u8] {
            assert_eq!(Base::from_ascii(ch), None);
        }
    }

    #[test]
    fn complement_is_involution() {
        for &b in &Base::ALL {
            assert_eq!(b.complement().complement(), b);
            assert_ne!(b.complement(), b);
        }
    }

    #[test]
    fn complement_pairs() {
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::T.complement(), Base::A);
        assert_eq!(Base::C.complement(), Base::G);
        assert_eq!(Base::G.complement(), Base::C);
    }
}
