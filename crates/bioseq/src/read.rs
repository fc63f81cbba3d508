//! Sequencing reads: sequence + per-base quality, optionally paired.

use crate::qual::QualScore;
use crate::seq::DnaSeq;

/// A single sequencing read.
///
/// `quals` always has the same length as `seq`; constructors enforce this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    /// Read identifier (FASTQ header without the leading `@`).
    pub id: String,
    /// The called bases.
    pub seq: DnaSeq,
    /// Raw Phred scores, one per base.
    pub quals: Vec<QualScore>,
}

impl Read {
    /// Construct a read, checking the length invariant.
    ///
    /// Panics if `quals.len() != seq.len()`.
    pub fn new(id: impl Into<String>, seq: DnaSeq, quals: Vec<QualScore>) -> Read {
        assert_eq!(seq.len(), quals.len(), "seq/qual length mismatch");
        Read { id: id.into(), seq, quals }
    }

    /// Construct with a uniform quality score.
    pub fn with_uniform_qual(id: impl Into<String>, seq: DnaSeq, q: QualScore) -> Read {
        let quals = vec![q; seq.len()];
        Read { id: id.into(), seq, quals }
    }

    /// Read length in bases.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True for a zero-length read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Reverse complement: sequence is reverse-complemented and qualities
    /// reversed, preserving the base↔quality association.
    pub fn revcomp(&self) -> Read {
        let mut quals = self.quals.clone();
        quals.reverse();
        Read { id: self.id.clone(), seq: self.seq.revcomp(), quals }
    }

    /// Mean Phred quality (0 for an empty read).
    pub fn mean_qual(&self) -> f64 {
        if self.quals.is_empty() {
            return 0.0;
        }
        self.quals.iter().map(|&q| f64::from(q)).sum::<f64>() / self.quals.len() as f64
    }
}

/// A paired-end read (two mates sequenced from the ends of one fragment;
/// mate 2 is on the opposite strand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairedRead {
    pub r1: Read,
    pub r2: Read,
    /// Outer distance between the 5' ends of the mates on the source
    /// fragment, when known (used by scaffolding).
    pub insert_size: Option<u32>,
}

/// A read's bases, for code that only reads bases (k-mer counting).
impl AsRef<DnaSeq> for Read {
    fn as_ref(&self) -> &DnaSeq {
        &self.seq
    }
}

impl PairedRead {
    pub fn new(r1: Read, r2: Read) -> PairedRead {
        PairedRead { r1, r2, insert_size: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(seq: &str, quals: &[u8]) -> Read {
        Read::new("r", DnaSeq::from_str_strict(seq).unwrap(), quals.to_vec())
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_quals_panic() {
        mk("ACGT", &[30, 30]);
    }

    #[test]
    fn revcomp_reverses_quals() {
        let r = mk("ACGT", &[10, 20, 30, 40]);
        let rc = r.revcomp();
        assert_eq!(rc.seq.to_string(), "ACGT"); // ACGT is its own revcomp
        assert_eq!(rc.quals, vec![40, 30, 20, 10]);
    }

    #[test]
    fn revcomp_is_involution() {
        let r = mk("AACCGGTT", &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(r.revcomp().revcomp(), r);
    }

    #[test]
    fn mean_qual() {
        let r = mk("ACGT", &[10, 20, 30, 40]);
        assert!((r.mean_qual() - 25.0).abs() < 1e-12);
        let e = Read::with_uniform_qual("e", DnaSeq::new(), 30);
        assert_eq!(e.mean_qual(), 0.0);
    }
}
