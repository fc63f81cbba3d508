//! FASTQ and FASTA parsing / writing.
//!
//! Parsing is line-oriented and allocation-light (a workhorse `String` per
//! record field). Reads containing `N` or other ambiguity codes are handled
//! per [`NPolicy`]: metagenome assemblers either drop such reads or split
//! them; MetaHipMer2 effectively ignores k-mers containing `N`, which at our
//! scale is well-approximated by dropping the read (the default) or
//! substituting a fixed base (useful for tests).

use crate::qual;
use crate::read::{PairedRead, Read};
use crate::seq::DnaSeq;
use std::borrow::Borrow;
use std::fmt::Display;
use std::io::{self, BufRead, Write};

/// What to do with reads whose sequence contains non-ACGT characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NPolicy {
    /// Skip the whole read (MetaHipMer-like behaviour at k-mer level).
    #[default]
    Drop,
    /// Replace each ambiguous character with `A` at quality 0.
    SubstituteA,
    /// Return an error.
    Error,
}

/// How strictly to treat structurally malformed FASTQ records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParseMode {
    /// Any malformed record aborts the parse.
    #[default]
    Strict,
    /// Skip malformed records — bad header, missing `+`, quality/sequence
    /// length mismatch, truncation — count them, and resynchronize at the
    /// next `@` header. I/O errors still abort.
    Lenient,
}

/// Per-parse bookkeeping returned by [`parse_fastq_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastqParseStats {
    /// Records dropped by [`NPolicy::Drop`] (ambiguous bases).
    pub dropped_ambiguous: usize,
    /// Structurally malformed records skipped ([`ParseMode::Lenient`]).
    pub skipped_malformed: usize,
}

/// FASTQ parse error.
#[derive(Debug)]
pub enum ParseError {
    Io(io::Error),
    /// Malformed record; the message includes the line number.
    Format(String),
    /// An ambiguous base was found and the policy is [`NPolicy::Error`].
    AmbiguousBase {
        record: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "I/O error: {e}"),
            ParseError::Format(m) => write!(f, "malformed FASTQ: {m}"),
            ParseError::AmbiguousBase { record } => {
                write!(f, "ambiguous base in record {record}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parse all records from a FASTQ stream (strict mode).
///
/// Returns the parsed reads plus the number of records dropped by the
/// `NPolicy::Drop` policy.
pub fn parse_fastq<R: BufRead>(
    reader: R,
    policy: NPolicy,
) -> Result<(Vec<Read>, usize), ParseError> {
    let (reads, stats) = parse_fastq_with(reader, policy, ParseMode::Strict)?;
    Ok((reads, stats.dropped_ambiguous))
}

/// Parse all records from a FASTQ stream with an explicit [`ParseMode`].
///
/// In [`ParseMode::Lenient`], malformed records are skipped (counted in
/// [`FastqParseStats::skipped_malformed`]) and the parser resynchronizes at
/// the next `@` header, so one corrupt record never takes a whole lane's
/// worth of reads with it. [`NPolicy::Error`] violations and I/O errors
/// abort in either mode.
pub fn parse_fastq_with<R: BufRead>(
    reader: R,
    policy: NPolicy,
    mode: ParseMode,
) -> Result<(Vec<Read>, FastqParseStats), ParseError> {
    let mut reads = Vec::new();
    let mut stats = FastqParseStats::default();
    let mut lines = reader.lines();
    let mut lineno = 0usize;
    // A header found while resynchronizing after a malformed record.
    let mut pending: Option<String> = None;
    'records: loop {
        let header = if let Some(h) = pending.take() {
            h
        } else {
            match lines.next() {
                None => break,
                Some(h) => {
                    lineno += 1;
                    h?
                }
            }
        };
        if header.is_empty() {
            continue;
        }
        // One malformed record = one skip: count it, then scan forward to
        // the next header.
        let skip_and_resync = |lines: &mut std::io::Lines<R>,
                               lineno: &mut usize,
                               stats: &mut FastqParseStats|
         -> Result<Option<String>, ParseError> {
            stats.skipped_malformed += 1;
            for line in lines.by_ref() {
                *lineno += 1;
                let line = line?;
                if line.starts_with('@') {
                    return Ok(Some(line));
                }
            }
            Ok(None)
        };
        if !header.starts_with('@') {
            match mode {
                ParseMode::Strict => {
                    return Err(ParseError::Format(format!(
                        "line {lineno}: expected '@', got {:?}",
                        header.chars().next()
                    )))
                }
                ParseMode::Lenient => {
                    match skip_and_resync(&mut lines, &mut lineno, &mut stats)? {
                        Some(h) => pending = Some(h),
                        None => break,
                    }
                    continue 'records;
                }
            }
        }
        let id = header[1..].split_whitespace().next().unwrap_or("").to_string();
        let body = (|| -> Result<(String, String), ParseError> {
            let seq_line = next_line(&mut lines, &mut lineno)?;
            let plus = next_line(&mut lines, &mut lineno)?;
            if !plus.starts_with('+') {
                return Err(ParseError::Format(format!("line {lineno}: expected '+'")));
            }
            let qual_line = next_line(&mut lines, &mut lineno)?;
            if qual_line.len() != seq_line.len() {
                return Err(ParseError::Format(format!(
                    "line {lineno}: quality length {} != sequence length {}",
                    qual_line.len(),
                    seq_line.len()
                )));
            }
            Ok((seq_line, qual_line))
        })();
        match body {
            Ok((seq_line, qual_line)) => {
                match record_to_read(&id, seq_line.as_bytes(), qual_line.as_bytes(), policy)? {
                    Some(r) => reads.push(r),
                    None => stats.dropped_ambiguous += 1,
                }
            }
            Err(e @ ParseError::Io(_)) => return Err(e),
            Err(e) => match mode {
                ParseMode::Strict => return Err(e),
                ParseMode::Lenient => match skip_and_resync(&mut lines, &mut lineno, &mut stats)? {
                    Some(h) => pending = Some(h),
                    None => break,
                },
            },
        }
    }
    Ok((reads, stats))
}

fn next_line(
    lines: &mut std::io::Lines<impl BufRead>,
    lineno: &mut usize,
) -> Result<String, ParseError> {
    *lineno += 1;
    lines
        .next()
        .ok_or_else(|| ParseError::Format(format!("line {lineno}: unexpected end of file")))?
        .map_err(ParseError::Io)
}

fn record_to_read(
    id: &str,
    seq: &[u8],
    quals_ascii: &[u8],
    policy: NPolicy,
) -> Result<Option<Read>, ParseError> {
    let mut codes = Vec::with_capacity(seq.len());
    let mut quals = Vec::with_capacity(seq.len());
    for (&ch, &qa) in seq.iter().zip(quals_ascii) {
        match crate::base::Base::from_ascii(ch) {
            Some(b) => {
                codes.push(b.code());
                quals.push(qual::decode_ascii(qa));
            }
            None => match policy {
                NPolicy::Drop => return Ok(None),
                NPolicy::SubstituteA => {
                    codes.push(0);
                    quals.push(0);
                }
                NPolicy::Error => return Err(ParseError::AmbiguousBase { record: id.to_string() }),
            },
        }
    }
    Ok(Some(Read::new(id, DnaSeq::from_codes(codes), quals)))
}

/// Write reads in FASTQ format, then flush `w`, so a buffered writer's
/// last write error is returned rather than lost in its `Drop`.
pub fn write_fastq<W: Write>(mut w: W, reads: &[Read]) -> io::Result<()> {
    for r in reads {
        writeln!(w, "@{}", r.id)?;
        w.write_all(&r.seq.to_ascii())?;
        writeln!(w)?;
        writeln!(w, "+")?;
        let q: Vec<u8> = r.quals.iter().map(|&q| qual::encode_ascii(q)).collect();
        w.write_all(&q)?;
        writeln!(w)?;
    }
    w.flush()
}

/// Interleave two mate files that were parsed separately into pairs.
///
/// Pairs mates positionally; returns an error if the lengths differ.
pub fn pair_up(r1: Vec<Read>, r2: Vec<Read>) -> Result<Vec<PairedRead>, ParseError> {
    if r1.len() != r2.len() {
        return Err(ParseError::Format(format!(
            "mate file length mismatch: {} vs {}",
            r1.len(),
            r2.len()
        )));
    }
    Ok(r1.into_iter().zip(r2).map(|(a, b)| PairedRead::new(a, b)).collect())
}

/// Write `(id, sequence)` records in FASTA format with `width`-column
/// wrapping, then flush `w` (as [`write_fastq`] does). A record may own its
/// sequence or borrow it.
pub fn write_fasta<W: Write, S: Borrow<DnaSeq>>(
    mut w: W,
    records: impl IntoIterator<Item = (impl Display, S)>,
    width: usize,
) -> io::Result<()> {
    let width = width.max(1);
    for (id, seq) in records {
        writeln!(w, ">{id}")?;
        let ascii = seq.borrow().to_ascii();
        for chunk in ascii.chunks(width) {
            w.write_all(chunk)?;
            writeln!(w)?;
        }
    }
    w.flush()
}

/// Parse a FASTA stream into `(id, sequence)` pairs. Ambiguous bases follow
/// the same policy as FASTQ parsing, applied per-record.
pub fn parse_fasta<R: BufRead>(
    reader: R,
    policy: NPolicy,
) -> Result<(Vec<(String, DnaSeq)>, usize), ParseError> {
    let mut out: Vec<(String, DnaSeq)> = Vec::new();
    let mut dropped = 0usize;
    let mut cur_id: Option<String> = None;
    let mut cur_seq = String::new();
    let flush = |id: Option<String>,
                 seq: &str,
                 out: &mut Vec<(String, DnaSeq)>,
                 dropped: &mut usize|
     -> Result<(), ParseError> {
        let Some(id) = id else { return Ok(()) };
        match DnaSeq::from_ascii(seq.as_bytes()) {
            Some(s) => out.push((id, s)),
            None => match policy {
                NPolicy::Drop => *dropped += 1,
                NPolicy::SubstituteA => {
                    let codes = seq
                        .bytes()
                        .map(|ch| crate::base::Base::from_ascii(ch).map_or(0, |b| b.code()))
                        .collect();
                    out.push((id, DnaSeq::from_codes(codes)));
                }
                NPolicy::Error => return Err(ParseError::AmbiguousBase { record: id }),
            },
        }
        Ok(())
    };
    for line in reader.lines() {
        let line = line?;
        if let Some(rest) = line.strip_prefix('>') {
            flush(cur_id.take(), &cur_seq, &mut out, &mut dropped)?;
            cur_id = Some(rest.split_whitespace().next().unwrap_or("").to_string());
            cur_seq.clear();
        } else {
            cur_seq.push_str(line.trim());
        }
    }
    flush(cur_id.take(), &cur_seq, &mut out, &mut dropped)?;
    Ok((out, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "@r1 extra stuff\nACGT\n+\nIIII\n@r2\nTTTT\n+\n!!!!\n";

    #[test]
    fn parse_two_records() {
        let (reads, dropped) = parse_fastq(Cursor::new(SAMPLE), NPolicy::Drop).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].id, "r1");
        assert_eq!(reads[0].seq.to_string(), "ACGT");
        assert_eq!(reads[0].quals, vec![40, 40, 40, 40]);
        assert_eq!(reads[1].quals, vec![0, 0, 0, 0]);
    }

    #[test]
    fn round_trip() {
        let (reads, _) = parse_fastq(Cursor::new(SAMPLE), NPolicy::Drop).unwrap();
        let mut buf = Vec::new();
        write_fastq(&mut buf, &reads).unwrap();
        let (reads2, _) = parse_fastq(Cursor::new(buf), NPolicy::Drop).unwrap();
        assert_eq!(reads, reads2);
    }

    #[test]
    fn n_policy_drop() {
        let s = "@r1\nACNT\n+\nIIII\n@r2\nACGT\n+\nIIII\n";
        let (reads, dropped) = parse_fastq(Cursor::new(s), NPolicy::Drop).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(dropped, 1);
        assert_eq!(reads[0].id, "r2");
    }

    #[test]
    fn n_policy_substitute() {
        let s = "@r1\nACNT\n+\nIIII\n";
        let (reads, _) = parse_fastq(Cursor::new(s), NPolicy::SubstituteA).unwrap();
        assert_eq!(reads[0].seq.to_string(), "ACAT");
        assert_eq!(reads[0].quals[2], 0);
    }

    #[test]
    fn n_policy_error() {
        let s = "@r1\nACNT\n+\nIIII\n";
        assert!(matches!(
            parse_fastq(Cursor::new(s), NPolicy::Error),
            Err(ParseError::AmbiguousBase { .. })
        ));
    }

    #[test]
    fn malformed_missing_plus() {
        let s = "@r1\nACGT\nIIII\nACGT\n";
        assert!(matches!(parse_fastq(Cursor::new(s), NPolicy::Drop), Err(ParseError::Format(_))));
    }

    #[test]
    fn malformed_qual_length() {
        let s = "@r1\nACGT\n+\nII\n";
        assert!(parse_fastq(Cursor::new(s), NPolicy::Drop).is_err());
    }

    #[test]
    fn truncated_record() {
        let s = "@r1\nACGT\n";
        assert!(parse_fastq(Cursor::new(s), NPolicy::Drop).is_err());
    }

    #[test]
    fn lenient_skips_malformed_and_resyncs() {
        // r1 ok, r2 missing '+', r3 ok, r4 qual-length mismatch, r5 ok.
        let s = "@r1\nACGT\n+\nIIII\n\
                 @r2\nACGT\nIIII\n\
                 @r3\nTTTT\n+\nIIII\n\
                 @r4\nACGT\n+\nII\n\
                 @r5\nGGGG\n+\nIIII\n";
        let (reads, stats) =
            parse_fastq_with(Cursor::new(s), NPolicy::Drop, ParseMode::Lenient).unwrap();
        let ids: Vec<&str> = reads.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["r1", "r3", "r5"]);
        assert_eq!(stats.skipped_malformed, 2);
        assert_eq!(stats.dropped_ambiguous, 0);
    }

    #[test]
    fn lenient_counts_truncated_tail() {
        let s = "@r1\nACGT\n+\nIIII\n@r2\nACGT\n";
        let (reads, stats) =
            parse_fastq_with(Cursor::new(s), NPolicy::Drop, ParseMode::Lenient).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(stats.skipped_malformed, 1);
    }

    #[test]
    fn lenient_still_counts_ambiguous_drops() {
        let s = "@r1\nACNT\n+\nIIII\n@r2\nACGT\n+\nIIII\n";
        let (reads, stats) =
            parse_fastq_with(Cursor::new(s), NPolicy::Drop, ParseMode::Lenient).unwrap();
        assert_eq!(reads.len(), 1);
        assert_eq!(stats.dropped_ambiguous, 1);
        assert_eq!(stats.skipped_malformed, 0);
    }

    #[test]
    fn strict_mode_matches_parse_fastq() {
        let s = "@r1\nACGT\nIIII\nACGT\n";
        assert!(matches!(
            parse_fastq_with(Cursor::new(s), NPolicy::Drop, ParseMode::Strict),
            Err(ParseError::Format(_))
        ));
    }

    #[test]
    fn fasta_round_trip() {
        let seqs = vec![
            ("c1".to_string(), DnaSeq::from_str_strict("ACGTACGTACGT").unwrap()),
            ("c2".to_string(), DnaSeq::from_str_strict("TT").unwrap()),
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, seqs.iter().map(|(id, seq)| (id, seq)), 5).unwrap();
        let (parsed, dropped) = parse_fasta(Cursor::new(buf), NPolicy::Drop).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(parsed, seqs);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn writers_report_the_final_flush_error() {
        // `/dev/full` takes no bytes. A short record fits the buffer, so
        // only the flush can see the error.
        let full = || io::BufWriter::new(std::fs::File::create("/dev/full").unwrap());
        let seq = DnaSeq::from_str_strict("ACGT").unwrap();
        assert!(write_fasta(full(), [("c", &seq)], 80).is_err());
        let read = Read::with_uniform_qual("r", seq, 30);
        assert!(write_fastq(full(), &[read]).is_err());
    }

    #[test]
    fn pair_up_checks_length() {
        let r = Read::with_uniform_qual("a", DnaSeq::from_str_strict("ACGT").unwrap(), 30);
        assert!(pair_up(vec![r.clone()], vec![r.clone(), r.clone()]).is_err());
        assert_eq!(pair_up(vec![r.clone()], vec![r]).unwrap().len(), 1);
    }
}
