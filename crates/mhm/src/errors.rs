//! Structured pipeline errors with per-phase context.
//!
//! Written in the `thiserror` idiom with the derive spelled out by hand —
//! this workspace vendors every dependency and carries no proc macros —
//! so each variant gets a `#[error("...")]`-style [`Display`](std::fmt::Display) message and
//! a [`source`](std::error::Error::source) where an underlying error
//! exists.
//!
//! A [`PipelineError`] means the run could not produce a result at all.
//! Device failures never surface here: a batch the device fails (out of
//! memory, corrupt output, or a panicking kernel) and every later batch run
//! on the local-assembly CPU fallback, a task whose CPU run panics is
//! skipped, and both are reported in
//! [`PipelineStats`](crate::pipeline::PipelineStats).

use crate::pipeline::Phase;
use std::fmt;

/// A fatal pipeline failure, tagged with the phase it occurred in.
#[derive(Debug)]
pub struct PipelineError {
    /// The phase that failed.
    pub phase: Phase,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// The failure itself.
#[derive(Debug)]
pub enum ErrorKind {
    /// Serialization or file I/O failed.
    Io(std::io::Error),
    /// The local-assembly driver violated an internal invariant.
    Engine(locassm::DriverError),
    /// Structurally invalid input.
    InvalidInput(String),
}

impl PipelineError {
    /// An I/O failure during `phase`.
    pub fn io(phase: Phase, source: std::io::Error) -> PipelineError {
        PipelineError { phase, kind: ErrorKind::Io(source) }
    }

    /// An engine invariant violation during `phase`.
    pub fn engine(phase: Phase, source: locassm::DriverError) -> PipelineError {
        PipelineError { phase, kind: ErrorKind::Engine(source) }
    }

    /// Invalid input detected during `phase`.
    pub fn invalid_input(phase: Phase, detail: impl Into<String>) -> PipelineError {
        PipelineError { phase, kind: ErrorKind::InvalidInput(detail.into()) }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pipeline failed during {}: ", self.phase.name())?;
        match &self.kind {
            ErrorKind::Io(e) => write!(f, "I/O error: {e}"),
            ErrorKind::Engine(e) => write!(f, "engine error: {e}"),
            ErrorKind::InvalidInput(d) => write!(f, "invalid input: {d}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
            ErrorKind::Io(e) => Some(e),
            ErrorKind::Engine(e) => Some(e),
            ErrorKind::InvalidInput(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_name() {
        let e = PipelineError::invalid_input(Phase::MergeReads, "empty read set");
        let s = e.to_string();
        assert!(s.contains("merge reads"), "{s}");
        assert!(s.contains("empty read set"), "{s}");
    }

    #[test]
    fn io_errors_carry_a_source() {
        use std::error::Error;
        let e = PipelineError::io(Phase::FileIo, std::io::Error::other("disk gone"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("file I/O"));
    }
}
