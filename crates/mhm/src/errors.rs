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
    /// The local-assembly driver violated an internal invariant.
    Engine(locassm::DriverError),
    /// Structurally invalid input.
    InvalidInput(String),
}

impl PipelineError {
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
            ErrorKind::Engine(e) => write!(f, "engine error: {e}"),
            ErrorKind::InvalidInput(d) => write!(f, "invalid input: {d}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.kind {
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
}
