//! The MetaHipMer-like assembly pipeline (Figure 1 of the paper) and the
//! Summit strong-scaling model used to regenerate its evaluation figures.
//!
//! Pipeline phases, in order:
//!
//! 1. **merge reads** ([`merge`]) — overlap-merge paired ends;
//! 2. **k-mer analysis** (`dbg::count_kmers`) — count + filter singletons;
//! 3. **contig generation** (`dbg::generate_contigs`) — UU-path traversal;
//! 4. **alignment** (`align`) — map reads to contig ends, collect candidate
//!    read sets; the banded-SW rescoring pass is the "aln kernel" slice;
//! 5. **local assembly** (`locassm`) — CPU or simulated-GPU engine;
//! 6. **scaffolding** ([`scaffold`]) — read-pair links join contigs;
//! 7. **file I/O** — FASTA serialization.
//!
//! [`pipeline::run_pipeline`] runs all of it on real data and reports
//! per-phase wall times ([`pipeline::PhaseTimings`]). [`scaling`] projects
//! measured profiles onto Summit node counts (64–1024) with the α–β
//! communication model and the paper-anchored GPU-overhead model, producing
//! the series behind Figures 2, 12, 13 and 14.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cli;
pub mod errors;
pub mod iterative;
pub mod merge;
pub mod pipeline;
pub mod report;
pub mod scaffold;
pub mod scaling;
pub mod stats;

pub use errors::{ErrorKind, PipelineError};
pub use iterative::{run_iterative, IterativeResult};
pub use merge::{merge_reads, MergeParams, MergeStats};
pub use pipeline::{
    run_local_assembly, run_pipeline, EngineChoice, LocalAssemblyRun, Phase, PhaseTimings,
    PipelineConfig, PipelineResult,
};
pub use scaffold::{scaffold_contigs, Scaffold, ScaffoldParams};
pub use scaling::{PaperAnchors, ScalingError, ScalingModel};
pub use stats::{evaluate_against_refs, AssemblyStats, RefEval};
