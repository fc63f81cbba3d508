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
//! 7. **file I/O** — reading and pairing the FASTQ lanes and writing the
//!    FASTA files, timed by `mhm2rs assemble` ([`cli`]); library runs do no
//!    file I/O.
//!
//! Phases 2–5 form one k round. [`run_rounds`] is the one assembly loop:
//! it merges the reads, runs a round per k (from the second round on, the
//! previous round's contigs join the reads as pseudo-reads), then
//! scaffolds. [`run_pipeline`] runs it over the single `cfg.k` and
//! [`run_iterative`] over a k schedule (Figure 1, "Iterate for
//! k = k₁, k₂, …"); both return a [`PipelineResult`] with one
//! [`RoundStats`] per round. Its [`PhaseTimings`] hold measured host
//! seconds on every engine; the GPU's modeled device seconds are kept apart
//! in [`PipelineStats::gpu`]. [`scaling`] projects
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
pub use iterative::run_iterative;
pub use merge::{merge_reads, MergeParams, MergeStats};
pub use pipeline::{
    run_local_assembly, run_pipeline, run_rounds, EngineChoice, LocalAssemblyRun, Phase,
    PhaseTimings, PipelineConfig, PipelineResult, PipelineStats, RoundStats,
};
pub use scaffold::{scaffold_contigs, Scaffold, ScaffoldParams};
pub use scaling::{PaperAnchors, ScalingError, ScalingModel};
pub use stats::{evaluate_against_refs, AssemblyStats, RefEval};
