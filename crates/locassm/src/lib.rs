//! Local assembly — the core contribution of *Accelerating Large Scale de
//! novo Metagenome Assembly Using GPUs* (SC'21).
//!
//! Local assembly extends each contig using only the reads that align to its
//! ends. It is a two-step iterated process (paper §2.3):
//!
//! 1. build a k-mer → extension hash table from the candidate reads
//!    (Algorithm 1);
//! 2. *mer-walk* from the contig's terminal k-mer, appending the winning
//!    extension base until a dead end or fork (Algorithm 2);
//!
//! with `k` **up-shifted** on a fork and **down-shifted** on a dead end, and
//! termination on fork-after-downshift / dead-end-after-upshift
//! ([`params::KShift`]).
//!
//! Two interchangeable engines implement this:
//!
//! * [`cpu`] — the multicore reference (what MetaHipMer2 runs per node),
//!   embarrassingly parallel over contig ends via rayon;
//! * [`gpu`] — the paper's GPU port, written against the [`gpusim`] SIMT
//!   simulator: contigs binned by candidate-read count ([`binning`]), one
//!   warp per extension, warp-cooperative hash-table construction with CAS
//!   claims and `match_any` collision groups (kernel **v2**; kernel **v1**
//!   is the single-thread-build variant kept for the roofline comparison),
//!   pointer-compressed k-mer keys, and one flat slab sized by exact
//!   per-extension table sizes.
//!
//! Both engines produce *identical extensions* for identical input — the
//! integration tests enforce this — so the pipeline can switch between them
//! freely, exactly as MetaHipMer2 does with `--ranks-per-gpu`.
//!
//! A batch the device fails (out of memory, corrupt output, or a kernel
//! panic such as a k above [`gpu::layout::MAX_DEVICE_K`]) marks the device
//! failed; that batch and the rest of the run go to the CPU engine with
//! per-task panic isolation, counted in [`gpu::GpuRunStats`]'s
//! `cpu_fallback_tasks` and `device_failed`. A task is skipped only when its
//! CPU run panics too. See `DESIGN.md` §"Device failure & CPU fallback".

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod binning;
pub mod cpu;
pub mod driver;
pub mod gpu;
pub mod params;
pub mod schedule;
pub mod summary;
pub mod task;

pub use binning::{bin_tasks, Bin, BinStats};
pub use cpu::{extend_all_cpu, extend_all_cpu_isolated, extend_end_cpu};
pub use driver::{DriverError, OverlapDriver, OverlapOutcome, SchedulePolicy};
pub use params::{KShift, LocalAssemblyParams, ShiftDir, WalkState};
pub use schedule::{build_batches, ScheduleReport, StealConfig, TaskBatch};
pub use summary::{summarize, ExtSummary};
pub use task::{apply_extensions, make_tasks, ContigEnd, ExtResult, ExtTask, TaskOutcome};
