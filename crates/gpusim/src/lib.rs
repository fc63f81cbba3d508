//! A SIMT GPU execution simulator.
//!
//! This crate stands in for the CUDA runtime + V100 hardware of the SC'21
//! paper *Accelerating Large Scale de novo Metagenome Assembly Using GPUs*.
//! Kernels are ordinary Rust functions written **warp-centric**: they receive
//! a [`WarpCtx`] and express their work as 32-lane operations — global loads
//! and stores with per-lane addresses, atomics, warp shuffles, ballots,
//! `match_any`, and explicit active-mask manipulation for divergence.
//!
//! Execution is *functionally exact* (every lane's effect on device memory is
//! applied) and *metrically instrumented*:
//!
//! * every warp operation increments an instruction-class counter
//!   ([`Counters`]): integer, floating point, global load/store, local
//!   load/store, control, atomic, shuffle, sync;
//! * global memory accesses are coalesced per warp instruction into 32-byte
//!   sector **transactions**, exactly the quantity the Instruction Roofline
//!   model (Ding & Williams, PMBS'19) plots on its x-axis;
//! * per-instruction active/predicated lane slots are tracked, giving the
//!   *thread predication* gap the paper discusses for its DNA-walk phase.
//!
//! The warps of a launch run on several host threads in contiguous warp
//! ranges ([`Device::launch`]); counters and modeled time are identical at
//! any thread count.
//!
//! A configurable analytic timing model ([`timing`]) converts the counters
//! into estimated kernel time for a V100-like device (80 SMs × 4 schedulers
//! × 1.53 GHz ⇒ the paper's 489.6 warp-GIPS peak), from which
//! [`roofline::RooflineReport`] computes warp GIPS and instruction intensity.
//!
//! Device memory has one allocation kind, zero-filled like the paper's
//! `cudaMemset` slabs, and one bounds rule: [`Buf::at`] panics past the end
//! of its allocation in every build. A kernel that panics (on such an
//! index, or on a k its data layout cannot hold) unwinds out of
//! [`Device::launch`] to the caller, like any Rust function; allocation
//! beyond capacity is a [`DeviceOom`]. Those are the device's only
//! failures.
//!
//! A `compute-sanitizer`-style checking layer — **`gpucheck`**
//! ([`sanitizer`], [`shadow`]) — is one switch: on per device via
//! [`DeviceConfig::with_sanitizer`], or process-wide with
//! `GPUSIM_SANITIZE=1` ([`sanitize_env_forced`]). It changes nothing on
//! any other device. It runs three analyses over the executing kernels:
//! *memcheck* (raw addresses out of bounds, use-after-reset through stale
//! [`Buf`]s), *racecheck* (same-word lane and warp hazards where at least
//! one access is a plain store), and *synccheck* (mask-stack balance,
//! shuffles from inactive lanes, empty-mask collectives). Findings surface
//! as structured [`SanitizerReport`] records, at most
//! [`sanitizer::MAX_REPORTS`] materialized per summary. Every global-memory
//! warp instruction goes through one metered path in [`WarpCtx`]; when the
//! sanitizer is off (the default) that path pays one `Option` test per lane
//! access.
//!
//! What this deliberately does **not** model: instruction pipelining details,
//! L2 behaviour, ECC scrubbing, or clock boosting. The paper's conclusions are about
//! algorithmic structure (divergence, coalescing, atomics, predication), and
//! those are exactly the quantities this simulator measures from real
//! execution of the real data structures.

// Lane-indexed `for l in 0..WARP` loops mirror the CUDA lockstep model the
// simulator reproduces; iterator rewrites would obscure the lane index.
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod config;
pub mod counters;
pub mod device;
pub mod mem;
pub mod roofline;
pub mod sanitizer;
pub mod shadow;
pub mod timing;
pub mod warp;

pub use config::DeviceConfig;
pub use counters::{Counters, InstClass};
pub use device::{sanitize_env_forced, Device, LaunchStats};
pub use mem::{Buf, DeviceOom};
pub use roofline::RooflineReport;
pub use sanitizer::{SanitizerKind, SanitizerReport, SanitizerSummary};
pub use warp::{Lanes, WarpCtx, WARP};
