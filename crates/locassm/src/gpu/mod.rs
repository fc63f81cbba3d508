//! The GPU local-assembly engine (paper §3), written against the `gpusim`
//! SIMT simulator.
//!
//! * [`layout`] — device data formats: hash-table entries with
//!   pointer-compressed k-mer keys, visited-set entries, output records;
//! * [`pack`] — host-side packing of a task batch into device buffers,
//!   including the exact per-extension `ht_sizes` offsets of §3.2;
//! * [`kernel`] — the extension kernels: `v2` (warp-cooperative hash-table
//!   build, Figure 5) and `v1` (single-thread build, kept for the roofline
//!   study of §4.2);
//! * [`engine`] — batching, launching, and result unpacking, with the
//!   paper's binning-driven scheduling and the CPU fallback for a batch
//!   the device fails.

pub mod engine;
pub mod kernel;
pub mod kernel_v1;
pub mod layout;
pub mod pack;

pub use engine::{GpuLocalAssembler, GpuRunStats, DEFAULT_PACK_WORDS_PER_S};
pub use kernel::KernelVersion;
