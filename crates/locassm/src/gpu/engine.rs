//! Batching, launching, and result unpacking — the paper's driver function
//! (§4.3) around the extension kernels.
//!
//! Tasks with zero candidate reads (bin 1) are answered host-side without
//! touching the device. Remaining tasks are packed into batches sized
//! against a device-memory budget (the "Estimate table sizes → Create
//! batches" boxes of Figure 4) and launched one batch per kernel.

use crate::binning::bin_tasks_refs;
use crate::cpu::extend_end_cpu;
use crate::gpu::kernel::{extension_kernel_v2, KernelVersion};
use crate::gpu::kernel_v1::extension_kernel_v1;
use crate::gpu::layout;
use crate::gpu::pack::{estimate_task_words, pack_batch};
use crate::params::{LocalAssemblyParams, WalkState};
use crate::task::{panic_reason, ExtResult, ExtTask, TaskOutcome};
use bioseq::DnaSeq;
use gpusim::{
    Counters, Device, DeviceConfig, DeviceOom, LaunchError, RooflineReport, SanitizerSummary,
};

/// Device attempts per batch of work; each failed attempt halves the batch
/// (or retries a singleton) until the budget runs out.
const MAX_BATCH_ATTEMPTS: u32 = 3;
/// Device resets tolerated before the device is declared lost for the rest
/// of the run.
const MAX_DEVICE_RESETS: u64 = 3;
/// Simulated wait before the first device reset; doubles per reset.
const BACKOFF_BASE_S: f64 = 1e-3;

/// What the recovery ladder had to do during a run. All-zero on a healthy
/// device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Singleton batches retried on the device after a failure.
    pub launch_retries: u64,
    /// Batches halved after a failure.
    pub batch_splits: u64,
    /// Device resets performed (each follows a fatal launch error).
    pub device_resets: u64,
    /// Simulated backoff seconds spent waiting before resets.
    pub backoff_s: f64,
    /// Tasks completed by the CPU fallback after the device gave up.
    pub cpu_fallback_tasks: usize,
    /// Tasks that failed everywhere and were skipped.
    pub failed_tasks: usize,
    /// The device exhausted its reset budget and was abandoned.
    pub device_lost: bool,
}

impl RecoveryStats {
    /// True if any rung of the ladder was exercised.
    pub fn any_recovery(&self) -> bool {
        *self != RecoveryStats::default()
    }

    /// Fold another run's recovery bookkeeping into this one.
    pub fn absorb(&mut self, other: &RecoveryStats) {
        self.launch_retries += other.launch_retries;
        self.batch_splits += other.batch_splits;
        self.device_resets += other.device_resets;
        self.backoff_s += other.backoff_s;
        self.cpu_fallback_tasks += other.cpu_fallback_tasks;
        self.failed_tasks += other.failed_tasks;
        self.device_lost |= other.device_lost;
    }
}

/// Execution statistics for a GPU local-assembly run.
#[derive(Debug, Clone)]
pub struct GpuRunStats {
    /// Kernel launches completed successfully.
    pub launches: u64,
    /// Batches completed (== launches).
    pub batches: u64,
    /// Tasks executed on the device (bins 2+3).
    pub device_tasks: usize,
    /// Tasks answered host-side (bin 1).
    pub zero_tasks: usize,
    /// Aggregate device counters.
    pub counters: Counters,
    /// Simulated device seconds (kernels + launch overheads).
    pub seconds: f64,
    /// Modeled host seconds spent packing batches (CPU-side data packing +
    /// H2D of Figure 4, charged at the engine's modeled pack rate).
    pub pack_s: f64,
    /// Seconds of `pack_s` hidden under kernel execution by the
    /// double-buffered pipeline (pack batch N+1 while batch N executes).
    pub overlap_saved_s: f64,
    /// Peak device words used by any batch.
    pub peak_mem_words: u64,
    /// Recovery-ladder bookkeeping.
    pub recovery: RecoveryStats,
    /// `gpucheck` findings drained from the device (empty and disabled
    /// unless the device was configured with a sanitizer).
    pub sanitizer: SanitizerSummary,
}

impl Default for GpuRunStats {
    fn default() -> GpuRunStats {
        GpuRunStats::empty()
    }
}

impl GpuRunStats {
    fn empty() -> GpuRunStats {
        GpuRunStats {
            launches: 0,
            batches: 0,
            device_tasks: 0,
            zero_tasks: 0,
            counters: Counters::new(),
            seconds: 0.0,
            pack_s: 0.0,
            overlap_saved_s: 0.0,
            peak_mem_words: 0,
            recovery: RecoveryStats::default(),
            sanitizer: SanitizerSummary::default(),
        }
    }

    /// End-to-end device-pipeline wall seconds: simulated kernel time plus
    /// modeled pack time, minus what double-buffering hid.
    pub fn wall_s(&self) -> f64 {
        self.seconds + self.pack_s - self.overlap_saved_s
    }

    /// Roofline characterization of the run.
    pub fn roofline(&self, name: &str, cfg: &DeviceConfig) -> RooflineReport {
        RooflineReport::from_counters(name, cfg, &self.counters, self.seconds)
    }

    /// Fold another run's statistics into this one (one run per batch of
    /// the work-stealing scheduler).
    pub fn absorb(&mut self, other: &GpuRunStats) {
        self.launches += other.launches;
        self.batches += other.batches;
        self.device_tasks += other.device_tasks;
        self.zero_tasks += other.zero_tasks;
        self.counters.merge(&other.counters);
        self.seconds += other.seconds;
        self.pack_s += other.pack_s;
        self.overlap_saved_s += other.overlap_saved_s;
        self.peak_mem_words = self.peak_mem_words.max(other.peak_mem_words);
        self.recovery.absorb(&other.recovery);
        self.sanitizer.absorb(&other.sanitizer);
    }
}

/// Why one device attempt at a batch failed (internal to the ladder).
enum BatchError {
    /// Packing ran out of device memory (real or injected).
    Oom(DeviceOom),
    /// The kernel launch failed; the device context is poisoned.
    Launch(LaunchError),
    /// Output records failed validation (device-memory corruption).
    Corrupt(&'static str),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Oom(e) => write!(f, "{e}"),
            BatchError::Launch(e) => write!(f, "{e}"),
            BatchError::Corrupt(what) => write!(f, "corrupt output: {what}"),
        }
    }
}

/// Modeled host-side packing throughput (device words per second): ~2 GB/s
/// of 8-byte words, the PCIe-generation order of magnitude the paper's
/// driver hides behind kernel execution.
pub const DEFAULT_PACK_WORDS_PER_S: f64 = 2.5e8;

/// The GPU local-assembly engine.
pub struct GpuLocalAssembler {
    device: Device,
    params: LocalAssemblyParams,
    version: KernelVersion,
    /// Fraction of device memory a batch may use.
    mem_budget_frac: f64,
    /// Set when the device exhausted its reset budget; all remaining work
    /// skips the device rungs of the ladder.
    device_dead: bool,
    /// Modeled packing throughput in device words per second.
    pack_words_per_s: f64,
    /// Kernel seconds of the most recent launch still "in flight" for the
    /// double-buffer model: the next batch's pack can hide under it.
    pending_exec_s: f64,
}

impl GpuLocalAssembler {
    /// New engine on a device with the given configuration.
    pub fn new(
        config: DeviceConfig,
        params: LocalAssemblyParams,
        version: KernelVersion,
    ) -> GpuLocalAssembler {
        GpuLocalAssembler {
            device: Device::new(config),
            params,
            version,
            mem_budget_frac: 0.8,
            device_dead: false,
            pack_words_per_s: DEFAULT_PACK_WORDS_PER_S,
            pending_exec_s: 0.0,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &LocalAssemblyParams {
        &self.params
    }

    /// Access the underlying simulated device (counters, config).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Extend every task; results are index-aligned with `tasks`. Failed
    /// tasks (possible only when the CPU fallback itself panics) collapse to
    /// empty results.
    ///
    /// Scheduling follows the paper: bin 1 is answered immediately; bin 3
    /// (large tasks) is offloaded first, then bin 2 — so the earliest
    /// launches carry the most work, maximizing CPU/GPU overlap for the
    /// caller.
    pub fn extend_tasks(&mut self, tasks: &[ExtTask]) -> (Vec<ExtResult>, GpuRunStats) {
        let (outcomes, stats) = self.extend_tasks_outcomes(tasks);
        (outcomes.into_iter().map(TaskOutcome::into_result).collect(), stats)
    }

    /// Extend every task, reporting per-task outcomes. Device failures walk
    /// the recovery ladder; a task is [`TaskOutcome::Failed`] only once
    /// every rung is exhausted.
    pub fn extend_tasks_outcomes(&mut self, tasks: &[ExtTask]) -> (Vec<TaskOutcome>, GpuRunStats) {
        let refs: Vec<&ExtTask> = tasks.iter().collect();
        self.extend_tasks_outcomes_ref(&refs)
    }

    /// [`GpuLocalAssembler::extend_tasks_outcomes`] over borrowed tasks, so
    /// schedulers can hand out shares by index without deep-cloning task
    /// data (reads included) per engine.
    pub fn extend_tasks_outcomes_ref(
        &mut self,
        tasks: &[&ExtTask],
    ) -> (Vec<TaskOutcome>, GpuRunStats) {
        let bins = bin_tasks_refs(tasks);
        let mut results: Vec<Option<TaskOutcome>> = vec![None; tasks.len()];
        for &i in &bins.zero {
            results[i] = Some(TaskOutcome::Done(ExtResult::empty()));
        }

        let mut stats = GpuRunStats::empty();
        stats.zero_tasks = bins.zero.len();

        // Bin 3 first, then bin 2.
        let order: Vec<usize> = bins.large.iter().chain(bins.small.iter()).copied().collect();
        let budget = (self.device.config().capacity_words() as f64 * self.mem_budget_frac) as u64;

        // Greedy batching under the memory budget. A single task too large
        // for the whole device skips the device entirely (degrade, don't
        // abort).
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut oversized: Vec<usize> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_words: u64 = 0;
        for &i in &order {
            let w = estimate_task_words(tasks[i], &self.params);
            if w > budget {
                oversized.push(i);
                continue;
            }
            if cur_words + w > budget && !cur.is_empty() {
                batches.push(std::mem::take(&mut cur));
                cur_words = 0;
            }
            cur.push(i);
            cur_words += w;
        }
        if !cur.is_empty() {
            batches.push(cur);
        }

        stats.device_tasks = order.len() - oversized.len();
        for batch in &batches {
            self.run_batch_recovering(tasks, batch, &mut results, &mut stats, MAX_BATCH_ATTEMPTS);
        }
        for &i in &oversized {
            let outcome = self.off_device(tasks[i], "task exceeds device memory", &mut stats);
            results[i] = Some(outcome);
        }

        let outcomes = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or(TaskOutcome::Failed {
                    contig: tasks[i].contig,
                    reason: "task was never scheduled".to_string(),
                })
            })
            .collect();
        (outcomes, stats)
    }

    /// Run one batch through the ladder: try the device; on failure recover
    /// the device (reset + backoff), then halve the batch (or retry a
    /// singleton) while attempts remain; past that, hand the tasks to
    /// [`GpuLocalAssembler::off_device`].
    fn run_batch_recovering(
        &mut self,
        tasks: &[&ExtTask],
        idx: &[usize],
        results: &mut [Option<TaskOutcome>],
        stats: &mut GpuRunStats,
        attempts_left: u32,
    ) {
        if idx.is_empty() {
            return;
        }
        if self.device_dead {
            for &i in idx {
                results[i] = Some(self.off_device(tasks[i], "device lost", stats));
            }
            return;
        }
        let batch_tasks: Vec<&ExtTask> = idx.iter().map(|&i| tasks[i]).collect();
        match self.try_batch(&batch_tasks, stats) {
            Ok(outs) => {
                for (&i, out) in idx.iter().zip(outs) {
                    results[i] = Some(TaskOutcome::Done(out));
                }
            }
            Err(_err) => {
                self.recover_device(stats);
                if attempts_left > 1 && !self.device_dead {
                    if idx.len() > 1 {
                        // Shrink: half the batch means half the slab on the
                        // next pack.
                        stats.recovery.batch_splits += 1;
                        let mid = idx.len() / 2;
                        self.run_batch_recovering(
                            tasks,
                            &idx[..mid],
                            results,
                            stats,
                            attempts_left - 1,
                        );
                        self.run_batch_recovering(
                            tasks,
                            &idx[mid..],
                            results,
                            stats,
                            attempts_left - 1,
                        );
                    } else {
                        stats.recovery.launch_retries += 1;
                        self.run_batch_recovering(tasks, idx, results, stats, attempts_left - 1);
                    }
                } else {
                    for &i in idx {
                        results[i] =
                            Some(self.off_device(tasks[i], "device attempts exhausted", stats));
                    }
                }
            }
        }
    }

    /// If the last failure poisoned the device, reset it after a simulated
    /// exponential backoff; declare the device lost past the reset budget.
    fn recover_device(&mut self, stats: &mut GpuRunStats) {
        if !self.device.is_poisoned() {
            return; // e.g. an OOM: the device is still usable as-is
        }
        if self.device.resets() >= MAX_DEVICE_RESETS {
            self.device_dead = true;
            stats.recovery.device_lost = true;
            return;
        }
        let backoff = BACKOFF_BASE_S * f64::powi(2.0, self.device.resets() as i32);
        stats.recovery.backoff_s += backoff;
        self.device.reset_device();
        // A reset drains the device queue: nothing is in flight for the
        // next pack to hide under.
        self.pending_exec_s = 0.0;
        stats.recovery.device_resets += 1;
    }

    /// Last rungs of the ladder for one task: the CPU reference engine,
    /// panic-isolated — a panicking task is skipped, never aborts the bin.
    fn off_device(&self, task: &ExtTask, why: &str, stats: &mut GpuRunStats) -> TaskOutcome {
        let params = &self.params;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            extend_end_cpu(task, params)
        })) {
            Ok(r) => {
                stats.recovery.cpu_fallback_tasks += 1;
                TaskOutcome::Done(r)
            }
            Err(payload) => {
                stats.recovery.failed_tasks += 1;
                TaskOutcome::Failed {
                    contig: task.contig,
                    reason: format!("{why}; CPU fallback panicked: {}", panic_reason(payload)),
                }
            }
        }
    }

    /// One device attempt: pack, launch, and unpack one batch.
    fn try_batch(
        &mut self,
        batch_tasks: &[&ExtTask],
        stats: &mut GpuRunStats,
    ) -> Result<Vec<ExtResult>, BatchError> {
        self.device.reset_mem();
        let batch =
            pack_batch(&mut self.device, batch_tasks, &self.params).map_err(BatchError::Oom)?;
        stats.peak_mem_words = stats.peak_mem_words.max(self.device.mem_used_words());
        let params = self.params.clone();
        let launch = match self.version {
            KernelVersion::V2 => self.device.launch(batch.n_exts, batch.window, |ctx| {
                extension_kernel_v2(ctx, &batch, &params);
            }),
            KernelVersion::V1 => {
                // One extension per lane: 32 extensions per warp.
                let warps = batch.n_exts.div_ceil(gpusim::WARP);
                self.device.launch(warps, batch.window, |ctx| {
                    extension_kernel_v1(ctx, &batch, &params, batch.n_exts);
                })
            }
        }
        .map_err(BatchError::Launch)?;
        stats.launches += 1;
        stats.batches += 1;
        stats.counters.merge(&launch.counters);
        let exec_s = launch.timing.total_seconds();
        stats.seconds += exec_s;
        // Double-buffer model: this batch was packed on the host while the
        // previous batch's kernel was still executing, so up to
        // `pending_exec_s` of the pack cost is hidden.
        let pack_s = self.device.mem_used_words() as f64 / self.pack_words_per_s;
        stats.pack_s += pack_s;
        stats.overlap_saved_s += pack_s.min(self.pending_exec_s);
        self.pending_exec_s = exec_s;
        if let Some(s) = self.device.take_sanitizer_summary() {
            stats.sanitizer.absorb(&s);
        }

        // Unpack output records, validating against corruption.
        let mut out = Vec::with_capacity(batch.n_exts);
        for e in 0..batch.n_exts as u64 {
            let rec = self.device.d2h(batch.out, e * batch.out_stride, batch.out_stride);
            let n_app = rec[0] as usize;
            if 2 + n_app.div_ceil(32) > rec.len() {
                return Err(BatchError::Corrupt("appended length exceeds record"));
            }
            let (state, iterations) = layout::decode_out_header(rec[1]);
            let final_state =
                WalkState::from_u64(state).ok_or(BatchError::Corrupt("invalid walk state"))?;
            let mut appended = DnaSeq::with_capacity(n_app);
            for i in 0..n_app {
                let word = rec[2 + i / 32];
                appended.push_code(((word >> (2 * (i % 32))) & 3) as u8);
            }
            out.push(ExtResult { appended, final_state, iterations });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::extend_all_cpu;
    use crate::task::ContigEnd;
    use bioseq::Read;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn tiling_reads(genome: &DnaSeq, from: usize, read_len: usize, stride: usize) -> Vec<Read> {
        let mut reads = Vec::new();
        let mut pos = from;
        while pos + read_len <= genome.len() {
            for copy in 0..2 {
                reads.push(Read::with_uniform_qual(
                    format!("r{pos}c{copy}"),
                    genome.subseq(pos, read_len),
                    35,
                ));
            }
            pos += stride;
        }
        reads
    }

    fn make_test_tasks(n: usize) -> Vec<ExtTask> {
        let mut tasks = Vec::new();
        for i in 0..n {
            let genome = random_seq(400, 100 + i as u64);
            let reads = if i % 4 == 3 {
                vec![] // sprinkle zero-read (bin 1) tasks
            } else {
                tiling_reads(&genome, 80, 60, 3)
            };
            tasks.push(ExtTask {
                contig: i,
                end: ContigEnd::Right,
                tail: genome.subseq(0, 150),
                reads,
            });
        }
        tasks
    }

    fn engine(version: KernelVersion) -> GpuLocalAssembler {
        GpuLocalAssembler::new(DeviceConfig::v100(), LocalAssemblyParams::for_tests(), version)
    }

    #[test]
    fn gpu_v2_matches_cpu() {
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        let (gpu, stats) = engine(KernelVersion::V2).extend_tasks(&tasks);
        assert_eq!(cpu.len(), gpu.len());
        for (i, (c, g)) in cpu.iter().zip(&gpu).enumerate() {
            assert_eq!(c, g, "task {i} diverged between CPU and GPU");
        }
        assert!(stats.launches >= 1);
        assert!(stats.counters.warp_insts() > 0);
        // Extensions actually happened.
        assert!(gpu.iter().any(|r| !r.appended.is_empty()));
    }

    #[test]
    fn gpu_v1_matches_cpu() {
        let tasks = make_test_tasks(5);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        let (gpu, _) = engine(KernelVersion::V1).extend_tasks(&tasks);
        assert_eq!(cpu, gpu);
    }

    #[test]
    fn v2_uses_fewer_load_instructions_than_v1() {
        let tasks = make_test_tasks(4);
        let (_, s1) = engine(KernelVersion::V1).extend_tasks(&tasks);
        let (_, s2) = engine(KernelVersion::V2).extend_tasks(&tasks);
        assert!(
            s2.counters.ldst_global_inst < s1.counters.ldst_global_inst,
            "v2 ({}) must issue fewer global ld/st than v1 ({})",
            s2.counters.ldst_global_inst,
            s1.counters.ldst_global_inst
        );
        // And the work performed must be identical.
        assert_eq!(s1.zero_tasks, s2.zero_tasks);
    }

    #[test]
    fn zero_read_tasks_skip_device() {
        let tasks: Vec<ExtTask> = (0..3)
            .map(|i| ExtTask {
                contig: i,
                end: ContigEnd::Right,
                tail: random_seq(100, i as u64),
                reads: vec![],
            })
            .collect();
        let (results, stats) = engine(KernelVersion::V2).extend_tasks(&tasks);
        assert!(results.iter().all(|r| r.appended.is_empty()));
        assert_eq!(stats.zero_tasks, 3);
        assert_eq!(stats.device_tasks, 0);
        assert_eq!(stats.launches, 0);
    }

    #[test]
    fn batching_under_tight_memory() {
        let tasks = make_test_tasks(8);
        let mut eng = engine(KernelVersion::V2);
        // Force tiny batches.
        eng.mem_budget_frac = 0.0001; // ~214k words: one task fits, eight don't
        let (gpu, stats) = eng.extend_tasks(&tasks);
        assert!(stats.batches > 1, "expected multiple batches, got {}", stats.batches);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        assert_eq!(cpu, gpu, "batch splitting must not change results");
    }

    fn faulty_engine(plan: gpusim::FaultPlan) -> GpuLocalAssembler {
        GpuLocalAssembler::new(
            DeviceConfig::v100().with_fault_plan(plan),
            LocalAssemblyParams::for_tests(),
            KernelVersion::V2,
        )
    }

    #[test]
    fn injected_slab_oom_recovers_identically() {
        use gpusim::{Fault, FaultPlan};
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        // The very first allocation is denied: the ladder must shrink the
        // batch (or retry) and still produce identical extensions.
        let mut eng = faulty_engine(FaultPlan::single(Fault::SlabOom { at_alloc: 0 }));
        let (gpu, stats) = eng.extend_tasks(&tasks);
        assert_eq!(cpu, gpu, "recovery must not change results");
        assert!(
            stats.recovery.batch_splits >= 1 || stats.recovery.launch_retries >= 1,
            "ladder must have shrunk or retried: {:?}",
            stats.recovery
        );
        assert_eq!(stats.recovery.failed_tasks, 0);
    }

    #[test]
    fn injected_hang_resets_and_recovers() {
        use gpusim::{Fault, FaultPlan};
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        // First kernel hangs; the poisoned context must be reset (with
        // backoff) and the run completed with identical output.
        let mut eng = faulty_engine(FaultPlan::single(Fault::KernelHang {
            at_launch: 0,
            after_cycles: 10_000,
        }));
        let (gpu, stats) = eng.extend_tasks(&tasks);
        assert_eq!(cpu, gpu);
        assert!(stats.recovery.device_resets >= 1, "hang must force a reset");
        assert!(stats.recovery.backoff_s > 0.0, "reset must charge backoff");
        assert!(!stats.recovery.device_lost);
    }

    #[test]
    fn hang_storm_falls_back_to_cpu() {
        use gpusim::{Fault, FaultPlan};
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        // Every launch hangs: the reset allowance runs out, the device is
        // declared lost, and all remaining work lands on the CPU engine —
        // still byte-identical.
        let plan = FaultPlan {
            faults: (0..64)
                .map(|i| Fault::KernelHang { at_launch: i, after_cycles: 100 })
                .collect(),
        };
        let (gpu, stats) = faulty_engine(plan).extend_tasks(&tasks);
        assert_eq!(cpu, gpu, "CPU fallback must match the fault-free run");
        assert!(stats.recovery.device_lost, "reset budget must be exhausted");
        assert!(stats.recovery.cpu_fallback_tasks > 0);
        assert_eq!(stats.recovery.failed_tasks, 0);
    }

    #[test]
    fn sanitized_runs_stay_clean_and_match_cpu() {
        use gpusim::SanitizerConfig;
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::for_tests();
        let cpu = extend_all_cpu(&tasks, &params);
        for version in [KernelVersion::V1, KernelVersion::V2] {
            let mut eng = GpuLocalAssembler::new(
                DeviceConfig::v100().with_sanitizer(SanitizerConfig::full()),
                LocalAssemblyParams::for_tests(),
                version,
            );
            let (gpu, stats) = eng.extend_tasks(&tasks);
            assert_eq!(cpu, gpu, "{version:?} diverged under the sanitizer");
            assert!(stats.sanitizer.enabled, "summary must record the sanitizer ran");
            assert!(
                stats.sanitizer.is_clean(),
                "{version:?} must be finding-free:\n{}",
                stats.sanitizer.render()
            );
        }
    }

    #[test]
    fn sanitizer_counters_match_unsanitized_run() {
        use gpusim::SanitizerConfig;
        let tasks = make_test_tasks(4);
        let (_, plain) = engine(KernelVersion::V2).extend_tasks(&tasks);
        let mut eng = GpuLocalAssembler::new(
            DeviceConfig::v100().with_sanitizer(SanitizerConfig::full()),
            LocalAssemblyParams::for_tests(),
            KernelVersion::V2,
        );
        let (_, checked) = eng.extend_tasks(&tasks);
        // The sanitizer observes; it must not perturb the roofline inputs.
        assert_eq!(plain.counters.warp_insts(), checked.counters.warp_insts());
        assert_eq!(plain.counters.ldst_global_inst, checked.counters.ldst_global_inst);
    }

    #[test]
    fn roofline_report_is_populated() {
        let tasks = make_test_tasks(4);
        let mut eng = engine(KernelVersion::V2);
        let (_, stats) = eng.extend_tasks(&tasks);
        let report = stats.roofline("v2", eng.device().config());
        assert!(report.gips > 0.0);
        assert!(report.intensity_l1 > 0.0);
        assert!(report.predication_ratio > 0.0, "walk phase must predicate");
    }
}
