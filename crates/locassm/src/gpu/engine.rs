//! Batching, launching, and result unpacking — the paper's driver function
//! (§4.3) around the extension kernels.
//!
//! Tasks with zero candidate reads (bin 1) are answered host-side without
//! touching the device. Remaining tasks are packed into batches sized
//! against a device-memory budget (the "Estimate table sizes → Create
//! batches" boxes of Figure 4) and launched one batch per kernel.
//!
//! A batch that fails on the device — it does not fit in device memory, an
//! output record is corrupt, or the kernel panics — marks the device
//! failed: that batch and every later one run on the CPU engine
//! ([`extend_all_cpu_isolated`]), which computes the same extensions.

use crate::binning::bin_tasks;
use crate::cpu::extend_all_cpu_isolated;
use crate::gpu::kernel::{extension_kernel_v2, KernelVersion};
use crate::gpu::kernel_v1::extension_kernel_v1;
use crate::gpu::layout;
use crate::gpu::pack::{estimate_task_words, pack_batch};
use crate::params::{LocalAssemblyParams, WalkState};
use crate::task::{ExtResult, ExtTask, TaskOutcome};
use bioseq::DnaSeq;
use gpusim::{Counters, Device, DeviceConfig, RooflineReport, SanitizerSummary};
use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Execution statistics for a GPU local-assembly run.
#[derive(Debug, Clone, Default)]
pub struct GpuRunStats {
    /// Kernel launches completed successfully, one per batch.
    pub launches: u64,
    /// Tasks executed on the device (bins 2+3, minus those the CPU fallback
    /// ran).
    pub device_tasks: usize,
    /// Tasks answered host-side (bin 1).
    pub zero_tasks: usize,
    /// Aggregate device counters.
    pub counters: Counters,
    /// Simulated device seconds (kernels + launch overheads).
    pub seconds: f64,
    /// Modeled host seconds spent packing batches (CPU-side data packing +
    /// H2D of Figure 4, charged at [`DEFAULT_PACK_WORDS_PER_S`]).
    pub pack_s: f64,
    /// Seconds of `pack_s` hidden under kernel execution by the
    /// double-buffered pipeline (pack batch N+1 while batch N executes).
    pub overlap_saved_s: f64,
    /// Peak device words used by any batch.
    pub peak_mem_words: u64,
    /// Tasks the CPU engine ran in the device's place: every task of the
    /// failed batch and of the batches after it, plus any single task too
    /// large for the device. A task whose CPU run panics is counted here and
    /// is also a [`TaskOutcome::Failed`].
    pub cpu_fallback_tasks: usize,
    /// A batch failed on the device (out of memory, corrupt output or a
    /// panicking kernel); it and every later batch of the run went to the
    /// CPU fallback.
    pub device_failed: bool,
    /// `gpucheck` findings drained from the device (empty and disabled
    /// unless the device was configured with a sanitizer).
    pub sanitizer: SanitizerSummary,
}

impl GpuRunStats {
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
        self.device_tasks += other.device_tasks;
        self.zero_tasks += other.zero_tasks;
        self.counters.merge(&other.counters);
        self.seconds += other.seconds;
        self.pack_s += other.pack_s;
        self.overlap_saved_s += other.overlap_saved_s;
        self.peak_mem_words = self.peak_mem_words.max(other.peak_mem_words);
        self.cpu_fallback_tasks += other.cpu_fallback_tasks;
        self.device_failed |= other.device_failed;
        self.sanitizer.absorb(&other.sanitizer);
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
            pending_exec_s: 0.0,
        }
    }

    /// Access the underlying simulated device (launch count, config).
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

    /// Extend every task, reporting per-task outcomes. After a device
    /// failure the rest of the run goes to the CPU fallback, panic-isolated
    /// per task: a task is [`TaskOutcome::Failed`] only when its CPU run
    /// panics too. Takes owned or borrowed tasks, so schedulers can hand
    /// out shares by index without deep-cloning task data (reads included)
    /// per engine.
    pub fn extend_tasks_outcomes<T: Borrow<ExtTask>>(
        &mut self,
        tasks: &[T],
    ) -> (Vec<TaskOutcome>, GpuRunStats) {
        let tasks: Vec<&ExtTask> = tasks.iter().map(Borrow::borrow).collect();
        let bins = bin_tasks(&tasks);
        let mut results: Vec<Option<TaskOutcome>> = vec![None; tasks.len()];
        for &i in &bins.zero {
            results[i] = Some(TaskOutcome::Done(ExtResult::empty()));
        }

        let mut stats = GpuRunStats { zero_tasks: bins.zero.len(), ..Default::default() };

        // Bin 3 first, then bin 2.
        let order: Vec<usize> = bins.large.iter().chain(bins.small.iter()).copied().collect();
        let budget = (self.device.config().capacity_words() as f64 * self.mem_budget_frac) as u64;

        // Greedy batching under the memory budget. A single task too large
        // for the whole device goes to the CPU fallback (degrade, don't
        // abort).
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut on_cpu: Vec<usize> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_words: u64 = 0;
        for &i in &order {
            let w = estimate_task_words(tasks[i], &self.params);
            if w > budget {
                on_cpu.push(i);
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

        for batch in batches {
            if !stats.device_failed {
                let batch_tasks: Vec<&ExtTask> = batch.iter().map(|&i| tasks[i]).collect();
                let run =
                    catch_unwind(AssertUnwindSafe(|| self.try_batch(&batch_tasks, &mut stats)));
                if let Ok(Some(outs)) = run {
                    stats.device_tasks += batch.len();
                    for (&i, out) in batch.iter().zip(outs) {
                        results[i] = Some(TaskOutcome::Done(out));
                    }
                    continue;
                }
                stats.device_failed = true;
            }
            on_cpu.extend(batch);
        }
        let share: Vec<&ExtTask> = on_cpu.iter().map(|&i| tasks[i]).collect();
        for (&i, outcome) in on_cpu.iter().zip(extend_all_cpu_isolated(&share, &self.params)) {
            results[i] = Some(outcome);
        }
        stats.cpu_fallback_tasks = on_cpu.len();

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

    /// One device attempt: pack, launch, and unpack one batch. `None` when
    /// the batch does not fit in device memory or an output record is
    /// corrupt; a panicking kernel unwinds out of here.
    fn try_batch(
        &mut self,
        batch_tasks: &[&ExtTask],
        stats: &mut GpuRunStats,
    ) -> Option<Vec<ExtResult>> {
        self.device.reset_mem();
        let batch = pack_batch(&mut self.device, batch_tasks, &self.params).ok()?;
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
        };
        stats.launches += 1;
        stats.counters.merge(&launch.counters);
        let exec_s = launch.timing.total_seconds();
        stats.seconds += exec_s;
        // Double-buffer model: this batch was packed on the host while the
        // previous batch's kernel was still executing, so up to
        // `pending_exec_s` of the pack cost is hidden.
        let pack_s = self.device.mem_used_words() as f64 / DEFAULT_PACK_WORDS_PER_S;
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
                return None;
            }
            let (state, iterations) = layout::decode_out_header(rec[1]);
            let final_state = WalkState::from_u64(state)?;
            let mut appended = DnaSeq::with_capacity(n_app);
            for i in 0..n_app {
                let word = rec[2 + i / 32];
                appended.push_code(((word >> (2 * (i % 32))) & 3) as u8);
            }
            out.push(ExtResult { appended, final_state, iterations });
        }
        Some(out)
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
        GpuLocalAssembler::new(DeviceConfig::v100(), LocalAssemblyParams::default(), version)
    }

    #[test]
    fn gpu_v2_matches_cpu() {
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::default();
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
        let params = LocalAssemblyParams::default();
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
        assert!(stats.launches > 1, "expected multiple batches, got {}", stats.launches);
        let params = LocalAssemblyParams::default();
        let cpu = extend_all_cpu(&tasks, &params);
        assert_eq!(cpu, gpu, "batch splitting must not change results");
    }

    /// A k above the device layout's limit makes the kernel panic inside
    /// its launch. The engine marks the device failed and every batch runs
    /// on the CPU engine, which accepts that k, so the extensions still
    /// match the CPU reference.
    #[test]
    fn kernel_panic_falls_back_to_cpu() {
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams {
            k_list: vec![21, layout::MAX_DEVICE_K + 5],
            start_k_idx: 1,
            ..LocalAssemblyParams::default()
        };
        let cpu = extend_all_cpu(&tasks, &params);
        let mut eng = GpuLocalAssembler::new(DeviceConfig::v100(), params, KernelVersion::V2);
        // Tiny batches: the batches after the failing one must skip the
        // device too.
        eng.mem_budget_frac = 0.0001;
        let (outcomes, stats) = eng.extend_tasks_outcomes(&tasks);
        assert!(outcomes.iter().all(|o| !o.is_failed()), "the CPU fallback completes every task");
        let gpu: Vec<ExtResult> = outcomes.into_iter().map(TaskOutcome::into_result).collect();
        assert_eq!(cpu, gpu);
        assert!(gpu.iter().any(|r| !r.appended.is_empty()), "the k=21 walks extend");
        assert!(stats.device_failed);
        assert_eq!(stats.launches, 0, "no launch completed");
        assert_eq!(eng.device().launches(), 1, "the first failure ends the device's run");
        assert_eq!(stats.device_tasks, 0);
        assert_eq!(stats.cpu_fallback_tasks, tasks.len() - stats.zero_tasks);
    }

    #[test]
    fn sanitized_runs_stay_clean_and_match_cpu() {
        let tasks = make_test_tasks(8);
        let params = LocalAssemblyParams::default();
        let cpu = extend_all_cpu(&tasks, &params);
        for version in [KernelVersion::V1, KernelVersion::V2] {
            let mut eng = GpuLocalAssembler::new(
                DeviceConfig::v100().with_sanitizer(),
                LocalAssemblyParams::default(),
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
        let tasks = make_test_tasks(4);
        for version in [KernelVersion::V1, KernelVersion::V2] {
            let (_, plain) = engine(version).extend_tasks(&tasks);
            let mut eng = GpuLocalAssembler::new(
                DeviceConfig::v100().with_sanitizer(),
                LocalAssemblyParams::default(),
                version,
            );
            let (_, checked) = eng.extend_tasks(&tasks);
            // The sanitizer observes; it must not perturb any roofline input.
            assert_eq!(plain.counters, checked.counters, "{version:?}");
        }
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
