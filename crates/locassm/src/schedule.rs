//! Work-stealing CPU/GPU overlap scheduler (paper §4.3, Figure 11).
//!
//! The paper's driver offloads bin 3 to the GPU and lets the CPU chew on
//! bin 2, handing *whatever remains* to whichever engine frees up first — a
//! dynamic split. This module reproduces that with a shared deque of
//! cost-estimated task batches:
//!
//! * batches are built from [`estimate_task_words`](crate::gpu::pack::estimate_task_words) costs — bin 3 sorted
//!   heaviest-first at the **head**, bin 2 dealt **size-interleaved** into
//!   tail batches (so no share is biased by binning order);
//! * the GPU engine drains the head (heaviest work first, the paper's
//!   scheduling), the CPU engine steals from the tail;
//! * whichever engine's clock is behind takes the next batch, so an early
//!   finisher absorbs the remainder — the CPU can steal leftover bin-3
//!   batches, the GPU can absorb leftover bin-2 batches.
//!
//! Because the GPU is a simulator, "time" here is **modeled**: the GPU
//! clock advances by [`GpuRunStats::wall_s`] (simulated kernel seconds plus
//! the modeled pack cost minus double-buffer savings) and the CPU clock is
//! the CPU share's estimated words over the fixed model rate
//! [`StealConfig::cpu_words_per_s`]. No measured time feeds either clock,
//! so the schedule is a pure function of the tasks and the configuration;
//! the host seconds the CPU engine really took are reported afterwards
//! ([`ScheduleReport::cpu_measured_s`]) and never fed back. Results are
//! index-aligned and byte-identical to [`crate::cpu::extend_all_cpu`]
//! regardless of who ran what (the engine-equivalence invariant).
//!
//! The paper's fixed split (bin 3 on the GPU, bin 2 on the CPU) is this
//! same runner at `batch_words: u64::MAX`: one heavy batch at the head,
//! one light batch at the tail, so the GPU takes bin 3 and the CPU takes
//! bin 2 (with no bin-3 tasks the GPU, first to move, takes the lone bin-2
//! batch).

use crate::binning::BinStats;
use crate::cpu::extend_cpu_isolated_refs;
use crate::gpu::pack::estimate_task_cost;
use crate::gpu::{GpuLocalAssembler, GpuRunStats, KernelVersion};
use crate::params::LocalAssemblyParams;
use crate::task::{ExtTask, TaskOutcome};
use gpusim::DeviceConfig;
use std::time::Instant;

/// Knobs of the work-stealing scheduler.
#[derive(Debug, Clone)]
pub struct StealConfig {
    /// Steal granularity: target estimated device-words per batch. Smaller
    /// batches balance better but pay more per-launch overhead. `u64::MAX`
    /// gives the paper's fixed split: one bin-3 batch and one bin-2 batch.
    pub batch_words: u64,
    /// Modeled CPU-engine throughput in estimated words per second: the
    /// CPU clock reads `cpu_est_words / cpu_words_per_s`. The default is
    /// the CPU engine's measured throughput on a 2-core host (DESIGN §12);
    /// it is a model input, never updated during a run.
    pub cpu_words_per_s: f64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig { batch_words: 64 * 1024, cpu_words_per_s: 2.8e7 }
    }
}

/// One deque entry: an index share into the caller's task slice.
#[derive(Debug, Clone)]
pub struct TaskBatch {
    /// Task indices (into the scheduler's input slice).
    pub idx: Vec<usize>,
    /// Total estimated device words (the batch's cost).
    pub est_words: u64,
    /// True for bin-3 (head-end) batches.
    pub heavy: bool,
}

/// What the scheduler did: share sizes, steal counts, and the modeled
/// makespan, with the CPU engine's measured seconds alongside.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleReport {
    /// Batches handed out.
    pub batches: usize,
    /// Batches the GPU engine drained from the head.
    pub gpu_batches: usize,
    /// Batches the CPU engine stole from the tail.
    pub cpu_batches: usize,
    /// Heavy (bin-3) batches the CPU stole — dynamic rebalance the paper's
    /// fixed split can never do.
    pub cpu_stole_heavy: usize,
    /// Light (bin-2) batches the GPU absorbed after draining bin 3.
    pub gpu_absorbed_light: usize,
    /// Estimated words executed by the CPU share.
    pub cpu_est_words: u64,
    /// Estimated words executed by the GPU share.
    pub gpu_est_words: u64,
    /// The modeled CPU rate the run was priced at (words/s).
    pub cpu_words_per_s: f64,
    /// CPU clock at the end of the run (modeled seconds):
    /// `cpu_est_words / cpu_words_per_s`.
    pub cpu_model_s: f64,
    /// GPU clock at the end of the run (simulated + pack seconds).
    pub gpu_model_s: f64,
    /// Host wall seconds the CPU engine spent on its share (measured).
    pub cpu_measured_s: f64,
    /// CPU-model error against measured CPU time
    /// ([`ScheduleReport::cpu_model_err`]). The field exists only because
    /// the perfbench harness reads `calibration.rel_err_vs_realized`; the
    /// benchmark change of ROADMAP item 1 removes it.
    pub calibration: Option<ModelError>,
}

/// How far the CPU clock's modeled seconds sit from the CPU engine's
/// measured seconds, reported after the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelError {
    /// [`ScheduleReport::cpu_model_err`] at the end of the run.
    pub rel_err_vs_realized: f64,
}

impl ScheduleReport {
    /// Modeled overlap makespan: both engines run concurrently, so the run
    /// ends when the slower clock does.
    pub fn makespan_model_s(&self) -> f64 {
        self.cpu_model_s.max(self.gpu_model_s)
    }

    /// CPU-model error against measured CPU time:
    /// |`cpu_model_s` − `cpu_measured_s`| / `cpu_measured_s`, and 0 when
    /// the CPU ran nothing.
    pub fn cpu_model_err(&self) -> f64 {
        if self.cpu_measured_s > 0.0 {
            (self.cpu_model_s - self.cpu_measured_s).abs() / self.cpu_measured_s
        } else {
            0.0
        }
    }

    /// Word-share balance: `min(cpu, gpu) / max(cpu, gpu)` estimated words
    /// (1.0 = perfectly even shares, 0.0 = one engine idle).
    pub fn word_balance(&self) -> f64 {
        let (lo, hi) = if self.cpu_est_words <= self.gpu_est_words {
            (self.cpu_est_words, self.gpu_est_words)
        } else {
            (self.gpu_est_words, self.cpu_est_words)
        };
        if hi == 0 {
            return 1.0;
        }
        lo as f64 / hi as f64
    }
}

/// Build the deque: bin-3 batches heaviest-first at the head, bin-2 dealt
/// size-interleaved into tail batches of ≈`batch_words` each.
pub fn build_batches(
    tasks: &[ExtTask],
    bins: &BinStats,
    params: &LocalAssemblyParams,
    batch_words: u64,
) -> Vec<TaskBatch> {
    let batch_words = batch_words.max(1);
    let cost = |i: usize| estimate_task_cost(&tasks[i], params);

    // Head: bin 3, heaviest first, greedy-filled up to the granularity (a
    // single oversized task forms its own batch — the engine's internal
    // memory batching still protects the device).
    let mut large: Vec<(u64, usize)> = bins.large.iter().map(|&i| (cost(i), i)).collect();
    large.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut batches: Vec<TaskBatch> = Vec::new();
    let mut cur = TaskBatch { idx: Vec::new(), est_words: 0, heavy: true };
    for (w, i) in large {
        if !cur.idx.is_empty() && cur.est_words + w > batch_words {
            batches.push(std::mem::replace(
                &mut cur,
                TaskBatch { idx: Vec::new(), est_words: 0, heavy: true },
            ));
        }
        cur.idx.push(i);
        cur.est_words += w;
    }
    if !cur.idx.is_empty() {
        batches.push(cur);
    }

    // Tail: bin 2, dealt in descending size order into whichever of the K
    // batches is currently lightest (greedy LPT), so every batch carries a
    // comparable words total and a mix of sizes. A plain `j % k` deal here
    // biased batch 0: with items sorted descending it collected the larger
    // item of every round, so the first-dealt batch systematically
    // outweighed the last.
    let mut small: Vec<(u64, usize)> = bins.small.iter().map(|&i| (cost(i), i)).collect();
    if !small.is_empty() {
        small.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let total: u64 = small.iter().map(|(w, _)| w).sum();
        let k = (total.div_ceil(batch_words) as usize).clamp(1, small.len());
        let mut light: Vec<TaskBatch> =
            (0..k).map(|_| TaskBatch { idx: Vec::new(), est_words: 0, heavy: false }).collect();
        for (w, i) in small {
            let mut best = 0;
            for b in 1..k {
                if light[b].est_words < light[best].est_words {
                    best = b;
                }
            }
            light[best].idx.push(i);
            light[best].est_words += w;
        }
        batches.extend(light);
    }
    batches
}

/// Everything a work-stealing run hands back to the driver.
pub(crate) struct StealRun {
    pub report: ScheduleReport,
    pub gpu_stats: Option<GpuRunStats>,
    /// The GPU engine branch panicked; its popped batch and the rest of the
    /// deque were absorbed by the CPU engine.
    pub gpu_branch_fell_back: bool,
    /// Host wall seconds spent driving the GPU engine (simulation cost).
    pub gpu_wall_s: f64,
    /// Tasks executed by the CPU engine.
    pub cpu_tasks: usize,
    /// Tasks executed by the GPU engine.
    pub gpu_tasks: usize,
}

/// Drain the deque with two engines under modeled clocks, writing per-task
/// outcomes into `results` (index-aligned with `tasks`).
pub(crate) fn run_work_steal(
    tasks: &[ExtTask],
    batches: &[TaskBatch],
    params: &LocalAssemblyParams,
    device: DeviceConfig,
    version: KernelVersion,
    cfg: &StealConfig,
    results: &mut [Option<TaskOutcome>],
) -> StealRun {
    let mut engine = GpuLocalAssembler::new(device, params.clone(), version);
    let mut report = ScheduleReport {
        batches: batches.len(),
        cpu_words_per_s: cfg.cpu_words_per_s,
        ..Default::default()
    };
    let mut gpu_stats = GpuRunStats::default();
    let mut gpu_ran = false;
    let mut gpu_dead = false;
    let mut fell_back = false;
    let mut gpu_wall = 0.0f64;
    let (mut cpu_tasks, mut gpu_tasks) = (0usize, 0usize);
    // The deque proper, as two cursors over the built batches: the GPU
    // pops the heavy head, the CPU pops the light tail.
    let (mut head, mut tail) = (0usize, batches.len());

    while head < tail {
        // The engine whose modeled clock is behind takes the next batch;
        // the GPU from the heavy head, the CPU from the light tail. Ties go
        // to the GPU (the paper launches the GPU first).
        let gpu_turn = !gpu_dead && report.gpu_model_s <= report.cpu_model_s;
        let batch = if gpu_turn {
            head += 1;
            &batches[head - 1]
        } else {
            tail -= 1;
            &batches[tail]
        };

        if gpu_turn {
            let refs: Vec<&ExtTask> = batch.idx.iter().map(|&i| &tasks[i]).collect();
            let t = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.extend_tasks_outcomes_ref(&refs)
            }));
            gpu_wall += t.elapsed().as_secs_f64();
            match run {
                Ok((outcomes, stats)) => {
                    for (&i, outcome) in batch.idx.iter().zip(outcomes) {
                        results[i] = Some(outcome);
                    }
                    report.gpu_model_s += stats.wall_s();
                    if stats.recovery.device_lost {
                        // Reset budget exhausted: route the rest of the
                        // deque to the CPU instead of the per-task fallback.
                        gpu_dead = true;
                    }
                    gpu_stats.absorb(&stats);
                    gpu_ran = true;
                    gpu_tasks += batch.idx.len();
                    report.gpu_batches += 1;
                    report.gpu_est_words += batch.est_words;
                    if !batch.heavy {
                        report.gpu_absorbed_light += 1;
                    }
                }
                Err(_panic) => {
                    // Engine bug (device faults are absorbed by the
                    // ladder): the popped batch re-runs on the CPU and the
                    // deque drains CPU-side from here on.
                    gpu_dead = true;
                    fell_back = true;
                    run_batch_cpu(tasks, batch, params, results, &mut report);
                    cpu_tasks += batch.idx.len();
                }
            }
        } else {
            run_batch_cpu(tasks, batch, params, results, &mut report);
            cpu_tasks += batch.idx.len();
        }
    }

    report.calibration = Some(ModelError { rel_err_vs_realized: report.cpu_model_err() });
    StealRun {
        report,
        gpu_stats: gpu_ran.then_some(gpu_stats),
        gpu_branch_fell_back: fell_back,
        gpu_wall_s: gpu_wall,
        cpu_tasks,
        gpu_tasks,
    }
}

/// Run one batch on the CPU engine, adding its estimated words, its modeled
/// seconds and its measured host wall seconds to the report.
fn run_batch_cpu(
    tasks: &[ExtTask],
    batch: &TaskBatch,
    params: &LocalAssemblyParams,
    results: &mut [Option<TaskOutcome>],
    report: &mut ScheduleReport,
) {
    let refs: Vec<&ExtTask> = batch.idx.iter().map(|&i| &tasks[i]).collect();
    let t = Instant::now();
    let outcomes = extend_cpu_isolated_refs(&refs, params);
    report.cpu_measured_s += t.elapsed().as_secs_f64();
    for (&i, outcome) in batch.idx.iter().zip(outcomes) {
        results[i] = Some(outcome);
    }
    report.cpu_batches += 1;
    report.cpu_est_words += batch.est_words;
    report.cpu_model_s = report.cpu_est_words as f64 / report.cpu_words_per_s;
    if batch.heavy {
        report.cpu_stole_heavy += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::bin_tasks;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn task_with_reads(i: usize, n_reads: usize) -> ExtTask {
        let genome = random_seq(300, 40_000 + i as u64);
        let reads = (0..n_reads)
            .map(|r| {
                Read::with_uniform_qual(
                    format!("t{i}r{r}"),
                    genome.subseq(40 + (r * 11) % 150, 70),
                    35,
                )
            })
            .collect();
        ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 100), reads }
    }

    #[test]
    fn batches_cover_all_nonzero_tasks_once() {
        let tasks: Vec<ExtTask> = (0..30).map(|i| task_with_reads(i, [0, 3, 25][i % 3])).collect();
        let params = LocalAssemblyParams::for_tests();
        let bins = bin_tasks(&tasks);
        let batches = build_batches(&tasks, &bins, &params, 8 * 1024);
        let mut seen: Vec<usize> = batches.iter().flat_map(|b| b.idx.iter().copied()).collect();
        seen.sort_unstable();
        let mut expect: Vec<usize> = bins.small.iter().chain(bins.large.iter()).copied().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "every bin-2/3 task scheduled exactly once");
        // Heavy batches lead; light batches follow.
        let first_light = batches.iter().position(|b| !b.heavy).unwrap();
        assert!(batches[..first_light].iter().all(|b| b.heavy));
        assert!(batches[first_light..].iter().all(|b| !b.heavy));
    }

    #[test]
    fn light_batches_are_size_interleaved() {
        // Sizes span 1..=9 reads; dealing must spread them so batch totals
        // are comparable even though binning order is ascending-by-size.
        let tasks: Vec<ExtTask> = (0..40).map(|i| task_with_reads(i, 1 + i % 9)).collect();
        let params = LocalAssemblyParams::for_tests();
        let bins = bin_tasks(&tasks);
        let batches = build_batches(&tasks, &bins, &params, 16 * 1024);
        let light: Vec<&TaskBatch> = batches.iter().filter(|b| !b.heavy).collect();
        assert!(light.len() > 1, "want several light batches, got {}", light.len());
        let max = light.iter().map(|b| b.est_words).max().unwrap();
        let min = light.iter().map(|b| b.est_words).min().unwrap();
        assert!(
            (min as f64) > 0.5 * max as f64,
            "light batch totals must be comparable: min {min} vs max {max}"
        );
    }

    #[test]
    fn report_balance_and_makespan() {
        let r = ScheduleReport {
            cpu_est_words: 80,
            gpu_est_words: 100,
            cpu_model_s: 2.0,
            gpu_model_s: 1.5,
            ..Default::default()
        };
        assert!((r.word_balance() - 0.8).abs() < 1e-12);
        assert_eq!(r.makespan_model_s(), 2.0);
        assert_eq!(ScheduleReport::default().word_balance(), 1.0);
    }
}
