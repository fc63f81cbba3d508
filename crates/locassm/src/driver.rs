//! The CPU/GPU overlap driver of §4.3 (Figure 11).
//!
//! MetaHipMer2 launches the driver function in a separate thread so that,
//! while the GPU chews on bin 3 (the few contigs with the most candidate
//! reads), the CPU keeps extending bin-2 contigs; whatever bin-2 work
//! remains when the GPU returns is offloaded too — a *dynamic* handoff.
//!
//! The deque scheduler of [`crate::schedule`] reproduces that:
//! cost-estimated batches, the GPU drains the bin-3-first head, the CPU
//! steals from the bin-2 tail, and whichever engine is behind on its
//! modeled clock takes the next batch. The paper's fixed split is the same
//! runner at `batch_words: u64::MAX`.
//!
//! Functional output is engine-independent (the equivalence tests
//! guarantee it), so the schedule is purely a performance knob — exactly
//! as in the paper. Tasks are shared with both engines by index; they are
//! never deep-cloned per engine.

use crate::binning::bin_tasks;
use crate::cpu::extend_all_cpu_isolated;
use crate::gpu::{GpuLocalAssembler, GpuRunStats, KernelVersion};
use crate::params::LocalAssemblyParams;
use crate::schedule::{build_batches, ModelError, ScheduleReport, StealConfig};
use crate::task::{ExtResult, ExtTask, TaskOutcome};
use gpusim::DeviceConfig;
use std::time::Instant;

/// Why an overlapped run could not produce results at all. Per-task
/// failures do NOT produce this — they degrade to skipped tasks, counted
/// in [`OverlapOutcome::failed_tasks`].
#[derive(Debug, Clone, PartialEq)]
pub enum DriverError {
    /// An engine returned the wrong number of results for its task split —
    /// an internal invariant violation, not a recoverable device fault.
    ResultMismatch {
        /// Results the split said the engine should produce.
        expected: usize,
        /// Results the engine actually returned.
        got: usize,
    },
    /// The driver was configured with an out-of-domain knob (zero batch
    /// granularity, non-positive or non-finite rate).
    /// Rejected up front rather than silently misrouting work.
    BadConfig {
        /// Which knob was rejected, and why.
        what: String,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::ResultMismatch { expected, got } => {
                write!(f, "engine returned {got} results for {expected} tasks")
            }
            DriverError::BadConfig { what } => write!(f, "bad driver config: {what}"),
        }
    }
}

impl std::error::Error for DriverError {}

/// How bin-2/bin-3 work is divided between the engines.
#[derive(Debug, Clone)]
pub enum SchedulePolicy {
    /// Deque work-stealing with cost-estimated batches.
    WorkSteal(StealConfig),
}

/// Outcome of an overlapped run.
#[derive(Debug, Default)]
pub struct OverlapOutcome {
    /// Results, index-aligned with the input tasks.
    pub results: Vec<ExtResult>,
    /// Tasks answered host-side with no work (bin 1).
    pub zero_tasks: usize,
    /// Tasks the CPU engine handled.
    pub cpu_tasks: usize,
    /// Tasks the GPU engine handled, those its CPU fallback ran included.
    pub gpu_tasks: usize,
    /// Tasks whose CPU run panicked, on the CPU engine or the GPU engine's
    /// CPU fallback, and were skipped (their contigs keep their current
    /// sequence).
    pub failed_tasks: usize,
    /// Host wall seconds of the CPU side.
    pub cpu_wall_s: f64,
    /// Host wall seconds spent driving the GPU side (simulation cost).
    pub gpu_wall_s: f64,
    /// Simulated device stats of the GPU side.
    pub gpu_stats: Option<GpuRunStats>,
    /// What the scheduler did (shares, steals, virtual-clock model).
    pub schedule: ScheduleReport,
}

/// The overlap driver.
pub struct OverlapDriver {
    /// Simulated device the GPU engine runs on.
    pub device: DeviceConfig,
    /// Kernel version the GPU engine launches.
    pub version: KernelVersion,
    /// Scheduling policy.
    pub schedule: SchedulePolicy,
}

impl Default for OverlapDriver {
    fn default() -> Self {
        OverlapDriver {
            device: DeviceConfig::v100(),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(StealConfig::default()),
        }
    }
}

impl OverlapDriver {
    fn validate(cfg: &StealConfig) -> Result<(), DriverError> {
        if cfg.batch_words == 0 {
            return Err(DriverError::BadConfig { what: "batch_words must be >= 1".to_string() });
        }
        if !cfg.cpu_words_per_s.is_finite() || cfg.cpu_words_per_s <= 0.0 {
            return Err(DriverError::BadConfig {
                what: format!(
                    "cpu_words_per_s must be positive and finite, got {}",
                    cfg.cpu_words_per_s
                ),
            });
        }
        Ok(())
    }

    /// Run all tasks with CPU/GPU overlap.
    ///
    /// A batch the device fails runs on the GPU engine's CPU fallback, and
    /// the rest of the deque then drains to the CPU engine. Both run tasks
    /// with per-task panic isolation, so a single bad task is skipped,
    /// never fatal.
    pub fn run(
        &self,
        tasks: &[ExtTask],
        params: &LocalAssemblyParams,
    ) -> Result<OverlapOutcome, DriverError> {
        let SchedulePolicy::WorkSteal(cfg) = &self.schedule;
        Self::validate(cfg)?;
        let bins = bin_tasks(tasks);
        let mut results: Vec<Option<TaskOutcome>> = vec![None; tasks.len()];
        for &i in &bins.zero {
            results[i] = Some(TaskOutcome::Done(ExtResult::empty()));
        }
        let batches = build_batches(tasks, &bins, params, cfg.batch_words);
        let mut out = OverlapOutcome {
            zero_tasks: bins.zero.len(),
            schedule: ScheduleReport { cpu_words_per_s: cfg.cpu_words_per_s, ..Default::default() },
            ..Default::default()
        };
        let mut engine = GpuLocalAssembler::new(self.device.clone(), params.clone(), self.version);
        let mut gpu_dead = false;
        // The deque proper, as two cursors over the built batches: the GPU
        // pops the heavy head, the CPU pops the light tail.
        let (mut head, mut tail) = (0usize, batches.len());

        while head < tail {
            // The engine whose modeled clock is behind takes the next batch;
            // the GPU from the heavy head, the CPU from the light tail. Ties
            // go to the GPU (the paper launches the GPU first).
            let gpu_turn = !gpu_dead && out.schedule.gpu_model_s <= out.schedule.cpu_model_s;
            let batch = if gpu_turn {
                head += 1;
                &batches[head - 1]
            } else {
                tail -= 1;
                &batches[tail]
            };
            let share: Vec<&ExtTask> = batch.idx.iter().map(|&i| &tasks[i]).collect();

            if gpu_turn {
                let t = Instant::now();
                let (outcomes, stats) = engine.extend_tasks_outcomes(&share);
                out.gpu_wall_s += t.elapsed().as_secs_f64();
                for (&i, outcome) in batch.idx.iter().zip(outcomes) {
                    results[i] = Some(outcome);
                }
                let sched = &mut out.schedule;
                sched.gpu_model_s += stats.wall_s();
                sched.gpu_batches += 1;
                sched.gpu_est_words += batch.est_words;
                if !batch.heavy {
                    sched.gpu_absorbed_light += 1;
                }
                // The device failed this batch: route the rest of the deque
                // to the CPU engine.
                gpu_dead = stats.device_failed;
                out.gpu_stats.get_or_insert_with(GpuRunStats::default).absorb(&stats);
                out.gpu_tasks += batch.idx.len();
                continue;
            }

            // The CPU engine: its modeled clock advances by the batch's
            // estimated words; its measured host seconds are only reported.
            let t = Instant::now();
            let outcomes = extend_all_cpu_isolated(&share, params);
            out.cpu_wall_s += t.elapsed().as_secs_f64();
            for (&i, outcome) in batch.idx.iter().zip(outcomes) {
                results[i] = Some(outcome);
            }
            let sched = &mut out.schedule;
            sched.cpu_batches += 1;
            sched.cpu_est_words += batch.est_words;
            sched.cpu_model_s = sched.cpu_est_words as f64 / sched.cpu_words_per_s;
            if batch.heavy {
                sched.cpu_stole_heavy += 1;
            }
            out.cpu_tasks += batch.idx.len();
        }
        out.schedule.cpu_measured_s = out.cpu_wall_s;
        out.schedule.calibration =
            Some(ModelError { rel_err_vs_realized: out.schedule.cpu_model_err() });

        let mut missing = 0usize;
        out.results = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let outcome = r.unwrap_or_else(|| {
                    missing += 1;
                    TaskOutcome::Failed {
                        contig: tasks[i].contig,
                        reason: "task was never scheduled".to_string(),
                    }
                });
                if outcome.is_failed() {
                    out.failed_tasks += 1;
                }
                outcome.into_result()
            })
            .collect();
        if missing > 0 {
            return Err(DriverError::ResultMismatch {
                expected: tasks.len(),
                got: tasks.len() - missing,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::extend_all_cpu;
    use crate::task::ContigEnd;
    use bioseq::{DnaSeq, Read};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_seq(len: usize, sd: u64) -> DnaSeq {
        let mut rng = StdRng::seed_from_u64(sd);
        (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
    }

    fn tasks_with_mixed_bins() -> Vec<ExtTask> {
        let mut tasks = Vec::new();
        for i in 0..24 {
            let genome = random_seq(400, 500 + i as u64);
            let n_reads = match i % 3 {
                0 => 0,
                1 => 4,
                _ => 14,
            };
            let reads = (0..n_reads)
                .map(|r| {
                    let start = 60 + (r * 13) % 200;
                    Read::with_uniform_qual(format!("t{i}r{r}"), genome.subseq(start, 80), 35)
                })
                .collect();
            tasks.push(ExtTask {
                contig: i,
                end: ContigEnd::Right,
                tail: genome.subseq(0, 120),
                reads,
            });
        }
        tasks
    }

    /// The paper's fixed split: one bin-3 batch for the GPU, one bin-2
    /// batch for the CPU.
    fn paper_split() -> OverlapDriver {
        OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: u64::MAX,
                ..Default::default()
            }),
            ..Default::default()
        }
    }

    #[test]
    fn work_steal_matches_pure_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let pure = extend_all_cpu(&tasks, &params);
        let outcome = OverlapDriver::default().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure);
        assert_eq!(outcome.zero_tasks, 8);
        assert_eq!(outcome.failed_tasks, 0);
        assert!(!outcome.gpu_stats.expect("gpu ran").device_failed);
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks + outcome.zero_tasks, tasks.len());
    }

    #[test]
    fn static_matches_pure_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let outcome = paper_split().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, extend_all_cpu(&tasks, &params));
        assert_eq!(outcome.schedule.batches(), 2, "one heavy and one light batch");
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks + outcome.zero_tasks, tasks.len());
    }

    /// The split's two granularity extremes — one task per batch, and the
    /// paper's one heavy plus one light batch — both reproduce the CPU
    /// reference; only the paper split pins bin 2 to the CPU.
    #[test]
    fn split_fraction_extremes() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let pure = extend_all_cpu(&tasks, &params);
        let finest = OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let outcome = finest.run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure, "one task per batch");
        assert_eq!(outcome.schedule.batches(), 16, "one batch per bin-2/3 task");
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks, 16);

        let outcome = paper_split().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, pure, "paper split");
        assert_eq!(outcome.cpu_tasks, 8, "the 8 bin-2 tasks run on the CPU");
        assert_eq!(outcome.gpu_tasks, 8, "the 8 bin-3 tasks run on the GPU");
        assert_eq!(outcome.schedule.gpu_absorbed_light, 0);
    }

    #[test]
    fn bin3_always_on_gpu_in_static_mode() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let outcome = paper_split().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.schedule.cpu_stole_heavy, 0);
        let stats = outcome.gpu_stats.expect("gpu ran");
        assert_eq!(stats.device_tasks, 8, "the 8 bin-3 tasks");
        assert!(stats.seconds > 0.0);
    }

    /// A k above the device layout's limit makes the kernel panic inside
    /// its launch. The GPU engine runs the popped batch on its CPU
    /// fallback, and the rest of the deque drains to the CPU engine, which
    /// accepts that k.
    #[test]
    fn gpu_panic_falls_back_to_cpu() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams {
            k_list: vec![21, crate::gpu::layout::MAX_DEVICE_K + 5],
            start_k_idx: 1,
            ..LocalAssemblyParams::default()
        };
        let outcome = OverlapDriver::default().run(&tasks, &params).expect("driver runs");
        assert_eq!(outcome.results, extend_all_cpu(&tasks, &params));
        assert!(outcome.results.iter().any(|r| !r.appended.is_empty()), "the k=21 walks extend");
        assert_eq!(outcome.failed_tasks, 0);
        let gpu = outcome.gpu_stats.as_ref().expect("the GPU engine took the first batch");
        assert!(gpu.device_failed);
        assert_eq!(gpu.launches, 0, "no launch completed");
        assert_eq!(gpu.cpu_fallback_tasks, outcome.gpu_tasks, "its one batch ran on the CPU");
        assert_eq!(outcome.schedule.gpu_batches, 1, "the GPU takes no batch after failing");
        assert_eq!(outcome.cpu_tasks + outcome.gpu_tasks + outcome.zero_tasks, tasks.len());
        let s = &outcome.schedule;
        assert_eq!(s.batches(), s.cpu_batches + s.gpu_batches);
    }

    #[test]
    fn bad_config_is_rejected() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let ws = |cfg: StealConfig| OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(cfg),
            ..Default::default()
        };
        let err = ws(StealConfig { batch_words: 0, ..Default::default() })
            .run(&tasks, &params)
            .expect_err("zero batch_words must be rejected");
        assert!(matches!(err, DriverError::BadConfig { .. }));
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = ws(StealConfig { cpu_words_per_s: rate, ..Default::default() })
                .run(&tasks, &params)
                .expect_err("bad cpu rate must be rejected");
            assert!(matches!(err, DriverError::BadConfig { .. }), "rate {rate}");
        }
    }

    #[test]
    fn double_buffer_saves_wall_seconds() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        // Small granularity so each heavy task is its own batch, and a
        // near-zero CPU rate so the GPU drains several batches —
        // double-buffer savings only accrue from batch 2 on.
        let out = OverlapDriver {
            schedule: SchedulePolicy::WorkSteal(StealConfig {
                batch_words: 2048,
                cpu_words_per_s: 1.0,
            }),
            ..Default::default()
        }
        .run(&tasks, &params)
        .expect("runs");
        assert_eq!(out.results, extend_all_cpu(&tasks, &params));
        let s = out.gpu_stats.expect("gpu ran");
        assert!(s.launches > 1, "want a multi-batch run, got {}", s.launches);
        assert!(s.overlap_saved_s > 0.0, "multi-batch run must overlap pack with exec");
        assert_eq!(s.wall_s(), s.seconds + s.pack_s - s.overlap_saved_s);
        assert!(s.wall_s() < s.seconds + s.pack_s);
    }

    #[test]
    fn default_schedule_is_deterministic() {
        let tasks = tasks_with_mixed_bins();
        let params = LocalAssemblyParams::default();
        let run = || OverlapDriver::default().run(&tasks, &params).expect("driver runs").schedule;
        let (a, b) = (run(), run());
        // Only the measured CPU seconds, and the model error derived from
        // them, may differ between the runs.
        let modeled = |r: &ScheduleReport| ScheduleReport {
            cpu_measured_s: 0.0,
            calibration: None,
            ..r.clone()
        };
        assert_eq!(modeled(&a), modeled(&b));
        assert_eq!(a.cpu_model_s.to_bits(), b.cpu_model_s.to_bits());
        assert_eq!(a.gpu_model_s.to_bits(), b.gpu_model_s.to_bits());
        assert!(a.batches() > 0, "the run must schedule batches");
    }
}
