//! Overlap-scheduler integration tests.
//!
//! The scheduler is a performance feature with a correctness contract: no
//! matter how tasks are split between the CPU and GPU engines — by the
//! paper's fixed split, by work stealing, or mid-flight after an injected
//! fault — the extension results must be byte-identical to the pure-CPU
//! reference, in task order. These tests drive that contract across
//! randomized task mixes and fault plans, and pin the load-balance claims:
//! LPT striping must balance a skew that defeats round-robin, and work
//! stealing must beat the paper's split on a skewed workload.

use bioseq::{DnaSeq, Read};
use gpusim::{DeviceConfig, Fault, FaultPlan};
use locassm::gpu::pack::{estimate_task_cost, estimate_task_words};
use locassm::gpu::{stripe_lpt, GpuLocalAssembler, KernelVersion};
use locassm::{
    bin_tasks, build_batches, extend_all_cpu, ContigEnd, ExtTask, LocalAssemblyParams,
    OverlapDriver, SchedulePolicy, StealConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(len: usize, rng: &mut StdRng) -> DnaSeq {
    (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
}

/// Deterministic task list from a per-task read-count spec: count 0 lands in
/// bin 1, counts below `BIN2_LIMIT` in bin 2, the rest in bin 3.
fn tasks_from_counts(counts: &[usize], seed: u64) -> Vec<ExtTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    counts
        .iter()
        .enumerate()
        .map(|(i, &n_reads)| {
            let genome = random_seq(560, &mut rng);
            let reads = (0..n_reads)
                .map(|r| {
                    Read::with_uniform_qual(
                        format!("t{i}r{r}"),
                        genome.subseq(55 + (r * 17) % 320, 90),
                        35,
                    )
                })
                .collect();
            ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 130), reads }
        })
        .collect()
}

/// The paper's fixed split: one bin-3 batch for the GPU, one bin-2 batch
/// for the CPU, the CPU priced at `cpu_words_per_s`.
fn paper_split(cpu_words_per_s: f64) -> StealConfig {
    StealConfig { batch_words: u64::MAX, cpu_words_per_s }
}

fn fault_plan(kind: usize) -> FaultPlan {
    match kind {
        0 => FaultPlan::default(),
        1 => FaultPlan {
            faults: vec![
                Fault::SlabOom { at_alloc: 0 },
                Fault::KernelHang { at_launch: 1, after_cycles: 5_000 },
            ],
        },
        // A hang storm that exhausts the reset budget: the device is lost
        // mid-schedule and the CPU must absorb the remaining batches.
        _ => FaultPlan {
            faults: (0..64)
                .map(|i| Fault::KernelHang { at_launch: i, after_cycles: 100 })
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Work stealing must reproduce the pure-CPU reference byte-for-byte
    /// across arbitrary bin mixes, steal granularities, CPU rates 100×
    /// apart, and fault plans — including plans that kill the device
    /// partway through the deque. Whatever the mix, the CPU clock is the
    /// CPU share's words at the configured rate, exactly.
    #[test]
    fn work_steal_is_byte_identical_across_mixes_and_faults(
        counts in proptest::collection::vec(0usize..=24, 1..=28),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        batch_words in (0usize..3).prop_map(|i| [2u64 * 1024, 16 * 1024, 64 * 1024][i]),
        rate in (0usize..3).prop_map(|i| [5.0e4f64, 5.0e6, 5.0e8][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);

        let driver = OverlapDriver {
            device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(StealConfig { batch_words, cpu_words_per_s: rate }),
        };
        let out = driver.run(&tasks, &params).expect("driver must not error");
        prop_assert_eq!(&out.results, &reference);
        prop_assert_eq!(out.schedule.cpu_model_s, out.schedule.cpu_est_words as f64 / rate);
        // Every task is accounted for on exactly one engine (bin-1 tasks
        // are finished on the host before the deque is built).
        let binned = locassm::bin_tasks(&tasks);
        prop_assert_eq!(
            out.cpu_tasks + out.gpu_tasks,
            tasks.len() - binned.zero.len()
        );
    }

    /// The paper's fixed split must also hold the identity contract under
    /// faults, whatever the CPU is priced at — the recovery ladder and the
    /// panic fallback both end at the same CPU reference code.
    #[test]
    fn static_split_is_byte_identical_across_fractions_and_faults(
        counts in proptest::collection::vec(0usize..=24, 1..=20),
        seed in 0u64..1_000,
        fault_kind in 0usize..3,
        cpu_words_per_s in (0usize..3).prop_map(|i| [1.0e3f64, 1.0e6, 1.0e9][i]),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);

        let driver = OverlapDriver {
            device: DeviceConfig::tiny().with_fault_plan(fault_plan(fault_kind)),
            version: KernelVersion::V2,
            schedule: SchedulePolicy::WorkSteal(paper_split(cpu_words_per_s)),
        };
        let out = driver.run(&tasks, &params).expect("driver must not error");
        prop_assert_eq!(&out.results, &reference);
    }
}

/// Estimated-word balance of a striping: total words over (heaviest shard
/// x shards); 1.0 is perfectly even.
fn word_balance(tasks: &[ExtTask], params: &LocalAssemblyParams, shards: &[Vec<usize>]) -> f64 {
    let loads: Vec<u64> = shards
        .iter()
        .map(|idx| idx.iter().map(|&i| estimate_task_cost(&tasks[i], params)).sum())
        .collect();
    let max = loads.iter().copied().max().unwrap_or(0).max(1);
    loads.iter().sum::<u64>() as f64 / (max as f64 * shards.len() as f64)
}

/// Multi-GPU LPT striping must balance a size skew that round-robin
/// cannot: heavies sit at stride `n_devices`, so `i % n` piles them all on
/// device 0 while LPT spreads them by estimated words.
#[test]
fn lpt_striping_balances_skew_that_defeats_round_robin() {
    const N_DEVICES: usize = 4;
    let counts: Vec<usize> =
        (0..64).map(|i| if i % N_DEVICES == 0 { 18 + i % 5 } else { 1 + (i % 8) }).collect();
    let tasks = tasks_from_counts(&counts, 99);
    let params = LocalAssemblyParams::for_tests();

    let round_robin: Vec<Vec<usize>> =
        (0..N_DEVICES).map(|d| (d..tasks.len()).step_by(N_DEVICES).collect()).collect();
    let rr = word_balance(&tasks, &params, &round_robin);
    let lpt = word_balance(&tasks, &params, &stripe_lpt(&tasks, &params, &[1.0; N_DEVICES]));
    assert!(rr < 0.6, "skew should defeat round-robin striping, got {rr:.3}");
    assert!(lpt >= 0.9, "LPT striping should balance the skew, got {lpt:.3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `stripe_lpt` is a deterministic partition: every task index lands in
    /// exactly one shard, shards are ascending, and a second call agrees.
    #[test]
    fn stripe_lpt_partitions_every_task_once(
        counts in proptest::collection::vec(0usize..=24, 0..=40),
        seed in 0u64..1_000,
        rates in proptest::collection::vec(0.1f64..=10.0, 1..=8),
    ) {
        let tasks = tasks_from_counts(&counts, seed);
        let params = LocalAssemblyParams::for_tests();
        let shards = stripe_lpt(&tasks, &params, &rates);
        prop_assert_eq!(shards.len(), rates.len());
        let mut seen = vec![0usize; tasks.len()];
        for shard in &shards {
            prop_assert!(shard.windows(2).all(|w| w[0] < w[1]), "shard not ascending: {:?}", shard);
            for &i in shard {
                seen[i] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&n| n == 1), "each index exactly once: {:?}", seen);
        prop_assert_eq!(&stripe_lpt(&tasks, &params, &rates), &shards);
    }
}

#[test]
#[should_panic(expected = "need at least one device")]
fn stripe_lpt_rejects_an_empty_fleet() {
    stripe_lpt(&tasks_from_counts(&[3], 1), &LocalAssemblyParams::for_tests(), &[]);
}

#[test]
#[should_panic(expected = "device rates must be positive and finite")]
fn stripe_lpt_rejects_a_non_positive_rate() {
    stripe_lpt(&tasks_from_counts(&[3], 1), &LocalAssemblyParams::for_tests(), &[1.0, 0.0]);
}

/// The work-steal makespan model must beat the paper's fixed split on a
/// skewed workload when the CPU peer is fast enough to help with bin 3 —
/// the scheduler-level version of the Figure 11 harness claim.
#[test]
fn work_steal_model_beats_paper_split_on_skew() {
    const STRIDE: usize = 4;
    let counts: Vec<usize> =
        (0..64).map(|i| if i % STRIDE == 0 { 18 + i % 5 } else { 1 + (i % 8) }).collect();
    let tasks = tasks_from_counts(&counts, 4242);
    let params = LocalAssemblyParams::for_tests();
    let total: u64 = tasks.iter().map(|t| estimate_task_words(t, &params)).sum();

    // Probe the GPU once (single amortized run), then model the CPU peer
    // at twice that rate, as in the fig11 harness; both schedules price the
    // CPU at exactly that rate.
    let (_, probe) =
        GpuLocalAssembler::new(DeviceConfig::tiny(), params.clone(), KernelVersion::V2)
            .extend_tasks(&tasks);
    let cpu_rate = 2.0 * total as f64 / probe.wall_s().max(1e-12);
    let run = |cfg: StealConfig| {
        OverlapDriver {
            device: DeviceConfig::tiny(),
            schedule: SchedulePolicy::WorkSteal(cfg),
            ..Default::default()
        }
        .run(&tasks, &params)
        .expect("driver runs")
    };

    let paper = run(paper_split(cpu_rate));
    assert_eq!(paper.results, extend_all_cpu(&tasks, &params));
    assert_eq!(paper.schedule.cpu_stole_heavy, 0, "the paper split never steals");
    let ws = run(StealConfig { batch_words: 32 * 1024, ..paper_split(cpu_rate) });
    assert_eq!(ws.results, paper.results, "schedules must agree on results");

    let (paper_s, ws_s) = (paper.schedule.makespan_model_s(), ws.schedule.makespan_model_s());
    assert!(ws_s < paper_s, "work-steal must beat the paper split: {ws_s:.9} vs {paper_s:.9} s");
    assert!(ws.schedule.cpu_stole_heavy > 0, "the win must come from stealing bin-3 work");
}

/// Regression for the bin-2 deal bias: `j % k` dealing in descending size
/// order handed batch 0 the larger item of every round, so the first-dealt
/// batch systematically outweighed the last. The lightest-batch deal must
/// keep max/min batch words tight even on an adversarial geometric size mix.
#[test]
fn light_batch_deal_balances_max_and_min_words() {
    // Heavy size spread (1..=9 reads, many repeats) with no bin-3 tasks, so
    // every scheduled batch is a light one.
    let counts: Vec<usize> = (0..54).map(|i| 1 + i % 9).collect();
    let tasks = tasks_from_counts(&counts, 11);
    let params = LocalAssemblyParams::for_tests();
    let bins = bin_tasks(&tasks);
    let batches = build_batches(&tasks, &bins, &params, 16 * 1024);
    let light: Vec<u64> = batches.iter().filter(|b| !b.heavy).map(|b| b.est_words).collect();
    assert!(light.len() >= 3, "want several light batches, got {}", light.len());
    let (min, max) = (*light.iter().min().unwrap(), *light.iter().max().unwrap());
    assert!(
        min as f64 >= 0.8 * max as f64,
        "lightest-batch deal must balance words: min {min} vs max {max} ({light:?})"
    );
}

/// The per-task cost the schedulers charge is clamped to >= 1 word even for
/// a degenerate empty task, so no batch (and no LPT bin) can be free.
#[test]
fn task_cost_is_clamped_to_at_least_one_word() {
    let params = LocalAssemblyParams::for_tests();
    let empty =
        ExtTask { contig: 0, end: ContigEnd::Right, tail: DnaSeq::new(), reads: Vec::new() };
    assert!(estimate_task_cost(&empty, &params) >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All-empty-tasks degenerate input: every task is bin 1 (answered
    /// host-side), nothing reaches the deque, and the run stays
    /// byte-identical with a well-formed report under the default schedule
    /// and the paper's split.
    #[test]
    fn all_empty_tasks_never_wedge_the_scheduler(
        n in 1usize..=20,
        work_steal in any::<bool>(),
    ) {
        let counts = vec![0usize; n];
        let tasks = tasks_from_counts(&counts, 5);
        let params = LocalAssemblyParams::for_tests();
        let reference = extend_all_cpu(&tasks, &params);
        let steal = if work_steal { StealConfig::default() } else { paper_split(5.0e7) };
        let out = OverlapDriver {
            device: DeviceConfig::tiny(),
            schedule: SchedulePolicy::WorkSteal(steal),
            ..Default::default()
        }
        .run(&tasks, &params)
        .expect("driver runs");
        prop_assert_eq!(&out.results, &reference);
        prop_assert_eq!(out.zero_tasks, n);
        prop_assert_eq!(out.cpu_tasks + out.gpu_tasks, 0);
    }
}
