//! Fault-injection integration tests: an injected device fault must never
//! change assembly output, only how it was computed. The recovery ladder
//! (retry → shrink batch → reset device → CPU fallback → skip) is exercised
//! end to end, and the resulting extensions are compared byte-for-byte
//! against a fault-free run.

use align::{collect_candidates, CandidateParams, SeedIndex};
use bioseq::{DnaSeq, Read};
use datagen::{
    arcticsynth_like, generate_community, simulate_reads, CommunityConfig, ReadSimConfig,
};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use gpusim::{DeviceConfig, Fault, FaultPlan};
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{extend_all_cpu, make_tasks, ExtTask, LocalAssemblyParams};
use mhm::{merge_reads, run_pipeline, EngineChoice, MergeParams, PipelineConfig};
use proptest::prelude::*;

/// Local-assembly tasks from the small arcticsynth-like preset.
fn dump_tasks() -> Vec<ExtTask> {
    let (_, pairs) = arcticsynth_like(0.01).generate();
    let (reads, _) = merge_reads(&pairs, &MergeParams::default());
    let counts = count_kmers(&reads, 31, 2);
    let graph = DbgGraph::new(31, counts);
    let contigs: Vec<DnaSeq> =
        generate_contigs(&graph, 2).into_iter().filter(|c| c.len() >= 100).map(|c| c.seq).collect();
    let idx = SeedIndex::build(&contigs, 17, 200);
    let cands = collect_candidates(&contigs, &reads, &idx, &CandidateParams::default());
    let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
        cands.into_iter().map(|c| (c.right, c.left)).collect();
    make_tasks(&contigs, &cand_pairs, &LocalAssemblyParams::for_tests())
}

fn run_with_plan(
    tasks: &[ExtTask],
    plan: FaultPlan,
) -> (Vec<locassm::ExtResult>, locassm::gpu::GpuRunStats) {
    let mut engine = GpuLocalAssembler::new(
        DeviceConfig::v100().with_fault_plan(plan),
        LocalAssemblyParams::for_tests(),
        KernelVersion::V2,
    );
    engine.extend_tasks(tasks)
}

#[test]
fn injected_oom_yields_byte_identical_extensions() {
    let tasks = dump_tasks();
    assert!(!tasks.is_empty(), "preset must produce extension tasks");

    let (clean, clean_stats) = run_with_plan(&tasks, FaultPlan::none());
    assert!(!clean_stats.recovery.any_recovery(), "clean run must not recover");

    let (faulty, stats) = run_with_plan(&tasks, FaultPlan::single(Fault::SlabOom { at_alloc: 0 }));
    assert!(
        stats.recovery.batch_splits >= 1 || stats.recovery.launch_retries >= 1,
        "OOM must trip the ladder: {:?}",
        stats.recovery
    );
    assert_eq!(stats.recovery.failed_tasks, 0, "nothing may be skipped");
    assert_eq!(clean, faulty, "recovered extensions must be byte-identical");

    // CPU fallback is the ladder's last functional rung; its output is the
    // reference both engines must match.
    let cpu = extend_all_cpu(&tasks, &LocalAssemblyParams::for_tests());
    assert_eq!(cpu, faulty);
}

#[test]
fn hang_storm_degrades_to_cpu_with_identical_output() {
    let tasks = dump_tasks();
    let storm = FaultPlan {
        faults: (0..64).map(|i| Fault::KernelHang { at_launch: i, after_cycles: 1_000 }).collect(),
    };
    let (clean, _) = run_with_plan(&tasks, FaultPlan::none());
    let (faulty, stats) = run_with_plan(&tasks, storm);
    assert!(stats.recovery.device_lost, "storm must exhaust resets");
    assert!(stats.recovery.cpu_fallback_tasks > 0);
    assert_eq!(clean, faulty, "CPU fallback must reproduce device output");
}

#[test]
fn pipeline_with_faulty_device_matches_cpu_contigs() {
    let c = generate_community(&CommunityConfig {
        n_species: 2,
        genome_len: (8_000, 10_000),
        abundance_sigma: 0.4,
        seed: 900,
        ..Default::default()
    });
    let pairs = simulate_reads(
        &c,
        &ReadSimConfig { n_pairs: 3_000, read_len: 100, seed: 901, ..Default::default() },
    );
    let cpu = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    let faulty_dev = DeviceConfig::v100().with_fault_plan(FaultPlan {
        faults: vec![
            Fault::SlabOom { at_alloc: 0 },
            Fault::KernelHang { at_launch: 1, after_cycles: 5_000 },
        ],
    });
    let gpu = run_pipeline(
        &pairs,
        &PipelineConfig {
            engine: EngineChoice::Gpu { device: faulty_dev, version: KernelVersion::V2 },
            ..PipelineConfig::default()
        },
    )
    .expect("faulty pipeline must still complete");
    assert_eq!(cpu.contigs, gpu.contigs, "faults must not change contigs");
    assert!(gpu.degraded(), "recovery must be visible in the result");
    let recovery = &gpu.stats.gpu.as_ref().expect("gpu run records recovery").recovery;
    assert!(recovery.any_recovery());
}

#[test]
fn seeded_plan_replays_identically_through_the_engine() {
    // Same seed ⇒ same plan ⇒ same recovery path ⇒ same stats and output.
    let tasks = dump_tasks();
    for seed in [3u64, 17, 4242] {
        let plan = FaultPlan::from_seed(seed, 3, 16);
        let (a, sa) = run_with_plan(&tasks, plan.clone());
        let (b, sb) = run_with_plan(&tasks, plan);
        assert_eq!(a, b, "seed {seed}: outputs diverged");
        assert_eq!(sa.recovery, sb.recovery, "seed {seed}: recovery diverged");
    }
}

proptest! {
    #[test]
    fn fault_plan_from_seed_is_pure(
        seed in any::<u64>(),
        n in 0usize..8,
        horizon in 1u64..1_000,
    ) {
        let a = FaultPlan::from_seed(seed, n, horizon);
        let b = FaultPlan::from_seed(seed, n, horizon);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.faults.len(), n);
        for f in &a.faults {
            match *f {
                Fault::SlabOom { at_alloc } => prop_assert!(at_alloc < horizon),
                Fault::KernelHang { at_launch, after_cycles } => {
                    prop_assert!(at_launch < horizon);
                    prop_assert!(after_cycles >= 1);
                }
                Fault::BitFlip { at_launch, .. } => prop_assert!(at_launch < horizon),
            }
        }
    }

    #[test]
    fn fault_plan_seeds_decorrelate(seed in any::<u64>()) {
        // Adjacent seeds must not alias to the same plan (SplitMix64 mixing).
        let a = FaultPlan::from_seed(seed, 6, 1 << 20);
        let b = FaultPlan::from_seed(seed.wrapping_add(1), 6, 1 << 20);
        prop_assert_ne!(a, b);
    }
}
