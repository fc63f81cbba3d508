//! Device-failure integration tests: a batch the device cannot run must
//! never change assembly output, only how it was computed. The real
//! failures are a kernel that panics (a k above the device layout's
//! `MAX_DEVICE_K`) and a task too large for device memory; the GPU engine
//! hands that work to the CPU engine, and the resulting extensions and
//! contigs are compared byte-for-byte against the CPU engine's.

use align::{collect_candidates, CandidateParams, SeedIndex};
use bioseq::{DnaSeq, Read};
use datagen::{
    arcticsynth_like, generate_community, simulate_reads, CommunityConfig, ReadSimConfig,
};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use gpusim::DeviceConfig;
use locassm::gpu::layout::MAX_DEVICE_K;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{extend_all_cpu, make_tasks, ExtTask, LocalAssemblyParams};
use mhm::iterative::{gpu_engine_choice, overlap_engine_choice};
use mhm::report::render_run;
use mhm::{merge_reads, run_pipeline, EngineChoice, MergeParams, PipelineConfig};

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
    make_tasks(&contigs, &cand_pairs, &LocalAssemblyParams::default())
}

/// The test parameters with a k the device layout cannot hold: the kernel
/// panics on its first walk, the CPU engine accepts it.
fn over_device_k() -> LocalAssemblyParams {
    LocalAssemblyParams {
        k_list: vec![21, MAX_DEVICE_K + 5],
        start_k_idx: 1,
        ..LocalAssemblyParams::default()
    }
}

fn run_engine(
    tasks: &[ExtTask],
    device: DeviceConfig,
    params: &LocalAssemblyParams,
    version: KernelVersion,
) -> (Vec<locassm::ExtResult>, locassm::gpu::GpuRunStats) {
    GpuLocalAssembler::new(device, params.clone(), version).extend_tasks(tasks)
}

#[test]
fn tasks_too_large_for_the_device_run_on_cpu() {
    let tasks = dump_tasks();
    assert!(!tasks.is_empty(), "preset must produce extension tasks");
    let params = LocalAssemblyParams::default();
    let cpu = extend_all_cpu(&tasks, &params);

    let (healthy, stats) = run_engine(&tasks, DeviceConfig::v100(), &params, KernelVersion::V2);
    assert!(!stats.device_failed && stats.cpu_fallback_tasks == 0, "{stats:?}");
    assert_eq!(cpu, healthy);

    // 64 words of device memory hold no task: each goes to the CPU on its
    // own, and the device never fails because it never runs.
    let small = DeviceConfig { global_mem_bytes: 64 * 8, ..DeviceConfig::v100() };
    let (fallback, stats) = run_engine(&tasks, small, &params, KernelVersion::V2);
    assert_eq!(cpu, fallback, "CPU fallback must reproduce device output");
    assert!(!stats.device_failed);
    assert_eq!(stats.launches, 0);
    assert_eq!(stats.device_tasks, 0);
    assert_eq!(stats.cpu_fallback_tasks, tasks.len() - stats.zero_tasks);
}

#[test]
fn kernel_panic_degrades_to_cpu_with_identical_output() {
    let tasks = dump_tasks();
    let params = over_device_k();
    let cpu = extend_all_cpu(&tasks, &params);
    for version in [KernelVersion::V1, KernelVersion::V2] {
        let (a, sa) = run_engine(&tasks, DeviceConfig::v100(), &params, version);
        assert!(sa.device_failed, "{version:?}");
        assert_eq!(sa.cpu_fallback_tasks, tasks.len() - sa.zero_tasks, "{version:?}");
        assert_eq!(cpu, a, "{version:?}: CPU fallback must reproduce the CPU engine");
    }
}

#[test]
fn device_failure_replays_identically_through_the_engine() {
    let tasks = dump_tasks();
    let params = over_device_k();
    for version in [KernelVersion::V1, KernelVersion::V2] {
        let (a, sa) = run_engine(&tasks, DeviceConfig::v100(), &params, version);
        assert!(sa.device_failed, "{version:?}: the kernel must fail for the replay to test it");
        let (b, sb) = run_engine(&tasks, DeviceConfig::v100(), &params, version);
        assert_eq!(a, b, "{version:?}: outputs diverged");
        assert_eq!(
            (sa.device_failed, sa.cpu_fallback_tasks, sa.launches),
            (sb.device_failed, sb.cpu_fallback_tasks, sb.launches),
            "{version:?}: fallback diverged"
        );
    }
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
    let mut cpu_cfg = PipelineConfig::default();
    cpu_cfg.locassm.k_list = vec![21, MAX_DEVICE_K + 5];
    let cpu = run_pipeline(&pairs, &cpu_cfg).expect("pipeline runs");
    for engine in [gpu_engine_choice(), overlap_engine_choice()] {
        let cfg = PipelineConfig { engine, ..cpu_cfg.clone() };
        let run = run_pipeline(&pairs, &cfg).expect("a failing device must not fail the run");
        let name = match cfg.engine {
            EngineChoice::Gpu { .. } => "gpu",
            _ => "overlap",
        };
        assert_eq!(cpu.contigs, run.contigs, "{name}: the fallback must not change contigs");
        assert!(run.degraded(), "{name}: the failure must be visible in the result");
        assert!(run.stats.gpu.as_ref().expect("a GPU engine ran").device_failed, "{name}");
        let report = render_run(&run);
        assert!(report.contains("DEGRADED RUN"), "{name}: {report}");
        assert!(report.contains("device failed"), "{name}: {report}");
    }
}
