//! The central invariant of this reproduction: the CPU reference engine and
//! both simulated-GPU kernels produce **bit-identical** extensions for the
//! same input, across randomized workloads, parameter settings, and batch
//! splits — which is what lets MetaHipMer2 switch engines freely.

use bioseq::{DnaSeq, Read};
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{extend_all_cpu, ContigEnd, ExtTask, LocalAssemblyParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_seq(rng: &mut StdRng, len: usize) -> DnaSeq {
    (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
}

/// Random task: a genome window as tail plus reads tiling beyond it, with
/// random per-base qualities and occasional substitution errors.
fn random_task(rng: &mut StdRng, id: usize) -> ExtTask {
    let genome_len = rng.gen_range(200..600);
    let genome = random_seq(rng, genome_len);
    let tail_len = rng.gen_range(60..150.min(genome.len()));
    let n_reads = match rng.gen_range(0..10) {
        0..=2 => 0,
        3..=7 => rng.gen_range(1..10),
        _ => rng.gen_range(10..60),
    };
    let mut reads = Vec::new();
    for r in 0..n_reads {
        let rl = rng.gen_range(50..90);
        let start = rng.gen_range(0..genome.len().saturating_sub(rl).max(1));
        let mut codes = genome.subseq(start, rl.min(genome.len() - start)).codes().to_vec();
        let mut quals = Vec::with_capacity(codes.len());
        for c in codes.iter_mut() {
            let q = if rng.gen_bool(0.1) { rng.gen_range(0..20) } else { rng.gen_range(20..41) };
            if rng.gen_bool(0.01) {
                *c = (*c + rng.gen_range(1..4)) & 3;
            }
            quals.push(q);
        }
        reads.push(Read::new(format!("t{id}r{r}"), DnaSeq::from_codes(codes), quals));
    }
    ExtTask {
        contig: id,
        end: if rng.gen_bool(0.5) { ContigEnd::Right } else { ContigEnd::Left },
        tail: genome.subseq(0, tail_len),
        reads,
    }
}

fn gpu_results(
    tasks: &[ExtTask],
    params: &LocalAssemblyParams,
    version: KernelVersion,
) -> Vec<locassm::ExtResult> {
    let mut engine = GpuLocalAssembler::new(DeviceConfig::v100(), params.clone(), version);
    engine.extend_tasks(tasks).0
}

#[test]
fn randomized_tasks_all_engines_agree() {
    let mut rng = StdRng::seed_from_u64(20260705);
    let tasks: Vec<ExtTask> = (0..40).map(|i| random_task(&mut rng, i)).collect();
    let params = LocalAssemblyParams::default();
    let cpu = extend_all_cpu(&tasks, &params);
    let v2 = gpu_results(&tasks, &params, KernelVersion::V2);
    let v1 = gpu_results(&tasks, &params, KernelVersion::V1);
    for i in 0..tasks.len() {
        assert_eq!(cpu[i], v2[i], "task {i}: CPU vs v2");
        assert_eq!(cpu[i], v1[i], "task {i}: CPU vs v1");
    }
}

#[test]
fn agreement_across_parameter_settings() {
    let mut rng = StdRng::seed_from_u64(777);
    let tasks: Vec<ExtTask> = (0..12).map(|i| random_task(&mut rng, i)).collect();
    for (k_list, start, walk, total, viable) in [
        (vec![11, 15, 21], 0usize, 16usize, 40usize, 1u16),
        (vec![15, 21, 31, 41], 2, 64, 200, 2),
        (vec![21], 0, 100, 300, 3),
        (vec![15, 17, 19, 21, 23, 25], 3, 8, 24, 2),
    ] {
        let params = LocalAssemblyParams {
            k_list,
            start_k_idx: start,
            max_walk_len: walk,
            max_total_extension: total,
            min_viable: viable,
        };
        let cpu = extend_all_cpu(&tasks, &params);
        let v2 = gpu_results(&tasks, &params, KernelVersion::V2);
        assert_eq!(cpu, v2, "params {params:?}");
    }
}

#[test]
fn v1_lockstep_handles_mixed_lane_lifetimes() {
    // Stress the per-lane interpreter: a warp's 32 lanes carrying wildly
    // different task sizes (including zero-read lanes interleaved).
    let mut rng = StdRng::seed_from_u64(4242);
    let mut tasks = Vec::new();
    for i in 0..64 {
        let mut t = random_task(&mut rng, i);
        if i % 3 == 0 {
            t.reads.clear();
        }
        if i % 7 == 0 {
            // Tiny tail shorter than the smallest k.
            t.tail = t.tail.subseq(0, 10.min(t.tail.len()));
        }
        tasks.push(t);
    }
    let params = LocalAssemblyParams::default();
    let cpu = extend_all_cpu(&tasks, &params);
    let v1 = gpu_results(&tasks, &params, KernelVersion::V1);
    assert_eq!(cpu, v1);
}

#[test]
fn batch_split_invariance() {
    // Results must be identical whether tasks fit one batch or many.
    let mut rng = StdRng::seed_from_u64(99);
    let tasks: Vec<ExtTask> = (0..20).map(|i| random_task(&mut rng, i)).collect();
    let params = LocalAssemblyParams::default();
    let one = gpu_results(&tasks, &params, KernelVersion::V2);

    let mut small_dev = GpuLocalAssembler::new(
        DeviceConfig {
            // Small memory forces many batches.
            global_mem_bytes: 256 << 10,
            ..DeviceConfig::v100()
        },
        params.clone(),
        KernelVersion::V2,
    );
    let (many, stats) = small_dev.extend_tasks(&tasks);
    assert!(stats.launches >= 2, "expected multiple batches, got {}", stats.launches);
    assert_eq!(one, many);
}

#[test]
fn reads_shorter_than_k_are_ignored_consistently() {
    let mut rng = StdRng::seed_from_u64(5);
    let genome = random_seq(&mut rng, 300);
    let mut reads = vec![
        Read::with_uniform_qual("tiny", random_seq(&mut rng, 8), 30),
        Read::with_uniform_qual("short", random_seq(&mut rng, 14), 30),
    ];
    for i in 0..6 {
        reads.push(Read::with_uniform_qual(format!("r{i}"), genome.subseq(40 + i * 10, 70), 35));
    }
    let task = ExtTask { contig: 0, end: ContigEnd::Right, tail: genome.subseq(0, 100), reads };
    let params = LocalAssemblyParams::default();
    let cpu = extend_all_cpu(std::slice::from_ref(&task), &params);
    let v2 = gpu_results(std::slice::from_ref(&task), &params, KernelVersion::V2);
    let v1 = gpu_results(std::slice::from_ref(&task), &params, KernelVersion::V1);
    assert_eq!(cpu, v2);
    assert_eq!(cpu, v1);
}

#[test]
fn homopolymer_and_repeat_edge_cases() {
    // Degenerate sequences: homopolymers force immediate loops; perfect
    // repeats force loops after one period; all engines must agree.
    let params = LocalAssemblyParams::default();
    let mut tasks = Vec::new();
    let homo: DnaSeq = (0..120).map(|_| bioseq::Base::A).collect();
    tasks.push(ExtTask {
        contig: 0,
        end: ContigEnd::Right,
        tail: homo.clone(),
        reads: (0..4)
            .map(|i| Read::with_uniform_qual(format!("h{i}"), homo.subseq(0, 80), 35))
            .collect(),
    });
    let unit = DnaSeq::from_str_strict("ACGGTCATTG").unwrap();
    let mut rep = DnaSeq::new();
    for _ in 0..12 {
        rep.extend_from(&unit);
    }
    tasks.push(ExtTask {
        contig: 1,
        end: ContigEnd::Right,
        tail: rep.subseq(0, 40),
        reads: (0..4)
            .map(|i| Read::with_uniform_qual(format!("r{i}"), rep.subseq(0, 90), 35))
            .collect(),
    });
    let cpu = extend_all_cpu(&tasks, &params);
    let v2 = gpu_results(&tasks, &params, KernelVersion::V2);
    let v1 = gpu_results(&tasks, &params, KernelVersion::V1);
    assert_eq!(cpu, v2);
    assert_eq!(cpu, v1);
}
