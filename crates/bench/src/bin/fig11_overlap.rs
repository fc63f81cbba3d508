//! Figure 11-style overlap study: the paper's fixed split (bin 3 on the
//! GPU, bin 2 on the CPU) vs the work-stealing scheduler on a size-skewed
//! seeded workload, plus byte-identity checks across scheduler × device
//! configurations (healthy, failing kernel).
//!
//! Emits `results/BENCH_overlap.json` (hand-rolled JSON; the workspace has
//! no serde_json). Every field is modeled and deterministic, so CI runs the
//! full preset and diffs the file against the committed one; `--tiny` runs
//! a reduced workload for a quick check. The acceptance thresholds are
//! asserted, so a scheduling regression fails the harness, not just the
//! numbers in a file.

use bioseq::{DnaSeq, Read};
use gpusim::DeviceConfig;
use locassm::gpu::layout::MAX_DEVICE_K;
use locassm::gpu::pack::estimate_task_words;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{
    extend_all_cpu, ContigEnd, ExtTask, LocalAssemblyParams, OverlapDriver, SchedulePolicy,
    StealConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

fn random_seq(len: usize, rng: &mut StdRng) -> DnaSeq {
    (0..len).map(|_| bioseq::Base::from_code(rng.gen_range(0..4))).collect()
}

/// Size-skewed workload: a minority of heavy bin-3 tasks, one every
/// `heavy_stride` tasks, carry most of the estimated words. Light bin-2
/// tasks are emitted in ascending size order, the worst case for a prefix
/// split.
fn skewed_tasks(n: usize, heavy_stride: usize, seed: u64) -> Vec<ExtTask> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let genome = random_seq(600, &mut rng);
            // Heavy bin-3 tasks: ~4x the reads of a light task, so they
            // carry most of the words while a batch of them still has
            // enough warps to occupy the device.
            let n_reads = if i % heavy_stride == 0 { 18 + i % 5 } else { 1 + (i % 8) };
            let reads = (0..n_reads)
                .map(|r| {
                    Read::with_uniform_qual(
                        format!("t{i}r{r}"),
                        genome.subseq(60 + (r * 13) % 350, 90),
                        35,
                    )
                })
                .collect();
            ExtTask { contig: i, end: ContigEnd::Right, tail: genome.subseq(0, 140), reads }
        })
        .collect()
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny");
    let n_tasks = if tiny { 64 } else { 192 };
    let tasks = skewed_tasks(n_tasks, 4, 4242);
    let params = LocalAssemblyParams::default();
    let total_words: u64 = tasks.iter().map(|t| estimate_task_words(t, &params)).sum();
    println!("=== Figure 11: CPU/GPU overlap scheduling on a skewed workload ===");
    println!(
        "tasks: {n_tasks}{}, est words total: {total_words}\n",
        if tiny { " (tiny preset)" } else { "" }
    );

    let reference = extend_all_cpu(&tasks, &params);

    // --- probe: effective GPU throughput (est words per wall second,
    // simulated), then model the CPU peer as a full many-core socket worth
    // 2x one GPU's rate — the node shape where the paper's fixed split
    // hurts most, because it pins every bin-3 task on the GPU no matter
    // how the rates compare. All device runs use the deliberately small
    // test device: 48+ warps saturate its occupancy, so kernel time scales
    // with work (throughput regime). On an under-occupied V100 the latency
    // floor dominates and no schedule can beat any other — a faithful
    // effect, but not the one Figure 11 is about.
    let device = DeviceConfig::tiny();
    let (_, probe_stats) =
        GpuLocalAssembler::new(device.clone(), params.clone(), KernelVersion::V2)
            .extend_tasks(&tasks);
    let gpu_rate = total_words as f64 / probe_stats.wall_s().max(1e-12);
    let cpu_rate = 2.0 * gpu_rate;
    println!("probed GPU rate: {gpu_rate:.3e} est words/s (CPU peer modeled at 2x)");

    // The CPU peer is *modeled*: the CPU clock prices every batch at
    // `cpu_rate`.
    let steal_cfg = StealConfig { batch_words: 32 * 1024, cpu_words_per_s: cpu_rate };
    let paper_cfg = StealConfig { batch_words: u64::MAX, ..steal_cfg.clone() };
    let run = |cfg: &StealConfig| {
        let out = OverlapDriver {
            device: device.clone(),
            schedule: SchedulePolicy::WorkSteal(cfg.clone()),
            ..Default::default()
        }
        .run(&tasks, &params)
        .expect("driver runs");
        assert_eq!(out.results, reference, "{cfg:?} must be byte-identical");
        out
    };

    // --- the paper's split: one bin-3 batch on the GPU, one bin-2 batch on
    // the CPU.
    let paper = run(&paper_cfg);
    assert_eq!(paper.schedule.batches(), 2, "the paper split is one heavy and one light batch");
    let paper_makespan = paper.schedule.makespan_model_s();

    // --- work-stealing scheduler.
    let ws = run(&steal_cfg);
    let ws_makespan = ws.schedule.makespan_model_s();
    let improvement = 100.0 * (paper_makespan - ws_makespan) / paper_makespan.max(1e-12);

    println!(
        "\npaper split: cpu {} w / gpu {} w, model makespan {paper_makespan:.9} s",
        paper.schedule.cpu_est_words, paper.schedule.gpu_est_words
    );
    println!(
        "work-steal:  cpu {} w / gpu {} w (balance {:.2}), model makespan {ws_makespan:.9} s",
        ws.schedule.cpu_est_words,
        ws.schedule.gpu_est_words,
        ws.schedule.word_balance()
    );
    println!(
        "improvement: {improvement:.1}% (bin-3 stolen by CPU: {}, bin-2 absorbed by GPU: {})",
        ws.schedule.cpu_stole_heavy, ws.schedule.gpu_absorbed_light
    );
    if let Some(g) = &ws.gpu_stats {
        println!("double-buffer: {:.6} s pack hidden of {:.6} s", g.overlap_saved_s, g.pack_s);
    }
    assert!(
        ws_makespan < paper_makespan,
        "work-steal must beat the paper split: {ws_makespan:.9} vs {paper_makespan:.9} s"
    );

    // --- byte-identity across scheduler × device configurations. The
    // failing kernel starts at a k above the device layout's limit: the
    // GPU's first batch panics and runs on the CPU fallback, and the rest
    // of the deque drains to the CPU. Each is compared with a CPU
    // reference at its own parameters.
    let failing = LocalAssemblyParams {
        k_list: vec![21, MAX_DEVICE_K + 5],
        start_k_idx: 1,
        ..params.clone()
    };
    let failing_reference = extend_all_cpu(&tasks, &failing);
    let devices =
        [("healthy", &params, &reference), ("failing-kernel", &failing, &failing_reference)];
    let seeded = |rate: f64| {
        SchedulePolicy::WorkSteal(StealConfig { cpu_words_per_s: rate, ..steal_cfg.clone() })
    };
    let schedules: Vec<(&str, SchedulePolicy)> = vec![
        ("ws-default", SchedulePolicy::WorkSteal(steal_cfg.clone())),
        (
            "ws-fine",
            SchedulePolicy::WorkSteal(StealConfig { batch_words: 8 * 1024, ..steal_cfg.clone() }),
        ),
        ("paper-split", SchedulePolicy::WorkSteal(paper_cfg.clone())),
        // A 10x mis-set CPU rate moves work between engines, never results.
        ("ws-seed-hi", seeded(10.0 * cpu_rate)),
        ("ws-seed-lo", seeded(cpu_rate / 10.0)),
    ];
    let mut identical_configs = 0usize;
    for (dname, run_params, expected) in devices {
        for (sname, schedule) in &schedules {
            let driver = OverlapDriver {
                device: device.clone(),
                version: KernelVersion::V2,
                schedule: schedule.clone(),
            };
            let out = driver.run(&tasks, run_params).expect("driver runs");
            assert_eq!(
                &out.results, expected,
                "results must be byte-identical under {sname} x {dname}"
            );
            identical_configs += 1;
        }
    }
    println!("byte-identity: {identical_configs} scheduler x device configurations verified");

    // --- emit BENCH_overlap.json (hand-rolled; no serde_json in tree).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"name\": \"fig11_overlap\",");
    let _ = writeln!(json, "  \"tiny\": {tiny},");
    let _ = writeln!(json, "  \"tasks\": {n_tasks},");
    let _ = writeln!(json, "  \"est_words_total\": {total_words},");
    let _ = writeln!(json, "  \"gpu_rate_words_per_s\": {gpu_rate:.3},");
    let _ = writeln!(json, "  \"paper_split_makespan_s\": {paper_makespan:.9},");
    let _ = writeln!(json, "  \"worksteal_makespan_s\": {ws_makespan:.9},");
    let _ = writeln!(json, "  \"improvement_pct\": {improvement:.3},");
    let _ = writeln!(json, "  \"worksteal_word_balance\": {:.4},", ws.schedule.word_balance());
    let _ = writeln!(json, "  \"cpu_stole_heavy\": {},", ws.schedule.cpu_stole_heavy);
    let _ = writeln!(json, "  \"gpu_absorbed_light\": {},", ws.schedule.gpu_absorbed_light);
    let _ = writeln!(
        json,
        "  \"overlap_saved_s\": {:.9},",
        ws.gpu_stats.as_ref().map_or(0.0, |g| g.overlap_saved_s)
    );
    let _ = writeln!(json, "  \"byte_identical_configs\": {identical_configs}");
    json.push_str("}\n");
    let out_path = std::path::Path::new("results").join("BENCH_overlap.json");
    if let Some(dir) = out_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {}", out_path.display()),
        Err(e) => println!("\ncould not write {}: {e}", out_path.display()),
    }
    println!("\nPASS: all overlap-scheduler acceptance thresholds hold");
}
