//! Ablation benches for the design choices called out in DESIGN.md §5:
//! per-bin cost structure (why bin-3-first scheduling pays), k-shift start
//! point, and the vote-viability threshold. Each prints the quality-side
//! effect (bases appended) next to the timing.

use bench::local_assembly_dump;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{bin_tasks, extend_all_cpu, ExtTask, LocalAssemblyParams};
use mhm::PipelineConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_ablations(c: &mut Criterion) {
    let dump = local_assembly_dump(&arcticsynth_like(0.02), &PipelineConfig::default());
    let params = LocalAssemblyParams::default();

    // --- per-bin cost structure ---
    let bins = bin_tasks(&dump.tasks);
    let small: Vec<ExtTask> = bins.small.iter().map(|&i| dump.tasks[i].clone()).collect();
    let large: Vec<ExtTask> = bins.large.iter().map(|&i| dump.tasks[i].clone()).collect();
    let sim_secs = |tasks: &[ExtTask]| {
        if tasks.is_empty() {
            return 0.0;
        }
        let mut e = GpuLocalAssembler::new(DeviceConfig::v100(), params.clone(), KernelVersion::V2);
        let (_, s) = e.extend_tasks(tasks);
        s.seconds
    };
    let (ts, tl) = (sim_secs(&small), sim_secs(&large));
    println!(
        "[binning] bin2: {} tasks, {:.2} us sim/task | bin3: {} tasks, {:.2} us sim/task",
        small.len(),
        1e6 * ts / small.len().max(1) as f64,
        large.len(),
        1e6 * tl / large.len().max(1) as f64,
    );

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    if !small.is_empty() {
        group.bench_function("cpu_bin2_only", |b| {
            b.iter(|| black_box(extend_all_cpu(&small, &params)))
        });
    }
    if !large.is_empty() {
        group.bench_function("cpu_bin3_only", |b| {
            b.iter(|| black_box(extend_all_cpu(&large, &params)))
        });
    }

    // --- k-shift start index ---
    for start in [0usize, 1, 2] {
        let p = LocalAssemblyParams { start_k_idx: start, ..params.clone() };
        let results = extend_all_cpu(&dump.tasks, &p);
        let appended: usize = results.iter().map(|r| r.appended.len()).sum();
        println!("[kshift] start_k_idx={start}: {appended} bases appended");
        group.bench_function(format!("kshift_start{start}"), |b| {
            b.iter(|| black_box(extend_all_cpu(&dump.tasks, &p)))
        });
    }

    // --- vote-viability threshold ---
    for mv in [1u16, 2, 3] {
        let p = LocalAssemblyParams { min_viable: mv, ..params.clone() };
        let results = extend_all_cpu(&dump.tasks, &p);
        let appended: usize = results.iter().map(|r| r.appended.len()).sum();
        println!("[min_viable] {mv}: {appended} bases appended");
    }

    // --- CPU/GPU overlap driver (DESIGN.md ablation 5) ---
    {
        let driver = locassm::OverlapDriver::default();
        let out = driver.run(&dump.tasks, &params).expect("driver runs");
        println!(
            "[overlap] work-steal: cpu {} tasks / {} est words, gpu {} tasks / {} est words, model makespan {:.6}s",
            out.cpu_tasks,
            out.schedule.cpu_est_words,
            out.gpu_tasks,
            out.schedule.gpu_est_words,
            out.schedule.makespan_model_s(),
        );
        group.bench_function("overlap_driver_worksteal", |b| {
            let d = locassm::OverlapDriver::default();
            b.iter(|| black_box(d.run(&dump.tasks, &params)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
