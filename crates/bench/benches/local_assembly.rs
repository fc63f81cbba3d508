//! Criterion bench: the local-assembly module itself — CPU engine wall
//! time and GPU engine simulation throughput on the arcticsynth-like dump.
//! (Backs Figures 12/13's module-level comparison.)

use bench::local_assembly_dump;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{extend_all_cpu, LocalAssemblyParams};
use mhm::PipelineConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_local_assembly(c: &mut Criterion) {
    let dump = local_assembly_dump(&arcticsynth_like(0.02), &PipelineConfig::default());
    let params = LocalAssemblyParams::default();

    let mut group = c.benchmark_group("local_assembly");
    group.sample_size(10).measurement_time(Duration::from_secs(3));

    group.bench_function("cpu_engine", |b| {
        b.iter(|| black_box(extend_all_cpu(&dump.tasks, &params)))
    });

    group.bench_function("gpu_engine_v2_sim", |b| {
        b.iter(|| {
            let mut engine =
                GpuLocalAssembler::new(DeviceConfig::v100(), params.clone(), KernelVersion::V2);
            black_box(engine.extend_tasks(&dump.tasks))
        })
    });

    group.finish();

    // Report the simulated device time once (the figure-relevant number).
    let mut engine =
        GpuLocalAssembler::new(DeviceConfig::v100(), params.clone(), KernelVersion::V2);
    let (_, stats) = engine.extend_tasks(&dump.tasks);
    println!(
        "\n[local_assembly] simulated V100 time for {} device tasks: {:.6} s ({} launches)",
        stats.device_tasks, stats.seconds, stats.launches
    );
}

criterion_group!(benches, bench_local_assembly);
criterion_main!(benches);
