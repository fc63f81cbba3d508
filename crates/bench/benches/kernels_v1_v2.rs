//! Criterion bench: v1 vs v2 extension kernels (the Figures 8–10 contrast),
//! plus the simulated-device metrics printed after the timing runs.

use bench::local_assembly_dump;
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::LocalAssemblyParams;
use mhm::PipelineConfig;
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let dump = local_assembly_dump(&arcticsynth_like(0.015), &PipelineConfig::default());
    let params = LocalAssemblyParams::default();

    let mut group = c.benchmark_group("extension_kernel");
    group.sample_size(10).measurement_time(Duration::from_secs(3));
    for (name, version) in [("v1", KernelVersion::V1), ("v2", KernelVersion::V2)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut engine =
                    GpuLocalAssembler::new(DeviceConfig::v100(), params.clone(), version);
                black_box(engine.extend_tasks(&dump.tasks))
            })
        });
    }
    // Same workload under full gpucheck — the contrast with plain "v2"
    // quantifies the sanitizer's overhead (and "v2" itself is the evidence
    // that a sanitizer-off device pays nothing for the subsystem existing).
    group.bench_function("v2_gpucheck", |b| {
        b.iter(|| {
            let mut engine = GpuLocalAssembler::new(
                DeviceConfig::v100().with_sanitizer(),
                params.clone(),
                KernelVersion::V2,
            );
            black_box(engine.extend_tasks(&dump.tasks))
        })
    });
    group.finish();

    for (name, version) in [("v1", KernelVersion::V1), ("v2", KernelVersion::V2)] {
        let cfg = DeviceConfig::v100();
        let mut engine = GpuLocalAssembler::new(cfg.clone(), params.clone(), version);
        let (_, stats) = engine.extend_tasks(&dump.tasks);
        let r = stats.roofline(name, &cfg);
        println!(
            "[{name}] simulated: {:.3} GIPS, intensity {:.3}, predication {:.0}%, global tx {}",
            r.gips,
            r.intensity_l1,
            r.predication_ratio * 100.0,
            r.global_transactions
        );
    }
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
