//! Standalone GPU local assembly — the paper's §4.1 workflow: dump the
//! contigs and candidate reads flowing into local assembly, then run the
//! GPU kernels on the dump and study them in isolation.
//!
//! ```text
//! cargo run --release -p bench --example gpu_local_assembly
//! ```
//!
//! Runs the CPU reference and both GPU kernel versions on the same dump,
//! verifies they agree base-for-base, and prints the roofline
//! characterization of each kernel (the Figures 8/9 data).

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::{bin_tasks, extend_all_cpu, LocalAssemblyParams};
use mhm::PipelineConfig;
use std::time::Instant;

fn main() {
    // Upstream pipeline → local-assembly input dump.
    let preset = arcticsynth_like(0.05);
    println!("generating dump from {} ...", preset.name);
    let dump = local_assembly_dump(&preset, &PipelineConfig::default());
    let stats = bin_tasks(&dump.tasks);
    let (b1, b2, b3) = stats.percentages();
    println!(
        "{} contigs -> {} extension tasks (bins: {b1:.1}% / {b2:.1}% / {b3:.2}%)\n",
        dump.contigs.len(),
        dump.tasks.len()
    );

    let params = LocalAssemblyParams::default();

    // CPU reference (all cores, rayon).
    let t = Instant::now();
    let cpu = extend_all_cpu(&dump.tasks, &params);
    let cpu_wall = t.elapsed().as_secs_f64();
    let appended: usize = cpu.iter().map(|r| r.appended.len()).sum();
    println!("CPU engine: {appended} bases appended in {cpu_wall:.3} s wall");

    // GPU kernels on the simulated V100.
    let cfg = DeviceConfig::v100();
    for (name, version) in [("v1", KernelVersion::V1), ("v2", KernelVersion::V2)] {
        let mut engine = GpuLocalAssembler::new(cfg.clone(), params.clone(), version);
        let (results, gstats) = engine.extend_tasks(&dump.tasks);
        assert_eq!(results, cpu, "{name} must match the CPU reference");
        println!(
            "\nGPU kernel {name}: identical output; simulated V100 time {:.6} s over {} launches",
            gstats.seconds, gstats.launches
        );
        println!("{}", gstats.roofline(name, &cfg).render(&cfg));
    }
    println!("(All three engines produced byte-identical extensions.)");
}
