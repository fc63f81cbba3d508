//! A skewed "marine-community" assembly (WA-like preset): the workload the
//! paper's large-scale evaluation runs, scaled to a workstation.
//!
//! ```text
//! cargo run --release -p bench --example marine_metagenome
//! ```
//!
//! Assembles the WA-like dataset twice — once with the CPU local-assembly
//! engine and once with the simulated-GPU engine — and prints both phase
//! breakdowns in measured host seconds, with the GPU's simulated device
//! seconds on a line of their own (the laptop-scale analogue of Figures
//! 2a/2b).

use datagen::wa_like;
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;
use mhm::report::render_breakdown;
use mhm::{run_pipeline, EngineChoice, PipelineConfig};

fn main() {
    let preset = wa_like(0.2);
    println!("generating {} ...", preset.name);
    let (community, pairs) = preset.generate();
    println!(
        "{} species (abundance skew sigma=1.8), {} read pairs\n",
        community.genomes.len(),
        pairs.len()
    );

    let cpu_cfg = PipelineConfig::default();
    let gpu_cfg = PipelineConfig {
        engine: EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 },
        ..PipelineConfig::default()
    };

    println!("assembling with CPU local assembly ...");
    let cpu = run_pipeline(&pairs, &cpu_cfg).expect("pipeline runs");
    println!("assembling with GPU local assembly ...");
    let gpu = run_pipeline(&pairs, &gpu_cfg).expect("pipeline runs");
    assert_eq!(cpu.contigs, gpu.contigs, "engines must agree");

    println!("\n{}", render_breakdown("with CPU local assembly", &cpu.timings));
    println!("{}", render_breakdown("with GPU local assembly (simulator host time)", &gpu.timings));
    println!(
        "modeled: GPU local assembly {:.4} s simulated V100 device time",
        gpu.stats.gpu.as_ref().expect("the GPU engine models its seconds").seconds,
    );
    let round = gpu.rounds.last().expect("one round");
    println!(
        "\nassembly: {} contigs, {} scaffolds, {} bases appended by local assembly",
        round.contigs_kept,
        gpu.scaffolds.len(),
        round.ext_summary.bases_appended
    );
    let gstats = gpu.stats.gpu.as_ref().expect("gpu stats");
    println!(
        "device: {} tasks in {} launches, peak {:.1} MB of 16 GB",
        gstats.device_tasks,
        gstats.launches,
        gstats.peak_mem_words as f64 * 8.0 / 1e6
    );
}
