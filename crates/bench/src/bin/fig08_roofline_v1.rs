//! Figure 8: instruction roofline of the **v1** extension kernel
//! (single-thread hash-table construction) on the arcticsynth-like dump.
//!
//! Paper observations for v1: low instruction intensity and GIPS, close to
//! the stride-1 memory wall (random hash probing), a visible thread-
//! predication gap, and a large share of L1 traffic from local memory.

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::LocalAssemblyParams;
use mhm::PipelineConfig;

fn main() {
    let dump = local_assembly_dump(&arcticsynth_like(0.05), &PipelineConfig::default());
    let cfg = DeviceConfig::v100();
    let mut engine =
        GpuLocalAssembler::new(cfg.clone(), LocalAssemblyParams::default(), KernelVersion::V1);
    let (_, stats) = engine.extend_tasks(&dump.tasks);
    let report = stats.roofline("local-assembly extension kernel v1", &cfg);
    println!("=== Figure 8: instruction roofline, kernel v1 ===\n");
    println!("{}", report.render(&cfg));
    println!("paper: v1 sits low-left of v2 with heavy predication; peak line 489.6 warp GIPS.");
}
