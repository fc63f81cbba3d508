//! Figure 9: instruction roofline of the **v2** extension kernel
//! (warp-cooperative hash-table construction) on the arcticsynth-like dump,
//! printed side by side with v1 so the figure's key claim — the L1 dot
//! moves up and to the right — is directly visible.

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::LocalAssemblyParams;
use mhm::PipelineConfig;

fn main() {
    let dump = local_assembly_dump(&arcticsynth_like(0.05), &PipelineConfig::default());
    let cfg = DeviceConfig::v100();

    let mut reports = Vec::new();
    for (name, version) in [("v1", KernelVersion::V1), ("v2", KernelVersion::V2)] {
        let mut engine =
            GpuLocalAssembler::new(cfg.clone(), LocalAssemblyParams::default(), version);
        let (_, stats) = engine.extend_tasks(&dump.tasks);
        reports.push((name, stats.roofline(name, &cfg)));
    }

    println!("=== Figure 9: instruction roofline, kernel v2 (vs v1) ===\n");
    for (_, r) in &reports {
        println!("{}", r.render(&cfg));
    }
    let (v1, v2) = (&reports[0].1, &reports[1].1);
    println!("v2 / v1 ratios:");
    println!(
        "  warp GIPS:             {:.2}x (paper: higher for v2, peak 14.4 GIPS)",
        v2.gips / v1.gips
    );
    println!(
        "  instruction intensity: {:.2}x (paper: v2 moves right)",
        v2.intensity_l1 / v1.intensity_l1
    );
    println!(
        "  global ld/st insts:    {:.2}x (paper: significantly reduced)",
        v2.warp_insts as f64 / v1.warp_insts as f64
    );
    assert!(v2.gips > v1.gips, "v2 must beat v1 on GIPS");
    assert!(v2.intensity_l1 > v1.intensity_l1, "v2 must beat v1 on intensity");
}
