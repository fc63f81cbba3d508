//! Figure 12: small-scale (2-node, arcticsynth) run-time comparison with
//! CPU vs GPU local assembly.
//!
//! Two complementary reproductions:
//!
//! 1. **Measured**: the real pipeline runs twice on the arcticsynth-like
//!    preset, once per engine, and both engines must produce identical
//!    contigs. Both breakdowns are measured host seconds; the GPU run's
//!    local-assembly row includes the simulator's host time. The simulated
//!    V100 seconds of local assembly are modeled, so they get a line of
//!    their own and are never mixed into a breakdown.
//! 2. **Model**: the paper-anchored scaling model evaluated at 2 nodes with
//!    the arcticsynth phase profile (local assembly ≈ 14% of total, paper
//!    §4.4), predicting the ~4.3× local-assembly and ~12% end-to-end gains.

use datagen::arcticsynth_like;
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;
use mhm::report::render_breakdown;
use mhm::scaling::{PaperAnchors, ScalingModel};
use mhm::{run_pipeline, EngineChoice, Phase, PipelineConfig};

fn main() {
    let (_, pairs) = arcticsynth_like(0.05).generate();

    // --- measured runs ---
    let cpu_cfg = PipelineConfig::default();
    let gpu_cfg = PipelineConfig {
        engine: EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 },
        ..PipelineConfig::default()
    };
    let cpu = run_pipeline(&pairs, &cpu_cfg).expect("pipeline runs");
    let gpu = run_pipeline(&pairs, &gpu_cfg).expect("pipeline runs");
    assert_eq!(cpu.contigs, gpu.contigs, "engines must agree on the assembly");

    println!("=== Figure 12 (measured host seconds, laptop-scale arcticsynth-like) ===\n");
    println!("{}", render_breakdown("CPU local assembly", &cpu.timings));
    println!("{}", render_breakdown("GPU local assembly (simulator host time)", &gpu.timings));
    println!(
        "modeled: GPU local assembly {:.4} s simulated V100 device time\n",
        gpu.stats.gpu.as_ref().expect("the GPU engine models its seconds").seconds,
    );

    // --- model at 2 nodes with the arcticsynth profile ---
    // §4.4: "for the arcticsynth dataset the overall time spent in the
    // Local Assembly phase is about 14%". Rebalance the anchor fractions
    // around LA = 14% and a 460 s 2-node total (Fig. 12's y-axis scale).
    let mut anchors = PaperAnchors {
        nodes_anchor: 2.0,
        total_anchor_s: 460.0,
        nodes_far: 32.0,
        la_speedup_anchor: 4.3,
        la_speedup_far: 2.0,
        ..PaperAnchors::default()
    };
    let la = 0.14;
    let rest = (1.0 - la) / 0.66;
    for (p, f, _) in anchors.phases.iter_mut() {
        *f = if *p == Phase::LocalAssembly { la } else { *f * rest };
    }
    // FileIo fixed share is negligible at 2 nodes; keep classes as-is.
    let model = ScalingModel::from_anchors(anchors);
    let c2 = model.pipeline_at(2.0, false).expect("anchored node count");
    let g2 = model.pipeline_at(2.0, true).expect("anchored node count");
    println!("=== Figure 12 (model, 2 Summit nodes) ===\n");
    println!(
        "total: CPU {:.0} s -> GPU {:.0} s   overall gain {:.1}% (paper: ~12%)",
        c2.total(),
        g2.total(),
        model.overall_speedup_pct(2.0).expect("anchored node count")
    );
    println!(
        "local assembly: CPU {:.0} s -> GPU {:.0} s   speedup {:.2}x (paper: ~4.3x)",
        c2.get(Phase::LocalAssembly),
        g2.get(Phase::LocalAssembly),
        model.la_speedup(2.0).expect("anchored node count")
    );
}
