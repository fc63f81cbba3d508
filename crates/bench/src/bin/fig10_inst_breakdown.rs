//! Figure 10: instruction-class breakdown of kernels v1 and v2.
//!
//! Paper observation: moving from v1 to v2 the global-memory instruction
//! count drops dramatically while the arithmetic (INT) work stays put,
//! because 32 lanes share coalesced word loads instead of each k-mer being
//! re-loaded by one thread.

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use gpusim::{Counters, DeviceConfig};
use locassm::gpu::{GpuLocalAssembler, KernelVersion};
use locassm::LocalAssemblyParams;
use mhm::report::render_table;
use mhm::PipelineConfig;

fn counters_for(version: KernelVersion, dump: &bench::Dump) -> Counters {
    let mut engine =
        GpuLocalAssembler::new(DeviceConfig::v100(), LocalAssemblyParams::default(), version);
    let (_, stats) = engine.extend_tasks(&dump.tasks);
    stats.counters
}

fn main() {
    let dump = local_assembly_dump(&arcticsynth_like(0.05), &PipelineConfig::default());
    let v1 = counters_for(KernelVersion::V1, &dump);
    let v2 = counters_for(KernelVersion::V2, &dump);

    println!("=== Figure 10: instruction breakdown, v1 vs v2 ===\n");
    let row = |name: &str, a: u64, b: u64| {
        vec![
            name.to_string(),
            a.to_string(),
            b.to_string(),
            format!("{:.2}x", b as f64 / a.max(1) as f64),
        ]
    };
    let rows = vec![
        row("global memory inst", v1.ldst_global_inst, v2.ldst_global_inst),
        row("local memory inst", v1.ldst_local_inst, v2.ldst_local_inst),
        row("INT inst", v1.int_inst, v2.int_inst),
        row("FP inst", v1.fp_inst, v2.fp_inst),
        row("atomic inst", v1.atomic_inst, v2.atomic_inst),
        row("shuffle/ballot inst", v1.shuffle_inst, v2.shuffle_inst),
        row("control inst", v1.control_inst, v2.control_inst),
        row("TOTAL warp inst", v1.warp_insts(), v2.warp_insts()),
    ];
    println!("{}", render_table(&["class", "v1", "v2", "v2/v1"], &rows));
    println!(
        "local-memory share of L1 transactions: v1 {:.0}%, v2 {:.0}%  (paper: ~70%)",
        100.0 * v1.local_transactions as f64 / v1.l1_transactions() as f64,
        100.0 * v2.local_transactions as f64 / v2.l1_transactions() as f64,
    );
    println!("paper: global-memory instructions drop sharply from v1 to v2.");
    assert!(v2.ldst_global_inst < v1.ldst_global_inst);
}
