//! §3.2 memory table: pointer-compressed k-mer keys vs materialized k-mers.
//!
//! The paper's example: a 77-mer stored as characters needs 77 bytes, while
//! a (pointer, length) reference into the stored read needs ~5 bytes —
//! about 15× less. We tabulate the ratio across k and then measure the
//! real effect on total device memory for a packed batch.

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use locassm::gpu::layout::{key_materialized_bytes, KEY_POINTER_BYTES};
use mhm::report::render_table;
use mhm::PipelineConfig;

fn main() {
    println!("=== K-mer key memory: pointer vs materialized (paper §3.2) ===\n");
    let mut rows = Vec::new();
    for k in [21usize, 33, 55, 77, 99] {
        let mat = key_materialized_bytes(k);
        // The paper counts 5 bytes for (start pointer, length); our entry
        // rounds the key to one 8-byte word.
        rows.push(vec![
            k.to_string(),
            format!("{mat}"),
            "5 (paper) / 8 (ours)".to_string(),
            format!("{:.1}x / {:.1}x", mat as f64 / 5.0, mat as f64 / KEY_POINTER_BYTES as f64),
        ]);
    }
    println!("{}", render_table(&["k", "materialized (B)", "pointer (B)", "savings"], &rows));
    println!("paper: ~15x at k=77 (5-byte pointer encoding).\n");

    // Whole-batch effect: compare slab key storage against what
    // materialized keys would need at the walk's largest k.
    let dump = local_assembly_dump(&arcticsynth_like(0.02), &PipelineConfig::default());
    let k_max = 41usize; // largest k in the test schedule
    let mut pointer_bytes = 0u64;
    let mut materialized_bytes = 0u64;
    for t in dump.tasks.iter().filter(|t| !t.reads.is_empty()) {
        let slots: u64 = t.reads.iter().map(|r| r.len() as u64).sum();
        pointer_bytes += slots * KEY_POINTER_BYTES;
        materialized_bytes += slots * key_materialized_bytes(k_max);
    }
    println!(
        "batch key storage at k={k_max}: pointer {:.2} MB vs materialized {:.2} MB ({:.1}x less)",
        pointer_bytes as f64 / 1e6,
        materialized_bytes as f64 / 1e6,
        materialized_bytes as f64 / pointer_bytes as f64
    );
}
