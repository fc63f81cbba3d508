//! Quickstart: assemble a small synthetic metagenome end to end.
//!
//! ```text
//! cargo run --release -p bench --example quickstart
//! ```
//!
//! Generates a 4-species community, simulates paired-end reads, runs the
//! full MetaHipMer-like pipeline (merge → k-mer analysis → contig
//! generation → alignment → local assembly → scaffolding), and prints the
//! assembly statistics and per-phase timing breakdown.

use datagen::{generate_community, simulate_reads, CommunityConfig, ReadSimConfig};
use mhm::report::render_breakdown;
use mhm::{run_pipeline, PipelineConfig};

fn main() {
    // 1. A small community: 4 species, 20-30 kb genomes, mild abundance skew.
    let community = generate_community(&CommunityConfig {
        n_species: 4,
        genome_len: (20_000, 30_000),
        abundance_sigma: 0.6,
        seed: 7,
        ..Default::default()
    });
    println!(
        "community: {} genomes, {} total bases",
        community.genomes.len(),
        community.total_bases()
    );
    for (g, a) in community.genomes.iter().zip(&community.abundances) {
        println!("  {:<12} {:>6} bp  abundance {:.3}", g.id, g.seq.len(), a);
    }

    // 2. Illumina-like paired reads at ~30x mean coverage.
    let pairs = simulate_reads(
        &community,
        &ReadSimConfig { n_pairs: 20_000, read_len: 150, ..Default::default() },
    );
    println!("\nsimulated {} read pairs of 150 bp", pairs.len());

    // 3. Assemble.
    let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");

    // 4. Report.
    let merge = &result.stats.merge;
    let r = &result.rounds[0];
    println!("\nassembly:");
    println!("  merged pairs:        {}/{}", merge.merged, merge.pairs_in);
    println!("  distinct k-mers:     {}", r.distinct_kmers);
    println!("  contigs:             {} (of {} raw)", r.contigs_kept, r.contigs_initial);
    let ext = &r.ext_summary;
    println!("  local assembly:      {} tasks, {} bases appended", ext.tasks, ext.bases_appended);
    println!("  walk outcomes:       {}", ext.render());
    let (b1, b2, b3) = r.bins.percentages();
    println!("  task bins:           {b1:.1}% zero-read, {b2:.1}% small, {b3:.2}% large");
    println!("  scaffolds:           {}", result.scaffolds.len());
    let longest = result.contigs.iter().map(|c| c.len()).max().unwrap_or(0);
    println!("  longest contig:      {longest} bp");
    println!();
    println!("{}", render_breakdown("pipeline wall-time breakdown", &result.timings));
}
