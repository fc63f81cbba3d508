//! Shared workload construction for the figure harnesses and benches.
//!
//! The paper's standalone kernel studies use "a data dump" of the contigs
//! and candidate reads flowing into local assembly (§4.1). [`local_assembly_dump`]
//! reproduces that: it runs the upstream pipeline (merge → k-mer analysis →
//! contig generation → alignment) on a preset and returns the extension
//! tasks, exactly what the GPU kernels consume.

use align::{collect_candidates, SeedIndex};
use bioseq::{DnaSeq, Read};
use datagen::Preset;
use dbg::{count_kmers, generate_contigs, DbgGraph};
use locassm::{make_tasks, ExtTask};
use mhm::{merge_reads, PipelineConfig};

/// The upstream dump feeding local assembly.
pub struct Dump {
    /// Contigs from the upstream pipeline.
    pub contigs: Vec<DnaSeq>,
    /// Normalized extension tasks (two per contig).
    pub tasks: Vec<ExtTask>,
    /// Reads used (post-merge).
    pub reads: Vec<Read>,
}

/// Run the upstream pipeline on a preset and dump local-assembly inputs,
/// with the thresholds a single-k [`mhm::run_pipeline`] at `cfg` uses.
pub fn local_assembly_dump(preset: &Preset, cfg: &PipelineConfig) -> Dump {
    let (_, pairs) = preset.generate();
    let (reads, _) = merge_reads(&pairs, &cfg.merge);
    let counts = count_kmers(&reads, cfg.k, cfg.min_kmer_count);
    let graph = DbgGraph::new(cfg.k, counts);
    let contigs: Vec<DnaSeq> = generate_contigs(&graph, cfg.min_votes)
        .into_iter()
        .filter(|c| c.len() >= cfg.min_contig_len)
        .map(|c| c.seq)
        .collect();
    let idx = SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ);
    let cands = collect_candidates(&contigs, &reads, &idx, &cfg.candidates);
    let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
        cands.into_iter().map(|c| (c.right, c.left)).collect();
    let tasks = make_tasks(&contigs, &cand_pairs, &cfg.locassm);
    Dump { contigs, tasks, reads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::arcticsynth_like;

    #[test]
    fn dump_produces_tasks_with_reads() {
        let dump = local_assembly_dump(&arcticsynth_like(0.01), &PipelineConfig::default());
        assert!(!dump.contigs.is_empty());
        assert_eq!(dump.tasks.len(), dump.contigs.len() * 2);
        assert!(
            dump.tasks.iter().any(|t| !t.reads.is_empty()),
            "some tasks must have candidate reads"
        );
    }
}
