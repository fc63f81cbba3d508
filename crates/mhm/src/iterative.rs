//! Iterative-k assembly — the outer loop of Figure 1 ("Iterate for
//! k = k₁, k₂, …").
//!
//! MetaHipMer assembles at a small k first (sensitive at low coverage,
//! repeat-fragile), then re-assembles at progressively larger k with the
//! previous round's contigs injected as *pseudo-reads*: regions that only
//! small-k evidence could assemble survive into the large-k rounds, while
//! large k resolves repeats the small rounds forked on. Alignment + local
//! assembly run inside every round, exactly as in the paper's pipeline
//! diagram; scaffolding runs once at the end.

use crate::merge::merge_reads;
use crate::pipeline::{run_local_assembly, EngineChoice, Phase, PhaseTimings, PipelineConfig};
use crate::scaffold::{scaffold_contigs, Scaffold};
use crate::stats::AssemblyStats;
use align::{collect_candidates, SeedIndex};
use bioseq::{DnaSeq, PairedRead, Read};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use gpusim::DeviceConfig;
use locassm::gpu::{KernelVersion, RecoveryStats};
use locassm::{apply_extensions, make_tasks};
use std::time::Instant;

/// Per-round statistics.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub k: usize,
    pub contigs: usize,
    pub stats: AssemblyStats,
    pub bases_appended: usize,
    /// Local-assembly tasks skipped after every recovery rung failed (their
    /// contigs keep this round's sequence).
    pub failed_tasks: usize,
    /// Recovery-ladder counters of this round's GPU engine (GPU and overlap
    /// engines only).
    pub recovery: Option<RecoveryStats>,
}

/// Result of an iterative assembly.
#[derive(Debug)]
pub struct IterativeResult {
    pub contigs: Vec<DnaSeq>,
    pub scaffolds: Vec<Scaffold>,
    pub rounds: Vec<RoundStats>,
    pub timings: PhaseTimings,
}

impl IterativeResult {
    /// Local-assembly tasks skipped, summed over rounds.
    pub fn failed_tasks(&self) -> usize {
        self.rounds.iter().map(|r| r.failed_tasks).sum()
    }

    /// Recovery-ladder counters summed over rounds; `None` when no round
    /// ran a GPU engine.
    pub fn recovery(&self) -> Option<RecoveryStats> {
        self.rounds.iter().filter_map(|r| r.recovery.as_ref()).fold(None, |sum, r| {
            let mut sum = sum.unwrap_or_default();
            sum.absorb(r);
            Some(sum)
        })
    }
}

/// Weight given to contig pseudo-reads when re-counting k-mers (so contig
/// sequence passes the singleton filter on its own).
const CONTIG_PSEUDO_WEIGHT: usize = 2;

/// Run the iterative pipeline over `k_schedule` (ascending).
///
/// # Panics
///
/// Panics if `k_schedule` is empty, or if the overlap driver rejects its
/// configuration or breaks an internal invariant
/// ([`locassm::DriverError`]).
pub fn run_iterative(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    k_schedule: &[usize],
) -> IterativeResult {
    assert!(!k_schedule.is_empty(), "empty k schedule");
    let mut timings = PhaseTimings::new();

    let t = Instant::now();
    let (reads, _) = merge_reads(pairs, &cfg.merge);
    timings.add(Phase::MergeReads, t.elapsed().as_secs_f64());

    let mut contigs: Vec<DnaSeq> = Vec::new();
    let mut rounds = Vec::new();

    for &k in k_schedule {
        // k-mer analysis over reads + previous contigs as pseudo-reads.
        let t = Instant::now();
        let mut round_reads: Vec<Read> = reads.clone();
        for (i, c) in contigs.iter().enumerate() {
            for w in 0..CONTIG_PSEUDO_WEIGHT {
                round_reads.push(Read::with_uniform_qual(
                    format!("__contig_{i}_{w}"),
                    c.clone(),
                    40,
                ));
            }
        }
        let counts = count_kmers(&round_reads, k, cfg.min_kmer_count);
        timings.add(Phase::KmerAnalysis, t.elapsed().as_secs_f64());

        // contig generation
        let t = Instant::now();
        let graph = DbgGraph::new(k, counts);
        contigs = generate_contigs(&graph, cfg.min_votes)
            .into_iter()
            .filter(|c| c.len() >= cfg.min_contig_len)
            .map(|c| c.seq)
            .collect();
        timings.add(Phase::ContigGeneration, t.elapsed().as_secs_f64());

        // alignment (candidates from the real reads only — contigs must not
        // vote on their own extension)
        let t = Instant::now();
        let idx = SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ);
        let cands = collect_candidates(&contigs, &reads, &idx, &cfg.candidates);
        timings.add(Phase::Alignment, t.elapsed().as_secs_f64());

        // local assembly
        let t = Instant::now();
        let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
            cands.into_iter().map(|c| (c.right, c.left)).collect();
        let tasks = make_tasks(&contigs, &cand_pairs, &cfg.locassm);
        let la = run_local_assembly(&tasks, &cfg.locassm, &cfg.engine)
            .unwrap_or_else(|e| panic!("local assembly at k={k}: {e}"));
        let results = la.results;
        let appended: usize = results.iter().map(|r| r.appended.len()).sum();
        contigs = apply_extensions(&contigs, &tasks, &results);
        timings.add(Phase::LocalAssembly, t.elapsed().as_secs_f64());

        rounds.push(RoundStats {
            k,
            contigs: contigs.len(),
            stats: AssemblyStats::of(&contigs),
            bases_appended: appended,
            failed_tasks: la.failed_tasks,
            recovery: la.gpu.map(|g| g.recovery),
        });
    }

    // scaffolding on the final round's contigs
    let t = Instant::now();
    let scaffolds = scaffold_contigs(&contigs, pairs, &cfg.scaffold);
    timings.add(Phase::Scaffolding, t.elapsed().as_secs_f64());

    IterativeResult { contigs, scaffolds, rounds, timings }
}

/// Default MetaHipMer-style schedule clipped to the observed read length.
pub fn default_schedule(max_read_len: usize) -> Vec<usize> {
    [21usize, 33, 55, 77, 99].into_iter().filter(|&k| k + 1 < max_read_len).collect()
}

/// Convenience wrapper for the GPU engine.
pub fn gpu_engine_choice() -> EngineChoice {
    EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 }
}

/// Convenience wrapper for the work-stealing overlap driver.
pub fn overlap_engine_choice() -> EngineChoice {
    EngineChoice::Overlap {
        device: DeviceConfig::v100(),
        version: KernelVersion::V2,
        schedule: locassm::SchedulePolicy::WorkSteal(locassm::StealConfig::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate_community, simulate_reads, CommunityConfig, ReadSimConfig};

    fn dataset(seed: u64, repeat_prob: f64) -> (datagen::Community, Vec<PairedRead>) {
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (9_000, 12_000),
            abundance_sigma: 0.4,
            repeat_prob,
            repeat_period: 61,
            seed,
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig {
                n_pairs: 4_000,
                read_len: 100,
                insert_mean: 260.0,
                insert_sd: 20.0,
                lo_frac: 0.01,
                seed: seed + 1,
                ..Default::default()
            },
        );
        (community, pairs)
    }

    #[test]
    fn schedule_clips_to_read_length() {
        assert_eq!(default_schedule(150), vec![21, 33, 55, 77, 99]);
        assert_eq!(default_schedule(60), vec![21, 33, 55]);
        assert_eq!(default_schedule(20), Vec::<usize>::new());
    }

    #[test]
    fn iterative_runs_all_rounds() {
        let (_, pairs) = dataset(42, 0.0);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31, 41]);
        assert_eq!(result.rounds.len(), 3);
        assert!(result.rounds.iter().all(|r| r.contigs > 0));
        // Each contig appears in exactly one scaffold.
        let members: usize = result.scaffolds.iter().map(|s| s.members.len()).sum();
        assert_eq!(members, result.contigs.len());
    }

    #[test]
    fn iterating_does_not_hurt_contiguity_on_repeats() {
        // On repeat-bearing genomes the final (large-k) round should be at
        // least as contiguous as the first (small-k) round.
        let (_, pairs) = dataset(7, 0.25);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31, 41]);
        let first = &result.rounds[0].stats;
        let last = &result.rounds[result.rounds.len() - 1].stats;
        assert!(
            last.n50 * 10 >= first.n50 * 9,
            "iterating collapsed N50: {} -> {}",
            first.n50,
            last.n50
        );
    }

    #[test]
    fn final_assembly_covers_genomes() {
        let (community, pairs) = dataset(11, 0.1);
        let cfg = PipelineConfig::default();
        let result = run_iterative(&pairs, &cfg, &[21, 31]);
        let refs: Vec<DnaSeq> = community.genomes.iter().map(|g| g.seq.clone()).collect();
        let eval = crate::stats::evaluate_against_refs(&result.contigs, &refs, 31);
        assert!(eval.genome_fraction > 0.7, "genome fraction {:.3}", eval.genome_fraction);
        assert!(eval.precision > 0.9, "precision {:.3}", eval.precision);
    }

    #[test]
    fn skipped_tasks_are_counted_and_reported() {
        use gpusim::{Fault, FaultPlan};
        let (_, pairs) = dataset(42, 0.0);
        // Every launch hangs, so the device is lost and every task falls to
        // the CPU rung; an out-of-range start k makes that rung panic too,
        // so every task with reads ends on the skip rung.
        let plan = FaultPlan {
            faults: (0..64)
                .map(|i| Fault::KernelHang { at_launch: i, after_cycles: 100 })
                .collect(),
        };
        let mut gpu_cfg = PipelineConfig {
            engine: EngineChoice::Gpu {
                device: DeviceConfig::v100().with_fault_plan(plan),
                version: KernelVersion::V2,
            },
            ..PipelineConfig::default()
        };
        gpu_cfg.locassm.start_k_idx = gpu_cfg.locassm.k_list.len();
        let cpu_cfg = PipelineConfig { engine: EngineChoice::Cpu, ..gpu_cfg.clone() };
        let gpu = run_iterative(&pairs, &gpu_cfg, &[21, 31]);
        let cpu = run_iterative(&pairs, &cpu_cfg, &[21, 31]);
        // The CPU engine's panic isolation skips the same tasks.
        let per_round = |r: &IterativeResult| r.rounds.iter().map(|r| r.failed_tasks).collect();
        let skipped: Vec<usize> = per_round(&gpu);
        assert_eq!(skipped, per_round(&cpu));
        assert!(skipped.iter().all(|&n| n > 0), "every round skips tasks: {skipped:?}");
        assert_eq!(gpu.failed_tasks(), skipped.iter().sum::<usize>());
        assert_eq!(gpu.contigs, cpu.contigs);
        let report = crate::report::render_rounds(&gpu);
        let line = format!("  {:<24} {}\n", "tasks skipped", gpu.failed_tasks());
        assert!(report.contains(&line), "{report}");
        // The recovery counters of every round are summed, not dropped.
        let recovery = gpu.recovery().expect("the GPU engine reports recovery");
        assert!(recovery.device_lost);
        assert!(recovery.device_resets >= 2, "one reset budget per round: {recovery:?}");
        assert!(report.contains("device lost"), "{report}");
        assert!(report.contains("device resets"), "{report}");
        assert_eq!(cpu.recovery(), None, "the CPU engine has no ladder");
    }

    #[test]
    fn every_engine_assembles_the_cpu_contigs() {
        let (_, pairs) = dataset(42, 0.0);
        let cpu = run_iterative(&pairs, &PipelineConfig::default(), &[21, 31]);
        for engine in [gpu_engine_choice(), overlap_engine_choice()] {
            let cfg = PipelineConfig { engine, ..PipelineConfig::default() };
            let out = run_iterative(&pairs, &cfg, &[21, 31]);
            assert_eq!(out.contigs, cpu.contigs, "{:?}", cfg.engine);
            assert_eq!(out.failed_tasks(), 0);
            let recovery = out.recovery().expect("a GPU engine ran every round");
            assert!(!recovery.any_recovery(), "healthy device: {recovery:?}");
        }
    }

    #[test]
    fn deterministic() {
        let (_, pairs) = dataset(3, 0.1);
        let cfg = PipelineConfig::default();
        let a = run_iterative(&pairs, &cfg, &[21, 31]);
        let b = run_iterative(&pairs, &cfg, &[21, 31]);
        assert_eq!(a.contigs, b.contigs);
    }
}
