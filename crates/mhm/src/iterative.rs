//! Iterative-k assembly — the outer loop of Figure 1 ("Iterate for
//! k = k₁, k₂, …").
//!
//! MetaHipMer assembles at a small k first (sensitive at low coverage,
//! repeat-fragile), then re-assembles at progressively larger k with the
//! previous round's contigs injected as *pseudo-reads*: regions that only
//! small-k evidence could assemble survive into the large-k rounds, while
//! large k resolves repeats the small rounds forked on. Alignment + local
//! assembly run inside every round, exactly as in the paper's pipeline
//! diagram; scaffolding runs once at the end. The loop itself is
//! [`run_rounds`], which a single-k [`crate::run_pipeline`] runs over one
//! round.

use crate::errors::PipelineError;
use crate::pipeline::{run_rounds, EngineChoice, PipelineConfig, PipelineResult};
use bioseq::PairedRead;
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;

/// Run the iterative pipeline over `k_schedule` (ascending):
/// [`run_rounds`] without the aln-kernel rescoring.
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
) -> PipelineResult {
    try_run_iterative(pairs, cfg, k_schedule).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_iterative`] with its failures as an `Err`, for `mhm2rs assemble
/// --iterative`.
pub(crate) fn try_run_iterative(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    k_schedule: &[usize],
) -> Result<PipelineResult, PipelineError> {
    // Rescoring stays single-k only until ROADMAP item 5 deletes it.
    run_rounds(pairs, &PipelineConfig { sw_rescore_frac: 0.0, ..cfg.clone() }, k_schedule)
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
    use bioseq::DnaSeq;
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
        assert!(result.rounds.iter().all(|r| r.stats.count > 0));
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
        let (_, pairs) = dataset(42, 0.0);
        // An out-of-range start k makes the kernel panic, so the device
        // fails and every task goes to the CPU fallback; the same k makes
        // that panic too, so every task with reads is skipped.
        let mut gpu_cfg =
            PipelineConfig { engine: gpu_engine_choice(), ..PipelineConfig::default() };
        gpu_cfg.locassm.start_k_idx = gpu_cfg.locassm.k_list.len();
        let cpu_cfg = PipelineConfig { engine: EngineChoice::Cpu, ..gpu_cfg.clone() };
        let gpu = run_iterative(&pairs, &gpu_cfg, &[21, 31]);
        let cpu = run_iterative(&pairs, &cpu_cfg, &[21, 31]);
        // The CPU engine's panic isolation skips the same tasks.
        let per_round = |r: &PipelineResult| r.rounds.iter().map(|r| r.failed_tasks).collect();
        let skipped: Vec<usize> = per_round(&gpu);
        assert_eq!(skipped, per_round(&cpu));
        assert!(skipped.iter().all(|&n| n > 0), "every round skips tasks: {skipped:?}");
        assert_eq!(gpu.stats.la_failed_tasks, skipped.iter().sum::<usize>());
        assert_eq!(gpu.contigs, cpu.contigs);
        let report = crate::report::render_run(&gpu);
        let line = format!("  {:<24} {}\n", "tasks skipped", gpu.stats.la_failed_tasks);
        assert!(report.contains(&line), "{report}");
        // The fallback counters of every round are summed, not dropped.
        let fallback = gpu.stats.gpu.as_ref().expect("the GPU engine reports its fallback");
        assert!(fallback.device_failed);
        assert_eq!(fallback.cpu_fallback_tasks, gpu.stats.la_failed_tasks);
        assert!(report.contains("device failed"), "{report}");
        let line = format!("  {:<24} {}\n", "CPU-fallback tasks", fallback.cpu_fallback_tasks);
        assert!(report.contains(&line), "{report}");
        assert!(cpu.stats.gpu.is_none(), "the CPU engine has no device to fall back from");
    }

    #[test]
    fn every_engine_assembles_the_cpu_contigs() {
        let (_, pairs) = dataset(42, 0.0);
        let cpu = run_iterative(&pairs, &PipelineConfig::default(), &[21, 31]);
        for engine in [gpu_engine_choice(), overlap_engine_choice()] {
            let cfg = PipelineConfig { engine, ..PipelineConfig::default() };
            let out = run_iterative(&pairs, &cfg, &[21, 31]);
            assert_eq!(out.contigs, cpu.contigs, "{:?}", cfg.engine);
            assert_eq!(out.stats.la_failed_tasks, 0);
            let gpu = out.stats.gpu.as_ref().expect("a GPU engine ran every round");
            assert!(!gpu.device_failed && gpu.cpu_fallback_tasks == 0, "healthy device: {gpu:?}");
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
