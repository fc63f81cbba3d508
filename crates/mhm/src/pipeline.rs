//! End-to-end pipeline orchestration with per-phase timing.

use crate::errors::PipelineError;
use crate::merge::{merge_reads, MergeParams, MergeStats};
use crate::scaffold::{scaffold_contigs, Scaffold, ScaffoldParams};
use crate::stats::AssemblyStats;
use align::sw::{banded_sw, SwScoring};
use align::{collect_candidates, CandidateParams, SeedIndex};
use bioseq::{DnaSeq, PairedRead, Read};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use gpusim::DeviceConfig;
use locassm::gpu::{GpuLocalAssembler, GpuRunStats, KernelVersion};
use locassm::{
    apply_extensions, bin_tasks, extend_all_cpu_isolated, make_tasks, summarize, BinStats,
    DriverError, ExtResult, ExtSummary, ExtTask, LocalAssemblyParams, OverlapDriver,
    ScheduleReport, TaskOutcome,
};
use std::time::Instant;

/// Pipeline phases, named as in the paper's run-time breakdowns (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    MergeReads,
    KmerAnalysis,
    ContigGeneration,
    Alignment,
    AlnKernel,
    LocalAssembly,
    Scaffolding,
    FileIo,
}

impl Phase {
    /// All phases in pipeline order.
    pub const ALL: [Phase; 8] = [
        Phase::MergeReads,
        Phase::KmerAnalysis,
        Phase::ContigGeneration,
        Phase::Alignment,
        Phase::AlnKernel,
        Phase::LocalAssembly,
        Phase::Scaffolding,
        Phase::FileIo,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Phase::MergeReads => "merge reads",
            Phase::KmerAnalysis => "k-mer analysis",
            Phase::ContigGeneration => "contig generation",
            Phase::Alignment => "alignment",
            Phase::AlnKernel => "aln kernel",
            Phase::LocalAssembly => "local assembly",
            Phase::Scaffolding => "scaffolding",
            Phase::FileIo => "file I/O",
        }
    }
}

/// Seconds per phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    entries: Vec<(Phase, f64)>,
}

impl PhaseTimings {
    /// Empty timings.
    pub fn new() -> PhaseTimings {
        PhaseTimings::default()
    }

    /// Record (accumulate) seconds for a phase.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == phase) {
            e.1 += seconds;
        } else {
            self.entries.push((phase, seconds));
        }
    }

    /// Seconds recorded for a phase (0 if absent).
    pub fn get(&self, phase: Phase) -> f64 {
        self.entries.iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, s)| *s)
    }

    /// Total across phases.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }

    /// `(phase, seconds, fraction)` rows in pipeline order.
    pub fn breakdown(&self) -> Vec<(Phase, f64, f64)> {
        let total = self.total().max(f64::MIN_POSITIVE);
        Phase::ALL.iter().map(|&p| (p, self.get(p), self.get(p) / total)).collect()
    }
}

/// Which local-assembly engine the pipeline uses.
#[derive(Debug, Clone)]
pub enum EngineChoice {
    /// Multicore CPU reference.
    Cpu,
    /// Simulated-GPU engine with the given device and kernel version.
    Gpu { device: DeviceConfig, version: KernelVersion },
    /// CPU/GPU overlap driver (paper §4.3): both engines share the task
    /// list under the work-stealing [`locassm::SchedulePolicy`].
    Overlap { device: DeviceConfig, version: KernelVersion, schedule: locassm::SchedulePolicy },
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Contig-generation k of a single-k run ([`run_pipeline`]).
    pub k: usize,
    /// Minimum k-mer count (singleton filter).
    pub min_kmer_count: u32,
    /// Minimum extension votes during contig generation.
    pub min_votes: u16,
    /// Discard contigs shorter than this before downstream phases.
    pub min_contig_len: usize,
    pub merge: MergeParams,
    pub candidates: CandidateParams,
    pub locassm: LocalAssemblyParams,
    pub scaffold: ScaffoldParams,
    pub engine: EngineChoice,
    /// Fraction of accepted candidate alignments rescored with banded SW
    /// (the "aln kernel" phase; 0 disables).
    pub sw_rescore_frac: f64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            k: 31,
            min_kmer_count: 2,
            min_votes: 2,
            min_contig_len: 100,
            merge: MergeParams::default(),
            candidates: CandidateParams::default(),
            locassm: LocalAssemblyParams::default(),
            scaffold: ScaffoldParams::default(),
            engine: EngineChoice::Cpu,
            sw_rescore_frac: 0.25,
        }
    }
}

/// Everything a pipeline run produces, single k or iterative.
#[derive(Debug)]
pub struct PipelineResult {
    /// The final round's contigs after local-assembly extension.
    pub contigs: Vec<DnaSeq>,
    /// Scaffolds over the final round's contigs.
    pub scaffolds: Vec<Scaffold>,
    /// Measured host seconds per phase, summed over rounds, on every
    /// engine. The LocalAssembly row runs from building the tasks to
    /// applying the extensions, simulator host time included. Modeled
    /// device seconds never land here; they are in `stats.gpu.seconds`.
    pub timings: PhaseTimings,
    pub stats: PipelineStats,
    /// One entry per k round, in schedule order (one for a single-k run);
    /// the last describes the round the contigs come from.
    pub rounds: Vec<RoundStats>,
}

impl PipelineResult {
    /// Whether local assembly degraded: the GPU engine's CPU fallback ran
    /// tasks in the device's place (the device failed a batch, or a task
    /// was too large for it), or tasks were skipped.
    pub fn degraded(&self) -> bool {
        self.stats.gpu.as_ref().is_some_and(|g| g.cpu_fallback_tasks > 0)
            || self.stats.la_failed_tasks > 0
    }
}

/// Run statistics. Each field follows one of two rules: *run* fields
/// describe the whole run once, and *summed* fields add up the work of
/// every k round. Per-round facts are in [`RoundStats`], one per round.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Run: input read pairs.
    pub pairs_in: usize,
    /// Run: read merging.
    pub merge: MergeStats,
    /// Run: reads after merging.
    pub reads_for_assembly: usize,
    /// Summed: GPU engine run stats (GPU and overlap engines). Its
    /// `seconds` are modeled (simulated) device seconds, for overlap the
    /// GPU side only, not the schedule makespan, and never added to the
    /// measured phase table. Its `device_failed` and `cpu_fallback_tasks`
    /// are unset on a run the device completed.
    pub gpu: Option<GpuRunStats>,
    /// Summed: tasks skipped because their CPU run panicked (their contigs
    /// keep their unextended sequence).
    pub la_failed_tasks: usize,
}

/// What one k round did. Every field describes that round only.
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub k: usize,
    /// Contiguity of the round's contigs after local-assembly extension.
    pub stats: AssemblyStats,
    /// Distinct k-mers that passed the singleton filter.
    pub distinct_kmers: usize,
    /// Contigs generated before the length filter.
    pub contigs_initial: usize,
    /// Contigs kept by the length filter.
    pub contigs_kept: usize,
    /// Local-assembly tasks by bin.
    pub bins: BinStats,
    /// Local-assembly walk telemetry: tasks, bases appended, walk states,
    /// iterations and extension lengths.
    pub ext_summary: ExtSummary,
    /// Local-assembly tasks skipped because their CPU run panicked (their
    /// contigs keep this round's sequence).
    pub failed_tasks: usize,
    /// Overlap-scheduler report (overlap engine only): shares, steal
    /// counts, and the virtual-time makespan model.
    pub overlap: Option<ScheduleReport>,
}

/// What local assembly produced, whichever engine ran it.
#[derive(Debug)]
pub struct LocalAssemblyRun {
    /// Results, index-aligned with the input tasks.
    pub results: Vec<ExtResult>,
    /// Tasks skipped because their CPU run panicked (their contigs keep
    /// their current sequence).
    pub failed_tasks: usize,
    /// Simulated device stats, CPU-fallback counters included (GPU and
    /// overlap engines only).
    pub gpu: Option<GpuRunStats>,
    /// What the overlap scheduler did (overlap engine only).
    pub schedule: Option<ScheduleReport>,
}

/// Extend every task on the configured engine: the one engine dispatch
/// behind [`run_rounds`].
///
/// Every engine isolates tasks: a task whose CPU run panics (on the CPU
/// engine or the GPU engine's fallback) is skipped and counted, never
/// fatal. An `Err` means the overlap driver was misconfigured or broke an
/// internal invariant.
pub fn run_local_assembly(
    tasks: &[ExtTask],
    params: &LocalAssemblyParams,
    engine: &EngineChoice,
) -> Result<LocalAssemblyRun, DriverError> {
    let counted = |outcomes: Vec<TaskOutcome>| {
        let failed = outcomes.iter().filter(|o| o.is_failed()).count();
        (outcomes.into_iter().map(TaskOutcome::into_result).collect(), failed)
    };
    Ok(match engine {
        EngineChoice::Cpu => {
            let (results, failed_tasks) = counted(extend_all_cpu_isolated(tasks, params));
            LocalAssemblyRun { results, failed_tasks, gpu: None, schedule: None }
        }
        EngineChoice::Gpu { device, version } => {
            let mut engine = GpuLocalAssembler::new(device.clone(), params.clone(), *version);
            let (outcomes, gpu) = engine.extend_tasks_outcomes(tasks);
            let (results, failed_tasks) = counted(outcomes);
            LocalAssemblyRun { results, failed_tasks, gpu: Some(gpu), schedule: None }
        }
        EngineChoice::Overlap { device, version, schedule } => {
            let driver = OverlapDriver {
                device: device.clone(),
                version: *version,
                schedule: schedule.clone(),
            };
            let out = driver.run(tasks, params)?;
            LocalAssemblyRun {
                results: out.results,
                failed_tasks: out.failed_tasks,
                gpu: out.gpu_stats,
                schedule: Some(out.schedule),
            }
        }
    })
}

/// Run the full pipeline at `cfg.k`: [`run_rounds`] over one round.
///
/// A batch the device fails (out of memory, corrupt output, or a panicking
/// kernel) runs on the CPU fallback and is reported in `PipelineStats::gpu`
/// (`device_failed`, `cpu_fallback_tasks`); an `Err` means the run could
/// not produce a result at all.
pub fn run_pipeline(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
) -> Result<PipelineResult, PipelineError> {
    run_rounds(pairs, cfg, &[cfg.k])
}

/// Times each previous-round contig is counted with the reads when
/// re-counting k-mers (so contig sequence passes the singleton filter on
/// its own).
const CONTIG_PSEUDO_WEIGHT: usize = 2;

/// The assembly loop behind [`run_pipeline`] and [`crate::run_iterative`]:
/// merge the reads once, run one round per k of `ks` (ascending), then
/// scaffold the final round's contigs.
///
/// A round counts k-mers over the reads plus the previous round's contigs
/// as pseudo-reads, generates contigs, aligns the reads to them, and
/// extends them by local assembly. The pseudo-reads carry regions that only
/// small-k evidence could assemble into the large-k rounds, while large k
/// resolves repeats the small rounds forked on (Figure 1, "Iterate for
/// k = k₁, k₂, …").
///
/// An empty `ks`, or a k outside `1..=`[`kmer::MAX_K`], is an
/// [`ErrorKind::InvalidInput`](crate::ErrorKind) error, returned before any
/// work; see [`run_pipeline`] for the rest.
pub fn run_rounds(
    pairs: &[PairedRead],
    cfg: &PipelineConfig,
    ks: &[usize],
) -> Result<PipelineResult, PipelineError> {
    if ks.is_empty() {
        return Err(PipelineError::invalid_input(Phase::KmerAnalysis, "empty k schedule"));
    }
    if let Some(k) = ks.iter().find(|k| !(1..=kmer::MAX_K).contains(*k)) {
        let detail = format!("k={k} is outside 1..={}", kmer::MAX_K);
        return Err(PipelineError::invalid_input(Phase::KmerAnalysis, detail));
    }
    let mut timings = PhaseTimings::new();
    let mut stats = PipelineStats { pairs_in: pairs.len(), ..Default::default() };

    let t = Instant::now();
    let (reads, merge_stats) = merge_reads(pairs, &cfg.merge);
    timings.add(Phase::MergeReads, t.elapsed().as_secs_f64());
    stats.merge = merge_stats;
    stats.reads_for_assembly = reads.len();

    let mut contigs = Vec::new();
    let mut rounds = Vec::with_capacity(ks.len());
    for &k in ks {
        let (extended, round) = run_round(k, &reads, &contigs, cfg, &mut timings, &mut stats)?;
        contigs = extended;
        rounds.push(round);
    }

    let t = Instant::now();
    let scaffolds = scaffold_contigs(&contigs, pairs, &cfg.scaffold);
    timings.add(Phase::Scaffolding, t.elapsed().as_secs_f64());

    Ok(PipelineResult { contigs, scaffolds, timings, stats, rounds })
}

/// One k round over `prev`, the previous round's contigs (empty in the
/// first round). Books each phase's host seconds in `timings`, adds the
/// round's local-assembly work to the summed `stats`, and returns the
/// extended contigs.
fn run_round(
    k: usize,
    reads: &[Read],
    prev: &[DnaSeq],
    cfg: &PipelineConfig,
    timings: &mut PhaseTimings,
    stats: &mut PipelineStats,
) -> Result<(Vec<DnaSeq>, RoundStats), PipelineError> {
    // k-mer analysis over the reads plus each previous-round contig
    // `CONTIG_PSEUDO_WEIGHT` times, all borrowed.
    let t = Instant::now();
    let count_over: Vec<&DnaSeq> = reads
        .iter()
        .map(|r| &r.seq)
        .chain(prev.iter().flat_map(|c| std::iter::repeat_n(c, CONTIG_PSEUDO_WEIGHT)))
        .collect();
    let counts = count_kmers(&count_over, k, cfg.min_kmer_count);
    let distinct_kmers = counts.len();
    timings.add(Phase::KmerAnalysis, t.elapsed().as_secs_f64());

    let t = Instant::now();
    let raw_contigs = generate_contigs(&DbgGraph::new(k, counts), cfg.min_votes);
    let contigs_initial = raw_contigs.len();
    let contigs: Vec<DnaSeq> =
        raw_contigs.into_iter().filter(|c| c.len() >= cfg.min_contig_len).map(|c| c.seq).collect();
    timings.add(Phase::ContigGeneration, t.elapsed().as_secs_f64());

    // Alignment: candidates come from the real reads only, so contigs never
    // vote on their own extension.
    let t = Instant::now();
    let idx = SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ);
    let cands = collect_candidates(&contigs, reads, &idx, &cfg.candidates);
    timings.add(Phase::Alignment, t.elapsed().as_secs_f64());

    let t = Instant::now();
    if cfg.sw_rescore_frac > 0.0 {
        let mut budget =
            (cands.iter().map(|c| c.total()).sum::<usize>() as f64 * cfg.sw_rescore_frac) as usize;
        'outer: for (ci, c) in cands.iter().enumerate() {
            for r in c.right.iter().chain(c.left.iter()) {
                if budget == 0 {
                    break 'outer;
                }
                let _ = banded_sw(&r.seq, &contigs[ci], SwScoring::default(), 16, 0);
                budget -= 1;
            }
        }
    }
    timings.add(Phase::AlnKernel, t.elapsed().as_secs_f64());

    let t = Instant::now();
    let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
        cands.into_iter().map(|c| (c.right, c.left)).collect();
    let tasks = make_tasks(&contigs, &cand_pairs, &cfg.locassm);
    let bins = bin_tasks(&tasks);
    let la = run_local_assembly(&tasks, &cfg.locassm, &cfg.engine)
        .map_err(|e| PipelineError::engine(Phase::LocalAssembly, e))?;
    let ext_summary = summarize(&la.results);
    let extended = apply_extensions(&contigs, &tasks, &la.results);
    timings.add(Phase::LocalAssembly, t.elapsed().as_secs_f64());

    stats.la_failed_tasks += la.failed_tasks;
    if let Some(gpu) = la.gpu {
        stats.gpu.get_or_insert_with(GpuRunStats::default).absorb(&gpu);
    }
    let round = RoundStats {
        k,
        stats: AssemblyStats::of(&extended),
        distinct_kmers,
        contigs_initial,
        contigs_kept: contigs.len(),
        bins,
        ext_summary,
        failed_tasks: la.failed_tasks,
        overlap: la.schedule,
    };
    Ok((extended, round))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{
        arcticsynth_like, generate_community, simulate_reads, CommunityConfig, ReadSimConfig,
    };

    fn tiny_dataset() -> (datagen::Community, Vec<PairedRead>) {
        dataset_of(3_000)
    }

    /// `n_pairs` read pairs from two 8-9 kb genomes.
    fn dataset_of(n_pairs: usize) -> (datagen::Community, Vec<PairedRead>) {
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (8_000, 9_000),
            abundance_sigma: 0.3,
            seed: 11,
            ..Default::default()
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig {
                n_pairs,
                read_len: 100,
                insert_mean: 240.0,
                insert_sd: 15.0,
                lo_frac: 0.01,
                ..Default::default()
            },
        );
        (community, pairs)
    }

    #[test]
    fn cpu_pipeline_assembles_genomes() {
        let (community, pairs) = tiny_dataset();
        let cfg = PipelineConfig::default();
        let result = run_pipeline(&pairs, &cfg).expect("pipeline runs");
        let round = &result.rounds[0];
        assert!(round.contigs_kept > 0, "no contigs survived");
        assert!(round.distinct_kmers > 1000);
        // Longest contig should cover a large chunk of some genome.
        let longest = result.contigs.iter().map(DnaSeq::len).max().unwrap();
        let min_genome = community.genomes.iter().map(|g| g.seq.len()).min().unwrap();
        assert!(
            longest as f64 > 0.5 * min_genome as f64,
            "longest contig {longest} vs smallest genome {min_genome}"
        );
        // All phases ticked.
        for p in Phase::ALL {
            assert!(result.timings.get(p) >= 0.0);
        }
        assert!(result.timings.get(Phase::LocalAssembly) > 0.0);
    }

    #[test]
    fn contigs_are_identical_at_1_2_and_4_threads() {
        // The thread count sets the number of k-mer partitions, among
        // other things; no output may depend on it.
        let (_, pairs) = dataset_of(1_000);
        let cfg = PipelineConfig::default();
        let schedule = crate::iterative::default_schedule(100);
        let outputs = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            pool.install(|| {
                let single = run_pipeline(&pairs, &cfg).expect("pipeline runs");
                let looped = crate::run_iterative(&pairs, &cfg, &schedule);
                let rendered = |r: &PipelineResult| -> Vec<DnaSeq> {
                    r.scaffolds.iter().map(|s| s.render(&r.contigs)).collect()
                };
                (rendered(&single), single.contigs, rendered(&looped), looped.contigs)
            })
        };
        let one = outputs(1);
        assert!(!one.1.is_empty() && !one.3.is_empty());
        for threads in [2, 4] {
            assert!(outputs(threads) == one, "{threads} threads changed the assembly");
        }
    }

    #[test]
    fn gpu_pipeline_matches_cpu_contigs() {
        let (_, pairs) = tiny_dataset();
        let cpu_cfg = PipelineConfig::default();
        let gpu_cfg = PipelineConfig {
            engine: EngineChoice::Gpu { device: DeviceConfig::v100(), version: KernelVersion::V2 },
            ..PipelineConfig::default()
        };
        let cpu = run_pipeline(&pairs, &cpu_cfg).expect("pipeline runs");
        let gpu = run_pipeline(&pairs, &gpu_cfg).expect("pipeline runs");
        assert_eq!(cpu.contigs, gpu.contigs, "engines must produce identical assemblies");
        let gpu_stats = gpu.stats.gpu.as_ref().unwrap();
        assert!(gpu_stats.seconds > 0.0);
        assert!(gpu_stats.counters.warp_insts() > 0);
    }

    #[test]
    fn gpu_local_assembly_row_is_measured_host_seconds() {
        let (_, pairs) = tiny_dataset();
        let cfg = PipelineConfig {
            engine: crate::iterative::gpu_engine_choice(),
            ..PipelineConfig::default()
        };
        let result = run_pipeline(&pairs, &cfg).expect("pipeline runs");
        let modeled = result.stats.gpu.as_ref().expect("the GPU engine models its seconds").seconds;
        assert!(modeled > 0.0);
        // The row times the simulator on the host, which takes far longer
        // than the device time it models; a row holding the modeled
        // seconds would fail this.
        let row = result.timings.get(Phase::LocalAssembly);
        assert!(row > modeled, "row {row} s must exceed the modeled {modeled} s");
    }

    #[test]
    fn single_k_iterative_matches_run_pipeline_on_every_engine() {
        let (_, pairs) = tiny_dataset();
        let engines = [
            EngineChoice::Cpu,
            crate::iterative::gpu_engine_choice(),
            crate::iterative::overlap_engine_choice(),
        ];
        let rendered = |r: &PipelineResult| -> Vec<DnaSeq> {
            r.scaffolds.iter().map(|s| s.render(&r.contigs)).collect()
        };
        for engine in engines {
            let cfg = PipelineConfig { engine, ..PipelineConfig::default() };
            let single = run_pipeline(&pairs, &cfg).expect("pipeline runs");
            let looped = crate::run_iterative(&pairs, &cfg, &[cfg.k]);
            assert_eq!(single.contigs, looped.contigs, "{:?}", cfg.engine);
            assert_eq!(rendered(&single), rendered(&looped), "{:?}", cfg.engine);
            assert_eq!(looped.rounds.len(), 1);
            assert_eq!(looped.rounds[0].k, cfg.k);
        }
    }

    #[test]
    fn local_assembly_extends_contigs() {
        // Repeat-bearing genomes with the default (wider) insert
        // distribution: the global graph forks at the repeats, so the
        // assembly fragments and local assembly has ends to extend.
        let community = generate_community(&CommunityConfig {
            n_species: 2,
            genome_len: (8_000, 9_000),
            abundance_sigma: 0.3,
            repeat_prob: 0.3,
            repeat_period: 97,
            seed: 11,
        });
        let pairs = simulate_reads(
            &community,
            &ReadSimConfig { n_pairs: 3_000, read_len: 100, seed: 12, ..Default::default() },
        );
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        let appended = result.rounds[0].ext_summary.bases_appended;
        assert!(appended > 0, "local assembly appended nothing");
    }

    #[test]
    fn preset_smoke() {
        let (_, pairs) = arcticsynth_like(0.02).generate();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        assert!(result.stats.reads_for_assembly > 0);
        assert_eq!(result.stats.pairs_in, pairs.len());
    }

    #[test]
    fn ext_summary_consistent_with_stats() {
        let (_, pairs) = tiny_dataset();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        let round = &result.rounds[0];
        assert_eq!(round.ext_summary.tasks, round.bins.total());
        // The summary's appended bases are exactly what extension added to
        // the contigs of a run without local assembly.
        let mut no_la = PipelineConfig::default();
        no_la.locassm.max_total_extension = 0;
        let base = run_pipeline(&pairs, &no_la).expect("pipeline runs");
        let bases = |r: &PipelineResult| r.contigs.iter().map(DnaSeq::len).sum::<usize>();
        assert_eq!(bases(&result), bases(&base) + round.ext_summary.bases_appended);
    }

    #[test]
    fn timings_breakdown_sums_to_one() {
        let (_, pairs) = tiny_dataset();
        let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
        let frac_sum: f64 = result.timings.breakdown().iter().map(|(_, _, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
    }
}
