//! End-to-end pipeline integration tests: generate a community, assemble
//! it, and check correctness and quality across phase boundaries.

use bioseq::DnaSeq;
use datagen::{generate_community, simulate_reads, Community, CommunityConfig, ReadSimConfig};
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;
use mhm::{run_iterative, run_pipeline, EngineChoice, Phase, PipelineConfig, PipelineResult};

fn community(n_species: usize, seed: u64) -> Community {
    generate_community(&CommunityConfig {
        n_species,
        genome_len: (8_000, 12_000),
        abundance_sigma: 0.4,
        seed,
        ..Default::default()
    })
}

fn reads_for(c: &Community, n_pairs: usize, seed: u64) -> Vec<bioseq::PairedRead> {
    simulate_reads(
        c,
        &ReadSimConfig {
            n_pairs,
            read_len: 100,
            insert_mean: 260.0,
            insert_sd: 20.0,
            lo_frac: 0.01,
            seed,
            ..Default::default()
        },
    )
}

/// N50: the contig length at which half the assembled bases are in contigs
/// at least that long.
fn n50(contigs: &[DnaSeq]) -> usize {
    let mut lens: Vec<usize> = contigs.iter().map(DnaSeq::len).collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let total: usize = lens.iter().sum();
    let mut acc = 0;
    for l in lens {
        acc += l;
        if acc * 2 >= total {
            return l;
        }
    }
    0
}

/// Does `seq` match some window of a genome (either strand) within a small
/// error tolerance? Checks via exact 32-mers at a few probe points.
fn matches_some_genome(seq: &DnaSeq, community: &Community) -> bool {
    if seq.len() < 40 {
        return true; // too short to judge
    }
    let probes = [0usize, seq.len() / 2, seq.len() - 33];
    for g in &community.genomes {
        let mut hit = 0;
        for &p in &probes {
            let probe = seq.subseq(p, 32);
            if g.seq.contains(&probe) || g.seq.contains(&probe.revcomp()) {
                hit += 1;
            }
        }
        if hit >= 2 {
            return true;
        }
    }
    false
}

#[test]
fn assembles_multi_species_community() {
    let c = community(3, 100);
    let pairs = reads_for(&c, 6_000, 101);
    let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");

    assert!(result.rounds[0].contigs_kept >= 3, "too few contigs");
    // The bulk of assembled sequence must be genuine genome sequence.
    let good = result.contigs.iter().filter(|ctg| matches_some_genome(ctg, &c)).count();
    assert!(
        good * 10 >= result.contigs.len() * 9,
        "{good}/{} contigs match a source genome",
        result.contigs.len()
    );
    // Coverage of the community: assembled bases within 3x of genome bases
    // (no runaway duplication).
    let assembled: usize = result.contigs.iter().map(DnaSeq::len).sum();
    assert!(assembled < 3 * c.total_bases(), "assembly blew up: {assembled}");
    assert!(assembled > c.total_bases() / 4, "assembly too sparse: {assembled}");
}

#[test]
fn local_assembly_improves_contiguity() {
    let c = community(2, 200);
    let pairs = reads_for(&c, 4_000, 201);

    // Run with local assembly disabled (zero extension budget) vs enabled.
    let mut no_la = PipelineConfig::default();
    no_la.locassm.max_total_extension = 0;
    let mut with_la = PipelineConfig::default();
    with_la.locassm.max_total_extension = 300;

    let base = run_pipeline(&pairs, &no_la).expect("pipeline runs");
    let ext = run_pipeline(&pairs, &with_la).expect("pipeline runs");
    let appended = ext.rounds[0].ext_summary.bases_appended;
    assert!(appended > 0, "extension appended nothing");
    let (n50_base, n50_ext) = (n50(&base.contigs), n50(&ext.contigs));
    assert!(
        n50_ext >= n50_base,
        "local assembly must not reduce contiguity ({n50_base} -> {n50_ext})"
    );
    let total_base: usize = base.contigs.iter().map(DnaSeq::len).sum();
    let total_ext: usize = ext.contigs.iter().map(DnaSeq::len).sum();
    assert_eq!(total_ext, total_base + appended);
}

#[test]
fn extensions_are_correct_sequence() {
    // Extended contigs must still match the source genomes — local assembly
    // may not hallucinate sequence. Repeat-bearing genomes guarantee the
    // global graph forks (so there is something to extend) while the local
    // candidate reads resolve the entry into each repeat.
    let c = generate_community(&CommunityConfig {
        n_species: 2,
        genome_len: (8_000, 12_000),
        abundance_sigma: 0.4,
        repeat_prob: 0.3,
        repeat_period: 97,
        seed: 300,
    });
    // The default (wider) insert distribution leaves coverage dips at the
    // repeat boundaries, so the global assembly fragments and local
    // assembly has ends to extend.
    let pairs = simulate_reads(
        &c,
        &ReadSimConfig { n_pairs: 5_000, read_len: 100, seed: 301, ..Default::default() },
    );
    let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    assert!(result.rounds[0].ext_summary.bases_appended > 0);
    let long_contigs: Vec<&DnaSeq> = result.contigs.iter().filter(|c| c.len() >= 150).collect();
    assert!(!long_contigs.is_empty());
    let good = long_contigs.iter().filter(|ctg| matches_some_genome(ctg, &c)).count();
    assert!(
        good * 10 >= long_contigs.len() * 9,
        "{good}/{} extended contigs match genomes",
        long_contigs.len()
    );
}

#[test]
fn gpu_engine_is_drop_in() {
    let c = community(2, 400);
    let pairs = reads_for(&c, 3_000, 401);
    let cpu = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    for version in [KernelVersion::V1, KernelVersion::V2] {
        let gpu = run_pipeline(
            &pairs,
            &PipelineConfig {
                engine: EngineChoice::Gpu { device: DeviceConfig::v100(), version },
                ..PipelineConfig::default()
            },
        )
        .expect("pipeline runs");
        assert_eq!(cpu.contigs, gpu.contigs, "{version:?} diverged from CPU");
        assert_eq!(cpu.scaffolds.len(), gpu.scaffolds.len());
    }
}

#[test]
fn scaffolding_joins_contigs() {
    let c = community(1, 500);
    let pairs = reads_for(&c, 5_000, 501);
    let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    // Each contig appears in exactly one scaffold.
    let member_count: usize = result.scaffolds.iter().map(|s| s.members.len()).sum();
    assert_eq!(member_count, result.contigs.len());
    assert!(result.scaffolds.len() <= result.rounds[0].contigs_kept);
}

#[test]
fn deterministic_end_to_end() {
    let c = community(2, 600);
    let pairs = reads_for(&c, 2_000, 601);
    let a = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    let b = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    assert_eq!(a.contigs, b.contigs);
    assert_eq!(a.scaffolds, b.scaffolds);
    assert_eq!(a.rounds[0].ext_summary, b.rounds[0].ext_summary);
}

#[test]
fn phase_timings_all_positive_total() {
    let c = community(1, 700);
    let pairs = reads_for(&c, 1_500, 701);
    let result = run_pipeline(&pairs, &PipelineConfig::default()).expect("pipeline runs");
    assert!(result.timings.total() > 0.0);
    for p in Phase::ALL {
        assert!(result.timings.get(p) >= 0.0, "{p:?} negative");
    }
}

/// Contigs, rendered scaffolds, the modeled GPU seconds (bit for bit) and
/// the GPU counters from `run` at 2 and 4 threads are identical to the
/// 1-thread run. `gpu` says whether the run uses the simulated device.
fn assert_thread_count_invariant(gpu: bool, run: impl Fn() -> PipelineResult + Send + Sync) {
    let at = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let r = pool.install(&run);
        let rendered: Vec<DnaSeq> = r.scaffolds.iter().map(|s| s.render(&r.contigs)).collect();
        let sim_bits = r.stats.gpu.as_ref().map(|g| g.seconds.to_bits());
        let counters = r.stats.gpu.as_ref().map(|g| g.counters);
        (r.contigs, rendered, sim_bits, counters)
    };
    let one = at(1);
    assert!(!one.0.is_empty());
    assert_eq!(one.2.is_some() && one.3.is_some_and(|c| c.warp_insts() > 0), gpu);
    for threads in [2, 4] {
        let other = at(threads);
        assert!(other.0 == one.0 && other.1 == one.1, "{threads} threads: output differs");
        assert_eq!(other.2, one.2, "{threads} threads: modeled GPU seconds differ");
        assert_eq!(other.3, one.3, "{threads} threads: GPU counters differ");
    }
}

fn thread_count_pairs() -> Vec<bioseq::PairedRead> {
    reads_for(&community(2, 800), 900, 801)
}

fn assert_engine_thread_count_invariant(engine: EngineChoice) {
    let pairs = thread_count_pairs();
    let gpu = !matches!(engine, EngineChoice::Cpu);
    let cfg = PipelineConfig { engine, ..Default::default() };
    assert_thread_count_invariant(gpu, || run_pipeline(&pairs, &cfg).expect("pipeline runs"));
}

#[test]
fn cpu_engine_output_is_thread_count_invariant() {
    assert_engine_thread_count_invariant(EngineChoice::Cpu);
}

#[test]
fn gpu_engine_output_is_thread_count_invariant() {
    let device = DeviceConfig::v100();
    assert_engine_thread_count_invariant(EngineChoice::Gpu { device, version: KernelVersion::V2 });
}

#[test]
fn overlap_engine_output_is_thread_count_invariant() {
    assert_engine_thread_count_invariant(EngineChoice::Overlap {
        device: DeviceConfig::v100(),
        version: KernelVersion::V2,
        schedule: locassm::SchedulePolicy::WorkSteal(locassm::StealConfig::default()),
    });
}

#[test]
fn iterative_output_is_thread_count_invariant() {
    let pairs = thread_count_pairs();
    assert_thread_count_invariant(false, || {
        run_iterative(&pairs, &PipelineConfig::default(), &[21, 33])
    });
}
