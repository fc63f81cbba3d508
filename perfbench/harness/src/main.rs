//! Set-up and traced runs for the `mhm2rs` assembly benchmark.
//!
//! `perfbench/run.py` times the `mhm2rs` binary itself and calls this
//! harness for the two jobs the binary cannot do:
//!
//! * `setup` generates a workload's dataset from a seed, writes
//!   `reads_1.fastq`, `reads_2.fastq` and `refs.fasta`, reads the FASTQ back
//!   the way `mhm2rs assemble` does and assembles the reference contigs with
//!   the CPU engine (`ref_contigs.fasta`). The whole set-up repeats
//!   [`SETUP_REPS`] times so its wall time can be reported as a median;
//!   every repetition must assemble the same reference. It also reports how
//!   many local-assembly tasks the reference skipped.
//! * `trace` re-composes `mhm2rs assemble` from the public functions of
//!   `bioseq`, `mhm`, `dbg`, `align` and `locassm`, in the order
//!   `run_pipeline` and `run_iterative` call them, with a span around each
//!   call. It repeats until `--seconds` have passed, writes
//!   `trace/contigs.fasta` and `trace/scaffolds.fasta` as the CLI writes its
//!   outputs, writes every span to `spans.jsonl`, and reports the per-layer
//!   metrics as medians over the repetitions, and how many repetitions
//!   skipped a local-assembly task.
//!
//! Both print one JSON object as their last line of standard output.

use align::sw::{banded_sw, SwScoring};
use align::{collect_candidates, EndCandidates, SeedIndex};
use bioseq::fastq::{self, NPolicy, ParseMode};
use bioseq::{DnaSeq, PairedRead, Read};
use datagen::{arcticsynth_like, wa_like, Preset};
use dbg::{count_kmers, generate_contigs, DbgGraph};
use locassm::{
    apply_extensions, bin_tasks, build_batches, extend_all_cpu_isolated, make_tasks, summarize,
    BinStats, ExtResult, ExtTask, OverlapDriver, OverlapOutcome, SchedulePolicy, TaskOutcome,
};
use mhm::iterative::{default_schedule, overlap_engine_choice};
use mhm::{
    evaluate_against_refs, merge_reads, run_iterative, run_pipeline, scaffold_contigs,
    AssemblyStats, EngineChoice, PipelineConfig, Scaffold,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str = "\
usage: perfbench-harness setup --workload W --dir D [--seed N] [--scale-mult F]
       perfbench-harness trace --workload W --dir D [--seconds S]";

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How a workload runs the k loop and local assembly.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// One k (31), CPU engine: `mhm2rs assemble`.
    Cpu,
    /// One k, the CPU/GPU overlap driver with its default work-stealing
    /// schedule, kernel v2 and the V100 model: `mhm2rs assemble --overlap`.
    Overlap,
    /// The k = 21..99 loop, CPU engine: `mhm2rs assemble --iterative`.
    Iterative,
}

struct Workload {
    name: &'static str,
    preset: fn(f64) -> Preset,
    scale: f64,
    mode: Mode,
}

/// The benchmark's workloads; `BENCHMARK.json` says why each was chosen.
static WORKLOADS: [Workload; 3] = [
    Workload { name: "arctic-cpu", preset: arcticsynth_like, scale: 0.5, mode: Mode::Cpu },
    Workload { name: "wa-overlap", preset: wa_like, scale: 0.25, mode: Mode::Overlap },
    Workload { name: "arctic-iter", preset: arcticsynth_like, scale: 0.2, mode: Mode::Iterative },
];

impl Workload {
    fn find(name: &str) -> Result<&'static Workload, String> {
        WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?} (one of {})", names.join(", "))
        })
    }

    /// The flags `mhm2rs assemble` gets.
    fn cli_flags(&self) -> &'static [&'static str] {
        match self.mode {
            Mode::Cpu => &[],
            Mode::Overlap => &["--overlap"],
            Mode::Iterative => &["--iterative"],
        }
    }

    /// The configuration `mhm2rs assemble` builds from those flags.
    fn config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::default();
        if self.mode == Mode::Overlap {
            cfg.engine = overlap_engine_choice();
        }
        cfg
    }

    /// The preset at this workload's scale, its read sampling seeded from
    /// the workload seed. The community keeps the preset's seed: a new
    /// community draws new genome lengths and abundances, which moved
    /// `assemble_s` by up to 38% and N50 by 96% (quartile spread over five
    /// seeds), far beyond any bound a regression check can use.
    fn preset(&self, seed: u64, scale_mult: f64) -> Preset {
        let mut preset = (self.preset)(self.scale * scale_mult);
        preset.reads.seed = derive_seed(preset.reads.seed, seed);
        preset
    }
}

/// Seed 0 keeps the preset's built-in seed; any other workload seed is
/// mixed through SplitMix64 so that nearby seeds give unrelated datasets.
fn derive_seed(builtin: u64, seed: u64) -> u64 {
    if seed == 0 {
        return builtin;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    builtin ^ z ^ (z >> 31)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let mut flags = BTreeMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                flags.insert(key[2..].to_string(), value.clone());
            }
            _ => return Err(format!("expected --flag value pairs\n{USAGE}")),
        }
    }
    let get = |key: &str| flags.get(key).map(String::as_str);
    let positive = |key: &str, default: f64| -> Result<f64, String> {
        let value = get(key).map_or(Ok(default), |v| v.parse::<f64>().map_err(|e| e.to_string()));
        match value {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
            _ => Err(format!("--{key} must be a positive number")),
        }
    };
    let workload = Workload::find(get("workload").ok_or("missing --workload")?)?;
    let dir = PathBuf::from(get("dir").ok_or("missing --dir")?);
    match command.as_str() {
        "setup" => {
            let seed = get("seed").map_or(Ok(0), |v| {
                v.parse::<u64>().map_err(|_| format!("--seed: cannot parse {v:?}"))
            })?;
            setup(workload, seed, positive("scale-mult", 1.0)?, &dir)
        }
        "trace" => trace(workload, &dir, positive("seconds", 10.0)?),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// Generate, write and assemble the workload's reference `SETUP_REPS` times.
fn setup(w: &Workload, seed: u64, scale_mult: f64, dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut setup_s = Vec::new();
    let mut reference: Option<(Vec<DnaSeq>, Option<usize>)> = None;
    let (mut genomes, mut n_pairs) = (Vec::new(), 0);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (community, pairs) = w.preset(seed, scale_mult).generate();
        let (r1, r2): (Vec<Read>, Vec<Read>) = pairs.into_iter().map(|p| (p.r1, p.r2)).unzip();
        write_fastq(&dir.join("reads_1.fastq"), &r1)?;
        write_fastq(&dir.join("reads_2.fastq"), &r2)?;
        genomes = community.genomes.iter().map(|g| g.seq.clone()).collect();
        write_fasta(&dir.join("refs.fasta"), community.genomes.into_iter().map(|g| (g.id, g.seq)))?;
        // Assemble what the CLI will read back, not the in-memory pairs.
        let pairs = ingest(dir)?.pairs;
        n_pairs = pairs.len();
        let (contigs, skipped) = reference_contigs(w, &pairs)?;
        write_contigs(&dir.join("ref_contigs.fasta"), &contigs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        match &reference {
            Some((first, _)) if *first != contigs => {
                return Err("set-up repetitions assembled different reference contigs".into());
            }
            Some(_) => {}
            None => reference = Some((contigs, skipped)),
        }
    }
    let (contigs, skipped) = reference.expect("at least one set-up repetition");
    let skipped = match skipped {
        Some(n) => n,
        None => {
            // `run_iterative` does not count skipped tasks. The harness's
            // own composition of the k loop does, outside the timed set-up;
            // it must assemble the same contigs.
            let (composed, m) = traced_assemble(w, dir, &mut Tracer::new())?;
            if composed != contigs {
                return Err("the composed k loop assembled other contigs than run_iterative".into());
            }
            m.get("locassm.failed_tasks") as usize
        }
    };
    let eval = evaluate_against_refs(&contigs, &genomes, 31);
    let stats = AssemblyStats::of(&contigs);
    let flags: Vec<String> = w.cli_flags().iter().map(|f| quote(f)).collect();
    Ok(Json::new()
        .str("workload", w.name)
        .raw("seed", seed.to_string())
        .num("pairs", n_pairs as f64)
        .raw("setup_s", list(&setup_s))
        .raw("cli_flags", format!("[{}]", flags.join(",")))
        .num("contigs", stats.count as f64)
        .num("contig_n50", stats.n50 as f64)
        .num("ref_skipped_tasks", skipped as f64)
        .num("genome_fraction", eval.genome_fraction)
        .num("precision", eval.precision)
        .num("rayon_threads", rayon::current_num_threads() as f64)
        .finish())
}

/// The k schedule `mhm2rs assemble --iterative` derives from the reads.
fn iterative_schedule(pairs: &[PairedRead], k: usize) -> Vec<usize> {
    let max_read = pairs.iter().map(|p| p.r1.len().max(p.r2.len())).max().unwrap_or(150);
    let schedule = default_schedule(max_read);
    if schedule.is_empty() {
        vec![k]
    } else {
        schedule
    }
}

/// The reference: the library pipeline in the workload's k mode, on the
/// CPU engine whatever engine the workload times. With it, the number of
/// local-assembly tasks it skipped, where the pipeline counts them (single
/// k only).
fn reference_contigs(
    w: &Workload,
    pairs: &[PairedRead],
) -> Result<(Vec<DnaSeq>, Option<usize>), String> {
    let cfg = PipelineConfig::default();
    if w.mode == Mode::Iterative {
        Ok((run_iterative(pairs, &cfg, &iterative_schedule(pairs, cfg.k)).contigs, None))
    } else {
        let r = run_pipeline(pairs, &cfg).map_err(|e| e.to_string())?;
        Ok((r.contigs, Some(r.stats.la_failed_tasks)))
    }
}

struct Input {
    pairs: Vec<PairedRead>,
    bytes: u64,
}

/// Read the FASTQ pair as `mhm2rs assemble` does: lenient parsing, reads
/// with an ambiguous base dropped, mates paired by position.
fn ingest(dir: &Path) -> Result<Input, String> {
    let mut bytes = 0;
    let mut lane = |name: &str| -> Result<Vec<Read>, String> {
        let path = dir.join(name);
        let file = File::open(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        bytes += file.metadata().map_err(|e| e.to_string())?.len();
        let (reads, _) =
            fastq::parse_fastq_with(BufReader::new(file), NPolicy::Drop, ParseMode::Lenient)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(reads)
    };
    let r1 = lane("reads_1.fastq")?;
    let r2 = lane("reads_2.fastq")?;
    let pairs = fastq::pair_up(r1, r2).map_err(|e| e.to_string())?;
    Ok(Input { pairs, bytes })
}

fn create(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path).map(BufWriter::new).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_fastq(path: &Path, reads: &[Read]) -> Result<(), String> {
    let mut w = create(path)?;
    fastq::write_fastq(&mut w, reads)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn write_fasta(
    path: &Path,
    records: impl IntoIterator<Item = (String, DnaSeq)>,
) -> Result<(), String> {
    let mut w = create(path)?;
    fastq::write_fasta(&mut w, records, 80)
        .and_then(|()| w.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `contigs.fasta` exactly as `mhm2rs assemble` writes it.
fn write_contigs(path: &Path, contigs: &[DnaSeq]) -> Result<(), String> {
    write_fasta(path, contigs.iter().enumerate().map(|(i, c)| (format!("contig_{i}"), c.clone())))
}

/// One timed call into a layer.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    /// The enclosing span: the call that caused this one.
    parent: Option<usize>,
    /// The repetition the span belongs to.
    run: usize,
}

/// Spans of every repetition, kept in memory and written out at the end.
struct Tracer {
    origin: Instant,
    run: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), run: 0, spans: Vec::new(), open: Vec::new() }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start: now, end: now, parent, run: self.run });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id`, the innermost open one; returns its seconds.
    fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed().as_secs_f64();
        span.end - span.start
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut w = create(path)?;
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::new()
                .raw("id", id.to_string())
                .str("name", s.name)
                .num("start", s.start)
                .num("end", s.end)
                .raw("parent", s.parent.map_or("null".to_string(), |p| p.to_string()))
                .raw("run", s.run.to_string())
                .finish();
            writeln!(w, "{line}").map_err(|e| e.to_string())?;
        }
        w.flush().map_err(|e| e.to_string())
    }
}

/// Per-layer figures of one traced repetition, summed over k rounds.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when the layer did no work.
    fn ratio(&mut self, name: &str, num: f64, den: f64) {
        self.0.insert(name.to_string(), if den > 0.0 { num / den } else { 0.0 });
    }
}

/// Repeat the traced assembly until `seconds` have passed.
fn trace(w: &Workload, dir: &Path, seconds: f64) -> Result<String, String> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut tr = Tracer::new();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut first: Option<Vec<DnaSeq>> = None;
    let mut identical = true;
    let mut skipped_reps = 0;
    loop {
        tr.run = reps.len();
        let t = Instant::now();
        let (contigs, m) = traced_assemble(w, dir, &mut tr)?;
        if let Some(f) = &first {
            identical &= *f == contigs;
        } else {
            first = Some(contigs);
        }
        skipped_reps += usize::from(m.get("locassm.failed_tasks") > 0.0);
        reps.push(m);
        // Start another repetition only if it can end within the budget.
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    tr.write_jsonl(&dir.join("spans.jsonl"))?;
    let names: BTreeSet<&String> = reps.iter().flat_map(|m| m.0.keys()).collect();
    let mut medians = Json::new();
    for name in names {
        let mut values: Vec<f64> = reps.iter().map(|m| m.get(name)).collect();
        medians = medians.num(name, median(&mut values));
    }
    Ok(Json::new()
        .num("reps", reps.len() as f64)
        .raw("identical", identical.to_string())
        .num("skipped_reps", skipped_reps as f64)
        .raw("metrics", medians.finish())
        .finish())
}

/// One traced `mhm2rs assemble`: its contigs and its per-layer metrics.
fn traced_assemble(
    w: &Workload,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<(Vec<DnaSeq>, Metrics), String> {
    let cfg = w.config();
    let mut m = Metrics::default();
    let root = tr.begin("assemble");
    let input = tr.span("bioseq.ingest", || ingest(dir))?;
    let pairs = input.pairs;
    let (reads, merge) = tr.span("mhm.merge", || merge_reads(&pairs, &cfg.merge));
    let round = if w.mode == Mode::Iterative {
        let mut last: Option<Round> = None;
        for k in iterative_schedule(&pairs, cfg.k) {
            let id = tr.begin("mhm.round");
            let prev = last.as_ref().map_or(&[][..], |r| r.contigs.as_slice());
            let round_reads = tr.span("mhm.pseudo_reads", || with_pseudo_reads(&reads, prev));
            last = Some(traced_round(tr, &mut m, &cfg, k, &round_reads, &reads, false)?);
            tr.end(id);
        }
        last.ok_or("empty k schedule")?
    } else {
        traced_round(tr, &mut m, &cfg, cfg.k, &reads, &reads, true)?
    };
    let contigs = round.contigs;
    let scaffolds = tr.span("mhm.scaffold", || scaffold_contigs(&contigs, &pairs, &cfg.scaffold));
    let sink = w.mode != Mode::Iterative;
    tr.span("bioseq.fasta_write", || {
        write_outputs(&dir.join("trace"), &contigs, &scaffolds, sink)
    })?;
    let total = tr.end(root);

    if let EngineChoice::Overlap { schedule: SchedulePolicy::WorkSteal(steal), .. } = &cfg.engine {
        // Outside the `assemble` span: the overlap driver builds its
        // batches inside `locassm.engine`; this probe times that step alone.
        tr.span("locassm.build_batches", || {
            std::hint::black_box(build_batches(
                &round.tasks,
                &round.bins,
                &cfg.locassm,
                steal.batch_words,
            ))
        });
    }

    let mut covered = 0.0;
    let mut per_span: BTreeMap<&str, f64> = BTreeMap::new();
    for s in tr.spans.iter().filter(|s| s.run == tr.run) {
        *per_span.entry(s.name).or_insert(0.0) += s.end - s.start;
        if s.parent == Some(root) {
            covered += s.end - s.start;
        }
    }
    for (name, secs) in per_span {
        if name != "assemble" && name != "mhm.round" {
            m.add(&format!("{name}_s"), secs);
        }
    }
    m.add("trace.total_s", total);
    m.ratio("trace.coverage", covered, total);
    m.ratio("bioseq.ingest_mb_per_s", input.bytes as f64 / 1e6, m.get("bioseq.ingest_s"));
    m.ratio("mhm.merged_frac", merge.merged as f64, pairs.len() as f64);
    m.ratio("dbg.kmer_occ_per_s", m.get("dbg.kmer_occ"), m.get("dbg.count_s"));
    m.ratio("align.reads_per_s", m.get("align.reads"), m.get("align.candidates_s"));
    m.ratio(
        "locassm.extended_frac",
        m.get("locassm.tasks_extended"),
        m.get("locassm.bin2_tasks") + m.get("locassm.bin3_tasks"),
    );
    m.ratio(
        "locassm.sched.gpu_task_frac",
        m.get("locassm.sched.gpu_tasks"),
        m.get("locassm.sched.gpu_tasks") + m.get("locassm.sched.cpu_tasks"),
    );
    m.ratio(
        "gpusim.host_ns_per_warp_inst",
        m.get("locassm.gpu_wall_s") * 1e9,
        m.get("gpusim.warp_insts"),
    );
    m.add("mhm.scaffolds", scaffolds.len() as f64);
    m.add("mhm.contig_n50", AssemblyStats::of(&contigs).n50 as f64);
    Ok((contigs, m))
}

/// `run_iterative`'s input to one round: the reads, plus every contig of
/// the previous round twice as a quality-40 pseudo-read.
fn with_pseudo_reads(reads: &[Read], contigs: &[DnaSeq]) -> Vec<Read> {
    let mut out = reads.to_vec();
    for (i, c) in contigs.iter().enumerate() {
        for copy in 0..2 {
            out.push(Read::with_uniform_qual(format!("__contig_{i}_{copy}"), c.clone(), 40));
        }
    }
    out
}

/// What one k round hands on: the extended contigs, and the tasks and bins
/// for the batch-building probe.
struct Round {
    contigs: Vec<DnaSeq>,
    tasks: Vec<ExtTask>,
    bins: BinStats,
}

/// One k round as `run_pipeline` (with `rescore`) and `run_iterative` run
/// it: count k-mers over `count_reads`, generate contigs, align `reads` to
/// them, and extend the contigs by local assembly.
fn traced_round(
    tr: &mut Tracer,
    m: &mut Metrics,
    cfg: &PipelineConfig,
    k: usize,
    count_reads: &[Read],
    reads: &[Read],
    rescore: bool,
) -> Result<Round, String> {
    let occurrences: usize = count_reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
    m.add("dbg.kmer_occ", occurrences as f64);
    let counts = tr.span("dbg.count", || count_kmers(count_reads, k, cfg.min_kmer_count));
    m.add("dbg.distinct_kmers", counts.len() as f64);
    let contigs: Vec<DnaSeq> = tr.span("dbg.contig_gen", || {
        let graph = DbgGraph::new(k, counts);
        generate_contigs(&graph, cfg.min_votes)
            .into_iter()
            .filter(|c| c.len() >= cfg.min_contig_len)
            .map(|c| c.seq)
            .collect()
    });
    m.add("dbg.contigs", contigs.len() as f64);

    let idx = tr.span("align.index", || {
        SeedIndex::build(&contigs, cfg.scaffold.seed_k, cfg.scaffold.max_occ)
    });
    let cands =
        tr.span("align.candidates", || collect_candidates(&contigs, reads, &idx, &cfg.candidates));
    m.add("align.reads", reads.len() as f64);
    m.add("align.candidate_reads", cands.iter().map(EndCandidates::total).sum::<usize>() as f64);
    if rescore {
        let calls =
            tr.span("align.sw", || rescore_candidates(&cands, &contigs, cfg.sw_rescore_frac));
        m.add("align.sw_calls", calls as f64);
    }

    let la = tr.begin("locassm");
    let tasks = tr.span("locassm.make_tasks", || {
        let cand_pairs: Vec<(Vec<Read>, Vec<Read>)> =
            cands.into_iter().map(|c| (c.right, c.left)).collect();
        make_tasks(&contigs, &cand_pairs, &cfg.locassm)
    });
    let bins = tr.span("locassm.bin", || bin_tasks(&tasks));
    m.add("locassm.bin1_tasks", bins.zero.len() as f64);
    m.add("locassm.bin2_tasks", bins.small.len() as f64);
    m.add("locassm.bin3_tasks", bins.large.len() as f64);
    let engine = tr.begin("locassm.engine");
    let (results, failed, overlap) = run_engine(cfg, &tasks)?;
    let engine_s = tr.end(engine);
    match &overlap {
        Some(out) => record_overlap(m, out, cfg),
        None => m.add("locassm.cpu_wall_s", engine_s),
    }
    let summary = summarize(&results);
    m.add("locassm.failed_tasks", failed as f64);
    m.add("locassm.bases_appended", summary.bases_appended as f64);
    m.add("locassm.tasks_extended", summary.extended as f64);
    let extended = tr.span("locassm.apply", || apply_extensions(&contigs, &tasks, &results));
    tr.end(la);
    Ok(Round { contigs: extended, tasks, bins })
}

/// `run_pipeline`'s "aln kernel" slice: banded Smith-Waterman over the
/// first `frac` of the candidate reads, contig by contig. Returns the
/// number of alignments.
///
/// This must stay a copy of the rescoring loop in `run_pipeline`
/// (`crates/mhm/src/pipeline.rs`, step 4). Both discard the alignments, so
/// the contig check cannot catch a drift between them: when that loop
/// changes, change this one, or `align.sw_s` and `align.sw_calls` measure
/// a loop `mhm2rs` no longer runs.
fn rescore_candidates(cands: &[EndCandidates], contigs: &[DnaSeq], frac: f64) -> usize {
    if frac <= 0.0 {
        return 0;
    }
    let budget = (cands.iter().map(EndCandidates::total).sum::<usize>() as f64 * frac) as usize;
    let mut calls = 0;
    for (c, contig) in cands.iter().zip(contigs) {
        for r in c.right.iter().chain(&c.left) {
            if calls == budget {
                return calls;
            }
            let _ = banded_sw(&r.seq, contig, SwScoring::default(), 16, 0);
            calls += 1;
        }
    }
    calls
}

/// `run_pipeline`'s engine dispatch, for the engines the workloads use:
/// per-task results, the number of skipped tasks, and the overlap driver's
/// outcome when it ran.
#[allow(clippy::type_complexity)]
fn run_engine(
    cfg: &PipelineConfig,
    tasks: &[ExtTask],
) -> Result<(Vec<ExtResult>, usize, Option<OverlapOutcome>), String> {
    match &cfg.engine {
        EngineChoice::Cpu => {
            let outcomes = extend_all_cpu_isolated(tasks, &cfg.locassm);
            let failed = outcomes.iter().filter(|o| o.is_failed()).count();
            Ok((outcomes.into_iter().map(TaskOutcome::into_result).collect(), failed, None))
        }
        EngineChoice::Overlap { device, version, schedule } => {
            let driver = OverlapDriver {
                device: device.clone(),
                version: *version,
                schedule: schedule.clone(),
            };
            let mut out =
                driver.run(tasks, &cfg.locassm).map_err(|e| format!("local assembly: {e}"))?;
            let results = std::mem::take(&mut out.results);
            Ok((results, out.failed_tasks, Some(out)))
        }
        EngineChoice::Gpu { .. } => Err("no workload runs the GPU-only engine".to_string()),
    }
}

/// The overlap driver's own account: measured host seconds per engine, the
/// scheduler's split and modeled makespan, and the simulated device's
/// counters.
fn record_overlap(m: &mut Metrics, out: &OverlapOutcome, cfg: &PipelineConfig) {
    m.add("locassm.cpu_wall_s", out.cpu_wall_s);
    m.add("locassm.gpu_wall_s", out.gpu_wall_s);
    m.add("locassm.sched.cpu_tasks", out.cpu_tasks as f64);
    m.add("locassm.sched.gpu_tasks", out.gpu_tasks as f64);
    m.add("locassm.sched.cpu_batches", out.schedule.cpu_batches as f64);
    m.add("locassm.sched.makespan_model_s", out.schedule.makespan_model_s());
    if let Some(cal) = &out.schedule.calibration {
        m.add("locassm.sched.model_err", cal.rel_err_vs_realized);
    }
    let sector_bytes = match &cfg.engine {
        EngineChoice::Overlap { device, .. } => u64::from(device.sector_bytes),
        _ => 0,
    };
    if let Some(gpu) = &out.gpu_stats {
        m.add("gpusim.warp_insts", gpu.counters.warp_insts() as f64);
        m.add("gpusim.launches", gpu.launches as f64);
        m.add("gpusim.global_bytes", (gpu.counters.global_transactions() * sector_bytes) as f64);
        m.add("gpusim.device_s", gpu.seconds);
    }
}

/// The tail of `mhm2rs assemble`: `run_pipeline`'s in-memory FASTA
/// serialisation of the scaffolds (single k only; `run_iterative` has
/// none), then `contigs.fasta` and `scaffolds.fasta`.
fn write_outputs(
    out: &Path,
    contigs: &[DnaSeq],
    scaffolds: &[Scaffold],
    sink: bool,
) -> Result<(), String> {
    let rendered =
        || scaffolds.iter().enumerate().map(|(i, s)| (format!("scaffold_{i}"), s.render(contigs)));
    if sink {
        let mut buf = Vec::new();
        fastq::write_fasta(&mut buf, rendered(), 80).map_err(|e| e.to_string())?;
        std::hint::black_box(buf);
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    write_contigs(&out.join("contigs.fasta"), contigs)?;
    write_fasta(&out.join("scaffolds.fasta"), rendered())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// A flat JSON object written by hand (the vendored serde derives expand
/// to nothing).
struct Json(Vec<String>);

impl Json {
    fn new() -> Json {
        Json(Vec::new())
    }

    fn raw(mut self, key: &str, value: String) -> Json {
        self.0.push(format!("{}:{value}", quote(key)));
        self
    }

    fn str(self, key: &str, value: &str) -> Json {
        self.raw(key, quote(value))
    }

    fn num(self, key: &str, value: f64) -> Json {
        self.raw(key, if value.is_finite() { format!("{value}") } else { "null".to_string() })
    }

    fn finish(self) -> String {
        format!("{{{}}}", self.0.join(","))
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", items.join(","))
}
