//! Command-line front end (`mhm2rs`): dataset simulation and assembly from
//! FASTQ files on disk.
//!
//! Argument parsing is hand-rolled (no CLI dependency): subcommand followed
//! by `--flag value` pairs and boolean `--flag`s. The heavy lifting lives
//! in [`run_simulate`] / [`run_assemble`], which are plain functions over a
//! parsed [`CliArgs`] so the test suite can drive them against temporary
//! directories.

use crate::errors::ErrorKind;
use crate::iterative::{default_schedule, try_run_iterative};
use crate::pipeline::{run_pipeline, EngineChoice, Phase, PipelineConfig};
use crate::report::render_run;
use crate::stats::{evaluate_against_refs, AssemblyStats};
use bioseq::fastq::{self, NPolicy};
use bioseq::DnaSeq;
use datagen::{arcticsynth_like, wa_like};
use gpusim::DeviceConfig;
use locassm::gpu::KernelVersion;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    pub subcommand: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl CliArgs {
    /// Parse `argv[1..]`: first token is the subcommand, then `--key value`
    /// pairs and bare `--switch`es.
    pub fn parse(args: &[String]) -> Result<CliArgs, String> {
        let mut it = args.iter();
        let subcommand = it.next().ok_or("missing subcommand")?.clone();
        if subcommand.starts_with("--") {
            return Err(format!("expected subcommand, got flag {subcommand}"));
        }
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let rest: Vec<&String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let tok = rest[i];
            let key =
                tok.strip_prefix("--").ok_or_else(|| format!("expected --flag, got {tok}"))?;
            if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                flags.insert(key.to_string(), rest[i + 1].clone());
                i += 2;
            } else {
                switches.push(key.to_string());
                i += 1;
            }
        }
        Ok(CliArgs { subcommand, flags, switches })
    }

    /// String flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required flag or error.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required --{key}"))
    }

    /// Parsed numeric flag with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Boolean switch.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Reject any `--flag` or `--switch` whose name is not in `known`,
    /// naming the offender (the alphabetically first one when several).
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let mut names: Vec<&str> =
            self.flags.keys().chain(self.switches.iter()).map(String::as_str).collect();
        names.sort_unstable();
        match names.into_iter().find(|n| !known.contains(n)) {
            Some(n) => {
                Err(format!("unknown flag --{n} for {} (see mhm2rs --help)", self.subcommand))
            }
            None => Ok(()),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
mhm2rs — MetaHipMer-like metagenome assembler (Rust reproduction of SC'21 GPU local assembly)

USAGE:
  mhm2rs simulate --out DIR [--preset arctic|wa] [--scale F]
      Generate a synthetic community: reads_1.fastq, reads_2.fastq, refs.fasta.

  mhm2rs assemble --r1 FILE --r2 FILE --out DIR
      [--k N] [--gpu] [--kernel v1|v2] [--iterative] [--refs FILE] [--sanitize]
      [--overlap]
      Assemble paired FASTQ into contigs.fasta + scaffolds.fasta.
      --sanitize runs the GPU engine under gpucheck (memcheck + racecheck +
      synccheck) and appends its findings to the report; implies --gpu.
      --overlap runs local assembly on the CPU/GPU overlap driver with the
      work-stealing scheduler, which prices the CPU engine at a fixed
      modeled rate (2.8e7 estimated words/s).
      --iterative runs k = 21, 33, 55, 77, 99 up to the read length; it
      cannot be combined with --k.
      Unknown flags are rejected.
";

/// Entry point shared by main() and the tests.
pub fn run(args: &[String]) -> Result<String, String> {
    let cli = CliArgs::parse(args)?;
    match cli.subcommand.as_str() {
        "simulate" => run_simulate(&cli),
        "assemble" => run_assemble(&cli),
        other => Err(format!("unknown subcommand {other}\n{USAGE}")),
    }
}

/// `simulate`: write a preset dataset to disk.
pub fn run_simulate(cli: &CliArgs) -> Result<String, String> {
    cli.reject_unknown(&["out", "preset", "scale"])?;
    let out = PathBuf::from(cli.require("out")?);
    let scale: f64 = cli.get_num("scale", 0.05)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err(format!("--scale must be a positive number, got {scale}"));
    }
    let preset = match cli.get("preset").unwrap_or("arctic") {
        "arctic" => arcticsynth_like(scale),
        "wa" => wa_like(scale),
        other => return Err(format!("unknown preset {other} (arctic|wa)")),
    };
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let (community, pairs) = preset.generate();

    let (r1, r2): (Vec<bioseq::Read>, Vec<bioseq::Read>) =
        pairs.into_iter().map(|p| (p.r1, p.r2)).unzip();
    write_fastq_file(&out.join("reads_1.fastq"), &r1)?;
    write_fastq_file(&out.join("reads_2.fastq"), &r2)?;
    let refs = community.genomes.iter().map(|g| (&g.id, &g.seq));
    let f = File::create(out.join("refs.fasta")).map_err(|e| e.to_string())?;
    fastq::write_fasta(BufWriter::new(f), refs, 80).map_err(|e| e.to_string())?;

    Ok(format!(
        "wrote {} read pairs from {} ({} genomes) to {}",
        r1.len(),
        preset.name,
        community.genomes.len(),
        out.display()
    ))
}

/// `assemble`: FASTQ in, FASTA out.
pub fn run_assemble(cli: &CliArgs) -> Result<String, String> {
    cli.reject_unknown(&[
        "r1",
        "r2",
        "out",
        "k",
        "gpu",
        "kernel",
        "iterative",
        "refs",
        "sanitize",
        "overlap",
    ])?;
    if cli.has("iterative") && cli.get("k").is_some() {
        return Err("--k cannot be combined with --iterative, which derives its k schedule \
                    from the read length"
            .to_string());
    }
    let r1_path = cli.require("r1")?;
    let r2_path = cli.require("r2")?;
    let out = PathBuf::from(cli.require("out")?);

    let t = Instant::now();
    let (r1, r1_stats) = read_fastq_file(Path::new(r1_path))?;
    let (r2, r2_stats) = read_fastq_file(Path::new(r2_path))?;
    let pairs = fastq::pair_up(r1, r2).map_err(|e| e.to_string())?;
    let read_s = t.elapsed().as_secs_f64();
    let ingest_malformed = r1_stats.skipped_malformed + r2_stats.skipped_malformed;

    let mut cfg = PipelineConfig { k: cli.get_num("k", 31)?, ..Default::default() };
    let sanitize = cli.has("sanitize");
    let overlap = cli.has("overlap");
    if sanitize || overlap || cli.has("gpu") || cli.get("kernel").is_some() {
        let version = match cli.get("kernel").unwrap_or("v2") {
            "v1" => KernelVersion::V1,
            "v2" => KernelVersion::V2,
            other => return Err(format!("unknown kernel {other} (v1|v2)")),
        };
        let mut device = DeviceConfig::v100();
        if sanitize {
            device = device.with_sanitizer();
        }
        cfg.engine = if overlap {
            let schedule = locassm::SchedulePolicy::WorkSteal(locassm::StealConfig::default());
            EngineChoice::Overlap { device, version, schedule }
        } else {
            EngineChoice::Gpu { device, version }
        };
    }

    // Every measured second below ran on this many threads.
    let mut report = format!("threads {}\n", rayon::current_num_threads());
    let result = if cli.has("iterative") {
        let max_read = pairs.iter().map(|p| p.r1.len().max(p.r2.len())).max().unwrap_or(150);
        let mut schedule = default_schedule(max_read);
        if schedule.is_empty() {
            schedule = vec![cfg.k];
        }
        try_run_iterative(&pairs, &cfg, &schedule)
    } else {
        run_pipeline(&pairs, &cfg)
    };
    // The k is the one number the CLI hands the library unchecked, so the
    // library's invalid-input error is about `--k`.
    let mut result = result.map_err(|e| match e.kind {
        ErrorKind::InvalidInput(_) => format!("--k: {e}"),
        _ => e.to_string(),
    })?;
    let scaffolds: Vec<DnaSeq> =
        result.scaffolds.iter().map(|s| s.render(&result.contigs)).collect();
    let contigs = &result.contigs;
    let mut summary = format!("\ncontigs:   {}\n", AssemblyStats::of(contigs).render());
    summary.push_str(&format!("scaffolds: {}\n", AssemblyStats::of(&scaffolds).render()));
    if let Some(refs_path) = cli.get("refs") {
        let f = File::open(refs_path).map_err(|e| e.to_string())?;
        let (refs, _) =
            fastq::parse_fasta(BufReader::new(f), NPolicy::Drop).map_err(|e| e.to_string())?;
        let ref_seqs: Vec<DnaSeq> = refs.into_iter().map(|(_, s)| s).collect();
        let eval = evaluate_against_refs(contigs, &ref_seqs, 31.min(cfg.k));
        summary.push_str(&format!(
            "vs refs:   genome fraction {:.1}%, precision {:.1}% (k={})\n",
            eval.genome_fraction * 100.0,
            eval.precision * 100.0,
            eval.k
        ));
    }

    // Only a run that succeeded leaves an output directory. The file I/O
    // row measures the FASTQ reads, their pairing and these writes.
    let t = Instant::now();
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    write_fasta_file(&out.join("contigs.fasta"), "contig", contigs)?;
    write_fasta_file(&out.join("scaffolds.fasta"), "scaffold", &scaffolds)?;
    result.timings.add(Phase::FileIo, read_s + t.elapsed().as_secs_f64());

    if ingest_malformed > 0 {
        report.push_str(&format!("ingest: skipped {ingest_malformed} malformed FASTQ records\n"));
    }
    report.push_str(&render_run(&result));
    report.push_str(&summary);
    Ok(report)
}

/// Write `seqs` to `path` as FASTA records `{prefix}_0`, `{prefix}_1`, ….
fn write_fasta_file(path: &Path, prefix: &str, seqs: &[DnaSeq]) -> Result<(), String> {
    let f = File::create(path).map_err(|e| e.to_string())?;
    let records = seqs.iter().enumerate().map(|(i, s)| (format!("{prefix}_{i}"), s));
    fastq::write_fasta(BufWriter::new(f), records, 80).map_err(|e| e.to_string())
}

fn write_fastq_file(path: &Path, reads: &[bioseq::Read]) -> Result<(), String> {
    let f = File::create(path).map_err(|e| e.to_string())?;
    fastq::write_fastq(BufWriter::new(f), reads).map_err(|e| e.to_string())
}

fn read_fastq_file(path: &Path) -> Result<(Vec<bioseq::Read>, fastq::FastqParseStats), String> {
    let f = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Lenient ingest: a corrupt record is skipped and counted, never fatal
    // to the whole lane.
    let (reads, stats) =
        fastq::parse_fastq_with(BufReader::new(f), NPolicy::Drop, fastq::ParseMode::Lenient)
            .map_err(|e| e.to_string())?;
    if stats.dropped_ambiguous > 0 {
        eprintln!("note: dropped {} reads with ambiguous bases", stats.dropped_ambiguous);
    }
    if stats.skipped_malformed > 0 {
        eprintln!(
            "note: skipped {} malformed FASTQ records in {}",
            stats.skipped_malformed,
            path.display()
        );
    }
    Ok((reads, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_flags_and_switches() {
        let cli = CliArgs::parse(&argv("assemble --r1 a.fq --r2 b.fq --gpu --k 41")).unwrap();
        assert_eq!(cli.subcommand, "assemble");
        assert_eq!(cli.get("r1"), Some("a.fq"));
        assert_eq!(cli.get_num::<usize>("k", 31).unwrap(), 41);
        assert!(cli.has("gpu"));
        assert!(!cli.has("iterative"));
    }

    #[test]
    fn parse_rejects_missing_subcommand() {
        assert!(CliArgs::parse(&[]).is_err());
        assert!(CliArgs::parse(&argv("--out x")).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let cli = CliArgs::parse(&argv("simulate")).unwrap();
        let err = cli.require("out").unwrap_err();
        assert!(err.contains("--out"));
    }

    #[test]
    fn bad_number_reported() {
        let cli = CliArgs::parse(&argv("assemble --k abc")).unwrap();
        assert!(cli.get_num::<usize>("k", 31).is_err());
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let err = run(&argv("frobnicate")).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn simulate_then_assemble_round_trip() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();

        let msg = run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");
        assert!(msg.contains("read pairs"));
        assert!(dir.join("reads_1.fastq").exists());
        assert!(dir.join("refs.fasta").exists());

        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm \
             --refs {out}/refs.fasta"
        )))
        .expect("assemble");
        assert!(report.contains("contigs:"), "{report}");
        assert!(report.contains("genome fraction"), "{report}");
        assert!(dir.join("asm/contigs.fasta").exists());
        assert!(dir.join("asm/scaffolds.fasta").exists());

        // GPU engine must produce identical contigs on disk.
        let cpu = std::fs::read_to_string(dir.join("asm/contigs.fasta")).unwrap();
        run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_gpu --gpu"
        )))
        .expect("gpu assemble");
        let gpu = std::fs::read_to_string(dir.join("asm_gpu/contigs.fasta")).unwrap();
        assert_eq!(cpu, gpu);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_names_its_thread_count_above_the_phase_table() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_threads_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let report = pool
            .install(|| {
                run(&argv(&format!(
                    "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm"
                )))
            })
            .expect("assemble");
        let lines: Vec<&str> = report.lines().collect();
        let threads = lines.iter().position(|l| *l == "threads 3").expect("threads line");
        let table = lines.iter().position(|l| *l == "pipeline").expect("phase table");
        assert!(threads < table, "{report}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sanitize_flag_reports_clean_gpu_run() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_sanitize_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");

        // --sanitize implies the GPU engine; a healthy run must come back
        // clean and byte-identical to the unsanitized assembly.
        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm \
             --sanitize"
        )))
        .expect("sanitized assemble");
        assert!(report.contains("gpucheck: clean"), "{report}");
        let sanitized = std::fs::read_to_string(dir.join("asm/contigs.fasta")).unwrap();

        let plain = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_gpu \
             --gpu"
        )))
        .expect("gpu assemble");
        if !gpusim::sanitize_env_forced() {
            assert!(!plain.contains("gpucheck"), "plain runs must not print the section: {plain}");
        }
        let unsanitized = std::fs::read_to_string(dir.join("asm_gpu/contigs.fasta")).unwrap();
        assert_eq!(sanitized, unsanitized);

        // The k loop reports the sanitizer too.
        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_it \
             --iterative --sanitize"
        )))
        .expect("sanitized iterative assemble");
        assert!(report.contains("gpucheck: clean"), "{report}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlap_flag_matches_cpu_and_reports_scheduler() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_overlap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");

        run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm"
        )))
        .expect("cpu assemble");
        let cpu = std::fs::read_to_string(dir.join("asm/contigs.fasta")).unwrap();

        // Work-stealing overlap driver: identical contigs, scheduler section.
        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_ws \
             --overlap"
        )))
        .expect("overlap assemble");
        assert!(report.contains("overlap scheduler (work-steal)"), "{report}");
        let ws = std::fs::read_to_string(dir.join("asm_ws/contigs.fasta")).unwrap();
        assert_eq!(cpu, ws);

        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_it \
             --iterative --overlap"
        )))
        .expect("iterative overlap assemble");
        assert!(report.contains("overlap scheduler (work-steal)"), "{report}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // Deleted scheduler flags and typos must fail loudly: silently
        // dropping `--overlpa` would run the CPU engine instead.
        for (extra, name) in [
            ("--cpu-bin2-fraction 0.5", "--cpu-bin2-fraction"),
            ("--per-bin-rates", "--per-bin-rates"),
            ("--adaptive-batch", "--adaptive-batch"),
            ("--calibrate", "--calibrate"),
            ("--cpu-words-per-s 1e6", "--cpu-words-per-s"),
            ("--overlpa", "--overlpa"),
        ] {
            let err = run(&argv(&format!("assemble --r1 a.fq --r2 b.fq --out asm {extra}")))
                .expect_err("unknown flag must be rejected");
            assert!(err.contains(&format!("unknown flag {name} ")), "{extra}: {err}");
        }
        let err = run(&argv("simulate --out sim --sclae 0.1")).expect_err("typo in simulate");
        assert!(err.contains("unknown flag --sclae "), "{err}");
    }

    #[test]
    fn iterative_rejects_k() {
        // The k loop derives its schedule from the read length; an explicit
        // k must fail loudly rather than be ignored.
        let err = run(&argv("assemble --r1 a.fq --r2 b.fq --out asm --iterative --k 55"))
            .expect_err("--iterative with --k must be rejected");
        assert!(err.contains("--k") && err.contains("--iterative"), "{err}");
    }

    #[test]
    fn assemble_survives_corrupt_fastq_records() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");

        // Corrupt one record in each mate file the same way (missing '+'),
        // so pairing stays aligned and ingest must skip one record per file.
        for mate in ["reads_1.fastq", "reads_2.fastq"] {
            let p = dir.join(mate);
            let txt = std::fs::read_to_string(&p).unwrap();
            let corrupted = txt.replacen("\n+\n", "\nBROKEN\n", 1);
            assert_ne!(corrupted, txt, "corruption must apply");
            std::fs::write(&p, corrupted).unwrap();
        }

        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm"
        )))
        .expect("assemble must survive corrupt records");
        assert!(report.contains("skipped 2 malformed FASTQ records"), "{report}");
        assert!(dir.join("asm/contigs.fasta").exists());

        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_it \
             --iterative"
        )))
        .expect("iterative assemble must survive corrupt records");
        assert!(report.contains("skipped 2 malformed FASTQ records"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Out-of-range numbers come back as an `Err` naming their flag, and
    /// input that holds no usable k-mer assembles to nothing, with both
    /// FASTA files written, on every engine.
    #[test]
    fn bad_flags_error_and_degenerate_lanes_assemble_nothing() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_degenerate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fastq = |seqs: &[&str]| -> String {
            seqs.iter()
                .enumerate()
                .map(|(i, s)| format!("@r{i}\n{s}\n+\n{}\n", "I".repeat(s.len())))
                .collect()
        };
        let all_n = "N".repeat(60);
        let lanes: [(&str, String, String); 3] = [
            ("empty", String::new(), String::new()),
            ("all_n", fastq(&[&all_n, &all_n]), fastq(&[&all_n, &all_n])),
            (
                "short",
                fastq(&["ACGTTGCAAGCTTGGCATTG", "TTGACCGATCAGGTACCATG"]),
                fastq(&["GGATCCAATTGGCTAGCTAA", "CATGCATGGTTAACCGGTTA"]),
            ),
        ];
        for (name, r1, r2) in &lanes {
            std::fs::write(dir.join(format!("{name}_1.fq")), r1).unwrap();
            std::fs::write(dir.join(format!("{name}_2.fq")), r2).unwrap();
        }
        let d = dir.to_string_lossy().to_string();
        let lane = |name: &str| format!("--r1 {d}/{name}_1.fq --r2 {d}/{name}_2.fq");

        let bad: [(String, &str); 5] = [
            (format!("assemble {} --out {d}/k0 --k 0", lane("short")), "--k"),
            (format!("assemble {} --out {d}/k129 --k 129", lane("short")), "--k"),
            (format!("simulate --out {d}/sim --scale 0"), "--scale"),
            (format!("simulate --out {d}/sim --scale -1"), "--scale"),
            (format!("simulate --out {d}/sim --scale nan"), "--scale"),
        ];
        for (args, flag) in &bad {
            let err = run(&argv(args)).expect_err(args);
            assert!(err.contains(flag), "{args}: {err}");
        }
        // A failed assemble leaves no output directory behind: neither an
        // invalid k nor a missing --r1 file.
        let missing_r1 =
            format!("assemble --r1 {d}/absent_1.fq --r2 {d}/short_2.fq --out {d}/no_r1");
        run(&argv(&missing_r1)).expect_err(&missing_r1);
        for out in ["k0", "k129", "no_r1"] {
            assert!(!Path::new(&d).join(out).exists(), "a failed run left {d}/{out}");
        }

        for (name, _, _) in &lanes {
            for engine in ["", "--gpu", "--overlap", "--iterative", "--sanitize"] {
                let out = format!("{d}/asm_{name}{}", engine.replace("--", "_"));
                let args = format!("assemble {} --out {out} {engine}", lane(name));
                let report = run(&argv(&args)).unwrap_or_else(|e| panic!("{args}: {e}"));
                assert!(report.contains("contigs:"), "{args}: {report}");
                for file in ["contigs.fasta", "scaffolds.fasta"] {
                    let fasta = std::fs::read_to_string(Path::new(&out).join(file))
                        .unwrap_or_else(|e| panic!("{args}: {file}: {e}"));
                    assert!(fasta.is_empty(), "{args}: {file} holds records:\n{fasta}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
