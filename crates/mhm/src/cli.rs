//! Command-line front end (`mhm2rs`): dataset simulation and assembly from
//! FASTQ files on disk.
//!
//! Argument parsing is hand-rolled (no CLI dependency): subcommand followed
//! by `--flag value` pairs and boolean `--flag`s. The heavy lifting lives
//! in [`run_simulate`] / [`run_assemble`], which are plain functions over a
//! parsed [`CliArgs`] so the test suite can drive them against temporary
//! directories.

use crate::iterative::{default_schedule, run_iterative};
use crate::pipeline::{run_pipeline, EngineChoice, PipelineConfig};
use crate::report::{
    render_breakdown, render_overlap, render_recovery, render_rounds, render_sanitizer,
};
use crate::stats::{evaluate_against_refs, AssemblyStats};
use bioseq::fastq::{self, NPolicy};
use bioseq::DnaSeq;
use datagen::{arcticsynth_like, wa_like};
use gpusim::{DeviceConfig, SanitizerConfig};
use locassm::gpu::KernelVersion;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

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
      [--overlap] [--cpu-words-per-s R]
      Assemble paired FASTQ into contigs.fasta + scaffolds.fasta.
      --sanitize runs the GPU engine under gpucheck (memcheck + racecheck +
      synccheck) and appends its findings to the report; implies --gpu.
      --overlap runs local assembly on the CPU/GPU overlap driver with the
      work-stealing scheduler, which prices the CPU engine at a fixed
      modeled rate (default 2.8e7 estimated words/s).
      --cpu-words-per-s R sets that modeled rate to R words/s; it implies
      --overlap.
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
    let preset = match cli.get("preset").unwrap_or("arctic") {
        "arctic" => arcticsynth_like(scale),
        "wa" => wa_like(scale),
        other => return Err(format!("unknown preset {other} (arctic|wa)")),
    };
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let (community, pairs) = preset.generate();

    let r1: Vec<bioseq::Read> = pairs.iter().map(|p| p.r1.clone()).collect();
    let r2: Vec<bioseq::Read> = pairs.iter().map(|p| p.r2.clone()).collect();
    write_fastq_file(&out.join("reads_1.fastq"), &r1)?;
    write_fastq_file(&out.join("reads_2.fastq"), &r2)?;
    let refs = community.genomes.iter().map(|g| (g.id.clone(), g.seq.clone()));
    let f = File::create(out.join("refs.fasta")).map_err(|e| e.to_string())?;
    fastq::write_fasta(BufWriter::new(f), refs, 80).map_err(|e| e.to_string())?;

    Ok(format!(
        "wrote {} read pairs from {} ({} genomes) to {}",
        pairs.len(),
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
        "cpu-words-per-s",
    ])?;
    let r1_path = cli.require("r1")?;
    let r2_path = cli.require("r2")?;
    let out = PathBuf::from(cli.require("out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    let (r1, r1_stats) = read_fastq_file(Path::new(r1_path))?;
    let (r2, r2_stats) = read_fastq_file(Path::new(r2_path))?;
    let ingest_malformed = r1_stats.skipped_malformed + r2_stats.skipped_malformed;
    let ingest_ambiguous = r1_stats.dropped_ambiguous + r2_stats.dropped_ambiguous;
    let pairs = fastq::pair_up(r1, r2).map_err(|e| e.to_string())?;

    let mut cfg = PipelineConfig { k: cli.get_num("k", 31)?, ..Default::default() };
    let sanitize = cli.has("sanitize");
    let rate_override = match cli.get("cpu-words-per-s") {
        None => None,
        Some(v) => {
            let rate: f64 =
                v.parse().map_err(|_| format!("--cpu-words-per-s: cannot parse {v:?}"))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(format!("--cpu-words-per-s must be a positive rate, got {rate}"));
            }
            Some(rate)
        }
    };
    let overlap = cli.has("overlap") || rate_override.is_some();
    if sanitize || overlap || cli.has("gpu") || cli.get("kernel").is_some() {
        let version = match cli.get("kernel").unwrap_or("v2") {
            "v1" => KernelVersion::V1,
            "v2" => KernelVersion::V2,
            other => return Err(format!("unknown kernel {other} (v1|v2)")),
        };
        let mut device = DeviceConfig::v100();
        if sanitize {
            device = device.with_sanitizer(SanitizerConfig::full());
        }
        cfg.engine = if overlap {
            let mut steal = locassm::StealConfig::default();
            if let Some(rate) = rate_override {
                steal.cpu_words_per_s = rate;
            }
            let schedule = locassm::SchedulePolicy::WorkSteal(steal);
            EngineChoice::Overlap { device, version, schedule }
        } else {
            EngineChoice::Gpu { device, version }
        };
    }

    // Every measured second below ran on this many threads.
    let mut report = format!("threads {}\n", rayon::current_num_threads());
    let (contigs, scaffolds) = if cli.has("iterative") {
        let max_read = pairs.iter().map(|p| p.r1.len().max(p.r2.len())).max().unwrap_or(150);
        let mut schedule = default_schedule(max_read);
        if schedule.is_empty() {
            schedule = vec![cfg.k];
        }
        let result = run_iterative(&pairs, &cfg, &schedule);
        report.push_str(&render_rounds(&result));
        report.push('\n');
        report.push_str(&render_breakdown("iterative pipeline", &result.timings));
        let seqs: Vec<DnaSeq> =
            result.scaffolds.iter().map(|s| s.render(&result.contigs)).collect();
        (result.contigs, seqs)
    } else {
        let mut result = run_pipeline(&pairs, &cfg).map_err(|e| e.to_string())?;
        result.stats.merge.malformed_skipped = ingest_malformed;
        result.stats.merge.ambiguous_dropped = ingest_ambiguous;
        if ingest_malformed > 0 {
            report
                .push_str(&format!("ingest: skipped {ingest_malformed} malformed FASTQ records\n"));
        }
        report.push_str(&render_breakdown("pipeline", &result.timings));
        if result.degraded() {
            report.push_str(&render_recovery(&result.stats));
        }
        report.push_str(&render_overlap(&result.stats));
        report.push_str(&render_sanitizer(&result.stats));
        let seqs: Vec<DnaSeq> =
            result.scaffolds.iter().map(|s| s.render(&result.contigs)).collect();
        (result.contigs, seqs)
    };

    let stats = AssemblyStats::of(&contigs);
    report.push_str(&format!("\ncontigs:   {}\n", stats.render()));
    let sstats = AssemblyStats::of(&scaffolds);
    report.push_str(&format!("scaffolds: {}\n", sstats.render()));

    if let Some(refs_path) = cli.get("refs") {
        let f = File::open(refs_path).map_err(|e| e.to_string())?;
        let (refs, _) =
            fastq::parse_fasta(BufReader::new(f), NPolicy::Drop).map_err(|e| e.to_string())?;
        let ref_seqs: Vec<DnaSeq> = refs.into_iter().map(|(_, s)| s).collect();
        let eval = evaluate_against_refs(&contigs, &ref_seqs, 31.min(cfg.k));
        report.push_str(&format!(
            "vs refs:   genome fraction {:.1}%, precision {:.1}% (k={})\n",
            eval.genome_fraction * 100.0,
            eval.precision * 100.0,
            eval.k
        ));
    }

    let f = File::create(out.join("contigs.fasta")).map_err(|e| e.to_string())?;
    fastq::write_fasta(
        BufWriter::new(f),
        contigs.iter().enumerate().map(|(i, c)| (format!("contig_{i}"), c.clone())),
        80,
    )
    .map_err(|e| e.to_string())?;
    let f = File::create(out.join("scaffolds.fasta")).map_err(|e| e.to_string())?;
    fastq::write_fasta(
        BufWriter::new(f),
        scaffolds.iter().enumerate().map(|(i, s)| (format!("scaffold_{i}"), s.clone())),
        80,
    )
    .map_err(|e| e.to_string())?;

    Ok(report)
}

fn write_fastq_file(path: &Path, reads: &[bioseq::Read]) -> Result<(), String> {
    let f = File::create(path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(f);
    fastq::write_fastq(&mut w, reads).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())
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
        let env_forced =
            std::env::var(gpusim::SANITIZE_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
        if !env_forced {
            assert!(!plain.contains("gpucheck"), "plain runs must not print the section: {plain}");
        }
        let unsanitized = std::fs::read_to_string(dir.join("asm_gpu/contigs.fasta")).unwrap();
        assert_eq!(sanitized, unsanitized);

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

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cpu_rate_flag_drives_the_scheduler() {
        let dir = std::env::temp_dir().join(format!("mhm2rs_cpu_rate_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().to_string();
        run(&argv(&format!("simulate --out {out} --preset arctic --scale 0.01")))
            .expect("simulate");

        run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm"
        )))
        .expect("cpu assemble");
        let cpu = std::fs::read_to_string(dir.join("asm/contigs.fasta")).unwrap();

        // --cpu-words-per-s alone implies --overlap and sets the modeled CPU
        // rate the report prints. Contigs stay byte-identical.
        let report = run(&argv(&format!(
            "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq --out {out}/asm_pin \
             --cpu-words-per-s 1e6"
        )))
        .expect("pinned-rate assemble");
        assert!(report.contains("overlap scheduler (work-steal)"), "{report}");
        let model_line = report
            .lines()
            .find(|l| l.trim_start().starts_with("cpu rate model"))
            .unwrap_or_else(|| panic!("no cpu rate model line: {report}"));
        assert!(model_line.contains("1.000e6 words/s"), "{model_line}");
        let pinned = std::fs::read_to_string(dir.join("asm_pin/contigs.fasta")).unwrap();
        assert_eq!(cpu, pinned);

        // Bad rates are rejected up front.
        for bad in ["0", "-5", "nan", "inf", "squid"] {
            let err = run(&argv(&format!(
                "assemble --r1 {out}/reads_1.fastq --r2 {out}/reads_2.fastq \
                 --out {out}/asm_bad --cpu-words-per-s {bad}"
            )))
            .expect_err("bad rate must be rejected");
            assert!(err.contains("cpu-words-per-s"), "{bad}: {err}");
        }

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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
