//! Text rendering of breakdowns and series tables for the figure harnesses.

use crate::pipeline::{PhaseTimings, PipelineResult, PipelineStats};
use locassm::gpu::GpuRunStats;
use locassm::ScheduleReport;

/// Render a phase breakdown as a fixed-width table with percentage bars —
//  the textual equivalent of the paper's pie charts (Fig. 2, Fig. 12).
pub fn render_breakdown(title: &str, timings: &PhaseTimings) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!("{:-<70}\n", ""));
    for (phase, secs, frac) in timings.breakdown() {
        let bar_len = (frac * 40.0).round() as usize;
        out.push_str(&format!(
            "{:<18} {:>10.3} s {:>6.1}% |{:<40}|\n",
            phase.name(),
            secs,
            frac * 100.0,
            "#".repeat(bar_len)
        ));
    }
    out.push_str(&format!("{:<18} {:>10.3} s  100.0%\n", "TOTAL", timings.total()));
    out
}

/// Render the degraded-run section: whether the device failed, how many
/// tasks the CPU fallback ran in its place, and how many tasks were
/// skipped. Empty when local assembly ran as planned.
pub fn render_recovery(stats: &PipelineStats) -> String {
    let mut out = String::new();
    let mut line = |label: &str, value: String| {
        out.push_str(&format!("  {label:<24} {value}\n"));
    };
    if let Some(gpu) = &stats.gpu {
        if gpu.device_failed {
            line("device failed", "yes (later batches ran on the CPU)".to_string());
        }
        if gpu.cpu_fallback_tasks > 0 {
            line("CPU-fallback tasks", gpu.cpu_fallback_tasks.to_string());
        }
    }
    if stats.la_failed_tasks > 0 {
        line("tasks skipped", stats.la_failed_tasks.to_string());
    }
    if out.is_empty() {
        return out;
    }
    format!("DEGRADED RUN — local assembly fell back to the CPU or skipped tasks:\n{out}")
}

/// Render a run's report, single k or iterative: one line per round when
/// there are several, the measured phase table, the modeled GPU seconds,
/// then the degraded-run (when degraded), overlap-scheduler and sanitizer
/// sections.
pub fn render_run(result: &PipelineResult) -> String {
    let mut out = String::new();
    if result.rounds.len() > 1 {
        for r in &result.rounds {
            out.push_str(&format!("round k={}: {}\n", r.k, r.stats.render()));
        }
        out.push('\n');
    }
    out.push_str(&render_breakdown("pipeline", &result.timings));
    let gpu = result.stats.gpu.as_ref();
    if let Some(gpu) = gpu {
        out.push_str(&format!(
            "modeled GPU local assembly {:.6} s (simulated device time, not in TOTAL)\n",
            gpu.seconds
        ));
    }
    if result.degraded() {
        out.push_str(&render_recovery(&result.stats));
    }
    let sched = result.rounds.last().and_then(|r| r.overlap.as_ref());
    out.push_str(&render_overlap(sched, gpu));
    out.push_str(&render_sanitizer(&result.stats));
    out
}

/// Render the `gpucheck` section of a `--sanitize` run: per-kind finding
/// counts and the sampled reports, or a one-line all-clear. Empty when the
/// run never enabled the sanitizer (CPU engine, or plain GPU run).
pub fn render_sanitizer(stats: &PipelineStats) -> String {
    let Some(summary) = stats.gpu.as_ref().map(|g| &g.sanitizer) else {
        return String::new();
    };
    if !summary.enabled {
        return String::new();
    }
    format!("\n{}", summary.render())
}

/// Render the overlap-scheduler section from the final round's report:
/// engine shares, steal counts, the CPU rate model against measured CPU
/// seconds, and the double-buffer savings of `gpu`. Empty when the run did
/// not use the overlap driver.
pub fn render_overlap(sched: Option<&ScheduleReport>, gpu: Option<&GpuRunStats>) -> String {
    let Some(sched) = sched else {
        return String::new();
    };
    let mut out = String::from("\noverlap scheduler (work-steal)\n");
    let mut line = |label: &str, value: String| {
        out.push_str(&format!("  {label:<24} {value}\n"));
    };
    line(
        "shares (est words)",
        format!(
            "cpu {} / gpu {} (balance {:.2})",
            sched.cpu_est_words,
            sched.gpu_est_words,
            sched.word_balance()
        ),
    );
    line(
        "batches",
        format!("cpu {} / gpu {} of {}", sched.cpu_batches, sched.gpu_batches, sched.batches()),
    );
    if sched.cpu_stole_heavy > 0 {
        line("bin-3 stolen by CPU", sched.cpu_stole_heavy.to_string());
    }
    if sched.gpu_absorbed_light > 0 {
        line("bin-2 absorbed by GPU", sched.gpu_absorbed_light.to_string());
    }
    if sched.makespan_model_s() > 0.0 {
        line("model makespan", format!("{:.6} s", sched.makespan_model_s()));
    }
    line(
        "cpu rate model",
        format!(
            "{:.3e} words/s: {:.6} s modeled vs {:.6} s measured (err {:.1}%)",
            sched.cpu_words_per_s,
            sched.cpu_model_s,
            sched.cpu_measured_s,
            100.0 * sched.cpu_model_err()
        ),
    );
    if let Some(gpu) = gpu {
        if gpu.pack_s > 0.0 {
            line(
                "pack overlap",
                format!("{:.6} s hidden of {:.6} s pack", gpu.overlap_saved_s, gpu.pack_s),
            );
        }
    }
    out
}

/// Render a generic aligned table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    out.push_str(&format!("{}\n", "-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1))));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Phase;

    #[test]
    fn breakdown_renders_all_phases() {
        let mut t = PhaseTimings::new();
        t.add(Phase::MergeReads, 1.0);
        t.add(Phase::LocalAssembly, 3.0);
        let s = render_breakdown("demo", &t);
        assert!(s.contains("merge reads"));
        assert!(s.contains("local assembly"));
        assert!(s.contains("75.0%"));
        assert!(s.contains("TOTAL"));
    }

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["nodes", "speedup"],
            &[vec!["64".into(), "7.00".into()], vec!["1024".into(), "2.65".into()]],
        );
        assert!(s.contains("nodes"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn recovery_section_empty_for_clean_run() {
        let stats = PipelineStats::default();
        assert_eq!(render_recovery(&stats), "");
    }

    #[test]
    fn sanitizer_section_empty_without_gpu_or_sanitizer() {
        let stats = PipelineStats::default();
        assert_eq!(render_sanitizer(&stats), "");
        let stats = PipelineStats { gpu: Some(GpuRunStats::default()), ..Default::default() };
        assert_eq!(render_sanitizer(&stats), "", "sanitizer-off GPU runs print nothing");
    }

    #[test]
    fn sanitizer_section_reports_clean_run() {
        let mut gpu = GpuRunStats::default();
        gpu.sanitizer.enabled = true;
        let stats = PipelineStats { gpu: Some(gpu), ..Default::default() };
        let s = render_sanitizer(&stats);
        assert!(s.contains("gpucheck: clean"), "{s}");
    }

    #[test]
    fn overlap_section_empty_without_overlap_driver() {
        assert_eq!(render_overlap(None, None), "");
        assert_eq!(render_overlap(None, Some(&GpuRunStats::default())), "", "plain GPU run");
    }

    /// The `cpu N / gpu M` split of a labelled line, parsed the way
    /// `perfbench/run.py` reads it: `^\s*{label}\s+cpu (\d+) / gpu (\d+)`.
    fn split_of(report: &str, label: &str) -> Option<(u64, u64)> {
        report.lines().find_map(|line| {
            let rest = line.trim_start().strip_prefix(label)?;
            let rest = rest.strip_prefix(char::is_whitespace)?.trim_start();
            let (cpu, gpu) = rest.strip_prefix("cpu ")?.split_once(" / gpu ")?;
            let gpu = gpu.split(|c: char| !c.is_ascii_digit()).next()?;
            Some((cpu.parse().ok()?, gpu.parse().ok()?))
        })
    }

    #[test]
    fn overlap_section_reports_shares_and_steals() {
        let sched = ScheduleReport {
            gpu_batches: 4,
            cpu_batches: 2,
            cpu_stole_heavy: 1,
            cpu_est_words: 900,
            gpu_est_words: 1100,
            cpu_model_s: 0.5,
            gpu_model_s: 0.4,
            ..Default::default()
        };
        let s = render_overlap(Some(&sched), None);
        assert!(s.contains("work-steal"), "{s}");
        assert!(s.contains("cpu 900 / gpu 1100"), "{s}");
        // The batch total is derived from the two engines' counts.
        assert!(s.lines().any(|l| l == "  batches                  cpu 2 / gpu 4 of 6"), "{s}");
        assert_eq!(split_of(&s, "batches"), Some((2, 4)), "{s}");
        assert_eq!(split_of(&s, "shares (est words)"), Some((900, 1100)), "{s}");
        assert!(s.contains("bin-3 stolen by CPU"), "{s}");
        assert!(s.contains("model makespan"), "{s}");
        assert!(!s.contains("bin-2 absorbed"), "unfired counters stay silent: {s}");
    }

    #[test]
    fn overlap_section_reports_cpu_rate_model() {
        let sched = ScheduleReport {
            gpu_batches: 2,
            cpu_batches: 2,
            cpu_est_words: 500,
            gpu_est_words: 500,
            cpu_words_per_s: 2.0e3,
            cpu_model_s: 0.25,
            cpu_measured_s: 0.2,
            ..Default::default()
        };
        let s = render_overlap(Some(&sched), None);
        let line = s.lines().find(|l| l.contains("cpu rate model")).expect("model line");
        assert!(
            line.ends_with(
                "2.000e3 words/s: 0.250000 s modeled vs 0.200000 s measured (err 25.0%)"
            ),
            "{line}"
        );
    }

    #[test]
    fn recovery_section_lists_fired_rungs() {
        let gpu = GpuRunStats { device_failed: true, cpu_fallback_tasks: 3, ..Default::default() };
        let stats = PipelineStats { gpu: Some(gpu), la_failed_tasks: 1, ..Default::default() };
        let s = render_recovery(&stats);
        assert!(s.contains("DEGRADED RUN"), "{s}");
        assert!(s.contains("device failed"), "{s}");
        assert!(s.contains("CPU-fallback tasks"), "{s}");
        assert!(s.contains("tasks skipped"), "{s}");
        // One task too large for the device falls back without the device
        // failing: that line stays silent.
        let gpu = GpuRunStats { cpu_fallback_tasks: 1, ..Default::default() };
        let s = render_recovery(&PipelineStats { gpu: Some(gpu), ..Default::default() });
        assert!(s.contains("CPU-fallback tasks") && !s.contains("device failed"), "{s}");
    }
}
