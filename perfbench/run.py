#!/usr/bin/env python3
"""Benchmark of the mhm2rs metagenome assembler, end to end and per layer.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload arctic-cpu --seed 0 --seconds 20 --trace 0

It builds `mhm2rs` and the benchmark harness (perfbench/harness) in release
mode, then sets the workload up three times from the seed: dataset, FASTQ
pair, reference genomes, and reference contigs assembled by the library on
the CPU engine. It reports the median set-up time.

With --trace 0 it runs `mhm2rs assemble` in a closed loop, one assembly at
a time, for --seconds, and checks every run: exit code 0, contigs.fasta
byte for byte equal to the reference contigs, and no skipped local-assembly
task. A reference that skipped a local-assembly task fails every run.
`mhm2rs assemble --iterative` does not report skipped tasks, so on the k loop
an untraced run is checked by its contigs alone. With --trace 1 it times a
few untraced assemblies, then the harness's traced re-composition of the
same pipeline, reports the per-layer metrics, and checks that the traced
contigs equal the untraced ones and that no traced repetition skipped a task.
On the overlap workload every untraced run also records the scheduler's
CPU/GPU split as `mhm2rs` reports it.

It prints the environment and every metric by name, with its unit and kind,
then, as its last line, one JSON object with the keys correct, attempted,
failed and metrics. It exits 1 when any output is wrong and 2 when it cannot
run. The record of each run (every sample, the environment, the spans of a
traced run) is saved under .bench_work/results/.

Compare two directories of saved records, parent first:

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Reserved for confirming a claimed gain on data the change was not tuned
# on (`--seed held-out`); do not use it while developing a change.
HELD_OUT_SEED = 7919

MIN_RUNS = 3
# Share of a traced run's --seconds spent on untraced assemblies, the
# baseline of trace.overhead_s.
UNTRACED_SHARE = 0.4

# Every number has one kind, and kinds are never added together: measured
# host wall time on this machine, modeled by the program (gpusim device
# seconds, the scheduler's virtual clock), an exact count, or computed from
# counts and sizes.
MODELED = {"gpusim.device_s", "locassm.sched.makespan_model_s", "locassm.sched.model_err"}
COMPUTED = {
    "genome_fraction", "precision", "ok_frac", "mhm.contig_n50", "mhm.merged_frac",
    "locassm.extended_frac", "locassm.sched.gpu_task_frac", "gpusim.global_bytes",
    "trace.coverage",
}


def kind(name, unit):
    if name in MODELED:
        return "modeled"
    if name in COMPUTED:
        return "computed"
    return "count" if unit == "count" else "measured"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Build mhm2rs and the harness in release mode; return their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["-p", "mhm", "--bin", "mhm2rs"]),
        (BENCH / "harness" / "Cargo.toml", []),
    ):
        if not manifest.is_file():
            fail(f"{manifest} is missing: run from the root of a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if code != 0:
            fail("build failed: " + " ".join(cmd))
    return target / "release" / "mhm2rs", target / "release" / "perfbench-harness"


def harness(exe, *args):
    proc = subprocess.run([str(exe), *map(str, args)], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"harness {args[0]} failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scheduler_split(log):
    """The GPU's share of the overlap scheduler's batches and of its
    estimated words, from the report of `mhm2rs assemble --overlap`; None
    for the other engines, which print no split."""
    split = {}
    for key, label in (("gpu_batch_frac", "batches"), ("gpu_word_frac", r"shares \(est words\)")):
        found = re.search(rf"^\s*{label}\s+cpu (\d+) / gpu (\d+)", log, re.MULTILINE)
        if found:
            cpu, gpu = int(found[1]), int(found[2])
            split[key] = gpu / (cpu + gpu) if cpu + gpu else 0.0
    return split or None


def assemble(mhm2rs, work, flags, reference, corrupt=False):
    """One `mhm2rs assemble`: wall time, peak RSS, and what is wrong with its
    output (None when nothing is)."""
    out = work / "asm"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [str(mhm2rs), "assemble", "--r1", str(work / "reads_1.fastq"),
           "--r2", str(work / "reads_2.fastq"), "--out", str(out), *flags]
    log_path = work / "assemble.log"
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    contigs = out / "contigs.fasta"
    if corrupt and contigs.is_file():
        data = contigs.read_bytes()
        contigs.write_bytes(data.replace(b"A", b"C", 1) if b"A" in data else data + b"A")
    log = log_path.read_text()
    error = None
    if proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    elif not contigs.is_file():
        error = "no contigs.fasta"
    elif contigs.read_bytes() != reference:
        error = "contigs.fasta differs from the reference contigs"
    elif "tasks skipped" in log:
        error = "local assembly skipped tasks"
    if error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "error": error,
            "sched_split": scheduler_split(log)}


def closed_loop(seconds, min_runs, run_one):
    """Run one assembly at a time until the next would end after `seconds`."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        samples.append(run_one(len(samples)))
        if len(samples) >= min_runs and time.perf_counter() + samples[-1]["wall_s"] > deadline:
            return samples


def end_to_end(args, mhm2rs, work, setup, reference):
    samples = closed_loop(args.seconds, MIN_RUNS, lambda i: assemble(
        mhm2rs, work, setup["cli_flags"], reference, corrupt=args.corrupt and i == 0))
    failed = len(samples) if setup["ref_skipped_tasks"] else sum(
        s["error"] is not None for s in samples)
    splits = [s["sched_split"] for s in samples if s["sched_split"]]
    if splits:
        print("scheduler split (GPU share, per run): " + "  ".join(
            f"batches {s.get('gpu_batch_frac', 0):.4f} words {s.get('gpu_word_frac', 0):.4f}"
            for s in splits))
    assemble_s = statistics.median(s["wall_s"] for s in samples)
    values = {
        "assemble_s": assemble_s,
        "pairs_per_s": setup["pairs"] / assemble_s,
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "genome_fraction": setup["genome_fraction"],
        "precision": setup["precision"],
        "ok_frac": (len(samples) - failed) / len(samples),
    }
    return values, {"samples": samples}, len(samples), failed


def traced(args, spec, mhm2rs, harness_exe, work, setup, reference):
    untraced = closed_loop(args.seconds * UNTRACED_SHARE, 2, lambda i: assemble(
        mhm2rs, work, setup["cli_flags"], reference))
    untraced_path = work / "asm" / "contigs.fasta"
    untraced_contigs = untraced_path.read_bytes() if untraced_path.is_file() else None
    result = harness(harness_exe, "trace", "--workload", args.workload, "--dir", work,
                     "--seconds", args.seconds * (1 - UNTRACED_SHARE))
    reps = int(result["reps"])
    traced_contigs = (work / "trace" / "contigs.fasta").read_bytes()
    identical = result["identical"] and traced_contigs == untraced_contigs == reference
    if not identical:
        print("perfbench: traced contigs differ from the untraced ones", file=sys.stderr)
    got = result["metrics"]
    values = {m["name"]: got.get(m["name"], 0.0) for m in spec["per_layer"]}
    values["trace.overhead_s"] = (
        got["trace.total_s"] - statistics.median(s["wall_s"] for s in untraced))
    skipped = int(result["skipped_reps"])
    if skipped:
        print(f"perfbench: {skipped} traced repetitions skipped local-assembly tasks",
              file=sys.stderr)
    failed = (sum(s["error"] is not None for s in untraced)
              + (reps if not identical else skipped))
    if setup["ref_skipped_tasks"]:
        failed = len(untraced) + reps
    detail = {"untraced": untraced, "traced_reps": reps, "traced_contigs_identical": identical,
              "traced_skipped_reps": skipped, "traced_metrics": got}
    return values, detail, len(untraced) + reps, failed


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True)
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    if top.returncode or head.returncode or Path(top.stdout.strip()).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return head.stdout.strip()


def environment(args, setup):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rayon_threads": int(setup["rayon_threads"]),
        "commit": git_commit(),
        "profile": "release",
        "workload": args.workload,
        "seed": args.seed,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def run(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    mhm2rs, harness_exe = build()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.scale != 1:
        stem += f"-scale{args.scale}"
    work = WORK / stem
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = harness(harness_exe, "setup", "--workload", args.workload, "--seed", args.seed,
                    "--dir", work, "--scale-mult", args.scale)
    reference = (work / "ref_contigs.fasta").read_bytes()
    env = environment(args, setup)
    if setup["ref_skipped_tasks"]:
        # Runs that match a reference with holes in it are not correct.
        print(f"perfbench: the reference skipped {int(setup['ref_skipped_tasks'])} "
              "local-assembly tasks; every run counts as failed", file=sys.stderr)
    if args.trace:
        specs = spec["per_layer"]
        values, detail, attempted, failed = traced(args, spec, mhm2rs, harness_exe, work,
                                                   setup, reference)
    else:
        specs = spec["end_to_end"]
        values, detail, attempted, failed = end_to_end(args, mhm2rs, work, setup, reference)

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"reference: {int(setup['contigs'])} contigs, N50 {int(setup['contig_n50'])} bp, "
          f"{int(setup['pairs'])} pairs")
    metrics = {}
    for m in specs:
        name, unit = m["name"], m["unit"]
        metrics[name] = {"value": values[name], "unit": unit, "kind": kind(name, unit)}
        print(f"{name:<34} {values[name]:<24.12g} {unit:<9} {kind(name, unit)}")
    correct = failed == 0
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "scale": args.scale, "environment": env,
              "setup": setup, "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, **detail}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if (work / "spans.jsonl").is_file():
        shutil.copy(work / "spans.jsonl", results / f"{stem}.spans.jsonl")
    shutil.rmtree(work)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                                  for n, m in metrics.items()}}))
    return 0 if correct else 1


def load_results(directory):
    """{workload: {seed: {metric: value}}} from the untraced full-scale
    records in `directory`."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and record.get("scale") == 1:
            out.setdefault(record["workload"], {})[record["seed"]] = {
                name: m["value"] for name, m in record["metrics"].items()}
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """Judge one metric on one workload; runs are paired by seed.

    Improved: the change wins at least 9 of 10 pairs and the medians differ
    by more than the parent's own quartile spread. Unresolved: either
    side's spread exceeds the bound, unless every change run beats every
    parent run. Worse: the change's median is worse by more than the bound.
    """
    sign = 1 if better == "higher" else -1

    def gain(p, c):
        return sign * (c - p)

    won = sum(gain(p, c) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if won >= 0.9 * len(parent) and gain(pm, cm) > p3 - p1:
        return "improved", won
    if spread > bound and not all_better:
        return "unresolved", won
    if pm and -gain(pm, cm) / abs(pm) > bound:
        return "worse", won
    return "no worse (within bound)", won


def compare(parent_dir, change_dir):
    spec = load_spec()
    parent, change = load_results(parent_dir), load_results(change_dir)

    def show(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<12} {'metric':<16} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict")
    for w in spec["workloads"]:
        p_runs, c_runs = parent.get(w["name"], {}), change.get(w["name"], {})
        seeds = sorted(set(p_runs) & set(c_runs))
        if not seeds:
            print(f"{w['name']:<12} no seed was run in both sets")
            continue
        for m in spec["end_to_end"]:
            pv = [p_runs[s][m["name"]] for s in seeds]
            cv = [c_runs[s][m["name"]] for s in seeds]
            v, won = verdict(pv, cv, m["better"], m["bound"])
            print(f"{w['name']:<12} {m['name']:<16} {show(pv):<34} {show(cv):<34} "
                  f"{won:>3}/{len(seeds):<3}  {v}")
    return 0


def seed_arg(text):
    if text == "held-out":
        return HELD_OUT_SEED
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("a seed is a whole number >= 0")
    return seed


def positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare",
                                    description="Compare parent and change result sets.")
        p.add_argument("parent")
        p.add_argument("change")
        a = p.parse_args(argv[1:])
        return compare(a.parent, a.change)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=seed_arg, default=0,
                   help=f"workload seed (0 = the presets' built-in seeds; "
                        f"'held-out' = {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=positive, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # For the smoke test: shrink the dataset, and corrupt the first output.
    p.add_argument("--scale", type=positive, default=1.0, help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
