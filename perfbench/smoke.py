#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload at a tiny scale, once untraced and once traced, and
checks that
1. every metric BENCHMARK.json names prints, by name with its unit, both in
   the text lines and in the final JSON object;
2. the traced contigs equal the untraced ones (the traced run is correct);
3. a corrupted output counts as failed and makes the command exit non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--scale", "0.05", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1]) if lines else None


def check(ok, message):
    if not ok:
        print(f"smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{w['name']} --trace {trace}"
            code, text, result = bench(w["name"], trace)
            check(code == 0 and result is not None, f"{label}: exit code {code}")
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: outputs are not correct (traced contigs must equal untraced)")
            check(set(result["metrics"]) == {m["name"] for m in metrics},
                  f"{label}: metric names differ from BENCHMARK.json")
            for m in metrics:
                check(result["metrics"][m["name"]]["unit"] == m["unit"],
                      f"{label}: {m['name']} has the wrong unit")
                check(any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                          for line in text), f"{label}: no text line for {m['name']}")
            print(f"smoke: {label}: ok")
    code, _, result = bench(spec["workloads"][0]["name"], 0, "--corrupt")
    check(code != 0, "a corrupted output must make the benchmark exit non-zero")
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "a corrupted output must count as failed")
    print("smoke: corrupted output counted as failed: ok")


if __name__ == "__main__":
    main()
