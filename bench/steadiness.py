"""Steadiness report: do two sets of benchmark runs agree?

    python3 bench/steadiness.py

Run from the root of a checkout.  Makes two independent sets of runs of the
command in BENCHMARK.json, each with ten different seeds per workload, and
writes to bench/STEADINESS.md, for every end-to-end metric and workload, the
median and quartiles of each set, the spread (interquartile distance over
median) and how far the second set's median moved from the first, next to
the metric's bound.  Every spread within its bound, and no second median
worse than the first by more than the bound, back the bounds recorded in
BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
REPORT = Path(__file__).with_name("STEADINESS.md")


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} failed items")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    values: dict = {}
    seed = 1
    for s in range(SETS):
        for _ in range(RUNS):
            for w in names:
                got = run_once(spec, w, seed)
                for name, v in got.items():
                    values.setdefault((w, name), [[] for _ in range(SETS)])[s].append(v)
                print(f"set {s + 1} seed {seed} {w}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in got.items()), flush=True)
            seed += 1

    lines = [f"{SETS} sets x {RUNS} seeds per workload, "
             f"{spec['run_seconds']} s per run; spread = (q3 - q1) / median.",
             "",
             "| workload | metric | bound | set | median | q1 | q3 | spread | worse than set 1 |",
             "|---|---|---|---|---|---|---|---|---|"]
    ok = True
    for w in names:
        for metric in spec["end_to_end"]:
            sets = values[(w, metric["name"])]
            first = summary(sets[0])[0]
            for s, vals in enumerate(sets):
                med, q1, q3, spread = summary(vals)
                worse = worse_by(metric, first, med)
                if spread > metric["bound"] or worse > metric["bound"]:
                    ok = False
                lines.append(f"| {w} | {metric['name']} ({metric['unit']}) | {metric['bound']} | "
                             f"{s + 1} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
                             f"{worse:+.3f} |")
    lines += ["", "all spreads and medians within bounds" if ok else "SOME METRIC OUT OF BOUND"]
    report = "\n".join(lines) + "\n"
    print(report)
    REPORT.write_text(report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
