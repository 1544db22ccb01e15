"""Self-test of the benchmark's own checking.

    python3 bench/selftest.py

Runs a small slice of the `exact` and `solve-search` items through the CLI,
checks that the true references find no wrong verdict, then corrupts one
reference of each kind (the regression verdict set, the paper's table
column, the partition enumerator, the bounded search) and checks that each
corruption is counted in `wrong_verdicts`.  It also checks that a traced
name missing from the package is reported as absent rather than failing.
"""

from __future__ import annotations

import sys

import checks
import run
import tracing
import workloads


def outcomes(eq, items) -> list:
    return [(i, *run.run_item(eq, item.argv), 0.0, False)
            for i, item in enumerate(items)]


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.WORKDIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    eq = run.load_eqcut()
    files = workloads.Files(workdir)
    exact = workloads.build(eq, "exact", 1, files)
    search = workloads.build(eq, "solve-search", 1, files)
    files.write()
    pick = (
        [it for it in exact if it.kind == "classify" and "arity" in it.data][:6]
        + [it for it in exact if "table1" in it.data][:2]
        + [it for it in exact if it.kind == "oracle"][:2]
        + [it for it in search if it.kind == "triple-mc" and it.data["k"] == 1][:8]
    )
    records = outcomes(eq, pick)
    decided, wrong, reasons = run.verify_records(eq, pick, records)
    if len(decided) != len(pick) or wrong:
        print(f"FAIL: true references gave {len(wrong)} wrong of {len(decided)}: {reasons}")
        return 1

    # 1. the regression verdict set
    true_load = checks.load_verdicts
    target = pick[0].data
    key = (target["arity"], target["mask"], target["variant"])

    def corrupted_verdicts():
        verdicts = dict(true_load())
        verdicts[key] = dict(verdicts[key], parameterized="corrupted")
        return verdicts

    checks.load_verdicts = corrupted_verdicts
    # 2. the paper's column
    row = pick[6].data["table1"]
    true_column = checks.TABLE1_COLUMN[row]
    checks.TABLE1_COLUMN[row] = ("corrupted", None)
    # 3. the partition enumerator, for one oracle item
    true_min_cost = checks.min_cost
    oracle_item = pick[8]
    checks.min_cost = lambda d, *bound: (true_min_cost(d, *bound)
                                         + (1 if d is oracle_item.data else 0))
    # 4. the bounded search: a rejected triple-mc item whose stored budget
    # is raised so far that the search must find a solution
    rejected = next((it for it, r in zip(pick, records) if it.kind == "triple-mc" and r[1] == 1),
                    None)
    expected = 3
    if rejected is not None:
        rejected.data["k"] = len(rejected.data["vertices"])
        expected += 1
    try:
        decided, wrong, reasons = run.verify_records(eq, pick, records)
    finally:
        checks.load_verdicts = true_load
        checks.TABLE1_COLUMN[row] = true_column
        checks.min_cost = true_min_cost
    if len(wrong) != expected:
        print(f"FAIL: {expected} corrupted references, {len(wrong)} wrong verdicts: {reasons}")
        return 1
    for ident, why in sorted(reasons.items()):
        print(f"  counted: {ident}: {why}")

    # a traced name the package no longer has is absent, not an error
    tracer = tracing.Tracer()
    original = eq.djmc.compute_rv
    del eq.djmc.compute_rv
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        eq.djmc.compute_rv = original
    metrics, _bases = tracer.metrics(1, 1.0)
    if tracer.absent != ["djmc.compute_rv"] or "djmc.compute_rv.calls" in metrics:
        print(f"FAIL: absent names {tracer.absent}")
        return 1
    print(f"self-test passed: {expected} corrupted references counted as "
          f"{len(wrong)} wrong verdicts; a missing traced name is reported absent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
