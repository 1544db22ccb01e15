"""Record the classification regression reference.

    python3 bench/record_reference.py

Classifies every relation the `exact` workload can draw (each relation of
arity 2 to 4 up to argument permutation, and the fixed arity-5 pool) in
every CLI variant, through `eqcut.cli.main`, and writes the verdicts to
`classify_reference.json`.  The file records what the code classified when
it was written; it is a regression reference, not ground truth.  The paper's
own column for the twelve benchmark-table relations is checked separately.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.WORKDIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    files = workloads.Files(workdir)
    eq = run.load_eqcut()
    variants = list(workloads.CLASSIFY_VARIANTS)
    relations = [(a, m) for a in (2, 3, 4) for m in workloads.orbit_masks(a)]
    relations += [(5, m) for m in workloads.arity5_pool()]
    table: list = []
    index: dict = {}
    out: dict = {}
    for arity, mask in relations:
        row = []
        for variant in variants:
            item = workloads.classify_item(eq, files, "rel", arity, mask, variant)
            files.write()
            code, line = run.run_item(eq, item.argv)
            if code != 0:
                raise SystemExit(f"{arity}:{mask} {variant} exited {code}")
            verdict = json.loads(line)["verdict"]
            key = json.dumps(verdict, sort_keys=True)
            if key not in index:
                index[key] = len(table)
                table.append(verdict)
            row.append(index[key])
        out[f"{arity}:{mask}"] = row
    checks.REFERENCE_FILE.write_text(json.dumps(
        {"variants": variants, "verdicts": table, "relations": out},
        sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(out)} relations x {len(variants)} variants, "
          f"{len(table)} distinct verdicts -> {checks.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
