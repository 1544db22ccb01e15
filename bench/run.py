"""End-to-end benchmark of the eqcut command line.

    python3 bench/run.py --workload solve-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  One closed-loop client in one process, with no extra threads, sends
each item of the workload through `eqcut.cli.main([...])` on a file in the
package's text formats, then the next, in whole passes over the seeded item
list, until `--seconds` of passes have passed, in at least three passes.
Each pass runs on a package freshly imported and warmed by a complete
set-up, so no state carries over from one pass to the next.

Workloads (see `workloads.py` for sizes):
  solve-search  triple-mc, djmc and neg-fpt on small dense graphs and
                instances at k <= 3: branching search does the work.
  solve-scale   steiner2x and strict-steiner on sparse graphs with
                n = 128..1024: per-call cost of the cut primitives dominates.
  exact         classify, `solve oracle` and `reduce --verify`: exhaustive
                enumeration, no cut solver.

With `--trace 0` the last line reports the end-to-end metrics.  Times are
scaled to a reference machine speed measured alongside (`Stopwatch`), and
each item counts with the median of its scaled times over the passes, which
is steadier than their minimum and does not fall as a faster program fits
more passes in: `items_per_s` is items per pass over the sum of these times, the
latency percentiles are over them, one per item, and `setup_s` is the median
of the set-ups, at least five, each scaled the same way.  With `--trace 1`,
passes alternate between untraced and traced, and the last line reports
per-layer calls and self times per traced pass plus the tracing overhead
(traced over untraced item times).
Every item's exit code and machine report are checked against a reference
after the timed phase (`checks.py`).  Earlier lines print a readable report,
including the per-kind totals and any item over the per-item limit (">T").
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import pkgutil
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".bench_work"

SETUP_REPEATS = 5
# each item's time is the median over at least this many passes
MIN_PASSES = 3
ITEM_LIMIT_S = 20.0
# set-ups and passes stop this long after they began, so that a slow
# program still gets a report within the run-time limit
RUN_LIMIT_S = 140.0


class ItemTimeout(BaseException):
    """Raised by the alarm; a BaseException so the package cannot catch it."""


def _alarm(_signum, _frame):
    raise ItemTimeout


def load_eqcut() -> SimpleNamespace:
    """Import the package and every module in it afresh."""
    for name in [n for n in sys.modules if n == "eqcut" or n.startswith("eqcut.")]:
        del sys.modules[name]
    pkg = importlib.import_module("eqcut")
    mods = {info.name: importlib.import_module(f"eqcut.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)}
    return SimpleNamespace(**mods)


def run_item(eq, argv: list) -> tuple:
    """(exit code or None past the limit, last report line)."""
    out = io.StringIO()
    code = None
    try:
        signal.setitimer(signal.ITIMER_REAL, ITEM_LIMIT_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = eq.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a crash is an outcome of the item, not of the run
            code = f"error: {e!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        pass
    lines = out.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


class Stopwatch:
    """Wall time of laps, scaled to a reference machine speed.

    On a shared host the same work takes up to twice as long from one
    stretch of seconds to the next.  A short, fixed pure-Python task (graph
    search, sets, sorting; nothing from the package under test) is timed
    between laps, at most every 50 ms; the speed factor is the task's
    reference time over its median time in the last five samples, and a lap
    is scaled by the mean of the factors at its start and end, with three
    fresh samples after a lap longer than five samples span.  Reported
    times are thus at the reference speed: a change to the package moves
    them, a busy host mostly does not."""

    REFERENCE_S = 0.0008
    EVERY_S = 0.05
    WINDOW = 5

    def __init__(self):
        self.samples: deque = deque(maxlen=self.WINDOW)
        self.last = -math.inf
        self.total = 0.0
        self.start()

    def sample(self):
        # the collector stays off so that the package's heap does not
        # add collections to the task's time
        gc.disable()
        try:
            start = time.perf_counter()
            _calibration_task()
            self.last = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append(self.last - start)

    def factor(self) -> float:
        """Reference over current speed, sampling if the last sample is old."""
        if time.perf_counter() - self.last >= self.EVERY_S:
            self.sample()
        return self.REFERENCE_S / statistics.median(self.samples)

    def start(self):
        self.begun_factor = self.factor()
        self.begun = time.perf_counter()

    def lap(self) -> float:
        """Scaled seconds since `start`; starts the next lap."""
        elapsed = time.perf_counter() - self.begun
        if elapsed >= self.EVERY_S * self.WINDOW:
            for _ in range(3):
                self.sample()
        scaled = elapsed * (self.begun_factor + self.factor()) / 2
        self.total += scaled
        self.start()
        return scaled


def _calibration_graph() -> dict:
    rng = random.Random("eqcut-bench:calibration")
    graph = {f"v{i}": set() for i in range(60)}
    names = sorted(graph)
    for _ in range(150):
        a, b = rng.sample(names, 2)
        graph[a].add(b)
        graph[b].add(a)
    return graph


_CAL_GRAPH = _calibration_graph()
_CAL_NAMES = sorted(_CAL_GRAPH)


def _calibration_task() -> int:
    total = 0
    for i in range(12):
        removed = frozenset(_CAL_NAMES[i:i + 3])
        start = _CAL_NAMES[i * 7 % len(_CAL_NAMES)]
        seen, stack = {start}, [start]
        while stack:
            for y in _CAL_GRAPH[stack.pop()]:
                if y not in seen and y not in removed:
                    seen.add(y)
                    stack.append(y)
        total += len(seen)
        pairs = {frozenset(p) for p in zip(_CAL_NAMES, _CAL_NAMES[i:])}
        total += len(sorted(pairs, key=sorted))
    return total


def setup(workload: str, seed: int) -> tuple:
    """One complete set-up from scratch: import, item generation and the
    cold caches a CLI user pays for on every run, in laps of one item each.
    Writing the item files is left out of the time: it is the file system's
    cost, not the program's, and varies most from one set-up to the next."""
    workdir = WORKDIR / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    gc.collect()
    watch = Stopwatch()
    files = workloads.Files(workdir, on_add=watch.lap)
    watch.start()
    eq = load_eqcut()
    items = workloads.build(eq, workload, seed, files)
    warm = workloads.warm_argv(eq, workload, files)
    watch.lap()
    files.write()
    watch.start()
    for argv in warm:
        code, _line = run_item(eq, argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}")
    watch.lap()
    return watch.total, eq, items


def run_pass(eq, items, records: list, traced: bool, tracer, hard_deadline: float) -> float:
    """One closed-loop pass over the items, whole unless the hard deadline
    comes first; appends (item index, code, report line, scaled seconds,
    traced) to `records` and returns the pass's wall time."""
    start = time.perf_counter()
    watch = Stopwatch()
    if traced:
        tracer.install()
    try:
        for idx, item in enumerate(items):
            if time.perf_counter() >= hard_deadline:
                break
            if traced:
                tracer.item = idx
            watch.start()
            code, line = run_item(eq, item.argv)
            elapsed = watch.lap()
            if traced:
                tracer.reset_stack()
            records.append((idx, code, line, elapsed, traced))
    finally:
        if traced:
            tracer.uninstall()
    return time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, tracer=None) -> tuple:
    """Rounds of one set-up and one pass over the items on the package that
    set-up loaded, so that every pass starts from a cold package as a CLI
    user's process does, until the passes have taken `seconds` and there
    have been MIN_PASSES of them; then more set-ups alone up to
    SETUP_REPEATS.  Traced runs alternate untraced and traced passes.
    Returns the set-up times, the last package and items, the records and
    the passes' wall time."""
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    setup_times, records = [], []
    spent, npass = 0.0, 0

    def more_passes() -> bool:
        return spent < seconds or npass < MIN_PASSES

    while len(setup_times) < SETUP_REPEATS or more_passes():
        t, eq, items = setup(workload, seed)
        setup_times.append(t)
        if more_passes():
            traced = tracer is not None and npass % 2 == 1
            spent += run_pass(eq, items, records, traced, tracer, hard_deadline)
            npass += 1
        if time.perf_counter() >= hard_deadline:
            break
    return setup_times, eq, items, records, spent


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of sorted values."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def verify_records(eq, items, records) -> tuple:
    """Reference checks; returns (decided, wrong) sets of record positions
    and the reasons per item."""
    verdicts = checks.load_verdicts()
    decided, wrong, reasons, cache = set(), set(), {}, {}
    for pos, (idx, code, line, _t, _traced) in enumerate(records):
        if code not in (0, 1):
            continue
        decided.add(pos)
        key = (idx, code, line)
        if key not in cache:
            cache[key] = checks.verify(eq, items[idx], code, line, verdicts)
        if cache[key] is not None:
            wrong.add(pos)
            reasons[items[idx].ident] = cache[key]
    return decided, wrong, reasons


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eqcut" / "cli.py").is_file():
        print(f"error: no eqcut sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _alarm)

    tracer = tracing.Tracer() if args.trace else None
    setup_times, eq, items, records, wall = measure(args.workload, args.seed,
                                                    args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    decided, wrong, reasons = verify_records(eq, items, records)

    attempted = len(records)
    failed = attempted - len(decided) + len(wrong)
    print(f"workload {args.workload}  seed {args.seed}  {len(items)} items per pass, "
          f"{attempted} attempted in {wall:.2f} s")
    over = sorted({items[r[0]].ident for r in records if r[1] is None})
    for ident in over:
        print(f"  {ident}: >T (limit {ITEM_LIMIT_S:g} s)")
    for ident, code in sorted({(items[r[0]].ident, str(r[1])) for pos, r in enumerate(records)
                               if r[1] is not None and pos not in decided}):
        print(f"  {ident}: exit {code}")
    for ident, why in sorted(reasons.items()):
        print(f"  {ident}: wrong: {why}")

    if tracer is None:
        times = item_times(records)
        metrics = end_to_end(times, setup_times, peak_rss_mb)
        extra = {
            "decided_share": (len(decided) / attempted, f"share of {attempted} attempted"),
            "wrong_verdicts": (len(wrong), f"count of {len(decided)} decided"),
        }
        extra.update(kind_totals(items, times))
    else:
        metrics, extra = traced_metrics(tracer, items, records)
        tracer.write_spans(WORKDIR / args.workload / "spans.tsv.gz")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:14.6f} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def item_times(records) -> dict:
    """Each item's median scaled time over the passes it ran in."""
    times: dict = {}
    for idx, _code, _line, t, _traced in records:
        times.setdefault(idx, []).append(t)
    return {idx: statistics.median(ts) for idx, ts in times.items()}


def end_to_end(times, setup_times, peak_rss_mb) -> dict:
    latencies = sorted(1000.0 * t for t in times.values())
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": len(times) / sum(times.values()), "unit": "1/s"},
        "latency_ms.p50": {"value": percentile(latencies, 50), "unit": "ms"},
        "latency_ms.p90": {"value": percentile(latencies, 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def kind_totals(items, times) -> dict:
    """Seconds one pass spends on each kind of item, at median times."""
    totals: dict = {}
    for idx, t in times.items():
        name = workloads.KIND_METRIC[items[idx].kind]
        totals[name] = totals.get(name, 0.0) + t
    return {name: (t, "s") for name, t in sorted(totals.items())}


def traced_metrics(tracer, items, records) -> tuple:
    traced = item_times([r for r in records if r[4]])
    untraced = item_times([r for r in records if not r[4]])
    both = traced.keys() & untraced.keys()
    # median times of the items run both ways; a program too slow to reach
    # the traced pass before the hard deadline reports 0
    overhead = (sum(traced[i] for i in both) / sum(untraced[i] for i in both)
                if both else 0.0)
    passes = max(sum(1 for r in records if r[4]), 1) / len(items)
    metrics, bases = tracer.metrics(passes, overhead)
    extra = {f"{name}.base": (b, "count per pass") for name, b in bases.items()}
    for name in tracer.absent:
        print(f"  {name}: absent")
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
