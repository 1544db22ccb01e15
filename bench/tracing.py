"""Per-layer spans recorded from outside the package.

`Tracer.install` wraps each named public function in its defining module,
and also every name other `eqcut` modules bound to the same function with
`from .x import y`; without that, a call such as `djmc`'s `reachable(...)`
would bypass a wrapper placed on `cutgraph` alone.  A generator function is
timed per `next()`.  Spans are kept in memory, written out at the end, and
a span's self time is its duration minus the time its child spans cover.
A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path

# (module, function) pairs traced, with the per-layer metrics of each.
LAYERS = [
    ("cutgraph", "CutGraph.adjacency", ("calls", "self_s")),
    ("cutgraph", "CutGraph.without", ("calls", "self_s")),
    ("cutgraph", "CutGraph.identify", ("calls", "self_s")),
    ("cutgraph", "reachable", ("calls", "self_s")),
    ("cutgraph", "components", ("calls", "self_s")),
    ("cutgraph", "min_vertex_separator", ("calls", "self_s")),
    ("cutgraph", "important_separators", ("calls", "self_s")),
    ("cutgraph", "multiway_cut", ("calls", "self_s")),
    ("triple_multicut", "triple_multicut", ("calls", "self_s")),
    ("triple_multicut", "build_boolean_instance", ("calls", "self_s")),
    ("triple_multicut", "boolean_solve", ("calls", "self_s")),
    ("triple_multicut", "two_sat_conflict", ("calls", "self_s")),
    ("djmc", "solve_djmc", ("calls", "self_s")),
    ("djmc", "list_satisfied", ("calls", "self_s")),
    ("djmc", "compute_rv", ("calls", "self_s")),
    ("djmc", "simplify", ("calls", "branches", "self_s")),
    ("djmc", "shadow_cover", ("calls", "covers", "self_s")),
    ("solvers", "hitting_set_branch", ("calls", "self_s")),
    ("solvers", "strict_steiner", ("calls", "self_s")),
    ("solvers", "steiner_2approx", ("calls", "self_s")),
    ("solvers", "negative_fpt_solve", ("calls", "self_s")),
    ("oracles", "steiner_multicut_vertex_opt", ("calls",)),
    ("oracles", "triple_multicut_feasible", ("calls", "self_s")),
    ("oracles", "djmc_cost", ("calls", "self_s")),
    ("oracles", "triple_multicut_opt", ("calls", "self_s")),
    ("oracles", "edge_multicut_opt", ("calls", "self_s")),
    ("oracles", "steiner_multicut_edge_opt", ("calls", "self_s")),
    ("oracles", "hitting_set_opt", ("calls", "self_s")),
    ("instances", "oracle_optimum", ("calls", "self_s")),
    ("instances", "assignment_cost", ("calls", "self_s")),
    ("gadgets", "edge_multicut_to_mincsp", ("calls", "self_s")),
    ("gadgets", "steiner_to_nae3", ("calls", "self_s")),
    ("gadgets", "mincsp_to_triple_multicut", ("calls", "self_s")),
    ("gadgets", "rneq_to_disjunctive_multicut", ("calls", "self_s")),
    ("gadgets", "emulate_constants", ("calls", "self_s")),
    ("gadgets", "hitting_set_to_odd3", ("calls", "self_s")),
    ("gadgets", "hitting_set_to_odd3_constants", ("calls", "self_s")),
    ("relations", "entailed_clauses", ("calls", "self_s")),
    ("relations", "definable_in_fragment", ("calls", "self_s")),
    ("relations", "essential_projection", ("calls", "self_s")),
    ("relations", "split_witness", ("calls", "self_s")),
    ("classify", "classify_language", ("calls", "self_s")),
    ("singleton", "classify_expansion", ("calls", "self_s")),
    ("singleton", "slice_properties", ("calls", "self_s")),
    ("formats", "parse_graph", ("self_s",)),
    ("formats", "parse_instance", ("self_s",)),
    ("formats", "parse_relations", ("self_s",)),
    ("cli", "main", ("self_s",)),
]

# Ratios of useful outcomes to attempts: (metric, numerator, denominator).
# "hits" counts calls that returned something other than None, "yields"
# the values a generator produced.
RATIOS = [
    ("triple_multicut.boolean_solve.hit_ratio",
     ("triple_multicut.boolean_solve", "hits"), ("triple_multicut.boolean_solve", "calls")),
    ("djmc.shadow_cover.useful_ratio",
     ("djmc.simplify", "yields"), ("djmc.shadow_cover", "yields")),
    ("instances.assignment_cost.calls_per_oracle",
     ("instances.assignment_cost", "calls"), ("instances.oracle_optimum", "calls")),
]

UNITS = {"calls": "count", "branches": "count", "covers": "count", "self_s": "s"}
FIELD_SOURCE = {"branches": "yields", "covers": "yields"}


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{mod}.{name}.{f}", UNITS[f]) for mod, name, fields in LAYERS for f in fields]
    out += [(name, "ratio") for name, _num, _den in RATIOS]
    out.append(("trace.overhead", "ratio"))
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self.calls: list = []
        self.hits: list = []
        self.yields: list = []
        self.absent: list = []
        self.item = -1
        # one entry per span: layer, parent span, item, start, end
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._patches: list = []

    # -- recording --------------------------------------------------------

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        # a span abandoned by an interrupted item leaves entries above it
        while self._stack and self._stack.pop() != idx:
            pass

    def reset_stack(self):
        self._stack.clear()

    def _wrap(self, nid: int, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                tracer.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._enter(nid)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(idx)
                    tracer.yields[nid] += 1
                    yield value
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[nid] += 1
            idx = tracer._enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if out is not None:
                tracer.hits[nid] += 1
            return out
        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "eqcut" or name.startswith("eqcut."))]
        first = not self.names
        for mod_name, qual, _fields in LAYERS:
            key = f"{mod_name}.{qual}"
            if first:
                self.names.append(key)
                self.calls.append(0)
                self.hits.append(0)
                self.yields.append(0)
            nid = self.names.index(key)
            module = sys.modules.get(f"eqcut.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                if key not in self.absent:
                    self.absent.append(key)
                continue
            wrapper = self._wrap(nid, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list:
        """Per layer: total span time minus the time child spans cover."""
        duration = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(duration)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= duration[i]
        totals = [0.0] * len(self.names)
        for nid, t in zip(self.span_name, own):
            totals[nid] += t
        return totals

    def metrics(self, passes: float, overhead: float) -> tuple:
        """Per-layer metrics per traced pass, and the base (denominator per
        pass) of each ratio."""
        self_s = self.self_times()
        counters = {"calls": self.calls, "hits": self.hits, "yields": self.yields}
        nid = {name: i for i, name in enumerate(self.names)}
        out = {}
        bases = {}
        for mod_name, qual, fields in LAYERS:
            key = f"{mod_name}.{qual}"
            if key in self.absent:
                continue
            i = nid[key]
            for f in fields:
                unit = UNITS[f]
                if f == "self_s":
                    value = self_s[i] / passes
                else:
                    value = counters[FIELD_SOURCE.get(f, f)][i] / passes
                out[f"{key}.{f}"] = {"value": value, "unit": unit}
        for name, (num_key, num_f), (den_key, den_f) in RATIOS:
            if num_key in self.absent or den_key in self.absent:
                continue
            den = counters[den_f][nid[den_key]]
            num = counters[num_f][nid[num_key]]
            out[name] = {"value": num / den if den else 0.0, "unit": "ratio"}
            bases[name] = den / passes
        out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        return out, bases

    def write_spans(self, path: Path):
        """Gzipped, one line per span: layer, item, parent span, start and
        end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlayer\titem\tparent\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_item[i]}\t"
                         f"{self.span_parent[i]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")
