"""Reference checks on each item's exit code and machine report.

They run after the timed phase.  Costs of `solve oracle` and `neg-fpt`
come from the partition enumerator below, never from
`instances.brute_force_cost`, which is under test.  Search decisions are
checked by certificate and by bounded exhaustive search; on large graphs,
where no oracle can run, the solver's contract is checked with polynomial
predicates.  Classification verdicts are compared with the paper's frozen
table column and with a verdict set recorded from the seed code.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

INF = math.inf

REFERENCE_FILE = Path(__file__).with_name("classify_reference.json")

# The complexity column of the paper's benchmark table (parameterized,
# approximation), for each relation classified together with = and !=.
TABLE1_COLUMN = {
    "eq3": ("FPT", None),
    "neq13_neq23": ("FPT", None),
    "neq3": ("FPT", None),
    "split21": ("FPT", None),
    "odd3": ("HittingSet-hard", "HittingSet-hard"),
    "odd3_weak": ("HittingSet-hard", "HittingSet-hard"),
    "impl23": ("HittingSet-hard", "HittingSet-hard"),
    "nae3": ("W[1]-hard", "fpt-const"),
    "vee_neq_neq": ("W[1]-hard", "fpt-const"),
    "and_eq_eq": ("W[1]-hard", "fpt-const"),
    "and_neq_neq": ("W[1]-hard", "fpt-const"),
    "and_eq_neq": ("W[1]-hard", "fpt-const"),
}


def load_verdicts(path: Path = REFERENCE_FILE) -> dict:
    """Regression reference: (arity, mask, variant) -> verdict dict."""
    raw = json.loads(path.read_text())
    table = raw["verdicts"]
    out = {}
    for key, indices in raw["relations"].items():
        arity, mask = (int(x) for x in key.split(":"))
        for variant, idx in zip(raw["variants"], indices):
            out[(arity, mask, variant)] = table[idx]
    return out


# ---------------------------------------------------------------------------
# Independent MinCSP optimum by partition enumeration.


def canon(values) -> tuple:
    """Relabel values by first occurrence: the tuple's equality pattern."""
    seen: dict = {}
    return tuple(seen.setdefault(v, len(seen) + 1) for v in values)


def min_cost(data: dict, bound: float = INF) -> float:
    """Minimum total weight of violated constraints over every assignment,
    inf when a crisp constraint must break; min(optimum, bound) when a bound
    is given.

    Variables are placed into blocks as a restricted-growth string, checking
    each relation constraint once its scope is placed and pruning branches
    whose cost reaches the best found.  Each finished partition then takes
    its best injective labelling of blocks with constants.  Only a block with
    a member assigned to a constant can gain from carrying it; any other
    block value behaves like a fresh one.
    """
    variables = data["variables"]
    pos = {v: i for i, v in enumerate(variables)}
    relations = {name: {tuple(t) for t in ts} for name, ts in data["relations"].items()}
    checks_at: list = [[] for _ in variables]
    assigns = []
    for name, scope, kind, mult, value in data["constraints"]:
        idx = [pos[v] for v in scope]
        if name is None:
            assigns.append((idx[0], value, kind == "crisp", mult))
        else:
            checks_at[max(idx)].append((idx, relations[name], INF if kind == "crisp" else mult))
    n = len(variables)
    block = [0] * n
    best = [bound]

    def rec(i: int, nblocks: int, cost: float):
        if cost >= best[0]:
            return
        if i == n:
            best[0] = min(best[0], cost + _label_cost(block, assigns))
            return
        for b in range(nblocks + 1):
            block[i] = b
            c = cost
            for idx, tuples, weight in checks_at[i]:
                if canon(block[j] for j in idx) not in tuples:
                    c += weight
            rec(i + 1, max(nblocks, b + 1), c)

    rec(0, 0, 0.0)
    return best[0]


def _label_cost(block: list, assigns: list) -> float:
    """Weight of the assignment constraints missed by the best injective
    labelling of the partition's blocks with constants."""
    forced: dict = {}       # constant -> block that must carry it
    gain: dict = {}         # (block, constant) -> soft weight met by the label
    total = 0
    for var, value, is_crisp, weight in assigns:
        b = block[var]
        if is_crisp:
            if forced.get(value, b) != b:
                return INF
            forced[value] = b
        else:
            gain[(b, value)] = gain.get((b, value), 0) + weight
            total += weight
    if len(set(forced.values())) != len(forced):
        return INF
    free = sorted({c for _b, c in gain} - set(forced))
    options = [[None] + sorted({b for b, c2 in gain if c2 == c}) for c in free]
    taken = set(forced.values())
    base = sum(gain.get((b, c), 0) for c, b in forced.items())
    best_gain = 0
    for choice in itertools.product(*options):
        used = [b for b in choice if b is not None]
        if len(used) != len(set(used)) or taken.intersection(used):
            continue
        best_gain = max(best_gain, sum(gain[(b, c)] for c, b in zip(free, choice)
                                       if b is not None))
    return total - base - best_gain


# ---------------------------------------------------------------------------
# Graph predicates, independent of the package.


class Graph:
    def __init__(self, data: dict):
        self.vertices = list(data["vertices"])
        self.deletable = set(self.vertices) - set(data.get("undeletable", ()))
        self.adj = {v: set() for v in self.vertices}
        for u, v in data["edges"]:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def component_ids(self, removed) -> dict:
        comp: dict = {}
        for start in self.vertices:
            if start in removed or start in comp:
                continue
            comp[start] = start
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self.adj[x]:
                    if y not in removed and y not in comp:
                        comp[y] = start
                        stack.append(y)
        return comp

    def separated(self, removed, s, t) -> bool:
        if s in removed or t in removed:
            return True
        comp = self.component_ids(removed)
        return comp[s] != comp[t]


def _triples_ok(g: Graph, triples, z_v, z_t) -> bool:
    comp = g.component_ids(set(z_v))
    for tri, _m in triples:
        if frozenset(tri) in z_t:
            continue
        alive = [comp[v] for v in tri if v in comp]
        if len(alive) != len(set(alive)):
            return False
    return True


def _triple_mc_exists(g: Graph, triples, k: int) -> bool:
    dels = sorted(g.deletable)
    for nt in range(len(triples) + 1):
        for chosen in itertools.combinations(triples, nt):
            spent = sum(m for _t, m in chosen)
            if spent > k:
                continue
            z_t = {frozenset(t) for t, _m in chosen}
            for nv in range(k - spent + 1):
                for z_v in itertools.combinations(dels, nv):
                    if _triples_ok(g, triples, z_v, z_t):
                        return True
    return False


def _lists_ok(g: Graph, lists, cut) -> bool:
    cut = set(cut)
    return all(any(p[0] in cut if len(p) == 1 else g.separated(cut, p[0], p[1])
                   for p in lst)
               for lst in lists)


def _djmc_exists(g: Graph, lists, k: int) -> bool:
    dels = sorted(g.deletable)
    return any(_lists_ok(g, lists, cut)
               for size in range(k + 1)
               for cut in itertools.combinations(dels, size))


# ---------------------------------------------------------------------------
# Per-kind checks.  Each returns None when the item is right, else a reason.


class _Wrong(Exception):
    pass


def _decision(code, report) -> bool:
    if code not in (0, 1) or report.get("accepted") is not (code == 0):
        raise _Wrong(f"exit code {code} with accepted={report.get('accepted')}")
    return code == 0


def _check_triple_mc(eq, d, code, report, _v):
    g = Graph(d)
    triples = [(tuple(t), m) for t, m in d["triples"]]
    if _decision(code, report):
        z_v = report["deleted_vertices"]
        z_t = {frozenset(t) for t in report["deleted_triples"]}
        mult = {frozenset(t): m for t, m in triples}
        cost = len(z_v) + sum(mult[t] for t in z_t)
        if cost > d["k"] or not set(z_v) <= g.deletable:
            return f"solution costs {cost} > k={d['k']}"
        if not _triples_ok(g, triples, z_v, z_t):
            return "returned deletions leave a triple unsplit"
    elif _triple_mc_exists(g, triples, d["k"]):
        return f"rejected, but a solution of cost <= {d['k']} exists"
    return None


def _check_djmc(eq, d, code, report, _v):
    g = Graph(d)
    lists = [[tuple(p) for p in lst] for lst in d["lists"]]
    if _decision(code, report):
        sol = report["solution"]
        if not set(sol) <= g.deletable or not _lists_ok(g, lists, sol):
            return "returned cut does not satisfy every list"
    elif _djmc_exists(g, lists, d["k"]):
        return f"rejected, but a cut of size <= {d['k']} exists"
    return None


def _check_neg_fpt(eq, d, code, report, _v):
    want = min_cost(d, d["k"] + 1) <= d["k"]
    if _decision(code, report) != want:
        return f"decision {code == 0}, optimum <= k is {want}"
    return None


def _check_steiner(eq, d, code, report, limit_factor: int, hub=None):
    # OPT <= k by construction, so the solver must accept
    if code != 0 or report.get("accepted") is not True:
        return f"exit code {code}, expected accept"
    sol = set(report["solution"])
    g = Graph(d)
    if len(sol) > limit_factor * d["k"] or not sol <= set(d["vertices"]) or hub in sol:
        return f"cut of size {len(sol)} breaks the contract"
    for ts in d["t_sets"]:
        if not any(g.separated(sol, a, b) for a, b in itertools.combinations(ts, 2)):
            return f"terminal set {ts} not separated"
    return None


def _check_steiner2x(eq, d, code, report, _v):
    return _check_steiner(eq, d, code, report, 2)


def _check_strict(eq, d, code, report, _v):
    return _check_steiner(eq, d, code, report, 1, d["hub"])


def _check_oracle(eq, d, code, report, _v):
    got = report.get("cost")
    got = INF if got == "inf" else got
    # bounded just above the reported cost, the search still tells whether
    # the optimum is lower, equal or higher
    want = min_cost(d, got + 1)
    if got != want:
        return f"cost {got}, enumerator says {want}"
    if code != (0 if want <= d["k"] else 1):
        return f"exit code {code} for cost {want} and k={d['k']}"
    return None


def _check_reduce(eq, d, code, report, _v):
    if code != 0 or report.get("oracle_equal") is not True:
        return f"exit code {code}, oracle_equal={report.get('oracle_equal')}"
    if d["reduction"] == "multicut-to-mincsp":
        g = eq.cutgraph.CutGraph.build(d["vertices"], [tuple(e) for e in d["edges"]])
        opt = eq.oracles.edge_multicut_opt(g, [tuple(r) for r in d["requests"]])
        want = "inf" if opt is None else opt
        if report.get("cost") != want:
            return f"cost {report.get('cost')}, edge multicut oracle says {want}"
    return None


def _check_classify(eq, d, code, report, verdicts):
    if code != 0:
        return f"exit code {code}"
    verdict = report.get("verdict")
    if "table1" in d:
        want_param, want_approx = TABLE1_COLUMN[d["table1"]]
        if verdict["parameterized"] != want_param or (
                want_approx and verdict["approx"] != want_approx):
            return f"{d['table1']}: {verdict}, paper column says {want_param}/{want_approx}"
        return None
    want = verdicts.get((d["arity"], d["mask"], d["variant"]))
    if verdict != want:
        return f"verdict {verdict}, regression reference {want}"
    return None


CHECKS = {
    "triple-mc": _check_triple_mc,
    "djmc": _check_djmc,
    "neg-fpt": _check_neg_fpt,
    "steiner2x": _check_steiner2x,
    "strict-steiner": _check_strict,
    "oracle": _check_oracle,
    "reduce": _check_reduce,
    "classify": _check_classify,
}


def verify(eq, item, code, report_line: str, verdicts: dict):
    """None when the item's outcome is right, else the reason it is wrong."""
    try:
        report = json.loads(report_line)
    except ValueError:
        return f"exit code {code}, no machine report"
    try:
        return CHECKS[item.kind](eq, item.data, code, report, verdicts)
    except _Wrong as e:
        return str(e)
    except (KeyError, TypeError) as e:
        return f"malformed report: {e!r}"
