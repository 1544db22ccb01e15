"""Seeded item generators for the three benchmark workloads.

Every item is one `eqcut` command line plus the plain data its reference
check needs.  Inputs come from the package's own random families
(`verify.random_graph`, `random_split_neq3_instance`, ...) and are written
with the package's printers (`formats.print_graph`, `print_instance`,
`print_relations`), so every item also exercises the text formats.

The same workload and seed always give the same items.  Sizes are chosen so
that no item fails on the seed code, every item finishes far inside the
per-item limit, and one pass over a workload takes about ten seconds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import checks


@dataclass
class Item:
    ident: str
    kind: str
    argv: list
    data: dict


# End-to-end per-kind total reported for each item kind.
KIND_METRIC = {
    "triple-mc": "solve_s.triple-mc",
    "djmc": "solve_s.djmc",
    "neg-fpt": "solve_s.neg-fpt",
    "steiner2x": "solve_s.steiner2x",
    "strict-steiner": "solve_s.strict-steiner",
    "oracle": "solve_s.oracle",
    "reduce": "reduce_s",
    "classify": "classify_s",
}

# Items per pass and their sizes.  Sizes and budgets are dealt out in fixed
# proportions (`_strata`) and only the graphs and instances are random, so a
# pass total varies across seeds only by the instances' own spread, which
# shrinks with the number of items; single items are small because the
# search solvers have heavy-tailed run times.
SEARCH_TRIPLE_MC = dict(count=180, n=(6, 7, 8), k=(1, 2), triples=2, p=0.3)
SEARCH_DJMC = dict(count=300, n=(8, 9, 10), k=(1, 2), lists=3, pairs=2, p=0.3)
SEARCH_NEG_FPT = dict(count=300, n=(6, 7, 8), k=(1, 2, 3), relations=(6, 9))
# (vertices, terminal sets, items); k is the number of sets
SCALE_STEINER2X = [(128, 2, 16)]
SCALE_STRICT = [(128, 2, 36), (128, 3, 20), (256, 2, 16), (256, 3, 8),
                (512, 2, 5), (1024, 2, 3)]
EXACT_ARITY5_PICKS = 3
# (family, variables, items)
EXACT_ORACLE = [("split", 7, 5), ("split", 8, 5), ("split", 9, 5),
                ("constants", 6, 5), ("constants", 7, 5)]
EXACT_REDUCE_EACH = 10

CLASSIFY_VARIANTS = {
    "plain": [],
    "eq-neq": ["--with-eq-neq"],
    "c1": ["--constants", "1"],
    "c2": ["--constants", "2"],
    "cinf": ["--constants", "inf"],
}

# Fixed pool of arity-5 relations; the regression reference covers all of
# them, and each seed classifies a few.
ARITY5_POOL_SEED = "eqcut-bench:arity5-pool"
ARITY5_POOL_SIZE = 24


def patterns(arity: int) -> list:
    """All restricted-growth strings of the arity, in lexicographic order."""
    out = []

    def rec(prefix: list, hi: int):
        if len(prefix) == arity:
            out.append(tuple(prefix))
            return
        for x in range(1, hi + 2):
            rec(prefix + [x], max(hi, x))

    rec([], 0)
    return out


def orbit_masks(arity: int) -> list:
    """One representative mask per nonempty, non-complete relation of the
    arity, up to permutation of the argument positions."""
    pats = patterns(arity)
    index = {p: i for i, p in enumerate(pats)}
    perm_maps = [[index[checks.canon([p[j] for j in perm])] for p in pats]
                 for perm in itertools.permutations(range(arity))]
    seen: set = set()
    reps = []
    for mask in range(1, (1 << len(pats)) - 1):
        if mask in seen:
            continue
        orbit = set()
        for pm in perm_maps:
            image = 0
            for i, target in enumerate(pm):
                if mask >> i & 1:
                    image |= 1 << target
            orbit.add(image)
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


def arity5_pool() -> list:
    rng = random.Random(ARITY5_POOL_SEED)
    npat = len(patterns(5))
    pool: list = []
    while len(pool) < ARITY5_POOL_SIZE:
        size = rng.randint(1, 6)
        mask = sum(1 << i for i in rng.sample(range(npat), size))
        if mask not in pool:
            pool.append(mask)
    return pool


def mask_tuples(arity: int, mask: int) -> list:
    return [p for i, p in enumerate(patterns(arity)) if mask >> i & 1]


def _strata(count: int, *axes) -> list:
    """`count` combinations of the axes' values, each combination equally
    often (up to rounding), in a fixed order."""
    combos = list(itertools.product(*axes))
    return [combos[i % len(combos)] for i in range(count)]


def build(eq, workload: str, seed: int, files: Files) -> list:
    rng = random.Random(f"eqcut-bench:{workload}:{seed}")
    items = GENERATORS[workload](eq, rng, files)
    rng.shuffle(items)
    return items


def warm_argv(eq, workload: str, files: Files) -> list:
    """Command lines that fill the caches a CLI user pays for on every run:
    for `exact`, the clause-model tables up to arity 5."""
    if workload != "exact":
        return []
    path = _relation_file(eq, files, "warm", 5, arity5_pool()[0])
    return [["classify", "--in", path, "--report", "machine"]]


class Files:
    """Item input files, held as text until `write` puts them in the work
    directory, so that making the inputs and writing them are timed apart.
    `on_add` is called after each file is made, once per item."""

    def __init__(self, workdir: Path, on_add=lambda: None):
        self.workdir = workdir
        self.on_add = on_add
        self.texts: dict = {}

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def add(self, name: str, text: str) -> str:
        self.texts[name] = text
        self.on_add()
        return self.path(name)

    def write(self):
        for name, text in self.texts.items():
            (self.workdir / name).write_text(text)
        self.texts.clear()


def _graph_data(g) -> dict:
    return {"vertices": list(g.vertices),
            "edges": [sorted(e) for e in g.edges],
            "undeletable": sorted(g.undeletable)}


def _instance_data(inst) -> dict:
    cons = []
    rels = {}
    for c in inst.constraints:
        name = None if c.relation is None else c.relation.name
        if name is not None:
            rels[name] = sorted(c.relation.tuples)
        cons.append((name, list(c.scope), c.kind, c.multiplicity, c.value))
    return {"variables": list(inst.variables), "constraints": cons,
            "relations": rels}


def _solve_argv(solver: str, path: str, k: int, *extra) -> list:
    return ["solve", solver, "--in", path, "-k", str(k), *extra,
            "--report", "machine"]


# ---------------------------------------------------------------------------
# solve-search: small dense graphs, branching search at fixed k.


def _search_items(eq, rng, files) -> list:
    items = []
    cfg = SEARCH_TRIPLE_MC
    for i, (n, k) in enumerate(_strata(cfg["count"], cfg["n"], cfg["k"])):
        g = eq.verify.random_graph(rng, n, cfg["p"])
        triples = eq.cutgraph.TripleSet.of(
            *[tuple(rng.sample(g.vertices, 3)) for _ in range(cfg["triples"])])
        ident = f"triple-mc-{i:04d}"
        text = eq.formats.print_graph(
            eq.formats.GraphBundle(g, [], triples, ident))
        data = _graph_data(g)
        data.update(k=k, triples=[(sorted(t), m) for t, m in triples])
        items.append(Item(ident, "triple-mc",
                          _solve_argv("triple-mc", files.add(ident + ".g", text), k),
                          data))

    cfg = SEARCH_DJMC
    for i, (n, k) in enumerate(_strata(cfg["count"], cfg["n"], cfg["k"])):
        g = eq.verify.random_graph(rng, n, cfg["p"])
        lists = [eq.cutgraph.RequestList.of(
            *[tuple(rng.sample(g.vertices, 2)) for _ in range(cfg["pairs"])])
            for _ in range(cfg["lists"])]
        ident = f"djmc-{i:04d}"
        text = eq.formats.print_graph(eq.formats.GraphBundle(
            g, lists, eq.cutgraph.TripleSet(()), ident))
        data = _graph_data(g)
        data.update(k=k, lists=[[sorted(p) for p in lst.pairs] for lst in lists])
        items.append(Item(ident, "djmc",
                          _solve_argv("djmc", files.add(ident + ".g", text), k),
                          data))

    cfg = SEARCH_NEG_FPT
    rel = eq.relations
    pool = [rel.NEQ, rel.NEQ, rel.NEQ3, rel.R_VEE_NEQ_NEQ, rel.R_AND_NEQ_NEQ]
    for i, (n, k) in enumerate(_strata(cfg["count"], cfg["n"], cfg["k"])):
        inst = _negative_instance(eq, rng, n, rng.randint(*cfg["relations"]), pool)
        ident = f"neg-fpt-{i:04d}"
        path = files.add(ident + ".inst", eq.formats.print_instance(inst))
        data = _instance_data(inst)
        data["k"] = k
        items.append(Item(ident, "neg-fpt", _solve_argv("neg-fpt", path, k), data))
    return items


def _negative_instance(eq, rng, nvars: int, nrel: int, pool):
    """Strictly negative relation constraints plus soft and crisp
    assignments, some of them contradictory."""
    inst_mod = eq.instances
    vs = [f"x{i}" for i in range(nvars)]
    cons = []
    for _ in range(nrel):
        r = rng.choice(pool)
        kind = "crisp" if rng.random() < 0.3 else "soft"
        cons.append(inst_mod.Constraint(r, tuple(rng.sample(vs, r.arity)), kind,
                                        1 if kind == "crisp" else rng.choice((1, 1, 2))))
    for v in vs:
        for _ in range(rng.choice((0, 1, 1, 2))):
            if rng.random() < 0.15:
                cons.append(inst_mod.crisp_assign(v, rng.randint(1, 3)))
            else:
                cons.append(inst_mod.soft_assign(v, rng.randint(1, 3),
                                                 rng.choice((1, 1, 2))))
    return inst_mod.MinCspInstance.build("negative", cons, vs)


# ---------------------------------------------------------------------------
# solve-scale: large sparse graphs, shallow search, expensive cut primitives.


def _expand(strata) -> list:
    return [tuple(head) for *head, count in strata for _ in range(count)]


def _sparse_graph(eq, rng, n: int) -> tuple:
    """A random graph with mean degree about 3, and its largest component.

    Terminals come from the largest component: one in a small component or
    cut off by a single neighbour makes a trivial item."""
    g = eq.verify.random_graph(rng, n, 3.0 / (n - 1))
    return g, sorted(max(eq.cutgraph.components(g), key=len))


def _scale_items(eq, rng, files) -> list:
    items = []
    empty = eq.cutgraph.TripleSet(())
    for i, (n, nsets) in enumerate(_expand(SCALE_STEINER2X)):
        g, giant = _sparse_graph(eq, rng, n)
        t_sets = [sorted(rng.sample(giant, 3)) for _ in range(nsets)]
        # deleting one member per set is feasible, so OPT <= k and the
        # 2-approximation must accept
        k = nsets
        ident = f"steiner2x-{i:04d}"
        lists = [eq.cutgraph.RequestList.of((a, b), (b, c)) for a, b, c in t_sets]
        text = eq.formats.print_graph(eq.formats.GraphBundle(g, lists, empty, ident))
        data = _graph_data(g)
        data.update(k=k, t_sets=t_sets)
        items.append(Item(ident, "steiner2x",
                          _solve_argv("steiner2x", files.add(ident + ".g", text), k),
                          data))

    for i, (n, nsets) in enumerate(_expand(SCALE_STRICT)):
        g, giant = _sparse_graph(eq, rng, n)
        degree = {v: 0 for v in g.vertices}
        for e in g.edges:
            for v in e:
                degree[v] += 1
        hub = max(g.vertices, key=lambda v: (degree[v], v))
        others = [v for v in giant if v != hub]
        # the hub is in every terminal set, so deleting it alone would
        # satisfy them all, as strict Steiner Multicut requires
        t_sets = [sorted([hub, *rng.sample(others, 2)]) for _ in range(nsets)]
        k = nsets
        ident = f"strict-steiner-{i:04d}"
        lists = [eq.cutgraph.RequestList.of((a, b), (b, c)) for a, b, c in t_sets]
        text = eq.formats.print_graph(eq.formats.GraphBundle(g, lists, empty, ident))
        data = _graph_data(g)
        data.update(k=k, t_sets=t_sets, hub=hub)
        items.append(Item(ident, "strict-steiner",
                          _solve_argv("strict-steiner", files.add(ident + ".g", text),
                                      k, "--hub", hub),
                          data))
    return items


# ---------------------------------------------------------------------------
# exact: classification, the partition oracle and verified reductions.


def _relation_file(eq, files: Files, ident: str, arity: int, mask: int) -> str:
    # one relation name for all, so verdict witnesses repeat across relations
    rel = eq.relations.EqRelation.from_tuples("r", arity, mask_tuples(arity, mask))
    text = eq.formats.print_relations(eq.relations.EqLanguage.of(rel))
    return files.add(ident + ".rel", text)


def classify_item(eq, files, ident, arity, mask, variant) -> Item:
    path = _relation_file(eq, files, ident, arity, mask)
    argv = ["classify", "--in", path, *CLASSIFY_VARIANTS[variant],
            "--report", "machine"]
    return Item(ident, "classify", argv,
                {"arity": arity, "mask": mask, "variant": variant})


def _exact_items(eq, rng, files) -> list:
    items = []
    variants = list(CLASSIFY_VARIANTS)
    # arity 2 and 3: every relation up to permutation, in every variant
    for arity in (2, 3):
        for mask in orbit_masks(arity):
            for variant in variants:
                items.append(classify_item(eq, files, f"classify-{arity}-{mask}-{variant}",
                                            arity, mask, variant))
    # arity 4: a seeded half of the relations up to permutation, in one
    # variant each; the variants are dealt out evenly.  Across seeds every
    # relation is classified in every variant.
    all_masks = orbit_masks(4)
    masks = sorted(rng.sample(all_masks, len(all_masks) // 2))
    dealt = _strata(len(masks), variants)
    rng.shuffle(dealt)
    for mask, (variant,) in zip(masks, dealt):
        items.append(classify_item(eq, files, f"classify-4-{mask}-{variant}",
                                    4, mask, variant))
    # the constant variants of arity 5 vary most in cost, so they stay out
    for mask in rng.sample(arity5_pool(), EXACT_ARITY5_PICKS):
        variant = rng.choice(("plain", "eq-neq"))
        items.append(classify_item(eq, files, f"classify-5-{mask}-{variant}",
                                    5, mask, variant))
    # the twelve benchmark-table rows, one relation each, as in the paper
    table = eq.formats.parse_relations(
        (Path(eq.cli.__file__).parent / "data" / "table1.rel").read_text())
    for r in table:
        ident = f"table1-{r.name}"
        path = files.add(ident + ".rel",
                      eq.formats.print_relations(eq.relations.EqLanguage.of(r)))
        items.append(Item(ident, "classify",
                          ["classify", "--in", path, "--with-eq-neq", "--report", "machine"],
                          {"table1": r.name}))

    # constant assignments multiply the labellings the oracle tries, so
    # those instances are smaller
    for i, (family, n) in enumerate(_expand(EXACT_ORACLE)):
        if family == "split":
            inst = eq.verify.random_split_neq3_instance(rng, n, n + 2)
        else:
            inst = eq.verify.random_constants_instance(rng, n, n + 4)
        k = rng.randint(1, 4)
        ident = f"oracle-{i:04d}"
        path = files.add(ident + ".inst", eq.formats.print_instance(inst))
        data = _instance_data(inst)
        data["k"] = k
        items.append(Item(ident, "oracle", _solve_argv("oracle", path, k), data))

    for i, (name,) in enumerate(_strata(EXACT_REDUCE_EACH * len(REDUCTIONS), REDUCTIONS)):
        ident = f"reduce-{name}-{i:04d}"
        text, ext, data = _reduction_input(eq, rng, name, i // len(REDUCTIONS))
        path = files.add(ident + ext, text)
        argv = ["reduce", name, "--in", path, "--out", files.path(ident + ".out"),
                "-k", "2", "--verify", "--report", "machine"]
        items.append(Item(ident, "reduce", argv, data))
    return items


REDUCTIONS = ("multicut-to-mincsp", "steiner-to-nae3", "mincsp-to-triple-mc",
              "rneq-to-djmc", "emulate-constants", "hs-to-odd3",
              "hs-to-odd3-constants")

# Hitting-set inputs as set systems over elements 1..3, dealt out in this
# order with the elements named at random.  The chain gadgets add variables
# per set element, so sets have at most two elements.  The verified
# constants variant costs from 5 ms to 0.3 s by the system's shape (two
# disjoint sets cost most), so shapes drawn at random made the pass total
# swing across seeds.
HS_SHAPES = [[[1]], [[1, 2]], [[1], [1]], [[1], [2]], [[1], [1, 2]],
             [[1, 2], [1, 2]], [[1], [2, 3]], [[1, 2], [2, 3]], [[1, 2]],
             [[1], [1, 2]]]


def _reduction_input(eq, rng, name: str, nth: int):
    """Desk-scale inputs: the CLI verifies every reduction against the
    exponential oracles, so sizes follow the package's lemma checks.  `nth`
    counts the items of this reduction."""
    fm, cg, v = eq.formats, eq.cutgraph, eq.verify
    empty = cg.TripleSet(())
    data = {"reduction": name}
    if name == "multicut-to-mincsp":
        g = v.random_graph(rng, rng.randint(4, 6), 0.45)
        requests = [tuple(rng.sample(g.vertices, 2)) for _ in range(rng.randint(1, 3))]
        lists = [cg.RequestList.of(r) for r in requests]
        data.update(_graph_data(g), requests=[sorted(r) for r in requests])
        return fm.print_graph(fm.GraphBundle(g, lists, empty, "mc")), ".g", data
    if name == "steiner-to-nae3":
        g = v.random_graph(rng, rng.randint(4, 6), 0.5)
        t_sets = [sorted(rng.sample(g.vertices, 3)) for _ in range(rng.randint(1, 2))]
        lists = [cg.RequestList.of((a, b), (b, c)) for a, b, c in t_sets]
        return fm.print_graph(fm.GraphBundle(g, lists, empty, "st")), ".g", data
    if name == "mincsp-to-triple-mc":
        inst = v.random_split_neq3_instance(rng, rng.randint(3, 5), rng.randint(1, 3))
        return fm.print_instance(inst), ".inst", data
    if name == "rneq-to-djmc":
        inst = v.random_rneq_instance(rng, rng.randint(3, 5), rng.randint(1, 4))
        return fm.print_instance(inst), ".inst", data
    if name == "emulate-constants":
        inst = v.random_constants_instance(rng, rng.randint(3, 5), rng.randint(2, 5))
        return fm.print_instance(inst), ".inst", data
    # hitting set -> ODD3, with and without constants
    shape = HS_SHAPES[nth % len(HS_SHAPES)]
    name_of = dict(zip((1, 2, 3), rng.sample(["e1", "e2", "e3"], 3)))
    sets = [[name_of[x] for x in members] for members in shape]
    return "".join("set " + " ".join(s) + "\n" for s in sets), ".sets", data


GENERATORS = {
    "solve-search": _search_items,
    "solve-scale": _scale_items,
    "exact": _exact_items,
}
