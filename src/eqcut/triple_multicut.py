"""Triple Multicut via the bijunctive Boolean reduction.

The solver compresses from the always-feasible solution that deletes every
triple: it guesses which triples an optimum deletes, partitions the surviving
triples' vertices into intended components, and encodes the residual vertex
deletion question as a Boolean constraint-deletion problem whose relations
all have 2K2-free Gaifman graphs.  The cited Boolean MinCSP black box is
replaced by a budgeted deletion search over a 2-SAT implication graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cutgraph import CutGraph, TripleSet, components, reachable
from .instances import subsets
from .oracles import triple_multicut_feasible
from .relations import union_classes


# Boolean literals are (var, bool); clauses are 1- or 2-tuples of literals.


@dataclass
class SoftGroup:
    """A deletable Boolean constraint: a conjunction of clauses with a weight."""

    ident: tuple
    clauses: tuple
    weight: int = 1


@dataclass
class BooleanInstance:
    variables: tuple
    crisp_clauses: tuple
    soft_groups: tuple
    budget: int

    def gaifman_ok(self) -> bool:
        """Every deletable constraint's Gaifman graph must be 2K2-free."""
        for group in self.soft_groups:
            edges = set()
            for cl in group.clauses:
                if len(cl) == 2 and cl[0][0] != cl[1][0]:
                    edges.add(frozenset({cl[0][0], cl[1][0]}))
            for e1, e2 in itertools.combinations(edges, 2):
                if e1 & e2:
                    continue
                if not any(frozenset({a, b}) in edges for a in e1 for b in e2):
                    return False
        return True


class CrispUnsatisfiable(ValueError):
    pass


def _neg(lit):
    return (lit[0], not lit[1])


class _Implications:
    """Implication graph of a 2-CNF; arcs remember their source constraint."""

    def __init__(self):
        self.adj: dict = {}
        self.nodes: dict = {}  # insertion-ordered, so runs are repeatable

    def add_clause(self, cl, tag):
        if len(cl) == 1:
            a = cl[0]
            self._arc(_neg(a), a, tag)
        else:
            a, b = cl
            self._arc(_neg(a), b, tag)
            self._arc(_neg(b), a, tag)

    def _arc(self, x, y, tag):
        self.adj.setdefault(x, []).append((y, tag))
        self.nodes.setdefault(x)
        self.nodes.setdefault(y)

    def unsat_variable(self):
        """A variable v with v and not-v in one strongly connected component."""
        index: dict = {}
        low: dict = {}
        on: set = set()
        stack: list = []
        scc_of: dict = {}
        counter = [0]
        scc_no = [0]
        for root in self.nodes:
            if root in index:
                continue
            work = [(root, iter(self.adj.get(root, ())))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on.add(root)
            while work:
                x, it = work[-1]
                advanced = False
                for (y, _tag) in it:
                    if y not in index:
                        index[y] = low[y] = counter[0]
                        counter[0] += 1
                        stack.append(y)
                        on.add(y)
                        work.append((y, iter(self.adj.get(y, ()))))
                        advanced = True
                        break
                    if y in on:
                        low[x] = min(low[x], index[y])
                if advanced:
                    continue
                work.pop()
                if work:
                    px = work[-1][0]
                    low[px] = min(low[px], low[x])
                if low[x] == index[x]:
                    while True:
                        y = stack.pop()
                        on.discard(y)
                        scc_of[y] = scc_no[0]
                        if y == x:
                            break
                    scc_no[0] += 1
        for node in self.nodes:
            v, pol = node
            if pol and (v, False) in scc_of and scc_of[node] == scc_of[(v, False)]:
                return v
        return None

    def path_tags(self, src, dst) -> Optional[list]:
        if src == dst:
            return []
        parent: dict = {src: None}
        queue = [src]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for (y, tag) in self.adj.get(x, ()):
                if y not in parent:
                    parent[y] = (x, tag)
                    if y == dst:
                        tags = []
                        cur = y
                        while parent[cur] is not None:
                            cur, t = parent[cur]
                            tags.append(t)
                        return tags
                    queue.append(y)
        return None


def two_sat_conflict(clauses: Iterable, origins: Iterable) -> Optional[list]:
    """None when the 2-CNF is satisfiable, otherwise origin tags along one
    contradiction chain (x -> .. -> not x -> .. -> x)."""
    imp = _Implications()
    for cl, tag in zip(clauses, origins):
        imp.add_clause(cl, tag)
    v = imp.unsat_variable()
    if v is None:
        return None
    p1 = imp.path_tags((v, True), (v, False))
    p2 = imp.path_tags((v, False), (v, True))
    assert p1 is not None and p2 is not None
    return p1 + p2


def boolean_solve(inst: BooleanInstance, budget: Optional[int] = None
                  ) -> Optional[frozenset]:
    """Minimum-weight set of soft groups whose removal makes the 2-CNF
    satisfiable, within the budget, or None.

    Branching: any valid deletion set must meet the soft groups found on a
    contradiction chain, so branch over exactly those.
    """
    budget = inst.budget if budget is None else budget
    if two_sat_conflict(inst.crisp_clauses,
                        [None] * len(inst.crisp_clauses)) is not None:
        raise CrispUnsatisfiable("crisp 2-CNF has no satisfying assignment")
    groups = {g.ident: g for g in inst.soft_groups}

    best: Optional[tuple[int, frozenset]] = None

    def rec(removed: frozenset, spent: int):
        nonlocal best
        if best is not None and spent >= best[0]:
            return
        clauses = list(inst.crisp_clauses)
        origins: list = [None] * len(clauses)
        for ident, g in groups.items():
            if ident in removed:
                continue
            for cl in g.clauses:
                clauses.append(cl)
                origins.append(ident)
        chain = two_sat_conflict(clauses, origins)
        if chain is None:
            if best is None or spent < best[0]:
                best = (spent, removed)
            return
        tags = [t for t in dict.fromkeys(chain) if t is not None]
        if not tags:
            return  # contradiction among crisp clauses alone
        for ident in tags:
            w = groups[ident].weight
            if spent + w <= budget:
                rec(removed | {ident}, spent + w)

    rec(frozenset(), 0)
    return best[1] if best is not None else None


# ---------------------------------------------------------------------------
# The five-family construction.


def build_boolean_instance(g: CutGraph, triples: TripleSet,
                           alpha: dict, k: int,
                           protected: Iterable[frozenset] = ()
                           ) -> BooleanInstance:
    """Boolean encoding of one component-partition guess.

    Variables (v, i) and hatted (v, i) per vertex and class index; the five
    constraint families: a deletable coherence constraint per vertex, crisp
    pins on the guessed vertices, crisp edge implications, and one deletable
    triangle constraint per triple and class.  Triples in `protected` must
    receive pairwise distinct classes under alpha.
    """
    d = max(alpha.values(), default=0)
    for tri in protected:
        hit = [alpha[v] for v in tri if v in alpha]
        if len(hit) != len(set(hit)):
            raise ValueError("partition merges two vertices of a surviving triple")

    def var(v, i, hat):
        return (v, i, hat)

    crisp: list = []
    softs: list[SoftGroup] = []
    variables = [var(v, i, h)
                 for v in g.vertices for i in range(1, d + 1) for h in (False, True)]

    for v in g.vertices:
        clauses = []
        for i, j in itertools.combinations(range(1, d + 1), 2):
            clauses.append(((var(v, i, False), False), (var(v, j, False), False)))
        for i in range(1, d + 1):
            clauses.append(((var(v, i, False), False), (var(v, i, True), True)))
        if g.deletable(v):
            if clauses:
                softs.append(SoftGroup(("vertex", v), tuple(clauses)))
        else:
            crisp.extend(clauses)

    for v, i in alpha.items():
        crisp.append(((var(v, i, False), True),))
        crisp.append(((var(v, i, True), True),))
        for j in range(1, d + 1):
            if j != i:
                crisp.append(((var(v, j, False), False),))
                crisp.append(((var(v, j, True), False),))

    for e in sorted(g.edges, key=sorted):
        u, v = sorted(e)
        for i in range(1, d + 1):
            crisp.append(((var(u, i, True), False), (var(v, i, False), True)))
            crisp.append(((var(v, i, True), False), (var(u, i, False), True)))

    for tri, m in triples:
        u, v, w = sorted(tri)
        for i in range(1, d + 1):
            clauses = (
                ((var(u, i, True), False), (var(v, i, True), False)),
                ((var(v, i, True), False), (var(w, i, True), False)),
                ((var(u, i, True), False), (var(w, i, True), False)),
            )
            softs.append(SoftGroup(("triple", tri, i), clauses, weight=m))

    return BooleanInstance(tuple(variables), tuple(crisp), tuple(softs), k)


def decode_boolean_solution(removed: frozenset) -> tuple[frozenset, frozenset]:
    z_v = frozenset(t[1] for t in removed if t[0] == "vertex")
    z_t = frozenset(t[1] for t in removed if t[0] == "triple")
    return z_v, z_t


# ---------------------------------------------------------------------------
# Full solver.


def _quotient_classes(g: CutGraph, xs: Sequence[str]) -> list[list[str]]:
    """Merge guessed vertices no deletable cut can separate: adjacent pairs
    and pairs joined through undeletable-only paths."""
    xs = list(dict.fromkeys(xs))
    undel_reach = {}
    for v in xs:
        blocked = [u for u in g.vertices if g.deletable(u) and u != v]
        undel_reach[v] = reachable(g, [v], blocked)
    root = union_classes(xs, ((a, b) for a, b in itertools.combinations(xs, 2)
                              if b in undel_reach[a]))
    out: dict = {}
    for v in xs:
        out.setdefault(root[v], []).append(v)
    return list(out.values())


def _alpha_partitions(g: CutGraph, classes: list[list[str]],
                      protected: Sequence[frozenset]) -> Iterable[dict]:
    """Assignments of the quotient classes into intended components, grown
    incrementally under the component and triple-distinctness constraints."""
    comp_of: dict = {}
    for ci, comp in enumerate(components(g)):
        for v in comp:
            comp_of[v] = ci
    class_comp = []
    for cls in classes:
        comps = {comp_of[v] for v in cls}
        if len(comps) > 1:
            return  # a forced class spans components: impossible guess space
        class_comp.append(comps.pop())
    conflict: set = set()
    class_of_vertex = {}
    for ci, cls in enumerate(classes):
        for v in cls:
            class_of_vertex[v] = ci
    for tri in protected:
        members = [class_of_vertex[v] for v in tri if v in class_of_vertex]
        if len(members) != len(set(members)):
            return  # two vertices of a surviving triple are inseparable
        for a, b in itertools.combinations(members, 2):
            conflict.add(frozenset({a, b}))

    n = len(classes)

    def rec(i: int, groups: list[list[int]]):
        if i == n:
            alpha = {}
            for gi, grp in enumerate(groups, start=1):
                for ci in grp:
                    for v in classes[ci]:
                        alpha[v] = gi
            yield alpha
            return
        for gi, grp in enumerate(groups):
            if class_comp[grp[0]] != class_comp[i]:
                continue
            if any(frozenset({i, other}) in conflict for other in grp):
                continue
            grp.append(i)
            yield from rec(i + 1, groups)
            grp.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


@dataclass
class TripleMulticutResult:
    feasible: bool
    z_v: frozenset = frozenset()
    z_t: frozenset = frozenset()

    def cost(self, triples: TripleSet) -> int:
        mult = dict(triples)
        return len(self.z_v) + sum(mult[t] for t in self.z_t)


def triple_multicut(g: CutGraph, triples: TripleSet, k: int
                    ) -> TripleMulticutResult:
    """Decide whether deletions of total cost <= k (vertices and triples)
    leave every surviving triple spread over three components.

    Branches: which triples the optimum deletes, which surviving-triple
    vertices it deletes, and the component partition of the rest.  Every
    acceptance is re-verified against the feasibility predicate, so wrong
    guesses can only cost time.
    """
    if triple_multicut_feasible(g, triples, (), ()):
        return TripleMulticutResult(True)
    if k <= 0:
        return TripleMulticutResult(False)

    tri_mult = dict(triples)
    tri_keys = sorted(tri_mult, key=sorted)
    for w_t in subsets(tri_keys):
        spent_t = sum(tri_mult[t] for t in w_t)
        if spent_t > k:
            continue
        live = TripleSet(tuple((t, m) for t, m in triples if t not in set(w_t)))
        protected = [t for t, _m in live]
        x_verts = [v for t in protected for v in sorted(t)]
        x_verts = [v for v in dict.fromkeys(x_verts) if g.deletable(v)]
        for w_v in subsets(x_verts, k - spent_t):
            spent = spent_t + len(w_v)
            g1 = g.without(w_v)
            rem_x = [v for t in protected for v in sorted(t)
                     if v not in set(w_v)]
            rem_x = list(dict.fromkeys(rem_x))
            classes = _quotient_classes(g1, rem_x)
            for alpha in _alpha_partitions(g1, classes, protected):
                try:
                    binst = build_boolean_instance(g1, live, alpha, k - spent,
                                                   protected)
                    removed = boolean_solve(binst)
                except (ValueError, CrispUnsatisfiable):
                    continue
                if removed is None:
                    continue
                z_v, z_t = decode_boolean_solution(removed)
                z_v_full = z_v | set(w_v)
                z_t_full = z_t | set(w_t)
                if triple_multicut_feasible(g, triples, z_v_full, z_t_full):
                    cost = len(z_v_full) + sum(tri_mult[t] for t in z_t_full)
                    if cost <= k:
                        return TripleMulticutResult(True, frozenset(z_v_full),
                                                    frozenset(z_t_full))
    return TripleMulticutResult(False)
