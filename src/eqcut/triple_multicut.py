"""Triple Multicut: component guesses, each finished by a multiway cut.

The solver compresses from the always-feasible solution that deletes every
triple: it guesses which triples an optimum deletes, which surviving-triple
vertices it deletes, and a partition (alpha) of the rest into intended
components, then asks `multiway_cut` to cut the alpha's groups apart.  The
paper's Boolean encoding of that question, whose relations all have 2K2-free
Gaifman graphs, stays here as its reference with a 2-SAT deletion search.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cutgraph import (
    CutGraph,
    TripleSet,
    _farthest_min_sep,
    check_vertices,
    component_labels,
    multiway_cut,
    triple_multicut_feasible,
)
from .relations import set_partitions, subsets, union_classes


# Boolean literals are (var, bool); clauses are 1- or 2-tuples of literals.


@dataclass
class SoftGroup:
    """A deletable Boolean constraint: a conjunction of clauses with a weight."""

    ident: tuple
    clauses: tuple
    weight: int = 1


@dataclass
class BooleanInstance:
    crisp_clauses: tuple
    soft_groups: tuple
    budget: int


class CrispUnsatisfiable(ValueError):
    pass


class _ImplicationGraph:
    """Integer implication graph of a 2-CNF whose clauses carry group tags.

    Literal 2*var + polarity (True is 1) and its negation is lit ^ 1; arc j
    runs src[j] -> dst[j] and belongs to group grp[j].  `conflict` searches
    the graph minus the arcs of masked groups, and answers as a graph built
    from the unmasked clauses alone would: its nodes ordered by first
    appearance, its arcs in clause order.
    """

    def __init__(self, tagged_clauses: Iterable):
        num: dict = {}
        src: list[int] = []
        dst: list[int] = []
        grp: list[int] = []

        def lit(literal):
            var, pol = literal
            return 2 * num.setdefault(var, len(num)) + (1 if pol else 0)

        for cl, tag in tagged_clauses:
            if len(cl) == 1:
                a = lit(cl[0])
                src.append(a ^ 1)
                dst.append(a)
                grp.append(tag)
            else:
                a, b = lit(cl[0]), lit(cl[1])
                src += (a ^ 1, b ^ 1)
                dst += (b, a)
                grp += (tag, tag)
        self.src, self.dst, self.grp = src, dst, grp
        self.out: list[list[int]] = [[] for _ in range(2 * len(num))]
        for j, x in enumerate(src):
            self.out[x].append(j)

    def conflict(self, masked: bytearray) -> Optional[list[int]]:
        """None when the unmasked clauses are satisfiable, otherwise the
        groups along one contradiction chain x -> .. -> not x -> .. -> x,
        each path listed from its end back to its start."""
        comp = self._components(masked)
        if not any(map(operator.eq, comp[::2], comp[1::2])):
            return None
        src, dst, grp = self.src, self.dst, self.grp
        for j in range(len(src)):
            if masked[grp[j]]:
                continue
            for x in (src[j], dst[j]):
                if x & 1 and comp[x] == comp[x ^ 1]:
                    return self._path(x, x ^ 1, masked) + self._path(x ^ 1, x, masked)
        return None

    def _components(self, masked: bytearray) -> list[int]:
        """Strongly connected component of every literal (Tarjan, iterative)."""
        out, dst, grp = self.out, self.dst, self.grp
        n = len(out)
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        on_stack = bytearray(n)
        stack: list[int] = []
        counter = ncomp = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = 1
            call = [(root, iter(out[root]))]
            while call:
                x, arcs = call[-1]
                for j in arcs:
                    if masked[grp[j]]:
                        continue
                    y = dst[j]
                    if index[y] < 0:
                        index[y] = low[y] = counter
                        counter += 1
                        stack.append(y)
                        on_stack[y] = 1
                        call.append((y, iter(out[y])))
                        break
                    if on_stack[y] and index[y] < low[x]:
                        low[x] = index[y]
                else:
                    call.pop()
                    if call and low[x] < low[call[-1][0]]:
                        low[call[-1][0]] = low[x]
                    if low[x] == index[x]:
                        while True:
                            y = stack.pop()
                            on_stack[y] = 0
                            comp[y] = ncomp
                            if y == x:
                                break
                        ncomp += 1
        return comp

    def _path(self, start: int, end: int, masked: bytearray) -> list[int]:
        """Groups of the arcs on a shortest start -> end path over unmasked
        arcs (breadth-first, arcs in clause order), from the end back."""
        out, dst, grp = self.out, self.dst, self.grp
        via = {start: -1}
        queue = [start]
        for x in queue:
            for j in out[x]:
                if masked[grp[j]]:
                    continue
                y = dst[j]
                if y in via:
                    continue
                via[y] = j
                if y == end:
                    tags = []
                    while via[y] >= 0:
                        tags.append(grp[via[y]])
                        y = self.src[via[y]]
                    return tags
                queue.append(y)
        raise AssertionError("no path inside a strongly connected component")


def two_sat_conflict(clauses: Iterable, origins: Iterable) -> Optional[list]:
    """None when the 2-CNF is satisfiable, otherwise origin tags along one
    contradiction chain (x -> .. -> not x -> .. -> x)."""
    pairs = list(zip(clauses, origins))
    graph = _ImplicationGraph((cl, i) for i, (cl, _tag) in enumerate(pairs))
    chain = graph.conflict(bytearray(len(pairs)))
    return None if chain is None else [pairs[i][1] for i in chain]


def boolean_solve(inst: BooleanInstance) -> Optional[frozenset]:
    """Minimum-weight set of soft groups whose removal makes the 2-CNF
    satisfiable, within the budget, or None.

    Branching: any valid deletion set must meet the soft groups found on a
    contradiction chain, so branch over exactly those.  One implication
    graph holds the crisp clauses (group 0) and every soft group (1..);
    a branch masks the groups it removed.
    """
    soft = [None, *{g.ident: g for g in inst.soft_groups}.values()]
    graph = _ImplicationGraph(itertools.chain(
        ((cl, 0) for cl in inst.crisp_clauses),
        ((cl, gi) for gi in range(1, len(soft)) for cl in soft[gi].clauses)))
    if graph.conflict(bytearray([0]) + bytearray([1]) * (len(soft) - 1)) is not None:
        raise CrispUnsatisfiable("crisp 2-CNF has no satisfying assignment")
    masked = bytearray(len(soft))

    best: Optional[tuple[int, frozenset]] = None

    def rec(removed: frozenset, spent: int):
        nonlocal best
        if best is not None and spent >= best[0]:
            return
        chain = graph.conflict(masked)
        if chain is None:
            if best is None or spent < best[0]:
                best = (spent, removed)
            return
        tags = [t for t in dict.fromkeys(chain) if t]
        if not tags:
            return  # contradiction among crisp clauses alone
        for gi in tags:
            w = soft[gi].weight
            if spent + w <= inst.budget:
                masked[gi] = 1
                rec(removed | {soft[gi].ident}, spent + w)
                masked[gi] = 0

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

    return BooleanInstance(tuple(crisp), tuple(softs), k)


def decode_boolean_solution(removed: frozenset) -> tuple[frozenset, frozenset]:
    z_v = frozenset(t[1] for t in removed if t[0] == "vertex")
    z_t = frozenset(t[1] for t in removed if t[0] == "triple")
    return z_v, z_t


# ---------------------------------------------------------------------------
# Full solver.


def _guess_ties(g: CutGraph, xs: Sequence[str]) -> list[tuple]:
    """The pairs `_quotient_classes` merges, each listed once, as (x, key):
    each guessed x with each guessed neighbour listed before it, and with
    the label of each component of g minus its deletable vertices that x
    contains or neighbours.

    Deleting deletable vertices changes no such component, so the ties of g
    minus a set W of guessed deletable vertices are the ties of g that
    avoid W (neither end in W).
    """
    label = component_labels(g, (v for v in g.vertices if g.deletable(v)))
    idx = g._index
    before: set = set()
    ties: dict = {}
    for x in xs:
        for u in (x, *(idx.names[j] for j in idx.nbrs[idx.pos[x]])):
            if not g.deletable(u):
                ties[x, label(u)] = None
            elif u in before:
                ties[x, u] = None
        before.add(x)
    return list(ties)


def _quotient_classes(ties: list[tuple], xs: Sequence[str]) -> list[list[str]]:
    """Merge guessed vertices that every surviving alpha puts together:
    pairs that are adjacent, or that both touch (contain or neighbour) one
    component of g minus its deletable vertices.  No vertex outside the
    guess cuts such a pair apart.

    One union-find pass over the guess's ties (`_guess_ties`, every x of
    which is in xs) gives the classes, listed by first vertex, each in
    guess order.
    """
    root = union_classes(itertools.chain(xs, *ties), ties)
    classes: dict = {}
    for v in xs:
        classes.setdefault(root[v], []).append(v)
    return list(classes.values())


def _class_conflicts(classes: list[list[str]],
                     protected: Sequence[frozenset]) -> Optional[set]:
    """The pairs of classes, as frozensets of class indices, that hold two
    vertices of one surviving triple; None when one class holds two, as
    then no alpha keeps that triple apart."""
    class_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
    conflict: set = set()
    for tri in protected:
        members = [class_of[v] for v in tri if v in class_of]
        if len(members) != len(set(members)):
            return None
        conflict.update(map(frozenset, itertools.combinations(members, 2)))
    return conflict


def _alpha_partitions(g: CutGraph, classes: list[list[str]], conflict: set,
                      budget: int) -> Iterable[dict]:
    """Assignments of the quotient classes into intended components: the
    `set_partitions` walk that places classes 0, 1, ... and extends a
    partial partition only while each group's newest class shares its
    first class's component and no `conflict` pair (`_class_conflicts`)
    with the group's other classes, and, once two or more groups are
    placed, each group can be cut from the others by at most `budget`
    vertices outside the classes.  Each alpha lists its vertices by
    component, then class by class, each class in guess order.  A class is
    connected in g, so its first vertex gives its component.

    The bound is a necessary condition of the leaf's multiway cut, so it
    drops only alphas that have no cut within the budget.  A multiway cut
    of a complete alpha avoids the classes and cuts each placed group from
    the other placed groups, and placing more classes only enlarges both
    sides of every check: a prefix that fails the bound fails it in every
    completion, and the alphas that survive are the unbounded stream's, in
    its order.
    """
    label = component_labels(g, ())
    class_comp = [label(cls[0]) for cls in classes]
    gu = g.make_undeletable(itertools.chain.from_iterable(classes))

    def keep(groups: list[list[int]]) -> bool:
        for grp in groups:
            new = grp[-1]
            if class_comp[new] != class_comp[grp[0]] or any(
                    frozenset({new, other}) in conflict for other in grp[:-1]):
                return False
        if len(groups) < 2:
            return True
        sides = [[v for ci in grp for v in classes[ci]] for grp in groups]
        for j, side in enumerate(sides):
            others = [v for o in sides[:j] + sides[j + 1:] for v in o]
            if _farthest_min_sep(gu, side, others, budget) is None:
                return False
        return True

    for groups in set_partitions(range(len(classes) - 1, -1, -1), keep):
        yield {v: gi for gi, grp in enumerate(groups, start=1)
               for ci in grp for v in classes[ci]}


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

    Branches: which triples the optimum deletes (only sets of at most k
    triples, as every multiplicity is at least 1), which surviving-triple
    vertices it deletes, and the component partition (alpha) of the rest,
    over the quotient classes of one labelling per vertex guess; prefixes
    that no cut within the remaining budget b splits are dropped (see
    `_alpha_partitions`).  The ties of g are listed once per triple guess;
    a vertex guess's classes are those of its ties that avoid the guess
    (`_guess_ties`), and a guess whose classes merge two kept vertices of a
    surviving triple has no alpha, so g minus it is never built.  An alpha's
    Boolean encoding is solvable at weight b exactly when `multiway_cut`
    cuts its groups apart in g1 (g minus the guessed deletions) by b
    vertices outside the guess:
    1. Kept u, w pinned to groups a != b and joined by a kept path give
       hat(u, a) -> (next, a) -> hat(next, a) -> ... -> (w, a) against the
       pins, by edge and coherence clauses: the deletions separate them.
    2. If Z separates the groups, set (v, i) and hat(v, i) true exactly for
       kept v in a component of g1 - Z holding group i; for v in Z set
       (v, i) true when v has a neighbour there and hat(v, i) false.  All
       clauses outside Z's coherence groups hold: the triangle ones as alpha
       gives a triple's kept vertices distinct groups, and its deleted
       vertices are not in g1, so their variables are free.
    3. Pins satisfy a pinned vertex's coherence clauses, so a minimum-weight
       deletion set holds neither such a group nor a triangle group.
    So the first accepted guess, the verdict, the cost and z_t are the
    encoding's; z_v may be another cut of the same size.  Acceptances are
    re-verified.  ValueError for a triple vertex that is not a vertex of g.
    """
    check_vertices(g, (v for tri, _m in triples for v in tri), "triple vertex")
    if k < 0:
        return TripleMulticutResult(False)
    if triple_multicut_feasible(g, triples, (), ()):
        return TripleMulticutResult(True)
    if k == 0:
        return TripleMulticutResult(False)

    tri_mult = dict(triples)
    tri_keys = sorted(tri_mult, key=sorted)
    for w_t in subsets(tri_keys, k):
        spent_t = sum(tri_mult[t] for t in w_t)
        if spent_t > k:
            continue
        protected = [t for t, _m in triples if t not in w_t]
        x_all = list(dict.fromkeys(v for t in protected for v in sorted(t)))
        x_verts = [v for v in x_all if g.deletable(v)]
        ties = _guess_ties(g, x_all)
        for w_v in subsets(x_verts, k - spent_t):
            gone = set(w_v)
            classes = _quotient_classes(
                [(x, key) for x, key in ties
                 if x not in gone and key not in gone],
                [v for v in x_all if v not in gone])
            conflict = _class_conflicts(classes, protected)
            if conflict is None:
                continue
            b = k - spent_t - len(w_v)  # the budget left for the cut
            g1 = g.without(w_v)
            for alpha in _alpha_partitions(g1, classes, conflict, b):
                groups = [[v for v, gi in alpha.items() if gi == i]
                          for i in sorted(set(alpha.values()))]
                cut = multiway_cut(g1, groups, b)
                if cut is None:
                    continue
                res = TripleMulticutResult(True, cut.union(w_v), frozenset(w_t))
                if (triple_multicut_feasible(g, triples, res.z_v, res.z_t)
                        and res.cost(triples) <= k):
                    return res
    return TripleMulticutResult(False)
