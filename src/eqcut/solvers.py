"""Parameterized solvers: bounded hitting-set branching, strict Steiner
multicut, the Steiner 2-approximation outer loop, and the branching
algorithms for strictly negative languages with assignment constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, Sequence

from .cutgraph import (
    CutGraph,
    _bounded_cut,
    _Residual,
    components,
    min_vertex_separator,
    multiway_cut,
    reachable,
)
from .instances import (
    Assignment,
    Constraint,
    MinCspInstance,
    _constraint_violated,
    fresh_names,
    set_partitions,
    subsets,
)
from .relations import is_strictly_negative


def hitting_set_branch(sets: Sequence[Iterable], k: int) -> Optional[frozenset]:
    """A hitting set of size <= k by branching on a smallest unhit set."""
    fams = [frozenset(s) for s in sets]
    if any(not s for s in fams):
        return None

    def rec(live: list[frozenset], budget: int) -> Optional[frozenset]:
        if not live:
            return frozenset()
        if budget == 0:
            return None
        pick = min(live, key=len)
        for e in sorted(pick):
            rest = [s for s in live if e not in s]
            sub = rec(rest, budget - 1)
            if sub is not None:
                return sub | {e}
        return None

    return rec(fams, k)


# ---------------------------------------------------------------------------
# Strict Steiner Multicut


@dataclass
class StrictSteinerStats:
    max_depth: int = 0
    flows: list = field(default_factory=list)
    monotone: bool = True


def _tset_satisfied(g: CutGraph, cut: Iterable[str], tset: Sequence[str]) -> bool:
    """Whether the cut meets the terminal set or splits it over several
    components; a set with fewer than two terminals never counts."""
    cut = set(cut)
    terms = sorted(set(tset))
    if len(terms) < 2:
        return False
    if not cut.isdisjoint(terms):
        return True
    return not reachable(g, terms[:1], cut).issuperset(terms)


def strict_steiner(g: CutGraph, hub: str, t_sets: Sequence[Iterable[str]],
                   k: int, stats: Optional[StrictSteinerStats] = None
                   ) -> Optional[frozenset]:
    """Minimum multicut of size <= k avoiding the hub, assuming deleting the
    hub alone satisfies every terminal set.

    Branches on the terminals of an unsatisfied set, recomputing the closest
    minimum hub-side separator; its flow value strictly increases with depth,
    so a branch stops once it reaches the size of the best cut found.  Of the
    minimum cuts, the first in depth-first order is returned.

    A branch only adds a sink, so it continues its parent's flow.  The last
    augmenting search also gives the hub's component in G - w: the hub and
    the vertices outside w whose in-copy it reached.
    """
    idx = g._index
    if hub not in idx.pos:
        raise ValueError(f"the hub {hub!r} is not a vertex of the graph")
    t_sets = [sorted(set(ts)) for ts in t_sets]
    for ts in t_sets:
        if not _tset_satisfied(g, {hub}, ts):
            raise ValueError("the hub does not satisfy every terminal set")
    pos, h = idx.pos, idx.pos[hub]

    def satisfied(net: Optional[_Residual], w: frozenset, ts: list[str]
                  ) -> bool:
        if net is None or hub not in ts:
            return _tset_satisfied(g, w, ts)
        return not w.isdisjoint(ts) or any(
            v != hub and (v not in pos or net.reached[2 * pos[v]] == -1)
            for v in ts)

    best: Optional[frozenset] = None
    root = _Residual(idx, [h], [2 * h + 1], [])
    # (branch terminals, new terminal, depth, parent flow, parent network)
    stack = [(frozenset(), None, 0, -1, None)]
    while stack:
        y, t, depth, prev_flow, parent = stack.pop()
        if t is None:
            net, w = None, frozenset()  # the root: no sink, no flow
        else:
            net = parent.extended(2 * pos[t] + 1)
            w = _bounded_cut(net, k)
            if w is None:
                continue
        if stats is not None:
            stats.max_depth = max(stats.max_depth, depth)
            stats.flows.append((depth, len(w)))
            if depth > 0 and len(w) <= prev_flow:
                stats.monotone = False
        assert depth == 0 or len(w) > prev_flow, \
            "closest-separator flow must grow along a branch"
        if len(w) > k or (best is not None and len(w) >= len(best)):
            continue
        unsat = [ts for ts in t_sets if not satisfied(net, w, ts)]
        if not unsat:
            best = w
            continue
        stack.extend((y | {u}, u, depth + 1, len(w), net or root)
                     for u in reversed(unsat[0]) if u != hub and u not in y)
    return best


def strict_steiner_opt(g: CutGraph, hub: str, t_sets: Sequence[Iterable[str]],
                       k: int) -> Optional[frozenset]:
    """Smallest strict-Steiner cut of size <= k, or None if there is none."""
    return strict_steiner(g, hub, t_sets, k)


# ---------------------------------------------------------------------------
# Steiner Multicut 2-approximation


def _steiner_feasible(g: CutGraph, cut: Iterable[str],
                      t_sets: Sequence[Iterable[str]]) -> bool:
    cut = set(cut)
    if any(not g.deletable(v) for v in cut):
        return False
    return all(_tset_satisfied(g, cut, ts) for ts in t_sets)


def _greedy_feasible(g: CutGraph, t_sets, k: int) -> Optional[frozenset]:
    """One deletable member per unsatisfied terminal set, pruned minimal.

    A set without deletable members gets its smallest pair separator; when
    every pair needs more than k deletions, OPT > k and None is returned.
    """
    chosen: set = set()
    for ts in t_sets:
        if _tset_satisfied(g, chosen, ts):
            continue
        pick = next((v for v in ts if g.deletable(v)), None)
        if pick is not None:
            chosen.add(pick)
            continue
        seps = [sep for a, b in itertools.combinations(ts, 2)
                if (sep := min_vertex_separator(g, a, [b], limit=k)) is not None]
        if not seps:
            return None
        chosen |= min(seps, key=len)
    for v in sorted(chosen):
        if _steiner_feasible(g, chosen - {v}, t_sets):
            chosen.discard(v)
    return frozenset(chosen)


def steiner_2approx(g: CutGraph, t_sets: Sequence[Iterable[str]], k: int
                    ) -> Optional[frozenset]:
    """Accept with a feasible cut of size <= 2*OPT when OPT <= k, reject
    (returning None) when no budget b <= k admits one.

    Compression guessing: split a feasible set X into the deleted part W and
    a partition of X - W into intended components; contract classes, compute
    an exact multiway cut, and finish each piece with strict Steiner cuts.
    Any feasible start works; a greedy member-per-set choice keeps the guess
    space small.
    """
    t_sets = [sorted(set(ts)) for ts in t_sets]
    if _steiner_feasible(g, frozenset(), t_sets):
        return frozenset()
    initial = _greedy_feasible(g, t_sets, k)
    if initial is None:
        return None

    for b in range(k + 1):
        out = _steiner_compress(g, t_sets, initial, b)
        if out is not None:
            assert _steiner_feasible(g, out, t_sets)
            assert len(out) <= 2 * b
            return out
    return None


def _hub_names(g: CutGraph, count: int) -> list[str]:
    """The first count names #h0, #h1, ... that are not vertices of g."""
    return list(itertools.islice(fresh_names("#h", g.vertices), count))


def compression_guesses(g: CutGraph, x: Iterable[str], k: int
                        ) -> Iterator[tuple[frozenset, Iterator]]:
    """The iterative-compression guesses around a feasible set X.

    For each W within X of size <= k (by size, then in sorted order) yields
    (W, contractions).  The contractions stream has one entry per partition
    of X - W into classes meant to stay connected: the graph G - W with
    each class contracted into an undeletable hub, the hub names, and the
    map from original name to hub.
    """
    x_list = sorted(x)
    hub_pool = _hub_names(g, len(x_list))
    for w in subsets(x_list, k):
        w = frozenset(w)
        rest = [v for v in x_list if v not in w]
        yield w, _contractions(g.without(w), rest, hub_pool)


def _contractions(g: CutGraph, items: list[str], hub_pool: list[str]
                  ) -> Iterator[tuple[CutGraph, list[str], dict]]:
    for partition in set_partitions(items):
        hubs = hub_pool[:len(partition)]
        contracted, renaming = g, {}
        for hub, cls in zip(hubs, partition):
            contracted = contracted.identify(cls, hub)
            renaming.update(dict.fromkeys(cls, hub))
        yield contracted.make_undeletable(hubs), hubs, renaming


def _steiner_compress(g: CutGraph, t_sets, x: Iterable[str], b: int
                      ) -> Optional[frozenset]:
    best: Optional[frozenset] = None
    for w, contractions in compression_guesses(g, x, b):
        live_sets = [ts for ts in t_sets if not _tset_satisfied(g, w, ts)]
        for g2, hubs, renaming in contractions:
            out = _steiner_guess(g2, live_sets, hubs, renaming, b - len(w))
            if out is not None:
                cand = w | out
                if best is None or len(cand) < len(best):
                    best = cand
    return best


def _steiner_guess(g2: CutGraph, t_sets, hubs: list[str], renaming: dict,
                   budget: int) -> Optional[frozenset]:
    """Cut the contracted hubs apart, and solve each component as a
    strict-Steiner instance around its hub."""
    mapped_sets = []
    for ts in t_sets:
        mts = sorted({renaming.get(v, v) for v in ts})
        if len(mts) == 1 and mts[0] in hubs:
            return None  # the guess merged a whole terminal set
        mapped_sets.append(mts)
    m = multiway_cut(g2, hubs, budget) if len(hubs) > 1 else frozenset()
    if m is None:
        return None
    g3 = g2.without(m)
    comp_of: dict = {}
    for ci, comp in enumerate(components(g3)):
        for v in comp:
            comp_of[v] = ci
    live = [ts for ts in mapped_sets if not _tset_satisfied(g2, m, ts)]
    by_comp: dict = {}
    for ts in live:
        cids = {comp_of[v] for v in ts if v in comp_of}
        if len(cids) != 1:
            continue  # split across components: already satisfied
        by_comp.setdefault(cids.pop(), []).append(ts)
    total: set = set(m)
    remaining = budget
    for ci, sets_here in sorted(by_comp.items()):
        hub_here = [h for h in hubs if comp_of.get(h) == ci]
        if len(hub_here) != 1:
            return None  # terminal sets stranded away from any hub
        sub_vertices = [v for v, c in comp_of.items() if c == ci]
        inside = frozenset(sub_vertices)
        sub = CutGraph(
            tuple(sub_vertices),
            g3.undeletable & inside,
            {e: mm for e, mm in g3.edges.items() if e <= inside},
        )
        try:
            cut = strict_steiner_opt(sub, hub_here[0], sets_here, remaining)
        except ValueError:
            return None
        if cut is None:
            return None
        total |= cut
        remaining -= len(cut)
        if remaining < 0:
            return None
    return frozenset(total)


# ---------------------------------------------------------------------------
# Strictly negative languages with assignment constraints


def _tentative_violation(inst: MinCspInstance) -> Optional[Constraint]:
    """Violated relation constraint under the canonical assignment that obeys
    every remaining assignment constraint and spreads other variables out."""
    value: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            value[c.scope[0]] = ("const", c.value)
    fresh = 0
    for v in inst.variables:
        if v not in value:
            value[v] = ("fresh", fresh)
            fresh += 1
    a = Assignment(value)
    for c in inst.constraints:
        if not c.is_assignment() and _constraint_violated(c, a):
            return c
    return None


def _conflicting_assignments(inst: MinCspInstance) -> Optional[str]:
    by_var: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            by_var.setdefault(c.scope[0], set()).add(c.value)
    for v, vals in by_var.items():
        if len(vals) > 1:
            return v
    return None


def negative_fpt_solve(inst: MinCspInstance, k: int) -> bool:
    """Branching decision procedure for strictly negative relations plus
    assignment constraints: resolve contradictory assignments, then branch on
    a constraint violated by the tentative assignment."""
    for c in inst.constraints:
        if not c.is_assignment() and not is_strictly_negative(c.relation):
            raise ValueError(f"relation {c.relation.name} is not strictly negative")

    def rec(cur: MinCspInstance, budget: int) -> bool:
        if budget < 0:
            return False
        crisp_vals: dict = {}
        for c in cur.constraints:
            if c.is_assignment() and c.kind == "crisp":
                crisp_vals.setdefault(c.scope[0], set()).add(c.value)
        if any(len(vals) > 1 for vals in crisp_vals.values()):
            return False

        v = _conflicting_assignments(cur)
        if v is not None:
            vals = sorted({c.value for c in cur.constraints
                           if c.is_assignment() and c.scope[0] == v})
            for keep in vals:
                drop = [c for c in cur.constraints
                        if c.is_assignment() and c.scope[0] == v
                        and c.value != keep]
                if any(c.kind == "crisp" for c in drop):
                    continue
                cost = sum(c.multiplicity for c in drop)
                if cost <= budget and rec(cur.with_constraints(
                        [c for c in cur.constraints if c not in drop]),
                        budget - cost):
                    return True
            return False

        bad = _tentative_violation(cur)
        if bad is None:
            return True
        # branch: the violated constraint goes, or one scope variable's
        # assignments go
        if bad.kind == "soft" and bad.multiplicity <= budget:
            rest = list(cur.constraints)
            rest.remove(bad)
            if rec(cur.with_constraints(rest), budget - bad.multiplicity):
                return True
        for x in dict.fromkeys(bad.scope):
            drop = [c for c in cur.constraints
                    if c.is_assignment() and c.scope[0] == x]
            if not drop or any(c.kind == "crisp" for c in drop):
                continue
            cost = sum(c.multiplicity for c in drop)
            if cost <= budget and rec(cur.with_constraints(
                    [c for c in cur.constraints if c not in drop]),
                    budget - cost):
                return True
        return False

    return rec(inst, k)


def negative_approx(inst: MinCspInstance) -> tuple[int, list[Constraint]]:
    """Factor-r(Gamma) approximation: clean up contradictory assignments by
    majority, then repeatedly delete a violated constraint together with one
    assignment copy per scope variable.  Returns (cost, deleted constraints)."""
    deleted: list[Constraint] = []
    work = list(inst.constraints)

    def assigned(values: list[Constraint], var: str) -> list[Constraint]:
        return [c for c in values if c.is_assignment() and c.scope[0] == var]

    changed = True
    while changed:
        changed = False
        by_var: dict = {}
        for c in work:
            if c.is_assignment():
                by_var.setdefault(c.scope[0], {}).setdefault(c.value, []).append(c)
        for v, groups in by_var.items():
            if len(groups) <= 1:
                continue
            crisp_vals = [val for val, cs in groups.items()
                          if any(c.kind == "crisp" for c in cs)]
            if len(crisp_vals) > 1:
                raise ValueError("contradictory crisp assignments")
            if crisp_vals:
                best_val = crisp_vals[0]
            else:
                best_val = max(groups, key=lambda val: sum(
                    c.multiplicity for c in groups[val]))
            m1 = sum(c.multiplicity for val, cs in groups.items()
                     if val != best_val for c in cs)
            m2 = sum(c.multiplicity for c in groups[best_val]
                     if c.kind == "soft")
            for val, cs in groups.items():
                if val != best_val:
                    for c in cs:
                        work.remove(c)
                        deleted.append(c)
            surplus = min(m1, m2)
            for c in list(groups[best_val]):
                if surplus <= 0:
                    break
                if c.kind == "crisp":
                    continue
                take = min(surplus, c.multiplicity)
                work.remove(c)
                if take < c.multiplicity:
                    work.append(replace(c, multiplicity=c.multiplicity - take))
                deleted.append(Constraint(c.relation, c.scope, c.kind, take,
                                          c.value))
                surplus -= take
            changed = True

    while True:
        cur = MinCspInstance.build(inst.name, work, inst.variables)
        bad = _tentative_violation(cur)
        if bad is None:
            break
        if bad.kind == "crisp":
            # the relation itself cannot go: unassign the cheapest variable
            choices = []
            for x in dict.fromkeys(bad.scope):
                copies = [c for c in work
                          if c.is_assignment() and c.scope[0] == x]
                if copies and all(c.kind == "soft" for c in copies):
                    choices.append((sum(c.multiplicity for c in copies), x, copies))
            if not choices:
                raise ValueError("crisp constraint conflicts with crisp assignments")
            _, x, copies = min(choices)
            for c in copies:
                work.remove(c)
                deleted.append(c)
            continue
        work.remove(bad)
        deleted.append(bad)
        for x in dict.fromkeys(bad.scope):
            for c in list(work):
                if c.is_assignment() and c.scope[0] == x and c.kind == "soft":
                    work.remove(c)
                    if c.multiplicity > 1:
                        work.append(replace(c, multiplicity=c.multiplicity - 1))
                    deleted.append(Constraint(None, c.scope, c.kind, 1, c.value))
                    break
    cost = sum(c.multiplicity for c in deleted)
    return cost, deleted
