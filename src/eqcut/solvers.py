"""Parameterized solvers: bounded hitting-set branching, strict Steiner
multicut, the Steiner 2-approximation outer loop, and the branching
algorithms for strictly negative languages with assignment constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cutgraph import (
    CutGraph,
    _bounded_cut,
    _Residual,
    check_vertices,
    component_graph,
    component_labels,
    min_vertex_separator,
    multiway_cut,
)
from .instances import (
    Constraint,
    MinCspInstance,
    fresh_names,
    set_partitions,
    subsets,
)
from .relations import canonicalize, is_strictly_negative


def hitting_set_branch(sets: Sequence[Iterable], k: int) -> Optional[frozenset]:
    """A hitting set of size <= k by branching on a smallest unhit set."""
    fams = [frozenset(s) for s in sets]
    if k < 0 or any(not s for s in fams):
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


def _tset_check(g: CutGraph, cut: Iterable[str]
                ) -> Callable[[Iterable[str]], bool]:
    """A test of whether the cut meets a terminal set or splits it over
    several components, for any number of sets, from one component
    labelling of G - cut.  A cut vertex has a label of its own, so a set is
    satisfied when its terminals do not all share one label; a set with
    fewer than two terminals never is."""
    label = component_labels(g, cut)
    return lambda ts: len({label(v) for v in ts}) > 1


def _terminal_sets(g: CutGraph, t_sets: Sequence[Iterable[str]]
                   ) -> list[list[str]]:
    """Each terminal set as the sorted list of its distinct terminals;
    ValueError for a terminal that is not a vertex of g."""
    out = [sorted(set(ts)) for ts in t_sets]
    check_vertices(g, itertools.chain.from_iterable(out), "terminal")
    return out


def strict_steiner(g: CutGraph, hub: str, t_sets: Sequence[Iterable[str]],
                   k: int, stats: Optional[StrictSteinerStats] = None
                   ) -> Optional[frozenset]:
    """Minimum multicut of size <= k avoiding the hub, assuming deleting the
    hub alone satisfies every terminal set.

    Branches on the terminals of an unsatisfied set, recomputing the closest
    minimum hub-side separator; its flow value strictly increases with depth,
    so each flow is capped at k and below the best cut found, and a node
    whose parent's flow reaches the cap is dropped before its flow runs.  Of
    the minimum cuts, the first in depth-first order is returned.

    A branch only adds a sink, so it continues its parent's flow, and its
    first augmenting path is read off the parent's last, failed search: that
    search reached the new sink, a terminal of an unsatisfied set.  The last
    augmenting search also gives the hub's component in G - w, so a set
    holding the hub needs no labelling (and deleting the hub satisfies it
    exactly when it has another terminal); the other sets are checked from
    one component labelling of G - hub, and of G - w per node.
    """
    idx = g._index
    check_vertices(g, [hub], "hub")
    t_sets = _terminal_sets(g, t_sets)
    hubless = [ts for ts in t_sets if hub not in ts or len(ts) < 2]
    if hubless and not all(map(_tset_check(g, {hub}), hubless)):
        raise ValueError("the hub does not satisfy every terminal set")
    pos, h = idx.pos, idx.pos[hub]

    def satisfied(net: _Residual, w: frozenset, ts: list[str],
                  check: Callable[[list[str]], bool]) -> bool:
        if hub not in ts:
            return check(ts)
        return not w.isdisjoint(ts) or any(
            v != hub and net.reached[2 * pos[v]] == -1 for v in ts)

    best, cap = None, k  # cap: the largest flow that can still beat best
    root = _Residual(g, [h], [2 * h + 1], [])
    root.maxflow(0)  # no sink: one search, of the hub's component
    # (branch terminals, new terminal, depth, parent flow, parent network)
    stack = [(frozenset(), None, 0, -1, root)] if k >= 0 else []
    while stack:
        y, t, depth, prev_flow, parent = stack.pop()
        if t is None:
            net, w = root, frozenset()
        elif prev_flow >= cap:
            continue
        else:
            net = parent.extended(2 * pos[t] + 1)
            w = _bounded_cut(net, cap)
            if w is None:
                continue
        if stats is not None:
            stats.max_depth = max(stats.max_depth, depth)
            stats.flows.append((depth, len(w)))
            if depth > 0 and len(w) <= prev_flow:
                stats.monotone = False
        assert depth == 0 or len(w) > prev_flow, \
            "closest-separator flow must grow along a branch"
        check = _tset_check(g, w) if hubless else None
        unsat = [ts for ts in t_sets if not satisfied(net, w, ts, check)]
        if not unsat:
            best, cap = w, len(w) - 1
            continue
        stack.extend((y | {u}, u, depth + 1, len(w), net)
                     for u in reversed(unsat[0]) if u != hub and u not in y)
    return best


strict_steiner_opt = strict_steiner  # another name for the same solver


# ---------------------------------------------------------------------------
# Steiner Multicut 2-approximation


def _steiner_feasible(g: CutGraph, cut: Iterable[str],
                      t_sets: Sequence[Iterable[str]]) -> bool:
    cut = set(cut)
    if any(not g.deletable(v) for v in cut):
        return False
    return all(map(_tset_check(g, cut), t_sets))


def _greedy_feasible(g: CutGraph, t_sets, k: int) -> Optional[frozenset]:
    """One deletable member per unsatisfied terminal set, pruned minimal.

    A set without deletable members gets its smallest pair separator; when
    every pair needs more than k deletions, OPT > k and None is returned.
    """
    chosen: set = set()
    for ts in t_sets:
        if _tset_check(g, chosen)(ts):
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
    space small.  No cut satisfies a set of fewer than two terminals.

    The answer at budget b is the first smallest cut among the guesses with
    |W| <= b that succeed at budget b - |W|.  Each guess is evaluated once,
    at the full budget k - |W|, when the budgets reach |W|, and every
    budget's answer is read off those results: `multiway_cut` and
    `strict_steiner` return the same set at a budget b as at any B >= b
    when the budget-B answer has size <= b, and None at b otherwise.  A
    guess's multiway cut M and its strict-Steiner cuts (of total size
    spent) each get b - |W|, so it succeeds at b exactly when
    |W| + max(|M|, spent) <= b.
    """
    t_sets = _terminal_sets(g, t_sets)
    if k < 0 or any(len(ts) < 2 for ts in t_sets):
        return None
    if _steiner_feasible(g, frozenset(), t_sets):
        return frozenset()
    initial = _greedy_feasible(g, t_sets, k)
    if initial is None:
        return None

    guesses = compression_guesses(g, initial, k)
    guess = next(guesses, None)
    found: list[tuple[int, frozenset]] = []  # (least budget, cut) per guess
    for b in range(k + 1):
        while guess is not None and len(guess[0]) == b:
            w, contractions = guess
            check = _tset_check(g, w)
            live_sets = [ts for ts in t_sets if not check(ts)]
            for g2, hubs, renaming in contractions:
                out = _steiner_guess(g2, live_sets, hubs, renaming, k - b)
                if out is not None:
                    m_size, spent, cut = out
                    found.append((b + max(m_size, spent), w | cut))
            guess = next(guesses, None)
        fits = [cut for need, cut in found if need <= b]
        if fits:
            best = min(fits, key=len)  # the first smallest, in guess order
            assert _steiner_feasible(g, best, t_sets)
            assert len(best) <= 2 * b
            return best
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
    map from original name to hub.  The stream computes nothing, G - W
    included, until it is read.
    """
    x_list = sorted(x)
    hub_pool = _hub_names(g, len(x_list))
    for w in subsets(x_list, k):
        w = frozenset(w)
        rest = [v for v in x_list if v not in w]
        yield w, _contractions(g, w, rest, hub_pool)


def _contractions(g: CutGraph, w: frozenset, items: list[str],
                  hub_pool: list[str]
                  ) -> Iterator[tuple[CutGraph, list[str], dict]]:
    g = g.without(w)
    for partition in set_partitions(items):
        hubs = hub_pool[:len(partition)]
        contracted, renaming = g, {}
        for hub, cls in zip(hubs, partition):
            contracted = contracted.identify(cls, hub)
            renaming.update(dict.fromkeys(cls, hub))
        yield contracted.make_undeletable(hubs), hubs, renaming


def _steiner_guess(g2: CutGraph, t_sets, hubs: list[str], renaming: dict,
                   budget: int) -> Optional[tuple[int, int, frozenset]]:
    """Cut the contracted hubs apart, and solve each component as a
    strict-Steiner instance around its hub.  The multiway cut M gets the
    budget, and the strict-Steiner cuts share it; returns (|M|, the total
    size of the strict-Steiner cuts, the union of all the cuts)."""
    mapped_sets = []
    for ts in t_sets:
        mts = sorted({renaming.get(v, v) for v in ts})
        if len(mts) == 1 and mts[0] in hubs:
            return None  # the guess merged a whole terminal set
        mapped_sets.append(mts)
    m = multiway_cut(g2, hubs, budget) if len(hubs) > 1 else frozenset()
    if m is None:
        return None
    label = component_labels(g2, m)
    by_label: dict = {}
    for ts in mapped_sets:
        labels = {label(v) for v in ts}
        if len(labels) == 1:  # neither met nor split by m
            by_label.setdefault(labels.pop(), []).append(ts)
    hub_of = {label(h): h for h in hubs}  # m separates the hubs
    total: set = set(m)
    spent = 0
    for lab, sets_here in by_label.items():
        hub = hub_of.get(lab)
        if hub is None:
            return None  # terminal sets stranded away from any hub
        try:
            cut = strict_steiner(component_graph(g2, hub, m), hub,
                                 sets_here, budget - spent)
        except ValueError:
            return None
        if cut is None:
            return None
        total |= cut
        spent += len(cut)
    return len(m), spent, frozenset(total)


# ---------------------------------------------------------------------------
# Strictly negative languages with assignment constraints


def _assignment_groups(constraints: Iterable[Constraint]) -> dict:
    """Variable -> value -> the assignment constraints giving the variable
    that value, all in first-seen order."""
    groups: dict = {}
    for c in constraints:
        if c.is_assignment():
            groups.setdefault(c.scope[0], {}).setdefault(c.value, []).append(c)
    return groups


def _tentative_violation(constraints: Sequence[Constraint], groups: dict
                         ) -> Optional[Constraint]:
    """The first relation constraint violated by the tentative assignment,
    or None.  The tentative assignment gives each variable of the
    `_assignment_groups` grouping its first value, and every other variable
    a value of its own."""
    def token(v: str) -> tuple:
        values = groups.get(v)
        return ("const", next(iter(values))) if values else ("fresh", v)

    for c in constraints:
        if not c.is_assignment() and \
                canonicalize([token(v) for v in c.scope]) not in c.relation.tuples:
            return c
    return None


def negative_fpt_solve(inst: MinCspInstance, k: int) -> bool:
    """Bounded search tree for strictly negative relations plus assignment
    constraints, branching on the first obstacle: a variable with two
    assigned values loses all copies of one value or of the other;
    otherwise the first relation constraint that the tentative assignment
    violates goes, or the value group of one of its assigned variables does.
    A branch drops only soft constraints, at a cost of at least 1 within
    the budget, so the depth is at most k.  Deletions only remove
    equalities, so an obstacle that is kept stays an obstacle.  ValueError
    for a relation that is not strictly negative."""
    for c in inst.constraints:
        if not c.is_assignment() and not is_strictly_negative(c.relation):
            raise ValueError(f"relation {c.relation.name} is not strictly negative")

    def rec(cons: list[Constraint], budget: int) -> bool:
        groups = _assignment_groups(cons)
        clash = next((vals for vals in groups.values() if len(vals) > 1), None)
        if clash is not None:
            options = list(clash.values())[:2]
        else:
            bad = _tentative_violation(cons, groups)
            if bad is None:
                return True
            options = [[bad]] + [next(iter(groups[x].values()))
                                 for x in dict.fromkeys(bad.scope) if x in groups]
        for drop in options:
            cost = sum(c.multiplicity for c in drop)
            if cost > budget or any(c.kind == "crisp" for c in drop):
                continue
            rest = list(cons)
            for c in drop:
                rest.remove(c)
            if rec(rest, budget - cost):
                return True
        return False

    return k >= 0 and rec(list(inst.constraints), k)


def negative_approx(inst: MinCspInstance) -> tuple[int, list[Constraint]]:
    """Factor-r(Gamma) approximation: clean up contradictory assignments by
    majority, then repeatedly delete a violated constraint together with one
    assignment copy per scope variable.  Both steps read the
    `_assignment_groups` grouping.  Returns (cost, deleted constraints);
    ValueError when crisp constraints alone contradict each other."""
    deleted: list[Constraint] = []
    work = list(inst.constraints)

    for groups in _assignment_groups(work).values():
        if len(groups) <= 1:
            continue
        crisp_vals = [val for val, cs in groups.items()
                      if any(c.kind == "crisp" for c in cs)]
        if len(crisp_vals) > 1:
            raise ValueError("contradictory crisp assignments")
        best_val = crisp_vals[0] if crisp_vals else max(groups, key=lambda val: sum(
            c.multiplicity for c in groups[val]))
        dropped = [c for val, cs in groups.items() if val != best_val for c in cs]
        for c in dropped:
            work.remove(c)
        deleted += dropped
        surplus = min(sum(c.multiplicity for c in dropped),
                      sum(c.multiplicity for c in groups[best_val]
                          if c.kind == "soft"))
        for c in groups[best_val]:
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

    while True:
        groups = _assignment_groups(work)
        bad = _tentative_violation(work, groups)
        if bad is None:
            break
        # after the cleanup each assigned variable has one value group
        copies = {x: next(iter(groups[x].values()))
                  for x in dict.fromkeys(bad.scope) if x in groups}
        if bad.kind == "crisp":
            # the relation itself cannot go: unassign the cheapest variable
            choices = [(sum(c.multiplicity for c in cs), x, cs)
                       for x, cs in copies.items()
                       if all(c.kind == "soft" for c in cs)]
            if not choices:
                raise ValueError("crisp constraint conflicts with crisp assignments")
            _, _, cs = min(choices)
            for c in cs:
                work.remove(c)
            deleted += cs
            continue
        work.remove(bad)
        deleted.append(bad)
        for cs in copies.values():
            c = next((c for c in cs if c.kind == "soft"), None)
            if c is None:
                continue
            work.remove(c)
            if c.multiplicity > 1:
                work.append(replace(c, multiplicity=c.multiplicity - 1))
            deleted.append(Constraint(None, c.scope, c.kind, 1, c.value))
    cost = sum(c.multiplicity for c in deleted)
    return cost, deleted
