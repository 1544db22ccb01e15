"""Exhaustive reference solvers for the cut problems, used as ground truth.

Everything here enumerates subsets outright and is only meant for desk-scale
verification of the real algorithms and reductions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from .cutgraph import (  # triple_multicut_feasible is re-exported
    CutGraph,
    RequestList,
    TripleSet,
    reachable,
    separates,
    triple_multicut_feasible,
)
from .instances import subsets


def _deletable_vertices(g: CutGraph) -> list[str]:
    return [v for v in g.vertices if g.deletable(v)]


def _smallest(items: Sequence, ok: Callable[[set], bool]) -> Optional[frozenset]:
    """The first subset of the items, by size, that ok accepts, or None."""
    return next((frozenset(s) for s in subsets(items) if ok(set(s))), None)


def _cheapest_edge_set(g: CutGraph, ok: Callable[[CutGraph], bool]
                       ) -> Optional[int]:
    """Least total multiplicity of an edge set whose deletion leaves a graph
    that ok accepts, or None.  An edge set costs at least its size, so the
    search stops at the first set no smaller than the best cost found."""
    best = None
    for removed in subsets(sorted(g.edges, key=sorted)):
        if best is not None and len(removed) >= best:
            break
        cost = sum(g.edges[e] for e in removed)
        if best is not None and cost >= best:
            continue
        kept = {e: m for e, m in g.edges.items() if e not in removed}
        if ok(CutGraph(g.vertices, g.undeletable, kept)):
            best = cost
    return best


def edge_multicut_opt(g: CutGraph, requests: Sequence[tuple[str, str]]
                      ) -> Optional[int]:
    """Minimum number of edge deletions (counting multiplicity) separating
    every request pair, or None if impossible."""
    if any(s == t for s, t in requests):
        return None
    return _cheapest_edge_set(
        g, lambda gg: all(t not in reachable(gg, [s]) for s, t in requests))


def steiner_multicut_vertex_opt(g: CutGraph, t_sets: Sequence[Iterable[str]],
                                forbidden: Iterable[str] = ()
                                ) -> Optional[frozenset]:
    """Minimum vertex set satisfying every terminal set (some pair of
    distinct terminals in each set separated, membership counts); None when
    a set has fewer than two distinct terminals."""
    t_sets = [list(dict.fromkeys(ts)) for ts in t_sets]
    if any(len(ts) < 2 for ts in t_sets):
        return None
    forbidden = set(forbidden)
    dels = [v for v in _deletable_vertices(g) if v not in forbidden]

    def satisfied(cut: set) -> bool:
        for ts in t_sets:
            if not any(separates(g, cut, a, b)
                       for a, b in itertools.combinations(ts, 2)):
                return False
        return True

    return _smallest(dels, satisfied)


def steiner_multicut_edge_opt(g: CutGraph, t_sets: Sequence[Iterable[str]]
                              ) -> Optional[int]:
    """Minimum edge-deletion cost separating some pair inside every set."""

    def satisfied(gg: CutGraph) -> bool:
        for ts in t_sets:
            ts = list(ts)
            if not any(b not in reachable(gg, [a])
                       for a, b in itertools.combinations(ts, 2)):
                return False
        return True

    return _cheapest_edge_set(g, satisfied)


def djmc_cost(g: CutGraph, lists: Sequence[RequestList]) -> Optional[int]:
    """Minimum size of a deletable vertex set satisfying every request list."""

    def satisfied(cut: set) -> bool:
        for lst in lists:
            if not any(
                (len(p) == 1 and next(iter(p)) in cut)
                or (len(p) == 2 and separates(g, cut, *sorted(p)))
                for p in lst.pairs
            ):
                return False
        return True

    cut = _smallest(_deletable_vertices(g), satisfied)
    return None if cut is None else len(cut)


def triple_multicut_opt(g: CutGraph, triples: TripleSet) -> Optional[int]:
    """Minimum |Z_V| + cost(Z_T) over all feasible deletion pairs."""
    tri_list = list(triples)
    best = None
    for z_v in subsets(_deletable_vertices(g)):
        for chosen in subsets(tri_list):
            cost = len(z_v) + sum(m for _t, m in chosen)
            if best is not None and cost >= best:
                continue
            if triple_multicut_feasible(
                    g, triples, z_v, [t for t, _ in chosen]):
                best = cost
    return best


def hitting_set_opt(sets: Sequence[Iterable], universe: Iterable = ()
                    ) -> Optional[frozenset]:
    elems = sorted({x for s in sets for x in s} | set(universe))
    fams = [set(s) for s in sets]
    if any(not s for s in fams):
        return None
    return _smallest(elems, lambda cs: all(s & cs for s in fams))
