"""Disjunctive Multicut: Simplify iterations plus the hitting-set endgame.

Each Simplify call is a branch stream: the iterative-compression guesses, a
multiway-cut normalization, a deterministic stand-in for randomized shadow
covering (one branch per candidate transversal), and the four per-list
rewrite rules.  The main loop doubles the budget per iteration and verifies
the assembled solution against the original instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .cutgraph import (
    CutGraph,
    RequestList,
    multiway_cut,
    reachable,
    separates,
    shadow,
)
from .instances import subsets
from .solvers import compression_guesses, hitting_set_branch


def mu1(lst: RequestList) -> int:
    return sum(1 for p in lst.pairs if len(p) == 1)


def mu2(lst: RequestList) -> int:
    return sum(1 for p in lst.pairs if len(p) == 2)


@dataclass(frozen=True)
class ListMeasure:
    mu1: int
    mu2: int

    @property
    def mu(self) -> int:
        return self.mu1 + 3 * self.mu2

    @property
    def nu(self) -> int:
        return self.mu1 + 2 * self.mu2

    @staticmethod
    def of(lst: RequestList) -> "ListMeasure":
        return ListMeasure(mu1(lst), mu2(lst))


def family_mu(lists: Sequence[RequestList]) -> int:
    return max((ListMeasure.of(l).mu for l in lists), default=0)


def family_mu2(lists: Sequence[RequestList]) -> int:
    return max((mu2(l) for l in lists), default=0)


def family_nu(lists: Sequence[RequestList]) -> int:
    return max((ListMeasure.of(l).nu for l in lists), default=0)


def list_satisfied(g: CutGraph, cut: Iterable[str], lst: RequestList) -> bool:
    cut = set(cut)
    for p in lst.pairs:
        if len(p) == 1:
            if next(iter(p)) in cut:
                return True
        else:
            s, t = sorted(p)
            if separates(g, cut, s, t):
                return True
    return False


# ---------------------------------------------------------------------------
# Shadow covering, deterministic desk-scale variant.


@dataclass(frozen=True)
class ShadowCoverResult:
    s_set: frozenset
    r_set: frozenset
    transversal: frozenset  # the candidate this branch is built for

    def contract_ok(self, g: CutGraph, t_set: Iterable[str]) -> bool:
        y = self.transversal
        if y & self.s_set:
            return False
        for v in self.r_set - y:
            if v not in reachable(g, [t for t in t_set if t not in y], y):
                return False
        return True


def shadow_cover(g: CutGraph, t_set: Sequence[str], k: int
                 ) -> Iterator[ShadowCoverResult]:
    """Branch stream of shadow-covering sets.

    Enumerates every candidate transversal Y of size at most k and emits
    the exact shadow of Y, which satisfies the covering contract with
    certainty.
    """
    candidates = [v for v in g.vertices
                  if g.deletable(v) and v not in set(t_set)]
    for y in subsets(candidates, k):
        y = frozenset(y)
        s_set = frozenset(shadow(g, y, t_set))
        yield ShadowCoverResult(s_set, frozenset(g.vertices) - s_set, y)


def compute_rv(g: CutGraph, r_set: Iterable[str], x_set: Iterable[str],
               v: str) -> frozenset:
    """The canonical X-v separator drawn from R: empty when v cannot reach X,
    v itself when v is next to X or inside R, else R's boundary around the
    shadow component of v."""
    x_set, r_set = set(x_set), set(r_set)
    if v in x_set:
        return frozenset({v})
    if not (reachable(g, [v]) & x_set):
        return frozenset()
    idx = g._index
    names, nbrs = idx.names, idx.nbrs
    i = idx.pos[v]
    if any(names[u] in x_set for u in nbrs[i]) or v in r_set:
        return frozenset({v})
    in_r = idx.mark(r_set)
    comp = idx.visit([i], bytearray(in_r))
    return frozenset(names[w] for u in comp for w in nbrs[u] if in_r[w])


# ---------------------------------------------------------------------------
# Simplify.


@dataclass
class SimplifyBranch:
    graph: CutGraph
    lists: tuple
    budget: int
    deleted: frozenset          # W union M, in original vertex names


class MeasureViolation(AssertionError):
    pass


def _apply_rules(g3: CutGraph, lists: Sequence[RequestList], x2: Sequence[str],
                 r_set: frozenset, k: int) -> list[RequestList]:
    out: list[RequestList] = []
    x2set = set(x2)
    for lst in lists:
        shortened = RequestList(frozenset(
            p for p in lst.pairs if not (len(p) == 1 and next(iter(p)) in x2set)))
        if shortened.pairs != lst.pairs:
            out.append(shortened)
            continue
        chosen = None
        for p in sorted(lst.pairs, key=sorted):
            if len(p) != 2:
                continue
            s, t = sorted(p)
            if s in x2set or t in x2set or separates(g3, x2set, s, t):
                chosen = (s, t)
                break
        if chosen is None:
            # the compression set no longer satisfies this list: the guess
            # is off; keep the list unchanged minus nothing is unsound for
            # the measure, so drop the branch by signalling
            raise MeasureViolation("compression set fails a list")
        s, t = chosen
        rs = compute_rv(g3, r_set, x2set, s)
        rt = compute_rv(g3, r_set, x2set, t)
        rest = frozenset(p for p in lst.pairs if p != frozenset({s, t}))
        big_s, big_t = len(rs) > k, len(rt) > k
        if big_s and big_t:
            out.append(RequestList(rest))
        elif not big_s and big_t:
            for a in sorted(rs):
                out.append(RequestList(rest | {frozenset({a})}))
        elif big_s and not big_t:
            for b in sorted(rt):
                out.append(RequestList(rest | {frozenset({b})}))
        else:
            for a in sorted(rs):
                for b in sorted(rt):
                    out.append(RequestList(rest | {frozenset({a}),
                                                   frozenset({b})}))
    return out


def simplify(g: CutGraph, lists: Sequence[RequestList], k: int
             ) -> Iterator[SimplifyBranch]:
    """Branch stream over (W, partition, shadow cover) guesses.

    Each emitted branch satisfies |V'| <= |V|, nu' <= nu, mu' <= mu - 1 and
    |L'| <= k^2 |L|; on some branch the cost at most doubles whenever the
    input cost is within k.
    """
    compression = _oracle_compression(g, lists)
    if compression is None:
        return
    mu_in = family_mu(lists)
    nu_in = family_nu(lists)

    for w, contractions in compression_guesses(g, sorted(compression), k):
        l1 = [l for l in lists if not list_satisfied(g, w, l)]
        for g2, hubs, renaming in contractions:
            l2 = [_rename_list(l, renaming) for l in l1]
            m = multiway_cut(g2, hubs, k) if len(hubs) > 1 else frozenset()
            if m is None:
                continue
            g3 = g2.without(m)
            l3 = [l for l in l2 if not list_satisfied(g2, m, l)]
            for cover in shadow_cover(g3, hubs, k):
                try:
                    new_lists = _apply_rules(g3, l3, hubs, cover.r_set, k)
                except MeasureViolation:
                    continue
                out_lists = tuple(new_lists)
                assert len(g3.vertices) <= len(g.vertices)
                assert family_nu(out_lists) <= nu_in
                if out_lists:
                    assert family_mu(out_lists) <= mu_in - 1
                assert len(out_lists) <= max(1, k * k) * max(1, len(lists))
                yield SimplifyBranch(g3, out_lists, 2 * k, frozenset(w | m))


def _rename_list(lst: RequestList, renaming: dict) -> RequestList:
    pairs = []
    for p in lst.pairs:
        pairs.append(frozenset(renaming.get(v, v) for v in p))
    return RequestList(frozenset(pairs))


def _oracle_compression(g: CutGraph, lists: Sequence[RequestList]
                        ) -> Optional[frozenset]:
    dels = [v for v in g.vertices if g.deletable(v)]
    return next((frozenset(cut) for cut in subsets(dels)
                 if all(list_satisfied(g, set(cut), l) for l in lists)), None)


# ---------------------------------------------------------------------------
# Main loop.


@dataclass
class DjmcResult:
    accepted: bool
    solution: frozenset = frozenset()
    factor_bound: int = 0


def solve_djmc(g: CutGraph, lists: Sequence[RequestList], k: int) -> DjmcResult:
    """Iterate Simplify while non-singleton requests remain, then finish by
    hitting-set branching; the assembled solution is verified feasible."""
    lists = list(lists)
    depth_bound = 3 * max((len(l) for l in lists), default=1) + 1

    def endgame(gg: CutGraph, ll: Sequence[RequestList], budget: int
                ) -> Optional[frozenset]:
        sets = []
        for lst in ll:
            elems = {next(iter(p)) for p in lst.pairs if len(p) == 1}
            elems = {v for v in elems if gg.deletable(v)}
            # non-singleton leftovers cannot appear here
            sets.append(elems)
        hs = hitting_set_branch(sets, budget)
        return hs

    def rec(gg: CutGraph, ll: list[RequestList], budget: int, depth: int
            ) -> Optional[frozenset]:
        ll = [l for l in ll if not list_satisfied(gg, set(), l)]
        if not ll:
            return frozenset()
        if family_mu2(ll) == 0:
            return endgame(gg, ll, budget)
        if depth > depth_bound:
            return None
        for branch in simplify(gg, ll, budget):
            sub = rec(branch.graph, list(branch.lists), branch.budget,
                      depth + 1)
            if sub is not None:
                return frozenset(branch.deleted | sub)
        return None

    out = rec(g, lists, k, 0)
    if out is None:
        return DjmcResult(False)
    assert all(list_satisfied(g, out, l) for l in lists)
    return DjmcResult(True, out, factor_bound=(1 << depth_bound) * max(k, 1))
