"""Disjunctive Multicut: Simplify iterations plus the hitting-set endgame.

Each Simplify call is a branch stream: the iterative-compression guesses, a
multiway-cut normalization, a deterministic stand-in for randomized shadow
covering (one branch per candidate transversal, with its exact shadow), and
the per-list rewrite rules in the only cases that exact cover reaches.  The
main loop doubles the budget per iteration and verifies the assembled
solution against the original instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cutgraph import (
    CutGraph,
    RequestList,
    check_vertices,
    component_labels,
    multiway_cut,
    reachable,
)
from .relations import subsets
from .solvers import compression_guesses, hitting_set_branch


def mu1(lst: RequestList) -> int:
    return sum(1 for p in lst.pairs if len(p) == 1)


def mu2(lst: RequestList) -> int:
    return sum(1 for p in lst.pairs if len(p) == 2)


def family_mu(lists: Sequence[RequestList]) -> int:
    """The largest mu = mu1 + 3 mu2 over the lists, 0 for none."""
    return max((mu1(l) + 3 * mu2(l) for l in lists), default=0)


def family_mu2(lists: Sequence[RequestList]) -> int:
    return max((mu2(l) for l in lists), default=0)


def family_nu(lists: Sequence[RequestList]) -> int:
    """The largest nu = mu1 + 2 mu2 over the lists, 0 for none."""
    return max((mu1(l) + 2 * mu2(l) for l in lists), default=0)


def _list_check(g: CutGraph, cut: Iterable[str]
                ) -> Callable[[RequestList], bool]:
    """Whether the cut fulfills some request of a list, for any number of
    lists: it holds a singleton, or a pair's ends get different labels in
    one component labelling of G - cut, where a cut vertex has a label of
    its own.  Each component is searched at most once; the cut holds
    vertices of g only."""
    cut = set(cut)
    label = component_labels(g, cut)

    def check(lst: RequestList) -> bool:
        for p in lst.pairs:
            if len(p) == 1:
                if next(iter(p)) in cut:
                    return True
            else:
                s, t = p
                if label(s) != label(t):
                    return True
        return False

    return check


def list_satisfied(g: CutGraph, cut: Iterable[str], lst: RequestList) -> bool:
    """``_list_check`` for one list."""
    return _list_check(g, cut)(lst)


# ---------------------------------------------------------------------------
# Shadow covering, deterministic desk-scale variant.


def shadow_cover(g: CutGraph, t_set: Sequence[str], k: int
                 ) -> Iterator[frozenset]:
    """Branch stream of shadow-covering sets, as their complements R.

    Enumerates every candidate transversal Y of size at most k and emits
    R = V - shadow(Y): Y and the vertices that reach the T set in G - Y.
    The shadow is exact, so the covering contract holds with certainty.
    """
    targets = set(t_set)
    candidates = [v for v in g.vertices
                  if g.deletable(v) and v not in targets]
    for y in subsets(candidates, k):
        yield frozenset(reachable(g, t_set, y)).union(y)


def compute_rv(g: CutGraph, r_set: Iterable[str], x_set: Iterable[str],
               v: str) -> frozenset:
    """The canonical X-v separator drawn from R: empty when v cannot reach X,
    v itself when v is next to X or inside R, else R's boundary around the
    shadow component of v."""
    x_set = set(x_set)
    if v not in x_set and not (reachable(g, [v]) & x_set):
        return frozenset()
    return _rv_near_x(g, x_set, v) or _rv_from_r(g, r_set, v)


def _rv_near_x(g: CutGraph, x_set: set, v: str) -> Optional[frozenset]:
    """compute_rv for a v that reaches X, where it does not look at R: {v}
    when v is in X or next to it, else None."""
    idx = g._index
    if v in x_set or any(idx.names[u] in x_set for u in idx.nbrs[idx.pos[v]]):
        return frozenset({v})
    return None


def _rv_from_r(g: CutGraph, r_set: Iterable[str], v: str) -> frozenset:
    """compute_rv for a v outside X that reaches X but is not next to it:
    the part that looks at R."""
    idx = g._index
    in_r = idx.mark(r_set)
    i = idx.pos[v]
    if in_r[i]:
        return frozenset({v})
    names, nbrs = idx.names, idx.nbrs
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


def _rule_plan(g3: CutGraph, lists: Sequence[RequestList], x2: Sequence[str]
               ) -> list:
    """The part of rules R1-R4 that no shadow cover changes, for one guess.

    Per list, either its R1-shortened form, or the separated pair (s, t),
    the other pairs, and R_s and R_t where they do not depend on R (None
    where they do).  The pair always exists: X satisfies every list, the
    lists met by W or M are gone, and R1 drops the hub singletons that a
    request on X - W or a pair inside one class became; any other request X
    settles is a pair the hubs separate in g3.  Both its ends reach X, as M
    leaves them joined in g3, so compute_rv's empty case never arises here.
    """
    x2set = set(x2)
    label = component_labels(g3, x2set)
    joined = component_labels(g3, ())
    plan: list = []
    for lst in lists:
        shortened = RequestList(frozenset(
            p for p in lst.pairs if not (len(p) == 1 and next(iter(p)) in x2set)))
        if shortened.pairs != lst.pairs:
            plan.append(shortened)
            continue
        pairs = [sorted(p) for p in sorted(lst.pairs, key=sorted) if len(p) == 2]
        chosen = next(((s, t) for s, t in pairs if label(s) != label(t)), None)
        assert chosen is not None, "the compression set fails a list"
        s, t = chosen
        assert joined(s) == joined(t), "M satisfies a list it was kept for"
        rest = frozenset(p for p in lst.pairs if p != frozenset({s, t}))
        plan.append((s, t, rest, _rv_near_x(g3, x2set, s),
                     _rv_near_x(g3, x2set, t)))
    return plan


def _apply_rules(g3: CutGraph, plan: list, r_set: frozenset, k: int
                 ) -> list[RequestList]:
    """Rules R1-R4 for one shadow cover, whose complement is R.

    Only the case where both R_s and R_t fit the budget arises: R_v is {v},
    or the neighbours of v's component in G - Y, which all lie in the
    transversal Y (one outside Y that reached T would put v in R).  At
    k = 0, X is empty only when every list is met: there is no plan step.
    """
    out: list[RequestList] = []
    for step in plan:
        if isinstance(step, RequestList):
            out.append(step)
            continue
        s, t, rest, rs, rt = step
        if rs is None:
            rs = _rv_from_r(g3, r_set, s)
        if rt is None:
            rt = _rv_from_r(g3, r_set, t)
        assert len(rs) <= k and len(rt) <= k, "a separator outgrew the budget"
        for a in sorted(rs):
            for b in sorted(rt):
                out.append(RequestList(rest | {frozenset({a}), frozenset({b})}))
    return out


def simplify(g: CutGraph, lists: Sequence[RequestList], k: int
             ) -> Iterator[SimplifyBranch]:
    """Branch stream over (W, partition, shadow cover) guesses.

    Each emitted branch satisfies |V'| <= |V|, nu' <= nu, mu' <= mu - 1 and
    |L'| <= k^2 |L|; on some branch the cost at most doubles whenever the
    input cost is within k.  The covers of one (W, partition) guess share
    the graph, the deleted set and the budget, so a guess emits each
    distinct list family once.
    """
    compression = _oracle_compression(g, lists, k)
    if compression is None:
        return
    mu_in = family_mu(lists)
    nu_in = family_nu(lists)

    for w, contractions in compression_guesses(g, sorted(compression), k):
        w_check = _list_check(g, w)
        l1 = [l for l in lists if not w_check(l)]
        for g2, hubs, renaming in contractions:
            l2 = [_rename_list(l, renaming) for l in l1]
            m = multiway_cut(g2, hubs, k) if len(hubs) > 1 else frozenset()
            if m is None:
                continue
            g3 = g2.without(m)
            m_check = _list_check(g2, m)
            l3 = [l for l in l2 if not m_check(l)]
            plan = _rule_plan(g3, l3, hubs)
            seen = set()
            for r_set in shadow_cover(g3, hubs, k):
                out_lists = tuple(_apply_rules(g3, plan, r_set, k))
                if out_lists in seen:
                    continue
                seen.add(out_lists)
                assert len(g3.vertices) <= len(g.vertices)
                assert family_nu(out_lists) <= nu_in
                if out_lists:
                    assert family_mu(out_lists) <= mu_in - 1
                assert len(out_lists) <= max(1, k * k) * max(1, len(lists))
                yield SimplifyBranch(g3, out_lists, 2 * k, frozenset(w | m))


def _rename_list(lst: RequestList, renaming: dict) -> RequestList:
    return RequestList(frozenset(frozenset(renaming.get(v, v) for v in p)
                                 for p in lst.pairs))


def _oracle_compression(g: CutGraph, lists: Sequence[RequestList], k: int
                        ) -> Optional[frozenset]:
    """A least set of <= k deletable vertices meeting every list, or None."""
    dels = [v for v in g.vertices if g.deletable(v)]
    return next((frozenset(cut) for cut in subsets(dels, k)
                 if all(map(_list_check(g, cut), lists))), None)


# ---------------------------------------------------------------------------
# Main loop.


@dataclass
class DjmcResult:
    accepted: bool
    solution: frozenset = frozenset()
    factor_bound: int = 0


def solve_djmc(g: CutGraph, lists: Sequence[RequestList], k: int) -> DjmcResult:
    """Iterate Simplify while non-singleton requests remain, then finish by
    hitting-set branching; the assembled solution is verified feasible.
    ValueError for a request vertex that is not a vertex of g."""
    lists = list(lists)
    check_vertices(g, (v for l in lists for p in l.pairs for v in p),
                   "request vertex")
    if k < 0:
        return DjmcResult(False)
    depth_bound = 3 * max((len(l) for l in lists), default=1) + 1

    def rec(gg: CutGraph, ll: list[RequestList], budget: int, depth: int
            ) -> Optional[frozenset]:
        check = _list_check(gg, ())
        ll = [l for l in ll if not check(l)]
        if not ll:
            return frozenset()
        if family_mu2(ll) == 0:  # the endgame: hit each list's singletons
            return hitting_set_branch(
                [{v for p in l.pairs if len(p) == 1 for v in p
                  if gg.deletable(v)} for l in ll], budget)
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
