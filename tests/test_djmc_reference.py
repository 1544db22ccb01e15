"""Differential tests of the Disjunctive Multicut solver against a reference.

The reference keeps the plain form of Simplify: it builds each shadow
cover from the shadow's definition, rules R1-R4 run in full for every
cover, every branch is emitted, and the main loop explores each one.  The solver emits each distinct branch of a guess once
and does the cover-independent rule work once per guess; its stream must
be the reference stream with the repeats of each guess removed, and its
answers must be the reference's.
"""

import itertools
import random

import pytest

from eqcut.cutgraph import (
    CutGraph,
    RequestList,
    multiway_cut,
    reachable,
    separates,
)
from eqcut.djmc import (
    DjmcResult,
    SimplifyBranch,
    _list_check,
    compute_rv,
    family_mu2,
    list_satisfied,
    simplify,
    solve_djmc,
)
from eqcut.instances import subsets
from eqcut.solvers import compression_guesses, hitting_set_branch


def _reference_rules(g3, lists, x2, r_set, k):
    """R1-R4 for one cover; None when the compression set fails a list."""
    out = []
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
            return None
        s, t = chosen
        rs = compute_rv(g3, r_set, x2set, s)
        rt = compute_rv(g3, r_set, x2set, t)
        rest = frozenset(p for p in lst.pairs if p != frozenset({s, t}))
        big_s, big_t = len(rs) > k, len(rt) > k
        if big_s and big_t:
            out.append(RequestList(rest))
        elif not big_s and big_t:
            out.extend(RequestList(rest | {frozenset({a})}) for a in sorted(rs))
        elif big_s and not big_t:
            out.extend(RequestList(rest | {frozenset({b})}) for b in sorted(rt))
        else:
            out.extend(RequestList(rest | {frozenset({a}), frozenset({b})})
                       for a in sorted(rs) for b in sorted(rt))
    return out


def _reference_covers(g, t_set, k):
    """For each Y of at most k deletable non-terminals, in subsets order:
    V minus the shadow of Y, the vertices outside Y that cannot reach the
    T set in G - Y."""
    cands = [v for v in g.vertices if g.deletable(v) and v not in t_set]
    for y in subsets(cands, k):
        shadow = {v for v in g.vertices if v not in y and
                  not any(t in reachable(g, [v], y) for t in t_set)}
        yield frozenset(g.vertices) - shadow


def _reference_simplify(g, lists, k):
    """(guess number, branch) for every cover of every guess."""
    dels = [v for v in g.vertices if g.deletable(v)]
    compression = next((frozenset(cut) for cut in subsets(dels, k)
                        if all(list_satisfied(g, set(cut), l) for l in lists)), None)
    if compression is None:
        return
    guess = 0
    for w, contractions in compression_guesses(g, sorted(compression), k):
        l1 = [l for l in lists if not list_satisfied(g, w, l)]
        for g2, hubs, renaming in contractions:
            guess += 1
            l2 = [RequestList(frozenset(frozenset(renaming.get(v, v) for v in p)
                                        for p in l.pairs)) for l in l1]
            m = multiway_cut(g2, hubs, k) if len(hubs) > 1 else frozenset()
            if m is None:
                continue
            g3 = g2.without(m)
            l3 = [l for l in l2 if not list_satisfied(g2, m, l)]
            for r_set in _reference_covers(g3, hubs, k):
                new_lists = _reference_rules(g3, l3, hubs, r_set, k)
                if new_lists is not None:
                    yield guess, SimplifyBranch(g3, tuple(new_lists), 2 * k,
                                                frozenset(w | m))


def _reference_solve(g, lists, k):
    lists = list(lists)
    depth_bound = 3 * max((len(l) for l in lists), default=1) + 1

    def rec(gg, ll, budget, depth):
        ll = [l for l in ll if not list_satisfied(gg, set(), l)]
        if not ll:
            return frozenset()
        if family_mu2(ll) == 0:
            return hitting_set_branch(
                [{v for p in l.pairs if len(p) == 1 for v in p if gg.deletable(v)}
                 for l in ll], budget)
        if depth > depth_bound:
            return None
        for _guess, branch in _reference_simplify(gg, ll, budget):
            sub = rec(branch.graph, list(branch.lists), branch.budget, depth + 1)
            if sub is not None:
                return frozenset(branch.deleted | sub)
        return None

    out = rec(g, lists, k, 0)
    if out is None:
        return DjmcResult(False)
    return DjmcResult(True, out, factor_bound=(1 << depth_bound) * max(k, 1))


def _random_case(rng):
    n = rng.randint(4, 10)
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < 0.35]
    undeletable = [v for v in vs if rng.random() < 0.15]
    g = CutGraph.build(vs, edges, undeletable)
    d = rng.choice([1, 2])
    lists = []
    for _ in range(rng.randint(1, 3)):
        pairs = [(rng.choice(vs),) if rng.random() < 0.25 else tuple(rng.sample(vs, 2))
                 for _ in range(rng.randint(1, d))]
        lists.append(RequestList.of(*pairs))
    return g, lists, rng.randint(0, 3)


CASES = [_random_case(random.Random(seed)) for seed in range(300)]


def _fields(branch):
    return branch.graph, branch.lists, branch.budget, branch.deleted


@pytest.mark.parametrize("chunk", range(6))
def test_simplify_stream_is_reference_without_repeats(chunk):
    for g, lists, k in CASES[chunk::6]:
        seen, expected = set(), []
        for guess, branch in _reference_simplify(g, lists, k):
            if (guess, branch.lists) not in seen:
                seen.add((guess, branch.lists))
                expected.append(_fields(branch))
        assert [_fields(b) for b in simplify(g, lists, k)] == expected


@pytest.mark.parametrize("chunk", range(6))
def test_solve_djmc_matches_reference(chunk):
    for g, lists, k in CASES[chunk::6]:
        assert solve_djmc(g, lists, k) == _reference_solve(g, lists, k)


def test_list_check_matches_list_satisfied():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 8))
        vs = [f"v{i}" for i in range(n)]
        all_pairs = list(itertools.combinations(vs, 2))
        edges = data.draw(st.lists(st.sampled_from(all_pairs), max_size=2 * n))
        g = CutGraph.build(vs, edges)
        cut = data.draw(st.sets(st.sampled_from(vs)))
        request = st.one_of(st.sampled_from(vs).map(lambda v: (v,)),
                            st.sampled_from(all_pairs))
        lists = data.draw(st.lists(
            st.lists(request, min_size=1, max_size=3).map(lambda ps: RequestList.of(*ps)),
            max_size=4))
        ok = _list_check(g, cut)
        for lst in lists:
            # one `separates` search per pair, membership counting
            want = any(next(iter(p)) in cut if len(p) == 1
                       else separates(g, cut, *sorted(p)) for p in lst.pairs)
            assert ok(lst) == list_satisfied(g, cut, lst) == want

    check()
