import itertools
import random

import pytest

from eqcut import djmc
from eqcut.cutgraph import CutGraph, RequestList, reachable
from eqcut.djmc import (
    compute_rv,
    family_mu,
    family_mu2,
    family_nu,
    list_satisfied,
    mu1,
    mu2,
    shadow_cover,
    simplify,
    solve_djmc,
)
from eqcut.instances import subsets
from eqcut.oracles import djmc_cost
from eqcut.solvers import steiner_2approx


def test_measures():
    lst = RequestList.of(("a", "b"), ("c",))
    mu, nu = family_mu([lst]), family_nu([lst])
    assert (mu1(lst), mu2(lst), mu, nu) == (1, 1, 4, 3)
    assert mu == len(lst) + 2 * mu2(lst)
    assert family_mu([]) == 0


def test_shadow_cover_contract():
    """Each cover is R = Y + reach(T, G - Y), one per candidate Y in
    subsets order; with Y empty on a connected graph R is every vertex."""
    g = CutGraph.build("xabt", [("x", "a"), ("a", "b"), ("b", "t")])
    covers = list(shadow_cover(g, ["x"], 2))
    ys = list(subsets(["a", "b", "t"], 2))
    assert covers == [frozenset(y) | reachable(g, ["x"], y) for y in ys]
    assert covers[0] == frozenset(g.vertices)


def test_compute_rv_cases():
    g = CutGraph.build(["x", "a", "b", "c"], [("x", "a"), ("a", "b")])
    assert compute_rv(g, set(), ["x"], "c") == frozenset()
    assert compute_rv(g, set(), ["x"], "a") == frozenset({"a"})
    assert compute_rv(g, {"b"}, ["x"], "b") == frozenset({"b"})
    assert compute_rv(g, {"x", "a"}, ["x"], "b") == frozenset({"a"})
    # an R_v drawn from a shadow boundary separates x from v
    g2 = CutGraph.build(["x", "p", "q", "v"],
                        [("x", "p"), ("p", "q"), ("q", "v")])
    rv = compute_rv(g2, {"x", "p"}, ["x"], "v")
    assert rv == frozenset({"p"})


def test_simplify_branch_invariants():
    g = CutGraph.build(["s", "m", "t", "u"],
                       [("s", "m"), ("m", "t"), ("t", "u")])
    lists = [RequestList.of(("s", "t"), ("u",)), RequestList.of(("s", "u"))]
    mu_in = family_mu(lists)
    nu_in = family_nu(lists)
    branches = list(simplify(g, lists, 2))
    assert branches
    for br in branches:
        assert len(br.graph.vertices) <= len(g.vertices)
        assert family_nu(br.lists) <= nu_in
        if br.lists:
            assert family_mu(br.lists) <= mu_in - 1
        assert len(br.lists) <= 4 * len(lists)
        assert br.budget == 4


def test_simplify_yields_distinct_branches():
    """A repeated branch would only re-run a search that already failed."""
    g = CutGraph.build(["s", "m", "t", "u"],
                       [("s", "m"), ("m", "t"), ("t", "u")])
    lists = [RequestList.of(("s", "t"), ("u",)), RequestList.of(("s", "u"))]
    branches = list(simplify(g, lists, 2))
    assert branches
    for a, b in itertools.combinations(branches, 2):
        assert a != b


def test_solve_djmc_examples():
    g = CutGraph.build("ab", [("a", "b")])
    assert solve_djmc(g, [], 1).accepted
    g2 = CutGraph.build("sabt", [("s", "a"), ("a", "b"), ("b", "t")])
    lists = [RequestList.of(("s", "t"))]
    res = solve_djmc(g2, lists, 1)
    assert res.accepted and all(list_satisfied(g2, res.solution, l)
                                for l in lists)
    # pure hitting set endgame
    g3 = CutGraph.build("abc", [])
    hs = [RequestList.of(("a",), ("b",)), RequestList.of(("b",), ("c",))]
    res = solve_djmc(g3, hs, 1)
    assert res.accepted and res.solution == frozenset({"b"})
    assert not solve_djmc(g3, [RequestList.of(("a",)),
                               RequestList.of(("b",))], 1).accepted


def test_solve_djmc_contract_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(4, 9)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.3]
        g = CutGraph.build(vs, edges)
        d = rng.choice([1, 2])
        lists = []
        for _ in range(rng.randint(1, 3)):
            pairs = []
            for _ in range(rng.randint(1, d)):
                if rng.random() < 0.25:
                    pairs.append((rng.choice(vs),))
                else:
                    pairs.append(tuple(rng.sample(vs, 2)))
            lists.append(RequestList.of(*pairs))
        k = rng.randint(0, 2)
        opt = djmc_cost(g, lists)
        res = solve_djmc(g, lists, k)
        if opt is not None and opt <= k:
            assert res.accepted
        if res.accepted:
            assert all(list_satisfied(g, res.solution, l) for l in lists)


def test_compression_guess_stays_within_the_budget(monkeypatch):
    # s and t are joined by 5 disjoint paths, so cutting them costs 5 > k;
    # the 30 isolated vertices must not widen the search for a compression
    # set past the budget (uncapped it tries every set of up to 5 of the
    # 35 deletable vertices)
    mids = [f"m{i}" for i in range(5)]
    free = [f"f{i}" for i in range(30)]
    g = CutGraph.build(["s", "t", *mids, *free],
                       [e for m in mids for e in (("s", m), (m, "t"))],
                       undeletable={"s", "t"})
    checks, list_check = [], djmc._list_check

    def counting_check(*args):
        checks.append(args)
        return list_check(*args)

    monkeypatch.setattr(djmc, "_list_check", counting_check)
    assert not solve_djmc(g, [RequestList.of(("s", "t"))], 1).accepted
    assert len(checks) <= 1 + 1 + len(mids) + len(free)


def test_solve_djmc_undeletable_singletons():
    g = CutGraph.build("ab", [], undeletable={"a"})
    res = solve_djmc(g, [RequestList.of(("a",))], 3)
    assert not res.accepted


@pytest.mark.parametrize("request_pair", [("a", "zz"), ("zz",)])
def test_solve_djmc_rejects_a_request_vertex_outside_the_graph(request_pair):
    g = CutGraph.build("ab", [("a", "b")])
    lists = [RequestList.of(("a", "b")), RequestList.of(request_pair)]
    with pytest.raises(ValueError, match="request vertex 'zz'"):
        solve_djmc(g, lists, 1)


def _random_lists(rng, vs, count):
    lists = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.25:
                pairs.append((rng.choice(vs),))
            else:
                pairs.append(tuple(rng.sample(vs, 2)))
        lists.append(RequestList.of(*pairs))
    return lists


def test_hub_names_avoid_user_vertices():
    """User vertices named like contraction hubs change no verdict.

    The renaming keeps insertion and sort order, so the solvers make the
    same choices on both graphs and return the same cuts up to renaming.
    """
    rename = {"#h0": "#g0", "#hub0": "#q0"}
    back = {new: old for old, new in rename.items()}

    def renamed(names):
        return [rename.get(v, v) for v in names]

    rng = random.Random(5)
    for _ in range(40):
        vs = ["#h0", "#hub0"] + [f"v{i}" for i in range(rng.randint(3, 6))]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.4]
        g = CutGraph.build(vs, edges)
        g_r = CutGraph.build(renamed(vs), [renamed(e) for e in edges])
        # sets that hold #hub0 but not #h0 put #hub0 into the compression
        # set behind another class
        t_sets = [rng.sample(vs[1:], rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        k = rng.randint(1, 2)
        out = steiner_2approx(g, t_sets, k)
        out_r = steiner_2approx(g_r, [renamed(ts) for ts in t_sets], k)
        assert (out is None) == (out_r is None)
        if out is not None:
            assert out == {back.get(v, v) for v in out_r}
        lists = _random_lists(rng, vs, rng.randint(1, 3))
        lists_r = [RequestList(frozenset(frozenset(renamed(p)) for p in l.pairs))
                   for l in lists]
        res = solve_djmc(g, lists, k)
        res_r = solve_djmc(g_r, lists_r, k)
        assert res.accepted == res_r.accepted
        assert res.solution == {back.get(v, v) for v in res_r.solution}


def test_solve_djmc_repeatable():
    """No state carries from one solve to the next."""
    rng = random.Random(41)
    vs = [f"v{i}" for i in range(7)]
    cases = []
    for _ in range(6):
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.35]
        cases.append((CutGraph.build(vs, edges),
                      _random_lists(rng, vs, rng.randint(1, 3)),
                      rng.randint(1, 2)))
    first = [solve_djmc(g, lists, k) for g, lists, k in cases]
    again = [solve_djmc(g, lists, k) for g, lists, k in reversed(cases)]
    assert first == again[::-1]
    assert any(res.accepted for res in first)
