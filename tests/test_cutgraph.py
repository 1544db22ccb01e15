import itertools
import random

import pytest

from eqcut.cutgraph import (
    CutGraph,
    RequestList,
    TripleSet,
    components,
    important_separators,
    min_vertex_separator,
    multiway_cut,
    reachable,
    separates,
)
from eqcut.oracles import _deletable_vertices, _smallest, edge_multicut_opt


# Exhaustive references for the cut primitives, by subset enumeration.


def vertex_multicut_opt(g, requests):
    return _smallest(_deletable_vertices(g), lambda cut: all(
        separates(g, cut, s, t) for s, t in requests))


def multiway_cut_opt(g, terminals):
    groups = [frozenset({t}) if isinstance(t, str) else frozenset(t)
              for t in terminals]
    pairs = [(a, b)
             for (i, grp1), (j, grp2) in itertools.combinations(enumerate(groups), 2)
             for a in grp1 for b in grp2 if i != j]
    dels = [v for v in _deletable_vertices(g)
            if all(v not in grp for grp in groups)]
    return _smallest(dels, lambda cut: all(
        t not in reachable(g, [s], cut) for s, t in pairs))


def all_min_separators(g, s, targets, cut_targets=True):
    """All minimum s-target separators (vertex sets)."""
    dels = [v for v in _deletable_vertices(g) if v != s]
    if not cut_targets:
        dels = [v for v in dels if v not in targets]

    def ok(cut):
        return all(separates(g, cut, s, t) for t in targets)

    first = _smallest(dels, ok)
    if first is None:
        return []
    return [frozenset(rm) for rm in itertools.combinations(dels, len(first))
            if ok(set(rm))]


def test_components():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c")])
    assert {frozenset(c) for c in components(g, {"b"})} == \
        {frozenset({"a"}), frozenset({"c"})}
    assert components(g) == [frozenset({"a", "b", "c"})]
    star = CutGraph.build(["c", "l1", "l2", "l3"],
                          [("c", "l1"), ("c", "l2"), ("c", "l3")])
    assert sorted(len(c) for c in components(star, {"c"})) == [1, 1, 1]
    gu = g.make_undeletable(["b"])
    with pytest.raises(ValueError):
        components(gu, {"b"})


def test_min_separator_examples():
    g = CutGraph.build("sat", [("s", "a"), ("a", "t")])
    assert min_vertex_separator(g, "s", ["t"]) == frozenset({"a"})
    g2 = CutGraph.build(["s", "a", "b", "t"],
                        [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])
    assert len(min_vertex_separator(g2, "s", ["t"])) == 2
    g3 = CutGraph.build(["s", "t"], [("s", "t")], undeletable={"t"})
    assert min_vertex_separator(g3, "s", ["t"]) is None
    g4 = CutGraph.build(["s", "t"], [("s", "t")])
    assert min_vertex_separator(g4, "s", ["t"], cut_targets=True) == \
        frozenset({"t"})


def test_closest_min_separator_examples():
    g = CutGraph.build("vxyw", [("v", "x"), ("x", "y"), ("y", "w")])
    assert min_vertex_separator(g, "v", ["w"]) == frozenset({"x"})
    g2 = CutGraph.build(["v", "w"], [])
    assert min_vertex_separator(g2, "v", ["w"]) == frozenset()
    g3 = CutGraph.build(["v", "w"], [("v", "w")])
    assert min_vertex_separator(g3, "v", ["w"]) is None


def test_closest_min_separator_random():
    """min_vertex_separator returns the minimum separator closest to s."""
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(4, 10)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.3]
        g = CutGraph.build(vs, edges)
        s, t = rng.sample(vs, 2)
        seps = all_min_separators(g, s, [t], cut_targets=False)
        mine = min_vertex_separator(g, s, [t])
        if not seps:
            assert mine is None
            continue
        assert mine in seps
        side = reachable(g, [s], mine)
        for other in seps:
            assert side <= reachable(g, [s], other)


def test_important_separators_examples():
    gp = CutGraph.build("xay", [("x", "a"), ("a", "y")])
    assert important_separators(gp, ["x"], ["y"], 2) == [frozenset({"a"})]
    gp2 = CutGraph.build("xaby", [("x", "a"), ("a", "b"), ("b", "y")])
    assert important_separators(gp2, ["x"], ["y"], 1) == [frozenset({"b"})]
    assert important_separators(gp, ["x"], ["y"], 0) == []
    # the larger {a1, a2, b} is important too: its X-side {x, a} is maximal
    gp3 = CutGraph.build(["x", "a", "b", "a1", "a2", "y"],
                         [("x", "a"), ("x", "b"), ("a", "a1"), ("a", "a2"),
                          ("a1", "y"), ("a2", "y"), ("b", "y")])
    assert important_separators(gp3, ["x"], ["y"], 3) == [
        frozenset({"a", "b"}), frozenset({"a1", "a2", "b"})]


def _important_oracle(g, xs, ys, k):
    xset, yset = set(xs), set(ys)
    dels = [v for v in g.vertices
            if g.deletable(v) and v not in xset and v not in yset]
    seps = []
    for size in range(0, k + 1):
        for rm in itertools.combinations(dels, size):
            cut = set(rm)
            if any(y in reachable(g, xs, cut) for y in ys):
                continue
            if any(not any(y in reachable(g, xs, cut - {v}) for y in ys)
                   for v in cut):
                continue
            seps.append(frozenset(cut))
    out = []
    for s in seps:
        rs = reachable(g, xs, s)
        if any(len(o) <= len(s) and o != s and rs < reachable(g, xs, o)
               for o in seps):
            continue
        if any(len(o) < len(s) and reachable(g, xs, o) == rs for o in seps):
            continue
        out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_important_separators_random_exact():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.4]
        g = CutGraph.build(vs, edges)
        x, y = rng.sample(vs, 2)
        k = rng.randint(0, 3)
        mine = sorted(important_separators(g, [x], [y], k),
                      key=lambda s: (len(s), sorted(s)))
        want = _important_oracle(g, [x], [y], k)
        assert mine == want
        assert len(mine) <= 4 ** max(k, 1)


def test_multiway_cut_examples():
    g = CutGraph.build(["t1", "t2", "t3", "m"],
                       [("t1", "m"), ("t2", "m"), ("t3", "m")])
    assert multiway_cut(g, ["t1", "t2", "t3"], 1) == frozenset({"m"})
    g2 = CutGraph.build(["t1", "t2"], [])
    assert multiway_cut(g2, ["t1", "t2"], 0) == frozenset()


def test_multiway_cut_random_optimal():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(4, 10)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.32]
        ts = rng.sample(vs, min(3, n))
        g = CutGraph.build(vs, edges).make_undeletable(ts)
        opt = multiway_cut_opt(g, ts)
        mine = multiway_cut(g, ts, 4)
        if opt is not None and len(opt) <= 4:
            assert mine is not None and len(mine) == len(opt)
        else:
            assert mine is None


def test_multiway_cut_random_groups_optimal():
    """Terminal groups of one or two vertices that start out deletable: the
    cut keeps every terminal, and each group may stay connected or not."""
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(5, 10)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.35]
        g = CutGraph.build(vs, edges, [v for v in vs if rng.random() < 0.15])
        picked = rng.sample(vs, rng.randint(3, 5))
        cuts = sorted(rng.sample(range(1, len(picked)), 2))
        terminals = [picked[a:b] for a, b in
                     zip([0, *cuts], [*cuts, len(picked)])]
        terminals = [grp[0] if len(grp) == 1 and rng.random() < 0.5 else grp
                     for grp in terminals]
        k = rng.randint(0, 3)
        opt = multiway_cut_opt(g, terminals)
        mine = multiway_cut(g, terminals, k)
        if opt is not None and len(opt) <= k:
            assert mine is not None and len(mine) == len(opt)
            assert not mine & set(picked)
            assert multiway_cut_opt(g.without(mine), terminals) == frozenset()
        else:
            assert mine is None


def test_multiway_cut_rejects_a_terminal_outside_the_graph():
    g = CutGraph.build("ab", [("a", "b")])
    with pytest.raises(ValueError, match="terminal 'zz'"):
        multiway_cut(g, ["a", ["b", "zz"]], 1)


def test_graph_plumbing():
    g = CutGraph.build("ab", [("a", "b", 2)])
    assert g.edges[frozenset({"a", "b"})] == 2
    h = g.identify(["a", "b"], "ab")
    assert h.vertices == ("ab",) and not h.edges
    with pytest.raises(ValueError):
        CutGraph.build("a", [("a", "a")])
    assert separates(g, {"a"}, "a", "b")
    assert not separates(g, set(), "a", "b")
    ts = TripleSet.of(("a", "b", "c"), (("a", "b", "c"), 2))
    assert list(ts) == [(frozenset({"a", "b", "c"}), 3)]
    for m in (0, -2):
        with pytest.raises(ValueError):
            TripleSet.of((("a", "b", "c"), m))
    rl = RequestList.of(("a", "b"), ("c",))
    assert len(rl) == 2 and rl.vertices() == {"a", "b", "c"}


def test_identify_rejects_a_name_outside_the_group():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="'c'"):
        g.identify(["a"], "c")
    h = g.identify(["a", "c"], "c")
    assert h == CutGraph.build(["c", "b"], [("c", "b", 2)])


def test_vertex_multicut_oracle_sanity():
    g = CutGraph.build("sabt", [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])
    cut = vertex_multicut_opt(g, [("s", "t")])
    assert cut is not None and len(cut) in (1, 2)


def test_edge_multicut_oracle_prefers_cheaper_larger_cut():
    # the only one-edge cut is a-b of multiplicity 5; the two-edge cut
    # {b-c, b-d} costs 2, so the search must look past the first size
    g = CutGraph.build("abcdt", [("a", "b", 5), ("b", "c"), ("b", "d"),
                                 ("c", "t"), ("d", "t")])
    assert edge_multicut_opt(g, [("a", "t")]) == 2
