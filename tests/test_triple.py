import itertools
import random

import pytest

from eqcut.cutgraph import CutGraph, TripleSet
from eqcut.oracles import triple_multicut_feasible, triple_multicut_opt
from eqcut.triple_multicut import (
    BooleanInstance,
    CrispUnsatisfiable,
    SoftGroup,
    _alpha_partitions,
    _guess_ties,
    _quotient_classes,
    boolean_solve,
    build_boolean_instance,
    triple_multicut,
    two_sat_conflict,
)


def test_boolean_construction_families():
    # isolated vertex, one class: only the type-2 coherence group
    g = CutGraph.build(["v", "x"], [])
    b = build_boolean_instance(g, TripleSet(()), {"x": 1}, 1)
    groups = {gr.ident for gr in b.soft_groups}
    assert ("vertex", "v") in groups
    vgroup = next(gr for gr in b.soft_groups if gr.ident == ("vertex", "v"))
    # d = 1: no pairwise exclusions, one implication clause
    assert len(vgroup.clauses) == 1

    # an edge to a pinned vertex yields both crisp implications
    g2 = CutGraph.build(["u", "v"], [("u", "v")])
    b2 = build_boolean_instance(g2, TripleSet(()), {"u": 1}, 1)
    imp = [cl for cl in b2.crisp_clauses if len(cl) == 2]
    assert (((("u", 1, True), False), (("v", 1, False), True))) in imp
    assert (((("v", 1, True), False), (("u", 1, False), True))) in imp

    # a triple with d = 2 contributes two triangle groups
    g3 = CutGraph.build(["u", "v", "w", "x", "y"], [])
    tri = TripleSet.of(("u", "v", "w"))
    b3 = build_boolean_instance(g3, tri, {"x": 1, "y": 2}, 1)
    tri_groups = [gr for gr in b3.soft_groups if gr.ident[0] == "triple"]
    assert len(tri_groups) == 2
    assert all(len(gr.clauses) == 3 for gr in tri_groups)


def gaifman_ok(inst: BooleanInstance) -> bool:
    """Every deletable constraint's Gaifman graph must be 2K2-free."""
    for group in inst.soft_groups:
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


def test_gaifman_2k2_free():
    g = CutGraph.build("abcde", [("a", "b"), ("b", "c"), ("c", "d")])
    tri = TripleSet.of(("a", "c", "e"))
    b = build_boolean_instance(g, tri, {"a": 1, "c": 2, "e": 3}, 2,
                               [frozenset({"a", "c", "e"})])
    assert gaifman_ok(b)


def test_alpha_distinctness_guard():
    g = CutGraph.build("abc", [])
    tri = [frozenset({"a", "b", "c"})]
    with pytest.raises(ValueError):
        build_boolean_instance(g, TripleSet.of(("a", "b", "c")),
                               {"a": 1, "b": 1, "c": 2}, 1, tri)


def test_two_sat_machinery():
    x, y = ("x",), ("y",)
    clauses = [((x, True),), ((x, False),)]
    chain = two_sat_conflict(clauses, ["a", "b"])
    assert chain is not None and set(chain) <= {"a", "b"}
    sat = two_sat_conflict([((x, True), (y, True))], ["c"])
    assert sat is None


def test_boolean_solve():
    x = ("x",)
    crisp_cl = (((x, True),),)
    softs = (SoftGroup(("s", 1), (((x, False),),)),)
    inst = BooleanInstance(crisp_cl, softs, 1)
    out = boolean_solve(inst)
    assert out == frozenset({("s", 1)})
    # no conflict: nothing deleted
    inst2 = BooleanInstance(crisp_cl, (), 0)
    assert boolean_solve(inst2) == frozenset()
    # crisp contradiction
    inst3 = BooleanInstance((((x, True),), ((x, False),)), (), 3)
    with pytest.raises(CrispUnsatisfiable):
        boolean_solve(inst3)
    # budget too small
    inst4 = BooleanInstance(crisp_cl, softs, 0)
    assert boolean_solve(inst4) is None


def test_quotient_classes_merge_adjacent_guessed_vertices():
    g = CutGraph.build("abcd", [("a", "b"), ("b", "c")])
    xs = ["a", "d", "b"]
    classes = _quotient_classes(_guess_ties(g, xs), xs)
    assert classes == [["a", "b"], ["d"]]
    # c joins a through the undeletable u, b joins a by an edge: one class,
    # and its alpha lists the vertices in guess order
    g2 = CutGraph.build("abcu", [("a", "u"), ("u", "c"), ("a", "b")],
                        undeletable={"c", "u"})
    xs = ["a", "b", "c"]
    classes = _quotient_classes(_guess_ties(g2, xs), xs)
    assert classes == [["a", "b", "c"]]
    (alpha,) = _alpha_partitions(g2, classes, set(), 0)
    assert list(alpha.items()) == [("a", 1), ("b", 1), ("c", 1)]


def test_quotient_classes_merge_through_undeletable_vertices():
    # a and c are deletable and joined only through the undeletable u
    g = CutGraph.build("acdu", [("a", "u"), ("u", "c")], undeletable={"u"})
    xs = ["a", "c", "d"]
    classes = _quotient_classes(_guess_ties(g, xs), xs)
    assert classes == [["a", "c"], ["d"]]


def test_triple_multicut_answer_is_pinned():
    # one of several optimal cuts; the search order picks v4
    g = CutGraph.build([f"v{i}" for i in range(7)],
                       [("v0", "v1"), ("v1", "v6"), ("v3", "v5"),
                        ("v4", "v5"), ("v4", "v6")])
    res = triple_multicut(g, TripleSet.of(("v2", "v3", "v6")), 3)
    assert res.feasible and res.z_v == {"v4"} and not res.z_t


def test_triple_multicut_examples():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    ts = TripleSet.of(("a", "b", "c"))
    res = triple_multicut(g, ts, 1)
    assert res.feasible
    assert triple_multicut_feasible(g, ts, res.z_v, res.z_t)
    assert triple_multicut(g, TripleSet(()), 0).feasible
    assert not triple_multicut(g, ts, 0).feasible


def test_triple_multicut_rejects_a_triple_vertex_outside_the_graph():
    g = CutGraph.build("abc", [("a", "b")])
    with pytest.raises(ValueError, match="triple vertex 'zz'"):
        triple_multicut(g, TripleSet.of(("a", "b", "zz")), 1)


def test_triple_multicut_crisp_copies():
    # a triple with multiplicity k+1 can never be deleted
    g = CutGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    ts = TripleSet.of((("a", "b", "c"), 3))
    res = triple_multicut(g, ts, 2)
    assert res.feasible and not res.z_t  # must delete vertices instead
    assert len(res.z_v) <= 2


def test_triple_multicut_random_vs_oracle():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(4, 8)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.30]
        g = CutGraph.build(vs, edges)
        tris = [tuple(rng.sample(vs, 3)) for _ in range(rng.randint(1, 4))]
        ts = TripleSet.of(*tris)
        k = rng.randint(0, 3)
        opt = triple_multicut_opt(g, ts)
        res = triple_multicut(g, ts, k)
        assert res.feasible == (opt is not None and opt <= k)
        if res.feasible:
            assert triple_multicut_feasible(g, ts, res.z_v, res.z_t)
            assert res.cost(ts) <= k
