import itertools
import random

import pytest

from eqcut.cutgraph import CutGraph
from eqcut.gadgets import (
    ReductionError,
    SplitPairedCutInstance,
    edge_multicut_to_mincsp,
    emulate_constants,
    hitting_set_to_odd3,
    hitting_set_to_odd3_constants,
    mincsp_to_triple_multicut,
    mis_to_disjneqneq,
    nae3_to_steiner,
    odd3_nary_gadget,
    rneq_to_disjunctive_multicut,
    spc_to_eq_eq,
    spc_to_eq_neq,
    spc_to_neq_neq,
    steiner_to_nae3,
    strip_flow_paths,
    wheel,
    wheel_verify,
)
from eqcut.instances import (
    Constraint,
    MinCspInstance,
    brute_force_cost,
    crisp,
    soft,
    soft_assign,
)
from eqcut.oracles import (
    djmc_cost,
    edge_multicut_opt,
    hitting_set_opt,
    steiner_multicut_edge_opt,
    triple_multicut_opt,
)
from eqcut.relations import EQ, EQ3, NEQ, NEQ3, EqRelation, rneq_relation
from eqcut.verify import (
    random_constants_instance,
    random_rneq_instance,
    random_split_neq3_instance,
)


def test_wheel_weighted():
    for t in (2, 3):
        rep = wheel_verify(wheel(range(t)))
        assert rep.cost == 5
        assert rep.shapes_match
        assert rep.no_two_constraint_solution
        assert len(rep.optimal_deletions) == t


def test_wheel_short_variant():
    for t in (2, 3):
        rep = wheel_verify(wheel(range(t), variant="short"))
        assert rep.cost == 3 and rep.shapes_match
    with pytest.raises(ReductionError):
        wheel(range(1))


def test_edge_multicut_reduction():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    inst, _ = edge_multicut_to_mincsp(g, [("a", "c")], 2)
    assert brute_force_cost(inst).cost == 2 == edge_multicut_opt(g, [("a", "c")])
    inst0, _ = edge_multicut_to_mincsp(g, [], 0)
    assert brute_force_cost(inst0).cost == 0


def test_triple_multicut_reduction_examples():
    inst = MinCspInstance.build("tm", [soft(EQ, "x", "y")])
    red = mincsp_to_triple_multicut(inst, 1)
    assert triple_multicut_opt(red.graph, red.triples) == 0
    inst2 = MinCspInstance.build("tm2", [soft(NEQ3, "a", "b", "c"),
                                         crisp(EQ, "a", "b")])
    red2 = mincsp_to_triple_multicut(inst2, 1)
    opt = triple_multicut_opt(red2.graph, red2.triples)
    assert (opt is not None and opt <= red2.budget) == \
        (brute_force_cost(inst2).cost <= 1)
    with pytest.raises(ReductionError):
        mincsp_to_triple_multicut(MinCspInstance.build(
            "bad", [soft_assign("x", 1)]), 1)


def test_full_fpt_pipeline_reduction_plus_solver():
    """Eligible MinCSP instances decided end to end: reduce to triple
    multicut, run the actual solver, compare with the MinCSP oracle."""
    from eqcut.triple_multicut import triple_multicut

    rng = random.Random(4242)
    for _ in range(40):
        inst = random_split_neq3_instance(rng, rng.randint(3, 6),
                                          rng.randint(1, 4))
        k = rng.randint(0, 3)
        want = brute_force_cost(inst).cost <= k
        red = mincsp_to_triple_multicut(inst, k)
        if red.infeasible:
            got = False
        else:
            got = triple_multicut(red.graph, red.triples, red.budget).feasible
        assert got == want


def test_triple_multicut_reduction_random():
    rng = random.Random(5)
    for _ in range(30):
        inst = random_split_neq3_instance(rng, rng.randint(3, 6),
                                          rng.randint(1, 4))
        for k in (0, 1, 2, 3):
            red = mincsp_to_triple_multicut(inst, k)
            want = brute_force_cost(inst).cost <= k
            if red.infeasible:
                got = False
            else:
                opt = triple_multicut_opt(red.graph, red.triples)
                got = opt is not None and opt <= red.budget
            assert got == want


def _repeated_scope_instance(rng, pool):
    """2-4 variables; each scope is drawn with repetition, so a constraint
    may fold to a smaller, complete or empty relation."""
    vs = [f"x{i}" for i in range(rng.randint(2, 4))]
    cons = []
    for _ in range(rng.randint(1, 5)):
        rel = rng.choice(pool)
        kind = "crisp" if rng.random() < 0.3 else "soft"
        cons.append(Constraint(rel, tuple(rng.choices(vs, k=rel.arity)), kind,
                               rng.choice([1, 1, 2]) if kind == "soft" else 1))
    return MinCspInstance.build("repeats", cons, vs)


def test_triple_multicut_reduction_repeated_scopes():
    split21 = EqRelation.from_tuples("split21", 3, [(1, 1, 2)])
    rng = random.Random(2)
    notes = set()
    for _ in range(300):
        inst = _repeated_scope_instance(rng, [EQ, NEQ, NEQ3, EQ3, split21])
        k = rng.randint(0, 3)
        red = mincsp_to_triple_multicut(inst, k)
        notes.update(n.split(" costs")[0] for n in red.notes)
        if red.infeasible:
            got = False
        else:
            opt = triple_multicut_opt(red.graph, red.triples)
            got = opt is not None and opt <= red.budget
        assert got == (brute_force_cost(inst).cost <= k)
    assert notes == {"crisp constraint unsatisfiable", "offset exceeds budget",
                     "always-violated soft constraint"}


def test_hitting_set_odd3():
    inst, _, notes = hitting_set_to_odd3([1, 2], [[1, 2]], 1)
    assert brute_force_cost(inst).cost == 1
    inst, _, notes = hitting_set_to_odd3([1, 2, 3], [[1, 2], [2, 3]], 1)
    assert brute_force_cost(inst).cost == 1
    inst, _, notes = hitting_set_to_odd3([1, 2, 3], [], 0)
    assert brute_force_cost(inst).cost == 0
    inst, _, notes = hitting_set_to_odd3([1, 2], [[1]], 1)
    assert notes and brute_force_cost(inst).cost == 1
    with pytest.raises(ReductionError):
        hitting_set_to_odd3([1], [[]], 0)


def test_steiner_nae3_reductions():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    inst, _ = steiner_to_nae3(g, [("a", "b", "c")], 2)
    assert brute_force_cost(inst).cost == 2 == \
        steiner_multicut_edge_opt(g, [("a", "b", "c")])
    g2 = CutGraph.build("abc", [("a", "b"), ("b", "c")])
    inst2, _ = steiner_to_nae3(g2, [("a", "b", "c")], 1)
    assert brute_force_cost(inst2).cost == 1
    back, tsets, _ = nae3_to_steiner(inst2, 1)
    assert steiner_multicut_edge_opt(back, tsets) == 1
    inst3, _ = steiner_to_nae3(g2, [], 0)
    assert brute_force_cost(inst3).cost == 0
    with pytest.raises(ReductionError):
        steiner_to_nae3(g2, [("a", "b")], 0)
    with pytest.raises(ReductionError):
        nae3_to_steiner(MinCspInstance.build(
            "bad", [crisp(EQ, "a", "b")]), 0)


def test_rneq_reduction_examples():
    r1 = rneq_relation(1)
    inst = MinCspInstance.build("i", [soft(EQ, "u", "v"), crisp(r1, "u", "v")])
    g, lists, off = rneq_to_disjunctive_multicut(inst)
    assert off == 0 and djmc_cost(g, lists) == 1 == brute_force_cost(inst).cost
    inst2 = MinCspInstance.build("i2", [soft(EQ, "u", "v")])
    g2, lists2, _ = rneq_to_disjunctive_multicut(inst2)
    assert lists2 == [] and djmc_cost(g2, lists2) == 0
    # d=2 where violating one constraint beats two cuts
    r2 = rneq_relation(2)
    inst3 = MinCspInstance.build("i3", [
        soft(r2, "a", "b", "c", "d"),
        crisp(EQ, "a", "b"), crisp(EQ, "c", "d")])
    g3, lists3, off3 = rneq_to_disjunctive_multicut(inst3)
    assert djmc_cost(g3, lists3) + off3 == brute_force_cost(inst3).cost == 1


def test_rneq_reduction_random():
    rng = random.Random(9)
    for _ in range(30):
        inst = random_rneq_instance(rng, rng.randint(3, 6), rng.randint(1, 5))
        try:
            g, lists, off = rneq_to_disjunctive_multicut(inst)
        except ReductionError:
            continue
        a = brute_force_cost(inst).cost
        c = djmc_cost(g, lists)
        assert a == ((c + off) if c is not None else float("inf"))


def test_rneq_reduction_repeated_scopes():
    # soft rneq2 x x y z is y != z: the pair (x, x) never differs
    inst = MinCspInstance.build("i", [
        soft(rneq_relation(2), "x", "x", "y", "z"), crisp(EQ, "y", "z")])
    g, lists, off = rneq_to_disjunctive_multicut(inst)
    assert off == 0 and len(lists) == 1 and len(lists[0]) == 2
    assert djmc_cost(g, lists) == 1 == brute_force_cost(inst).cost
    rng = random.Random(1)
    unsat = 0
    for _ in range(300):
        inst = _repeated_scope_instance(
            rng, [EQ, rneq_relation(1), rneq_relation(2)])
        want = brute_force_cost(inst).cost
        try:
            g, lists, off = rneq_to_disjunctive_multicut(inst)
        except ReductionError as e:
            assert "unsatisfiable" in str(e) and want == float("inf")
            unsat += 1
            continue
        c = djmc_cost(g, lists)
        assert want == ((c + off) if c is not None else float("inf"))
    assert 0 < unsat < 300


def test_spc_reductions_tiny():
    g1 = CutGraph.build(["s1", "a1", "t1"], [("s1", "a1"), ("a1", "t1")])
    g2 = CutGraph.build(["s2", "a2", "t2"], [("s2", "a2"), ("a2", "t2")])
    yes = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2",
                                 [(("s1", "a1"), ("a2", "t2"))], 1)
    inst, k = spc_to_eq_eq(yes)
    assert brute_force_cost(inst).cost <= k
    inst, k = spc_to_neq_neq(yes)
    assert brute_force_cost(inst).cost == k == 9
    inst, k = spc_to_eq_neq(yes)
    assert brute_force_cost(inst).cost == k == 5

    no = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2", [], 1)
    for build in (spc_to_eq_eq, spc_to_neq_neq, spc_to_eq_neq):
        inst, k = build(no)
        assert brute_force_cost(inst).cost > k


@pytest.mark.parametrize("mid", ["a2", "g2p0.r3"])
def test_spc_wheel_names_skip_vertex_names(mid):
    # a side-2 vertex named like a wheel variable must not merge with it
    g1 = CutGraph.build(["s1", "a1", "t1"], [("s1", "a1"), ("a1", "t1")])
    g2 = CutGraph.build(["s2", mid, "t2"], [("s2", mid), (mid, "t2")])
    spc = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2",
                                 [(("a1", "t1"), (mid, "t2"))], 1)
    inst, k = spc_to_neq_neq(spc)
    assert brute_force_cost(inst).cost == k == 9
    inst, k = spc_to_eq_neq(spc)
    assert brute_force_cost(inst).cost == k == 5


def test_spc_reductions_leave_input_unchanged():
    g1 = CutGraph.build(["s1", "a1", "t1"], [("s1", "a1"), ("a1", "t1")])
    g2 = CutGraph.build(["s2", "a2", "t2"], [("s2", "a2"), ("a2", "t2")])
    spc = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2",
                                 [(("s1", "a1"), ("a2", "t2"))], 1)
    for build in (spc_to_eq_eq, spc_to_neq_neq, spc_to_eq_neq):
        first = build(spc)
        assert build(spc) == first


def test_spc_eq_eq_misaligned_pairs():
    g1 = CutGraph.build(["s1", "a", "b", "t1"],
                        [("s1", "a"), ("a", "t1"), ("s1", "b"), ("b", "t1")])
    g2 = CutGraph.build(["s2", "c", "d", "t2"],
                        [("s2", "c"), ("c", "t2"), ("s2", "d"), ("d", "t2")])
    bad = SplitPairedCutInstance(
        g1, g2, "s1", "t1", "s2", "t2",
        [(("s1", "a"), ("s2", "c")), (("a", "t1"), ("s2", "d"))], 2)
    inst, k = spc_to_eq_eq(bad)
    assert brute_force_cost(inst).cost > k
    good = SplitPairedCutInstance(
        g1, g2, "s1", "t1", "s2", "t2",
        [(("s1", "a"), ("s2", "c")), (("s1", "b"), ("s2", "d"))], 2)
    inst, k = spc_to_eq_eq(good)
    assert brute_force_cost(inst).cost <= k


def test_strip_flow_paths():
    g = CutGraph.build(["s", "a", "b", "t"],
                       [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])
    paths = strip_flow_paths(g, "s", "t", 2)
    assert len(paths) == 2
    with pytest.raises(ReductionError):
        strip_flow_paths(g, "s", "t", 1)
    with pytest.raises(ReductionError):
        SplitPairedCutInstance(
            CutGraph.build("st", [("s", "t")]),
            CutGraph.build("st", [("s", "t")]), "s", "t", "s", "t", [], 0)


def assert_splits(g, paths, k):
    """The paths are k simple s-t paths that use every edge of g once."""
    assert len(paths) == k
    assert all(p[0] == "s" and p[-1] == "t" and len(set(p)) == len(p)
               for p in paths)
    used = [frozenset(e) for p in paths for e in zip(p, p[1:])]
    assert sorted(used, key=sorted) == sorted(g.edges, key=sorted)


def st_path_split_exists(g, k):
    """Reference: some k simple s-t paths use every edge once (an exact
    cover of the edges by the edge sets of all simple s-t paths)."""
    inner = [v for v in g.vertices if v not in ("s", "t")]
    paths = []
    for r in range(len(inner) + 1):
        for mid in itertools.permutations(inner, r):
            walk = ("s", *mid, "t")
            edges = frozenset(map(frozenset, zip(walk, walk[1:])))
            if edges <= g.edges.keys():
                paths.append(edges)

    def cover(left, j):
        if j == 0 or not left:
            return j == 0 and not left
        e = min(left, key=sorted)
        return any(cover(left - p, j - 1) for p in paths
                   if e in p and p <= left)

    return cover(frozenset(g.edges), k)


def test_strip_flow_paths_backtracks_over_the_path_choice():
    # taking the first path a depth-first search finds, each time (s-b-t,
    # then s-a-t; or s-t, s-c-t, then s-a-t), leaves the triangle a-b-c
    cases = [
        (["s", "a", "b", "c", "t"], [("s", "a"), ("s", "b"), ("a", "t"),
                                     ("b", "t"), ("a", "b"), ("a", "c"),
                                     ("b", "c")], 2),
        (["s", "a", "b", "c", "t"], [("s", "t"), ("s", "a"), ("s", "c"),
                                     ("t", "a"), ("t", "c"), ("a", "b"),
                                     ("a", "c"), ("b", "c")], 3),
    ]
    for vs, edges, k in cases:
        g = CutGraph.build(vs, edges)
        assert_splits(g, strip_flow_paths(g, "s", "t", k), k)


def test_strip_flow_paths_matches_exhaustive_search():
    rng = random.Random(1)
    split = 0
    for _ in range(2_000):
        vs = ["s", "t", *"abcd"[:rng.randint(2, 4)]]
        g = CutGraph.build(vs, [e for e in itertools.combinations(vs, 2)
                                if rng.random() < 0.5])
        for k in (1, 2, 3):
            if st_path_split_exists(g, k):
                split += 1
                assert_splits(g, strip_flow_paths(g, "s", "t", k), k)
            else:
                with pytest.raises(ReductionError):
                    strip_flow_paths(g, "s", "t", k)
    assert split > 100


def test_mis_reduction():
    g = CutGraph.build(["a", "b"], [])
    inst, k = mis_to_disjneqneq(g, [["a"], ["b"]], 2)
    assert k == 10 and brute_force_cost(inst, cap=14).cost == 10
    g1 = CutGraph.build(["a"], [])
    inst1, k1 = mis_to_disjneqneq(g1, [["a"]], 1)
    assert k1 == 5 and brute_force_cost(inst1).cost == 5
    g2 = CutGraph.build(["a", "b"], [("a", "b")])
    inst2, k2 = mis_to_disjneqneq(g2, [["a"], ["b"]], 2)
    assert brute_force_cost(inst2, cap=14).cost > k2
    with pytest.raises(ReductionError):
        mis_to_disjneqneq(g, [["a"]], 1)


def _gadget_constant_models(gad):
    from eqcut.instances import Assignment, _constraint_violated, set_partitions
    from eqcut.relations import canonicalize

    prim = gad.primaries
    out = set()
    for blocks in set_partitions(gad.variables):
        labels = {}
        ok = True
        for i, b in enumerate(blocks):
            has1 = any(v.endswith("z1") or v.endswith("z.one") for v in b)
            has2 = any(v.endswith("z2") or v.endswith("z.two") for v in b)
            if has1 and has2:
                ok = False
                break
            if has1:
                labels[i] = 1
            if has2:
                labels[i] = 2
        if not ok:
            continue
        a = Assignment.from_blocks(blocks, labels)
        if any(_constraint_violated(c, a) for c in gad.constraints):
            continue
        pat = canonicalize([a[v] for v in prim])
        m1 = frozenset(i for i, v in enumerate(prim) if a[v] == ("const", 1))
        m2 = frozenset(i for i, v in enumerate(prim) if a[v] == ("const", 2))
        out.add((pat, m1, m2))
    return out


def _expected_models(n):
    from eqcut.relations import all_patterns

    allidx = frozenset(range(n))
    exp = set()
    for pat in all_patterns(n):
        blocks = {}
        for i, v in enumerate(pat):
            blocks.setdefault(v, set()).add(i)
        bl = [frozenset(b) for b in blocks.values()]
        for lab in itertools.product([0, 1, 2], repeat=len(bl)):
            if lab.count(1) > 1 or lab.count(2) > 1:
                continue
            m1 = frozenset().union(*[bl[i] for i in range(len(bl))
                                     if lab[i] == 1]) if 1 in lab else frozenset()
            m2 = frozenset().union(*[bl[i] for i in range(len(bl))
                                     if lab[i] == 2]) if 2 in lab else frozenset()
            if m1 == allidx or m2 == allidx:
                continue
            exp.add((pat, m1, m2))
    return exp


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_odd3_nary_gadget_models(n):
    gad = odd3_nary_gadget(n)
    assert _gadget_constant_models(gad) == _expected_models(n)


def test_hitting_set_constants():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 4)
        elements = list(range(1, n + 1))
        sets = [rng.sample(elements, rng.randint(1, min(3, n)))
                for _ in range(rng.randint(1, 2))]
        opt = hitting_set_opt(sets, elements)
        inst, _, _ = hitting_set_to_odd3_constants(elements, sets, 0)
        assert brute_force_cost(inst).cost == len(opt)


@pytest.mark.parametrize("build", [hitting_set_to_odd3,
                                   hitting_set_to_odd3_constants])
def test_hitting_set_reductions_reject_unknown_elements(build):
    """Element 3 is in no x3 = 1 constraint, so a free x3 would hit the set
    at cost 0 where the optimum is 1."""
    with pytest.raises(ReductionError, match="unknown element"):
        build([1, 2], [[1, 3]], 0)


def test_emulate_constants():
    inst = MinCspInstance.build("e", [soft_assign("x", 1), soft_assign("x", 2)])
    out = emulate_constants(inst)
    assert brute_force_cost(inst).cost == brute_force_cost(out).cost == 1
    plain = MinCspInstance.build("p", [soft(EQ, "a", "b")])
    assert emulate_constants(plain).constraints == plain.constraints
    # 3-terminal multiway-cut-style instance
    rng = random.Random(8)
    for _ in range(15):
        inst = random_constants_instance(rng, rng.randint(2, 5),
                                         rng.randint(1, 5))
        out = emulate_constants(inst)
        assert brute_force_cost(inst).cost == brute_force_cost(out).cost
