import itertools
import random

import pytest

from eqcut.cutgraph import CutGraph, min_vertex_separator, separates
from eqcut.instances import Constraint, MinCspInstance, brute_force_cost, crisp, soft_assign
from eqcut.oracles import hitting_set_opt, steiner_multicut_vertex_opt
from eqcut.relations import NEQ, NEQ3
from eqcut.solvers import (
    StrictSteinerStats,
    hitting_set_branch,
    negative_approx,
    negative_fpt_solve,
    steiner_2approx,
    strict_steiner,
    strict_steiner_opt,
)
from eqcut.verify import random_graph


def test_hitting_set_examples():
    assert hitting_set_branch([], 0) == frozenset()
    assert hitting_set_branch([{"a", "b"}, {"b", "c"}], 1) == frozenset({"b"})
    assert hitting_set_branch([{"a"}, {"b"}], 1) is None
    assert hitting_set_branch([set()], 5) is None


def test_hitting_set_random():
    rng = random.Random(3)
    for _ in range(60):
        sets = [set(rng.sample(range(6), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))]
        k = rng.randint(0, 3)
        mine = hitting_set_branch(sets, k)
        opt = hitting_set_opt(sets)
        if opt is not None and len(opt) <= k:
            assert mine is not None and len(mine) <= k
            assert all(s & mine for s in sets)
        else:
            assert mine is None


def test_strict_steiner_examples():
    g = CutGraph.build(["x", "l1", "l2", "l3"],
                       [("x", "l1"), ("x", "l2"), ("x", "l3")],
                       undeletable={"x"})
    out = strict_steiner_opt(g, "x", [("l1", "l2", "l3")], 3)
    assert out is not None and len(out) == 1
    assert strict_steiner_opt(g, "x", [], 0) == frozenset()
    assert strict_steiner_opt(g, "x", [("l1", "l2", "l3")], 0) is None
    with pytest.raises(ValueError):
        g2 = CutGraph.build(["x", "a", "b"], [("a", "b")], undeletable={"x"})
        strict_steiner(g2, "x", [("a", "b")], 1)  # hub never on an a-b path


def test_strict_steiner_random_optimal_with_stats():
    rng = random.Random(5)
    done = 0
    while done < 60:
        n = rng.randint(4, 10)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.33]
        hub = vs[0]
        g = CutGraph.build(vs, edges).make_undeletable([hub])
        t_sets = [rng.sample(vs, rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        if not all(
            any(separates(g, {hub}, a, b)
                for a, b in itertools.combinations(sorted(set(ts)), 2))
            for ts in t_sets
        ):
            continue
        done += 1
        stats = StrictSteinerStats()
        strict_steiner(g, hub, t_sets, 4, stats)
        assert stats.monotone and stats.max_depth <= 4
        mine = strict_steiner_opt(g, hub, t_sets, 4)
        opt = steiner_multicut_vertex_opt(g, t_sets, forbidden={hub})
        if opt is not None and len(opt) <= 4:
            assert mine is not None and len(mine) == len(opt)
        else:
            assert mine is None


def _ascending_budget_strict_steiner(g, hub, t_sets, k):
    """Reference: a full branching search per budget 0, 1, ..., k, keeping
    the first smallest cut found at the first budget that has one."""
    t_sets = [sorted(set(ts)) for ts in t_sets]

    def satisfied(cut, ts):
        return any(separates(g, cut, a, b)
                   for a, b in itertools.combinations(ts, 2))

    for budget in range(k + 1):
        best = None

        def rec(y, budget=budget):
            nonlocal best
            w = min_vertex_separator(g, hub, sorted(y), limit=budget,
                                     cut_targets=True, forbidden={hub})
            if w is None or len(w) > budget:
                return
            unsat = [ts for ts in t_sets if not satisfied(w, ts)]
            if not unsat:
                if best is None or len(w) < len(best):
                    best = w
                return
            for t in unsat[0]:
                if t != hub and t not in y:
                    rec(y | {t})

        rec(frozenset())
        if best is not None:
            return best
    return None


def test_strict_steiner_matches_ascending_budget_search():
    rng = random.Random(17)
    done = 0
    while done < 150:
        n = rng.randint(4, 11)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.35]
        hub = vs[0]
        g = CutGraph.build(vs, edges).make_undeletable([hub])
        t_sets = [rng.sample(vs, rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        if not all(any(separates(g, {hub}, a, b)
                       for a, b in itertools.combinations(sorted(set(ts)), 2))
                   for ts in t_sets):
            continue
        done += 1
        for k in range(5):
            assert strict_steiner_opt(g, hub, t_sets, k) == \
                _ascending_budget_strict_steiner(g, hub, t_sets, k)



def _per_node_flow_strict_steiner(g, hub, t_sets, k, stats):
    """Reference: the branching of `strict_steiner` with one fresh
    `min_vertex_separator` and one component search per node."""
    t_sets = [sorted(set(ts)) for ts in t_sets]

    def satisfied(cut, ts):
        return any(separates(g, cut, ts[0], b) for b in ts[1:])

    best = None
    stack = [(frozenset(), 0, -1)]
    while stack:
        y, depth, prev_flow = stack.pop()
        w = min_vertex_separator(g, hub, sorted(y), limit=k, cut_targets=True,
                                 forbidden={hub})
        if w is None:
            continue
        stats.max_depth = max(stats.max_depth, depth)
        stats.flows.append((depth, len(w)))
        if depth > 0 and len(w) <= prev_flow:
            stats.monotone = False
        if len(w) > k or (best is not None and len(w) >= len(best)):
            continue
        unsat = [ts for ts in t_sets if not satisfied(w, ts)]
        if not unsat:
            best = w
            continue
        stack.extend((y | {t}, depth + 1, len(w)) for t in reversed(unsat[0])
                     if t != hub and t not in y)
    return best


def _strict_steiner_case(rng):
    """A sparse graph with about 1/8 of its vertices undeletable, the hub
    among them, and terminal sets that deleting the hub satisfies.  About
    30% of the sets are drawn without the hub, and kept when the hub
    separates them."""
    n = rng.randint(4, 40)
    g = random_graph(rng, n, min(1.0, 3 / n))
    vs = list(g.vertices)
    hub = rng.choice(vs)
    g = g.make_undeletable([hub, *rng.sample(vs, n // 8)])
    others = [v for v in vs if v != hub]
    t_sets = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.3:
            for _try in range(5):
                ts = rng.sample(others, min(len(others), rng.randint(2, 3)))
                if any(separates(g, {hub}, ts[0], b) for b in ts[1:]):
                    t_sets.append(ts)
                    break
        else:
            t_sets.append([hub, *rng.sample(others, rng.randint(1, 2))])
    return g, hub, t_sets, rng.randint(0, 4)


def test_strict_steiner_matches_per_node_flow_reference():
    """Continuing the parent's flow and reading the hub's component off the
    last search change no result and no statistic."""
    rng = random.Random(2024)
    without_hub = 0
    for _ in range(320):
        g, hub, t_sets, k = _strict_steiner_case(rng)
        without_hub += sum(hub not in ts for ts in t_sets)
        mine, ref = StrictSteinerStats(), StrictSteinerStats()
        got = strict_steiner(g, hub, t_sets, k, mine)
        assert got == _per_node_flow_strict_steiner(g, hub, t_sets, k, ref)
        assert (mine.flows, mine.max_depth, mine.monotone) == \
            (ref.flows, ref.max_depth, ref.monotone)
    assert without_hub >= 50


def test_strict_steiner_rejects_unknown_hub():
    g = CutGraph.build("ab", [("a", "b")])
    with pytest.raises(ValueError, match="not a vertex"):
        strict_steiner(g, "nosuch", [], 1)

def test_steiner_2approx_examples():
    g = CutGraph.build(["a", "b", "c", "d"], [("a", "b")])
    # already disconnected triple
    assert steiner_2approx(g, [("a", "c", "d")], 0) == frozenset()
    g2 = CutGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    out = steiner_2approx(g2, [("a", "b", "c")], 2)
    assert out is not None and len(out) <= 2
    assert steiner_2approx(g2, [("a", "b", "c")], 0) is None


def test_steiner_2approx_contract_random():
    rng = random.Random(9)
    accepted = rejected = 0
    for _ in range(60):
        n = rng.randint(4, 9)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.3]
        g = CutGraph.build(vs, edges)
        t_sets = [rng.sample(vs, rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        opt = steiner_multicut_vertex_opt(g, t_sets)
        k = rng.randint(0, 3)
        out = steiner_2approx(g, t_sets, k)
        if opt is not None and len(opt) <= k:
            assert out is not None
            accepted += 1
        if out is None:
            assert opt is None or len(opt) > k
            rejected += 1
        else:
            assert opt is not None
            assert len(out) <= 2 * len(opt) or len(out) == len(opt) == 0
    assert accepted and rejected


def test_steiner_2approx_undeletable_terminals_vs_oracle():
    """Terminal sets without deletable members start from pair separators."""
    g = CutGraph.build("axb", [("a", "x"), ("x", "b")], undeletable="ab")
    assert steiner_2approx(g, [("a", "b")], 1) == frozenset({"x"})
    assert steiner_2approx(g, [("a", "b")], 0) is None
    rng = random.Random(17)
    accepted = rejected = 0
    for _ in range(60):
        n = rng.randint(5, 9)
        vs = [f"v{i}" for i in range(n)]
        edges = [(u, v) for u, v in itertools.combinations(vs, 2)
                 if rng.random() < 0.35]
        terminals = rng.sample(vs, rng.randint(2, 4))
        g = CutGraph.build(vs, edges, undeletable=terminals)
        t_sets = [rng.sample(terminals, rng.randint(2, min(3, len(terminals))))
                  for _ in range(rng.randint(1, 3))]
        opt = steiner_multicut_vertex_opt(g, t_sets)
        k = rng.randint(0, 3)
        out = steiner_2approx(g, t_sets, k)
        if opt is not None and len(opt) <= k:
            assert out is not None
        if out is None:
            assert opt is None or len(opt) > k
            rejected += 1
        else:
            accepted += 1
            assert opt is not None and len(out) <= 2 * len(opt)
            assert not out & g.undeletable
            assert all(any(separates(g, out, a, b)
                           for a, b in itertools.combinations(sorted(set(ts)), 2))
                       for ts in t_sets)
    assert accepted and rejected


def test_negative_solvers():
    inst = MinCspInstance.build("vc", [
        crisp(NEQ, "a", "b"), soft_assign("a", 1), soft_assign("b", 1)])
    assert negative_fpt_solve(inst, 1)
    assert not negative_fpt_solve(inst, 0)
    inst2 = MinCspInstance.build("m", [soft_assign("v", 1, 3),
                                       soft_assign("v", 2)])
    assert brute_force_cost(inst2).cost == 1
    cost, _ = negative_approx(inst2)
    assert cost <= 2  # at most twice the optimum
    inst3 = MinCspInstance.build("z", [soft_assign("a", 1),
                                       crisp(NEQ, "a", "b")])
    assert negative_fpt_solve(inst3, 0)
    assert negative_approx(inst3)[0] == 0
    from eqcut.relations import EQ3

    with pytest.raises(ValueError):
        negative_fpt_solve(MinCspInstance.build(
            "bad", [crisp(EQ3, "a", "b", "c")]), 0)
    # NEQ3 is strictly negative, so it is eligible
    ok = MinCspInstance.build("ok", [Constraint(NEQ3, ("a", "b", "c"),
                                                "soft", 1)])
    assert negative_fpt_solve(ok, 0)


def test_negative_random_vs_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        vs = [f"v{i}" for i in range(n)]
        cons = []
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.45:
                u, w = rng.sample(vs, 2)
                cons.append(Constraint(NEQ, (u, w),
                                       rng.choice(["crisp", "soft"]), 1))
            else:
                cons.append(soft_assign(rng.choice(vs), rng.randint(1, 3),
                                        rng.randint(1, 2)))
        inst = MinCspInstance.build("r", cons, vs)
        opt = brute_force_cost(inst).cost
        for k in range(0, 4):
            assert negative_fpt_solve(inst, k) == (opt <= k)
        if opt < float("inf"):
            cost, _ = negative_approx(inst)
            # the deletion recipe is (arity + 1)-competitive
            assert opt <= cost <= (2 + 1) * max(opt, 1) or opt == cost == 0
