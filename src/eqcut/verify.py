"""Oracle-backed verification of every gadget and solver lemma.

Shared by `eqcut verify-lemmas` and the test suite: each check draws random
desk-scale inputs, runs a reduction or solver, and compares against the
brute-force ground truth.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .cutgraph import CutGraph, RequestList, TripleSet, separates
from .instances import (
    Constraint,
    MinCspInstance,
    brute_force_cost,
    crisp,
    soft,
    soft_assign,
)
from .relations import EQ, NAE3, NEQ, NEQ3, EqRelation, rneq_relation


def random_graph(rng: random.Random, n: int, p: float = 0.35) -> CutGraph:
    vs = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(vs, 2)
             if rng.random() < p]
    return CutGraph.build(vs, edges)


def random_split_neq3_instance(rng: random.Random, nvars: int,
                               ncons: int) -> MinCspInstance:
    from .relations import EQ3

    split21 = EqRelation.from_tuples("split21", 3, [(1, 1, 2)])
    pool = [EQ, NEQ, NEQ3, EQ3, split21]
    vs = [f"x{i}" for i in range(nvars)]
    cons = []
    for _ in range(ncons):
        rel = rng.choice(pool)
        scope = tuple(rng.sample(vs, rel.arity))
        kind = "crisp" if rng.random() < 0.3 else "soft"
        mult = rng.choice([1, 1, 2]) if kind == "soft" else 1
        cons.append(Constraint(rel, scope, kind, mult))
    return MinCspInstance.build("rand_split", cons, vs)


def random_rneq_instance(rng: random.Random, nvars: int, ncons: int
                         ) -> MinCspInstance:
    vs = [f"x{i}" for i in range(nvars)]
    cons = []
    for _ in range(ncons):
        if rng.random() < 0.55:
            u, v = rng.sample(vs, 2)
            cons.append(Constraint(EQ, (u, v), "soft",
                                   rng.choice([1, 1, 2])))
        else:
            d = rng.randint(1, 2)
            if 2 * d > nvars:
                d = 1
            scope = tuple(rng.sample(vs, 2 * d))
            kind = "crisp" if rng.random() < 0.5 else "soft"
            cons.append(Constraint(rneq_relation(d), scope, kind, 1))
    return MinCspInstance.build("rand_rneq", cons, vs)


def random_constants_instance(rng: random.Random, nvars: int,
                              ncons: int) -> MinCspInstance:
    vs = [f"x{i}" for i in range(nvars)]
    cons = []
    for _ in range(ncons):
        roll = rng.random()
        if roll < 0.4:
            cons.append(soft_assign(rng.choice(vs), rng.randint(1, 3),
                                    rng.choice([1, 1, 2])))
        elif roll < 0.7:
            u, v = rng.sample(vs, 2)
            cons.append(soft(EQ, u, v))
        else:
            u, v = rng.sample(vs, 2)
            kind = "crisp" if rng.random() < 0.4 else "soft"
            cons.append(Constraint(NEQ, (u, v), kind, 1))
    return MinCspInstance.build("rand_const", cons, vs)


# ---------------------------------------------------------------------------
# Individual checks.  Each returns True on success.


def check_edge_multicut(rng: random.Random, trials: int) -> bool:
    from .gadgets import edge_multicut_to_mincsp
    from .oracles import edge_multicut_opt

    for _ in range(trials):
        g = random_graph(rng, rng.randint(3, 7), 0.45)
        nreq = rng.randint(0, 3)
        requests = [tuple(rng.sample(list(g.vertices), 2)) for _ in range(nreq)]
        inst, _k = edge_multicut_to_mincsp(g, requests, 0)
        a = edge_multicut_opt(g, requests)
        b = brute_force_cost(inst).cost
        if (a if a is not None else float("inf")) != b:
            return False
    return True


def check_rneq_djmc(rng: random.Random, trials: int) -> bool:
    from .gadgets import rneq_to_disjunctive_multicut
    from .oracles import djmc_cost

    for _ in range(trials):
        inst = random_rneq_instance(rng, rng.randint(3, 6), rng.randint(1, 5))
        try:
            g, lists, offset = rneq_to_disjunctive_multicut(inst)
        except ValueError:
            continue
        a = brute_force_cost(inst).cost
        c = djmc_cost(g, lists)
        want = (c + offset) if c is not None else float("inf")
        if a != want:
            return False
    return True


def check_emulate_constants(rng: random.Random, trials: int) -> bool:
    from .gadgets import emulate_constants

    for _ in range(trials):
        inst = random_constants_instance(rng, rng.randint(2, 5),
                                         rng.randint(1, 5))
        out = emulate_constants(inst)
        if brute_force_cost(inst).cost != brute_force_cost(out).cost:
            return False
    return True


def check_steiner_nae3(rng: random.Random, trials: int) -> bool:
    from .gadgets import nae3_to_steiner, steiner_to_nae3
    from .oracles import steiner_multicut_edge_opt

    for _ in range(trials):
        g = random_graph(rng, rng.randint(3, 6), 0.5)
        tsets = [tuple(rng.sample(list(g.vertices), 3))
                 for _ in range(rng.randint(0, 2)) if len(g.vertices) >= 3]
        inst, _ = steiner_to_nae3(g, tsets, 0)
        a = steiner_multicut_edge_opt(g, tsets)
        b = brute_force_cost(inst).cost
        if (a if a is not None else float("inf")) != b:
            return False
        g2, tsets2, _ = nae3_to_steiner(inst, 0)
        c = steiner_multicut_edge_opt(g2, tsets2)
        if (c if c is not None else float("inf")) != b:
            return False
    return True


def check_wheel(rng: random.Random, trials: int) -> bool:
    from .gadgets import wheel, wheel_verify

    for t in (2, 3):
        rep = wheel_verify(wheel(range(t)))
        if rep.cost != 5 or not rep.shapes_match:
            return False
        if not rep.no_two_constraint_solution:
            return False
    return True


def check_split_neq3_reduction(rng: random.Random, trials: int) -> bool:
    from .gadgets import mincsp_to_triple_multicut
    from .oracles import triple_multicut_opt

    for _ in range(trials):
        inst = random_split_neq3_instance(rng, rng.randint(3, 6),
                                          rng.randint(1, 4))
        k = rng.randint(0, 3)
        red = mincsp_to_triple_multicut(inst, k)
        want = brute_force_cost(inst).cost <= k
        if red.infeasible:
            got = False
        else:
            opt = triple_multicut_opt(red.graph, red.triples)
            got = opt is not None and opt <= red.budget
        if got != want:
            return False
    return True


def check_hitting_set_odd3(rng: random.Random, trials: int) -> bool:
    from .gadgets import hitting_set_to_odd3, hitting_set_to_odd3_constants
    from .oracles import hitting_set_opt

    for _ in range(trials):
        n = rng.randint(2, 4)
        elements = list(range(1, n + 1))
        sets = [rng.sample(elements, rng.randint(1, min(3, n)))
                for _ in range(rng.randint(1, 2))]
        opt = hitting_set_opt(sets, elements)
        inst, _k, _notes = hitting_set_to_odd3(elements, sets, 0)
        if brute_force_cost(inst).cost != len(opt):
            return False
        inst2, _k, _notes = hitting_set_to_odd3_constants(elements, sets, 0)
        if brute_force_cost(inst2).cost != len(opt):
            return False
    return True


def check_triple_multicut(rng: random.Random, trials: int) -> bool:
    from .oracles import triple_multicut_opt
    from .triple_multicut import triple_multicut

    for _ in range(trials):
        g = random_graph(rng, rng.randint(4, 8), 0.3)
        tris = [tuple(rng.sample(list(g.vertices), 3))
                for _ in range(rng.randint(1, 4))]
        ts = TripleSet.of(*tris)
        k = rng.randint(0, 3)
        opt = triple_multicut_opt(g, ts)
        res = triple_multicut(g, ts, k)
        if res.feasible != (opt is not None and opt <= k):
            return False
    return True


def check_strict_steiner(rng: random.Random, trials: int) -> bool:
    from .oracles import steiner_multicut_vertex_opt
    from .solvers import strict_steiner

    done = 0
    while done < trials:
        g = random_graph(rng, rng.randint(4, 9), 0.33)
        hub = g.vertices[0]
        g = g.make_undeletable([hub])
        t_sets = [rng.sample(list(g.vertices), rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        if not all(
            any(separates(g, {hub}, a, b)
                for a, b in itertools.combinations(sorted(set(ts)), 2))
            for ts in t_sets
        ):
            continue
        done += 1
        mine = strict_steiner(g, hub, t_sets, 4)
        opt = steiner_multicut_vertex_opt(g, t_sets, forbidden={hub})
        if opt is not None and len(opt) <= 4:
            if mine is None or len(mine) != len(opt):
                return False
        elif mine is not None:
            return False
    return True


def check_steiner_2approx(rng: random.Random, trials: int) -> bool:
    from .oracles import steiner_multicut_vertex_opt
    from .solvers import steiner_2approx

    for _ in range(trials):
        g = random_graph(rng, rng.randint(4, 9), 0.3)
        t_sets = [rng.sample(list(g.vertices), rng.randint(2, 3))
                  for _ in range(rng.randint(1, 3))]
        opt = steiner_multicut_vertex_opt(g, t_sets)
        k = rng.randint(0, 3)
        out = steiner_2approx(g, t_sets, k)
        if opt is not None and len(opt) <= k and out is None:
            return False
        if out is not None and (opt is None or len(out) > 2 * len(opt)):
            return False
    return True


def check_djmc(rng: random.Random, trials: int) -> bool:
    from .djmc import list_satisfied, solve_djmc
    from .oracles import djmc_cost

    for _ in range(trials):
        g = random_graph(rng, rng.randint(4, 8), 0.3)
        lists = []
        for _ in range(rng.randint(1, 3)):
            pairs = []
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.25:
                    pairs.append((rng.choice(list(g.vertices)),))
                else:
                    pairs.append(tuple(rng.sample(list(g.vertices), 2)))
            lists.append(RequestList.of(*pairs))
        k = rng.randint(0, 2)
        opt = djmc_cost(g, lists)
        res = solve_djmc(g, lists, k)
        if opt is not None and opt <= k and not res.accepted:
            return False
        if res.accepted and not all(list_satisfied(g, res.solution, l)
                                    for l in lists):
            return False
    return True


def check_spc(rng: random.Random, trials: int) -> bool:
    from .gadgets import (
        SplitPairedCutInstance,
        spc_to_eq_eq,
        spc_to_eq_neq,
        spc_to_neq_neq,
    )

    g1 = CutGraph.build(["s1", "a1", "t1"], [("s1", "a1"), ("a1", "t1")])
    g2 = CutGraph.build(["s2", "a2", "t2"], [("s2", "a2"), ("a2", "t2")])
    for pair1 in (("s1", "a1"), ("a1", "t1")):
        for pair2 in (("s2", "a2"), ("a2", "t2")):
            spc = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2",
                                         [(pair1, pair2)], 1)
            inst, k = spc_to_eq_eq(spc)
            if not brute_force_cost(inst).cost <= k:
                return False
            for build in (spc_to_neq_neq, spc_to_eq_neq):
                inst, k = build(spc)
                if not brute_force_cost(inst).cost == k:
                    return False
    # a no-instance: nothing paired
    spc = SplitPairedCutInstance(g1, g2, "s1", "t1", "s2", "t2", [], 1)
    for build in (spc_to_eq_eq, spc_to_neq_neq, spc_to_eq_neq):
        inst, k = build(spc)
        if brute_force_cost(inst).cost <= k:
            return False
    return True


def check_mis(rng: random.Random, trials: int) -> bool:
    from .gadgets import mis_to_disjneqneq

    g = CutGraph.build(["a", "b"], [])
    inst, k = mis_to_disjneqneq(g, [["a"], ["b"]], 2)
    if brute_force_cost(inst, cap=14).cost != k:
        return False
    g2 = CutGraph.build(["a", "b"], [("a", "b")])
    inst, k = mis_to_disjneqneq(g2, [["a"], ["b"]], 2)
    if brute_force_cost(inst, cap=14).cost <= k:
        return False
    return True


def check_negative(rng: random.Random, trials: int) -> bool:
    from .solvers import negative_approx, negative_fpt_solve

    for _ in range(trials):
        n = rng.randint(2, 5)
        vs = [f"v{i}" for i in range(n)]
        cons = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.45:
                u, w = rng.sample(vs, 2)
                cons.append(Constraint(NEQ, (u, w),
                                       rng.choice(["crisp", "soft"]), 1))
            else:
                cons.append(soft_assign(rng.choice(vs), rng.randint(1, 3),
                                        rng.randint(1, 2)))
        inst = MinCspInstance.build("r", cons, vs)
        opt = brute_force_cost(inst).cost
        for k in range(0, 3):
            if negative_fpt_solve(inst, k) != (opt <= k):
                return False
        if opt < float("inf"):
            cost, _dels = negative_approx(inst)
            if not (opt <= cost <= 3 * max(opt, 1)):
                return False
    return True


def run_all(rng: random.Random, trials: int = 15) -> Iterator[tuple[str, bool]]:
    checks = [
        ("choice gadget cost and shapes", check_wheel),
        ("edge multicut <-> MinCSP(=, !=)", check_edge_multicut),
        ("split/NEQ3 -> triple multicut", check_split_neq3_reduction),
        ("hitting set -> ODD3 (both variants)", check_hitting_set_odd3),
        ("steiner multicut <-> MinCSP(NAE3, =)", check_steiner_nae3),
        ("Rneq -> disjunctive multicut", check_rneq_djmc),
        ("constant emulation", check_emulate_constants),
        ("split paired cut reductions", check_spc),
        ("multicoloured IS -> vee relation", check_mis),
        ("triple multicut solver vs oracle", check_triple_multicut),
        ("strict steiner vs oracle", check_strict_steiner),
        ("steiner 2-approximation contract", check_steiner_2approx),
        ("disjunctive multicut solver contract", check_djmc),
        ("strictly negative branching and approximation", check_negative),
    ]
    for label, fn in checks:
        yield label, fn(rng, trials)
