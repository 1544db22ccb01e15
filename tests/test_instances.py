import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import eqcut
from eqcut.instances import (
    Assignment,
    Constraint,
    MinCspInstance,
    OracleCapExceeded,
    assignment_cost,
    brute_force_cost,
    check_implementation,
    check_pp_definition,
    crisp,
    crisp_assign,
    defined_relation,
    inline_gadget,
    normalize_constraint,
    oracle_optimum,
    set_partitions,
    soft,
    soft_assign,
    split_conjunctive,
    subsets,
)
from eqcut.relations import (
    EQ,
    EQ3,
    NAE3,
    NEQ,
    NEQ3,
    ODD3,
    R_AND_EQ_EQ,
    EqRelation,
    rneq_relation,
)

INF = math.inf
# the package under test, for subprocesses, even when it is not installed
SRC = str(Path(eqcut.__file__).parents[1])


def triangle():
    return MinCspInstance.build("tri", [
        soft(EQ, "a", "b"), soft(EQ, "b", "c"), soft(EQ, "a", "c"),
        crisp(NEQ, "a", "c")])


def test_assignment_cost_basics():
    tri = triangle()
    same = Assignment.from_blocks([["a", "b"], ["c"]])
    assert assignment_cost(tri, same).cost == 2
    merged = Assignment.from_blocks([["a", "b", "c"]])
    assert assignment_cost(tri, merged).cost == INF


def test_brute_force_examples():
    assert brute_force_cost(triangle()).cost == 2
    assert brute_force_cost(MinCspInstance.build("empty", [])).cost == 0
    inst = MinCspInstance.build("x", [crisp(NEQ, "a", "b"), crisp(EQ, "a", "b")])
    assert brute_force_cost(inst).cost == INF


def test_constants_in_oracle():
    inst = MinCspInstance.build("y", [soft_assign("x", 1), soft_assign("x", 2)])
    assert brute_force_cost(inst).cost == 1
    inst = MinCspInstance.build("z", [crisp_assign("x", 1), crisp_assign("x", 2)])
    assert brute_force_cost(inst).cost == INF
    inst = MinCspInstance.build("w", [crisp_assign("x", 1), crisp_assign("y", 1),
                                      crisp(NEQ, "x", "y")])
    assert brute_force_cost(inst).cost == INF
    inst = MinCspInstance.build("w2", [crisp_assign("x", 1), crisp_assign("y", 2),
                                       crisp(NEQ, "x", "y")])
    assert brute_force_cost(inst).cost == 0


def test_oracle_cap():
    inst = MinCspInstance.build(
        "big", [], variables=[f"v{i}" for i in range(13)])
    with pytest.raises(OracleCapExceeded):
        brute_force_cost(inst)
    assert brute_force_cost(inst, cap=13).cost == 0


def test_monotone_under_removal():
    rng = random.Random(4)
    rels = [EQ, NEQ, NEQ3, NAE3]
    for _ in range(40):
        vs = [f"v{i}" for i in range(rng.randint(3, 6))]
        cons = []
        for _ in range(rng.randint(1, 6)):
            rel = rng.choice(rels)
            cons.append(Constraint(rel, tuple(rng.sample(vs, rel.arity)),
                                   rng.choice(["crisp", "soft"]),
                                   rng.choice([1, 2])))
        inst = MinCspInstance.build("m", cons, vs)
        base = brute_force_cost(inst).cost
        smaller = inst.with_constraints(cons[1:])
        assert brute_force_cost(smaller).cost <= base
        # adding a crisp constraint never decreases cost
        extra = Constraint(NEQ, tuple(rng.sample(vs, 2)), "crisp", 1)
        bigger = inst.with_constraints(list(cons) + [extra])
        assert brute_force_cost(bigger).cost >= base


def test_permutation_invariance_of_constants():
    inst = MinCspInstance.build("p", [
        soft_assign("x", 5), soft(EQ, "x", "y"), crisp(NEQ, "y", "z")])
    a1 = Assignment({"x": ("const", 5), "y": ("const", 5), "z": ("fresh", 0)})
    # relabeling the fresh value leaves the cost unchanged
    a2 = Assignment({"x": ("const", 5), "y": ("const", 5), "z": ("fresh", 9)})
    assert assignment_cost(inst, a1).cost == assignment_cost(inst, a2).cost == 0


def test_defined_relation_and_checks():
    g = MinCspInstance.build("g", [soft(NEQ3, "x1", "x2", "y")],
                             primaries=("x1", "x2"))
    assert defined_relation(g).tuples == NEQ.tuples
    assert check_implementation(g, NEQ)
    assert check_pp_definition(g, NEQ)
    g2 = MinCspInstance.build("g2", [soft(ODD3, "x1", "x2", "x2")],
                              primaries=("x1", "x2"))
    assert check_implementation(g2, EQ)


def test_inline_gadget_identity_and_cost():
    gadget = MinCspInstance.build("g", [soft(NEQ3, "x1", "x2", "y")],
                                  primaries=("x1", "x2"))
    base = MinCspInstance.build("b", [soft(NEQ, "x", "y"), crisp(EQ, "x", "y")])
    inlined = inline_gadget(base, NEQ, gadget)
    assert brute_force_cost(base).cost == brute_force_cost(inlined).cost == 1
    no_target = MinCspInstance.build("n", [soft(EQ, "x", "y")])
    assert inline_gadget(no_target, NEQ, gadget).constraints == \
        no_target.constraints


def test_inline_gadget_random_cost_preserving():
    rng = random.Random(11)
    gadget = MinCspInstance.build("g", [soft(NEQ3, "x1", "x2", "y")],
                                  primaries=("x1", "x2"))
    trials = 0
    for _ in range(100):
        vs = [f"v{i}" for i in range(rng.randint(2, 5))]
        cons = []
        for _ in range(rng.randint(1, 4)):
            rel = rng.choice([EQ, NEQ])
            kind = rng.choice(["crisp", "soft"])
            cons.append(Constraint(rel, tuple(rng.sample(vs, 2)), kind,
                                   rng.choice([1, 2])))
        inst = MinCspInstance.build("r", cons, vs)
        out = inline_gadget(inst, NEQ, gadget, validate=False)
        if len(out.variables) > 10:
            continue
        trials += 1
        assert brute_force_cost(inst).cost == brute_force_cost(out).cost
    assert trials >= 80


def test_inline_gadget_tags_skip_variable_names():
    # the NEQ3 gadget's auxiliary v3 must not merge with a variable g1.v3
    from eqcut.expressive import implement_disequality

    gadget = implement_disequality(NEQ3)
    assert [v for v in gadget.variables if v not in gadget.primaries] == ["v3"]
    for name, tag in (("w", "g1"), ("g1.v3", "g2")):
        inst = MinCspInstance.build("i", [crisp(NEQ, "a", "b"),
                                          soft(EQ, name, "a")])
        out = inline_gadget(inst, NEQ, gadget)
        assert f"{tag}.v3" in out.variables
        assert brute_force_cost(inst).cost == brute_force_cost(out).cost == 0


def test_inline_crisp_via_pp_definition():
    # a Horn pp-definition of ODD3 out of its clause relations, crisp-only
    from eqcut.relations import minimal_definition, relation_from_cnf, CnfFormula

    phi = minimal_definition(ODD3, "horn")
    cons = []
    for i, cl in enumerate(sorted(phi.clauses, key=sorted)):
        rel = relation_from_cnf(CnfFormula(3, frozenset({cl})), 3, f"cl{i}")
        cons.append(crisp(rel, "x1", "x2", "x3"))
    gadget = MinCspInstance.build("odd3_pp", cons,
                                  primaries=("x1", "x2", "x3"))
    assert check_pp_definition(gadget, ODD3)
    inst = MinCspInstance.build("i", [
        crisp(ODD3, "a", "b", "c"), soft(EQ, "a", "b"), soft(NEQ, "b", "c")])
    out = inline_gadget(inst, ODD3, gadget)
    assert brute_force_cost(inst).cost == brute_force_cost(out).cost


def test_split_conjunctive_order_ignores_hash_seed():
    script = (
        "from eqcut.instances import MinCspInstance, soft, split_conjunctive\n"
        "from eqcut.relations import CnfFormula, clause, relation_from_cnf\n"
        "phi = CnfFormula(4, frozenset({clause((1, 2, '!=')),\n"
        "    clause((3, 4, '!=')), clause((1, 3, '!='), (2, 4, '!='))}))\n"
        "r3 = relation_from_cnf(phi, 4, 'r3')\n"
        "inst = MinCspInstance.build('s', [soft(r3, 'a', 'b', 'c', 'd')])\n"
        "out, _ = split_conjunctive(inst)\n"
        "for c in out.constraints:\n"
        "    print(c.scope, sorted(c.relation.tuples))\n")
    outs = set()
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1 and len(outs.pop().splitlines()) == 3


def test_crisp_as_copies():
    from eqcut.instances import crisp_as_copies

    inst = MinCspInstance.build("c", [crisp(NEQ, "a", "b"), soft(EQ, "a", "b")])
    out = crisp_as_copies(inst, 2)
    kinds = {(c.kind, c.multiplicity) for c in out.constraints}
    assert kinds == {("soft", 3), ("soft", 1)}
    # at budget k the encodings decide alike
    assert (brute_force_cost(inst).cost <= 2) == \
        (brute_force_cost(out).cost <= 2)


def test_normalize_constraint():
    n = normalize_constraint(Constraint(NEQ3, ("a", "a", "c"), "soft", 1))
    assert n.relation.is_empty() and n.scope == ("a", "c")
    n2 = normalize_constraint(Constraint(EQ3, ("a", "a", "c"), "crisp", 1))
    assert n2.relation.tuples == EQ.tuples
    n3 = normalize_constraint(Constraint(ODD3, ("a", "b", "a"), "crisp", 1))
    assert n3.relation.tuples == EQ.tuples and n3.scope == ("a", "b")
    # fully unconstrained after identification: dropped
    full3 = EqRelation.from_tuples("full2", 2, [(1, 1), (1, 2)])
    assert normalize_constraint(Constraint(full3, ("a", "a"), "soft", 1)) is None


def test_split_conjunctive():
    inst = MinCspInstance.build("s", [
        soft(R_AND_EQ_EQ, "a", "b", "c", "d"), crisp(NEQ, "a", "b")])
    out, factor = split_conjunctive(inst)
    assert factor == 2
    assert brute_force_cost(inst).cost == 1
    assert brute_force_cost(out).cost == 1
    # both clauses broken: inflation shows up
    inst2 = MinCspInstance.build("s2", [
        soft(R_AND_EQ_EQ, "a", "b", "c", "d"),
        crisp(NEQ, "a", "b"), crisp(NEQ, "c", "d")])
    out2, _ = split_conjunctive(inst2)
    assert brute_force_cost(inst2).cost == 1
    assert brute_force_cost(out2).cost == 2
    # single-clause relations unchanged
    inst3 = MinCspInstance.build("s3", [
        soft(rneq_relation(2), "x1", "y1", "x2", "y2")])
    out3, f3 = split_conjunctive(inst3)
    assert f3 == 1 and out3.constraints == inst3.constraints
    inst4 = MinCspInstance.build("s4", [soft(EQ, "x", "y")])
    out4, _ = split_conjunctive(inst4)
    assert out4.constraints == inst4.constraints
    with pytest.raises(ValueError):
        split_conjunctive(MinCspInstance.build(
            "bad", [soft(ODD3, "a", "b", "c")]))


def test_instance_plumbing():
    inst = triangle()
    rep, best = oracle_optimum(inst)
    assert rep.cost == 2 and best is not None
    assert assignment_cost(inst, best).cost == 2
    smaller = inst.without([inst.constraints[0]])
    assert len(smaller.constraints) == 3
    with pytest.raises(ValueError):
        inst.without([soft(EQ, "a", "a")])
    with pytest.raises(ValueError):
        MinCspInstance("dup", ("a", "a"), ())
    with pytest.raises(ValueError):
        MinCspInstance("undeclared", ("a",), (soft(EQ, "a", "b"),))


def test_build_orders_declared_then_scope_variables_by_first_occurrence():
    inst = MinCspInstance.build("order", [
        soft(EQ, "e", "b"), crisp(NEQ, "d", "e"), soft(EQ, "a", "f"),
        soft_assign("g", 1), soft(EQ, "f", "d")], ["c", "a", "c", "b"])
    assert inst.variables == ("c", "a", "b", "e", "d", "f", "g")
    assert MinCspInstance.build("none", []).variables == ()


def test_set_partitions():
    for n in range(8):
        items = list(range(n))
        seen = set()
        for part in set_partitions(items):
            assert sorted(x for block in part for x in block) == items
            seen.add(frozenset(frozenset(block) for block in part))
        assert len(seen) == [1, 1, 2, 5, 15, 52, 203, 877][n]
    # the order fixes which compression guess a solver meets first
    first = [[list(b) for b in part] for part in
             itertools.islice(set_partitions("abc"), 5)]
    assert first == [[["c", "b", "a"]], [["c", "b"], ["a"]], [["c", "a"], ["b"]],
                     [["c"], ["b", "a"]], [["c"], ["b"], ["a"]]]


def test_subsets():
    assert list(subsets("abc")) == [
        (), ("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
        ("a", "b", "c")]
    assert list(subsets("abcd", 2)) == [
        (), ("a",), ("b",), ("c",), ("d",), ("a", "b"), ("a", "c"),
        ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    assert list(subsets("ab", 5)) == list(subsets("ab"))
    assert list(subsets("ab", 0)) == [()]
    assert list(subsets("")) == [()]
    for n in range(5):
        items = list(range(n))
        out = list(subsets(items))
        assert len(out) == len(set(out)) == 2 ** n
        assert [len(s) for s in out] == sorted(len(s) for s in out)
        for k in range(n + 1):
            assert list(subsets(items, k)) == [s for s in out if len(s) <= k]
