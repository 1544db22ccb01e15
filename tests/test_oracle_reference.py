"""Differential tests of the partition oracle against a reference walk.

The reference is the earlier form of `oracle_optimum` and `pattern_costs`,
kept here as it was: it builds every canonical assignment (each partition of
the variables, with each of its constant labellings) and costs it in full
with `assignment_cost` or `_constraint_violated`.  The oracle now checks the
relation constraints once per partition and stops a partition or labelling
early.  It must return the same cost, the same violated constraints in the
same order and the same first optimal assignment; `pattern_costs` must
return the same dict with the same key order.
"""

import random
from typing import Iterable, Iterator

import pytest

from conftest import relations_up_to_symmetry
from eqcut.expressive import (
    extract_nae3_or_disjneqneq,
    implement_disequality,
    implement_equality,
)
from eqcut.gadgets import odd3_nary_gadget
from eqcut.instances import (
    INF,
    Assignment,
    Constraint,
    CostReport,
    MinCspInstance,
    _constraint_violated,
    _labelings,
    assignment_cost,
    oracle_optimum,
    pattern_costs,
    set_partitions,
)
from eqcut.relations import (
    EQ,
    EQ3,
    NAE3,
    NEQ,
    NEQ3,
    ODD3,
    canonicalize,
    is_conjunctive,
    is_horn,
    is_negative,
    is_strictly_negative,
)
from eqcut.verify import (
    random_constants_instance,
    random_rneq_instance,
    random_split_neq3_instance,
)


def ref_assignments(inst: MinCspInstance) -> Iterator[Assignment]:
    assign_wants: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            assign_wants.setdefault(c.scope[0], set()).add(c.value)
    for blocks in set_partitions(inst.variables):
        labelings: Iterable[dict] = ({},)
        if assign_wants:
            labelings = _labelings([
                set().union(*(assign_wants.get(v, set()) for v in b))
                for b in blocks])
        for labels in labelings:
            yield Assignment.from_blocks(blocks, labels)


def ref_oracle_optimum(inst: MinCspInstance):
    best = (CostReport(INF), None)
    for assignment in ref_assignments(inst):
        report = assignment_cost(inst, assignment)
        if report.cost < best[0].cost:
            best = (report, assignment)
            if report.cost == 0:
                break
    return best


def ref_pattern_costs(gadget: MinCspInstance) -> dict:
    costs: dict = {}
    for assignment in ref_assignments(gadget):
        pattern = canonicalize([assignment[v] for v in gadget.primaries])
        best, cost = costs.get(pattern, INF), 0
        for c in gadget.constraints:
            if cost >= best:
                break
            if _constraint_violated(c, assignment):
                cost += c.multiplicity
        if cost < best:
            costs[pattern] = cost
    return costs


def random_shared_assignments_instance(rng: random.Random, nvars: int,
                                       ncons: int) -> MinCspInstance:
    """Crisp and soft assignment constraints, several on some variables,
    mixed with crisp and soft relation constraints."""
    vs = [f"x{i}" for i in range(nvars)]
    shared = rng.sample(vs, min(2, nvars))
    cons = []
    for _ in range(ncons):
        roll = rng.random()
        kind = "crisp" if rng.random() < 0.3 else "soft"
        mult = rng.choice([1, 1, 2])
        if roll < 0.45:
            var = rng.choice(shared) if rng.random() < 0.6 else rng.choice(vs)
            cons.append(Constraint(None, (var,), kind, mult,
                                   rng.randint(1, 3)))
        else:
            rel = rng.choice([EQ, NEQ, NEQ3, EQ3, NAE3, ODD3])
            if rel.arity > nvars:
                rel = NEQ
            cons.append(Constraint(rel, tuple(rng.sample(vs, rel.arity)),
                                   kind, mult))
    return MinCspInstance.build("rand_shared", cons, vs)


FAMILIES = [
    (random_split_neq3_instance, 3, 6),
    (random_rneq_instance, 4, 6),
    (random_constants_instance, 2, 6),
    (random_shared_assignments_instance, 2, 6),
]


@pytest.mark.parametrize("seed", range(4))
def test_oracle_matches_reference(seed):
    rng = random.Random(seed)
    ties = infeasible = 0
    for _ in range(75):
        for make, lo, hi in FAMILIES:
            inst = make(rng, rng.randint(lo, hi), rng.randint(1, 9))
            got_rep, got = oracle_optimum(inst)
            want_rep, want = ref_oracle_optimum(inst)
            assert got_rep.cost == want_rep.cost, inst
            assert got_rep.violated == want_rep.violated, inst
            if want is None:
                assert got is None, inst
                infeasible += 1
            else:
                assert got is not None and got.values == want.values, inst
                ties += want_rep.cost > 0
    # both early exits have something to decide on
    assert ties > 0 and infeasible > 0


def _gadgets() -> Iterator[MinCspInstance]:
    for rel in relations_up_to_symmetry(3):
        if not rel.is_constant():
            yield implement_disequality(rel)
        if is_horn(rel) and not is_strictly_negative(rel):
            yield implement_equality(rel)
    for arity in (3, 4):
        for rel in relations_up_to_symmetry(arity):
            if is_negative(rel) and not is_conjunctive(rel):
                yield extract_nae3_or_disjneqneq(rel).instance
    for n in (1, 2, 3, 4):
        yield odd3_nary_gadget(n)
    rng = random.Random(7)
    for _ in range(60):
        inst = random_shared_assignments_instance(
            rng, rng.randint(2, 6), rng.randint(1, 8))
        prims = rng.sample(inst.variables, rng.randint(1, len(inst.variables)))
        yield MinCspInstance.build(inst.name, inst.constraints, inst.variables,
                                   prims)


def test_pattern_costs_matches_reference():
    count = 0
    for gadget in _gadgets():
        got, want = pattern_costs(gadget), ref_pattern_costs(gadget)
        assert got == want, gadget
        assert list(got) == list(want), gadget
        count += 1
    assert count > 100
