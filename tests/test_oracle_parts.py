"""`brute_force_cost` walks each connected part of the constraint hypergraph
alone and adds up the parts' optima; it must give the full walk's cost.

The instances are seeded random instances, padded with variables that no
constraint mentions, and half of them joined with a second instance under
renamed variables: so there are several parts, parts that assign the same
constants, and parts that are crisp-infeasible on their own.  A spy on
`oracle_optimum` checks which parts reach the walk and in what order.
"""

import random
from dataclasses import replace

import pytest

from eqcut import instances
from eqcut.instances import (
    INF,
    MinCspInstance,
    OracleCapExceeded,
    brute_force_cost,
    soft,
)
from eqcut.relations import EqRelation
from eqcut.verify import (
    random_constants_instance,
    random_rneq_instance,
    random_split_neq3_instance,
)

FAMILIES = [
    (random_split_neq3_instance, 3),
    (random_rneq_instance, 2),
    (random_constants_instance, 2),
]


def _draw(rng: random.Random, hi: int, prefix: str):
    make, lo = rng.choice(FAMILIES)
    inst = make(rng, rng.randint(lo, max(lo, hi)), rng.randint(1, 5))
    name = {v: prefix + v for v in inst.variables}
    return ([name[v] for v in inst.variables],
            [replace(c, scope=tuple(name[v] for v in c.scope))
             for c in inst.constraints])


def padded_instance(rng: random.Random) -> MinCspInstance:
    """One random instance, half the time joined with a second one, plus one
    or two unconstrained variables, all in a shuffled order."""
    variables, constraints = _draw(rng, 4, "a")
    if rng.random() < 0.5:
        more, cons = _draw(rng, 3, "b")
        variables += more
        constraints += cons
    variables += [f"pad{i}" for i in range(rng.randint(1, 2))]
    rng.shuffle(variables)
    rng.shuffle(constraints)
    return MinCspInstance.build("parts", constraints, variables)


def expected_parts(inst: MinCspInstance) -> list:
    """The (variables, constraints) of each connected part, found by merging
    variable sets, in order of first variable and in instance order."""
    part: dict = {}
    for c in inst.constraints:
        merged = set().union(*(part.get(v, {v}) for v in c.scope))
        for v in merged:
            part[v] = merged
    order: list = []
    for v in inst.variables:
        if v in part and not any(part[v] is p for p in order):
            order.append(part[v])
    return [(tuple(v for v in inst.variables if v in p),
             tuple(c for c in inst.constraints if c.scope[0] in p))
            for p in order]


@pytest.fixture
def walks(monkeypatch):
    """The (part, cost) of every oracle_optimum call brute_force_cost makes,
    and the unpatched oracle_optimum."""
    calls: list = []
    real = instances.oracle_optimum

    def spy(part, cap=None):
        result = real(part, cap)
        calls.append((part, result[0].cost))
        return result

    monkeypatch.setattr(instances, "oracle_optimum", spy)
    return calls, real


def _shares_a_constant(parts: list) -> bool:
    seen: set = set()
    for _variables, constraints in parts:
        values = {c.value for c in constraints if c.relation is None}
        if values & seen:
            return True
        seen |= values
    return False


@pytest.mark.parametrize("seed", range(5))
def test_parts_sum_to_the_full_walk(seed, walks):
    calls, full_walk = walks
    rng = random.Random(seed)
    several = shared = stopped = 0
    for _ in range(300):
        inst = padded_instance(rng)
        calls.clear()
        got = brute_force_cost(inst)
        assert got.cost == full_walk(inst)[0].cost, inst
        if got.cost != INF:
            assert sum(c.multiplicity for c in got.violated) == got.cost, inst
            assert all(c in inst.constraints for c in got.violated), inst
        parts = expected_parts(inst)
        assert [(p.variables, p.constraints) for p, _ in calls] == \
            parts[:len(calls)], inst
        # the walk stops at the first infeasible part, and only there
        assert all(cost != INF for _, cost in calls[:-1]), inst
        assert len(calls) == len(parts) or calls[-1][1] == INF, inst
        several += len(parts) > 1
        shared += _shares_a_constant(parts)
        stopped += len(calls) < len(parts)
    assert several and shared and stopped


def test_cap_counts_every_declared_variable(monkeypatch):
    monkeypatch.delenv("EQCUT_ORACLE_CAP", raising=False)
    never = EqRelation("never", 2, frozenset())
    inst = MinCspInstance.build("big", [soft(never, "v0", "v1", m=3)],
                                variables=[f"v{i}" for i in range(13)])
    with pytest.raises(OracleCapExceeded) as e:
        brute_force_cost(inst)
    assert str(e.value) == "13 variables exceeds oracle cap 12"
    assert brute_force_cost(inst, cap=13).cost == 3


def test_twelve_variables_walk_one_part_of_ten(walks):
    calls, _full_walk = walks
    inst = random_rneq_instance(random.Random(1), 12, 10)
    # The full walk over all 12 variables also gives 2; it takes about
    # 17 s, so it is not run here.
    assert brute_force_cost(inst).cost == 2
    assert [len(part.variables) for part, _ in calls] == [10]
