"""Differential tests of the strictly negative solvers against a reference.

The reference is the earlier form of `negative_fpt_solve` and
`negative_approx`, kept here as it was: it finds contradictory assignments
with `_conflicting_assignments`, branches on keeping each of a variable's
values, and rebuilds a validated `MinCspInstance` at every search node and
every approximation round so that `_tentative_violation` can read it.  The
solvers now branch on the first obstacle and read one per-variable grouping
of the assignment constraints.  The decision must equal the reference and
the partition oracle, and the approximation must return the same cost and
the same deleted constraints (or raise the same error).
"""

import random
from dataclasses import replace
from typing import Optional

import pytest

from eqcut.instances import (
    Assignment,
    Constraint,
    MinCspInstance,
    _constraint_violated,
    brute_force_cost,
    crisp,
    crisp_assign,
    soft_assign,
)
from eqcut.relations import (
    NEQ,
    NEQ3,
    R_AND_NEQ_NEQ,
    R_VEE_NEQ_NEQ,
    is_strictly_negative,
)
from eqcut.solvers import negative_approx, negative_fpt_solve


def ref_tentative_violation(inst: MinCspInstance) -> Optional[Constraint]:
    value: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            value[c.scope[0]] = ("const", c.value)
    fresh = 0
    for v in inst.variables:
        if v not in value:
            value[v] = ("fresh", fresh)
            fresh += 1
    a = Assignment(value)
    for c in inst.constraints:
        if not c.is_assignment() and _constraint_violated(c, a):
            return c
    return None


def ref_conflicting_assignments(inst: MinCspInstance) -> Optional[str]:
    by_var: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            by_var.setdefault(c.scope[0], set()).add(c.value)
    for v, vals in by_var.items():
        if len(vals) > 1:
            return v
    return None


def ref_negative_fpt_solve(inst: MinCspInstance, k: int) -> bool:
    for c in inst.constraints:
        if not c.is_assignment() and not is_strictly_negative(c.relation):
            raise ValueError(f"relation {c.relation.name} is not strictly negative")

    def rec(cur: MinCspInstance, budget: int) -> bool:
        if budget < 0:
            return False
        crisp_vals: dict = {}
        for c in cur.constraints:
            if c.is_assignment() and c.kind == "crisp":
                crisp_vals.setdefault(c.scope[0], set()).add(c.value)
        if any(len(vals) > 1 for vals in crisp_vals.values()):
            return False

        v = ref_conflicting_assignments(cur)
        if v is not None:
            vals = sorted({c.value for c in cur.constraints
                           if c.is_assignment() and c.scope[0] == v})
            for keep in vals:
                drop = [c for c in cur.constraints
                        if c.is_assignment() and c.scope[0] == v
                        and c.value != keep]
                if any(c.kind == "crisp" for c in drop):
                    continue
                cost = sum(c.multiplicity for c in drop)
                if cost <= budget and rec(cur.with_constraints(
                        [c for c in cur.constraints if c not in drop]),
                        budget - cost):
                    return True
            return False

        bad = ref_tentative_violation(cur)
        if bad is None:
            return True
        if bad.kind == "soft" and bad.multiplicity <= budget:
            rest = list(cur.constraints)
            rest.remove(bad)
            if rec(cur.with_constraints(rest), budget - bad.multiplicity):
                return True
        for x in dict.fromkeys(bad.scope):
            drop = [c for c in cur.constraints
                    if c.is_assignment() and c.scope[0] == x]
            if not drop or any(c.kind == "crisp" for c in drop):
                continue
            cost = sum(c.multiplicity for c in drop)
            if cost <= budget and rec(cur.with_constraints(
                    [c for c in cur.constraints if c not in drop]),
                    budget - cost):
                return True
        return False

    return rec(inst, k)


def ref_negative_approx(inst: MinCspInstance) -> tuple[int, list[Constraint]]:
    deleted: list[Constraint] = []
    work = list(inst.constraints)

    changed = True
    while changed:
        changed = False
        by_var: dict = {}
        for c in work:
            if c.is_assignment():
                by_var.setdefault(c.scope[0], {}).setdefault(c.value, []).append(c)
        for v, groups in by_var.items():
            if len(groups) <= 1:
                continue
            crisp_vals = [val for val, cs in groups.items()
                          if any(c.kind == "crisp" for c in cs)]
            if len(crisp_vals) > 1:
                raise ValueError("contradictory crisp assignments")
            if crisp_vals:
                best_val = crisp_vals[0]
            else:
                best_val = max(groups, key=lambda val: sum(
                    c.multiplicity for c in groups[val]))
            m1 = sum(c.multiplicity for val, cs in groups.items()
                     if val != best_val for c in cs)
            m2 = sum(c.multiplicity for c in groups[best_val]
                     if c.kind == "soft")
            for val, cs in groups.items():
                if val != best_val:
                    for c in cs:
                        work.remove(c)
                        deleted.append(c)
            surplus = min(m1, m2)
            for c in list(groups[best_val]):
                if surplus <= 0:
                    break
                if c.kind == "crisp":
                    continue
                take = min(surplus, c.multiplicity)
                work.remove(c)
                if take < c.multiplicity:
                    work.append(replace(c, multiplicity=c.multiplicity - take))
                deleted.append(Constraint(c.relation, c.scope, c.kind, take,
                                          c.value))
                surplus -= take
            changed = True

    while True:
        cur = MinCspInstance.build(inst.name, work, inst.variables)
        bad = ref_tentative_violation(cur)
        if bad is None:
            break
        if bad.kind == "crisp":
            choices = []
            for x in dict.fromkeys(bad.scope):
                copies = [c for c in work
                          if c.is_assignment() and c.scope[0] == x]
                if copies and all(c.kind == "soft" for c in copies):
                    choices.append((sum(c.multiplicity for c in copies), x, copies))
            if not choices:
                raise ValueError("crisp constraint conflicts with crisp assignments")
            _, x, copies = min(choices)
            for c in copies:
                work.remove(c)
                deleted.append(c)
            continue
        work.remove(bad)
        deleted.append(bad)
        for x in dict.fromkeys(bad.scope):
            for c in list(work):
                if c.is_assignment() and c.scope[0] == x and c.kind == "soft":
                    work.remove(c)
                    if c.multiplicity > 1:
                        work.append(replace(c, multiplicity=c.multiplicity - 1))
                    deleted.append(Constraint(None, c.scope, c.kind, 1, c.value))
                    break
    cost = sum(c.multiplicity for c in deleted)
    return cost, deleted


POOL = (NEQ, NEQ3, R_VEE_NEQ_NEQ, R_AND_NEQ_NEQ)
INSTANCES = 3000
CHUNKS = 10
KS = range(5)


def _random_instance(rng: random.Random) -> MinCspInstance:
    """2-7 variables, 0-7 relation constraints (30% crisp), 0-3 assignments
    per variable (15% crisp, values 1-3, so often contradictory), and in
    20% of the instances one constraint repeated as the same object."""
    vs = [f"x{i}" for i in range(rng.randint(2, 7))]
    cons = []
    for _ in range(rng.randint(0, 7)):
        r = rng.choice(POOL)
        scope = (rng.sample(vs, r.arity) if r.arity <= len(vs)
                 else rng.choices(vs, k=r.arity))
        kind = "crisp" if rng.random() < 0.3 else "soft"
        cons.append(Constraint(r, tuple(scope), kind,
                               1 if kind == "crisp" else rng.choice((1, 1, 2))))
    for v in vs:
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.15:
                cons.append(crisp_assign(v, rng.randint(1, 3)))
            else:
                cons.append(soft_assign(v, rng.randint(1, 3),
                                        rng.choice((1, 1, 2))))
    rng.shuffle(cons)
    if cons and rng.random() < 0.2:
        cons.insert(rng.randrange(len(cons) + 1), rng.choice(cons))
    return MinCspInstance.build("r", cons, vs)


def _approx(solver, inst):
    try:
        return solver(inst)
    except ValueError as err:
        return f"ValueError: {err}"


def _check(inst: MinCspInstance) -> tuple[int, int]:
    """Compares both solvers with the reference and the oracle; returns the
    number of accepted and rejected (instance, k) cases."""
    opt = brute_force_cost(inst).cost
    accepted = 0
    for k in KS:
        verdict = negative_fpt_solve(inst, k)
        assert verdict == ref_negative_fpt_solve(inst, k) == (opt <= k), \
            (inst, k)
        accepted += verdict
    assert _approx(negative_approx, inst) == \
        _approx(ref_negative_approx, inst), inst
    return accepted, len(KS) - accepted


@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_negative_solvers_match_reference(chunk):
    rng = random.Random(7919 * chunk + 1)
    accepted = rejected = 0
    for _ in range(INSTANCES // CHUNKS):
        a, r = _check(_random_instance(rng))
        accepted += a
        rejected += r
    assert accepted >= 50 and rejected >= 50


@pytest.mark.parametrize("cons", [
    # one variable with three soft values: keeping 2 costs 2
    [soft_assign("v", 1), soft_assign("v", 2, 2), soft_assign("v", 3),
     crisp(NEQ, "v", "w")],
    # two crisp values for one variable: no budget suffices
    [crisp_assign("v", 1), soft_assign("w", 1), crisp_assign("v", 2)],
    # a crisp disequality between two variables with the same crisp constant
    [crisp(NEQ, "a", "b"), crisp_assign("a", 1), crisp_assign("b", 1),
     soft_assign("a", 2)],
])
def test_negative_fixed_cases(cons):
    _check(MinCspInstance.build("fixed", cons))


def test_negative_fixed_case_outcomes():
    three = MinCspInstance.build("three", [
        soft_assign("v", 1), soft_assign("v", 2, 2), soft_assign("v", 3)])
    assert [negative_fpt_solve(three, k) for k in range(4)] == \
        [False, False, True, True]
    with pytest.raises(ValueError, match="contradictory crisp"):
        negative_approx(MinCspInstance.build("clash", [
            crisp_assign("v", 1), crisp_assign("v", 2)]))
    same = MinCspInstance.build("same", [
        crisp(NEQ, "a", "b"), crisp_assign("a", 1), crisp_assign("b", 1)])
    assert not negative_fpt_solve(same, 4)
    with pytest.raises(ValueError, match="crisp constraint conflicts"):
        negative_approx(same)
