"""Differential tests of the 2-SAT engine behind Triple Multicut against
brute force over assignments and over subsets of soft groups."""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.triple_multicut import (  # noqa: E402
    BooleanInstance,
    CrispUnsatisfiable,
    SoftGroup,
    boolean_solve,
    two_sat_conflict,
)

VARS = [("x", i) for i in range(4)]
literals = st.tuples(st.sampled_from(VARS), st.booleans())
clauses = st.one_of(st.tuples(literals), st.tuples(literals, literals))


def _satisfiable(cls) -> bool:
    for bits in itertools.product((False, True), repeat=len(VARS)):
        val = dict(zip(VARS, bits))
        if all(any(val[v] == pol for v, pol in cl) for cl in cls):
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(cls=st.lists(clauses, max_size=9))
def test_two_sat_conflict_matches_brute_force(cls):
    chain = two_sat_conflict(cls, range(len(cls)))
    assert (chain is None) == _satisfiable(cls)
    if chain is not None:
        # the clauses on the chain imply x -> not x -> x by themselves
        assert not _satisfiable([cls[i] for i in set(chain)])


@settings(max_examples=400, deadline=None)
@given(crisp=st.lists(clauses, max_size=4),
       groups=st.lists(st.tuples(st.lists(clauses, min_size=1, max_size=3),
                                 st.integers(1, 3)), max_size=5),
       budget=st.integers(0, 6))
def test_boolean_solve_matches_brute_force(crisp, groups, budget):
    softs = tuple(SoftGroup(("s", i), tuple(cls), w)
                  for i, (cls, w) in enumerate(groups))
    inst = BooleanInstance(tuple(crisp), softs, budget)
    if not _satisfiable(crisp):
        with pytest.raises(CrispUnsatisfiable):
            boolean_solve(inst)
        return

    def fits(removed) -> bool:
        return _satisfiable(crisp + [cl for s in softs if s.ident not in removed
                                     for cl in s.clauses])

    weight = {s.ident: s.weight for s in softs}
    costs = [sum(weight[i] for i in removed)
             for size in range(len(softs) + 1)
             for removed in itertools.combinations(weight, size)
             if fits(removed)]
    best = min((c for c in costs if c <= budget), default=None)
    out = boolean_solve(inst)
    if best is None:
        assert out is None
    else:
        assert out is not None and fits(out)
        assert sum(weight[i] for i in out) == best
