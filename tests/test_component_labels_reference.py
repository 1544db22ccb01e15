"""The cut solvers answer every same-component question from one
`component_labels` per cut.  These tests keep the earlier, separate forms of
two such questions as references, and require the same answers: the Triple
Multicut check over a `components()` partition, and one `reachable` search
per terminal set.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.cutgraph import (  # noqa: E402
    CutGraph,
    TripleSet,
    components,
    reachable,
    triple_multicut_feasible,
)
from eqcut.solvers import _tset_check  # noqa: E402


def _components_triple_feasible(g, triples, z_v, z_t):
    """Reference: label every component of G - z_v, then require the kept
    vertices of each triple not in z_t to lie in distinct components."""
    z_v, z_t = set(z_v), set(z_t)
    if any(not g.deletable(v) for v in z_v):
        return False
    comp_of = {}
    for i, comp in enumerate(components(g, z_v)):
        for v in comp:
            comp_of[v] = i
    for tri, _m in triples:
        if tri in z_t:
            continue
        survivors = [comp_of[v] for v in tri if v in comp_of]
        if len(survivors) != len(set(survivors)):
            return False
    return True


def _reachable_tset_satisfied(g, cut, tset):
    """Reference: the cut meets the set, or one search from its first
    terminal misses another; a set of fewer than two terminals never
    counts."""
    cut = set(cut)
    terms = sorted(set(tset))
    if len(terms) < 2:
        return False
    if not cut.isdisjoint(terms):
        return True
    return not reachable(g, terms[:1], cut).issuperset(terms)


@st.composite
def graphs(draw, min_n=3, max_n=9):
    """A graph with some undeletable vertices, and its vertex list."""
    n = draw(st.integers(min_n, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    undeletable = draw(st.sets(st.sampled_from(vs), max_size=3))
    return CutGraph.build(vs, edges, undeletable), vs


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_triple_feasible_matches_components_reference(data):
    g, vs = data.draw(graphs())
    tris = data.draw(st.lists(
        st.tuples(st.sets(st.sampled_from(vs), min_size=3, max_size=3),
                  st.integers(1, 2)), max_size=5))
    triples = TripleSet.of(*((tuple(sorted(t)), m) for t, m in tris))
    # deleted vertices often sit inside triples, and may be undeletable
    z_v = data.draw(st.sets(st.sampled_from(vs), max_size=4))
    z_t = data.draw(st.sets(st.sampled_from([t for t, _m in triples]),
                            max_size=len(triples))) if len(triples) else set()
    assert triple_multicut_feasible(g, triples, z_v, z_t) == \
        _components_triple_feasible(g, triples, z_v, z_t)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tset_check_matches_reachable_reference(data):
    g, vs = data.draw(graphs(min_n=2))
    cut = data.draw(st.sets(st.sampled_from(vs), max_size=4))
    # sets of one to four terminals, with repeats and cut members
    t_sets = data.draw(st.lists(st.lists(st.sampled_from(vs), min_size=1,
                                         max_size=4), min_size=1, max_size=6))
    check = _tset_check(g, cut)
    assert [check(ts) for ts in t_sets] == \
        [_reachable_tset_satisfied(g, cut, ts) for ts in t_sets]
