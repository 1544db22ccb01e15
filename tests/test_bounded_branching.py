"""Tests of the bounds that `strict_steiner` and `multiway_cut` put on a
branch before its flow runs, and of the searchless hub check.

`strict_steiner` caps each node's flow below the best cut found and drops a
node whose parent's flow already reaches that cap; `multiway_cut` asks
`important_separators` only for the separators that keep a cut below the
best one.  The references are the unbounded loops: every node's flow runs
at the full budget k (`test_flow_reference.ref_strict_steiner`, which also
checks the hub with a component search of G - hub), and every important
separator within the budget is branched on.  Both forms must return the
same sets.
"""

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.cutgraph import (  # noqa: E402
    CutGraph,
    check_vertices,
    component_labels,
    components,
    important_separators,
    multiway_cut,
)
from eqcut.solvers import (  # noqa: E402
    StrictSteinerStats,
    _terminal_sets,
    _tset_check,
    strict_steiner,
)
from eqcut.verify import random_graph  # noqa: E402
from test_flow_reference import ref_strict_steiner  # noqa: E402


def unbounded_multiway_cut(g, terminals, k):
    """Every important separator within the remaining budget k - |cut|."""
    groups = [frozenset({t}) if isinstance(t, str) else frozenset(t)
              for t in terminals]
    members = [(i, v) for i, grp in enumerate(groups) for v in grp]
    check_vertices(g, (v for _i, v in members), "terminal")
    g = g.make_undeletable(v for _i, v in members)

    def violated(cut):
        label = component_labels(g, cut)
        for (i, a), (j, b) in itertools.combinations(members, 2):
            if i != j and label(a) == label(b):
                return i
        return None

    best = None
    stack = [(frozenset(), k)] if k >= 0 else []
    while stack:
        cut, budget = stack.pop()
        if best is not None and len(cut) >= len(best):
            continue
        i = violated(cut)
        if i is None:
            best = cut
            continue
        if budget == 0:
            continue
        ys = [v for j, v in members if j != i]
        seps = important_separators(g.without(cut), groups[i], ys, budget)
        stack.extend((cut | sep, budget - len(sep)) for sep in reversed(seps))
    return best


@st.composite
def separator_cases(draw, max_n=10):
    n = draw(st.integers(3, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    undeletable = draw(st.sets(st.sampled_from(vs), max_size=3))
    g = CutGraph.build(vs, edges, undeletable)
    xs = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=2,
                       unique=True))
    ys = draw(st.lists(st.sampled_from([v for v in vs if v not in xs]),
                       min_size=1, max_size=3, unique=True))
    small = draw(st.integers(0, 3))
    return g, xs, ys, small, small + draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(case=separator_cases())
def test_important_separators_at_a_smaller_bound_are_the_small_ones(case):
    g, xs, ys, small, big = case
    assert important_separators(g, xs, ys, small) == \
        [s for s in important_separators(g, xs, ys, big) if len(s) <= small]


def _hub_check_reference(g, hub, t_sets):
    return all(map(_tset_check(g, {hub}), _terminal_sets(g, t_sets)))


def test_searchless_hub_check_agrees_with_component_search():
    rng = random.Random(31)
    raised = accepted = 0
    for _ in range(600):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, min(1.0, 2.5 / n))
        vs = list(g.vertices)
        hub = rng.choice(vs)
        g = g.make_undeletable([hub])
        t_sets = []
        for _s in range(rng.randint(1, 3)):
            ts = rng.sample(vs, rng.randint(1, min(3, n)))
            if rng.random() < 0.5 and hub not in ts:
                ts.append(hub)
            t_sets.append(ts)
        if _hub_check_reference(g, hub, t_sets):
            accepted += 1
            strict_steiner(g, hub, t_sets, 0)
        else:
            raised += 1
            with pytest.raises(ValueError, match="hub does not satisfy"):
                strict_steiner(g, hub, t_sets, 0)
    assert raised >= 100 and accepted >= 100


@pytest.mark.parametrize("t_sets", [[["h"]], [("h", "h")], [["h", "a"], ["h"]],
                                    [["a", "b"]], [["h", "b"], ["b", "a"]]])
def test_hub_alone_or_an_unsplit_hubless_set_is_rejected(t_sets):
    """h hangs off a, so deleting it does not split a from b."""
    g = CutGraph.build("hab", [("h", "a"), ("a", "b")])
    with pytest.raises(ValueError, match="hub does not satisfy"):
        strict_steiner(g, "h", t_sets, 2)


def _scale_graph(rng):
    """A sparse graph with mean degree about 3 and n in 64..256, its
    highest-degree vertex as hub, and its largest component."""
    n = rng.randint(64, 256)
    g = random_graph(rng, n, 3.0 / (n - 1))
    degree = dict.fromkeys(g.vertices, 0)
    for e in g.edges:
        for v in e:
            degree[v] += 1
    hub = max(g.vertices, key=lambda v: (degree[v], v))
    return g, hub, sorted(max(components(g), key=len))


def test_bounded_strict_steiner_matches_unbounded_on_scale_graphs():
    rng = random.Random(64)
    found = 0
    for _ in range(150):
        g, hub, giant = _scale_graph(rng)
        others = [v for v in giant if v != hub]
        nsets = rng.randint(1, 4)
        t_sets = [sorted([hub, *rng.sample(others, 2)]) for _ in range(nsets)]
        for k in (nsets - 1, nsets, nsets + 1):
            got = strict_steiner(g, hub, t_sets, k)
            assert got == ref_strict_steiner(g, hub, t_sets, k,
                                             StrictSteinerStats())
            found += got is not None
    assert found >= 150


def test_bounded_multiway_cut_matches_unbounded_on_scale_graphs():
    rng = random.Random(65)
    found = 0
    for _ in range(150):
        g, _hub, giant = _scale_graph(rng)
        terminals = rng.sample(giant, rng.randint(2, 4))
        if rng.random() < 0.3:
            terminals = [terminals[:2], *terminals[2:]]
        for k in range(5):
            got = multiway_cut(g, terminals, k)
            assert got == unbounded_multiway_cut(g, terminals, k)
            found += bool(got)
    assert found >= 120


def test_bounded_multiway_cut_matches_unbounded_after_a_larger_first_cut():
    """Here the depth-first search meets a larger cut before the minimum
    one, so the bound taken from the first cut must still admit the
    minimum one."""
    edges = [("v1", "v11"), ("v1", "v4"), ("v1", "v6"), ("v10", "v4"),
             ("v10", "v9"), ("v11", "v13"), ("v11", "v7"), ("v11", "v9"),
             ("v12", "v3"), ("v12", "v6"), ("v14", "v5"), ("v2", "v4"),
             ("v3", "v4"), ("v3", "v5"), ("v3", "v8"), ("v4", "v6"),
             ("v6", "v7")]
    g = CutGraph.build([f"v{i}" for i in range(15)], edges)
    terminals = ["v9", "v12", "v14", "v7"]
    for k in range(8):
        assert multiway_cut(g, terminals, k) == \
            unbounded_multiway_cut(g, terminals, k)
