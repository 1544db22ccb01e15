"""Graphs derived from a graph equal fresh builds of the same data.

`without`, `identify`, `make_undeletable` and `component_graph` skip the
whole-graph validation of a fresh build, and all but `identify` take their
integer index from their parent's.  Each derived graph must equal
`CutGraph.build` of the data the operation defines, and its index must be
the one a fresh build of it gives, neighbour order included.
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.cutgraph import (  # noqa: E402
    CutGraph,
    _Index,
    component_graph,
    reachable,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 3))
                          .map(lambda e: (*e[0], e[1])) if pairs else st.nothing(),
                          max_size=len(pairs)))
    undeletable = draw(st.sets(st.sampled_from(vs), max_size=3))
    return CutGraph.build(vs, edges, undeletable)


def _edges(g, rename=lambda v: v):
    """The edges of g as (u, v, multiplicity) in order, renamed, loops
    dropped."""
    out = []
    for e, m in g.edges.items():
        u, v = (rename(x) for x in sorted(e))
        if u != v:
            out.append((u, v, m))
    return out


def _assert_fresh_index(h):
    idx, fresh = h._index, _Index.of(h)
    assert (idx.names, idx.pos, idx.nbrs) == (fresh.names, fresh.pos, fresh.nbrs)


def _derive(data, g):
    """One derived graph of g and the graph built from its definition."""
    vs = list(g.vertices)
    op = data.draw(st.sampled_from(["without", "identify", "undeletable",
                                    "component"]))
    if op == "without":
        removed = data.draw(st.sets(st.sampled_from(vs + ["zz"]),
                                    max_size=len(vs)))
        kept = [v for v in vs if v not in removed]
        want = CutGraph.build(kept, [e for e in _edges(g) if set(e[:2]) <= set(kept)],
                              g.undeletable - removed)
        return g.without(removed), want
    if op == "identify":
        group = data.draw(st.sets(st.sampled_from(vs), min_size=1))
        fresh = next(f"#h{i}" for i in itertools.count() if f"#h{i}" not in vs)
        new_name = data.draw(st.sampled_from(sorted(group) + [fresh]))

        def rename(v):
            return new_name if v in group else v
        want = CutGraph.build(map(rename, vs), _edges(g, rename),
                              map(rename, g.undeletable))
        return g.identify(sorted(group), new_name), want
    if op == "undeletable":
        extra = data.draw(st.sets(st.sampled_from(vs), max_size=3))
        want = CutGraph.build(vs, _edges(g), g.undeletable | extra)
        return g.make_undeletable(extra), want
    v = data.draw(st.sampled_from(vs))
    cut = data.draw(st.sets(st.sampled_from([u for u in vs if u != v]),
                            max_size=3)) if len(vs) > 1 else set()
    inside = reachable(g, [v], cut)
    want = CutGraph.build([u for u in vs if u in inside],
                          [e for e in _edges(g) if set(e[:2]) <= inside],
                          g.undeletable & inside)
    return component_graph(g, v, cut), want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_derived_graphs_equal_fresh_builds(data):
    g = data.draw(graphs())
    for _ in range(data.draw(st.integers(1, 3))):
        if not g.vertices:
            break
        h, want = _derive(data, g)
        assert h == want
        _assert_fresh_index(h)
        g = h
    with pytest.raises(ValueError):
        g.make_undeletable(["zz"])


def test_removing_or_protecting_nothing_new_gives_the_graph_itself():
    g = CutGraph.build("abc", [("a", "b"), ("b", "c")], undeletable="b")
    assert g.without([]) is g and g.without(["zz"]) is g
    assert g.make_undeletable([]) is g and g.make_undeletable(["b"]) is g
    assert g.without(["a"])._index.nbrs == [[1], [0]]


def test_without_builds_its_index_only_when_it_is_read():
    g = CutGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    h = g.without(["a"])
    h.identify(["b", "c"], "#h0")  # reads only vertices and edges
    assert "_index" not in h.__dict__
    _assert_fresh_index(h)
    assert h._index is h._index
