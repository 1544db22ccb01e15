"""Differential tests of the integer cut layer against networkx.

The flow network is rebuilt here from the definition (vertex v splits into
an in-copy and an out-copy joined by a unit arc when v may be cut), so the
reference shares no code with `eqcut.cutgraph`.
"""

import itertools

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.cutgraph import (  # noqa: E402
    CutGraph,
    component_labels,
    components,
    important_separators,
    min_vertex_separator,
    reachable,
)
from test_flow_reference import _BIG, ArcResidual  # noqa: E402


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    undeletable = draw(st.sets(st.sampled_from(vs), max_size=2))
    return CutGraph.build(vs, edges, undeletable)


def _undirected(g: CutGraph, deleted=()):
    h = nx.Graph()
    h.add_nodes_from(v for v in g.vertices if v not in deleted)
    h.add_edges_from(tuple(e) for e in g.edges if not e & set(deleted))
    return h


def _split_flow_value(g: CutGraph, s, targets, cut_targets, forbidden):
    """Max flow from s to the targets with unit vertex capacities on the
    cuttable vertices; None when it is unbounded."""
    d = nx.DiGraph()
    blocked = {s, *forbidden} | (set() if cut_targets else set(targets))
    for v in g.vertices:
        if g.deletable(v) and v not in blocked:
            d.add_edge((v, "in"), (v, "out"), capacity=1)
        else:
            d.add_edge((v, "in"), (v, "out"))  # no capacity: infinite
    for e in g.edges:
        u, v = tuple(e)
        d.add_edge((u, "out"), (v, "in"))
        d.add_edge((v, "out"), (u, "in"))
    for t in targets:
        d.add_edge((t, "out") if cut_targets else (t, "in"), "sink")
    try:
        return nx.maximum_flow_value(d, (s, "out"), "sink")
    except nx.NetworkXUnbounded:
        return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_min_vertex_separator_matches_networkx_flow(data):
    g = data.draw(graphs())
    s = data.draw(st.sampled_from(g.vertices))
    others = [v for v in g.vertices if v != s]
    targets = data.draw(st.lists(st.sampled_from(others), min_size=1,
                                 max_size=3, unique=True))
    forbidden = data.draw(st.sets(st.sampled_from(g.vertices), max_size=2))
    cut_targets = data.draw(st.booleans())
    value = _split_flow_value(g, s, targets, cut_targets, forbidden)
    cut = min_vertex_separator(g, s, targets, cut_targets=cut_targets,
                               forbidden=forbidden)
    if value is None:
        assert cut is None
        return
    assert cut is not None and len(cut) == value
    blocked = {s, *forbidden} | (set() if cut_targets else set(targets))
    assert all(g.deletable(v) and v not in blocked for v in cut)
    seen = nx.node_connected_component(_undirected(g, cut), s)
    assert not seen & (set(targets) - cut)
    if value > 0:
        assert min_vertex_separator(g, s, targets, limit=value - 1,
                                    cut_targets=cut_targets,
                                    forbidden=forbidden) is None



def _closure_cut(g: CutGraph, s, targets, limit, cut_targets, forbidden):
    """Reference: the same flow on the arc-array network of
    `test_flow_reference`, then a separate search for the residual closure
    of the source; a vertex is cut when its in-copy is in the closure and
    its out-copy is not."""
    targets = [t for t in targets if t != s]
    if not targets:
        return frozenset()
    limit = limit if limit is not None else len(g.vertices)
    pos = g._index.pos
    blocked = {s, *forbidden} if cut_targets else {s, *forbidden, *targets}
    side = 1 if cut_targets else 0
    net = ArcResidual(g, (pos[v] for v in blocked if v in pos),
                      [2 * pos[s] + 1], [2 * pos[t] + side for t in targets])
    flow = net.maxflow(limit)
    if flow > limit:
        return None
    seen = bytearray(len(net.out))
    queue = list(net.starts)
    for x in queue:
        seen[x] = 1
    for x in queue:
        for j in net.out[x]:
            y = net.head[j]
            if net.cap[j] and not seen[y]:
                seen[y] = 1
                queue.append(y)
    cut = frozenset(g.vertices[x >> 1] for x in queue
                    if not x & 1 and not seen[x ^ 1])
    if flow >= _BIG or len(cut) != flow:
        return None
    return cut


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_min_vertex_separator_matches_closure_search(data):
    """The cut read off the last augmenting search is the one a separate
    closure search finds, with undeletable vertices, both target sides and
    limits."""
    g = data.draw(graphs(max_n=10))
    s = data.draw(st.sampled_from(g.vertices))
    targets = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1,
                                 max_size=3, unique=True))
    forbidden = data.draw(st.sets(st.sampled_from(g.vertices), max_size=2))
    cut_targets = data.draw(st.booleans())
    limit = data.draw(st.none() | st.integers(0, 4))
    assert min_vertex_separator(g, s, targets, limit=limit,
                                cut_targets=cut_targets,
                                forbidden=forbidden) == \
        _closure_cut(g, s, targets, limit, cut_targets, forbidden)

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_components_and_reachable_match_networkx(data):
    g = data.draw(graphs(max_n=12))
    deletable = [v for v in g.vertices if g.deletable(v)]
    deleted = data.draw(st.sets(st.sampled_from(deletable), max_size=4)) \
        if deletable else set()
    h = _undirected(g, deleted)
    expected = {frozenset(c) for c in nx.connected_components(h)}
    mine = components(g, deleted)
    assert len(mine) == len(expected) and set(mine) == expected
    label = component_labels(g, deleted)
    for u, v in itertools.combinations(g.vertices, 2):
        same = u not in deleted and v in nx.node_connected_component(h, u)
        assert (label(u) == label(v)) == same
    assert all((label(v) < 0) == (v in deleted) for v in g.vertices)
    sources = data.draw(st.lists(st.sampled_from(g.vertices), max_size=3))
    want = set().union(*(nx.node_connected_component(h, v)
                         for v in sources if v not in deleted))
    assert reachable(g, sources, deleted) == want


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_important_separators_match_networkx(data):
    """Every important X-Y separator of size at most k, from the definition:
    an inclusion-minimal separator of deletable vertices outside X and Y
    such that no separator of its size or smaller has a strictly larger
    X-side.  The X-side is what networkx connects to X once the cut is gone."""
    g = data.draw(graphs(max_n=8))
    xs = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1,
                            max_size=min(2, len(g.vertices) - 1), unique=True))
    ys = data.draw(st.lists(st.sampled_from([v for v in g.vertices
                                             if v not in xs]),
                            min_size=1, max_size=2, unique=True))
    k = data.draw(st.integers(0, 3))
    cand = [v for v in g.vertices
            if g.deletable(v) and v not in xs and v not in ys]
    sides = {}
    for size in range(k + 1):
        for cut in itertools.combinations(cand, size):
            h = _undirected(g, cut)
            side = set().union(*(nx.node_connected_component(h, x) for x in xs))
            if not side & set(ys):
                sides[frozenset(cut)] = side
    want = [s for s in sides
            if all(s - {v} not in sides for v in s)
            and not any(len(o) <= len(s) and sides[s] < sides[o] for o in sides)]
    want.sort(key=lambda s: (len(s), sorted(s)))
    assert important_separators(g, xs, ys, k) == want
