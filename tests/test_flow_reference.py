"""Differential tests of the flow kernel against an arc-array reference.

The kernel keeps only the flow through each vertex and on the few edge arcs
that carry it, walks the graph's neighbour lists, and starts a strict-Steiner
child from its parent's last search tree.  The reference keeps the earlier
form: every arc of the vertex-split network in arrays (head, arcs out of
each node, residual capacity), a fresh copy of the capacities per flow and
per strict-Steiner node, and a fresh breadth-first search for every
augmenting path, and it reads the cut closest to the sink with a search
backwards from the sink, where the kernel reads it off the reversed flow.
Flow values and closest cuts do not depend on which augmenting paths are
taken, so both must give the same answers and the same strict-Steiner
statistics.
"""

import copy
import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from eqcut.cutgraph import (  # noqa: E402
    CutGraph,
    _farthest_min_sep,
    min_vertex_separator,
)
from eqcut.solvers import (  # noqa: E402
    StrictSteinerStats,
    _tset_check,
    _terminal_sets,
    strict_steiner,
)

_BIG = 1 << 30


def _arcs(g: CutGraph):
    """The head of every arc, the arcs out of every node, and the
    capacities: 1 on the vertex arc of a deletable vertex, _BIG on every
    other forward arc, 0 on reverse arcs.  Arc 2i is the vertex arc of
    vertex i, and the reverse of arc j is arc j ^ 1."""
    idx = g._index
    head, cap = [], []
    for i, v in enumerate(idx.names):
        head += (2 * i + 1, 2 * i)
        cap += (_BIG if v in g.undeletable else 1, 0)
    for a, nbrs in enumerate(idx.nbrs):
        for b in nbrs:
            if a < b:
                head += (2 * b, 2 * a + 1, 2 * a, 2 * b + 1)
                cap += (_BIG, 0, _BIG, 0)
    out = [[] for _ in range(2 * len(idx.names))]
    for j in range(len(head)):
        out[head[j ^ 1]].append(j)
    return head, out, cap


class ArcResidual:
    """Residual network of one flow over explicit arc arrays."""

    def __init__(self, g: CutGraph, blocked, starts, sinks):
        self.names = g.vertices
        self.head, self.out, self.cap = _arcs(g)
        for i in blocked:
            self.cap[2 * i] = _BIG
        self.starts, self.sinks = starts, sinks
        self.flow = 0
        self.reached = []
        self.closure = []

    def extended(self, sink):
        out = copy.copy(self)
        out.cap, out.sinks = self.cap[:], self.sinks + [sink]
        return out

    def maxflow(self, limit):
        head, cap = self.head, self.cap
        at_sink = bytearray(len(self.out))
        for y in self.sinks:
            at_sink[y] = 1
        flow = self.flow
        while flow <= limit:
            via, end = self._path(at_sink)
            if end < 0:
                break
            aug, y = _BIG, end
            while via[y] >= 0:
                aug = min(aug, cap[via[y]])
                y = head[via[y] ^ 1]
            y = end
            while via[y] >= 0:
                j = via[y]
                cap[j] -= aug
                cap[j ^ 1] += aug
                y = head[j ^ 1]
            flow += aug
        self.flow = flow
        return flow

    def _path(self, at_sink):
        head, out, cap = self.head, self.out, self.cap
        via = [-1] * len(out)
        queue = list(self.starts)
        for s in queue:
            via[s] = -2
            if at_sink[s]:
                return via, s
        for x in queue:
            for j in out[x]:
                if cap[j]:
                    y = head[j]
                    if via[y] == -1:
                        via[y] = j
                        if at_sink[y]:
                            return via, y
                        queue.append(y)
        self.reached, self.closure = via, queue
        return via, -1

    def source_cut(self):
        reached = self.reached
        cut = sorted(x >> 1 for x in self.closure
                     if not x & 1 and reached[x ^ 1] == -1)
        return frozenset(self.names[i] for i in cut)

    def sink_cut(self):
        head, out, cap = self.head, self.out, self.cap
        seen = bytearray(len(out))
        queue = list(self.sinks)
        for s in queue:
            seen[s] = 1
        for x in queue:
            for j in out[x]:
                y = head[j]
                if cap[j ^ 1] and not seen[y]:
                    seen[y] = 1
                    queue.append(y)
        cut = sorted(x >> 1 for x in queue if x & 1 and not seen[x ^ 1])
        return frozenset(self.names[i] for i in cut)


def _bounded_cut(net, limit):
    flow = net.maxflow(limit)
    if flow > limit:
        return None
    cut = net.source_cut()
    if flow >= _BIG or len(cut) != flow:
        return None
    return cut


def ref_min_vertex_separator(g, s, targets, limit=None, cut_targets=False,
                             forbidden=()):
    targets = [t for t in targets if t != s]
    if not targets:
        return frozenset()
    limit = limit if limit is not None else len(g.vertices)
    pos = g._index.pos
    blocked = {s, *forbidden} if cut_targets else {s, *forbidden, *targets}
    side = 1 if cut_targets else 0
    net = ArcResidual(g, (pos[v] for v in blocked if v in pos),
                      [2 * pos[s] + 1], [2 * pos[t] + side for t in targets])
    return _bounded_cut(net, limit)


def ref_farthest_min_sep(g, xs, ys, limit):
    pos = g._index.pos
    xi = [pos[x] for x in set(xs)]
    yi = [pos[y] for y in set(ys)]
    net = ArcResidual(g, xi + yi, [2 * i for i in xi], [2 * i + 1 for i in yi])
    flow = net.maxflow(limit)
    if flow > limit:
        return None, None
    far = net.sink_cut()
    if len(far) != flow:
        return None, None
    return flow, far


def ref_strict_steiner(g, hub, t_sets, k, stats):
    """The strict-Steiner branching with a fresh capacity copy and a fresh
    first search per node, and no search at the root."""
    idx = g._index
    t_sets = _terminal_sets(g, t_sets)
    if not all(map(_tset_check(g, {hub}), t_sets)):
        raise ValueError("the hub does not satisfy every terminal set")
    pos, h = idx.pos, idx.pos[hub]

    def satisfied(net, w, ts, check):
        if net is None or hub not in ts:
            return check(ts)
        return not w.isdisjoint(ts) or any(
            v != hub and net.reached[2 * pos[v]] == -1 for v in ts)

    best = None
    root = ArcResidual(g, [h], [2 * h + 1], [])
    stack = [(frozenset(), None, 0, -1, None)]
    while stack:
        y, t, depth, prev_flow, parent = stack.pop()
        if t is None:
            net, w = None, frozenset()
        else:
            net = parent.extended(2 * pos[t] + 1)
            w = _bounded_cut(net, k)
            if w is None:
                continue
        if depth > 0 and len(w) <= prev_flow:
            stats.monotone = False
        if len(w) > k or (best is not None and len(w) >= len(best)):
            continue
        # the solver caps each flow below the best cut, so it records only
        # the nodes that this check keeps
        stats.max_depth = max(stats.max_depth, depth)
        stats.flows.append((depth, len(w)))
        check = _tset_check(g, w)
        unsat = [ts for ts in t_sets if not satisfied(net, w, ts, check)]
        if not unsat:
            best = w
            continue
        stack.extend((y | {u}, u, depth + 1, len(w), net or root)
                     for u in reversed(unsat[0]) if u != hub and u not in y)
    return best


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    vs = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vs, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs)))
    undeletable = draw(st.sets(st.sampled_from(vs), max_size=3))
    return CutGraph.build(vs, edges, undeletable)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_flow_kernel_matches_arc_array_reference(data):
    g = data.draw(graphs())
    vs = list(g.vertices)

    s = data.draw(st.sampled_from(vs))
    targets = data.draw(st.lists(st.sampled_from(vs), min_size=1,
                                 max_size=3, unique=True))
    forbidden = data.draw(st.sets(st.sampled_from(vs), max_size=2))
    limit = data.draw(st.none() | st.integers(0, 4))
    for cut_targets in (False, True):
        assert min_vertex_separator(g, s, targets, limit, cut_targets,
                                    forbidden) == \
            ref_min_vertex_separator(g, s, targets, limit, cut_targets,
                                     forbidden)

    xs = data.draw(st.lists(st.sampled_from(vs), min_size=1,
                            max_size=min(3, len(vs) - 1), unique=True))
    ys = data.draw(st.lists(st.sampled_from([v for v in vs if v not in xs]),
                            min_size=1, max_size=3, unique=True))
    budget = data.draw(st.integers(0, 4))
    assert _farthest_min_sep(g, xs, ys, budget) == \
        ref_farthest_min_sep(g, xs, ys, budget)[1]

    hub = data.draw(st.sampled_from(vs))
    g = g.make_undeletable([hub])
    others = [v for v in vs if v != hub]
    if not others:
        return
    drawn = data.draw(st.lists(
        st.lists(st.sampled_from(others), min_size=1, max_size=3)
        .flatmap(lambda ts: st.sampled_from([ts, [hub, *ts]])),
        min_size=1, max_size=4))
    # keep the sets the hub satisfies, the precondition of strict Steiner
    t_sets = [ts for ts in drawn if _tset_check(g, {hub})(sorted(set(ts)))]
    k = data.draw(st.integers(0, 4))
    mine, ref = StrictSteinerStats(), StrictSteinerStats()
    assert strict_steiner(g, hub, t_sets, k, mine) == \
        ref_strict_steiner(g, hub, t_sets, k, ref)
    assert (mine.flows, mine.max_depth, mine.monotone) == \
        (ref.flows, ref.max_depth, ref.monotone)


def test_sink_side_search_goes_back_along_edge_flow():
    """The flow x-i-b-y leaves in(b) able to reach the sink only back along
    the edge arc out(i)->in(b), since b's unit arc is full and out(i) reaches
    the sink through c; so b is on the sink side and i alone is the cut.
    The kernel reads the same cut off the reversed flow, from y to x."""
    g = CutGraph.build("xibcy", [("x", "i"), ("i", "b"), ("b", "y"),
                                 ("i", "c"), ("c", "y")])
    assert ref_farthest_min_sep(g, ["x"], ["y"], 2) == (1, frozenset("i"))
    assert _farthest_min_sep(g, ["x"], ["y"], 2) == frozenset("i")
