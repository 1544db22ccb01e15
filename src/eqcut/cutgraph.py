"""Vertex-cut graph model shared by all solvers.

Vertices are partitioned into deletable and undeletable; undeletable vertices
behave like k+1 twins (infinite capacity in the flow transform).  All
separator primitives work on the vertex-split flow network.  Searches and
flows run on one integer index per graph (vertex i is ``g.vertices[i]``),
built on first use and cached on the frozen graph.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence


@dataclass(frozen=True)
class CutGraph:
    vertices: tuple[str, ...]
    undeletable: frozenset
    edges: dict  # frozenset({u,v}) -> multiplicity

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        if not self.undeletable <= vs:
            raise ValueError("undeletable set contains unknown vertices")
        for e, m in self.edges.items():
            if len(e) != 2:
                raise ValueError(f"bad edge {e} (self-loops not allowed)")
            if not e <= vs:
                raise ValueError(f"edge {e} uses unknown vertex")
            if m < 1:
                raise ValueError("edge multiplicity must be positive")

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable = (),
              undeletable: Iterable[str] = ()) -> "CutGraph":
        vseen = dict.fromkeys(vertices)  # insertion-ordered, deduplicated
        emap: dict = {}
        for e in edges:
            if len(e) == 3:
                u, v, m = e
            else:
                (u, v), m = e, 1
            if u == v:
                raise ValueError("self-loop")
            vseen.setdefault(u)
            vseen.setdefault(v)
            key = frozenset({u, v})
            emap[key] = emap.get(key, 0) + m
        return CutGraph(tuple(vseen), frozenset(undeletable), emap)

    def deletable(self, v: str) -> bool:
        return v not in self.undeletable

    @cached_property
    def _index(self) -> "_Index":
        return _Index(self)

    def adjacency(self) -> dict:
        adj: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = sorted(e)
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def without(self, removed: Iterable[str]) -> "CutGraph":
        removed = set(removed)
        return CutGraph(
            tuple(v for v in self.vertices if v not in removed),
            self.undeletable - removed,
            {e: m for e, m in self.edges.items() if not e & removed},
        )

    def make_undeletable(self, vs: Iterable[str]) -> "CutGraph":
        return CutGraph(self.vertices, self.undeletable | frozenset(vs), self.edges)

    def identify(self, group: Sequence[str], new_name: str) -> "CutGraph":
        """Contract a vertex group into a single new vertex (dropping loops)."""
        group_set = set(group)
        rename = {v: (new_name if v in group_set else v) for v in self.vertices}
        vs = dict.fromkeys(rename[v] for v in self.vertices)
        emap: dict = {}
        for e, m in self.edges.items():
            u, v = sorted(e)
            nu, nv = rename[u], rename[v]
            if nu == nv:
                continue
            key = frozenset({nu, nv})
            emap[key] = emap.get(key, 0) + m
        undel = frozenset(rename[v] for v in self.undeletable)
        return CutGraph(tuple(vs), undel, emap)


@dataclass(frozen=True)
class RequestList:
    """One disjunctive request: a set of vertex pairs, singletons allowed."""

    pairs: frozenset  # frozenset of frozensets of size 1 or 2

    @staticmethod
    def of(*pairs) -> "RequestList":
        out = set()
        for p in pairs:
            fs = frozenset(p) if not isinstance(p, str) else frozenset({p})
            if len(fs) not in (1, 2):
                raise ValueError(f"bad pair {p}")
            out.add(fs)
        return RequestList(frozenset(out))

    def __len__(self):
        return len(self.pairs)

    def vertices(self) -> set:
        return set().union(*self.pairs) if self.pairs else set()


@dataclass(frozen=True)
class TripleSet:
    """Vertex triples with multiplicities (crispness = budget-excess copies)."""

    triples: tuple  # ordered (frozenset, multiplicity) pairs

    @staticmethod
    def of(*triples) -> "TripleSet":
        out = []
        for t in triples:
            if len(t) == 2 and not isinstance(t[0], str):
                tri, m = frozenset(t[0]), t[1]
            else:
                tri, m = frozenset(t), 1
            if len(tri) != 3:
                raise ValueError(f"triple must have 3 distinct vertices: {t}")
            if m < 1:
                raise ValueError("triple multiplicity must be positive")
            out.append((tri, m))
        merged: dict = {}
        order: list = []
        for tri, m in out:
            if tri not in merged:
                order.append(tri)
            merged[tri] = merged.get(tri, 0) + m
        return TripleSet(tuple((tri, merged[tri]) for tri in order))

    def __iter__(self):
        return iter(self.triples)

    def __len__(self):
        return len(self.triples)


# ---------------------------------------------------------------------------
# Integer index.  In the vertex-split flow network node 2i is the in-copy
# and 2i+1 the out-copy of vertex i, arc 2i is the vertex arc of vertex i,
# and the reverse of arc j is arc j ^ 1.

_BIG = 1 << 30


class _Index:
    """Integer view of one CutGraph: vertex i is ``names[i]``, and
    ``nbrs[i]`` lists its neighbours in ``adjacency()`` order."""

    def __init__(self, g: CutGraph):
        self.names = g.vertices
        self.undeletable = g.undeletable
        self.pos = pos = {v: i for i, v in enumerate(g.vertices)}
        self.nbrs: list[list[int]] = [[] for _ in g.vertices]
        for u, v in g.edges:
            a, b = (pos[u], pos[v]) if u < v else (pos[v], pos[u])
            self.nbrs[a].append(b)
            self.nbrs[b].append(a)

    def mark(self, names: Iterable[str]) -> bytearray:
        """One flag per vertex, set for those of the names that are vertices."""
        out = bytearray(len(self.names))
        for v in names:
            i = self.pos.get(v)
            if i is not None:
                out[i] = 1
        return out

    def visit(self, starts: Iterable[int], mark: bytearray) -> list[int]:
        """Marks and returns, in depth-first order, the unmarked vertices
        reachable from the starts through unmarked vertices."""
        nbrs = self.nbrs
        order = []
        stack = list(starts)
        while stack:
            x = stack.pop()
            if mark[x]:
                continue
            mark[x] = 1
            order.append(x)
            stack += nbrs[x]
        return order

    @cached_property
    def arcs(self) -> tuple[list[int], list[list[int]], list[int]]:
        """The head of every arc, the arcs out of every node, and the
        capacities: 1 on the vertex arc of a deletable vertex, _BIG on
        every other forward arc, 0 on reverse arcs."""
        head: list[int] = []
        cap: list[int] = []
        for i, v in enumerate(self.names):
            head += (2 * i + 1, 2 * i)
            cap += (_BIG if v in self.undeletable else 1, 0)
        for a, nbrs in enumerate(self.nbrs):
            for b in nbrs:
                if a < b:
                    head += (2 * b, 2 * a + 1, 2 * a, 2 * b + 1)
                    cap += (_BIG, 0, _BIG, 0)
        out: list[list[int]] = [[] for _ in range(2 * len(self.names))]
        for j in range(len(head)):
            out[head[j ^ 1]].append(j)
        return head, out, cap


def components(g: CutGraph, deleted: Iterable[str] = ()) -> list[frozenset]:
    deleted = set(deleted)
    bad = deleted & g.undeletable
    if bad:
        raise ValueError(f"cannot delete undeletable vertices {sorted(bad)}")
    idx = g._index
    mark = idx.mark(deleted)
    return [frozenset(idx.names[j] for j in idx.visit([i], mark))
            for i in range(len(idx.names)) if not mark[i]]


def component_labels(g: CutGraph, cut: Iterable[str]) -> Callable[[str], int]:
    """The component label of a vertex in G - cut: two vertices share a
    label exactly when neither is in the cut and G - cut connects them, and
    every cut vertex has a negative label of its own.  Each component is
    searched once, when one of its vertices is first asked for."""
    idx = g._index
    pos, mark = idx.pos, idx.mark(cut)
    label: dict = {}

    def of(v: str) -> int:
        i = pos[v]
        if i not in label:
            for j in idx.visit([i], mark):
                label[j] = i
        return label.get(i, -1 - i)

    return of


def reachable(g: CutGraph, sources: Iterable[str], deleted: Iterable[str] = ()) -> set:
    deleted = set(deleted)
    idx = g._index
    order = idx.visit([idx.pos[s] for s in sources if s not in deleted],
                      idx.mark(deleted))
    return {idx.names[i] for i in order}


def separates(g: CutGraph, cut: Iterable[str], s: str, t: str) -> bool:
    """Whether the cut fulfills the request st (membership counts)."""
    cut = set(cut)
    if s in cut or t in cut:
        return True
    if s == t:
        return False
    idx = g._index
    mark = idx.mark(cut)
    idx.visit([idx.pos[s]], mark)
    return not mark[idx.pos[t]]


def shadow(g: CutGraph, deleted: Iterable[str], t_set: Iterable[str]) -> set:
    """Vertices of G - deleted that cannot reach the T set."""
    deleted = set(deleted)
    idx = g._index
    mark = idx.mark(deleted)
    idx.visit([idx.pos[t] for t in t_set if t not in deleted], mark)
    return {v for v, m in zip(idx.names, mark) if not m}


def triple_multicut_feasible(g: CutGraph, triples: TripleSet,
                             z_v: Iterable[str], z_t: Iterable[frozenset]) -> bool:
    """Whether deleting the vertices z_v and the triples z_t leaves the
    surviving vertices of every other triple in pairwise distinct components.
    Triple members are vertices of g; a deleted one has a label of its own,
    so every kept triple needs three distinct labels."""
    z_v, z_t = set(z_v), set(z_t)
    if any(not g.deletable(v) for v in z_v):
        return False
    label = component_labels(g, z_v)
    return all(tri in z_t or len({label(v) for v in tri}) == 3
               for tri, _m in triples)


# ---------------------------------------------------------------------------
# Vertex-capacity flow.


class _Residual:
    """Residual network of one flow on a graph's vertex-split network.

    The source feeds the start nodes and the sink drains the sink nodes,
    through infinite arcs that stay implicit.  Blocked vertices get an
    infinite vertex arc, so no cut contains them.  Once the flow is
    maximum, the last augmenting search has failed after reaching the
    residual closure of the source: ``closure`` lists its nodes, and
    ``reached[x]`` is -1 exactly for the nodes outside it.
    """

    def __init__(self, idx: _Index, blocked: Iterable[int],
                 starts: list[int], sinks: list[int]):
        self.names = idx.names
        self.head, self.out, cap = idx.arcs
        self.cap = cap[:]
        for i in blocked:
            self.cap[2 * i] = _BIG
        self.starts, self.sinks = starts, sinks
        self.flow = 0
        self.reached: list[int] = []
        self.closure: list[int] = []

    def extended(self, sink: int) -> "_Residual":
        """A copy that keeps this flow, with one more sink node."""
        out = copy.copy(self)
        out.cap, out.sinks = self.cap[:], self.sinks + [sink]
        return out

    def maxflow(self, limit: int) -> int:
        """Edmonds-Karp from the current flow, stopping as soon as the flow
        exceeds the limit: the maximum flow value when it is at most the
        limit, else some value above the limit."""
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

    def _path(self, at_sink: bytearray) -> tuple[list[int], int]:
        """Breadth-first search for a shortest augmenting path: the arc
        entering each reached node (-2 at a start) and the node where the
        path meets the sink (-1 if none).  A failed search is kept as the
        closure."""
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

    def source_cut(self) -> frozenset:
        """The minimum cut closest to the source: the vertices whose in-copy
        is in the closure and whose out-copy is not."""
        reached = self.reached
        cut = sorted(x >> 1 for x in self.closure
                     if not x & 1 and reached[x ^ 1] == -1)
        return frozenset(self.names[i] for i in cut)

    def sink_cut(self) -> frozenset:
        """The minimum cut closest to the sink: the vertices whose vertex
        arc enters the set of nodes that reach the sink."""
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


def min_vertex_separator(g: CutGraph, s: str, targets: Sequence[str],
                         limit: Optional[int] = None,
                         cut_targets: bool = False,
                         forbidden: Iterable[str] = ()) -> Optional[frozenset]:
    """Minimum set of deletable vertices disconnecting s from the targets,
    or None if no finite separator exists (within the limit, if given).

    Of all minimum separators it returns the one closest to s, whose s-side
    reachable set is minimal.  With cut_targets the separator may contain
    deletable target vertices.
    """
    targets = [t for t in targets if t != s]
    if not targets:
        return frozenset()
    hard_limit = limit if limit is not None else len(g.vertices)
    idx = g._index
    pos = idx.pos
    blocked = {s, *forbidden} if cut_targets else {s, *forbidden, *targets}
    side = 1 if cut_targets else 0
    net = _Residual(idx, (pos[v] for v in blocked if v in pos),
                    [2 * pos[s] + 1], [2 * pos[t] + side for t in targets])
    return _bounded_cut(net, hard_limit)


def _bounded_cut(net: _Residual, limit: int) -> Optional[frozenset]:
    """The minimum cut closest to the source once the flow is maximum, or
    None when the flow exceeds the limit or no finite cut exists."""
    flow = net.maxflow(limit)
    if flow > limit:
        return None
    cut = net.source_cut()
    if flow >= _BIG or len(cut) != flow:
        return None
    return cut


def _farthest_min_sep(g: CutGraph, xs: Iterable[str], ys: Iterable[str],
                      limit: int) -> tuple[Optional[int], Optional[frozenset]]:
    """Size of a minimum X-Y separator and the one closest to Y (maximal
    X-side), or (None, None) when the size exceeds the limit or is infinite."""
    pos = g._index.pos
    xi = [pos[x] for x in set(xs)]
    yi = [pos[y] for y in set(ys)]
    net = _Residual(g._index, xi + yi, [2 * i for i in xi],
                    [2 * i + 1 for i in yi])
    flow = net.maxflow(limit)
    if flow > limit:
        return None, None
    far = net.sink_cut()
    if len(far) != flow:
        return None, None
    return flow, far


def important_separators(g: CutGraph, x_set: Sequence[str], y_set: Sequence[str],
                         k: int) -> list[frozenset]:
    """All important X-Y separators of size at most k.

    An important separator is a minimal separator (disjoint from X and Y)
    with inclusion-maximal X-side among separators of its size or smaller.
    The branching enumerates a superset; an exactness filter keeps a set S
    only when S is itself the farthest minimum separator of its own X-side.
    """
    if k < 0:
        return []
    xs0, ys0 = frozenset(x_set), frozenset(y_set)
    if xs0 & ys0:
        return []
    candidates: set = set()
    # depth-first: delete the first vertex of the farthest minimum
    # separator, or move it to the X side
    stack = [(g, xs0, frozenset(), k)]
    while stack:
        g_cur, xs, committed, budget = stack.pop()
        lam, far = _farthest_min_sep(g_cur, xs, ys0, budget)
        if lam is None:
            continue
        if lam == 0:
            candidates.add(committed)
            continue
        v = min(far)
        stack.append((g_cur, xs | {v}, committed, budget))
        if budget >= 1:
            stack.append((g_cur.without({v}), xs, committed | {v}, budget - 1))

    out = []
    for s in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        side = reachable(g, xs0, s)
        lam, far = _farthest_min_sep(g, side | xs0, ys0, len(s))
        if lam == len(s) and far == s:
            out.append(s)
    return out


def multiway_cut(g: CutGraph, terminals: Sequence, k: int) -> Optional[frozenset]:
    """Minimum multiway cut of size <= k separating the terminal groups,
    by branching over important separators; None if none exists.

    Each entry of terminals is a vertex of g or a group of vertices of g to
    keep together; terminal vertices are excluded from deletion.
    """
    groups = [frozenset({t}) if isinstance(t, str) else frozenset(t)
              for t in terminals]
    members = [(i, v) for i, grp in enumerate(groups) for v in grp]

    def violated(cut: frozenset) -> Optional[tuple[int, int]]:
        label = component_labels(g, cut)
        for (i, a), (j, b) in itertools.combinations(members, 2):
            if i != j and label(a) == label(b):
                return (i, j)
        return None

    best: Optional[frozenset] = None
    stack = [(frozenset(), k)]  # depth-first, smallest separators first
    while stack:
        cut, budget = stack.pop()
        if best is not None and len(cut) >= len(best):
            continue
        pair = violated(cut)
        if pair is None:
            best = cut
            continue
        if budget == 0:
            continue
        i, _ = pair
        g2 = g.without(cut)
        present = set(g2.vertices)
        xs = [v for v in groups[i] if v in present]
        ys = [v for grp in groups[:i] + groups[i + 1:] for v in grp
              if v in present]
        g2 = g2.make_undeletable(set(xs) | set(ys))
        seps = important_separators(g2, xs, ys, budget)
        stack.extend((cut | sep, budget - len(sep)) for sep in reversed(seps))
    if best is not None and len(best) <= k:
        return best
    return None
