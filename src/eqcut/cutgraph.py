"""Vertex-cut graph model shared by all solvers.

Vertices are partitioned into deletable and undeletable; undeletable vertices
behave like k+1 twins (infinite capacity in the flow transform).  All
separator primitives work on the vertex-split flow network.  Searches and
flows run on one integer index per graph (vertex i is ``g.vertices[i]``),
built on first use and cached on the frozen graph; a graph derived by
``without``, ``make_undeletable`` or ``component_graph`` takes its index
from its parent's (``without`` and ``component_graph`` filter it when it is
first read).  Flows keep only what they change: the flow through each
vertex and the few edge arcs that carry flow, and walk the index's
neighbour lists for everything else.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union


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
        """Built by the function `_derived` was given, if any, else from
        the vertices and edges."""
        build = self.__dict__.pop("_index_build", None)
        return build() if build is not None else _Index.of(self)

    def adjacency(self) -> dict:
        adj: dict = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = sorted(e)
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def without(self, removed: Iterable[str]) -> "CutGraph":
        """The graph minus the removed vertices; names that are not
        vertices are ignored, and removing none gives the graph itself."""
        gone = self._index.mark(removed)
        if not any(gone):
            return self
        return self._induced([i for i, x in enumerate(gone) if not x])

    def _induced(self, keep: list[int]) -> "CutGraph":
        """The sub-graph on the vertices at the increasing positions keep.
        Its index is this graph's, filtered in order when first used, so it
        is the index a fresh build would give."""
        idx = self._index
        names = tuple(idx.names[i] for i in keep)
        kept = set(names)

        def index() -> _Index:
            new = [-1] * len(idx.names)
            for j, i in enumerate(keep):
                new[i] = j
            return _Index(names, [[new[b] for b in idx.nbrs[i] if new[b] >= 0]
                                  for i in keep])

        return _derived(names, self.undeletable & kept,
                        {e: m for e, m in self.edges.items() if e <= kept},
                        index)

    def make_undeletable(self, vs: Iterable[str]) -> "CutGraph":
        """The graph with the vertices vs undeletable, sharing this graph's
        index; ValueError for a name that is not a vertex."""
        vs = frozenset(vs)
        if vs <= self.undeletable:
            return self
        idx = self._index
        if any(v not in idx.pos for v in vs):
            raise ValueError("undeletable set contains unknown vertices")
        return _derived(self.vertices, self.undeletable | vs, self.edges, idx)

    def identify(self, group: Sequence[str], new_name: str) -> "CutGraph":
        """Contract a vertex group into a single new vertex (dropping loops).
        ValueError when new_name is a vertex outside the group."""
        group_set = set(group)
        rename = {v: (new_name if v in group_set else v) for v in self.vertices}
        if new_name in rename and new_name not in group_set:
            raise ValueError(f"{new_name!r} is already a vertex outside the group")
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
        return _derived(tuple(vs), undel, emap)


def _derived(vertices: tuple, undeletable: frozenset, edges: dict,
             index: Union["_Index", Callable[[], "_Index"], None] = None
             ) -> CutGraph:
    """A graph built from a valid one: no whole-graph re-validation.  The
    index, when given, is cached on it; a function given instead builds the
    index when it is first used."""
    g = object.__new__(CutGraph)
    g.__dict__.update(vertices=vertices, undeletable=undeletable, edges=edges)
    if isinstance(index, _Index):
        g.__dict__["_index"] = index
    elif index is not None:
        g.__dict__["_index_build"] = index
    return g


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
# and 2i+1 the out-copy of vertex i.

_BIG = 1 << 30


class _Index:
    """Integer view of one CutGraph: vertex i is ``names[i]``, and
    ``nbrs[i]`` lists its neighbours in ``adjacency()`` order."""

    def __init__(self, names: tuple, nbrs: list[list[int]]):
        self.names = names
        self.pos = {v: i for i, v in enumerate(names)}
        self.nbrs = nbrs

    @staticmethod
    def of(g: CutGraph) -> "_Index":
        idx = _Index(g.vertices, [[] for _ in g.vertices])
        pos, nbrs = idx.pos, idx.nbrs
        for u, v in g.edges:
            a, b = (pos[u], pos[v]) if u < v else (pos[v], pos[u])
            nbrs[a].append(b)
            nbrs[b].append(a)
        return idx

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


def check_vertices(g: CutGraph, names: Iterable[str], role: str) -> None:
    """ValueError naming the first of the names that is not a vertex of g."""
    pos = g._index.pos
    for v in names:
        if v not in pos:
            raise ValueError(f"the {role} {v!r} is not a vertex of the graph")


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


def component_graph(g: CutGraph, v: str, cut: Iterable[str]) -> CutGraph:
    """The component of v in G - cut, as a graph; v is not in the cut."""
    idx = g._index
    return g._induced(sorted(idx.visit([idx.pos[v]], idx.mark(cut))))


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
    through infinite arcs that stay implicit.  Edge arcs out(a)->in(b) are
    infinite, and vertex arcs in(i)->out(i) carry 1, or are infinite for
    free vertices: undeletable ones, and blocked ones, which no cut may
    contain.  So the network is the index's neighbour lists plus the flow:
    ``through[i]`` through vertex i, and ``into[b][a]`` on arc
    out(a)->in(b) for the few edge arcs that carry flow.  Once the flow is
    maximum, the last augmenting search has failed after reaching the
    residual closure of the source: ``reached[x]`` is -1 exactly for the
    nodes outside it, and the reached nodes form a search tree
    (``reached[x]`` is the node before x, -2 at a start) that is kept while
    the flow stays as it is.
    """

    def __init__(self, g: CutGraph, blocked: Iterable[int],
                 starts: list[int], sinks: list[int]):
        idx = g._index
        self.names, self.nbrs = idx.names, idx.nbrs
        self.free = idx.mark(g.undeletable)
        for i in blocked:
            self.free[i] = 1
        self.through = [0] * len(idx.names)
        self.into: dict[int, dict[int, int]] = {}
        self.starts, self.sinks = starts, sinks
        self.flow = 0
        self.reached: list[int] = []

    def extended(self, sink: int) -> "_Residual":
        """A copy that keeps this flow, and its search tree, with one more
        sink node."""
        out = copy.copy(self)
        out.through = self.through[:]
        out.into = {b: arcs.copy() for b, arcs in self.into.items()}
        out.sinks = self.sinks + [sink]
        return out

    def maxflow(self, limit: int) -> int:
        """Edmonds-Karp from the current flow, stopping as soon as the flow
        exceeds the limit: the maximum flow value when it is at most the
        limit, else some value above the limit."""
        at_sink = bytearray(2 * len(self.names))
        for y in self.sinks:
            at_sink[y] = 1
        flow = self.flow
        while flow <= limit:
            via, end = self._path(at_sink)
            if end < 0:
                break
            flow += self._augment(via, end)
            self.reached = []  # the tree is stale now
        self.flow = flow
        return flow

    def _path(self, at_sink: bytearray) -> tuple[list[int], int]:
        """Breadth-first search for an augmenting path: the node before each
        reached node (-2 at a start) and the node where the path meets the
        sink (-1 if none).  A kept tree answers at once: it reaches every
        node that a new search would, so the path ends at a sink it reaches,
        and there is none when it reaches no sink.  A failed search is
        kept."""
        if self.reached:
            via = self.reached
            return via, next((y for y in self.sinks if via[y] != -1), -1)
        nbrs, free, through, into = self.nbrs, self.free, self.through, self.into
        via = [-1] * len(at_sink)
        queue = list(self.starts)
        for s in queue:
            via[s] = -2
            if at_sink[s]:
                return via, s
        for x in queue:
            i = x >> 1
            if x & 1:  # out(i): in(i) against the flow through i, every in(b)
                if through[i] and via[x - 1] == -1:
                    via[x - 1] = x
                    if at_sink[x - 1]:
                        return via, x - 1
                    queue.append(x - 1)
                for b in nbrs[i]:
                    y = 2 * b
                    if via[y] == -1:
                        via[y] = x
                        if at_sink[y]:
                            return via, y
                        # go on to out(b) at once; in(b) is queued only
                        # for the flow into it, so an in-copy left off the
                        # queue has its out-copy reached
                        if free[b] or not through[b]:
                            z = y + 1
                            if via[z] == -1:
                                via[z] = y
                                if at_sink[z]:
                                    return via, z
                                queue.append(z)
                        if b in into:
                            queue.append(y)
            else:  # in(i): out(i) unless its unit arc is full, and out(a)
                # against the flow on out(a)->in(i)
                heads = [x + 1] if free[i] or not through[i] else []
                heads += [2 * a + 1 for a in into.get(i, ())]
                for y in heads:
                    if via[y] == -1:
                        via[y] = x
                        if at_sink[y]:
                            return via, y
                        queue.append(y)
        self.reached = via
        return via, -1

    def _augment(self, via: list[int], end: int) -> int:
        """Pushes flow along the path to end, and returns the amount: _BIG
        when every arc on the path is infinite, else one unit."""
        free, through, into = self.free, self.through, self.into
        steps = []
        y = end
        while via[y] >= 0:
            steps.append((via[y], y))
            y = via[y]
        # infinite: an edge arc out(i)->in(j), or the vertex arc of a free i
        aug = _BIG if all(x >> 1 != y >> 1 if x & 1 else
                          y == x + 1 and free[x >> 1]
                          for x, y in steps) else 1
        for x, y in steps:
            i, j = x >> 1, y >> 1
            if i == j:  # the vertex arc of i, forward or back
                through[i] += -aug if x & 1 else aug
            elif x & 1:  # the edge arc out(i)->in(j)
                arcs = into.setdefault(j, {})
                arcs[i] = arcs.get(i, 0) + aug
            else:  # back along out(j)->in(i)
                arcs = into[i]
                arcs[j] -= aug
                if not arcs[j]:
                    del arcs[j]
                    if not arcs:
                        del into[i]
        return aug

    def source_cut(self) -> frozenset:
        """The minimum cut closest to the source: the vertices whose in-copy
        is in the closure and whose out-copy is not.  Flow enters the in-copy
        of such a vertex along an edge arc, so it is a key of ``into``."""
        reached = self.reached
        cut = sorted(i for i in self.into
                     if reached[2 * i] != -1 and reached[2 * i + 1] == -1)
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
    pos = g._index.pos
    blocked = {s, *forbidden} if cut_targets else {s, *forbidden, *targets}
    side = 1 if cut_targets else 0
    net = _Residual(g, (pos[v] for v in blocked if v in pos),
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
                      limit: int) -> Optional[frozenset]:
    """The minimum X-Y separator closest to Y (maximal X-side), or None when
    its size exceeds the limit or is infinite.  It is the cut closest to the
    source of the reversed flow, from Y to X: reversing every arc of the
    vertex-split network and swapping each in-copy with its out-copy gives
    the same network, so that flow starts at the in-copies of Y."""
    pos = g._index.pos
    xi = [pos[x] for x in set(xs)]
    yi = [pos[y] for y in set(ys)]
    return _bounded_cut(_Residual(g, xi + yi, [2 * i for i in yi],
                                  [2 * i + 1 for i in xi]), limit)


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
        far = _farthest_min_sep(g_cur, xs, ys0, budget)
        if far is None:
            continue
        if not far:
            candidates.add(committed)
            continue
        v = min(far)
        stack.append((g_cur, xs | {v}, committed, budget))
        if budget >= 1:
            stack.append((g_cur.without({v}), xs, committed | {v}, budget - 1))

    out = []
    for s in sorted(candidates, key=lambda s: (len(s), sorted(s))):
        side = reachable(g, xs0, s)
        if _farthest_min_sep(g, side | xs0, ys0, len(s)) == s:
            out.append(s)
    return out


def multiway_cut(g: CutGraph, terminals: Sequence, k: int) -> Optional[frozenset]:
    """Minimum multiway cut of size <= k separating the terminal groups,
    by branching over important separators; None if none exists.

    Each entry of terminals is a vertex of g or a group of vertices of g;
    only vertices of different groups are separated (a group may be split).
    Terminals are never deleted; one that is not a vertex is a ValueError.
    A node asks only for the separators that keep its cut within k and below
    the best cut: the important ones of size <= b are those of a larger
    bound of size <= b.
    """
    groups = [frozenset({t}) if isinstance(t, str) else frozenset(t)
              for t in terminals]
    members = [(i, v) for i, grp in enumerate(groups) for v in grp]
    check_vertices(g, (v for _i, v in members), "terminal")
    g = g.make_undeletable(v for _i, v in members)

    def violated(cut: frozenset) -> Optional[int]:
        label = component_labels(g, cut)
        for (i, a), (j, b) in itertools.combinations(members, 2):
            if i != j and label(a) == label(b):
                return i
        return None

    best, limit = None, k  # limit: the largest size that can still beat best
    # depth-first, smallest separators first
    stack = [frozenset()] if k >= 0 else []
    while stack:
        cut = stack.pop()
        budget = limit - len(cut)
        if budget < 0:
            continue
        i = violated(cut)
        if i is None:
            best, limit = cut, len(cut) - 1
            continue
        if budget == 0:
            continue
        ys = [v for j, v in members if j != i]
        seps = important_separators(g.without(cut), groups[i], ys, budget)
        stack.extend(cut | sep for sep in reversed(seps))
    return best
