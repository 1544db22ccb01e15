"""Vertex-cut graph model shared by all solvers.

Vertices are partitioned into deletable and undeletable; undeletable vertices
behave like k+1 twins (infinite capacity in the flow transform).  All
separator primitives work on the vertex-split flow network.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


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
        vlist: list[str] = []
        for v in vertices:
            if v not in vlist:
                vlist.append(v)
        emap: dict = {}
        for e in edges:
            if len(e) == 3:
                u, v, m = e
            else:
                (u, v), m = e, 1
            if u == v:
                raise ValueError("self-loop")
            for w in (u, v):
                if w not in vlist:
                    vlist.append(w)
            key = frozenset({u, v})
            emap[key] = emap.get(key, 0) + m
        return CutGraph(tuple(vlist), frozenset(undeletable), emap)

    def deletable(self, v: str) -> bool:
        return v not in self.undeletable

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
        vs: list[str] = []
        for v in self.vertices:
            nv = rename[v]
            if nv not in vs:
                vs.append(nv)
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


def components(g: CutGraph, deleted: Iterable[str] = ()) -> list[frozenset]:
    deleted = set(deleted)
    bad = deleted & g.undeletable
    if bad:
        raise ValueError(f"cannot delete undeletable vertices {sorted(bad)}")
    adj = g.adjacency()
    seen: set = set(deleted)
    out = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            comp.add(x)
            stack.extend(w for w in adj[x] if w not in seen and w not in deleted)
        out.append(frozenset(comp))
    return out


def reachable(g: CutGraph, sources: Iterable[str], deleted: Iterable[str] = ()) -> set:
    deleted = set(deleted)
    adj = g.adjacency()
    seen: set = set()
    stack = [s for s in sources if s not in deleted]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        stack.extend(w for w in adj[x] if w not in seen and w not in deleted)
    return seen


def separates(g: CutGraph, cut: Iterable[str], s: str, t: str) -> bool:
    """Whether the cut fulfills the request st (membership counts)."""
    cut = set(cut)
    if s in cut or t in cut:
        return True
    if s == t:
        return False
    return t not in reachable(g, [s], cut)


def shadow(g: CutGraph, deleted: Iterable[str], t_set: Iterable[str]) -> set:
    """Vertices of G - deleted that cannot reach the T set."""
    deleted = set(deleted)
    seen = reachable(g, [t for t in t_set if t not in deleted], deleted)
    return {v for v in g.vertices if v not in deleted and v not in seen}


# ---------------------------------------------------------------------------
# Vertex-capacity flow.  Nodes (v, 0) / (v, 1) are the in/out copies of v.

_BIG = 1 << 30


class _FlowNet:
    def __init__(self, g: CutGraph, cuttable: set):
        self.cap: dict = {}
        self.adj: dict = {}
        for v in g.vertices:
            c = 1 if v in cuttable else _BIG
            self._arc((v, 0), (v, 1), c)
        for e, m in g.edges.items():
            u, v = sorted(e)
            self._arc((u, 1), (v, 0), _BIG)
            self._arc((v, 1), (u, 0), _BIG)

    def _arc(self, a, b, c):
        self.cap[(a, b)] = self.cap.get((a, b), 0) + c
        self.cap.setdefault((b, a), 0)
        self.adj.setdefault(a, set()).add(b)
        self.adj.setdefault(b, set()).add(a)
        self.adj.setdefault(a, set())

    def add_arc(self, a, b, c=_BIG):
        self._arc(a, b, c)

    def maxflow(self, source, sink, limit: int) -> int:
        """Edmonds-Karp up to the limit; returns min(flow value, limit+1)."""
        flow = 0
        while flow <= limit:
            parent = {source: None}
            dq = deque([source])
            found = False
            while dq and not found:
                x = dq.popleft()
                for y in self.adj[x]:
                    if y not in parent and self.cap.get((x, y), 0) > 0:
                        parent[y] = x
                        if y == sink:
                            found = True
                            break
                        dq.append(y)
            if not found:
                return flow
            # bottleneck
            path = []
            y = sink
            while parent[y] is not None:
                path.append((parent[y], y))
                y = parent[y]
            aug = min(self.cap[(a, b)] for a, b in path)
            for a, b in path:
                self.cap[(a, b)] -= aug
                self.cap[(b, a)] += aug
            flow += aug
        return flow

    def residual_reachable(self, source) -> set:
        seen = {source}
        dq = deque([source])
        while dq:
            x = dq.popleft()
            for y in self.adj[x]:
                if y not in seen and self.cap.get((x, y), 0) > 0:
                    seen.add(y)
                    dq.append(y)
        return seen

    def residual_coreachable(self, sink) -> set:
        """Nodes with a positive-capacity residual path to the sink."""
        seen = {sink}
        dq = deque([sink])
        while dq:
            y = dq.popleft()
            for x in self.adj[y]:
                if x not in seen and self.cap.get((x, y), 0) > 0:
                    seen.add(x)
                    dq.append(x)
        return seen


def _separator_net(g: CutGraph, s: str, targets: Sequence[str],
                   cut_targets: bool, forbidden: Iterable[str] = ()):
    forbidden = set(forbidden) | {s}
    cuttable = {v for v in g.vertices
                if g.deletable(v) and v not in forbidden}
    if not cut_targets:
        cuttable -= set(targets)
    net = _FlowNet(g, cuttable)
    sink = ("__sink__", 0)
    for t in targets:
        net.add_arc((t, 1) if cut_targets else (t, 0), sink)
    return net, (s, 1), sink


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
    net, source, sink = _separator_net(g, s, targets, cut_targets, forbidden)
    flow = net.maxflow(source, sink, hard_limit)
    if flow > hard_limit:
        return None
    reach = net.residual_reachable(source)
    cut = frozenset(
        v for v in g.vertices
        if (v, 0) in reach and (v, 1) not in reach
    )
    if flow >= _BIG or len(cut) != flow:
        return None
    return cut


def _farthest_min_sep(g: CutGraph, xs: Iterable[str], ys: Iterable[str],
                      limit: int) -> tuple[Optional[int], Optional[frozenset]]:
    """Size of a minimum X-Y separator and the one closest to Y (maximal
    X-side), or (None, None) when the size exceeds the limit or is infinite."""
    xs, ys = set(xs), set(ys)
    cuttable = {v for v in g.vertices
                if g.deletable(v) and v not in xs and v not in ys}
    net = _FlowNet(g, cuttable)
    src = ("__src__", 1)
    sink = ("__sink__", 0)
    for x in xs:
        net.add_arc(src, (x, 0))
    for y in ys:
        net.add_arc((y, 1), sink)
    flow = net.maxflow(src, sink, limit)
    if flow > limit:
        return None, None
    core = net.residual_coreachable(sink)
    far = frozenset(v for v in g.vertices
                    if (v, 1) in core and (v, 0) not in core)
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

    def rec(g_cur: CutGraph, xs: frozenset, committed: frozenset, budget: int):
        lam, far = _farthest_min_sep(g_cur, xs, ys0, budget)
        if lam is None:
            return
        if lam == 0:
            candidates.add(committed)
            return
        v = sorted(far)[0]
        if budget >= 1:
            rec(g_cur.without({v}), xs, committed | {v}, budget - 1)
        rec(g_cur, xs | {v}, committed, budget)

    rec(g, xs0, frozenset(), k)

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

    Each entry of terminals is a vertex or a group of vertices to keep
    together; terminal vertices are excluded from deletion.
    """
    groups = [frozenset({t}) if isinstance(t, str) else frozenset(t)
              for t in terminals]
    term_vertices = frozenset().union(*groups) if groups else frozenset()

    def violated(cut: frozenset) -> Optional[tuple[int, int]]:
        comp_of = {}
        for i, comp in enumerate(components(g, cut)):
            for v in comp:
                comp_of[v] = i
        for (i, a), (j, b) in itertools.combinations(
                [(i, v) for i, grp in enumerate(groups) for v in grp], 2):
            if i != j and comp_of.get(a) is not None and comp_of.get(a) == comp_of.get(b):
                return (i, j)
        return None

    best: Optional[frozenset] = None

    def rec(cut: frozenset, budget: int):
        nonlocal best
        if best is not None and len(cut) >= len(best):
            return
        pair = violated(cut)
        if pair is None:
            if best is None or len(cut) < len(best):
                best = cut
            return
        if budget == 0:
            return
        i, _ = pair
        g2 = g.without(cut)
        xs = [v for v in groups[i] if v in set(g2.vertices)]
        ys = [v for grp in groups[:i] + groups[i + 1:] for v in grp
              if v in set(g2.vertices)]
        g2 = g2.make_undeletable(set(xs) | set(ys))
        for sep in important_separators(g2, xs, ys, budget):
            rec(cut | sep, budget - len(sep))

    rec(frozenset(), k)
    if best is not None and len(best) <= k:
        return best
    return None
