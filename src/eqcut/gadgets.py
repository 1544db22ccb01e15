"""Executable reductions between MinCSP instances and cut problems.

Each constructor mirrors one reduction proof; the test suite re-checks them
against the brute-force oracles on small inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cutgraph import CutGraph, RequestList, TripleSet
from .instances import (
    Constraint,
    MinCspInstance,
    crisp,
    crisp_assign,
    fresh_names,
    fresh_tag,
    normalize_constraint,
    soft,
    soft_assign,
)
from .relations import (
    EQ,
    NAE3,
    NEQ,
    NEQ3,
    ODD3,
    R_AND_EQ_EQ,
    R_AND_EQ_NEQ,
    R_AND_NEQ_NEQ,
    R_VEE_NEQ_NEQ,
    EqRelation,
    is_neq3,
    rneq_relation,
    split_witness,
    subsets,
    union_classes,
)


class ReductionError(ValueError):
    pass


def _is_eq_rel(rel: EqRelation) -> bool:
    return rel.arity == 2 and rel.tuples == EQ.tuples


def _is_rneq_rel(rel: EqRelation) -> bool:
    return rel.arity % 2 == 0 and rel.tuples == rneq_relation(rel.arity // 2).tuples


def _is_neq_rel(rel: EqRelation) -> bool:
    return rel.arity == 2 and rel.tuples == NEQ.tuples


# ---------------------------------------------------------------------------
# Edge Multicut <-> MinCSP(=, !=)


def edge_multicut_to_mincsp(g: CutGraph, requests: Sequence[tuple[str, str]],
                            k: int) -> tuple[MinCspInstance, int]:
    """Soft equality per edge, crisp disequality per cut request."""
    constraints: list[Constraint] = []
    for e, m in sorted(g.edges.items(), key=lambda em: sorted(em[0])):
        u, v = sorted(e)
        constraints.append(soft(EQ, u, v, m=m))
    for s, t in requests:
        if s == t:
            raise ReductionError("cut request with identical endpoints")
        constraints.append(crisp(NEQ, s, t))
    inst = MinCspInstance.build("edge_multicut", constraints, g.vertices)
    return inst, k


# ---------------------------------------------------------------------------
# MinCSP(split, NEQ3) -> Triple Multicut


@dataclass
class TripleMulticutReduction:
    graph: CutGraph
    triples: TripleSet
    budget: int
    infeasible: bool = False
    notes: tuple = ()


def mincsp_to_triple_multicut(inst: MinCspInstance, k: int
                              ) -> TripleMulticutReduction:
    """One undeletable vertex per variable; a star vertex per split constraint
    with triples to its disequality side; a triple per NEQ3 constraint."""
    notes = []
    offset = 0
    vertices = [f"v:{x}" for x in inst.variables]
    undeletable = set(vertices)
    edges: list = []
    triples: list = []
    dummy = "w:dummy"
    vertices.append(dummy)
    undeletable.add(dummy)

    zc = 0
    for c in inst.constraints:
        if c.is_assignment():
            raise ReductionError("assignment constraints are not eligible")
        nc = normalize_constraint(c)
        if nc is None:
            continue
        if nc.relation.is_empty():
            if c.kind == "crisp":
                notes = ["crisp constraint unsatisfiable"]
                break
            offset += nc.multiplicity
            notes.append(f"always-violated soft constraint costs {nc.multiplicity}")
            continue
        rel, scope = nc.relation, nc.scope
        if is_neq3(rel):
            mult = (k + 1) if nc.kind == "crisp" else nc.multiplicity
            triples.append((frozenset(f"v:{x}" for x in scope), mult))
            continue
        sw = split_witness(rel)
        if sw is None:
            raise ReductionError(f"relation {rel.name} is neither split nor NEQ3")
        p_set, q_set = sw
        copies = 1 if nc.kind == "crisp" else nc.multiplicity
        triple_mult = (k + 1) if nc.kind == "crisp" else 1
        for j in range(copies):
            zc += 1
            z = f"z:{zc}"
            vertices.append(z)
            if nc.kind == "crisp":
                undeletable.add(z)
            for p in sorted(p_set):
                edges.append((z, f"v:{scope[p - 1]}"))
            for q in sorted(q_set):
                triples.append(
                    (frozenset({z, f"v:{scope[q - 1]}", dummy}), triple_mult))
    else:
        if offset <= k:
            g = CutGraph.build(vertices, edges, undeletable=undeletable)
            return TripleMulticutReduction(g, TripleSet.of(*triples), k - offset,
                                           notes=tuple(notes))
        notes.append("offset exceeds budget")
    # a crisp contradiction or an offset over the budget: a fixed no-instance
    return TripleMulticutReduction(
        CutGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")],
                       undeletable={"a", "b", "c"}),
        TripleSet.of(("a", "b", "c")), 0, infeasible=True, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Hitting Set -> MinCSP(ODD3, =, !=)


def hitting_set_to_odd3(elements: Sequence, sets: Sequence[Iterable], k: int
                        ) -> tuple[MinCspInstance, int, tuple]:
    """Soft x_i = z per element; per set, a crisp ODD3 chain closed by a
    disequality, satisfiable exactly when the set's variables are not all equal.
    Singleton sets are padded with a fresh dummy element."""
    notes = []
    constraints: list[Constraint] = [
        soft(EQ, f"x{a}", "z") for a in elements
    ]
    pads = fresh_names("pad", map(str, elements), 1)
    known = set(elements)
    for sno, raw in enumerate(sets):
        members = _set_members(raw, known)
        if len(members) == 1:
            d = next(pads)
            constraints.append(soft(EQ, f"x{d}", "z"))
            members.append(d)
            notes.append(f"set {sno} padded with dummy element {d}")
        names = [f"x{a}" for a in members]
        ln = len(names)
        ys = [f"s{sno}.y{i}" for i in range(2, ln + 1)]
        constraints.append(crisp(ODD3, names[0], names[1], ys[0]))
        for i in range(3, ln + 1):
            constraints.append(crisp(ODD3, ys[i - 3], names[i - 1], ys[i - 2]))
        constraints.append(crisp(NEQ, names[0], ys[-1]))
    inst = MinCspInstance.build("hs_odd3", constraints, notes=tuple(notes))
    return inst, k, tuple(notes)


def _set_members(raw: Iterable, known: set) -> list:
    """The sorted distinct members of one hitting-set set; ReductionError
    for an empty set or a member that is not a known element."""
    members = sorted(set(raw))
    if not members:
        raise ReductionError("empty set can never be hit")
    if not known.issuperset(members):
        raise ReductionError("set uses unknown element")
    return members


# ---------------------------------------------------------------------------
# Steiner Multicut <-> MinCSP(NAE3, =)


def steiner_to_nae3(g: CutGraph, t_sets: Sequence[Iterable[str]], k: int
                    ) -> tuple[MinCspInstance, int]:
    constraints: list[Constraint] = []
    for e, m in sorted(g.edges.items(), key=lambda em: sorted(em[0])):
        u, v = sorted(e)
        constraints.append(soft(EQ, u, v, m=m))
    for ts in t_sets:
        ts = sorted(set(ts))
        if len(ts) != 3:
            raise ReductionError("terminal sets must have exactly three vertices")
        constraints.append(crisp(NAE3, *ts))
    return MinCspInstance.build("steiner_nae3", constraints, g.vertices), k


def nae3_to_steiner(inst: MinCspInstance, k: int
                    ) -> tuple[CutGraph, list[frozenset], int]:
    edges: list = []
    t_sets: list[frozenset] = []
    for c in inst.constraints:
        if c.is_assignment():
            raise ReductionError("assignment constraint not allowed here")
        if _is_eq_rel(c.relation) and c.kind == "soft":
            edges.append((c.scope[0], c.scope[1], c.multiplicity))
        elif c.relation.tuples == NAE3.tuples and c.kind == "crisp":
            if len(set(c.scope)) != 3:
                raise ReductionError("NAE3 scope must have distinct variables")
            t_sets.append(frozenset(c.scope))
        else:
            raise ReductionError(f"constraint {c.describe()} is not eligible")
    g = CutGraph.build(inst.variables, edges)
    return g, t_sets, k


# ---------------------------------------------------------------------------
# MinCSP(Rneq_d, =) -> Disjunctive Multicut


def rneq_to_disjunctive_multicut(inst: MinCspInstance
                                 ) -> tuple[CutGraph, list[RequestList], int]:
    """Crisp vertex per variable, soft subdivision vertex per constraint copy;
    each disjunctive constraint becomes a request list with its own singleton.
    An Rneq constraint's pairs are read off its own scope, less those made
    of one variable, which never differ.

    Returns (graph, lists, cost offset); cost(inst) = cost(graph, lists) + offset.
    """
    vertices = [f"x:{v}" for v in inst.variables]
    undeletable = set(vertices)
    edges: list = []
    lists: list[RequestList] = []
    offset = 0
    zc = 0
    for c in inst.constraints:
        if c.is_assignment():
            raise ReductionError("assignment constraints are not eligible")
        nc = normalize_constraint(c)
        if nc is None:
            continue
        if nc.relation.is_empty():
            if nc.kind == "crisp":
                raise ReductionError("crisp constraint is unsatisfiable")
            offset += nc.multiplicity
            continue
        rel, scope = c.relation, c.scope
        if not _is_rneq_rel(rel):
            # any other relation is judged by its repeat-free form
            rel, scope = nc.relation, nc.scope
        is_eq = _is_eq_rel(rel)
        if not is_eq and not _is_rneq_rel(rel):
            raise ReductionError(
                f"relation {rel.name} is not a disjunction of disequalities")
        d = rel.arity // 2
        for _ in range(nc.multiplicity if nc.kind == "soft" else 1):
            zc += 1
            z = f"z:{zc}"
            vertices.append(z)
            if nc.kind == "crisp":
                undeletable.add(z)
            if is_eq:
                edges.append((f"x:{scope[0]}", z))
                edges.append((f"x:{scope[1]}", z))
            else:
                pairs = [(f"x:{scope[2 * i]}", f"x:{scope[2 * i + 1]}")
                         for i in range(d) if scope[2 * i] != scope[2 * i + 1]]
                lists.append(RequestList.of(*pairs, (z,)))
    g = CutGraph.build(vertices, edges, undeletable=undeletable)
    return g, lists, offset


# ---------------------------------------------------------------------------
# Choice (wheel) gadget


@dataclass(frozen=True)
class WheelGadget:
    t: int
    names: tuple[str, ...]
    instance: MinCspInstance
    variant: str = "weighted"


def _wheel_constraints(names: Sequence[str], t: int, variant: str,
                       paired: Iterable[int] = (),
                       crisp_eq_edges: Iterable[int] = ()) -> list[Constraint]:
    """Cycle equalities and forward-partner disequalities for a wheel on
    2t+1 variables.  Disequality indices listed in `paired` are omitted
    (their constraint is replaced elsewhere); cycle-edge indices in
    `crisp_eq_edges` are emitted crisp."""
    n = 2 * t + 1
    paired = set(paired)
    crisp_eq = set(crisp_eq_edges)
    cons: list[Constraint] = []
    for i in range(n):
        u, v = names[i], names[(i + 1) % n]
        if i in crisp_eq:
            cons.append(crisp(EQ, u, v))
        else:
            cons.append(soft(EQ, u, v, m=2 if variant == "weighted" else 1))
    for i in range(n):
        if i in paired:
            continue
        if variant == "weighted":
            kind = "soft" if 1 <= i <= t else "crisp"
        else:
            kind = "crisp" if i == 0 else "soft"
        cons.append(Constraint(NEQ, (names[i], names[(i + t) % n]), kind, 1))
    return cons


def wheel(s_labels: Sequence, variant: str = "weighted") -> WheelGadget:
    """The choice gadget over a set of size t >= 2."""
    t = len(s_labels)
    if t < 2:
        raise ReductionError("choice gadget needs a set of size at least two")
    names = tuple(f"w{i}" for i in range(2 * t + 1))
    inst = MinCspInstance.build(f"wheel_t{t}",
                                _wheel_constraints(names, t, variant), names)
    return WheelGadget(t, names, inst, variant)


def _eq_neq_consistent(inst: MinCspInstance, removed: Sequence[Constraint]) -> bool:
    """Satisfiability of an instance over {=, !=} after removing constraints."""
    removed = list(removed)
    live = []
    for c in inst.constraints:
        if c in removed:
            removed.remove(c)
            continue
        live.append(c)
    root = union_classes(inst.variables, (c.scope for c in live
                                          if _is_eq_rel(c.relation)))
    return not any(_is_neq_rel(c.relation) and root[c.scope[0]] == root[c.scope[1]]
                   for c in live)


@dataclass(frozen=True)
class WheelReport:
    cost: float
    optimal_deletions: tuple
    shapes_match: bool
    no_two_constraint_solution: bool


def wheel_verify(w: WheelGadget) -> WheelReport:
    """Brute-force check of the choice-gadget lemma.

    Weighted variant: optimum 5 and every optimal deletion is one of the t
    canonical shapes.  Unweighted variant: optimum 3, and every optimal
    deletion containing a disequality is canonical.
    """
    from .instances import brute_force_cost

    inst = w.instance
    opt = brute_force_cost(inst).cost
    softs = [c for c in inst.constraints if c.kind == "soft"]
    best_cost = None
    best_sets = []
    for combo in subsets(softs, 4):
        cost = sum(c.multiplicity for c in combo)
        if best_cost is not None and cost > best_cost:
            continue
        if _eq_neq_consistent(inst, combo):
            if best_cost is None or cost < best_cost:
                best_cost, best_sets = cost, []
            if cost == best_cost:
                best_sets.append(frozenset(combo))
    no_two = all(len(s) >= 3 for s in best_sets)

    t, names = w.t, w.names
    n = 2 * t + 1
    hi = t if w.variant == "weighted" else 2 * t
    expected = set()
    for i in range(1, hi + 1):
        eq1 = frozenset({names[i - 1], names[i]})
        dis = frozenset({names[i], names[(i + t) % n]})
        eq2 = frozenset({names[(i + t) % n], names[(i + t + 1) % n]})
        expected.add(frozenset({("=", eq1), ("!=", dis), ("=", eq2)}))

    def shape(cs: frozenset) -> frozenset:
        return frozenset((c.relation.name, frozenset(c.scope)) for c in cs)

    if w.variant == "weighted":
        got = {shape(s) for s in best_sets}
        shapes_match = got == expected and opt == best_cost == 5
    else:
        with_diseq = {shape(s) for s in best_sets
                      if any(c.relation.name == "!=" for c in s)}
        shapes_match = (with_diseq <= expected and opt == best_cost == 3)
    return WheelReport(opt, tuple(best_sets), shapes_match, no_two)


# ---------------------------------------------------------------------------
# Split Paired Cut reductions


@dataclass
class SplitPairedCutInstance:
    g1: CutGraph
    g2: CutGraph
    s1: str
    t1: str
    s2: str
    t2: str
    pairs: list            # ((u1, v1), (u2, v2)) edge pairs
    k: int

    def __post_init__(self):
        if set(self.g1.vertices) & set(self.g2.vertices):
            raise ReductionError("the two graphs must use disjoint vertex names")
        seen: set = set()
        for (e1, e2) in self.pairs:
            for side, g in ((e1, self.g1), (e2, self.g2)):
                key = frozenset(side)
                if key not in g.edges:
                    raise ReductionError(f"pair uses unknown edge {side}")
                if (id(g), key) in seen:
                    raise ReductionError("pairs must be disjoint")
                seen.add((id(g), key))


def strip_flow_paths(g: CutGraph, s: str, t: str, k: int) -> list[list[str]]:
    """Partition the edge set into k edge-disjoint s-t paths, or fail.

    This is the normalization the hardness proofs assume; instances whose
    maxflow is not exactly k (or with leftover edges) are rejected.
    """
    remaining = {tuple(sorted(e)) for e in g.edges}
    if any(m != 1 for m in g.edges.values()):
        raise ReductionError("flow decomposition expects simple edges")
    paths = []
    for _ in range(k):
        # DFS for an s-t path on remaining edges
        stack = [(s, [s])]
        seen_path = None
        visited = set()
        while stack:
            x, path = stack.pop()
            if x == t:
                seen_path = path
                break
            if x in visited:
                continue
            visited.add(x)
            for e in sorted(remaining):
                if x in e:
                    y = e[0] if e[1] == x else e[1]
                    if tuple(sorted((x, y))) in remaining and y not in path:
                        stack.append((y, path + [y]))
        if seen_path is None:
            raise ReductionError("graph does not decompose into k flow paths")
        for a, b in zip(seen_path, seen_path[1:]):
            remaining.discard(tuple(sorted((a, b))))
        paths.append(seen_path)
    if remaining:
        raise ReductionError("leftover edges after stripping k paths")
    return paths


def spc_to_eq_eq(spc: SplitPairedCutInstance) -> tuple[MinCspInstance, int]:
    """Crisp equality for unpaired edges, one soft paired constraint per pair."""
    paired1 = {frozenset(e1) for e1, _ in spc.pairs}
    paired2 = {frozenset(e2) for _, e2 in spc.pairs}
    cons: list[Constraint] = []
    for g, paired in ((spc.g1, paired1), (spc.g2, paired2)):
        for e in sorted(g.edges, key=sorted):
            if e not in paired:
                u, v = sorted(e)
                cons.append(crisp(EQ, u, v))
    cons.append(crisp(NEQ, spc.s1, spc.t1))
    cons.append(crisp(NEQ, spc.s2, spc.t2))
    for (u1, v1), (u2, v2) in spc.pairs:
        cons.append(soft(R_AND_EQ_EQ, u1, v1, u2, v2))
    vars_all = list(spc.g1.vertices) + list(spc.g2.vertices)
    return MinCspInstance.build("spc_eq_eq", cons, vars_all), spc.k


def _path_wheels(spc: SplitPairedCutInstance, side: int
                 ) -> tuple[list[Constraint], list[str], dict]:
    """A weighted choice gadget over each flow path of one side (1 or 2).

    A path of p edges supplies the first p+1 of the wheel's 2p+1 variables,
    so its edges are the first p cycle edges: crisp unless paired.  The
    other p are named tag.r<j> under the next tag g<side>p<m> none of whose
    names is a vertex of either graph.  A paired edge's forward-partner
    disequality is left out, for the pair's constraint to replace.  Returns
    the constraints, the wheel variables, and the variables of that
    disequality per paired edge.
    """
    g, s, t = (spc.g1, spc.s1, spc.t1) if side == 1 else (spc.g2, spc.s2, spc.t2)
    paired = {frozenset(pair[side - 1]) for pair in spc.pairs}
    taken = {*spc.g1.vertices, *spc.g2.vertices}
    cons: list[Constraint] = []
    names_all: list[str] = []
    partners: dict = {}
    tags = (f"g{side}p{m}" for m in itertools.count())
    for path in strip_flow_paths(g, s, t, spc.k):
        p = len(path) - 1
        suffixes = [f"r{j}" for j in range(p + 1, 2 * p + 1)]
        tag = fresh_tag(tags, suffixes, taken)
        names = tuple(path) + tuple(f"{tag}.{x}" for x in suffixes)
        names_all.extend(names)
        paired_idx = []
        crisp_eq = []
        for i in range(1, p + 1):
            e = frozenset({path[i - 1], path[i]})
            if e in paired:
                paired_idx.append(i)
                partners[e] = (names[i], names[(i + p) % (2 * p + 1)])
            else:
                crisp_eq.append(i - 1)
        cons.extend(_wheel_constraints(names, p, "weighted", paired_idx, crisp_eq))
    return cons, names_all, partners


def spc_to_neq_neq(spc: SplitPairedCutInstance) -> tuple[MinCspInstance, int]:
    """Choice gadget per flow path on both sides; paired edges share one soft
    constraint on the two forward-partner disequalities.

    The budget is 9k: each of the 2k wheels must drop two doubled equalities
    (cost 8k) and the k paired constraints supply the third deletions.
    """
    cons, names1, ends1 = _path_wheels(spc, 1)
    cons2, names2, ends2 = _path_wheels(spc, 2)
    cons += cons2
    for (e1, e2) in spc.pairs:
        cons.append(soft(R_AND_NEQ_NEQ, *ends1[frozenset(e1)], *ends2[frozenset(e2)]))
    return MinCspInstance.build("spc_neq_neq", cons, names1 + names2), 9 * spc.k


def spc_to_eq_neq(spc: SplitPairedCutInstance) -> tuple[MinCspInstance, int]:
    """Plain equalities on the first graph, choice gadgets on the second;
    each pair joins a first-graph edge with a wheel disequality.  Budget 5k."""
    paired1 = {frozenset(e1) for e1, _ in spc.pairs}
    cons: list[Constraint] = []
    for e in sorted(spc.g1.edges, key=sorted):
        if e not in paired1:
            u, v = sorted(e)
            cons.append(crisp(EQ, u, v))
    cons.append(crisp(NEQ, spc.s1, spc.t1))
    wheels, names2, ends2 = _path_wheels(spc, 2)
    cons += wheels
    for (e1, e2) in spc.pairs:
        cons.append(soft(R_AND_EQ_NEQ, *e1, *ends2[frozenset(e2)]))
    return (MinCspInstance.build("spc_eq_neq", cons, list(spc.g1.vertices) + names2),
            5 * spc.k)


# ---------------------------------------------------------------------------
# Multicoloured Independent Set -> MinCSP(R_vee_neq_neq, =)


def mis_to_disjneqneq(g: CutGraph, classes: Sequence[Sequence[str]], k: int
                      ) -> tuple[MinCspInstance, int]:
    """Full choice gadget per colour class, a crisp disjunctive-disequality
    constraint per edge, budget 5k."""
    if k != len(classes):
        raise ReductionError("k must equal the number of colour classes")
    flat = [v for cl in classes for v in cl]
    if sorted(flat) != sorted(g.vertices) or len(flat) != len(set(flat)):
        raise ReductionError("classes must partition the vertex set")
    cons: list[Constraint] = []
    position: dict = {}
    names_of: list[tuple[str, ...]] = []
    for i, cl in enumerate(classes):
        t = len(cl)
        names = tuple(f"c{i}.x{j}" for j in range(2 * t + 1))
        names_of.append(names)
        cons.extend(_wheel_constraints(names, t, "weighted"))
        for j, v in enumerate(cl, start=1):
            position[v] = (i, j, t)
    for e in sorted(g.edges, key=sorted):
        u, v = sorted(e)
        iu, ju, tu = position[u]
        iv, jv, tv = position[v]
        if iu == iv:
            continue  # intra-class edges never block a multicoloured selection
        nu, nv = names_of[iu], names_of[iv]
        cons.append(crisp(R_VEE_NEQ_NEQ,
                          nu[ju], nu[(ju + tu) % (2 * tu + 1)],
                          nv[jv], nv[(jv + tv) % (2 * tv + 1)]))
    inst = MinCspInstance.build("mis_vee", cons)
    return inst, 5 * k


# ---------------------------------------------------------------------------
# ODD3 with constants


def odd3_nary_gadget(n: int, targets: Optional[Sequence[str]] = None,
                     tag: str = "",
                     anchors: Optional[tuple[str, str]] = None
                     ) -> MinCspInstance:
    """Chain gadget accepting every target tuple except all-equal-to-1 and
    all-equal-to-2, anchored by two constant assignments."""
    if n < 1:
        raise ReductionError("need at least one target variable")
    targets = list(targets) if targets else [f"x{i}" for i in range(1, n + 1)]
    if len(targets) != n:
        raise ReductionError("target list length mismatch")
    z1, z2 = anchors if anchors else (f"{tag}z1", f"{tag}z2")
    cons = [crisp_assign(z1, 1), crisp_assign(z2, 2)]
    if n == 1:
        cons.append(crisp(ODD3, z1, z2, targets[0]))
    else:
        ys = [f"{tag}y{i}" for i in range(2, n + 1)]
        cons.append(crisp(ODD3, targets[0], targets[1], ys[0]))
        for i in range(2, n):
            cons.append(crisp(ODD3, ys[i - 2], targets[i], ys[i - 1]))
        cons.append(crisp(ODD3, z1, z2, ys[-1]))
    return MinCspInstance.build(f"odd3_nary_{n}", cons,
                                primaries=tuple(targets))


def hitting_set_to_odd3_constants(elements: Sequence, sets: Sequence[Iterable],
                                  k: int) -> tuple[MinCspInstance, int, tuple]:
    """Soft (x = 1) per element plus one crisp chain gadget per set; the two
    constant anchors are shared between the gadgets, and their assignments
    come with the first gadget."""
    notes = []
    constraints: list[Constraint] = [soft_assign(f"x{a}", 1) for a in elements]
    anchors = ("z.one", "z.two")
    pads = fresh_names("pad", map(str, elements), 1)
    known = set(elements)
    for sno, raw in enumerate(sets):
        members = _set_members(raw, known)
        if len(members) == 1:
            d = next(pads)
            constraints.append(soft_assign(f"x{d}", 1))
            members.append(d)
            notes.append(f"set {sno} padded with dummy element {d}")
        gadget = odd3_nary_gadget(len(members), [f"x{a}" for a in members],
                                  tag=f"s{sno}.", anchors=anchors)
        constraints.extend(c for c in gadget.constraints
                           if sno == 0 or not c.is_assignment())
    inst = MinCspInstance.build("hs_odd3_const", constraints, notes=tuple(notes))
    return inst, k, tuple(notes)


# ---------------------------------------------------------------------------
# Constant emulation


def emulate_constants(inst: MinCspInstance) -> MinCspInstance:
    """Replace assignment constraints by equalities to pairwise-distinct
    fresh anchor variables, one per constant in use.  The anchor of constant
    i is t.const<i>, or a free t.const<j> when a variable has that name."""
    used = inst.constants()
    taken = set(inst.variables)
    spare = fresh_names("t.const", taken | {f"t.const{i}" for i in used})
    anchors = {i: f"t.const{i}" if f"t.const{i}" not in taken else next(spare)
               for i in used}
    cons: list[Constraint] = []
    for i, j in itertools.combinations(used, 2):
        cons.append(crisp(NEQ, anchors[i], anchors[j]))
    for c in inst.constraints:
        if c.is_assignment():
            cons.append(Constraint(EQ, (c.scope[0], anchors[c.value]),
                                   c.kind, c.multiplicity))
        else:
            cons.append(c)
    variables = list(inst.variables) + [anchors[i] for i in used]
    return MinCspInstance.build(f"{inst.name}+anchors", cons, variables,
                                inst.primaries, inst.notes)
