"""Implementations and pp-definitions extracted from a single relation.

Each construction returns a MinCspInstance gadget with designated primary
variables, validated by brute force against the target relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from .instances import (
    Constraint,
    MinCspInstance,
    check_implementation,
    defined_relation,
    soft,
)
from .relations import (
    EQ,
    EQ_OP,
    NAE3,
    NEQ,
    NEQ_OP,
    R_VEE_NEQ_NEQ,
    EqRelation,
    entailed_clauses,
    is_conjunctive,
    is_negative,
    is_neq3,
    is_split,
    is_strictly_negative,
    is_tautological_clause,
    refines,
    union_classes,
)


class PreconditionError(ValueError):
    pass


def _least_refined(rel: EqRelation) -> tuple[int, ...]:
    for t in sorted(rel.tuples):
        if not any(refines(t, u) == "strictly_refines" for u in rel.tuples):
            return t
    raise AssertionError("nonempty relation has a least refined tuple")


def implement_disequality(rel: EqRelation) -> MinCspInstance:
    """Gadget implementing x1 != x2: the relation applied to one variable per
    value class of a least refined tuple."""
    if rel.is_constant():
        raise PreconditionError("constant relations cannot implement disequality")
    if rel.is_empty():
        raise PreconditionError("empty relation")
    t = _least_refined(rel)
    p, q = next(
        (i, j) for i, j in itertools.combinations(range(len(t)), 2) if t[i] != t[j]
    )
    var = {c: f"v{c}" for c in sorted(set(t))}
    var[t[p]] = "x1"
    var[t[q]] = "x2"
    scope = tuple(var[c] for c in t)
    gadget = MinCspInstance.build(
        f"impl_neq({rel.name})",
        [soft(rel, *scope)],
        primaries=("x1", "x2"),
        notes=(f"least refined tuple {t}",),
    )
    if not check_implementation(gadget, NEQ):
        raise AssertionError("disequality gadget failed brute-force validation")
    return gadget


def implement_equality(rel: EqRelation) -> MinCspInstance:
    """Gadget implementing x1 = x2 from a Horn clause with a positive literal,
    identifying the variables of its negative literals."""
    if not is_strictly_negative(rel) and not rel.is_proper():
        raise PreconditionError("relation must be proper")
    horn = entailed_clauses(rel, "horn")
    candidates = [
        cl for cl in sorted(horn, key=lambda cl: (len(cl), sorted(cl)))
        if any(op == EQ_OP for (_, _, op) in cl)
        and not is_tautological_clause(cl, rel.arity)
    ]
    if not candidates:
        raise PreconditionError(
            "relation is strictly negative (or not Horn): no equality gadget")
    cl = candidates[0]
    (p, q, _) = next(lit for lit in sorted(cl) if lit[2] == EQ_OP)
    # union-find over the negative literals' index pairs
    root = union_classes(range(1, rel.arity + 1),
                         ((i, j) for (i, j, op) in cl if op == NEQ_OP))
    if root[p] == root[q]:
        raise AssertionError("tautological clause slipped through")
    var = {r: f"v{r}" for r in root.values()}
    var[root[p]] = "x1"
    var[root[q]] = "x2"
    scope = tuple(var[root[i]] for i in range(1, rel.arity + 1))
    gadget = MinCspInstance.build(
        f"impl_eq({rel.name})",
        [soft(rel, *scope)],
        primaries=("x1", "x2"),
        notes=(f"clause {sorted(cl)}",),
    )
    if not check_implementation(gadget, EQ):
        raise AssertionError("equality gadget failed brute-force validation")
    return gadget


@dataclass(frozen=True)
class PPWitness:
    """A pp-definition of a named target relation over {rel, =, !=}."""

    target: str
    instance: MinCspInstance

    def verify(self) -> bool:
        want = NAE3 if self.target == "nae3" else R_VEE_NEQ_NEQ
        return defined_relation(self.instance).tuples == want.tuples


def _crisp(rel, *scope):
    return Constraint(rel, tuple(scope), "crisp", 1)


def extract_nae3_or_disjneqneq(rel: EqRelation) -> PPWitness:
    """For a negative non-conjunctive relation, pp-define NAE3 or the
    disjunctive-disequality relation, validated by model enumeration."""
    if not is_negative(rel) or is_conjunctive(rel):
        raise PreconditionError("relation must be negative and not conjunctive")

    sneg = [
        cl for cl in entailed_clauses(rel, "strictly_negative")
        if len(cl) >= 2 and not is_tautological_clause(cl, rel.arity)
    ]
    names = [f"z{i}" for i in range(1, rel.arity + 1)]

    for cl in sorted(sneg, key=lambda cl: (len(cl), sorted(cl))):
        lits = sorted(cl)
        for a, b in itertools.combinations(range(len(lits)), 2):
            rest = [lits[s] for s in range(len(lits)) if s not in (a, b)]
            base = [_crisp(rel, *names)]
            for (i, j, _) in rest:
                base.append(_crisp(EQ, names[i - 1], names[j - 1]))
            (i1, j1, _), (i2, j2, _) = lits[a], lits[b]
            positions = {i1, j1, i2, j2}

            if len(positions) == 3:
                shared = ({i1, j1} & {i2, j2}).pop()
                o1 = ({i1, j1} - {shared}).pop()
                o2 = ({i2, j2} - {shared}).pop()
                primaries = (names[o1 - 1], names[shared - 1], names[o2 - 1])
                inst = MinCspInstance.build(
                    f"ppdef_nae3({rel.name})", base, primaries=primaries)
                if defined_relation(inst).tuples == NAE3.tuples:
                    return PPWitness("nae3", inst)
                continue

            primaries = (names[i1 - 1], names[j1 - 1], names[i2 - 1], names[j2 - 1])
            inst4 = MinCspInstance.build(
                f"ppdef_proj({rel.name})", base, primaries=primaries)
            proj = defined_relation(inst4)

            # entailed cross equality collapses the quadruple to a triple
            collapsed = False
            for p, q in itertools.product((1, 2), (3, 4)):
                if all(t[p - 1] == t[q - 1] for t in proj.tuples):
                    keep = [x for x in (1, 2) if x != p] + [p] + \
                           [x for x in (3, 4) if x != q]
                    prim3 = tuple(primaries[i - 1] for i in keep)
                    inst3 = MinCspInstance.build(
                        f"ppdef_nae3({rel.name})",
                        base + [_crisp(EQ, primaries[p - 1], primaries[q - 1])],
                        primaries=prim3)
                    if defined_relation(inst3).tuples == NAE3.tuples:
                        return PPWitness("nae3", inst3)
                    collapsed = True
                    break
            if collapsed:
                continue

            crosses = [
                _crisp(NEQ, primaries[p - 1], primaries[q - 1])
                for p, q in itertools.product((1, 2), (3, 4))
            ]
            inst = MinCspInstance.build(
                f"ppdef_vee({rel.name})", base + crosses, primaries=primaries)
            if defined_relation(inst).tuples == R_VEE_NEQ_NEQ.tuples:
                return PPWitness("vee_neq_neq", inst)

    raise AssertionError(
        f"no NAE3 / disjunctive-disequality witness found for {rel.name}")


@dataclass(frozen=True)
class DoubleConjunctionWitness:
    kind: str                       # "eq_eq" | "eq_neq" | "neq_neq"
    indices: tuple[int, int, int, int]
    relation: EqRelation            # projection onto the four indices


def colored_graph(rel: EqRelation) -> tuple[set, set]:
    """(blue, red) index pairs: entailed equalities and disequalities."""
    blue, red = set(), set()
    for i, j in itertools.combinations(range(1, rel.arity + 1), 2):
        if all(t[i - 1] == t[j - 1] for t in rel.tuples):
            blue.add((i, j))
        elif all(t[i - 1] != t[j - 1] for t in rel.tuples):
            red.add((i, j))
    return blue, red


def extract_double_conjunction(rel: EqRelation) -> DoubleConjunctionWitness:
    """Two independent colour-graph edges with no blue cross edge, for a
    conjunctive relation that is neither split nor NEQ3."""
    from .relations import essential_projection, project

    if not is_conjunctive(rel):
        raise PreconditionError("relation must be conjunctive")
    ess, kept = essential_projection(rel)
    if is_split(ess) or is_neq3(ess):
        raise PreconditionError("relation is split or NEQ3")

    blue, red = colored_graph(ess)
    edges = sorted(blue | red)
    for (a, b), (c, d) in itertools.combinations(edges, 2):
        if {a, b} & {c, d}:
            continue
        cross = {tuple(sorted(pq)) for pq in itertools.product((a, b), (c, d))}
        if cross & blue:
            continue
        kind = ("eq" if (a, b) in blue else "neq") + "_" + \
               ("eq" if (c, d) in blue else "neq")
        if kind == "neq_eq":
            (a, b), (c, d), kind = (c, d), (a, b), "eq_neq"
        idx = (kept[a - 1], kept[b - 1], kept[c - 1], kept[d - 1])
        return DoubleConjunctionWitness(kind, idx, project(rel, idx))
    raise AssertionError(f"no independent edge pair found for {rel.name}")
