"""MinCSP instances over equality languages, cost semantics, and the exact oracle.

The oracle enumerates set partitions of the variables (canonical assignments
are partition patterns), with constant labels on blocks only where assignment
constraints force the distinction.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

from .relations import EqRelation, all_patterns, canonicalize

INF = math.inf

DEFAULT_ORACLE_CAP = 12


def oracle_cap() -> int:
    return int(os.environ.get("EQCUT_ORACLE_CAP", DEFAULT_ORACLE_CAP))


class OracleCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class Constraint:
    """A relation applied to a scope, or an assignment constraint (x = value)."""

    relation: Optional[EqRelation]
    scope: tuple[str, ...]
    kind: str = "soft"
    multiplicity: int = 1
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("crisp", "soft"):
            raise ValueError(f"bad constraint kind {self.kind!r}")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")
        if self.relation is None:
            if self.value is None or len(self.scope) != 1:
                raise ValueError("assignment constraint needs one variable and a value")
        else:
            if len(self.scope) != self.relation.arity:
                raise ValueError(
                    f"scope length {len(self.scope)} != arity {self.relation.arity}"
                )

    def is_assignment(self) -> bool:
        return self.relation is None

    def describe(self) -> str:
        k = self.kind
        m = f" *{self.multiplicity}" if self.multiplicity > 1 else ""
        if self.is_assignment():
            return f"{k}-assign {self.scope[0]} = {self.value}{m}"
        return f"{k} {self.relation.name} {' '.join(self.scope)}{m}"


def soft(rel: EqRelation, *scope: str, m: int = 1) -> Constraint:
    return Constraint(rel, tuple(scope), "soft", m)


def crisp(rel: EqRelation, *scope: str, m: int = 1) -> Constraint:
    return Constraint(rel, tuple(scope), "crisp", m)


def soft_assign(var: str, value: int, m: int = 1) -> Constraint:
    return Constraint(None, (var,), "soft", m, value)


def crisp_assign(var: str, value: int, m: int = 1) -> Constraint:
    return Constraint(None, (var,), "crisp", m, value)


@dataclass(frozen=True)
class MinCspInstance:
    name: str
    variables: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    primaries: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        declared = set(self.variables)
        if len(self.variables) != len(declared):
            raise ValueError("duplicate variables")
        for c in self.constraints:
            for v in c.scope:
                if v not in declared:
                    raise ValueError(f"constraint uses undeclared variable {v!r}")

    @staticmethod
    def build(name: str, constraints: Iterable[Constraint],
              variables: Iterable[str] = (), primaries: Sequence[str] = (),
              notes: Sequence[str] = ()) -> "MinCspInstance":
        constraints = tuple(constraints)
        seen: list[str] = []
        for v in variables:
            if v not in seen:
                seen.append(v)
        for c in constraints:
            for v in c.scope:
                if v not in seen:
                    seen.append(v)
        return MinCspInstance(name, tuple(seen), constraints,
                              tuple(primaries), tuple(notes))

    def constants(self) -> list[int]:
        return sorted({c.value for c in self.constraints if c.is_assignment()})

    def with_constraints(self, constraints: Iterable[Constraint]) -> "MinCspInstance":
        return MinCspInstance.build(self.name, constraints, self.variables,
                                    self.primaries, self.notes)

    def without(self, removed: Iterable[Constraint]) -> "MinCspInstance":
        removed = list(removed)
        remaining = []
        for c in self.constraints:
            n = removed.count(c)
            if n >= c.multiplicity:
                for _ in range(c.multiplicity):
                    removed.remove(c)
                continue
            for _ in range(n):
                removed.remove(c)
            remaining.append(replace(c, multiplicity=c.multiplicity - n))
        if removed:
            raise ValueError(f"constraints not present: {removed}")
        return self.with_constraints(remaining)


# An assignment maps each variable to a value token: ("const", i) for the
# concrete constant i, or ("fresh", j) for an anonymous value.


@dataclass(frozen=True)
class Assignment:
    values: dict

    def __getitem__(self, var: str):
        return self.values[var]

    @staticmethod
    def from_blocks(blocks: Iterable[Iterable[str]], labels: Optional[dict] = None
                    ) -> "Assignment":
        labels = labels or {}
        used = [c for c in labels.values()]
        if len(used) != len(set(used)):
            raise ValueError("distinct blocks must carry distinct constants")
        values = {}
        fresh = 0
        for i, block in enumerate(blocks):
            if i in labels:
                val = ("const", labels[i])
            else:
                val = ("fresh", fresh)
                fresh += 1
            for v in block:
                if v in values:
                    raise ValueError(f"variable {v!r} in two blocks")
                values[v] = val
        return Assignment(values)


@dataclass(frozen=True)
class CostReport:
    cost: float
    violated: tuple[Constraint, ...] = ()

    def finite(self) -> bool:
        return self.cost < INF


def _constraint_violated(c: Constraint, assignment: Assignment) -> bool:
    if c.is_assignment():
        return assignment[c.scope[0]] != ("const", c.value)
    pattern = canonicalize([assignment[v] for v in c.scope])
    return pattern not in c.relation.tuples


def assignment_cost(inst: MinCspInstance, assignment: Assignment) -> CostReport:
    for v in inst.variables:
        if v not in assignment.values:
            raise ValueError(f"assignment does not cover variable {v!r}")
    cost = 0
    violated = []
    for c in inst.constraints:
        if _constraint_violated(c, assignment):
            if c.kind == "crisp":
                return CostReport(INF, (c,))
            violated.append(c)
            cost += c.multiplicity
    return CostReport(cost, tuple(violated))


def set_partitions(items: Sequence) -> Iterator[list[list]]:
    """Every partition of the items into blocks, Bell(n) in all.

    Each block lists its items last-to-first.  The yielded lists are reused:
    read a partition before advancing the generator.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for block in part:
            block.append(first)
            yield part
            block.pop()
        part.append([first])
        yield part
        part.pop()


def subsets(items: Sequence, max_size: Optional[int] = None) -> Iterator[tuple]:
    """Every subset of the items with at most max_size members (all of them
    by default), by size and then in itertools.combinations order."""
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from itertools.combinations(items, size)


def fresh_names(prefix: str, taken: Iterable[str], start: int = 0
                ) -> Iterator[str]:
    """The names prefix<start>, prefix<start+1>, ... that are not taken."""
    taken = set(taken)
    return (name for name in (f"{prefix}{i}" for i in itertools.count(start))
            if name not in taken)


def _labelings(wanted: list[set]) -> Iterator[dict]:
    """Injective partial maps block-index -> constant, restricted to constants
    some member of the block is assigned to (plus the unlabeled option)."""
    anchored = [i for i, w in enumerate(wanted) if w]
    if not anchored:
        yield {}
        return

    def rec(pos: int, used: frozenset, acc: dict) -> Iterator[dict]:
        if pos == len(anchored):
            yield dict(acc)
            return
        i = anchored[pos]
        for c in sorted(wanted[i]):
            if c in used:
                continue
            acc[i] = c
            yield from rec(pos + 1, used | {c}, acc)
            del acc[i]
        yield from rec(pos + 1, used, acc)

    yield from rec(0, frozenset(), {})


def _assignments(inst: MinCspInstance) -> Iterator[Assignment]:
    """Every canonical assignment: each partition of the variables, with
    constants on blocks only where assignment constraints ask for them."""
    assign_wants: dict = {}
    for c in inst.constraints:
        if c.is_assignment():
            assign_wants.setdefault(c.scope[0], set()).add(c.value)
    for blocks in set_partitions(inst.variables):
        # without assignment constraints the only labelling is the empty one;
        # building the label candidates anyway slows the oracle by about half
        labelings: Iterable[dict] = ({},)
        if assign_wants:
            labelings = _labelings([
                set().union(*(assign_wants.get(v, set()) for v in b))
                for b in blocks])
        for labels in labelings:
            yield Assignment.from_blocks(blocks, labels)


def oracle_optimum(inst: MinCspInstance, cap: Optional[int] = None
                   ) -> tuple[CostReport, Optional[Assignment]]:
    """Minimum cost over all assignments, by partition enumeration."""
    cap = cap if cap is not None else oracle_cap()
    if len(inst.variables) > cap:
        raise OracleCapExceeded(
            f"{len(inst.variables)} variables exceeds oracle cap {cap}")
    best: tuple[CostReport, Optional[Assignment]] = (CostReport(INF), None)
    for assignment in _assignments(inst):
        report = assignment_cost(inst, assignment)
        if report.cost < best[0].cost:
            best = (report, assignment)
            if report.cost == 0:
                break
    return best


def brute_force_cost(inst: MinCspInstance, cap: Optional[int] = None) -> CostReport:
    report, _ = oracle_optimum(inst, cap)
    return report


# ---------------------------------------------------------------------------
# Gadget inlining.


def pattern_costs(gadget: MinCspInstance) -> dict:
    """Primary pattern -> minimum gadget cost over the assignments that
    produce it; patterns no assignment produces are absent.

    Crisp constraints count their multiplicity like soft ones, because
    inline_gadget re-kinds every inlined constraint.
    """
    costs: dict = {}
    for assignment in _assignments(gadget):
        pattern = canonicalize([assignment[v] for v in gadget.primaries])
        best, cost = costs.get(pattern, INF), 0
        for c in gadget.constraints:
            if cost >= best:
                break
            if _constraint_violated(c, assignment):
                cost += c.multiplicity
        if cost < best:
            costs[pattern] = cost
    return costs


def defined_relation(gadget: MinCspInstance) -> EqRelation:
    """The relation a gadget pp-defines on its primary variables."""
    if not gadget.primaries:
        raise ValueError("gadget has no primary variables")
    tuples = frozenset(p for p, cost in pattern_costs(gadget).items() if cost == 0)
    return EqRelation(f"def({gadget.name})", len(gadget.primaries), tuples)


def check_pp_definition(gadget: MinCspInstance, target: EqRelation) -> bool:
    """Every satisfying primary pattern extends at cost 0, and only those."""
    costs = pattern_costs(gadget)
    return all((pattern in target.tuples) == (costs.get(pattern) == 0)
               for pattern in all_patterns(len(gadget.primaries)))


def check_implementation(gadget: MinCspInstance, target: EqRelation) -> bool:
    """A pp-definition where every violating pattern extends at cost exactly one."""
    costs = pattern_costs(gadget)
    return all(costs.get(pattern) == (0 if pattern in target.tuples else 1)
               for pattern in all_patterns(len(gadget.primaries)))


def _instantiate(gadget: MinCspInstance, scope: Sequence[str], tag: str,
                 kind: str, multiplicity: int) -> tuple[list[str], list[Constraint]]:
    rename = {p: s for p, s in zip(gadget.primaries, scope)}
    aux = []
    for v in gadget.variables:
        if v not in rename:
            rename[v] = f"{tag}.{v}"
            aux.append(rename[v])
    out = []
    for c in gadget.constraints:
        new_scope = tuple(rename[v] for v in c.scope)
        out.append(Constraint(c.relation, new_scope, kind,
                              c.multiplicity * multiplicity, c.value))
    return aux, out


def inline_gadget(inst: MinCspInstance, target: EqRelation,
                  gadget: MinCspInstance, validate: bool = True) -> MinCspInstance:
    """Replace every target constraint by a fresh copy of the gadget.

    Soft targets require a full implementation; crisp targets only need a
    pp-definition, inlined with crisp constraints.
    """
    has_soft = any(c.relation == target and c.kind == "soft"
                   for c in inst.constraints)
    if validate:
        if has_soft:
            if not check_implementation(gadget, target):
                raise ValueError("gadget is not a valid implementation of the target")
        elif not check_pp_definition(gadget, target):
            raise ValueError("gadget does not pp-define the target")
    elif has_soft and not check_pp_definition(gadget, target):
        raise ValueError("gadget does not pp-define the target")

    variables = list(inst.variables)
    constraints: list[Constraint] = []
    copy_no = 0
    for c in inst.constraints:
        if c.relation != target:
            constraints.append(c)
            continue
        copy_no += 1
        aux, inlined = _instantiate(gadget, c.scope, f"g{copy_no}", c.kind,
                                    c.multiplicity)
        variables.extend(aux)
        constraints.extend(inlined)
    return MinCspInstance.build(inst.name, constraints, variables,
                                inst.primaries, inst.notes)


def crisp_as_copies(inst: MinCspInstance, k: int) -> MinCspInstance:
    """Encode crisp constraints as soft ones of multiplicity k+1, for
    reductions that need a purely soft instance at budget k."""
    out = []
    for c in inst.constraints:
        if c.kind == "crisp":
            out.append(replace(c, kind="soft",
                               multiplicity=c.multiplicity * (k + 1)))
        else:
            out.append(c)
    return inst.with_constraints(out)


def normalize_constraint(c: Constraint) -> Optional[Constraint]:
    """Collapse repeated scope variables; None when the constraint became complete.

    The reduced relation may be empty (constraint can never hold).
    """
    if c.is_assignment():
        return c
    seen: list[str] = []
    first_pos: dict = {}
    groups: dict = {}
    for idx, v in enumerate(c.scope):
        if v not in seen:
            seen.append(v)
            first_pos[v] = idx
        groups.setdefault(v, []).append(idx)
    if len(seen) == len(c.scope):
        return c
    reduced_tuples = set()
    for t in c.relation.tuples:
        if all(len({t[i] for i in idxs}) == 1 for idxs in groups.values()):
            reduced_tuples.add(canonicalize([t[first_pos[v]] for v in seen]))
    rel = EqRelation(f"{c.relation.name}~", len(seen), frozenset(reduced_tuples))
    if rel.is_complete():
        return None
    return Constraint(rel, tuple(seen), c.kind, c.multiplicity)


def split_conjunctive(inst: MinCspInstance) -> tuple[MinCspInstance, int]:
    """Split each soft negative constraint into one constraint per CNF clause.

    Returns the rewritten instance and the largest clause count of any split
    constraint (the cost-inflation factor).
    """
    from .relations import CnfFormula, minimal_definition, relation_from_cnf

    constraints = []
    factor = 1
    for c in inst.constraints:
        if c.is_assignment() or c.kind == "crisp":
            constraints.append(c)
            continue
        phi = minimal_definition(c.relation, "negative")
        if phi is None:
            raise ValueError(f"soft relation {c.relation.name} is not negative")
        clauses = [cl for cl in phi.clauses]
        if len(clauses) <= 1:
            constraints.append(c)
            continue
        factor = max(factor, len(clauses))
        for cl in clauses:
            touched = sorted({i for lit in cl for i in lit[:2]})
            remap = {i: k + 1 for k, i in enumerate(touched)}
            sub_clause = frozenset((remap[i], remap[j], op) for (i, j, op) in cl)
            rel = relation_from_cnf(
                CnfFormula(len(touched), frozenset({sub_clause})),
                len(touched), name=f"{c.relation.name}.cl")
            scope = tuple(c.scope[i - 1] for i in touched)
            constraints.append(Constraint(rel, scope, "soft", c.multiplicity))
    return inst.with_constraints(constraints), factor
