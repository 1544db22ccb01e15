"""Text formats for relations, instances, and cut graphs.

All three are line-oriented and diffable; parse errors carry line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .cutgraph import CutGraph, RequestList, TripleSet, _derived
from .instances import Constraint, MinCspInstance
from .relations import (
    ARITY_CAP,
    EQ,
    EQ_OP,
    NEQ,
    NEQ_OP,
    CnfFormula,
    EqLanguage,
    EqRelation,
    clause,
    relation_from_cnf,
)


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _split_multiplicity(words: list[str], lineno: int) -> tuple[list[str], int]:
    """The words before an optional trailing `*m`, and the multiplicity m
    (1 when absent), which must be a positive integer."""
    if words and words[-1].startswith("*"):
        try:
            m = int(words[-1][1:])
        except ValueError:
            raise ParseError(lineno, f"bad multiplicity {words[-1]!r}")
        if m < 1:
            raise ParseError(lineno, "multiplicity must be positive")
        return words[:-1], m
    return words, 1


_LITERAL = re.compile(r"^x(\d+)\s*(!?=)\s*x(\d+)$")
_ASSIGN = re.compile(r"^(crisp|soft)-assign\s+(\S+)\s*=\s*(\d+)(?:\s*\*(\d+))?$")


def _parse_clause(text: str, lineno: int):
    lits = []
    for part in text.split("|"):
        part = part.strip()
        m = _LITERAL.match(part)
        if not m:
            raise ParseError(lineno, f"bad literal {part!r}")
        i, op, j = int(m.group(1)), m.group(2), int(m.group(3))
        lits.append((i, j, EQ_OP if op == "=" else NEQ_OP))
    try:
        return clause(*lits)
    except ValueError as e:
        raise ParseError(lineno, str(e))


def parse_relations(text: str) -> EqLanguage:
    relations = []
    name: Optional[str] = None
    arity = 0
    tuples: list = []
    clauses: list = []

    def flush(lineno):
        nonlocal name, arity, tuples, clauses
        if name is None:
            return
        if tuples and clauses:
            raise ParseError(lineno, f"stanza {name!r} mixes tuples and cnf")
        if clauses:
            rel = relation_from_cnf(
                CnfFormula(arity, frozenset(clauses)), arity, name)
        else:
            rel = EqRelation.from_tuples(name, arity, tuples)
        relations.append(rel)
        name, tuples, clauses = None, [], []

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush(lineno)
            continue
        words = line.split()
        if words[0] == "relation":
            flush(lineno)
            if len(words) != 3:
                raise ParseError(lineno, "expected: relation NAME ARITY")
            name = words[1]
            try:
                arity = int(words[2])
            except ValueError:
                raise ParseError(lineno, f"bad arity {words[2]!r}")
            if arity < 1:
                raise ParseError(lineno, "arity must be positive")
            if arity > ARITY_CAP:
                raise ParseError(lineno, f"arity {arity} exceeds cap {ARITY_CAP}")
            if any(rel.name == name for rel in relations):
                raise ParseError(lineno, f"duplicate relation name {name!r}")
        elif words[0] == "tuple":
            if name is None:
                raise ParseError(lineno, "tuple outside a relation stanza")
            try:
                vals = [int(w) for w in words[1:]]
            except ValueError:
                raise ParseError(lineno, "tuple entries must be integers")
            if len(vals) != arity:
                raise ParseError(lineno,
                                 f"tuple has {len(vals)} entries, arity is {arity}")
            tuples.append(tuple(vals))
        elif words[0] == "cnf":
            if name is None:
                raise ParseError(lineno, "cnf outside a relation stanza")
            cl = _parse_clause(line[len("cnf"):].strip(), lineno)
            for x in sorted(x for lit in cl for x in lit[:2]):
                if not 1 <= x <= arity:
                    raise ParseError(lineno, f"index x{x} outside arity {arity}")
            clauses.append(cl)
        else:
            raise ParseError(lineno, f"unknown directive {words[0]!r}")
    flush(len(lines) + 1)
    return EqLanguage(tuple(relations))


def print_relations(lang: EqLanguage) -> str:
    out = []
    for rel in lang:
        out.append(f"relation {rel.name} {rel.arity}")
        for t in sorted(rel.tuples):
            out.append("tuple " + " ".join(map(str, t)))
        out.append("")
    return "\n".join(out)


def parse_instance(text: str, language: Optional[EqLanguage] = None
                   ) -> MinCspInstance:
    name = "instance"
    variables: list[str] = []
    constraints: list[Constraint] = []

    def lookup(relname: str, lineno: int) -> EqRelation:
        if relname == "=":
            return EQ
        if relname in ("!=", "neq"):
            return NEQ
        if language is not None:
            try:
                return language.get(relname)
            except KeyError:
                pass
        raise ParseError(lineno, f"unknown relation name {relname!r}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "instance":
            name = words[1] if len(words) > 1 else name
        elif head == "var":
            if len(words) != 2:
                raise ParseError(lineno, "expected: var NAME")
            variables.append(words[1])
        elif head in ("crisp-assign", "soft-assign"):
            m = _ASSIGN.match(line)
            if not m:
                raise ParseError(lineno, "expected: soft-assign x = INT [*m]")
            kind, var, val, mult = m.group(1), m.group(2), int(m.group(3)), m.group(4)
            if mult and int(mult) < 1:
                raise ParseError(lineno, "multiplicity must be positive")
            constraints.append(Constraint(None, (var,), kind,
                                          int(mult) if mult else 1, val))
        elif head in ("crisp", "soft"):
            scope_words, mult = _split_multiplicity(words[2:], lineno)
            if len(words) < 3:
                raise ParseError(lineno, "expected: crisp|soft REL vars...")
            rel = lookup(words[1], lineno)
            if len(scope_words) != rel.arity:
                raise ParseError(
                    lineno,
                    f"relation {rel.name!r} has arity {rel.arity}, "
                    f"got {len(scope_words)} variables")
            constraints.append(Constraint(rel, tuple(scope_words), head, mult))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    try:
        return MinCspInstance.build(name, constraints, variables)
    except ValueError as e:
        raise ParseError(0, str(e))


def print_instance(inst: MinCspInstance) -> str:
    out = [f"instance {inst.name}"]
    for v in inst.variables:
        out.append(f"var {v}")
    out.extend(c.describe() for c in inst.constraints)
    return "\n".join(out) + "\n"


@dataclass
class GraphBundle:
    graph: CutGraph
    lists: list
    triples: TripleSet
    name: str = "graph"


_PAIR = re.compile(r"\(([^,()]+),([^,()]+)\)")


def parse_graph(text: str) -> GraphBundle:
    """The bundle in a graph file, read in one pass over its lines.  The
    vertices are those of the vertex lines in file order, then the other
    names used by edges, triples and lists, sorted."""
    name = "graph"
    declared: dict = {}  # the vertex lines' names, in file order
    undeletable: set = set()
    edges: dict = {}  # frozenset({u, v}) -> multiplicity
    triples: dict = {}  # frozenset({u, v, w}) -> multiplicity
    lists: list = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        words = raw.split()
        if not words:
            continue
        head = words[0]
        if head == "edge":
            rest, mult = _split_multiplicity(words[1:], lineno)
            if len(rest) != 2:
                raise ParseError(lineno, "expected: edge U V [*m]")
            if rest[0] == rest[1]:
                raise ParseError(lineno, "self-loop")
            key = frozenset(rest)
            edges[key] = edges.get(key, 0) + mult
        elif head == "vertex":
            if len(words) not in (2, 3):
                raise ParseError(lineno, "expected: vertex NAME [undeletable]")
            declared[words[1]] = None
            if len(words) == 3:
                if words[2] != "undeletable":
                    raise ParseError(lineno, f"unknown modifier {words[2]!r}")
                undeletable.add(words[1])
        elif head == "graph":
            name = words[1] if len(words) > 1 else name
        elif head == "triple":
            rest, mult = _split_multiplicity(words[1:], lineno)
            if len(rest) != 3 or len(set(rest)) != 3:
                raise ParseError(lineno, "expected: triple U V W (distinct)")
            key = frozenset(rest)
            triples[key] = triples.get(key, 0) + mult
        elif head == "list":
            body = raw.strip()[len("list"):].strip()
            found = _PAIR.findall(body)
            if not found or _PAIR.sub("", body).strip() != "":
                raise ParseError(lineno, "expected: list (s,t) (s,t) ...")
            lists.append(RequestList.of(*((a.strip(), b.strip())
                                          for a, b in found)))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    named = set().union(*edges, *triples, *(lst.vertices() for lst in lists))
    vertices = (*declared, *sorted(named.difference(declared)))
    g = _derived(vertices, frozenset(undeletable), edges)
    return GraphBundle(g, lists, TripleSet(tuple(triples.items())), name)


def print_graph(bundle: GraphBundle) -> str:
    g = bundle.graph
    out = [f"graph {bundle.name}"]
    for v in g.vertices:
        tag = " undeletable" if v in g.undeletable else ""
        out.append(f"vertex {v}{tag}")
    for e in sorted(g.edges, key=sorted):
        u, v = sorted(e)
        m = g.edges[e]
        out.append(f"edge {u} {v}" + (f" *{m}" if m > 1 else ""))
    for tri, m in bundle.triples:
        u, v, w = sorted(tri)
        out.append(f"triple {u} {v} {w}" + (f" *{m}" if m > 1 else ""))
    for lst in bundle.lists:
        parts = []
        for p in sorted(lst.pairs, key=sorted):
            if len(p) == 1:
                (s,) = p
                parts.append(f"({s},{s})")
            else:
                s, t = sorted(p)
                parts.append(f"({s},{t})")
        out.append("list " + " ".join(parts))
    return "\n".join(out) + "\n"
