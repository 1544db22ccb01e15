"""Equality relations over an infinite domain, in canonical partition form.

A relation is stored as a set of canonical tuples (restricted-growth strings):
the tuple pattern records only which positions are equal, which is all that
matters for relations invariant under every permutation of the domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

ARITY_CAP = 8

EQ_OP = "="
NEQ_OP = "!="

FRAGMENTS = ("horn", "negative", "strictly_negative", "conjunctive", "unrestricted")


class ArityCapExceeded(ValueError):
    pass


def canonicalize(raw: Sequence) -> tuple[int, ...]:
    """Relabel a tuple by first occurrence so equal entries get equal labels 1,2,3,..."""
    if len(raw) == 0:
        raise ValueError("empty tuple")
    seen: dict = {}
    out = []
    for x in raw:
        if x not in seen:
            seen[x] = len(seen) + 1
        out.append(seen[x])
    return tuple(out)


def is_canonical(t: Sequence[int]) -> bool:
    if not t or t[0] != 1:
        return False
    hi = 1
    for x in t:
        if x < 1 or x > hi + 1:
            return False
        hi = max(hi, x)
    return True


@lru_cache(maxsize=None)
def all_patterns(arity: int) -> tuple[tuple[int, ...], ...]:
    """All canonical tuples of the given length (Bell-number many), in
    lexicographic order: `set_partitions` placing positions 0, 1, ...,
    each block numbered by when it opened."""
    if arity < 1:
        raise ValueError("arity must be positive")
    if arity > ARITY_CAP:
        raise ArityCapExceeded(f"arity {arity} exceeds cap {ARITY_CAP}")
    out = []
    for part in set_partitions(range(arity - 1, -1, -1)):
        t = [0] * arity
        for label, block in enumerate(part, start=1):
            for pos in block:
                t[pos] = label
        out.append(tuple(t))
    return tuple(out)


def refines(a: Sequence[int], b: Sequence[int]) -> str:
    """Compare two tuples: 'refines', 'strictly_refines' or 'none'.

    a refines b when positions equal in a are also equal in b; the refinement
    is strict when some pair is equal in b but not in a.
    """
    if len(a) != len(b):
        raise ValueError("length mismatch")
    strict = False
    for i, j in itertools.combinations(range(len(a)), 2):
        if a[i] == a[j] and b[i] != b[j]:
            return "none"
        if a[i] != a[j] and b[i] == b[j]:
            strict = True
    return "strictly_refines" if strict else "refines"


def union_classes(items: Iterable, pairs: Iterable[tuple]) -> dict:
    """Union-find: map each item to the root of its class once every pair
    is merged, the first member's root going under the second's."""
    parent = {x: x for x in items}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[root(a)] = root(b)
    return {x: root(x) for x in parent}


def set_partitions(items: Sequence,
                   keep: Optional[Callable[[list[list]], bool]] = None
                   ) -> Iterator[list[list]]:
    """Every partition of the items into blocks, Bell(n) in all.

    Items are placed last-to-first, each into the open blocks in order and
    then into a new block; each block lists its items in that order.  With
    `keep`, a partial partition is extended (or yielded, once complete) only
    if keep(blocks) holds, so a test that fails on every extension of a
    failing prefix yields exactly the full walk's passing partitions, in its
    order.  The yielded lists are reused: read a partition before advancing
    the generator.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, keep):
        for block in part:
            block.append(first)
            if keep is None or keep(part):
                yield part
            block.pop()
        part.append([first])
        if keep is None or keep(part):
            yield part
        part.pop()


def subsets(items: Sequence, max_size: Optional[int] = None) -> Iterator[tuple]:
    """Every subset of the items with at most max_size members (all of them
    by default), by size and then in itertools.combinations order."""
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from itertools.combinations(items, size)


# ---------------------------------------------------------------------------
# CNF machinery.  A literal is (i, j, op) with 1-based indices i < j.


def literal(i: int, j: int, op: str) -> tuple[int, int, str]:
    if i == j:
        raise ValueError("literal needs two distinct indices")
    if op not in (EQ_OP, NEQ_OP):
        raise ValueError(f"bad literal op {op!r}")
    if i > j:
        i, j = j, i
    return (i, j, op)


def clause(*lits) -> frozenset:
    lits = frozenset(literal(*l) for l in lits)
    pairs = [(i, j) for (i, j, _) in lits]
    if len(pairs) != len(set(pairs)):
        raise ValueError("clause contains both polarities of an index pair")
    return lits


def literal_satisfied(t: Sequence[int], lit: tuple[int, int, str]) -> bool:
    i, j, op = lit
    return (t[i - 1] == t[j - 1]) == (op == EQ_OP)


def clause_satisfied(t: Sequence[int], cl: Iterable) -> bool:
    return any(literal_satisfied(t, lit) for lit in cl)


def _fragment_allows(width: int, npos: int, fragment: str) -> bool:
    """Whether a clause of this width with npos = literals lies in the fragment."""
    if fragment == "unrestricted":
        return True
    if fragment == "horn":
        return npos <= 1
    if fragment == "negative":
        return npos == 0 or (npos == 1 and width == 1)
    if fragment == "strictly_negative":
        return npos == 0
    if fragment == "conjunctive":
        return width == 1
    raise ValueError(f"unknown fragment {fragment!r}")


def clause_in_fragment(cl: frozenset, fragment: str) -> bool:
    npos = sum(1 for (_, _, op) in cl if op == EQ_OP)
    return _fragment_allows(len(cl), npos, fragment)


@dataclass(frozen=True)
class CnfFormula:
    arity: int
    clauses: frozenset

    def satisfied_by(self, t: Sequence[int]) -> bool:
        return all(clause_satisfied(t, cl) for cl in self.clauses)

    def __iter__(self):
        return iter(self.clauses)


@dataclass(frozen=True)
class EqRelation:
    name: str = field(compare=False)
    arity: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} has wrong length for arity {self.arity}")
            if not is_canonical(t):
                raise ValueError(f"tuple {t} is not in canonical form")

    @staticmethod
    def from_tuples(name: str, arity: int, raw: Iterable[Sequence]) -> "EqRelation":
        return EqRelation(name, arity, frozenset(canonicalize(t) for t in raw))

    def is_empty(self) -> bool:
        return not self.tuples

    def is_complete(self) -> bool:
        return len(self.tuples) == len(all_patterns(self.arity))

    def is_proper(self) -> bool:
        return not self.is_empty() and not self.is_complete()

    def is_constant(self) -> bool:
        return (1,) * self.arity in self.tuples

    def renamed(self, name: str) -> "EqRelation":
        return EqRelation(name, self.arity, self.tuples)

    def __repr__(self):
        ts = ",".join("".join(map(str, t)) for t in sorted(self.tuples))
        return f"EqRelation({self.name!r}, {self.arity}, {{{ts}}})"


def relation_from_cnf(phi: CnfFormula, arity: int, name: str = "cnf") -> EqRelation:
    if arity > ARITY_CAP:
        raise ArityCapExceeded(f"arity {arity} exceeds cap {ARITY_CAP}")
    for x in sorted({x for cl in phi.clauses for lit in cl for x in lit[:2]}):
        if not 1 <= x <= arity:
            raise ValueError(f"literal index {x} outside arity {arity}")
    tuples = frozenset(t for t in all_patterns(arity) if phi.satisfied_by(t))
    return EqRelation(name, arity, tuples)


def project(rel: EqRelation, indices: Sequence[int]) -> EqRelation:
    """Project onto 1-based indices, canonicalizing each projected tuple."""
    for i in indices:
        if not 1 <= i <= rel.arity:
            raise ValueError(f"index {i} outside arity {rel.arity}")
    tuples = frozenset(canonicalize([t[i - 1] for i in indices]) for t in rel.tuples)
    return EqRelation(f"{rel.name}|{indices}", len(indices), tuples)


@lru_cache(maxsize=None)
def _pattern_bits(arity: int) -> dict:
    return {t: 1 << i for i, t in enumerate(all_patterns(arity))}


def relation_mask(rel: EqRelation) -> int:
    bits = _pattern_bits(rel.arity)
    m = 0
    for t in rel.tuples:
        m |= bits[t]
    return m


@lru_cache(maxsize=None)
def _literal_masks(arity: int) -> dict:
    """Model set of each of the 2*C(arity, 2) literals as a bitmask over
    all_patterns(arity); a clause's model set is the OR of its literals'."""
    full = (1 << len(all_patterns(arity))) - 1
    out = {}
    for i, j in itertools.combinations(range(1, arity + 1), 2):
        eq = 0
        for t, b in _pattern_bits(arity).items():
            if t[i - 1] == t[j - 1]:
                eq |= b
        out[(i, j, EQ_OP)] = eq
        out[(i, j, NEQ_OP)] = full ^ eq
    return out


def _clause_mask(cl: Iterable, lit_masks: dict) -> int:
    mask = 0
    for lit in cl:
        mask |= lit_masks[lit]
    return mask


@lru_cache(maxsize=None)
def _falsified_literals(arity: int) -> tuple:
    """Per pattern, in all_patterns order, the literals it falsifies as masks:
    (the != literals of its equal pairs, their OR, the = literals of its
    unequal pairs)."""
    lit_masks = _literal_masks(arity)
    pairs = list(itertools.combinations(range(1, arity + 1), 2))
    out = []
    for t in all_patterns(arity):
        neq = [(i, j, NEQ_OP) for i, j in pairs if t[i - 1] == t[j - 1]]
        eq = [(i, j, EQ_OP) for i, j in pairs if t[i - 1] != t[j - 1]]
        out.append((tuple(lit_masks[lit] for lit in neq),
                    _clause_mask(neq, lit_masks),
                    tuple(lit_masks[lit] for lit in eq)))
    return tuple(out)


def _witnessed(fragment: str, rmask: int, neq: tuple, n: int, eq: tuple) -> bool:
    """Whether the relation with model mask rmask entails a fragment clause
    whose literals are all false at a pattern that falsifies exactly the
    != literals neq (OR n) and the = literals eq.  Fragments are closed
    under subclauses, so only the maximal such clauses need testing."""

    def entailed(mask):
        return mask & rmask == rmask

    if fragment == "horn":
        if eq:
            return any(entailed(n | e) for e in eq)
        return bool(neq) and entailed(n)
    if fragment == "negative":
        return (bool(neq) and entailed(n)) or any(entailed(e) for e in eq)
    if fragment == "strictly_negative":
        return bool(neq) and entailed(n)
    if fragment == "conjunctive":
        return any(entailed(m) for m in neq) or any(entailed(e) for e in eq)
    # unrestricted: the clause of all the pattern's false literals excludes
    # that pattern alone, so it is entailed whenever it is not empty
    return bool(neq or eq)


def _definable(rel: EqRelation, fragment: str) -> bool:
    """Whether rel is definable in the fragment: every pattern outside rel
    falsifies some fragment clause that rel entails."""
    if fragment not in FRAGMENTS:
        raise ValueError(f"unknown fragment {fragment!r}")
    rmask = relation_mask(rel)
    for b, (neq, n, eq) in enumerate(_falsified_literals(rel.arity)):
        if not rmask >> b & 1 and not _witnessed(fragment, rmask, neq, n, eq):
            return False
    return True


def entailed_clauses(rel: EqRelation, fragment: str) -> set:
    """All inclusion-minimal clauses of the fragment satisfied by every tuple of rel."""
    if fragment not in FRAGMENTS:
        raise ValueError(f"unknown fragment {fragment!r}")
    rmask = relation_mask(rel)
    lit_masks = _literal_masks(rel.arity)
    pairs = list(itertools.combinations(range(1, rel.arity + 1), 2))
    found = []

    def entailed(mask):
        return mask & rmask == rmask

    def grow(lits, mask, npos, start):
        # lits is empty or a fragment clause rel does not entail.  Fragments
        # are closed under subclauses, and every extension of an entailed
        # clause is non-minimal, so only such clauses are extended.
        for k in range(start, len(pairs)):
            for op in (EQ_OP, NEQ_OP):
                pos = npos + (op == EQ_OP)
                if not _fragment_allows(len(lits) + 1, pos, fragment):
                    continue
                ext = lits + [(*pairs[k], op)]
                ext_mask = mask | lit_masks[ext[-1]]
                if not entailed(ext_mask):
                    grow(ext, ext_mask, pos, k + 1)
                elif not any(entailed(_clause_mask(ext[:m] + ext[m + 1:], lit_masks))
                             for m in range(len(lits))):
                    found.append(ext)

    grow([], 0, 0, 0)
    # insert by width, then in combinations x product order (= before !=),
    # the order of a scan over every clause
    found.sort(key=lambda lits: (len(lits), [(i, j) for i, j, _ in lits],
                                 [op == NEQ_OP for _, _, op in lits]))
    return {frozenset(lits) for lits in found}


def is_tautological_clause(cl: frozenset, arity: int) -> bool:
    return all(clause_satisfied(t, cl) for t in all_patterns(arity))


def definable_in_fragment(rel: EqRelation, fragment: str) -> Optional[CnfFormula]:
    """Defining CNF in the fragment, or None.

    The conjunction of all entailed fragment clauses is the strongest fragment
    formula implied by the relation, so when the relation is definable at all
    that conjunction defines it.
    """
    if not _definable(rel, fragment):
        return None
    return CnfFormula(rel.arity, frozenset(entailed_clauses(rel, fragment)))


def minimal_definition(rel: EqRelation, fragment: str) -> Optional[CnfFormula]:
    """A fragment definition with redundant clauses greedily removed."""
    phi = definable_in_fragment(rel, fragment)
    if phi is None:
        return None
    lit_masks = _literal_masks(rel.arity)
    rmask = relation_mask(rel)
    full = (1 << len(all_patterns(rel.arity))) - 1
    kept = sorted(phi.clauses, key=lambda cl: (-len(cl), sorted(cl)))
    for cl in list(kept):
        trial = [c for c in kept if c != cl]
        conj = full
        for c in trial:
            conj &= _clause_mask(c, lit_masks)
        if conj == rmask:
            kept = trial
    return CnfFormula(rel.arity, frozenset(kept))


def is_horn(rel: EqRelation) -> bool:
    return _definable(rel, "horn")


def is_negative(rel: EqRelation) -> bool:
    return _definable(rel, "negative")


def is_strictly_negative(rel: EqRelation) -> bool:
    return _definable(rel, "strictly_negative")


def is_conjunctive(rel: EqRelation) -> bool:
    return _definable(rel, "conjunctive")


def split_tuples(arity: int, p_set: frozenset, q_set: frozenset) -> frozenset:
    """Model set of the split formula for bipartition (P, Q) of [arity]."""
    out = []
    for t in all_patterns(arity):
        pvals = {t[i - 1] for i in p_set}
        if len(pvals) > 1:
            continue
        if pvals and any(t[j - 1] in pvals for j in q_set):
            continue
        out.append(t)
    return frozenset(out)


def split_witness(rel: EqRelation) -> Optional[tuple[frozenset, frozenset]]:
    """A bipartition (P, Q) whose split relation equals rel, searching all 2^r."""
    idx = list(range(1, rel.arity + 1))
    for psize in range(rel.arity, -1, -1):
        for p in itertools.combinations(idx, psize):
            p_set = frozenset(p)
            q_set = frozenset(idx) - p_set
            if split_tuples(rel.arity, p_set, q_set) == rel.tuples:
                return (p_set, q_set)
    return None


def is_split(rel: EqRelation) -> bool:
    return split_witness(rel) is not None


def is_neq3(rel: EqRelation) -> bool:
    return rel.arity == 3 and rel.tuples == frozenset({(1, 2, 3)})


# ---------------------------------------------------------------------------
# Redundant arguments.


def _lift(tuples: frozenset, proj_arity: int, pos: int) -> frozenset:
    """Insert a free coordinate at 1-based position pos into every tuple."""
    out = set()
    for t in tuples:
        blocks = max(t) if t else 0
        for v in range(1, blocks + 2):
            lifted = t[: pos - 1] + (v,) + t[pos - 1:]
            out.add(canonicalize(lifted))
    return frozenset(out)


def redundant_indices(rel: EqRelation) -> frozenset:
    """Indices whose removal (then free re-insertion) leaves the relation unchanged."""
    out = set()
    for i in range(1, rel.arity + 1):
        if rel.arity == 1:
            break
        others = [j for j in range(1, rel.arity + 1) if j != i]
        proj = project(rel, others)
        if _lift(proj.tuples, rel.arity - 1, i) == rel.tuples:
            out.add(i)
    return frozenset(out)


def essential_projection(rel: EqRelation) -> tuple[EqRelation, tuple[int, ...]]:
    """Drop redundant indices one at a time; returns (projection, kept indices)."""
    kept = list(range(1, rel.arity + 1))
    cur = rel
    while cur.arity > 1:
        red = redundant_indices(cur)
        if not red:
            break
        drop = min(red)
        keep = [j for j in range(1, cur.arity + 1) if j != drop]
        kept = [kept[j - 1] for j in keep]
        cur = project(cur, keep)
    return cur.renamed(rel.name), tuple(kept)


# ---------------------------------------------------------------------------
# Languages and a few named relations.


@dataclass(frozen=True)
class EqLanguage:
    relations: tuple[EqRelation, ...]

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(names) != len(set(names)):
            raise ValueError("duplicate relation names in language")

    @staticmethod
    def of(*rels: EqRelation) -> "EqLanguage":
        return EqLanguage(tuple(rels))

    def __iter__(self):
        return iter(self.relations)

    def __len__(self):
        return len(self.relations)

    def get(self, name: str) -> EqRelation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self) -> list[str]:
        return [r.name for r in self.relations]

    def with_eq_neq(self) -> "EqLanguage":
        rels = list(self.relations)
        if not any(r.tuples == EQ.tuples and r.arity == 2 for r in rels):
            rels.append(EQ)
        if not any(r.tuples == NEQ.tuples and r.arity == 2 for r in rels):
            rels.append(NEQ)
        return EqLanguage(tuple(rels))


EQ = EqRelation("=", 2, frozenset({(1, 1)}))
NEQ = EqRelation("!=", 2, frozenset({(1, 2)}))
EQ3 = EqRelation("eq3", 3, frozenset({(1, 1, 1)}))
NEQ3 = EqRelation("neq3", 3, frozenset({(1, 2, 3)}))
ODD3 = EqRelation("odd3", 3, frozenset({(1, 1, 1), (1, 2, 3)}))
NAE3 = EqRelation("nae3", 3, frozenset({(1, 1, 2), (1, 2, 1), (1, 2, 2), (1, 2, 3)}))
R_VEE_NEQ_NEQ = EqRelation(
    "vee_neq_neq", 4, frozenset({(1, 2, 3, 3), (1, 1, 2, 3), (1, 2, 3, 4)})
)
R_AND_EQ_EQ = EqRelation("and_eq_eq", 4, frozenset({(1, 1, 1, 1), (1, 1, 2, 2)}))
R_AND_EQ_NEQ = EqRelation(
    "and_eq_neq", 4, frozenset({(1, 1, 1, 2), (1, 1, 2, 1), (1, 1, 2, 3)})
)
R_AND_NEQ_NEQ = EqRelation(
    "and_neq_neq",
    4,
    frozenset(t for t in all_patterns(4) if t[0] != t[1] and t[2] != t[3]),
)


def rneq_relation(d: int) -> EqRelation:
    """The 2d-ary relation: some block pair (x_i, y_i) differs."""
    tuples = frozenset(
        t
        for t in all_patterns(2 * d)
        if any(t[2 * i] != t[2 * i + 1] for i in range(d))
    )
    return EqRelation(f"rneq{d}", 2 * d, tuples)
