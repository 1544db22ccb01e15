"""Classification of singleton expansions: equality languages enriched with
assignment constraints for finitely many or all constants."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .classify import (
    APPROX_HS,
    APPROX_POLY,
    APPROX_TRIVIAL,
    CSP_NP_HARD,
    CSP_P,
    PARAM_FPT,
    PARAM_HS,
    PARAM_W1,
    ImproperRelationError,
    Verdict,
    classify_language,
)
from .relations import (
    EqLanguage,
    EqRelation,
    all_patterns,
    canonicalize,
    is_horn,
    is_strictly_negative,
    subsets,
    union_classes,
)

INFINITE = "inf"

APPROX_NCW = "NearestCodeword-hard"


@dataclass(frozen=True)
class SingletonExpansion:
    base: EqLanguage
    constants: Union[int, str]  # a positive count, or "inf"

    def __post_init__(self):
        if self.constants != INFINITE and (
                not isinstance(self.constants, int) or self.constants < 1):
            raise ValueError("constants must be a positive integer or 'inf'")


@dataclass(frozen=True)
class SliceRelation:
    name: str
    arity: int
    tuples: frozenset  # explicit tuples over [c]

    def is_trivial(self, c: int) -> bool:
        return not self.tuples or len(self.tuples) == c ** self.arity


@dataclass(frozen=True)
class SliceLanguage:
    c: int
    relations: tuple[SliceRelation, ...]

    def __iter__(self):
        return iter(self.relations)


def c_slice(lang: EqLanguage, c: int) -> SliceLanguage:
    """Materialize each relation's tuples over the finite domain [c]."""
    if c < 1:
        raise ValueError("c must be at least 1")
    rels = []
    for rel in lang:
        tuples = frozenset(
            t for t in itertools.product(range(1, c + 1), repeat=rel.arity)
            if canonicalize(t) in rel.tuples
        )
        rels.append(SliceRelation(rel.name, rel.arity, tuples))
    return SliceLanguage(c, tuple(rels))


def preserved_by_collapse(rel: EqRelation, c: int) -> bool:
    """Whether the canonical retraction onto c values preserves the relation:
    for every tuple, keeping any at most c-1 of its values and merging the
    rest into one fresh class stays inside the relation."""
    if c < 1:
        raise ValueError("c must be at least 1")
    for t in rel.tuples:
        values = sorted(set(t))
        for keep in subsets(values, c - 1):
            keep_set = set(keep)
            merged = tuple(x if x in keep_set else 0 for x in t)
            if canonicalize(merged) not in rel.tuples:
                return False
    return True


def retraction_oracle(rel: EqRelation, c: int) -> bool:
    """Brute-force 'exists a retraction onto [c] preserving the relation':
    enumerate cell-capacity shapes and all value-to-cell placements.

    A retraction partitions the infinite domain into c cells, so at least
    one cell is infinite (capacity m covers any tuple's values)."""
    m = max((max(t) for t in rel.tuples), default=1)
    shapes = [caps for caps in
              itertools.combinations_with_replacement(range(1, m + 1), c)
              if max(caps) == m]
    for caps in shapes:
        ok = True
        for t in rel.tuples:
            values = sorted(set(t))
            for placement in itertools.product(range(c), repeat=len(values)):
                counts = [0] * c
                for cell in placement:
                    counts[cell] += 1
                if any(counts[i] > caps[i] for i in range(c)):
                    continue
                cell_of = dict(zip(values, placement))
                merged = tuple(cell_of[x] for x in t)
                if canonicalize(merged) not in rel.tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


@dataclass(frozen=True)
class SliceFlags:
    trivial: bool
    positive_conjunctive: bool
    connected: bool
    affine: Optional[bool]        # only meaningful for c = 2


def _entailed_equality_pairs(rel) -> set:
    pairs = set()
    if not rel.tuples:
        return pairs
    for i, j in itertools.combinations(range(rel.arity), 2):
        if all(t[i] == t[j] for t in rel.tuples):
            pairs.add((i, j))
    return pairs


def _equality_conjunction(rel, candidates) -> bool:
    """The relation is nonempty and holds exactly the candidate tuples that
    satisfy its entailed equality literals."""
    if not rel.tuples:
        return False
    pairs = _entailed_equality_pairs(rel)
    return rel.tuples == frozenset(
        t for t in candidates if all(t[i] == t[j] for i, j in pairs))


def _positive_conjunctive(rel: SliceRelation, c: int) -> bool:
    return _equality_conjunction(
        rel, itertools.product(range(1, c + 1), repeat=rel.arity))


def _posconj_equality(rel: EqRelation) -> bool:
    return _equality_conjunction(rel, all_patterns(rel.arity))


def _connected(rel) -> bool:
    pairs = _entailed_equality_pairs(rel)
    touched = sorted({i for p in pairs for i in p})
    if not touched:
        return True
    return len(set(union_classes(touched, pairs).values())) == 1


def _affine(rel: SliceRelation) -> bool:
    """Closure under coordinatewise XOR of three tuples (domain renamed 0/1)."""
    tuples = {tuple(x - 1 for x in t) for t in rel.tuples}
    for a, b, cc in itertools.product(tuples, repeat=3):
        out = tuple(x ^ y ^ z for x, y, z in zip(a, b, cc))
        if out not in tuples:
            return False
    return True


def slice_properties(d: SliceLanguage) -> SliceFlags:
    c = d.c
    trivial = all(r.is_trivial(c) for r in d)
    posconj = all(_positive_conjunctive(r, c) for r in d)
    connected = posconj and all(_connected(r) for r in d)
    affine = None
    if c == 2:
        affine = all(_affine(r) for r in d if r.tuples) and \
            all(bool(r.tuples) for r in d)
    return SliceFlags(trivial, posconj, connected, affine)


@dataclass(frozen=True)
class ExpansionVerdict:
    case: str
    csp: str
    mincsp: str
    parameterized: Optional[str] = None
    approx: Optional[str] = None
    base_verdict: Optional[Verdict] = None
    notes: tuple = ()

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "csp": self.csp,
            "mincsp": self.mincsp,
            "parameterized": self.parameterized,
            "approx": self.approx,
            "base": self.base_verdict.as_dict() if self.base_verdict else None,
            "notes": list(self.notes),
        }


class ClassificationGap(AssertionError):
    pass


def classify_expansion(exp: SingletonExpansion) -> ExpansionVerdict:
    """Full verdict tree for a language with assignment constraints added."""
    lang = exp.base
    c = exp.constants
    for rel in lang:
        if not rel.is_proper():
            raise ImproperRelationError(f"relation {rel.name!r} is not proper")

    if len(lang) == 0:
        return ExpansionVerdict("P", CSP_P, "P", PARAM_FPT, APPROX_TRIVIAL,
                                notes=("empty base language",))

    if not all(r.is_constant() for r in lang):
        if not all(is_horn(r) for r in lang):
            return ExpansionVerdict("csp-NP-hard", CSP_NP_HARD, CSP_NP_HARD)
        if all(is_strictly_negative(r) for r in lang):
            return ExpansionVerdict("strictly-negative-FPT", CSP_P,
                                    CSP_NP_HARD, PARAM_FPT, APPROX_POLY)
        base = classify_language(lang)
        return ExpansionVerdict(
            "equivalent-to-base", base.csp, base.mincsp_classical,
            base.parameterized, base.approx, base_verdict=base,
            notes=("expansion emulated by anchor variables",))

    # constant language: the all-equal tuple falsifies every clause of
    # disequalities, so no relation here is strictly negative
    if c == 1:
        return ExpansionVerdict("trivial", CSP_P, "P", PARAM_FPT,
                                APPROX_TRIVIAL,
                                notes=("one constant: all-equal assignment",))

    if c == INFINITE:
        # Every pattern of a relation occurs over more constants than its
        # arity, so the slice there is the proper relation itself: never
        # trivial, positive conjunctive exactly when _posconj_equality holds,
        # and connected exactly when the relation is.
        if all(_posconj_equality(r) for r in lang):
            return _positive_conjunctive_verdict(
                "all constants", False, all(_connected(r) for r in lang))
        return _hard_verdict(lang)

    if not all(preserved_by_collapse(r, c) for r in lang):
        return _hard_verdict(lang)

    slc = c_slice(lang, c)
    flags = slice_properties(slc)

    if c == 2:
        if flags.trivial:
            return ExpansionVerdict("boolean-equivalent", CSP_P, "P",
                                    PARAM_FPT, APPROX_TRIVIAL,
                                    notes=("trivial Boolean slice",))
        if flags.positive_conjunctive and flags.connected:
            return ExpansionVerdict("boolean-equivalent", CSP_P, "P",
                                    PARAM_FPT, APPROX_TRIVIAL,
                                    notes=("st-min-cut slice",))
        if flags.positive_conjunctive:
            return ExpansionVerdict("boolean-equivalent", CSP_P, CSP_NP_HARD,
                                    PARAM_W1, APPROX_POLY,
                                    notes=("disconnected positive conjunctive slice",))
        if flags.affine:
            return ExpansionVerdict("boolean-equivalent", CSP_P, CSP_NP_HARD,
                                    PARAM_HS, APPROX_NCW,
                                    notes=("affine non-conjunctive slice",))
        return ExpansionVerdict("boolean-equivalent", CSP_NP_HARD, CSP_NP_HARD,
                                notes=("Boolean slice beyond affine",))

    # c >= 3 with a retraction: positive conjunctive per the classification;
    # the stated implication fails exactly for languages like (x=y or x=z),
    # which are never Horn and whose expansion CSP is NP-hard
    if not flags.positive_conjunctive:
        if not all(is_horn(r) for r in lang):
            return ExpansionVerdict(
                "csp-NP-hard", CSP_NP_HARD, CSP_NP_HARD,
                notes=("retraction without positive conjunctive slice: "
                       "no essential polymorphism",))
        raise ClassificationGap(
            "Horn language with a retraction but a non-positive-conjunctive "
            "slice; flagging for investigation rather than guessing")
    return _positive_conjunctive_verdict(f"c={c}", flags.trivial,
                                         flags.connected)


def _hard_verdict(lang: EqLanguage) -> ExpansionVerdict:
    if all(is_horn(r) for r in lang):
        return ExpansionVerdict("HS-hard-Horn", CSP_P, CSP_NP_HARD,
                                PARAM_HS, APPROX_HS)
    return ExpansionVerdict("csp-NP-hard", CSP_NP_HARD, CSP_NP_HARD)


def _positive_conjunctive_verdict(where: str, trivial: bool,
                                  connected: bool) -> ExpansionVerdict:
    if trivial:
        return ExpansionVerdict("positive-conjunctive-family", CSP_P, "P",
                                PARAM_FPT, APPROX_TRIVIAL,
                                notes=(f"trivial slice ({where})",))
    if connected:
        return ExpansionVerdict("positive-conjunctive-family", CSP_P,
                                CSP_NP_HARD, PARAM_FPT, APPROX_POLY,
                                notes=(f"connected: multiway cut ({where})",))
    return ExpansionVerdict("positive-conjunctive-family", CSP_P, CSP_NP_HARD,
                            PARAM_W1, APPROX_POLY,
                            notes=(f"disconnected conjunction ({where})",))
