"""Classification of singleton expansions: equality languages enriched with
assignment constraints for finitely many or all constants."""

from __future__ import annotations

import itertools
import math
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
    Verdict,
    classify_language,
    require_proper,
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


def _entailed_equality_pairs(arity: int, tuples) -> set:
    """The index pairs equal in every tuple."""
    return {(i, j) for i, j in itertools.combinations(range(arity), 2)
            if all(t[i] == t[j] for t in tuples)}


def _connected(pairs) -> bool:
    touched = sorted({i for p in pairs for i in p})
    if not touched:
        return True
    return len(set(union_classes(touched, pairs).values())) == 1


def _affine(tuples) -> bool:
    """Closure under coordinatewise XOR of three 0/1 tuples."""
    for a, b, cc in itertools.product(tuples, repeat=3):
        out = tuple(x ^ y ^ z for x, y, z in zip(a, b, cc))
        if out not in tuples:
            return False
    return True


def slice_properties(lang: EqLanguage, c: Union[int, str]) -> SliceFlags:
    """Flags of the language's slice over c constants (a count, or "inf"),
    read off each relation's canonical patterns with at most c blocks.

    Those patterns are the canonical forms of the slice's tuples, and every
    labelling of one by distinct constants is a slice tuple.  Being empty or
    full and the entailed equality pairs, and so being positive conjunctive
    (the tuples are exactly those satisfying the entailed equalities) and
    connected, are unchanged by relabelling: each holds of the slice exactly
    when it holds of those patterns.  At c = 2 the slice over {0, 1} is each
    pattern labelled from 0 and its complement.  It is closed under XOR of
    three tuples exactly when its tuples that start with 0, the patterns
    labelled from 0, are: complementing any of the three tuples at most
    complements their XOR.
    """
    if c != INFINITE and c < 1:
        raise ValueError("c must be at least 1")
    top = math.inf if c == INFINITE else c
    trivial = posconj = connected = True
    affine = True if c == 2 else None
    for rel in lang:
        domain = [p for p in all_patterns(rel.arity) if max(p) <= top]
        pats = [p for p in domain if p in rel.tuples]
        pairs = _entailed_equality_pairs(rel.arity, pats)
        trivial = trivial and len(pats) in (0, len(domain))
        posconj = posconj and bool(pats) and all(
            p in rel.tuples for p in domain
            if all(p[i] == p[j] for i, j in pairs))
        connected = connected and _connected(pairs)
        if c == 2:
            affine = affine and bool(pats) and _affine(
                {tuple(x - 1 for x in p) for p in pats})
    return SliceFlags(trivial, posconj, posconj and connected, affine)


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
    require_proper(lang)

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

    # with all constants the verdict turns on the slice alone
    if c != INFINITE and not all(preserved_by_collapse(r, c) for r in lang):
        return _hard_verdict(lang)

    flags = slice_properties(lang, c)

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
    # which are never Horn and whose expansion CSP is NP-hard.  With all
    # constants a slice that is not positive conjunctive is simply hard.
    if not flags.positive_conjunctive:
        if c == INFINITE:
            return _hard_verdict(lang)
        if not all(is_horn(r) for r in lang):
            return ExpansionVerdict(
                "csp-NP-hard", CSP_NP_HARD, CSP_NP_HARD,
                notes=("retraction without positive conjunctive slice: "
                       "no essential polymorphism",))
        raise ClassificationGap(
            "Horn language with a retraction but a non-positive-conjunctive "
            "slice; flagging for investigation rather than guessing")
    where = "all constants" if c == INFINITE else f"c={c}"
    return _positive_conjunctive_verdict(where, flags.trivial, flags.connected)


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
