"""Complexity classification of finite equality constraint languages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .relations import (
    EqLanguage,
    EqRelation,
    essential_projection,
    is_horn,
    is_negative,
    is_neq3,
    is_split,
    is_strictly_negative,
)

CSP_P = "P"
CSP_NP_HARD = "NP-hard"
PARAM_FPT = "FPT"
PARAM_W1 = "W[1]-hard"
PARAM_HS = "HittingSet-hard"
APPROX_POLY = "poly-const"
APPROX_FPT = "fpt-const"
APPROX_HS = "HittingSet-hard"
APPROX_TRIVIAL = "trivial"


class ImproperRelationError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    csp: str
    mincsp_classical: str
    parameterized: str
    approx: str
    witness: Optional[tuple[str, str]] = None

    def as_dict(self) -> dict:
        return {
            "csp": self.csp,
            "mincsp_classical": self.mincsp_classical,
            "parameterized": self.parameterized,
            "approx": self.approx,
            "witness": list(self.witness) if self.witness else None,
        }


def _split_or_neq3(rel: EqRelation) -> bool:
    """Whether the relation's essential projection is split or NEQ3."""
    ess, _ = essential_projection(rel)
    return is_split(ess) or is_neq3(ess)


# The paper's case split after the trivial languages: the first test that
# some relation fails decides the verdict, and that relation is the witness.
# Horn languages that are neither constant nor strictly negative implement
# both equality and disequality, so their MinCSP is NP-hard.
_CASES = (
    (is_horn, (CSP_NP_HARD, CSP_NP_HARD, PARAM_HS, APPROX_HS), "not-horn"),
    (is_negative, (CSP_P, CSP_NP_HARD, PARAM_HS, APPROX_HS),
     "horn-not-negative"),
    (_split_or_neq3, (CSP_P, CSP_NP_HARD, PARAM_W1, APPROX_FPT),
     "negative-not-split-not-neq3"),
)


def require_proper(lang: EqLanguage) -> None:
    """Reject the first empty or complete relation of the language."""
    for rel in lang:
        if not rel.is_proper():
            raise ImproperRelationError(
                f"relation {rel.name!r} is {'empty' if rel.is_empty() else 'complete'}")


def classify_language(lang: EqLanguage, with_eq_neq: bool = False) -> Verdict:
    """The paper's case split, each test run only when its case is reached.

    Improper relations are rejected outright.  With with_eq_neq=True, binary
    equality and disequality are added to the language before classifying.
    """
    if with_eq_neq:
        lang = lang.with_eq_neq()
    require_proper(lang)
    if len(lang) == 0:
        return Verdict(CSP_P, CSP_P, PARAM_FPT, APPROX_TRIVIAL)
    first = next(iter(lang)).name
    if all(r.is_constant() for r in lang):
        return Verdict(CSP_P, CSP_P, PARAM_FPT, APPROX_TRIVIAL,
                       witness=(first, "constant"))
    if all(is_strictly_negative(r) for r in lang):
        return Verdict(CSP_P, CSP_P, PARAM_FPT, APPROX_TRIVIAL,
                       witness=(first, "strictly-negative"))
    for test, verdict, reason in _CASES:
        bad = next((r for r in lang if not test(r)), None)
        if bad is not None:
            return Verdict(*verdict, witness=(bad.name, reason))
    return Verdict(CSP_P, CSP_NP_HARD, PARAM_FPT, APPROX_FPT)
