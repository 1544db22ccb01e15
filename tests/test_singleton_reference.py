"""Differential test: `slice_properties` reads the slice flags off canonical
patterns; the reference below builds every tuple of the c-slice (c^arity per
relation) and tests the flags on those tuples, and at c = inf reads them off
the relation itself."""

import itertools
from functools import lru_cache

from conftest import relations_up_to_symmetry
from eqcut.relations import EqLanguage, all_patterns, canonicalize, union_classes
from eqcut.singleton import (
    INFINITE,
    ClassificationGap,
    SingletonExpansion,
    SliceFlags,
    classify_expansion,
    slice_properties,
)


@lru_cache(maxsize=None)
def _tuples_by_pattern(arity, c):
    """Every tuple over the finite domain [c], grouped by canonical form."""
    groups = {}
    for t in itertools.product(range(1, c + 1), repeat=arity):
        groups.setdefault(canonicalize(t), set()).add(t)
    return groups


@lru_cache(maxsize=None)
def _domain(arity, c):
    return frozenset(itertools.product(range(1, c + 1), repeat=arity))


def _slice(tuples, arity, c):
    """The relation's tuples over [c]."""
    groups = _tuples_by_pattern(arity, c)
    return frozenset(t for p in tuples for t in groups.get(p, ()))


def _entailed_equality_pairs(arity, tuples):
    if not tuples:
        return frozenset()
    return frozenset(
        (i, j) for i, j in itertools.combinations(range(arity), 2)
        if all(t[i] == t[j] for t in tuples))


@lru_cache(maxsize=None)
def _satisfying(candidates, pairs):
    return frozenset(
        t for t in candidates if all(t[i] == t[j] for i, j in pairs))


def _equality_conjunction(arity, tuples, candidates):
    """Nonempty, and exactly the candidates that satisfy its entailed
    equality literals."""
    if not tuples:
        return False
    return tuples == _satisfying(
        candidates, _entailed_equality_pairs(arity, tuples))


def _connected(arity, tuples):
    pairs = _entailed_equality_pairs(arity, tuples)
    touched = sorted({i for p in pairs for i in p})
    if not touched:
        return True
    return len(set(union_classes(touched, pairs).values())) == 1


def _affine(tuples):
    tuples = {tuple(x - 1 for x in t) for t in tuples}
    return all(tuple(x ^ y ^ z for x, y, z in zip(a, b, cc)) in tuples
               for a, b, cc in itertools.product(tuples, repeat=3))


def reference_flags(lang, c):
    if c == INFINITE:
        # the slice over all constants is the proper relation itself
        posconj = all(_equality_conjunction(
            r.arity, r.tuples, frozenset(all_patterns(r.arity))) for r in lang)
        return SliceFlags(False, posconj, posconj and all(
            _connected(r.arity, r.tuples) for r in lang), None)
    slices = [(r.arity, _slice(r.tuples, r.arity, c)) for r in lang]
    trivial = all(not s or len(s) == c ** a for a, s in slices)
    posconj = all(_equality_conjunction(
        a, s, _domain(a, c)) for a, s in slices)
    connected = posconj and all(_connected(a, s) for a, s in slices)
    affine = None
    if c == 2:
        affine = all(s and _affine(s) for _, s in slices)
    return SliceFlags(trivial, posconj, connected, affine)


def _sweep():
    """Every one-relation language up to arity 4 (up to symmetry) at
    c = 2..6 and inf; every pair of relations of arity <= 3 at c = 2, 3, 4."""
    singles = [r for arity in (2, 3, 4) for r in relations_up_to_symmetry(arity)]
    for rel in singles:
        for c in (2, 3, 4, 5, 6, INFINITE):
            yield EqLanguage.of(rel), c
    small = [r for r in singles if r.arity <= 3]
    for r, s in itertools.product(small, repeat=2):
        for c in (2, 3, 4):
            yield EqLanguage.of(r, s.renamed("s")), c


def test_slice_flags_match_materialised_slices():
    count = 0
    for lang, c in _sweep():
        assert slice_properties(lang, c) == reference_flags(lang, c), (lang, c)
        count += 1
    assert count == 14100


def test_sweep_never_raises_classification_gap():
    gaps = []
    for lang, c in _sweep():
        try:
            classify_expansion(SingletonExpansion(lang, c))
        except ClassificationGap:
            gaps.append((lang, c))
    assert gaps == []
