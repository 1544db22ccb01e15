"""Fragment definability against the table-based reference it replaced.

The reference below scans every clause over the arity in width order, keeps
the inclusion-minimal entailed fragment clauses, and calls a relation
definable when their conjunction has exactly the relation's models.  The
package decides definability from one witness clause per excluded pattern
and collects clauses only for definable relations; both must agree.
"""

import itertools
import random
from functools import lru_cache

from conftest import relations_up_to_symmetry
from eqcut.relations import (
    EQ_OP,
    FRAGMENTS,
    NEQ_OP,
    CnfFormula,
    EqRelation,
    all_patterns,
    clause_in_fragment,
    clause_satisfied,
    definable_in_fragment,
    entailed_clauses,
    is_conjunctive,
    is_horn,
    is_negative,
    is_strictly_negative,
    minimal_definition,
)

IS_FRAGMENT = {
    "horn": is_horn,
    "negative": is_negative,
    "strictly_negative": is_strictly_negative,
    "conjunctive": is_conjunctive,
}


@lru_cache(maxsize=None)
def _clause_table(arity):
    """Every clause over the arity with its model mask, ordered by width."""
    pats = all_patterns(arity)
    pairs = list(itertools.combinations(range(1, arity + 1), 2))
    lit_models = {}
    for i, j in pairs:
        for op in (EQ_OP, NEQ_OP):
            lit_models[(i, j, op)] = sum(
                1 << b for b, t in enumerate(pats) if clause_satisfied(t, [(i, j, op)]))
    out = []
    for width in range(1, len(pairs) + 1):
        for chosen in itertools.combinations(pairs, width):
            for ops in itertools.product((EQ_OP, NEQ_OP), repeat=width):
                lits = [(i, j, op) for (i, j), op in zip(chosen, ops)]
                mask = 0
                for lit in lits:
                    mask |= lit_models[lit]
                out.append((frozenset(lits), mask))
    return tuple(out)


def _mask(rel):
    return sum(1 << b for b, t in enumerate(all_patterns(rel.arity)) if t in rel.tuples)


@lru_cache(maxsize=None)
def _fragment_table(arity, fragment):
    return tuple((cl, mask) for cl, mask in _clause_table(arity)
                 if clause_in_fragment(cl, fragment))


def reference_entailed(rel, fragment):
    rmask = _mask(rel)
    found = set()
    for cl, mask in _fragment_table(rel.arity, fragment):
        if rmask & mask != rmask:
            continue
        if any(prev < cl for prev in found):
            continue
        found.add(cl)
    return found


def reference_definable(rel, fragment, clauses):
    masks = dict(_clause_table(rel.arity))
    conj = (1 << len(all_patterns(rel.arity))) - 1
    for cl in clauses:
        conj &= masks[cl]
    if conj == _mask(rel):
        return CnfFormula(rel.arity, frozenset(clauses))
    return None


def _mismatches(rels):
    """(tuples, fragment) cases where the package and the reference differ
    in the verdict or the clause set; also returns the reference's negative
    definitions by relation."""
    out, negative = [], {}
    for rel in rels:
        for fragment in FRAGMENTS:
            want_clauses = reference_entailed(rel, fragment)
            want = reference_definable(rel, fragment, want_clauses)
            got = definable_in_fragment(rel, fragment)
            if want is None:
                # a definable relation's clauses are its definition's
                same = got is None and (list(entailed_clauses(rel, fragment))
                                        == list(want_clauses))
            else:
                same = got == want and list(got.clauses) == list(want.clauses)
            if fragment in IS_FRAGMENT:
                same = same and IS_FRAGMENT[fragment](rel) == (want is not None)
            if not same:
                out.append((sorted(rel.tuples), fragment))
            if fragment == "negative":
                negative[rel.tuples] = want
    return out, negative


def _all_relations(arity):
    pats = all_patterns(arity)
    for bits in range(2 ** len(pats)):
        yield EqRelation("r", arity, frozenset(
            pats[b] for b in range(len(pats)) if bits >> b & 1))


def test_witness_check_matches_reference_arity_le_3():
    rels = [rel for arity in (1, 2, 3) for rel in _all_relations(arity)]
    assert len(rels) == 2 + 4 + 32
    assert _mismatches(rels)[0] == []


def reference_minimal(phi, rel):
    """The old path's greedy pruning of a definition, on the reference table."""
    masks = dict(_clause_table(rel.arity))
    full = (1 << len(all_patterns(rel.arity))) - 1
    kept = sorted(phi.clauses, key=lambda cl: (-len(cl), sorted(cl)))
    for cl in list(kept):
        trial = [c for c in kept if c != cl]
        conj = full
        for c in trial:
            conj &= masks[c]
        if conj == _mask(rel):
            kept = trial
    return CnfFormula(rel.arity, frozenset(kept))


def test_witness_check_matches_reference_arity_4_orbits():
    rels = list(relations_up_to_symmetry(4))
    assert len(rels) == 2206
    mismatches, negative = _mismatches(rels)
    assert mismatches == []
    for rel in rels:
        want = negative[rel.tuples]
        got = minimal_definition(rel, "negative")
        if want is None:
            assert got is None
        else:
            want = reference_minimal(want, rel)
            assert got == want and list(got.clauses) == list(want.clauses)


def test_witness_check_matches_reference_arity_5_sample():
    pats = all_patterns(5)
    rng = random.Random(5)
    rels = [EqRelation("r", 5, frozenset(rng.sample(pats, rng.randint(1, len(pats) - 1))))
            for _ in range(10)]
    assert _mismatches(rels)[0] == []
