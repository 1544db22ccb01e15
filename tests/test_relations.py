import itertools
import random

import pytest

from conftest import relations_up_to_symmetry
from eqcut.relations import (
    EQ,
    EQ3,
    EQ_OP,
    NAE3,
    NEQ,
    NEQ3,
    NEQ_OP,
    ODD3,
    R_AND_EQ_EQ,
    ArityCapExceeded,
    CnfFormula,
    EqLanguage,
    all_patterns,
    canonicalize,
    clause,
    clause_in_fragment,
    definable_in_fragment,
    entailed_clauses,
    essential_projection,
    is_conjunctive,
    is_horn,
    is_negative,
    is_neq3,
    is_split,
    minimal_definition,
    project,
    redundant_indices,
    refines,
    relation_from_cnf,
    rneq_relation,
    split_witness,
)


def test_canonicalize_examples():
    assert canonicalize((5, 5, 6)) == (1, 1, 2)
    assert canonicalize((1, 2, 3)) == (1, 2, 3)
    assert canonicalize((7, 3, 7, 9)) == (1, 2, 1, 3)


def test_canonicalize_idempotent():
    rng = random.Random(0)
    for _ in range(300):
        raw = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
        c = canonicalize(raw)
        assert canonicalize(c) == c


def test_bell_counts():
    for arity, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (8, 4140)]:
        assert len(all_patterns(arity)) == bell
    with pytest.raises(ArityCapExceeded):
        all_patterns(9)


def test_refines_examples():
    assert refines((1, 1, 2, 3, 4), (1, 1, 1, 2, 3)) == "strictly_refines"
    assert refines((1, 2), (1, 2)) == "refines"
    assert refines((1, 1), (1, 2)) == "none"
    with pytest.raises(ValueError):
        refines((1,), (1, 2))


def test_refines_partial_order_up_to_arity_5():
    for arity in range(1, 6):
        pats = all_patterns(arity)
        rel = {}
        for a in pats:
            for b in pats:
                rel[(a, b)] = refines(a, b)
        for a in pats:
            assert rel[(a, a)] == "refines"
        for a, b in itertools.permutations(pats, 2):
            if rel[(a, b)] != "none" and rel[(b, a)] != "none":
                assert a == b or (rel[(a, b)] == "refines" and a == b)
        for a, b, c in itertools.product(pats, repeat=3):
            if rel[(a, b)] != "none" and rel[(b, c)] != "none":
                assert rel[(a, c)] != "none"


def test_relation_from_cnf_named_rows():
    neq3 = relation_from_cnf(CnfFormula(3, frozenset({
        clause((1, 2, NEQ_OP)), clause((2, 3, NEQ_OP)), clause((1, 3, NEQ_OP))})), 3)
    assert neq3.tuples == NEQ3.tuples
    # the printed third clause of the ODD3 row contradicts its tuple column;
    # the tuple column wins and fixes the clause to (x1 != x2 or x2 = x3)
    odd3 = relation_from_cnf(CnfFormula(3, frozenset({
        clause((1, 2, EQ_OP), (1, 3, NEQ_OP)),
        clause((1, 2, EQ_OP), (2, 3, NEQ_OP)),
        clause((1, 2, NEQ_OP), (2, 3, EQ_OP))})), 3)
    assert odd3.tuples == ODD3.tuples
    nae3 = relation_from_cnf(CnfFormula(3, frozenset({
        clause((1, 2, NEQ_OP), (2, 3, NEQ_OP))})), 3)
    assert nae3.tuples == NAE3.tuples
    assert len(nae3.tuples) == 4


@pytest.mark.parametrize("lit", [(0, 1, NEQ_OP), (2, 4, EQ_OP), (-1, 2, NEQ_OP)])
def test_relation_from_cnf_rejects_an_index_outside_the_arity(lit):
    # index 0 would read the last entry of each tuple, x3 here
    with pytest.raises(ValueError, match="outside arity 3"):
        relation_from_cnf(CnfFormula(3, frozenset({clause(lit)})), 3)


def test_project():
    assert project(ODD3, (1, 2)).tuples == {(1, 1), (1, 2)}
    assert project(R_AND_EQ_EQ, (1, 3)).tuples == {(1, 1), (1, 2)}
    assert project(NAE3, (1, 2, 3)).tuples == NAE3.tuples


def test_entailed_clauses_examples():
    assert entailed_clauses(EQ, "horn") == {clause((1, 2, EQ_OP))}
    assert entailed_clauses(NEQ3, "strictly_negative") == {
        clause((1, 2, NEQ_OP)), clause((2, 3, NEQ_OP)), clause((1, 3, NEQ_OP))}
    assert entailed_clauses(NAE3, "conjunctive") == set()


def test_definability_examples():
    assert definable_in_fragment(ODD3, "horn") is not None
    r_or = relation_from_cnf(CnfFormula(4, frozenset({
        clause((1, 2, EQ_OP), (3, 4, EQ_OP))})), 4)
    assert definable_in_fragment(r_or, "horn") is None
    assert definable_in_fragment(NAE3, "conjunctive") is None
    assert definable_in_fragment(NAE3, "negative") is not None


def test_definability_round_trip():
    for rel in relations_up_to_symmetry(3):
        for fragment in ("horn", "negative", "strictly_negative",
                         "conjunctive", "unrestricted"):
            phi = definable_in_fragment(rel, fragment)
            if phi is not None:
                back = relation_from_cnf(phi, rel.arity)
                assert back.tuples == rel.tuples
                assert all(clause_in_fragment(cl, fragment)
                           for cl in phi.clauses)


def test_minimal_definition_prunes():
    phi = minimal_definition(rneq_relation(2), "negative")
    assert len(phi.clauses) == 1


def test_split_and_neq3():
    assert split_witness(EQ3) == (frozenset({1, 2, 3}), frozenset())
    assert split_witness(NEQ3) is None
    assert is_neq3(NEQ3)
    assert split_witness(R_AND_EQ_EQ) is None
    assert R_AND_EQ_EQ.is_constant()
    assert is_split(EQ) and is_split(NEQ)


def test_fragment_hierarchy_arity_3_full():
    for rel in relations_up_to_symmetry(3):
        sp, cj = is_split(rel), is_conjunctive(rel)
        ng, hn = is_negative(rel), is_horn(rel)
        assert not sp or cj
        assert not cj or ng
        assert not ng or hn


def test_fragment_hierarchy_arity_4_full():
    for rel in relations_up_to_symmetry(4):
        sp, cj = is_split(rel), is_conjunctive(rel)
        ng, hn = is_negative(rel), is_horn(rel)
        assert not sp or cj
        assert not cj or ng
        assert not ng or hn


def test_redundant_indices():
    tern_eq = relation_from_cnf(
        CnfFormula(3, frozenset({clause((1, 2, EQ_OP))})), 3)
    assert redundant_indices(tern_eq) == frozenset({3})
    ess, kept = essential_projection(tern_eq)
    assert kept == (1, 2) and ess.tuples == EQ.tuples
    assert redundant_indices(NEQ3) == frozenset()
    tern_neq = relation_from_cnf(
        CnfFormula(3, frozenset({clause((2, 3, NEQ_OP))})), 3)
    ess2, kept2 = essential_projection(tern_neq)
    assert kept2 == (2, 3) and ess2.tuples == NEQ.tuples


def test_clause_invariants():
    with pytest.raises(ValueError):
        clause((1, 1, EQ_OP))
    with pytest.raises(ValueError):
        clause((1, 2, EQ_OP), (2, 1, NEQ_OP))


def test_language():
    lang = EqLanguage.of(EQ3, NEQ3)
    assert lang.names() == ["eq3", "neq3"]
    with pytest.raises(KeyError):
        lang.get("nope")
    expanded = lang.with_eq_neq()
    assert len(expanded) == 4
    with pytest.raises(ValueError):
        EqLanguage.of(EQ3, EQ3.renamed("eq3"))
