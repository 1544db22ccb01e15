import pytest

from eqcut.classify import (
    ImproperRelationError,
    classify_language,
)
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
    R_AND_EQ_NEQ,
    R_AND_NEQ_NEQ,
    R_VEE_NEQ_NEQ,
    CnfFormula,
    EqLanguage,
    EqRelation,
    clause,
    redundant_indices,
    relation_from_cnf,
    rneq_relation,
)

TABLE1 = [
    (EQ3, "FPT"),
    (EqRelation.from_tuples("neq13_neq23", 3, [(1, 1, 2), (1, 2, 3)]), "FPT"),
    (NEQ3, "FPT"),
    (EqRelation.from_tuples("split21", 3, [(1, 1, 2)]), "FPT"),
    (ODD3, "HittingSet-hard"),
    (EqRelation.from_tuples("odd3_weak", 3,
                            [(1, 1, 1), (1, 1, 2), (1, 2, 3)]), "HittingSet-hard"),
    (EqRelation.from_tuples("impl23", 3,
                            [(1, 1, 1), (1, 2, 1), (1, 2, 2), (1, 2, 3)]),
     "HittingSet-hard"),
    (NAE3, "W[1]-hard"),
    (R_VEE_NEQ_NEQ, "W[1]-hard"),
    (R_AND_EQ_EQ, "W[1]-hard"),
    (R_AND_NEQ_NEQ, "W[1]-hard"),
    (R_AND_EQ_NEQ, "W[1]-hard"),
]


def test_table1_regression():
    for rel, want in TABLE1:
        v = classify_language(EqLanguage.of(rel), with_eq_neq=True)
        assert v.parameterized == want, rel.name
        if want == "W[1]-hard":
            assert v.approx == "fpt-const"
        if want == "HittingSet-hard":
            assert v.approx == "HittingSet-hard"
        if want == "FPT":
            assert v.mincsp_classical == "NP-hard"


def test_redundant_argument_rows():
    tern_eq = EqRelation.from_tuples("tern_eq", 3, [(1, 1, 1), (1, 1, 2)])
    tern_neq = EqRelation.from_tuples("tern_neq", 3,
                                      [(1, 1, 2), (1, 2, 1), (1, 2, 3)])
    for rel in (tern_eq, tern_neq):
        v = classify_language(EqLanguage.of(rel), with_eq_neq=True)
        assert v.parameterized == "FPT"
        assert redundant_indices(rel)


def test_trivial_cases():
    v = classify_language(EqLanguage.of(EQ3))
    assert (v.csp, v.mincsp_classical, v.parameterized, v.approx) == \
        ("P", "P", "FPT", "trivial")
    v = classify_language(EqLanguage.of(NEQ))
    assert v.mincsp_classical == "P" and v.approx == "trivial"
    v = classify_language(EqLanguage.of())
    assert v.parameterized == "FPT"


def test_non_horn_language():
    r_or = relation_from_cnf(CnfFormula(4, frozenset({
        clause((1, 2, EQ_OP), (3, 4, EQ_OP))})), 4, "or_eq")
    v = classify_language(EqLanguage.of(r_or, EQ, NEQ))
    assert v.csp == "NP-hard"
    assert v.witness[0] == "or_eq"


def test_improper_rejected():
    full = EqRelation("full", 2, frozenset({(1, 1), (1, 2)}))
    with pytest.raises(ImproperRelationError):
        classify_language(EqLanguage.of(full))
    empty = EqRelation("empty", 2, frozenset())
    with pytest.raises(ImproperRelationError):
        classify_language(EqLanguage.of(empty))


def test_verdict_invariants():
    for rel, _ in TABLE1:
        for mode in (False, True):
            v = classify_language(EqLanguage.of(rel), with_eq_neq=mode)
            if v.parameterized == "FPT":
                assert v.approx in ("fpt-const", "poly-const", "trivial")
            if v.mincsp_classical == "P":
                assert v.parameterized == "FPT"


def test_literal_vs_expanded_mode():
    # NAE3 alone is strictly negative: trivial MinCSP; with {=, !=} it is
    # W[1]-hard
    v_plain = classify_language(EqLanguage.of(NAE3))
    assert v_plain.mincsp_classical == "P"
    v_full = classify_language(EqLanguage.of(NAE3), with_eq_neq=True)
    assert v_full.parameterized == "W[1]-hard"


def test_arity_6_classification_needs_no_clause_table():
    # a table of every clause over six indices would hold 3^15 - 1 clauses
    v = classify_language(EqLanguage.of(rneq_relation(3)))
    assert (v.csp, v.mincsp_classical, v.parameterized, v.approx) == ("P", "P", "FPT", "trivial")
    assert v.witness == ("rneq3", "strictly-negative")

    horn6 = relation_from_cnf(CnfFormula(6, frozenset({
        clause((1, 2, EQ_OP), (3, 4, NEQ_OP)), clause((5, 6, NEQ_OP))})), 6, "horn6")
    v = classify_language(EqLanguage.of(horn6))
    assert v.witness == ("horn6", "horn-not-negative")
    assert v.mincsp_classical == "NP-hard"
