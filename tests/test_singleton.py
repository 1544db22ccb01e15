import itertools
import random

import pytest

from conftest import relations_up_to_symmetry
from eqcut.relations import (
    EQ,
    EQ3,
    NAE3,
    NEQ,
    NEQ3,
    ODD3,
    R_AND_EQ_EQ,
    EqLanguage,
    EqRelation,
    all_patterns,
)
from eqcut.singleton import (
    SingletonExpansion,
    classify_expansion,
    preserved_by_collapse,
    retraction_oracle,
    slice_properties,
)

EVEN_BLOCKS = EqRelation.from_tuples(
    "even_blocks", 4, [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1)])


def test_preserved_by_collapse_examples():
    assert preserved_by_collapse(EQ, 2)
    assert preserved_by_collapse(EQ, 5)
    assert not preserved_by_collapse(ODD3, 2)
    assert not preserved_by_collapse(NAE3, 2)
    assert preserved_by_collapse(EVEN_BLOCKS, 2)
    # c=1 collapse is exactly the constant test
    assert preserved_by_collapse(EQ3, 1)
    assert not preserved_by_collapse(NEQ, 1)


def test_collapse_vs_retraction_oracle_arity_3():
    for rel in relations_up_to_symmetry(3):
        for c in (1, 2, 3):
            assert preserved_by_collapse(rel, c) == retraction_oracle(rel, c)


def test_slice_properties():
    f = slice_properties(EqLanguage.of(EQ), 2)
    assert f.positive_conjunctive and f.connected and f.affine
    f = slice_properties(EqLanguage.of(EVEN_BLOCKS), 2)
    assert f.affine and not f.positive_conjunctive
    f = slice_properties(EqLanguage.of(R_AND_EQ_EQ), 3)
    assert f.positive_conjunctive and not f.connected
    assert slice_properties(EqLanguage.of(NEQ3), 2).trivial


def test_expansion_named_cases():
    v = classify_expansion(SingletonExpansion(EqLanguage.of(EQ), 2))
    assert v.mincsp == "P"
    for c in (3, 5, "inf"):
        v = classify_expansion(SingletonExpansion(EqLanguage.of(EQ), c))
        assert (v.mincsp, v.parameterized, v.approx) == \
            ("NP-hard", "FPT", "poly-const")
    v = classify_expansion(SingletonExpansion(EqLanguage.of(NEQ), 1))
    assert v.case == "strictly-negative-FPT"
    assert (v.mincsp, v.parameterized) == ("NP-hard", "FPT")
    v = classify_expansion(SingletonExpansion(EqLanguage.of(EVEN_BLOCKS), 2))
    assert v.approx == "NearestCodeword-hard"
    v = classify_expansion(SingletonExpansion(EqLanguage.of(R_AND_EQ_EQ), "inf"))
    assert (v.parameterized, v.approx) == ("W[1]-hard", "poly-const")


def test_expansion_structure_cases():
    # equivalent-to-base: Horn, not strictly negative, not constant
    v = classify_expansion(SingletonExpansion(
        EqLanguage.of(ODD3, EQ, NEQ), 4))
    assert v.case == "equivalent-to-base"
    assert v.base_verdict is not None
    assert v.parameterized == "HittingSet-hard"
    # one constant, constant language: always satisfiable
    v = classify_expansion(SingletonExpansion(EqLanguage.of(EQ3), 1))
    assert v.case == "trivial"
    # constant but no retraction at c=2: ODD3
    v = classify_expansion(SingletonExpansion(EqLanguage.of(ODD3), 2))
    assert v.case == "HS-hard-Horn"
    assert v.csp == "P" and v.mincsp == "NP-hard"
    # non-Horn, non-constant
    from eqcut.relations import CnfFormula, EQ_OP, clause, relation_from_cnf

    or_eq = relation_from_cnf(CnfFormula(4, frozenset({
        clause((1, 2, EQ_OP), (3, 4, EQ_OP))})), 4, "or_eq")
    v = classify_expansion(SingletonExpansion(EqLanguage.of(or_eq, NEQ), 2))
    assert v.case == "csp-NP-hard"


def _rel(arity, *patterns):
    return EqRelation.from_tuples(
        "r", arity, [tuple(map(int, p)) for p in patterns])


def _not_all_distinct(arity):
    return EqRelation("nad", arity, frozenset(
        t for t in all_patterns(arity) if len(set(t)) < arity))


def _verdict(case, csp, mincsp, parameterized=None, approx=None, *notes):
    return {"case": case, "csp": csp, "mincsp": mincsp,
            "parameterized": parameterized, "approx": approx, "base": None,
            "notes": list(notes)}


# One witness per verdict leaf that no named case above reaches.
LEAF_CASES = [
    ((), 2, _verdict("P", "P", "P", "FPT", "trivial",
                     "empty base language")),
    ((_rel(3, "111", "123"),), "inf",
     _verdict("HS-hard-Horn", "P", "NP-hard", "HittingSet-hard",
              "HittingSet-hard")),
    ((_rel(3, "111", "112", "121"),), "inf",
     _verdict("csp-NP-hard", "NP-hard", "NP-hard")),
    ((_rel(4, "1111", "1123", "1211"),), 2,
     _verdict("csp-NP-hard", "NP-hard", "NP-hard")),
    ((_not_all_distinct(3),), 2,
     _verdict("boolean-equivalent", "P", "P", "FPT", "trivial",
              "trivial Boolean slice")),
    ((_rel(4, "1111", "1122"),), 2,
     _verdict("boolean-equivalent", "P", "NP-hard", "W[1]-hard", "poly-const",
              "disconnected positive conjunctive slice")),
    ((_rel(3, "111", "112", "121"),), 2,
     _verdict("boolean-equivalent", "NP-hard", "NP-hard", None, None,
              "Boolean slice beyond affine")),
    ((_not_all_distinct(4),), 3,
     _verdict("positive-conjunctive-family", "P", "P", "FPT", "trivial",
              "trivial slice (c=3)")),
]


@pytest.mark.parametrize("rels,constants,expected", LEAF_CASES, ids=[
    "empty-language", "horn-inf", "non-horn-inf",
    "non-horn-no-collapse", "trivial-boolean-slice",
    "disconnected-boolean-slice", "boolean-beyond-affine",
    "trivial-slice-c3"])
def test_expansion_verdict_leaves(rels, constants, expected):
    v = classify_expansion(SingletonExpansion(EqLanguage.of(*rels), constants))
    assert v.as_dict() == expected


def test_expansion_q_relation():
    # (x1=x2 or x1=x3) is retraction-preserved yet its expansion CSP is
    # NP-hard: the gap case the classifier must route around
    q = EqRelation.from_tuples("q", 3, [(1, 1, 1), (1, 1, 2), (1, 2, 1)])
    assert preserved_by_collapse(q, 3)
    v = classify_expansion(SingletonExpansion(EqLanguage.of(q), 3))
    assert v.case == "csp-NP-hard"


def test_expansion_monotone_sensible():
    # c=1 verdict is always P for constant languages
    for rel in (EQ3, R_AND_EQ_EQ, EVEN_BLOCKS):
        v = classify_expansion(SingletonExpansion(EqLanguage.of(rel), 1))
        assert v.mincsp in ("P", "trivial") or v.case == "trivial"
    # disconnected positive conjunctive structure never reports FPT
    for c in (3, "inf"):
        v = classify_expansion(SingletonExpansion(
            EqLanguage.of(R_AND_EQ_EQ), c))
        assert v.parameterized == "W[1]-hard"


def test_positive_conjunctive_multiway_cut_crosscheck():
    """A positive conjunctive instance with assignments, after splitting and
    constant emulation, has the cost of an edge multiway cut: equalities are
    edges, assignment constraints are edges to per-constant terminals."""
    from eqcut.cutgraph import CutGraph
    from eqcut.gadgets import emulate_constants
    from eqcut.instances import (
        MinCspInstance,
        brute_force_cost,
        soft,
        soft_assign,
        split_conjunctive,
    )
    from eqcut.oracles import edge_multicut_opt

    rng = random.Random(17)
    for _ in range(12):
        vs = [f"v{i}" for i in range(rng.randint(2, 4))]
        cons = [soft(R_AND_EQ_EQ, *(rng.sample(vs, 2) + rng.sample(vs, 2)))] \
            if len(vs) >= 4 else []
        for _ in range(rng.randint(1, 4)):
            u, w = rng.sample(vs, 2)
            cons.append(soft(EQ, u, w))
        for _ in range(rng.randint(1, 3)):
            cons.append(soft_assign(rng.choice(vs), rng.randint(1, 3)))
        inst = MinCspInstance.build("pc", cons, vs)
        split, _ = split_conjunctive(inst)
        emulated = emulate_constants(split)
        assert brute_force_cost(split).cost == brute_force_cost(emulated).cost
        edges = []
        terms = set()
        for c in split.constraints:
            if c.is_assignment():
                t = f"T{c.value}"
                terms.add(t)
                edges.append((c.scope[0], t, c.multiplicity))
            else:
                edges.append((c.scope[0], c.scope[1], c.multiplicity))
        g = CutGraph.build(vs + sorted(terms), edges)
        requests = [(a, b) for a, b in itertools.combinations(sorted(terms), 2)]
        cut = edge_multicut_opt(g, requests)
        assert cut == brute_force_cost(split).cost
