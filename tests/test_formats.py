import pytest

from eqcut import formats
from eqcut.cutgraph import CutGraph, RequestList, TripleSet
from eqcut.formats import (
    GraphBundle,
    ParseError,
    parse_graph,
    parse_instance,
    parse_relations,
    print_graph,
    print_instance,
    print_relations,
)
from eqcut.instances import MinCspInstance, crisp, soft, soft_assign
from eqcut.relations import EQ, NEQ, NEQ3, EqLanguage


def test_parse_relations_both_forms():
    text = """
relation pair 2
tuple 1 1

relation nae 3
cnf x1!=x2 | x2!=x3
"""
    lang = parse_relations(text)
    assert lang.names() == ["pair", "nae"]
    assert lang.get("pair").tuples == {(1, 1)}
    assert len(lang.get("nae").tuples) == 4


def test_relations_round_trip():
    lang = EqLanguage.of(EQ.renamed("eq"), NEQ3)
    back = parse_relations(print_relations(lang))
    assert back.names() == lang.names()
    for a, b in zip(lang, back):
        assert a.tuples == b.tuples


def test_table1_file_parses_to_twelve():
    from importlib import resources

    text = resources.files("eqcut").joinpath("data/table1.rel").read_text()
    lang = parse_relations(text)
    assert len(lang) == 12
    assert lang.get("odd3").tuples == {(1, 1, 1), (1, 2, 3)}


def test_parse_relations_errors_name_line():
    with pytest.raises(ParseError) as e:
        parse_relations("relation r 2\ntuple 1 2 3\n")
    assert "line 2" in str(e.value)
    with pytest.raises(ParseError):
        parse_relations("tuple 1 2\n")
    with pytest.raises(ParseError):
        parse_relations("relation r 2\ntuple 1 2\ncnf x1=x2\n\n")
    assert len(parse_relations("")) == 0


@pytest.mark.parametrize("text,line,message", [
    ("relation r 2\ncnf x1 ~ x2\n", 2, "bad literal 'x1 ~ x2'"),
    ("relation r 2\ncnf x1 = x2 | x1 != x2\n", 2, "both polarities"),
    ("relation r 2\ntuple 1 1\nrelation r\n", 3,
     "expected: relation NAME ARITY"),
    ("relation r x\n", 1, "bad arity 'x'"),
    ("relation r 2\ntuple 1 a\n", 2, "tuple entries must be integers"),
    ("\ncnf x1 = x2\n", 2, "cnf outside a relation stanza"),
    ("relation r 2\ntuple 1 1\nbogus 1\n", 3, "unknown directive 'bogus'"),
    # the last stanza is checked after the last line
    ("relation r 2\ntuple 1 1\ncnf x1 = x2\n", 4,
     "stanza 'r' mixes tuples and cnf"),
    ("relation r 2\ntuple 1 1\ncnf x1 = x2", 4,
     "stanza 'r' mixes tuples and cnf"),
], ids=["bad-literal", "both-polarities", "relation-no-arity", "bad-arity",
        "tuple-entry", "cnf-outside-stanza", "unknown-directive",
        "mixed-last-stanza", "mixed-last-stanza-no-final-newline"])
def test_parse_relations_error_names_its_line(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_relations(text)
    assert e.value.lineno == line and message in str(e.value)


def test_parse_relations_canonicalizes_tuples():
    # tuples are equality patterns: `2 1` is the pattern `1 2`
    assert parse_relations("relation r 2\ntuple 2 1\n").get("r").tuples == \
        {(1, 2)}


@pytest.mark.parametrize("text,line,message", [
    ("var a\nvar a b\n", 2, "expected: var NAME"),
    ("var a\nsoft-assign a 1\n", 2, "expected: soft-assign x = INT"),
    ("var a\nsoft =\n", 2, "expected: crisp|soft REL vars"),
], ids=["var-two-names", "soft-assign", "soft-no-variables"])
def test_parse_instance_error_names_its_line(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.lineno == line and message in str(e.value)


def test_instance_round_trip():
    inst = MinCspInstance.build("demo", [
        soft(EQ, "a", "b", m=2), crisp(NEQ, "a", "c"),
        soft_assign("a", 3), crisp(NEQ3, "a", "b", "c")],
        variables=["a", "b", "c"])
    text = print_instance(inst)
    back = parse_instance(text, EqLanguage.of(NEQ3))
    assert back.name == "demo"
    assert back.variables == inst.variables
    assert back.constraints == inst.constraints


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance("crisp wat a b\n")
    with pytest.raises(ParseError):
        parse_instance("soft = a\n")
    with pytest.raises(ParseError):
        parse_instance("nonsense\n")


def test_graph_round_trip():
    g = CutGraph.build(["a", "b", "c"], [("a", "b", 2), ("b", "c")],
                       undeletable={"c"})
    bundle = GraphBundle(g, [RequestList.of(("a", "c"), ("b",))],
                         TripleSet.of((("a", "b", "c"), 2)), "demo")
    text = print_graph(bundle)
    back = parse_graph(text)
    assert back.name == "demo"
    assert back.graph.edges == g.edges
    assert back.graph.undeletable == g.undeletable
    assert back.lists == bundle.lists
    assert list(back.triples) == list(bundle.triples)


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("edge a\n")
    with pytest.raises(ParseError):
        parse_graph("triple a a b\n")
    with pytest.raises(ParseError):
        parse_graph("list a b\n")
    with pytest.raises(ParseError):
        parse_graph("vertex v strange\n")


@pytest.mark.parametrize("text,line,message", [
    ("edge a b *-1\nedge a b *2\n", 1, "multiplicity must be positive"),
    ("vertex a\nedge a b *0\n", 2, "multiplicity must be positive"),
    ("edge a b\nedge c c\n", 2, "self-loop"),
    ("edge a b\ntriple a b c *0\n", 2, "multiplicity must be positive"),
    ("triple a b c *-2\nbogus\n", 1, "multiplicity must be positive"),
], ids=["negative-edge", "zero-edge", "self-loop", "zero-triple",
        "before-later-errors"])
def test_parse_graph_rejects_at_the_offending_line(text, line, message):
    with pytest.raises(ParseError) as e:
        parse_graph(text)
    assert e.value.lineno == line and message in str(e.value)


@pytest.mark.parametrize("text,line", [
    ("var a\nvar b\nsoft = a b *0\n", 3),
    ("var a\nsoft-assign a = 1 *0\n", 2),
], ids=["constraint", "assignment"])
def test_parse_instance_rejects_nonpositive_multiplicity_at_its_line(text, line):
    with pytest.raises(ParseError) as e:
        parse_instance(text)
    assert e.value.lineno == line and "multiplicity must be positive" in str(e.value)


def test_parse_graph_vertex_order():
    # declared vertices first, in file order; names first seen in edge,
    # triple or list lines follow in sorted order
    text = ("vertex m\nvertex b undeletable\nedge z a\ntriple y b c\n"
            "list (x,m) (q,q)\nvertex m\n")
    assert parse_graph(text).graph.vertices == ("m", "b", "a", "c", "q",
                                                 "x", "y", "z")


def test_graph_singleton_list():
    bundle = parse_graph("graph g\nvertex s\nlist (s,s)\n")
    (lst,) = bundle.lists
    (pair,) = lst.pairs
    assert pair == frozenset({"s"})
