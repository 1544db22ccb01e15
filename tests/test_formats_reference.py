"""Differential tests of the one-pass graph parser.

`formats.parse_graph` builds the vertex order, the edge map and the merged
triples inside its line loop and makes the graph without re-validating it.
The reference keeps the earlier form: collect every line's data, then build
the graph with `CutGraph.build` and the triples with `TripleSet.of`.  On
valid files both must give the same bundle, orders included; on broken
files the same exception type and message.  The inputs leave out the
errors the one-pass parser reports differently on purpose: a self-loop and
a multiplicity below 1 are now parse errors at their own line.
"""

import random

from eqcut.cutgraph import CutGraph, RequestList, TripleSet
from eqcut.formats import (
    _PAIR,
    GraphBundle,
    ParseError,
    parse_graph,
    print_graph,
)


def _split_multiplicity(words, lineno):
    if words and words[-1].startswith("*"):
        try:
            return words[:-1], int(words[-1][1:])
        except ValueError:
            raise ParseError(lineno, f"bad multiplicity {words[-1]!r}")
    return words, 1


def reference_parse_graph(text: str) -> GraphBundle:
    name = "graph"
    vertices: list[str] = []
    undeletable: set = set()
    edges: list = []
    triples: list = []
    lists: list = []
    declared: set = set()

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        head = words[0]
        if head == "graph":
            name = words[1] if len(words) > 1 else name
        elif head == "vertex":
            if len(words) not in (2, 3):
                raise ParseError(lineno, "expected: vertex NAME [undeletable]")
            vertices.append(words[1])
            declared.add(words[1])
            if len(words) == 3:
                if words[2] != "undeletable":
                    raise ParseError(lineno, f"unknown modifier {words[2]!r}")
                undeletable.add(words[1])
        elif head == "edge":
            rest, mult = _split_multiplicity(words[1:], lineno)
            if len(rest) != 2:
                raise ParseError(lineno, "expected: edge U V [*m]")
            edges.append((rest[0], rest[1], mult))
            declared.update(rest)
        elif head == "triple":
            rest, mult = _split_multiplicity(words[1:], lineno)
            if len(rest) != 3 or len(set(rest)) != 3:
                raise ParseError(lineno, "expected: triple U V W (distinct)")
            triples.append((frozenset(rest), mult))
            declared.update(rest)
        elif head == "list":
            body = line[len("list"):].strip()
            found = _PAIR.findall(body)
            if not found or _PAIR.sub("", body).strip() != "":
                raise ParseError(lineno, "expected: list (s,t) (s,t) ...")
            pairs = [(a.strip(), b.strip()) for a, b in found]
            lists.append(RequestList.of(*pairs))
            for a, b in pairs:
                declared.update((a, b))
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    listed = set(vertices)
    vertices += (v for v in sorted(declared) if v not in listed)
    g = CutGraph.build(vertices, edges, undeletable=undeletable)
    return GraphBundle(g, lists, TripleSet.of(*triples) if triples
                       else TripleSet(()), name)


def _random_bundle(rng) -> GraphBundle:
    n = rng.randint(1, 10)
    vs = [rng.choice(["v", "x", "node_", "A"]) + str(i) for i in range(n)]
    edges = [(a, b, rng.choice([1, 1, 1, 2, 3]))
             for i, a in enumerate(vs) for b in vs[i + 1:] if rng.random() < 0.3]
    undeletable = [v for v in vs if rng.random() < 0.2]
    triples = [(tuple(rng.sample(vs, 3)), rng.randint(1, 3))
               for _ in range(rng.randint(0, 3))] if n >= 3 else []
    lists = [RequestList.of(*[(rng.choice(vs), rng.choice(vs))
                              for _ in range(rng.randint(1, 3))])
             for _ in range(rng.randint(0, 3))]
    return GraphBundle(CutGraph.build(vs, edges, undeletable), lists,
                       TripleSet.of(*triples), rng.choice(["graph", "g1", "demo"]))


def _scramble(rng, text: str) -> str:
    """The file's lines shuffled, some vertex lines dropped or repeated,
    some edge and triple lines split into two (their multiplicities add),
    names that only lists use, comments, blank lines and extra spaces."""
    lines = []
    for line in text.splitlines():
        words = line.split()
        if words[0] == "vertex" and rng.random() < 0.3:
            continue  # named only by edges, triples or lists, if at all
        if words[0] == "vertex" and rng.random() < 0.1:
            lines.append(f"vertex {words[1]}")
        if words[0] in ("edge", "triple") and rng.random() < 0.2:
            lines.append(" ".join(w for w in words if not w.startswith("*")))
        lines.append(line)
    if rng.random() < 0.3:
        lines.append(f"list (only{rng.randint(0, 9)},only{rng.randint(0, 9)})")
    rng.shuffle(lines)
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "# a comment", "  # indented"]))
        if rng.random() < 0.2:
            line = "  " + line.replace(" ", "   ") + "  "
        if rng.random() < 0.2:
            line += rng.choice(["  # trailing", "#", " #x y z"])
        out.append(line)
    return "\n".join(out) + rng.choice(["", "\n"])


def _summary(bundle: GraphBundle):
    g = bundle.graph
    return (bundle.name, g.vertices, list(g.edges.items()), g.undeletable,
            bundle.lists, list(bundle.triples))


def _outcome(text: str, parse):
    try:
        return "ok", _summary(parse(text))
    except ValueError as e:
        return type(e), str(e)


def test_parser_matches_reference_on_valid_files():
    rng = random.Random(11)
    for _ in range(600):
        text = _scramble(rng, print_graph(_random_bundle(rng)))
        got = _outcome(text, parse_graph)
        assert got[0] == "ok", (text, got)
        assert got == _outcome(text, reference_parse_graph), text


BROKEN_LINES = [
    "edge a", "edge a b c", "edge a b *x", "edge a b *", "edge *2",
    "triple a a b", "triple a b", "triple a b c d", "triple a b c *q",
    "list a b", "list (a,b) junk", "list", "list (a,b,c)",
    "vertex", "vertex a b c", "vertex a strange", "bogus x", "Edge a b",
]


def test_parser_matches_reference_on_broken_files():
    rng = random.Random(13)
    for _ in range(400):
        lines = _scramble(rng, print_graph(_random_bundle(rng))).splitlines()
        for _ in range(rng.randint(1, 2)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(BROKEN_LINES))
        text = "\n".join(lines)
        got = _outcome(text, parse_graph)
        assert got[0] is ParseError, (text, got)
        assert got == _outcome(text, reference_parse_graph), text
