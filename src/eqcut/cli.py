"""Command-line front end: classify, solve, reduce, verify-lemmas.

Exit codes: 0 accept / success, 1 reject, 2 usage or input error.
Reports are JSON in --report machine mode; deterministic mode omits
wall-clock so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import lru_cache

from . import formats
from .classify import ImproperRelationError, classify_language
from .instances import brute_force_cost
from .relations import EqLanguage
from .singleton import ClassificationGap, SingletonExpansion, classify_expansion

try:  # the interpreter's own sha256: hashlib would load OpenSSL (_hashlib)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def _digest(text: str) -> str:
    return sha256(text.encode()).hexdigest()[:16]


def _report(args, payload: dict, started: float) -> dict:
    rep = {"command": " ".join(args.argv), **payload}
    if args.mode != "det":
        rep["wall_clock_ms"] = round(1000 * (time.time() - started), 3)
    return rep


# json.dumps(rep, sort_keys=True) builds this encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True)


def _read(path: str) -> str:
    """The text of an input file, decoded as `Path.read_text` decodes it."""
    with open(path) as f:
        return f.read()


def _emit(args, rep: dict):
    if args.report == "machine":
        print(_ENCODER.encode(rep))
    else:
        for key, val in rep.items():
            if key == "command":
                continue
            print(f"{key}: {val}")


def cmd_classify(args) -> int:
    started = time.time()
    text = _read(args.infile)
    lang = formats.parse_relations(text)
    payload = {"input_digest": _digest(text), "relations": lang.names()}
    try:
        if args.constants is None:
            verdict = classify_language(lang, with_eq_neq=args.with_eq_neq)
        else:
            verdict = classify_expansion(
                SingletonExpansion(lang, args.constants))
    except (ImproperRelationError, ClassificationGap) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    payload["verdict"] = verdict.as_dict()
    _emit(args, _report(args, payload, started))
    return EXIT_ACCEPT


def cmd_solve(args) -> int:
    started = time.time()
    text = _read(args.infile)
    payload: dict = {"input_digest": _digest(text), "solver": args.solver}
    k = args.k

    if args.solver == "oracle":
        inst = formats.parse_instance(text, _default_language())
        rep = brute_force_cost(inst)
        payload["cost"] = rep.cost if rep.cost != float("inf") else "inf"
        accepted = k is None or rep.cost <= k
    elif args.solver == "neg-fpt":
        from .solvers import negative_fpt_solve

        inst = formats.parse_instance(text, _default_language())
        accepted = negative_fpt_solve(inst, _require_k(k))
        payload["accepted"] = accepted
    elif args.solver == "djmc":
        from .djmc import solve_djmc

        bundle = formats.parse_graph(text)
        res = solve_djmc(bundle.graph, bundle.lists, _require_k(k))
        accepted = res.accepted
        payload["accepted"] = accepted
        payload["solution"] = sorted(res.solution)
    elif args.solver == "steiner2x":
        from .solvers import steiner_2approx

        bundle = formats.parse_graph(text)
        t_sets = [sorted(lst.vertices()) for lst in bundle.lists]
        out = steiner_2approx(bundle.graph, t_sets, _require_k(k))
        accepted = out is not None
        payload["accepted"] = accepted
        payload["solution"] = sorted(out) if out is not None else None
    elif args.solver == "strict-steiner":
        from .solvers import strict_steiner

        bundle = formats.parse_graph(text)
        if not bundle.graph.vertices:
            print("error: empty graph", file=sys.stderr)
            return EXIT_ERROR
        hub = args.hub or bundle.graph.vertices[0]
        if hub not in bundle.graph.vertices:
            print(f"error: --hub {hub} is not a vertex of the graph",
                  file=sys.stderr)
            return EXIT_ERROR
        t_sets = [sorted(lst.vertices()) for lst in bundle.lists]
        out = strict_steiner(bundle.graph, hub, t_sets, _require_k(k))
        accepted = out is not None
        payload["accepted"] = accepted
        payload["solution"] = sorted(out) if out is not None else None
    elif args.solver == "triple-mc":
        from .triple_multicut import triple_multicut

        bundle = formats.parse_graph(text)
        res = triple_multicut(bundle.graph, bundle.triples, _require_k(k))
        accepted = res.feasible
        payload["accepted"] = accepted
        payload["deleted_vertices"] = sorted(res.z_v)
        payload["deleted_triples"] = [sorted(t) for t in sorted(res.z_t, key=sorted)]
    _emit(args, _report(args, payload, started))
    return EXIT_ACCEPT if accepted else EXIT_REJECT


def _require_k(k):
    if k is None:
        print("error: this solver requires -k", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    return k


@lru_cache(maxsize=None)
def _default_language() -> EqLanguage:
    """Table 1's relations, parsed once per process; the language is frozen,
    so every call shares it."""
    from importlib import resources

    text = resources.files("eqcut").joinpath("data/table1.rel").read_text()
    return formats.parse_relations(text)


def cmd_reduce(args) -> int:
    started = time.time()
    text = _read(args.infile)
    payload: dict = {"input_digest": _digest(text), "reduction": args.name}
    out_text = ""

    if args.name == "multicut-to-mincsp":
        from .gadgets import edge_multicut_to_mincsp

        bundle = formats.parse_graph(text)
        requests = [tuple(sorted(p)) for lst in bundle.lists
                    for p in lst.pairs if len(p) == 2]
        inst, k = edge_multicut_to_mincsp(bundle.graph, requests, args.k or 0)
        out_text = formats.print_instance(inst)
        if args.verify:
            from .oracles import edge_multicut_opt

            a = edge_multicut_opt(bundle.graph, requests)
            b = brute_force_cost(inst).cost
            payload["oracle_equal"] = (a == b) or (a is None and b == float("inf"))
            payload["cost"] = "inf" if b == float("inf") else b
    elif args.name == "steiner-to-nae3":
        from .gadgets import steiner_to_nae3

        bundle = formats.parse_graph(text)
        t_sets = [sorted(lst.vertices()) for lst in bundle.lists]
        inst, k = steiner_to_nae3(bundle.graph, t_sets, args.k or 0)
        out_text = formats.print_instance(inst)
        if args.verify:
            from .oracles import steiner_multicut_edge_opt

            a = steiner_multicut_edge_opt(bundle.graph, t_sets)
            b = brute_force_cost(inst).cost
            payload["oracle_equal"] = a == b
    elif args.name == "mincsp-to-triple-mc":
        from .gadgets import mincsp_to_triple_multicut

        inst = formats.parse_instance(text, _default_language())
        red = mincsp_to_triple_multicut(inst, args.k or 0)
        bundle = formats.GraphBundle(red.graph, [], red.triples, "reduced")
        out_text = formats.print_graph(bundle)
        payload["budget"] = red.budget
        payload["infeasible"] = red.infeasible
        if args.verify:
            from .oracles import triple_multicut_opt

            a = brute_force_cost(inst).cost <= (args.k or 0)
            b = False
            if not red.infeasible:
                opt = triple_multicut_opt(red.graph, red.triples)
                b = opt is not None and opt <= red.budget
            payload["oracle_equal"] = a == b
    elif args.name == "rneq-to-djmc":
        from .gadgets import rneq_to_disjunctive_multicut

        inst = formats.parse_instance(text, _rneq_language())
        g, lists, offset = rneq_to_disjunctive_multicut(inst)
        bundle = formats.GraphBundle(g, lists, formats.TripleSet(()), "reduced")
        out_text = formats.print_graph(bundle)
        payload["offset"] = offset
        if args.verify:
            from .oracles import djmc_cost

            a = brute_force_cost(inst).cost
            c = djmc_cost(g, lists)
            payload["oracle_equal"] = (
                a == (c + offset) if c is not None else a == float("inf"))
    elif args.name == "emulate-constants":
        from .gadgets import emulate_constants

        inst = formats.parse_instance(text, _default_language())
        out = emulate_constants(inst)
        out_text = formats.print_instance(out)
        if args.verify:
            payload["oracle_equal"] = (
                brute_force_cost(inst).cost == brute_force_cost(out).cost)
    elif args.name in ("hs-to-odd3", "hs-to-odd3-constants"):
        from .gadgets import hitting_set_to_odd3, hitting_set_to_odd3_constants

        elements, sets = _parse_sets(text)
        build = (hitting_set_to_odd3 if args.name == "hs-to-odd3"
                 else hitting_set_to_odd3_constants)
        inst, _k, notes = build(elements, sets, args.k or 0)
        out_text = formats.print_instance(inst)
        payload["notes"] = list(notes)
        if args.verify:
            from .oracles import hitting_set_opt

            opt = hitting_set_opt(sets, elements)
            cost = brute_force_cost(inst).cost
            payload["oracle_equal"] = (
                opt is not None and cost == len(opt))

    if args.outfile:
        with open(args.outfile, "w") as f:
            f.write(out_text)
    else:
        sys.stdout.write(out_text)
    _emit(args, _report(args, payload, started))
    if args.verify and payload.get("oracle_equal") is False:
        return EXIT_REJECT
    return EXIT_ACCEPT


@lru_cache(maxsize=None)
def _rneq_language() -> EqLanguage:
    from .relations import rneq_relation

    return EqLanguage.of(rneq_relation(1), rneq_relation(2), rneq_relation(3))


def _parse_sets(text: str):
    """Hitting-set input: one `set a b c` line per set."""
    elements: dict = {}  # an ordered set: members in first-seen order
    sets: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] != "set":
            raise formats.ParseError(lineno, f"expected 'set ...', got {words[0]!r}")
        members = words[1:]
        if not members:
            raise formats.ParseError(lineno, "empty set")
        sets.append(members)
        elements.update(dict.fromkeys(members))
    return list(elements), sets


def cmd_verify_lemmas(args) -> int:
    """Re-run the oracle checks behind the gadget and solver lemmas."""
    started = time.time()
    rng = random.Random(args.seed)
    failures: list[str] = []

    def check(label: str, ok: bool):
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    from . import verify

    for label, ok in verify.run_all(rng, trials=args.trials):
        check(label, ok)

    rep = _report(args, {"failures": failures}, started)
    _emit(args, rep)
    return EXIT_ACCEPT if not failures else EXIT_REJECT


def _count(text: str, low: int, expected: str) -> int:
    """An integer option value of at least low; the error names what was
    expected."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if n < low:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return n


def _constants(text: str):
    """`--constants` value: a positive count or 'inf'."""
    return text if text == "inf" else _count(
        text, 1, "a positive integer or 'inf'")


def _budget(text: str) -> int:
    """`-k` value: a non-negative count."""
    return _count(text, 0, "a non-negative integer")


def _trials(text: str) -> int:
    """`--trials` value: a positive count."""
    return _count(text, 1, "a positive integer")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The `eqcut` parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="eqcut",
        description="equality-language MinCSP classification, reductions, "
                    "and parameterized cut solvers")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict = {}

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        commands[name] = p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    p = command("classify", cmd_classify, "classify a relation file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--constants", type=_constants, default=None,
                   help="classify the singleton expansion: a count or 'inf'")
    p.add_argument("--with-eq-neq", action="store_true",
                   help="add binary = and != to the language first")
    p.add_argument("--report", choices=["text", "machine"], default="text")
    p.add_argument("--mode", choices=["det", "random"], default="det")

    p = command("solve", cmd_solve, "run a solver on an instance or graph")
    p.add_argument("solver", choices=["djmc", "steiner2x", "strict-steiner",
                                      "triple-mc", "oracle", "neg-fpt"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("-k", type=_budget, default=None)
    p.add_argument("--hub", default=None, help="hub vertex for strict-steiner")
    p.add_argument("--mode", choices=["det", "random"], default="det")
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = command("reduce", cmd_reduce, "run a reduction, optionally verified")
    p.add_argument("name", choices=["multicut-to-mincsp", "steiner-to-nae3",
                                    "mincsp-to-triple-mc", "rneq-to-djmc",
                                    "emulate-constants", "hs-to-odd3",
                                    "hs-to-odd3-constants"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("-k", type=_budget, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--mode", choices=["det", "random"], default="det")
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = command("verify-lemmas", cmd_verify_lemmas,
                "oracle checks behind the gadget and solver lemmas")
    p.add_argument("--trials", type=_trials, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["det", "random"], default="det")
    p.add_argument("--report", choices=["text", "machine"], default="text")
    return parser, commands


# Built once per process: parse_args reads the parsers and never changes
# them, so repeated main() calls share them.
_PARSER, _COMMANDS = _build_parser()


def _parse(argv) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`, through the subcommand's own parser.

    `_PARSER` hands everything after a subcommand name to that
    subcommand's parser, whose errors and help are its own, and then
    rejects any arguments it left over; so the subparser alone gives the
    same namespace.  `_PARSER` still parses an argv that names no
    subcommand first (help, usage errors) or leaves arguments over, so
    that its own messages report them.
    """
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    args.argv = argv
    try:
        return args.func(args)
    except (formats.ParseError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
