"""`eqcut.cli` parses each argv through the parser of the subcommand it
names, and must agree with the `eqcut` parser it stands for: the same exit
code, the same help or error text, and the same namespace."""

import pytest

from eqcut import cli

# Help, usage errors, abbreviations, attached values, repeated and negative
# values, leftover arguments, `--`, and positionals after options.
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["nosuch"], ["nosuch", "--in", "x"],
    ["--in", "x", "classify"], ["classify"], ["classify", "--in", "x"],
    ["classify", "--in=x"], ["classify", "--in", "x", "--rep", "machine"],
    ["classify", "--in", "x", "--with"],
    ["classify", "--in", "x", "--constants", "0"],
    ["classify", "--in", "x", "--constants", "inf", "--mode", "random"],
    ["classify", "--in", "x", "extra"], ["classify", "--in", "x", "--bogus"],
    ["classify", "--in", "x", "--"], ["classify", "-h"],
    ["solve"], ["solve", "-h"], ["solve", "djmc"],
    ["solve", "dj", "--in", "x"],
    ["solve", "djmc", "--in", "x", "-k2"],
    ["solve", "djmc", "--in", "x", "-k", "1", "-k", "3"],
    ["solve", "djmc", "--in", "x", "-k", "-1"],
    ["solve", "--in", "x", "-k", "1", "triple-mc"],
    ["solve", "--", "djmc", "--in", "x"],
    ["solve", "strict-steiner", "--in", "x", "--hub", "h", "-k", "0"],
    ["solve", "oracle", "--in", "x", "djmc"],
    ["reduce", "emulate-constants", "--in", "x", "--out", "y", "--verify"],
    ["reduce", "hs-to-odd3", "--in", "x", "--ver", "-k", "x"],
    ["verify-lemmas"], ["verify-lemmas", "--trials", "0"],
    ["verify-lemmas", "--trials", "2", "--seed", "-3", "--report", "machine"],
    ["verify-lemmas", "--seed"],
]


def _parse_outcome(parse, argv, capsys):
    try:
        code, values = None, vars(parse(argv))
    except SystemExit as e:
        code, values = e.code, None
    out = capsys.readouterr()
    return code, out.out, out.err, values


@pytest.mark.parametrize("argv", PARSE_CORPUS,
                         ids=lambda argv: " ".join(argv) or "no-arguments")
def test_subcommand_dispatch_parses_as_the_eqcut_parser(argv, capsys):
    assert (_parse_outcome(cli._parse, argv, capsys)
            == _parse_outcome(cli._PARSER.parse_args, argv, capsys))
