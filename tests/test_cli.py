import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import eqcut
from eqcut.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def table1_path(tmp_path):
    text = resources.files("eqcut").joinpath("data/table1.rel").read_text()
    p = tmp_path / "table1.rel"
    p.write_text(text)
    return str(p)


def test_classify_text_and_machine(table1_path, capsys):
    code, out, _ = run_cli(["classify", "--in", table1_path], capsys)
    assert code == 0 and "verdict" in out
    code, out1, _ = run_cli(
        ["classify", "--in", table1_path, "--report", "machine"], capsys)
    code, out2, _ = run_cli(
        ["classify", "--in", table1_path, "--report", "machine"], capsys)
    assert out1 == out2  # deterministic mode: byte-identical reports
    rep = json.loads(out1)
    assert len(rep["relations"]) == 12


def test_classify_with_constants(tmp_path, capsys):
    p = tmp_path / "eq.rel"
    p.write_text("relation eq 2\ntuple 1 1\n")
    for constants, case, mincsp in [("1", "trivial", "P"),
                                    ("2", "boolean-equivalent", "P"),
                                    ("inf", "positive-conjunctive-family",
                                     "NP-hard")]:
        code, out, _ = run_cli(
            ["classify", "--in", str(p), "--constants", constants,
             "--report", "machine"], capsys)
        assert code == 0
        verdict = json.loads(out)["verdict"]
        assert verdict["parameterized"] == "FPT"
        assert (verdict["case"], verdict["mincsp"]) == (case, mincsp)


@pytest.mark.parametrize("constants", ["abc", "0", "-1"])
def test_bad_constants_error_names_the_option(tmp_path, capsys, constants):
    p = tmp_path / "eq.rel"
    p.write_text("relation eq 2\ntuple 1 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--in", str(p), "--constants", constants])
    assert exc.value.code == 2
    assert "--constants" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["abc", "0", "-3"])
def test_bad_trials_error_names_the_option(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["verify-lemmas", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_solve_oracle_wheel(tmp_path, capsys):
    from eqcut.formats import print_instance
    from eqcut.gadgets import wheel

    w = wheel(range(3))
    p = tmp_path / "wheel_t3.inst"
    p.write_text(print_instance(w.instance))
    code, out, _ = run_cli(
        ["solve", "oracle", "--in", str(p), "-k", "5", "--report", "machine"],
        capsys)
    assert code == 0
    assert json.loads(out)["cost"] == 5
    code, _, _ = run_cli(["solve", "oracle", "--in", str(p), "-k", "4"], capsys)
    assert code == 1  # reject: cost 5 > 4


def test_solve_djmc_and_triple(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge s a\nedge a t\nlist (s,t)\n")
    code, out, _ = run_cli(
        ["solve", "djmc", "--in", str(p), "-k", "1", "--report", "machine"],
        capsys)
    assert code == 0 and json.loads(out)["accepted"]

    p2 = tmp_path / "t.graph"
    p2.write_text("graph t\nedge a b\nedge b c\nedge a c\ntriple a b c\n")
    code, out, _ = run_cli(
        ["solve", "triple-mc", "--in", str(p2), "-k", "1",
         "--report", "machine"], capsys)
    assert code == 0 and json.loads(out)["accepted"]
    code, _, _ = run_cli(["solve", "triple-mc", "--in", str(p2), "-k", "0"],
                         capsys)
    assert code == 1


def test_reduce_verify(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\nedge b c\nedge a c\nlist (a,c)\n")
    out_path = tmp_path / "out.inst"
    code, out, _ = run_cli(
        ["reduce", "multicut-to-mincsp", "--in", str(p), "--out",
         str(out_path), "--verify", "--report", "machine"], capsys)
    assert code == 0
    assert json.loads(out)["oracle_equal"] is True
    assert "soft = a b" in out_path.read_text()


def test_reduce_verify_infeasible_triple_mc(tmp_path, capsys):
    # a crisp constraint no assignment satisfies: the reduction reports
    # infeasible, and --verify must still compare it with the oracle
    p = tmp_path / "x.inst"
    p.write_text("crisp neq3 a a b\n")
    code, out, _ = run_cli(
        ["reduce", "mincsp-to-triple-mc", "--in", str(p), "--out",
         str(tmp_path / "out.g"), "-k", "1", "--verify", "--report",
         "machine"], capsys)
    report = json.loads(out)
    assert code == 0 and report["infeasible"] is True
    assert report["oracle_equal"] is True


def test_reduce_hitting_set(tmp_path, capsys):
    # a set of 3 or more elements takes the ODD3 chain step
    p = tmp_path / "sets.txt"
    p.write_text("set a b\nset b c\nset a c d\n")
    for name in ("hs-to-odd3", "hs-to-odd3-constants"):
        out_path = tmp_path / f"{name}.inst"
        code, out, _ = run_cli(
            ["reduce", name, "--in", str(p), "--out", str(out_path),
             "--verify", "--report", "machine"], capsys)
        assert code == 0 and json.loads(out)["oracle_equal"] is True
        assert out_path.read_text().startswith("instance")


def test_verify_lemmas_all_pass(capsys):
    code, out, _ = run_cli(["verify-lemmas", "--trials", "2", "--seed", "0"],
                           capsys)
    lines = out.splitlines()
    assert code == 0
    assert sum(line.startswith("PASS") for line in lines) == 14
    assert not any(line.startswith("FAIL") for line in lines)


def test_solve_neg_fpt_accept_and_reject(tmp_path, capsys):
    # neq3 on three variables all assigned 1: dropping it costs 1
    p = tmp_path / "neg.inst"
    p.write_text("soft-assign x = 1\nsoft-assign y = 1\nsoft-assign z = 1\n"
                 "soft neq3 x y z\n")
    for k, code_expected in (("1", 0), ("0", 1)):
        code, out, _ = run_cli(["solve", "neg-fpt", "--in", str(p), "-k", k,
                                "--report", "machine"], capsys)
        assert code == code_expected
        assert json.loads(out)["accepted"] is (code_expected == 0)


@pytest.mark.parametrize("name,filename,text", [
    # every list names exactly 3 vertices, one NAE3 gadget each
    ("steiner-to-nae3", "g.graph",
     "graph g\nedge a b\nedge b c\nedge a c\nedge c d\nedge d e\n"
     "edge e a\nlist (a,b) (b,c)\nlist (c,d) (d,e)\n"),
    ("rneq-to-djmc", "r.inst",
     "soft rneq1 a b\nsoft rneq2 a b c d\ncrisp rneq1 c d\nsoft = a b\n"),
    # the pair (x, x) never differs: the constraint is y != z
    ("rneq-to-djmc", "r.inst", "soft rneq2 x x y z\n"),
    ("mincsp-to-triple-mc", "t.inst",
     "soft = a b\ncrisp != a b\nsoft neq3 a b c\n"),
])
def test_reduce_verify_matches_oracle(tmp_path, capsys, name, filename, text):
    p = tmp_path / filename
    p.write_text(text)
    code, out, _ = run_cli(
        ["reduce", name, "--in", str(p), "--out", str(tmp_path / "out"),
         "-k", "2", "--verify", "--report", "machine"], capsys)
    assert code == 0 and json.loads(out)["oracle_equal"] is True


@pytest.mark.parametrize("text,message", [
    ("set a b\nelem c\n", "line 2: expected 'set ...', got 'elem'"),
    ("set a\nset\n", "line 2: empty set"),
])
def test_hitting_set_parse_errors(tmp_path, capsys, text, message):
    p = tmp_path / "sets.txt"
    p.write_text(text)
    code, out, err = run_cli(["reduce", "hs-to-odd3", "--in", str(p)], capsys)
    assert code == 2 and out == "" and message in err


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.rel"
    p.write_text("relation r 2\ntuple 1 2 3\n")
    code, _, err = run_cli(["classify", "--in", str(p)], capsys)
    assert code == 2 and "line 2" in err


@pytest.mark.parametrize("text,line,message", [
    ("relation r 2\ntuple 1 2\n\nrelation r 2\ntuple 1 1\n", 4,
     "duplicate relation name 'r'"),
    ("relation eq 2\ntuple 1 1\nrelation big 9\ntuple 1 1 1 1 1 1 1 1 1\n", 3,
     "arity 9 exceeds cap 8"),
    ("relation eq 2\ntuple 1 1\n\nrelation r 0\n", 4,
     "arity must be positive"),
    ("relation r -1\ntuple\n", 1, "arity must be positive"),
    # indices start at 1; x0 is no position of a tuple
    ("relation r 3\ncnf x0 != x1\n", 2, "index x0 outside arity 3"),
], ids=["duplicate-name", "arity-over-cap", "arity-zero", "arity-negative",
        "cnf-index-zero"])
def test_relation_stanza_error_names_its_line(tmp_path, capsys, text, line,
                                              message):
    p = tmp_path / "bad.rel"
    p.write_text(text)
    code, _, err = run_cli(["classify", "--in", str(p)], capsys)
    assert code == 2 and f"line {line}: {message}" in err


@pytest.mark.parametrize("text,line", [
    ("edge a b *x\n", 1),
    ("edge a b\nedge b c\ntriple a b c *\n", 3),
], ids=["edge", "triple"])
def test_graph_multiplicity_error_names_line(tmp_path, capsys, text, line):
    p = tmp_path / "g.graph"
    p.write_text(text)
    code, _, err = run_cli(["solve", "triple-mc", "--in", str(p), "-k", "1"],
                           capsys)
    assert code == 2 and f"line {line}: bad multiplicity" in err


def test_negative_edge_multiplicity_is_input_error_at_its_line(tmp_path, capsys):
    # *-1 and *2 on one edge used to load as one edge of multiplicity 1
    p = tmp_path / "g.graph"
    p.write_text("edge a b *-1\nedge a b *2\nedge b c\n")
    code, _, err = run_cli(["solve", "steiner2x", "--in", str(p), "-k", "1"],
                           capsys)
    assert code == 2 and "line 1: multiplicity must be positive" in err


def test_report_command_is_the_parsed_argv(table1_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--flag"])
    argv = ["classify", "--in", table1_path, "--report", "machine"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["command"] == " ".join(argv)


def test_strict_steiner_accept_reject_and_empty_graph(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a h\nedge h b\nlist (a,b)\n")
    for k, code_expected, solution in (("1", 0, ["a"]), ("0", 1, None)):
        code, out, _ = run_cli(
            ["solve", "strict-steiner", "--in", str(p), "--hub", "h", "-k", k,
             "--report", "machine"], capsys)
        report = json.loads(out)
        assert code == code_expected
        assert report["accepted"] is (code_expected == 0)
        assert report["solution"] == solution
    p.write_text("graph g\n")
    code, out, err = run_cli(["solve", "strict-steiner", "--in", str(p),
                              "-k", "1"], capsys)
    assert code == 2 and out == "" and err == "error: empty graph\n"


def test_solve_djmc_requires_k(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\nlist (a,b)\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "djmc", "--in", str(p)])
    assert exc.value.code == 2
    assert "requires -k" in capsys.readouterr().err


def test_random_mode_adds_wall_clock(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\nlist (a,b)\n")
    argv = ["solve", "djmc", "--in", str(p), "-k", "1", "--report", "machine"]
    _, det, _ = run_cli(argv, capsys)
    _, rand, _ = run_cli(argv + ["--mode", "random"], capsys)
    assert "wall_clock_ms" not in json.loads(det)
    assert json.loads(rand)["wall_clock_ms"] >= 0


def test_classify_empty_relation_is_an_error(tmp_path, capsys):
    p = tmp_path / "empty.rel"
    p.write_text("relation r 2\n")
    for constants in ([], ["--constants", "2"], ["--constants", "inf"]):
        code, out, err = run_cli(
            ["classify", "--in", str(p), *constants], capsys)
        assert code == 2 and out == ""
        assert err == "error: relation 'r' is empty\n"


def test_strict_steiner_bad_hub_exit_code(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\nvertex x\nlist (a,b)\n")
    code, _, err = run_cli(
        ["solve", "strict-steiner", "--in", str(p), "--hub", "x", "-k", "1"],
        capsys)
    assert code == 2 and "hub" in err



@pytest.mark.parametrize("lists", ["", "list (a,b)\n"])
def test_strict_steiner_unknown_hub_names_the_option(tmp_path, capsys, lists):
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\n" + lists)
    code, out, err = run_cli(
        ["solve", "strict-steiner", "--in", str(p), "--hub", "nosuch",
         "-k", "1"], capsys)
    assert code == 2 and out == "" and "--hub nosuch" in err


def test_steiner2x_rejects_a_one_terminal_set(tmp_path, capsys):
    # `list (a,a)` is the terminal set {a}, which no cut satisfies
    p = tmp_path / "g.graph"
    p.write_text("graph g\nedge a b\nlist (a,a)\n")
    code, out, err = run_cli(
        ["solve", "steiner2x", "--in", str(p), "-k", "2",
         "--report", "machine"], capsys)
    assert code == 1 and err == ""
    assert json.loads(out)["accepted"] is False


@pytest.mark.parametrize("argv, text", [
    (["solve", "djmc"], "graph g\nedge a b\nlist (a,a)\n"),
    (["solve", "triple-mc"],
     "graph g\nvertex a\nvertex b\nvertex c\ntriple a b c\n"),
    (["reduce", "multicut-to-mincsp"], "graph g\nedge a b\nlist (a,b)\n"),
])
@pytest.mark.parametrize("k", ["-1", "x"])
def test_budget_must_be_a_non_negative_integer(tmp_path, capsys, argv, text,
                                               k):
    p = tmp_path / "in.graph"
    p.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--in", str(p), "-k", k])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument -k" in out.err


@pytest.mark.parametrize("name", ["hs-to-odd3", "hs-to-odd3-constants"])
@pytest.mark.parametrize("element", ["pad1", "q1"])
def test_hitting_set_padding_avoids_element_names(tmp_path, capsys, name,
                                                  element):
    p = tmp_path / "hs.txt"
    p.write_text(f"set {element}\n")
    code, out, _ = run_cli(["reduce", name, "--in", str(p), "-k", "1",
                            "--verify", "--report", "machine"], capsys)
    rep = json.loads(out.splitlines()[-1])
    assert code == 0 and rep["oracle_equal"] is True
    pad = "pad2" if element == "pad1" else "pad1"
    assert rep["notes"] == [f"set 0 padded with dummy element {pad}"]


@pytest.mark.parametrize("var", ["t.const1", "u1"])
def test_emulate_constants_anchors_avoid_variable_names(tmp_path, capsys,
                                                        var):
    p = tmp_path / "c.inst"
    p.write_text(f"var {var}\nvar y\ncrisp-assign y = 1\n"
                 f"crisp-assign {var} = 2\n")
    code, out, _ = run_cli(["reduce", "emulate-constants", "--in", str(p),
                            "--verify", "--report", "machine"], capsys)
    assert code == 0 and json.loads(out.splitlines()[-1])["oracle_equal"]

def _subprocess_env(**extra):
    # run the package under test even when it is not installed
    src = str(Path(eqcut.__file__).parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_entrypoint_subprocess(tmp_path):
    p = tmp_path / "eq.rel"
    p.write_text("relation eq 2\ntuple 1 1\n")
    for module in ("eqcut.cli", "eqcut"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "classify", "--in", str(p)],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "verdict" in proc.stdout


def test_classify_with_many_constants_is_fast(tmp_path):
    # the slice flags come from the relations' patterns, not from the
    # c^arity tuples over c constants
    p = tmp_path / "horn.rel"
    p.write_text("relation eq3 3\ntuple 1 1 1\n"
                 "relation eq12 3\ntuple 1 1 1\ntuple 1 1 2\n")
    verdicts = {}
    for c in ("7", "1000000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "eqcut", "classify", "--in", str(p),
             "--constants", c, "--report", "machine"],
            capture_output=True, text=True, env=_subprocess_env(), timeout=10)
        assert proc.returncode == 0, proc.stderr
        verdicts[c] = json.loads(proc.stdout)["verdict"]
    small, big = verdicts["7"], verdicts["1000000000"]
    assert small["notes"] == ["connected: multiway cut (c=7)"]
    assert big == {**small, "notes": ["connected: multiway cut (c=1000000000)"]}


def test_repeated_in_process_calls_match_fresh_processes(tmp_path, capsys):
    # main() shares one parser and the bundled languages across calls; no
    # option value or report field may carry over from an earlier call
    rel = tmp_path / "eq.rel"
    rel.write_text("relation eq 2\ntuple 1 1\n")
    inst = tmp_path / "c.inst"
    inst.write_text("soft-assign x = 1\nsoft-assign y = 2 *2\nsoft = x y\n"
                    "crisp odd3 x y z\n")
    calls = [
        ["solve", "nosuch", "--in", str(inst)],
        ["classify", "--in", str(rel), "--constants", "1",
         "--report", "machine"],
        ["classify", "--in", str(rel), "--report", "machine"],
        ["solve", "oracle", "--in", str(inst), "-k", "2",
         "--report", "machine"],
        ["reduce", "emulate-constants", "--in", str(inst), "--verify",
         "--report", "machine"],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "eqcut.cli", *argv],
            capture_output=True, text=True, env=_subprocess_env())
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in in_process] == [2, 0, 0, 0, 0]
    assert in_process == fresh
    for argv, (_, out) in zip(calls[1:], in_process[1:]):
        assert json.loads(out.splitlines()[-1])["command"] == " ".join(argv)


# Inputs whose reported solution used to follow string hashing: a set of
# implication-graph nodes in triple-mc, the order of the start set in
# steiner2x.
_V = "".join(f"vertex v{i}\n" for i in range(8))
HASH_SEED_CASES = [
    ("triple-mc", "3", _V + "edge v0 v1\nedge v1 v6\nedge v3 v5\n"
     "edge v4 v5\nedge v4 v6\ntriple v2 v3 v6\n"),
    ("steiner2x", "1", _V + "edge v0 v4\nedge v1 v2\nedge v1 v5\n"
     "edge v2 v3\nedge v2 v5\nedge v2 v6\nedge v4 v6\nedge v4 v7\n"
     "list (v4,v7)\nlist (v5,v6)\n"),
]


@pytest.mark.parametrize("solver,k,text", HASH_SEED_CASES,
                         ids=[c[0] for c in HASH_SEED_CASES])
def test_det_report_independent_of_hash_seed(tmp_path, solver, k, text):
    p = tmp_path / "g.graph"
    p.write_text(text)
    outs = [subprocess.run(
        [sys.executable, "-m", "eqcut.cli", "solve", solver, "--in", str(p),
         "-k", k, "--report", "machine"],
        capture_output=True, text=True,
        env=_subprocess_env(PYTHONHASHSEED=seed)) for seed in ("0", "1")]
    assert all(o.returncode == 0 for o in outs)
    assert outs[0].stdout == outs[1].stdout


def test_nonpositive_triple_multiplicity_is_input_error(tmp_path, capsys):
    p = tmp_path / "g.graph"
    p.write_text("edge a b\nedge b c\ntriple a b c *-2\n")
    code, _, err = run_cli(["solve", "triple-mc", "--in", str(p), "-k", "0"],
                           capsys)
    assert code == 2 and "multiplicity" in err


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_bad_oracle_cap_error_names_the_variable(tmp_path, capsys,
                                                  monkeypatch, value):
    p = tmp_path / "c.inst"
    p.write_text("soft = x y\n")
    monkeypatch.setenv("EQCUT_ORACLE_CAP", value)
    code, _, err = run_cli(["solve", "oracle", "--in", str(p), "-k", "0"],
                           capsys)
    assert code == 2
    assert err == f"error: EQCUT_ORACLE_CAP must be an integer, got {value!r}\n"


@pytest.mark.parametrize("text", ["", "relation eq 2\ntuple 1 1\n",
                                  "é中\U0001f600\n" * 40])
def test_input_digest_is_the_sha256_prefix(text):
    import hashlib

    from eqcut.cli import _digest

    assert _digest(text) == hashlib.sha256(text.encode()).hexdigest()[:16]


def test_cli_import_leaves_openssl_unloaded():
    # the digest comes from the interpreter's built-in sha256 module where
    # there is one; hashlib would load the OpenSSL binding _hashlib
    code = ("import importlib.util, sys\n"
            "import eqcut.cli\n"
            "builtin = any(importlib.util.find_spec(m) for m in "
            "('_sha2', '_sha256'))\n"
            "print(builtin, '_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    builtin, loaded = proc.stdout.split()
    if builtin == "True":
        assert loaded == "False"
