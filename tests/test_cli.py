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
    p = tmp_path / "sets.txt"
    p.write_text("set a b\nset b c\n")
    for name in ("hs-to-odd3", "hs-to-odd3-constants"):
        out_path = tmp_path / f"{name}.inst"
        code, out, _ = run_cli(
            ["reduce", name, "--in", str(p), "--out", str(out_path),
             "--verify", "--report", "machine"], capsys)
        assert code == 0 and json.loads(out)["oracle_equal"] is True
        assert out_path.read_text().startswith("instance")


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.rel"
    p.write_text("relation r 2\ntuple 1 2 3\n")
    code, _, err = run_cli(["classify", "--in", str(p)], capsys)
    assert code == 2 and "line 2" in err


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


def test_report_command_is_the_parsed_argv(table1_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host", "--flag"])
    argv = ["classify", "--in", table1_path, "--report", "machine"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["command"] == " ".join(argv)


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
