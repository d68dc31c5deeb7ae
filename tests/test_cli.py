"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os
import subprocess
import sys

import pytest

import syl
from syl import cli, shooting


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert err == ""
    return code, json.loads(out)


# ------------------------------------------------------------ happy paths


def test_cylinder_command_reports_equilibrium_data(capsys):
    code, doc = _run_json(capsys, ["cylinder", "--n", "5", "--k", "2"])
    assert code == 0
    assert doc["command"] == "cylinder"
    assert doc["xi_cyl"] == math.log(2.0) / 4.0
    assert abs(doc["sigma_k_residual"]) < 1e-12
    assert doc["bifurcation_threshold"] == math.exp(math.pi)
    assert doc["config"]["n"] == 5 and doc["config"]["k"] == 2


def test_cli_output_is_deterministic(capsys):
    argv = ["cylinder", "--n", "7", "--k", "3"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n") and not out1.endswith("\n\n")


def test_cone_check_membership_and_sigmas(capsys):
    code, doc = _run_json(
        capsys, ["cone-check", "--k", "2", "--lam=-0.5,0.5,0.5,0.5,0.5"])
    assert code == 0
    assert doc["in_gamma_k"] is True
    assert doc["sigmas"]["sigma_1"] == pytest.approx(1.5)
    assert doc["sigmas"]["sigma_2"] == pytest.approx(0.5)

    code, doc = _run_json(
        capsys, ["cone-check", "--k", "3", "--lam=-0.5,0.5,0.5,0.5,0.5"])
    assert code == 0
    assert doc["in_gamma_k"] is False
    assert doc["sigmas"]["sigma_3"] == pytest.approx(-0.25)


def test_documents_are_strict_json(capsys, tmp_path):
    # sigma_2 of this vector overflows; strict JSON has no Infinity or NaN.
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")

    argv = ["cone-check", "--k", "2", "--lam=1e200,1e200,1e200",
            "--out", str(tmp_path)]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    doc = json.loads(out, parse_constant=refuse)
    assert doc["sigmas"] == {"sigma_1": 3e200, "sigma_2": None}
    assert doc["in_gamma_k"] is True
    assert (tmp_path / "result.json").read_text() == out


def test_the_package_imports_without_scipy():
    # scipy is needed only by the benchmark and the tests that pin the
    # integrator and root finder to it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(syl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, syl, syl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_solve_annulus_command_finds_the_equilibrium(capsys):
    xi_c = shooting.cylinder_solution(5, 2)[0]
    code, doc = _run_json(capsys, [
        "solve-annulus", "--n", "5", "--k", "2", "--R", "5.0",
        "--scan-lo", str(xi_c - 1.5), "--scan-hi", str(xi_c + 1.5),
        "--scan-num", "151"])
    assert code == 0
    assert doc["status"] == "ok"
    assert len(doc["solutions"]) == 1
    sol = doc["solutions"][0]
    assert abs(sol["xi0"] - xi_c) < 1e-8
    assert abs(sol["residual"]) <= 1e-10
    assert sol["inner_u"] == pytest.approx(math.exp(-1.5 * xi_c))
    assert doc["diagnostics"]["n_brackets"] >= 1


def test_large_k_solve_annulus_command_ends_quickly(capsys, deadline):
    # It used to run for minutes, each lane crawling at an overflowing pole.
    with deadline(5):
        code, doc = _run_json(capsys, ["solve-annulus", "--n", "35", "--k",
                                       "28", "--R", "1e20"])
    assert code == 0
    assert doc["status"] == "empty"


def test_counterexample_command_rows_and_artifacts(capsys, tmp_path):
    out_dir = tmp_path / "artifacts"
    code, doc = _run_json(capsys, [
        "counterexample", "--n", "5", "--k", "2", "--c", "-1.0",
        "--delta", "0.05", "--eps", "0.001,0.01",
        "--out", str(out_dir), "--csv"])
    assert code == 0
    assert doc["eps"] == [0.001, 0.01]
    assert doc["R0"] > 1.0
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert set(row) == set(shooting.SWEEP_COLUMNS)
        assert row["termination"] == "window_exit"
    assert (out_dir / "result.json").exists()
    assert (out_dir / "sweep.csv").exists()
    on_disk = json.loads((out_dir / "result.json").read_text())
    assert on_disk == doc


def test_rstar_command_unresolved_exit_code(capsys):
    # an R_max this small cannot reach the solvable regime for this data,
    # so the search must come back unresolved with exit code 2
    code, out, err = _run(capsys, [
        "rstar", "--n", "5", "--k", "2", "--c1", "-0.3", "--c2", "0.0",
        "--r-init", "1.001", "--r-max", "1.005"])
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "unresolved"
    assert doc["r_star"] is None
    assert doc["history"][-1]["R"] == 1.005
    assert all(entry["n_solutions"] == 0 for entry in doc["history"])


def test_build_f_command_passes_axioms(capsys):
    code, doc = _run_json(capsys, [
        "build-f", "--n", "4", "--k", "2", "--alpha", "0.5",
        "--count", "40"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["delta"] > 0.0
    assert all(entry["passed"] for entry in doc["axioms"].values())


def test_verify_cone_suite(capsys):
    code, doc = _run_json(capsys, [
        "verify", "--suite", "cone", "--count", "30"])
    assert code == 0
    assert doc["passed"] is True
    assert set(doc["suites"]) == {"cone"}


def test_verify_radial_suite(capsys):
    code, doc = _run_json(capsys, [
        "verify", "--suite", "radial", "--count", "30"])
    assert code == 0
    assert doc["passed"] is True
    cases = doc["suites"]["radial"]["cases"]
    assert all(case["passed"] for case in cases.values())


_CHEAP_ARGV = {
    "solve-annulus": ["--n", "5", "--k", "2", "--R", "5.0", "--scan-lo",
                      "-0.3", "--scan-hi", "0.8", "--scan-num", "41"],
    "rstar": ["--n", "5", "--k", "2", "--c1", "-0.3", "--c2", "0.0",
              "--r-init", "1.001", "--r-max", "1.005"],
    "counterexample": ["--n", "5", "--k", "2", "--c", "-1.0", "--delta",
                       "0.05", "--eps", "0.001"],
    "cylinder": ["--n", "5", "--k", "2"],
    "cone-check": ["--k", "2", "--lam=1,1,1"],
    "build-f": ["--n", "4", "--k", "2", "--count", "3"],
    "verify": ["--suite", "cone", "--count", "3"],
}
_CONFIG_KEYS = {
    "solve-annulus": {"n", "k", "R", "c1", "c2", "scan_lo", "scan_hi",
                      "scan_num", "seed"},
    "rstar": {"n", "k", "c1", "c2", "r_init", "r_max", "rel_tol", "seed"},
    "counterexample": {"n", "k", "c", "delta", "seed"},
    "cylinder": {"n", "k", "seed"},
    "cone-check": {"k", "lam"},
    "build-f": {"n", "k", "alpha", "count", "tol", "seed"},
    "verify": {"suite", "count", "tol", "seed"},
}


@pytest.mark.parametrize("command", sorted(_CHEAP_ARGV))
def test_config_echoes_the_declared_parameters_and_seed(capsys, command):
    code, doc = _run_json(capsys, [command] + _CHEAP_ARGV[command])
    assert code in (0, 2)
    assert set(doc["config"]) == _CONFIG_KEYS[command]
    declared = {name for name, *_ in cli._COMMANDS[command][2]} | {"seed"}
    # counterexample reports eps at top level; cone-check echoes only its
    # parsed inputs
    if command == "counterexample":
        declared -= {"eps"}
    if command == "cone-check":
        declared -= {"seed"}
    assert declared == _CONFIG_KEYS[command]


# -------------------------------------------------------------- bad input


@pytest.mark.parametrize("argv", [
    ["solve-annulus", "--k", "2", "--R", "5.0"],           # missing n
    ["cylinder", "--n", "4", "--k", "2"],                  # no equilibrium
    ["cone-check", "--k", "9", "--lam=1.0,1.0"],           # k out of range
    ["rstar", "--n", "5", "--k", "2", "--c1", "0.3", "--c2", "0.0"],
    ["verify", "--suite", "no-such-suite"],
    ["counterexample", "--n", "5", "--k", "2", "--c", "-1.0",
     "--delta", "0.05", "--eps", "0.2"],                   # eps above delta
    ["solve-annulus", "--n", "5", "--k", "2", "--R", "inf"],  # infinite radius
    ["rstar", "--n", "5", "--k", "2", "--c1", "-0.3", "--c2", "0",
     "--rel-tol", "0"],                                    # never converges
    ["rstar", "--n", "5", "--k", "2", "--c1", "-0.3", "--c2", "0",
     "--rel-tol", "nan"],                                  # never bisects
    # A count below 1 checks nothing, so it cannot pass.
    ["verify", "--suite", "cone", "--count", "0"],
    ["verify", "--suite", "cone", "--count", "-3"],
    ["verify", "--suite", "reductions", "--count", "0"],
    ["verify", "--suite", "mobius", "--count", "0"],
    ["verify", "--suite", "radial", "--count", "0"],
    ["build-f", "--n", "5", "--k", "2", "--count", "0"],
])
def test_invalid_input_exits_one_with_stderr_message(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_module_entry_point_runs_without_warnings():
    src = os.path.dirname(os.path.dirname(os.path.abspath(syl.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "syl.cli",
         "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "rstar" in proc.stdout


def test_missing_config_file_exits_one(capsys):
    code, out, err = _run(capsys, [
        "cylinder", "--n", "5", "--k", "2", "--config", "/no/such/file.json"])
    assert code == 1
    assert "error:" in err


def test_malformed_config_file_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]\n")
    code, out, err = _run(capsys, [
        "cylinder", "--n", "5", "--k", "2", "--config", str(bad)])
    assert code == 1
    assert "config file must contain a JSON object" in err


# ------------------------------------------------------------ config file


def test_config_file_fills_missing_arguments(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 5, "k": 2}))
    code, doc = _run_json(capsys, ["cylinder", "--config", str(cfg)])
    assert code == 0
    assert doc["config"]["n"] == 5 and doc["config"]["k"] == 2
    assert doc["xi_cyl"] == math.log(2.0) / 4.0


def test_explicit_arguments_win_over_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 7, "k": 3}))
    code, doc = _run_json(capsys, [
        "cylinder", "--config", str(cfg), "--n", "5", "--k", "2"])
    assert code == 0
    assert doc["config"]["n"] == 5 and doc["config"]["k"] == 2


def test_config_file_accepts_hyphenated_keys(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scan-lo": -1.0, "scan-hi": 1.5,
                               "scan-num": 101}))
    code, doc = _run_json(capsys, [
        "solve-annulus", "--n", "5", "--k", "2", "--R", "5.0",
        "--config", str(cfg)])
    assert code == 0
    assert doc["config"]["scan_lo"] == -1.0
    assert doc["config"]["scan_num"] == 101


@pytest.mark.parametrize("command, key, flag", [
    (["cone-check", "--k", "2"], "lam", "--lam=-0.5,0.5,0.5"),
    (["counterexample", "--n", "5", "--k", "2", "--c", "-1.0",
      "--delta", "0.05"], "eps", "--eps=0.001,0.01"),
])
def test_config_float_lists_read_as_their_flags(capsys, tmp_path, command,
                                                key, flag):
    # A JSON list in the config gives what the comma-separated flag gives.
    _, flagged = _run_json(capsys, command + [flag])
    cfg = tmp_path / "run.json"
    values = [float(v) for v in flag.split("=")[1].split(",")]
    cfg.write_text(json.dumps({key: values}))
    code, doc = _run_json(capsys, command + ["--config", str(cfg)])
    assert code == 0
    assert doc == flagged


# -------------------------------------------------------------- artifacts


def test_out_directory_receives_result_document(capsys, tmp_path):
    out_dir = tmp_path / "report"
    code, out, err = _run(capsys, [
        "cylinder", "--n", "5", "--k", "2", "--out", str(out_dir)])
    assert code == 0
    saved = (out_dir / "result.json").read_text()
    assert saved == out


def test_solve_annulus_csv_artifacts(capsys, tmp_path):
    xi_c = shooting.cylinder_solution(5, 2)[0]
    out_dir = tmp_path / "solves"
    code, doc = _run_json(capsys, [
        "solve-annulus", "--n", "5", "--k", "2", "--R", "5.0",
        "--scan-lo", str(xi_c - 1.0), "--scan-hi", str(xi_c + 1.0),
        "--scan-num", "101", "--out", str(out_dir), "--csv"])
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert "result.json" in files
    assert "solution_0.csv" in files
    header = (out_dir / "solution_0.csv").read_text().splitlines()[0]
    assert header.split(",") == ["t", "xi", "xi_t", "xi_tt", "r", "u",
                                 "du", "d2u", "lam_rad", "lam_tan",
                                 "sigma_k_residual"]
