"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os

import pytest

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
])
def test_invalid_input_exits_one_with_stderr_message(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


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
