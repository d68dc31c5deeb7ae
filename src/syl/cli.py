"""Command-line interface.

Thin adapter over the library: parses arguments, merges an optional JSON
config file, dispatches to the solvers, and emits one deterministic JSON
document on stdout (sorted keys, two-space indent, no timestamps).
Artifacts (trajectory CSVs, sweep tables, the result document itself) are
written only when --out is given.

Exit codes:  0 = completed with a definite answer,
             1 = invalid input or arguments,
             2 = inconclusive search or failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import mobius, radial, schouten, shooting, symfn

__all__ = ["main"]


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise _CliError(message)


def _strict(value):
    """``value`` with each non-finite float as None, which JSON prints as
    ``null``: strict JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(payload: dict, out_dir: str | None) -> None:
    doc = json.dumps(_strict(payload), sort_keys=True, indent=2,
                     allow_nan=False)
    sys.stdout.write(doc + "\n")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "result.json"), "w") as fh:
            fh.write(doc + "\n")


def _merge_config(args: argparse.Namespace) -> None:
    """Fill argument slots that are still None from the JSON config file."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise _CliError("config file must contain a JSON object")
    for key, value in loaded.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


def _fill(args: argparse.Namespace, params) -> None:
    """Refuse unset required parameters, then apply the declared defaults."""
    missing = [name for name, _, default, *_ in params
               if default is ... and getattr(args, name) is None]
    if missing:
        raise _CliError("missing required parameter(s): "
                        + ", ".join(m.replace("_", "-") for m in missing))
    for name, _, default, *_ in params:
        if getattr(args, name) is None:
            setattr(args, name, default)


def _config_echo(args: argparse.Namespace) -> dict:
    """The command's declared parameters and the seed, as used."""
    out = {}
    for key in [name for name, *_ in _COMMANDS[args.command][2]] + ["seed"]:
        value = getattr(args, key)
        if isinstance(value, float) and not math.isfinite(value):
            value = repr(value)
        out[key] = value
    return out


def _floats(value) -> list:
    """A comma-separated string, a JSON list or one number, as floats."""
    if isinstance(value, str):
        return [float(tok) for tok in value.split(",") if tok.strip()]
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(value)]


# ----------------------------------------------------------------------
# Subcommand handlers.  Each returns (payload, exit_code).


def _cmd_solve_annulus(args):
    problem = radial.AnnulusProblem(int(args.n), int(args.k), float(args.R),
                                    float(args.c1), float(args.c2))
    scan = None
    if args.scan_lo is not None or args.scan_hi is not None:
        # A scan range needs both of its bounds.
        _fill(args, [("scan_lo", float, ...), ("scan_hi", float, ...)])
        scan = shooting.ScanSpec(float(args.scan_lo), float(args.scan_hi),
                                 int(args.scan_num))
    result = shooting.solve_annulus(problem, scan=scan)
    payload = {
        "command": "solve-annulus",
        "config": _config_echo(args),
        "status": result.status,
        "solutions": [
            {"xi0": s.xi0, "xi_t0": s.xi_t0, "residual": s.residual,
             "inner_u": s.inner_u}
            for s in result.solutions
        ],
        "diagnostics": {
            "n_brackets": len(result.diagnostics.brackets),
            "gap_runs": [[int(a), int(b)]
                         for (a, b) in result.diagnostics.gap_runs],
            "truncated_low": result.diagnostics.truncated_low,
            "truncated_high": result.diagnostics.truncated_high,
            "n_rejected": len(result.diagnostics.rejected),
        },
    }
    if args.out and args.csv:
        os.makedirs(args.out, exist_ok=True)
        for i, s in enumerate(result.solutions):
            profile = radial.reconstruct(s.trajectory)
            profile.write_csv(os.path.join(args.out, f"solution_{i}.csv"))
    return payload, 2 if result.status == "inconclusive" else 0


def _cmd_rstar(args):
    result = shooting.find_r_star(
        int(args.n), int(args.k), float(args.c1), float(args.c2),
        r_init=float(args.r_init), R_max=float(args.r_max),
        rel_tol=float(args.rel_tol))
    payload = {
        "command": "rstar",
        "config": _config_echo(args),
        "status": result.status,
        "r_star": result.r_star,
        "bracket": list(result.bracket) if result.bracket else None,
        "history": [{"R": R, "status": st, "n_solutions": m}
                    for (R, st, m) in result.history],
    }
    return payload, 0 if result.status == "ok" else 2


def _cmd_counterexample(args):
    eps_values = _floats(args.eps)
    sweep = shooting.counterexample_sweep(
        int(args.n), int(args.k), float(args.c), float(args.delta),
        eps_values)
    payload = {
        "command": "counterexample",
        "config": {key: value for key, value in _config_echo(args).items()
                   if key != "eps"},
        "eps": eps_values,
        "R0": sweep.R0,
        "rows": [
            {c: getattr(row, c) for c in shooting.SWEEP_COLUMNS}
            for row in sweep.rows
        ],
    }
    if args.out and args.csv:
        os.makedirs(args.out, exist_ok=True)
        sweep.write_csv(os.path.join(args.out, "sweep.csv"))
    return payload, 0


def _cmd_cylinder(args):
    n, k = int(args.n), int(args.k)
    xi_cyl, scale = shooting.cylinder_solution(n, k)
    lam = schouten.radial_spectrum(xi_cyl, 0.0, 0.0, n)
    payload = {
        "command": "cylinder",
        "config": _config_echo(args),
        "xi_cyl": xi_cyl,
        "scale": scale,
        "sigma_k_residual": float(symfn.sigma_k(lam, k) - 1.0),
        "bifurcation_threshold": shooting.bifurcation_threshold(n, k),
    }
    return payload, 0


def _cmd_cone_check(args):
    lam = np.array(_floats(args.lam))
    k = int(args.k)
    if not 1 <= k <= lam.size:
        raise _CliError(f"k={k} out of range for a length-{lam.size} vector")
    sigmas = {f"sigma_{l}": float(symfn.sigma_k(lam, l))
              for l in range(1, k + 1)}
    payload = {
        "command": "cone-check",
        "config": {"k": k, "lam": [float(v) for v in lam]},
        "in_gamma_k": bool(symfn.in_gamma_k(lam, k)),
        "sigmas": sigmas,
    }
    return payload, 0


def _check_count(args) -> int:
    """``--count``, refused below 1: a check of no samples passes
    vacuously."""
    count = int(args.count)
    if count < 1:
        raise _CliError(f"--count must be at least 1, got {count}")
    return count


def _cmd_build_f(args):
    count = _check_count(args)
    n, k = int(args.n), int(args.k)
    alpha = float(args.alpha)
    base = symfn.sigma_root(k, n)
    built = symfn.build_concave_f(
        base.value, alpha, n=n, in_cone=base.in_cone,
        grad_h=base.gradient)
    rng = np.random.default_rng(int(args.seed))
    samples = [np.exp(rng.normal(size=n)) for _ in range(count)]
    report = symfn.verify_axioms(built, samples, rng=rng)
    payload = {
        "command": "build-f",
        "config": _config_echo(args),
        "delta": built.delta,
        "axioms": report.as_dict(),
        "passed": bool(report.passed),
    }
    return payload, 0 if report.passed else 2


def _verify_cone(count: int, tol: float, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    passed = True
    details = {}
    for (n, k) in ((3, 1), (4, 2), (5, 2), (6, 3)):
        f = symfn.sigma_root(k, n)
        samples = [np.exp(rng.normal(size=n)) for _ in range(count)]
        report = symfn.verify_axioms(f, samples, rng=rng)
        v = max(float(chk.max_violation) for chk in report.checks)
        details[f"sigma_root_n{n}_k{k}"] = {"passed": bool(report.passed),
                                            "max_violation": v}
        worst = max(worst, v)
        passed = passed and report.passed
    return {"passed": passed, "max_violation": worst, "cases": details}


def _verify_radial(count: int, tol: float, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cases = {}
    passed = True
    for (n, k) in ((5, 2), (7, 3), (3, 1)):
        xi_c = shooting.cylinder_solution(n, k)[0]
        drift_max = 0.0
        sigma_max = 0.0
        for _ in range(max(2, count // 50)):
            xi0 = xi_c + rng.uniform(-0.6, 0.6)
            v0 = rng.uniform(-0.5, 0.5)
            traj = radial.integrate((xi0, v0), 2.5, n, k)
            profile = radial.reconstruct(traj, num=40)
            E = radial.ode_invariant(profile.xi, profile.xi_t, n, k)
            E0 = radial.ode_invariant(xi0, v0, n, k)
            drift_max = max(drift_max, float(np.abs(E - E0).max()))
            # The last dense-output sample of a breakdown run sits at the
            # ellipticity guard, where interpolation noise in xi_t is
            # amplified by the 1/w pole; judge sigma_k away from it.
            elliptic = 1.0 - profile.xi_t ** 2 >= 1e-4
            if np.any(elliptic):
                sigma_max = max(sigma_max, float(np.abs(
                    profile.sigma_k_residual[elliptic]).max()))
        ok = drift_max <= 1e-7 and sigma_max <= 1e-7
        cases[f"n{n}_k{k}"] = {"invariant_drift": drift_max,
                               "sigma_k_residual": sigma_max,
                               "passed": ok}
        passed = passed and ok
    return {"passed": passed, "cases": cases}


def _verify_mobius(count: int, tol: float, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    worst_gap = mobius.sphere_identity_sweep(4, count, rng=rng)
    n, a = 4, 1.3
    bub = schouten.Bubble(n, a, np.zeros(n), 1.0)
    cloud = rng.normal(size=(800, n)) * 1.5
    ms = mobius.moving_sphere_radius(bub.u, np.zeros(n), cloud, n=n)
    lam_err = abs(ms.lam_bar - 1.0 / a)
    W = mobius.kelvin(bub.u, np.zeros(n), 1.0 / a, n)
    pts = rng.normal(size=(count, n))
    kel_err = float(np.abs(W(pts) - bub.u(pts)).max())
    ok = (ms.status == "bracketed" and lam_err <= 2e-6 and kel_err <= 1e-12)
    return {"passed": bool(ok), "sphere_worst_gap": float(worst_gap),
            "moving_sphere_error": float(lam_err),
            "kelvin_self_invariance": kel_err}


def _verify_reductions(count: int, tol: float, seed: int) -> dict:
    out = {}
    passed = True
    for n in (3, 4, 5):
        rep = mobius.verify_reduction_identities(n, count, seed=seed, tol=tol)
        out[f"n{n}"] = {"passed": bool(rep.passed),
                        "max_violation": max(rep.max_violation.values())}
        passed = passed and rep.passed
    return {"passed": passed, "cases": out}


_SUITES = {
    "cone": _verify_cone,
    "radial": _verify_radial,
    "mobius": _verify_mobius,
    "reductions": _verify_reductions,
}


def _cmd_verify(args):
    count = _check_count(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    unknown = [nm for nm in names if nm not in _SUITES]
    if unknown:
        raise _CliError(f"unknown suite(s): {', '.join(unknown)}")
    suites = {}
    for nm in names:
        suites[nm] = _SUITES[nm](count, float(args.tol), int(args.seed))
    passed = all(s["passed"] for s in suites.values())
    payload = {
        "command": "verify",
        "config": _config_echo(args),
        "suites": suites,
        "passed": passed,
    }
    if args.out and args.csv and "reductions" in names:
        os.makedirs(args.out, exist_ok=True)
        rep = mobius.verify_reduction_identities(4, count,
                                                 seed=int(args.seed),
                                                 tol=float(args.tol))
        rep.write_csv(os.path.join(args.out, "reductions.csv"))
    return payload, 0 if passed else 2


# Each command: (handler, help, [(name, type, default[, argparse keywords])]);
# a default of ``...`` marks a required parameter.
_COMMANDS = {
    "solve-annulus": (
        _cmd_solve_annulus, "shooting solve of the annulus problem",
        [("n", int, ...), ("k", int, ...), ("R", float, ...),
         ("c1", float, 0.0), ("c2", float, 0.0), ("scan_lo", float, None),
         ("scan_hi", float, None), ("scan_num", int, 2000)]),
    "rstar": (
        _cmd_rstar, "threshold-radius search",
        [("n", int, ...), ("k", int, ...), ("c1", float, ...),
         ("c2", float, ...), ("r_init", float, 1.01), ("r_max", float, 64.0),
         ("rel_tol", float, 1e-4)]),
    "counterexample": (
        _cmd_counterexample, "bounded-C1 blow-up family sweep",
        [("n", int, ...), ("k", int, ...), ("c", float, ...),
         ("delta", float, ...),
         ("eps", None, ..., {"help": "comma-separated list of eps values"})]),
    "cylinder": (_cmd_cylinder, "cylinder equilibrium data",
                 [("n", int, ...), ("k", int, ...)]),
    "cone-check": (
        _cmd_cone_check, "cone membership of a vector",
        [("k", int, ...),
         ("lam", None, ..., {"help": "comma-separated eigenvalue vector"})]),
    "build-f": (
        _cmd_build_f,
        "build a homogenized concave curvature function and check its axioms",
        [("n", int, ...), ("k", int, ...), ("alpha", float, 0.5),
         ("count", int, 200),
         ("tol", float, 1e-8, {"help": "unread; echoed in config"})]),
    "verify": (
        _cmd_verify, "run library invariant suites",
        [("suite", None, "all", {"choices": sorted(_SUITES) + ["all"]}),
         ("count", int, 200),
         ("tol", float, 1e-9, {"help": "read only by the reductions suite"})]),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="syl", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, params) in _COMMANDS.items():
        sp = subs.add_parser(command, help=help_text)
        for name, typ, _, *keywords in params:
            sp.add_argument("--" + name.replace("_", "-"), type=typ,
                            default=None, **dict(*keywords))
        sp.add_argument("--config", help="JSON file supplying parameters")
        sp.add_argument("--out",
                        help="directory for result.json and artifacts")
        sp.add_argument("--seed", type=int, default=None,
                        help="RNG seed for randomized checks")
        sp.add_argument("--csv", action="store_true",
                        help="also write CSV artifacts into --out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _merge_config(args)
        if args.seed is None:
            args.seed = 0
        handler, _, params = _COMMANDS[args.command]
        _fill(args, params)
        payload, code = handler(args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
