"""Seeded workloads of the syl benchmark: inputs, verdicts and checks.

A verdict is one public library call plus the output it feeds.  Each
workload is an endless sequence of rounds; round ``r`` of seed ``s`` is
drawn from its own random stream, so any prefix of the sequence is
reproducible on its own.  Every round is stratified: the same problem
classes and the same cells of parameter bands, with a fresh continuous
draw near the middle of each cell.  A verdict's cost changes steeply
and irregularly with its parameters, so draws spread over whole cells
made one seed's rounds up to 27% dearer than another's; kept to the
middle of their cells, rounds of every seed do the same work.

Workloads and why they were chosen:

``shooting``
    independent ``solve_annulus`` problems with every solution
    reconstructed as ``solve-annulus --csv`` does, mixed with
    ``find_r_star`` problems and reduced ``verify_bifurcation`` calls.  A
    single solve runs the scan/refine/polish path at one radius and shares
    nothing across radii; the radius searches re-run polish-free probes
    over one seed grid at many radii.  A batched scan integrator should
    gain on both kinds, trajectory reuse across radii only on the second;
    the traced run's ``find_r_star`` and ``verify_bifurcation`` spans
    separate the radius searches from the single solves.
``verifiers``
    the CLI verifier commands and a Bubble spectrum cross-check through
    ``fd`` and ``schouten``.  The shooting layer is idle; ``radial``
    integrates single trajectories with extra terminal events, and
    ``sigma_k`` and the Jacobi eigensolver dominate.  Changes to the
    shooting layer should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from syl import cli, fd, radial, schouten, shooting, symfn

DEFAULT_SEED = 0

# A round is one stratified batch of verdicts of fifteen to thirty seconds on
# the reference machine; a run is a few whole rounds.

# -- shooting: single solves ----------------------------------------------
SOLVE_CLASSES = ((4, 1), (5, 2), (6, 2), (7, 2), (7, 3))
SOLVE_LOG_R = (math.log(1.2), math.log(50.0))
SOLVE_R_BANDS = 3
SOLVE_C = (-0.5, 0.5)  # c1 and c2, each split into SOLVE_R_BANDS bands
SOLVE_SCAN_NUM = 200

# -- shooting: radius searches --------------------------------------------
RSTAR_CLASSES = ((5, 2), (7, 3))
RSTAR_C1 = (-0.9, -0.25)
RSTAR_C2 = (-0.4, 0.2)
RSTAR_SCAN_NUM = 100
RSTAR_PER_BIFURCATION = 4
BIFURCATION_CLASSES = ((5, 2), (7, 2), (7, 3))
# A third of the default seed window at the default resolution: every
# class still locates its jump within 1e-3 of the closed form.
BIFURCATION_WINDOW = 0.3
BIFURCATION_NUM = 30

# -- verifiers -------------------------------------------------------------
VERIFIER_SETS = 4
SUITE_COUNTS = (("cone", 100), ("radial", 200), ("mobius", 200),
                ("reductions", 100))
BUILD_F = (5, 2, 100)  # n, k, sample count
CYLINDER_CLASSES = ((3, 1), (4, 1), (5, 2), (6, 2), (7, 2), (7, 3), (8, 3))
# The median verdict of a round is a counterexample sweep, and its cost
# changes with (n, k), c and delta.  Sweeps of one class with c and delta
# near the middle of their ranges cost alike, so the median lands inside
# a group of like verdicts instead of between two classes; two sweeps per
# set make that group large enough for a steady median.
COUNTEREXAMPLE_CLASS = (6, 2)
COUNTEREXAMPLES = 2  # per verifier set
COUNTEREXAMPLE_EPS = 5  # eps values per sweep, one per log band
BUBBLE_DIMS = (3, 4, 5, 6)  # one per verifier set
BUBBLE_POINTS = 8

# Share of a cell's width, around its middle, that a draw may fall in.
CELL_SPREAD = 0.3

# -- oracle bounds ---------------------------------------------------------
RESIDUAL_BOUND = 1e-10
SIGMA_K_BOUND = 1e-8
# Rounding of sigma_k by Newton's identities, relative to (sum |lam|)^k.
SIGMA_K_ROUNDING = 1e-15
INVARIANT_DRIFT = 1e-7
BIFURCATION_ERROR = 1e-3
XI0_TOL = 1e-10
SPECTRUM_FD_TOL = 2e-3
HESSIAN_FD_TOL = 1e-6
SPECTRUM_REF_TOL = 1e-9


def _rng(workload: str, seed: int, r: int) -> np.random.Generator:
    tag = sum(ord(ch) << (8 * i) for i, ch in enumerate(workload[:4]))
    return np.random.default_rng([tag, seed % 2 ** 32, r])


def _band(rng, lo, hi, band, bands) -> float:
    """One draw near the middle of band ``band`` of ``bands`` equal parts."""
    width = (hi - lo) / bands
    offset = 0.5 + CELL_SPREAD * (rng.uniform() - 0.5)
    return float(lo + width * (band + offset))


def _fmt(x: float) -> str:
    return repr(float(x))


def shooting_round(seed: int, r: int) -> list:
    rng = _rng("shooting", seed, r)
    solves = []
    bands = SOLVE_R_BANDS
    for band in range(bands):
        for j, (n, k) in enumerate(SOLVE_CLASSES):
            # A Latin square per class: each c1 and c2 band once per class.
            R = math.exp(_band(rng, *SOLVE_LOG_R, band, bands))
            c1 = _band(rng, *SOLVE_C, (band + j) % bands, bands)
            c2 = _band(rng, *SOLVE_C, (2 * band + j) % bands, bands)
            scan = shooting.default_scan(n, k, num=SOLVE_SCAN_NUM)
            solves.append({"kind": "solve", "n": n, "k": k, "R": R,
                           "c1": c1, "c2": c2,
                           "scan": [scan.lo, scan.hi, scan.num]})
    m = len(BIFURCATION_CLASSES) * RSTAR_PER_BIFURCATION // len(RSTAR_CLASSES)
    searches = []
    for j, (n, k) in enumerate(RSTAR_CLASSES):
        # A Latin square of (c1, c2) bands: every band of each used once.
        for b1 in range(m):
            b2 = (j + (m - 1) * b1) % m
            scan = shooting.default_scan(n, k, num=RSTAR_SCAN_NUM)
            searches.append({"kind": "rstar", "n": n, "k": k,
                             "c1": _band(rng, *RSTAR_C1, b1, m),
                             "c2": _band(rng, *RSTAR_C2, b2, m),
                             "scan": [scan.lo, scan.hi, scan.num]})
    rstar = [searches[i] for i in rng.permutation(len(searches))]
    specs = solves
    for i, (n, k) in enumerate(BIFURCATION_CLASSES):
        specs += rstar[i * RSTAR_PER_BIFURCATION:
                       (i + 1) * RSTAR_PER_BIFURCATION]
        specs.append({"kind": "bifurcation", "n": n, "k": k,
                      "window": BIFURCATION_WINDOW, "num": BIFURCATION_NUM})
    return specs


def verifiers_round(seed: int, r: int) -> list:
    rng = _rng("verifiers", seed, r)
    return [spec for i in range(VERIFIER_SETS)
            for spec in _verifier_set(rng, i)]


def _verifier_set(rng, i: int) -> list:
    def cli_spec(*argv):
        return {"kind": "cli", "argv": [str(a) for a in argv]}

    specs = [cli_spec("verify", "--suite", suite, "--count", count,
                      "--seed", int(rng.integers(2 ** 31)))
             for suite, count in SUITE_COUNTS]
    n, k, count = BUILD_F
    alpha = _band(rng, 0.2, 0.8, i, VERIFIER_SETS)
    specs.append(cli_spec("build-f", "--n", n, "--k", k,
                          "--alpha", _fmt(alpha),
                          "--count", count,
                          "--seed", int(rng.integers(2 ** 31))))
    size = int(rng.integers(3, 9))
    lam = rng.normal(0.5, 1.0, size=size)
    specs.append(cli_spec("cone-check", "--k", int(rng.integers(1, size + 1)),
                          "--lam=" + ",".join(_fmt(v) for v in lam)))
    n, k = CYLINDER_CLASSES[int(rng.integers(len(CYLINDER_CLASSES)))]
    specs.append(cli_spec("cylinder", "--n", n, "--k", k))
    n, k = COUNTEREXAMPLE_CLASS
    for _ in range(COUNTEREXAMPLES):
        c = -math.exp(_band(rng, -1.0, 1.0, 0, 1))
        delta = _band(rng, 0.1, 0.4, 0, 1)
        eps_hi = 0.9 * min(delta, -math.log(1.0 - 0.5 * delta))
        eps = [math.exp(_band(rng, math.log(1e-4), math.log(eps_hi), j,
                              COUNTEREXAMPLE_EPS))
               for j in reversed(range(COUNTEREXAMPLE_EPS))]
        specs.append(cli_spec("counterexample", "--n", n, "--k", k,
                              "--c", _fmt(c), "--delta", _fmt(delta),
                              "--eps", ",".join(_fmt(e) for e in eps)))
    n = BUBBLE_DIMS[i]
    a = float(np.exp(rng.uniform(-0.7, 0.7)))
    center = rng.normal(size=n)
    # Points within half a bubble width of the centre: further out the
    # Schouten matrix cancels more digits of the difference Hessian.
    points = center + (0.5 / a) * rng.normal(size=(BUBBLE_POINTS, n))
    specs.append({"kind": "bubble", "n": n, "a": a,
                  "amplitude": float(np.exp(rng.uniform(-0.7, 0.7))),
                  "center": center.tolist(), "points": points.tolist()})
    return specs


WORKLOADS = {
    "shooting": shooting_round,
    "verifiers": verifiers_round,
}


# -- verdicts ----------------------------------------------------------------


def _bubble(spec):
    return schouten.Bubble(spec["n"], spec["a"], np.array(spec["center"]),
                           spec["amplitude"])


def run(spec):
    """Execute one verdict and return its output (the timed part)."""
    kind = spec["kind"]
    if kind == "solve":
        problem = radial.AnnulusProblem(spec["n"], spec["k"], spec["R"],
                                        spec["c1"], spec["c2"])
        result = shooting.solve_annulus(
            problem, scan=shooting.ScanSpec(*spec["scan"]))
        return result, [radial.reconstruct(s.trajectory)
                        for s in result.solutions]
    if kind == "rstar":
        return shooting.find_r_star(spec["n"], spec["k"], spec["c1"],
                                    spec["c2"],
                                    scan=shooting.ScanSpec(*spec["scan"]))
    if kind == "bifurcation":
        return shooting.verify_bifurcation(spec["n"], spec["k"],
                                           window=spec["window"],
                                           num=spec["num"])
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(spec["argv"]))
        return code, buf.getvalue()
    if kind == "bubble":
        bub = _bubble(spec)
        spectra, jac_err = [], 0.0
        for y in np.array(spec["points"]):
            sample = schouten.ConformalFactorSample(
                y, bub.u(y), fd.gradient(bub.u, y), fd.hessian(bub.u, y))
            spectra.append(schouten.eigenvalues(
                schouten.schouten_matrix(sample)))
            hess = bub.hess(y)
            jac_err = max(jac_err, float(
                np.abs(fd.jacobian(bub.grad, y) - hess).max()
                / (1.0 + np.abs(hess).max())))
        return np.array(spectra), jac_err
    raise ValueError(f"unknown verdict kind {kind!r}")


def answer(spec, out) -> dict:
    """The part of a verdict's output that the stored reference pins."""
    kind = spec["kind"]
    if kind == "solve":
        result, _ = out
        return {"status": result.status,
                "xi0": [s.xi0 for s in result.solutions]}
    if kind == "rstar":
        return {"status": out.status, "r_star": out.r_star,
                "bracket": list(out.bracket) if out.bracket else None,
                "history": [list(h) for h in out.history]}
    if kind == "bifurcation":
        return {"status": out.status, "located": out.located,
                "history": [list(h) for h in out.history]}
    if kind == "cli":
        code, text = out
        return {"code": code, "stdout": text}
    spectra, _ = out
    return {"spectra": spectra.tolist()}


def check(spec, out) -> list:
    """Oracle checks of one verdict's output; returns the failures."""
    kind = spec["kind"]
    fails = []
    if kind == "solve":
        result, profiles = out
        n, k = spec["n"], spec["k"]
        for sol, prof in zip(result.solutions, profiles):
            if not abs(sol.residual) <= RESIDUAL_BOUND:
                fails.append(f"residual {sol.residual:.3g} at xi0={sol.xi0}")
            if sol.trajectory.termination != "reached_T":
                fails.append(f"solution ends by {sol.trajectory.termination}")
            # Where sigma_k = 1 is a difference of large products, the
            # residual column is rounding error, however exact the state.
            spread = (np.abs(prof.lam_rad)
                      + (n - 1) * np.abs(prof.lam_tan)) ** k
            excess = np.abs(prof.sigma_k_residual) - SIGMA_K_ROUNDING * spread
            if not excess.max() <= SIGMA_K_BOUND:
                fails.append(f"sigma_k residual exceeds its bound by "
                             f"{excess.max():.3g}")
            energy = radial.ode_invariant(prof.xi, prof.xi_t, n, k)
            drift = float(np.abs(energy - energy[0]).max())
            if not drift <= INVARIANT_DRIFT * max(1.0, abs(energy[0])):
                fails.append(f"invariant drift {drift:.3g}")
    elif kind == "rstar":
        if out.status != "ok":
            fails.append(f"find_r_star status {out.status}")
        else:
            lo, hi = out.bracket
            if not lo < out.r_star < hi:
                fails.append(f"r_star {out.r_star} outside ({lo}, {hi})")
            probes = {R: st for (R, st, _) in out.history}
            if probes.get(lo) == "ok" or probes.get(hi) != "ok":
                fails.append("bracket ends disagree with their probes")
    elif kind == "bifurcation":
        thr = math.exp(math.pi / math.sqrt(spec["n"] - 2 * spec["k"]))
        if out.status != "ok":
            fails.append(f"verify_bifurcation status {out.status}")
        elif not abs(out.located - thr) / thr <= BIFURCATION_ERROR:
            fails.append(f"bifurcation located at {out.located}, "
                         f"closed form {thr}")
    elif kind == "cli":
        fails.extend(_check_cli(spec["argv"], *out))
    else:
        spectra, jac_err = out
        exact = _bubble(spec).spectrum()
        err = float(np.abs(spectra - exact).max() / np.abs(exact).max())
        if not err <= SPECTRUM_FD_TOL:
            fails.append(f"bubble spectrum error {err:.3g}")
        if not jac_err <= HESSIAN_FD_TOL:
            fails.append(f"fd.jacobian of the gradient off by {jac_err:.3g}")
    return fails


def _check_cli(argv, code, text) -> list:
    if code != 0:
        return [f"{' '.join(argv[:3])} exited {code}"]
    doc = json.loads(text)
    fails = []
    if doc.get("passed", True) is not True:
        fails.append(f"{' '.join(argv[:3])} reports passed={doc['passed']}")
    command = argv[0]
    if command == "cone-check":
        lam = np.array(doc["config"]["lam"])
        top = max(1.0, float(np.abs(lam).max()))
        orders = range(1, len(doc["sigmas"]) + 1)
        got = [doc["sigmas"][f"sigma_{l}"] for l in orders]
        if any(abs(g - symfn.sigma_k_bruteforce(lam, l))
               > 1e-10 * math.comb(lam.size, l) * top ** l
               for g, l in zip(got, orders)):
            fails.append("cone-check sigmas disagree with brute force")
        if doc["in_gamma_k"] != all(v > 0.0 for v in got):
            fails.append("cone-check membership disagrees with its sigmas")
    elif command == "cylinder":
        n, k = doc["config"]["n"], doc["config"]["k"]
        if not abs(doc["sigma_k_residual"]) <= 1e-10:
            fails.append(f"cylinder sigma_k residual {doc['sigma_k_residual']}")
        thr = math.exp(math.pi / math.sqrt(n - 2 * k))
        if not abs(doc["bifurcation_threshold"] - thr) <= 1e-12 * thr:
            fails.append("cylinder threshold disagrees with the closed form")
    elif command == "counterexample":
        hess = [row["hessian_inner"] for row in doc["rows"]]
        if len(hess) != len(doc["eps"]):
            fails.append("counterexample row count differs from eps count")
        elif max(hess) != hess[-1]:
            fails.append("inner Hessian is not largest at the smallest eps")
    return fails


def compare(spec, got: dict, ref: dict) -> list:
    """Differences between a verdict's answer and its stored reference."""
    kind = spec["kind"]
    if kind == "solve":
        if got["status"] != ref["status"] or len(got["xi0"]) != len(ref["xi0"]):
            return [f"{got['status']} with {len(got['xi0'])} solutions, "
                    f"reference {ref['status']} with {len(ref['xi0'])}"]
        worst = max((abs(a - b) for a, b in zip(got["xi0"], ref["xi0"])),
                    default=0.0)
        return [] if worst <= XI0_TOL else [f"xi0 off by {worst:.3g}"]
    if kind == "bubble":
        got_s, ref_s = np.array(got["spectra"]), np.array(ref["spectra"])
        if got_s.shape != ref_s.shape or not np.all(
                np.abs(got_s - ref_s) <= SPECTRUM_REF_TOL * np.abs(ref_s)):
            return ["bubble spectra differ from the reference"]
        return []
    if got != ref:
        keys = sorted(k for k in ref if got.get(k) != ref[k])
        return [f"{kind} differs from the reference in {', '.join(keys)}"]
    return []
