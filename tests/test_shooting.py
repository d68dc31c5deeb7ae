"""Tests for the annulus shooting layer: scans, thresholds, and sweeps."""

import csv
import inspect
import json
import math
import pathlib
import types

import numpy as np
import pytest

from syl import radial, shooting
from syl.radial import AnnulusProblem


# ---------------------------------------------------------------- equilibria


def test_cylinder_solution_exact_quarter_log_two():
    # for (5, 2) the equilibrium value reduces to log(2)/4 in closed form
    xi_cyl, scale = shooting.cylinder_solution(5, 2)
    assert xi_cyl == math.log(2.0) / 4.0
    assert math.isclose(scale, 2.0 ** (-0.375), rel_tol=1e-14)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 4), (5, 1)])
def test_cylinder_solution_is_an_ode_equilibrium(n, k):
    xi_cyl, scale = shooting.cylinder_solution(n, k)
    assert abs(radial.ode_rhs(xi_cyl, 0.0, n, k)) < 1e-12
    assert math.isclose(scale, math.exp(-0.5 * (n - 2) * xi_cyl),
                        rel_tol=1e-15)
    # launched exactly at the equilibrium the trajectory must not move
    traj = radial.integrate((xi_cyl, 0.0), 3.0, n, k)
    assert traj.termination == "reached_T"
    pts = traj.sample(64)
    assert np.max(np.abs(pts[:, 1] - xi_cyl)) < 1e-8
    assert np.max(np.abs(pts[:, 2])) < 1e-8


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3), (3, 2)])
def test_cylinder_solution_requires_supercritical_dimension(n, k):
    with pytest.raises(ValueError):
        shooting.cylinder_solution(n, k)


def test_bifurcation_threshold_closed_form():
    assert shooting.bifurcation_threshold(5, 2) == math.exp(math.pi)
    assert shooting.bifurcation_threshold(7, 3) == math.exp(math.pi)
    assert shooting.bifurcation_threshold(7, 2) == math.exp(
        math.pi / math.sqrt(3.0))
    with pytest.raises(ValueError):
        shooting.bifurcation_threshold(6, 3)


# ------------------------------------------------------------------- scans


def test_scan_spec_validates_window():
    with pytest.raises(ValueError):
        shooting.ScanSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        shooting.ScanSpec(2.0, 1.0)
    # A sample count must be an integer of at least two.
    for num in (1, 0, True, 2.0, 30.5, "3"):
        with pytest.raises(ValueError):
            shooting.ScanSpec(0.0, 1.0, num=num)
    assert shooting.ScanSpec(0.0, 1.0, num=np.int64(3)).spacing == 0.5


@pytest.mark.parametrize("lo,hi", [(-math.inf, 0.0), (0.0, math.inf),
                                   (math.nan, 1.0), (0.0, math.nan)])
def test_scan_spec_rejects_non_finite_window(lo, hi):
    with pytest.raises(ValueError):
        shooting.ScanSpec(lo, hi)


def test_scan_spec_grid_and_spacing():
    spec = shooting.ScanSpec(-1.0, 3.0, num=5)
    assert np.allclose(spec.grid, [-1.0, 0.0, 1.0, 2.0, 3.0])
    assert spec.spacing == 1.0
    assert spec.grid.size == 5


def test_default_scan_centers_on_the_equilibrium():
    xi_c = shooting.cylinder_solution(5, 2)[0]
    spec = shooting.default_scan(5, 2)
    assert math.isclose(spec.lo, xi_c - 5.0)
    assert math.isclose(spec.hi, xi_c + 5.0)
    assert spec.num == 2000
    narrow = shooting.default_scan(5, 2, half_width=1.0, num=11)
    assert math.isclose(narrow.hi - narrow.lo, 2.0)
    assert narrow.num == 11
    # no equilibrium in the low-dimension regime: centered at zero instead
    spec53 = shooting.default_scan(5, 3)
    assert spec53.lo == -5.0 and spec53.hi == 5.0


def test_seed_state_rejects_inadmissible_velocity():
    assert shooting._seed_state(0.0, -2.0) is None
    state = shooting._seed_state(0.0, -0.5)
    assert state is not None and state.admissible
    assert state.xi_t == -0.5


# ------------------------------------------------------------ direct solves


def test_solve_annulus_finds_the_equilibrium_branch():
    # with zero Robin data below the branching radius the constant
    # trajectory is the unique solution
    xi_c = shooting.cylinder_solution(5, 2)[0]
    result = shooting.solve_annulus(
        AnnulusProblem(5, 2, 5.0, 0.0, 0.0),
        scan=shooting.ScanSpec(xi_c - 2.0, xi_c + 2.0, 201))
    assert result.status == "ok"
    assert len(result) == 1
    sol = result.solutions[0]
    assert abs(sol.xi0 - xi_c) < 1e-9
    assert sol.xi_t0 == 0.0
    assert abs(sol.residual) <= 1e-10
    assert sol.trajectory.termination == "reached_T"
    assert math.isclose(sol.inner_u, math.exp(-1.5 * sol.xi0), rel_tol=1e-12)
    pts = sol.trajectory.sample(128)
    assert np.max(np.abs(pts[:, 1] - xi_c)) < 1e-6


def test_solve_annulus_empty_on_thin_mean_convex_annulus():
    xi_c = shooting.cylinder_solution(5, 2)[0]
    result = shooting.solve_annulus(
        AnnulusProblem(5, 2, 1.005, -0.3, 0.0),
        scan=shooting.ScanSpec(xi_c - 3.0, xi_c + 3.0, 301))
    assert result.status == "empty"
    assert len(result) == 0
    # seeds too steep for the inner Robin constant are edge truncation,
    # never a disqualifying interior gap
    assert result.diagnostics.truncated_low > 0
    assert result.diagnostics.gap_runs == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n,k,R,c1,c2", [(4, 1, 5.0, -0.5, 0.3),
                                         (5, 2, 5.0, -0.5, 0.0),
                                         (7, 3, 6.0, 0.5, -0.2)])
def test_lane_scan_agrees_with_per_seed_integration(n, k, R, c1, c2):
    problem = AnnulusProblem(n, k, R, c1, c2)
    grid = shooting.ScanSpec(-5.0, 5.0, 121).grid
    lanes = shooting._make_residual(problem, 1e-7, 1e-9)(grid)
    seeds = [shooting._seed_state(float(s), c1) for s in grid]
    ref = [(None if seed is None else
            radial.integrate(seed, problem.T, n, k, rtol=1e-7, atol=1e-9))
           for seed in seeds]
    ref_res = np.array([
        radial.outer_bc_residual(traj.final_state, c2, R)
        if traj is not None and traj.termination == "reached_T" else math.nan
        for traj in ref])
    assert np.array_equal(np.isnan(lanes), np.isnan(ref_res))
    finite = ~np.isnan(ref_res)
    assert np.max(np.abs(lanes[finite] - ref_res[finite])) <= 1e-9

    # Every lane ends as its per-seed trajectory does, and the grid holds
    # both kinds of unevaluable seed: inadmissible for the inner Robin
    # constant, and breaking down before the outer boundary.
    admissible = np.array([traj is not None for traj in ref])
    xi_t0 = c1 * np.exp(-grid[admissible])
    _, _, causes = radial.integrate_lanes(grid[admissible], xi_t0, problem.T,
                                          n, k, rtol=1e-7, atol=1e-9)
    assert causes.tolist() == [traj.termination for traj in ref
                               if traj is not None]
    assert not admissible.all()
    assert "ellipticity_breakdown" in causes


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@pytest.mark.parametrize("n,k,R,c1,c2", [(4, 1, 5.0, -0.5, 0.3),
                                         (5, 2, 5.0, -0.5, 0.0),
                                         (7, 3, 6.0, 0.5, -0.2)])
def test_lane_result_does_not_depend_on_batch(n, k, R, c1, c2):
    grid = shooting.ScanSpec(-5.0, 5.0, 121).grid
    xi_t0 = c1 * np.exp(-grid)
    ok = np.abs(xi_t0) <= 1.0 - shooting.SEED_MARGIN
    seeds = grid[ok], xi_t0[ok]
    T = math.log(R)
    batch = radial.integrate_lanes(*seeds, T, n, k, rtol=1e-7, atol=1e-9)
    for i in range(seeds[0].size):
        alone = radial.integrate_lanes(seeds[0][i:i + 1], seeds[1][i:i + 1],
                                       T, n, k, rtol=1e-7, atol=1e-9)
        assert _same_bits(alone[0], batch[0][i:i + 1])
        assert _same_bits(alone[1], batch[1][i:i + 1])
        assert alone[2][0] == batch[2][i]
    # Any other batch of the same seeds: reversed, and every third one.
    for part in (slice(None, None, -1), slice(1, None, 3)):
        other = radial.integrate_lanes(seeds[0][part], seeds[1][part], T,
                                       n, k, rtol=1e-7, atol=1e-9)
        assert all(_same_bits(a, b[part]) for a, b in zip(other[:2], batch))
        assert other[2].tolist() == batch[2][part].tolist()


@pytest.mark.parametrize("n,k,R,c1,c2,rtol,atol", [
    (4, 1, 5.0, -0.5, 0.3, 1e-7, 1e-9),
    (5, 2, 5.0, -0.5, 0.0, 1e-7, 1e-9),
    (7, 3, 6.0, 0.5, -0.2, 1e-7, 1e-9),
    (7, 3, 6.0, 0.5, -0.2, 1e-10, 1e-12),  # the polish tolerance
])
def test_float_stepper_agrees_with_lanes(n, k, R, c1, c2, rtol, atol):
    problem = AnnulusProblem(n, k, R, c1, c2)
    grid = shooting.ScanSpec(-5.0, 5.0, 121).grid
    residual = shooting._make_residual(problem, rtol, atol)
    lanes = residual(grid)
    floats = np.array([residual(float(s)) for s in grid])
    assert np.array_equal(np.isnan(lanes), np.isnan(floats))
    finite = ~np.isnan(lanes)
    assert np.max(np.abs(lanes[finite] - floats[finite])) <= 1e-12

    # Seed by seed, the same cause and the same state.
    xi_t0 = c1 * np.exp(-grid)
    admissible = np.abs(xi_t0) <= 1.0 - shooting.SEED_MARGIN
    seeds = grid[admissible], xi_t0[admissible]
    xi, xi_t, causes = radial.integrate_lanes(*seeds, problem.T, n, k,
                                              rtol=rtol, atol=atol)
    stepped = [radial.integrate_endpoint(float(s), float(v), problem.T,
                                         n, k, rtol=rtol, atol=atol)
               for s, v in zip(*seeds)]
    assert [cause for _, _, cause in stepped] == causes.tolist()
    state = np.array([(a, b) for a, b, _ in stepped]).T
    lane_state = np.array([xi, xi_t])
    assert np.array_equal(np.isnan(state), np.isnan(lane_state))
    reached = causes == "reached_T"
    assert np.max(np.abs(state[:, reached] - lane_state[:, reached])) <= 1e-12
    assert not admissible.all()
    assert "ellipticity_breakdown" in causes


@pytest.mark.parametrize("seed,T,n,k", [((0.0, 0.999999), 1.0, 25, 12),
                                        ((0.0, -0.9999), 2.0, 30, 14),
                                        ((-1.0, 0.99), 2.0, 26, 12)])
def test_float_stepper_ends_like_a_lane_where_the_pole_overflows(seed, T, n,
                                                                  k):
    # For k >= 12, (1 - xi_t^2)^(1-k) overflows a float near the
    # degenerate set: numpy gives inf, Python's ** raises.
    _, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), T, n, k,
                                            rtol=1e-7, atol=1e-9)
    xi, xi_t, stepped = radial.integrate_endpoint(*seed, T, n, k,
                                                  rtol=1e-7, atol=1e-9)
    assert stepped == cause != "reached_T"
    assert math.isnan(xi) and math.isnan(xi_t)


@pytest.mark.parametrize("polish", [False, True])
def test_solution_trajectories_are_integrated_once_when_read(monkeypatch,
                                                             polish):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return radial.integrate(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    problem = AnnulusProblem(5, 2, 5.0, -0.5, 0.0)
    result = shooting.solve_annulus(
        problem, scan=shooting.ScanSpec(-2.0, 2.0, 101), polish=polish)
    assert result.status == "ok" and calls == []
    sol = result.solutions[0]
    assert math.isclose(sol.inner_u, math.exp(-1.5 * sol.xi0), rel_tol=1e-12)
    assert calls == []

    traj = sol.trajectory
    tol = (1e-10, 1e-12) if polish else (1e-7, 1e-9)
    assert [(c["rtol"], c["atol"]) for c in calls] == [tol]
    assert traj.termination == "reached_T"
    assert traj.t_end == problem.T
    end = radial.outer_bc_residual(traj.final_state, problem.c2, problem.R)
    assert abs(end - sol.residual) <= 1e-12
    assert sol.trajectory is traj and len(calls) == 1


@pytest.mark.parametrize("n,k,R,c1,c2", [(5, 2, 40.0, 0.0, 0.0),
                                         (7, 2, 40.0, 0.0, 0.0),
                                         (7, 3, 6.0, 1.5, 0.0)])
def test_refined_roots_are_not_integrated_again(monkeypatch, n, k, R, c1, c2):
    # brentq returns a point it has evaluated, so only an exact grid zero
    # is integrated outside it; the residual it read stays the residual.
    inside, outside = [], []

    def counting(*args, **kwargs):
        (inside if in_brentq else outside).append(args)
        return radial.integrate_endpoint(*args, **kwargs)

    def tracked(*args, **kwargs):
        nonlocal in_brentq
        in_brentq = True
        try:
            return brentq(*args, **kwargs)
        finally:
            in_brentq = False

    in_brentq, brentq = False, shooting.brentq
    monkeypatch.setattr(shooting, "integrate_endpoint", counting)
    monkeypatch.setattr(shooting, "brentq", tracked)
    problem = AnnulusProblem(n, k, R, c1, c2)
    result = shooting.solve_annulus(problem)
    assert result.status == "ok" and inside
    exact = sum(1 for a, b in result.diagnostics.brackets if a == b)
    assert len(outside) == exact
    for sol in result:
        xi, xi_t, _ = radial.integrate_endpoint(sol.xi0, sol.xi_t0, problem.T,
                                                n, k)
        fresh = radial.outer_bc_residual(radial.RadialState(problem.T, xi,
                                                            xi_t), c2, R)
        assert sol.residual.hex() == fresh.hex()


@pytest.mark.parametrize("name", ["scan_rtol", "scan_atol", "rtol", "atol"])
def test_solve_annulus_refuses_a_nan_tolerance(name):
    # Each used to make every seed unevaluable and report "empty"; with
    # default tolerances this problem has one solution.
    problem = AnnulusProblem(5, 2, 5.0)
    assert len(shooting.solve_annulus(problem)) == 1
    with pytest.raises(ValueError, match=name):
        shooting.solve_annulus(problem, **{name: math.nan})


@pytest.mark.parametrize("name,value", [
    ("residual_bound", math.nan), ("residual_bound", -1e-10),
    ("merge_tol", math.nan), ("merge_tol", -1e-6), ("gap_limit", -1)])
def test_solve_annulus_refuses_a_nan_or_negative_bound(name, value):
    # At residual_bound = nan, abs(res) > nan was False, so every polished
    # root was accepted.
    with pytest.raises(ValueError, match=name):
        shooting.solve_annulus(AnnulusProblem(5, 2, 5.0), **{name: value})


def test_solve_annulus_at_zero_tolerances_finds_the_default_solution():
    # Zero tolerances used to end every seed as a step failure and report
    # "empty".  An rtol below 100 eps is raised to it; a zero atol stays.
    # c1 is nonzero because at c1 = 0 every seed has a zero slope, and so
    # a zero error scale at atol = 0, which is refused.
    problem = AnnulusProblem(5, 2, 5.0, -0.3, 0.3)
    scan = shooting.default_scan(5, 2, num=20)
    want = shooting.solve_annulus(problem, scan=scan)
    with pytest.warns(UserWarning, match="rtol"):
        got = shooting.solve_annulus(problem, scan=scan, scan_rtol=0.0,
                                     scan_atol=0.0, rtol=0.0, atol=0.0)
    assert got.status == want.status == "ok"
    assert len(got) == len(want) == 1
    assert got.solutions[0].xi0 == pytest.approx(want.solutions[0].xi0,
                                                 abs=1e-10)


@pytest.mark.parametrize("call", [
    lambda: shooting.solve_annulus(AnnulusProblem(5, 2, 5.0), scan_atol=0.0),
    lambda: shooting.solve_annulus(AnnulusProblem(5, 2, 30.0), atol=0.0),
    lambda: shooting.verify_bifurcation(5, 2, scan_atol=0.0),
    lambda: shooting.find_r_star(5, 2, 0.0, -0.3, scan_atol=0.0),
], ids=["scan_atol", "atol", "bifurcation", "r_star"])
def test_zero_atol_at_zero_inner_slope_is_refused(call):
    # At c1 = 0 every inner slope is 0, so a zero atol leaves every seed
    # without an error scale and each one ended as a step failure: these
    # calls answered empty, empty, failed and unresolved, where the
    # default tolerances find 1 and 3 solutions, the branch point and
    # r_star = 1.0143.
    with pytest.raises(ValueError, match="atol must be positive"):
        call()


@pytest.mark.parametrize("call", [
    lambda scan: shooting.solve_annulus(
        AnnulusProblem(5, 2, 5.0, -0.3, 0.3), scan=scan, scan_atol=0.0),
    lambda scan: shooting.solve_annulus(
        AnnulusProblem(5, 2, 5.0, -0.3, 0.3), scan=scan, atol=0.0),
    lambda scan: shooting.find_r_star(5, 2, -0.3, 0.0, scan=scan,
                                      scan_atol=0.0),
], ids=["scan_atol", "atol", "r_star"])
def test_zero_atol_with_a_zero_seed_on_the_grid_is_refused(call):
    # The seed xi0 = 0 has no error scale in xi at atol = 0, so its lane
    # ended as a step failure, a one-cell gap in the scan (residual nan
    # at 0.0, where the default tolerances give 0.42388).
    scan = shooting.ScanSpec(-1.0, 1.0, 21)
    assert 0.0 in scan.grid
    with pytest.raises(ValueError, match="atol must be positive when the "
                                         "scan grid holds the seed 0"):
        call(scan)
    # Off the seed 0, a zero atol at c1 != 0 is still accepted.
    shifted = shooting.ScanSpec(-1.0, 1.0, 20)
    assert 0.0 not in shifted.grid
    call(shifted)


def test_large_k_solves_end_quickly(deadline):
    # For k >= 27 every lane used to crawl along the overflowing pole; the
    # (30, 27) solve took about a minute.  Every seed now ends before T.
    with deadline(5):
        result = shooting.solve_annulus(AnnulusProblem(30, 27, 1e20))
    assert result.status == "empty"
    assert result.diagnostics.truncated_low == 2000


def test_no_input_hangs_a_solve_or_a_threshold_search(deadline):
    # Seeded draws over the accepted domain: n <= 40, any k <= n for
    # solves and 2 <= k < n/2 for searches, ln R log-uniform up to
    # ln 1e300, and |c1|, |c2| log-uniform in [1e-3, 1e3] with either
    # sign, each on a 41-seed scan.  The slowest draw, a (27, 5) solve
    # at R = 7.9e255 with one root, takes about 5 s, most of it in
    # refining that root over T = 589; most take milliseconds.
    rng = np.random.default_rng(18)

    def wide():
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))

    for _ in range(100):
        n = int(rng.integers(3, 41))
        k = int(rng.integers(1, n + 1))
        R = math.exp(10.0 ** rng.uniform(-6.0, math.log10(math.log(1e300))))
        problem = AnnulusProblem(n, k, R, wide(), wide())
        with deadline(20):
            shooting.solve_annulus(problem,
                                   scan=shooting.default_scan(n, k, num=41))
    for _ in range(20):
        n = int(rng.integers(5, 41))
        k = int(rng.integers(2, (n - 1) // 2 + 1))
        c1, c2 = wide(), wide()
        if c1 + c2 > 0.0:
            c1, c2 = -c1, -c2
        with deadline(20):
            shooting.find_r_star(n, k, c1, c2,
                                 scan=shooting.default_scan(n, k, num=41))


def test_find_r_star_refuses_a_nan_scan_tolerance():
    with pytest.raises(ValueError, match="rtol"):
        shooting.find_r_star(5, 2, -0.3, 0.0, scan_rtol=math.nan)


def _first_crossing_radius(n, k, c1, c2, R_max, num=20):
    """exp(min T*) over seeds log-spaced from SEED_MARGIN inside the
    admissibility edge xi0 = ln|c1|, or inf if no orbit gets there by
    R_max.  T*(s) is the first time at which the outer residual
    g(t) = xi_t + c2 e^{-xi-t} of seed s reaches 0; g(0) < 0 when
    c1 + c2 < 0, so the annulus of radius e^{T*} is solvable, by that
    seed, and no threshold can lie above it."""
    def g(t, y):
        return y[1] + c2 * math.exp(-y[0] - t)
    g.terminal = True

    T_star = math.inf
    for s in math.log(abs(c1)) + np.geomspace(shooting.SEED_MARGIN, 1.0, num):
        traj = radial.integrate((s, c1 * math.exp(-s)), math.log(R_max), n,
                                k, extra_events=[g])
        if traj.termination == "event:0":
            T_star = min(T_star, traj.t_end)
    return math.exp(T_star)


def test_the_first_crossing_threshold_does_not_exceed_the_bracket():
    # A radius that the scan grid finds solvable has a solution, so the
    # threshold from first crossings cannot exceed a bracket's hi.  For
    # the CLI examples it is 1.010768 and 1.030690, against hi values of
    # 1.011016 and 1.031406: the grid reports radii a little too large.
    searches = [shooting.find_r_star(n, k, c1, 0.0)
                for n, k, c1 in ((5, 2, -0.3), (7, 3, -0.5))]
    for verdict in _stored_verdicts("rstar"):
        spec, answer = verdict["spec"], verdict["answer"]
        if answer["status"] == "ok":
            searches.append(types.SimpleNamespace(
                n=spec["n"], k=spec["k"], c1=spec["c1"], c2=spec["c2"],
                bracket=answer["bracket"]))
    assert len(searches) == 50
    for r in searches:
        hi = r.bracket[1]
        assert _first_crossing_radius(r.n, r.k, r.c1, r.c2, hi) <= hi, r


@pytest.mark.parametrize("n,k,c1", [(5, 2, -0.3), (7, 3, -0.5)])
def test_a_dense_edge_scan_brackets_the_first_crossing_threshold(n, k, c1):
    # With c2 = 0, a scan dense next to the admissibility edge finds no
    # solution just below the first-crossing threshold R* and one just
    # above it.
    R_star = _first_crossing_radius(n, k, c1, 0.0, 2.0, num=200)
    lo = math.log(abs(c1) / (1.0 - shooting.SEED_MARGIN))
    scan = shooting.ScanSpec(lo, lo + 0.5, 4000)
    below = shooting.solve_annulus(
        AnnulusProblem(n, k, 1.0 + 0.999 * (R_star - 1.0), c1, 0.0),
        scan=scan)
    above = shooting.solve_annulus(
        AnnulusProblem(n, k, 1.0 + 1.001 * (R_star - 1.0), c1, 0.0),
        scan=scan)
    assert below.status == "empty", R_star
    assert above.status == "ok" and len(above.solutions) == 1, R_star


def _stored_verdicts(*kinds):
    """The benchmark's stored shooting verdicts of the given kinds, in file
    order."""
    reference = pathlib.Path(__file__).parents[1] / "bench" / "reference"
    stored = json.loads((reference / "shooting.json").read_text())
    return [v for v in stored["verdicts"] if v["spec"]["kind"] in kinds]


def _stored_solves():
    return [v["spec"] for v in _stored_verdicts("solve")]


# The stored solves, by file order, whose scan misses a root that the
# reflected scan finds or the other way round (ROADMAP item 12).
_REFLECTION_MISSES = {10, 12, 13, 23, 25, 27, 28, 38, 40, 42, 43, 55, 57, 58}


@pytest.mark.parametrize("i", [
    pytest.param(i, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 12: a scan misses a root"))
    if i in _REFLECTION_MISSES else i for i in range(60)])
def test_a_reflected_solve_finds_the_outer_values(i):
    # r -> R/r maps a solution with data (c1, c2) to one with data
    # (c2/R, c1 R) whose seed is the first's xi(T): the same answer.
    spec = _stored_solves()[i]
    n, k, R, c1, c2 = (spec[name] for name in ("n", "k", "R", "c1", "c2"))
    scan = shooting.ScanSpec(*spec["scan"])
    got = shooting.solve_annulus(AnnulusProblem(n, k, R, c1, c2), scan=scan)
    mirror = shooting.solve_annulus(AnnulusProblem(n, k, R, c2 / R, c1 * R),
                                    scan=scan)
    assert mirror.status == got.status
    ends = sorted(s.trajectory.final_state.xi for s in got.solutions)
    seeds = sorted(s.xi0 for s in mirror.solutions)
    assert len(seeds) == len(ends)
    assert np.allclose(seeds, ends, rtol=0.0, atol=1e-9), (ends, seeds)


def test_scan_lanes_end_like_the_float_stepper_on_the_stored_solves():
    # Each scan lane of the 60 stored solves ends as the float stepper
    # ends its seed: at T or nan, by the same cause.  Run with -s to print
    # the counts.
    defaults = inspect.signature(shooting.solve_annulus).parameters
    tol = {name: defaults["scan_" + name].default
           for name in ("rtol", "atol")}
    specs = _stored_solves()
    bad, count = [], 0
    for spec in specs:
        n, k, T = spec["n"], spec["k"], math.log(spec["R"])
        grid = shooting.ScanSpec(*spec["scan"]).grid
        ok, slopes = shooting._inner_slopes(grid, spec["c1"])
        seeds, slopes = grid[ok].tolist(), slopes[ok].tolist()
        xi, _, causes = radial.integrate_lanes(seeds, slopes, T, n, k, **tol)
        for s, v, x, cause in zip(seeds, slopes, xi.tolist(),
                                  causes.tolist()):
            count += 1
            got = radial.integrate_endpoint(s, v, T, n, k, **tol)
            if got[2] != cause or math.isnan(got[0]) != math.isnan(x):
                bad.append((spec, s, cause, got[2]))
    print(f"{len(specs)} stored solves, {count} scan lanes, {len(bad)} "
          f"disagreements")
    assert bad == []
    assert (len(specs), count) == (60, 8397)


# ------------------------------------------------------------ the seed fan


def _fan_of(grid, n, k, c1, tol):
    ok, xi_t0 = shooting._inner_slopes(grid, c1)
    seeds = grid[ok], xi_t0[ok]
    return radial.LaneFan(*seeds, n, k, rtol=tol[0], atol=tol[1]), seeds


def _chains(fan):
    """Each lane's checkpoint times, in the fan's log order, after checking
    that ``_last`` indexes each lane's newest checkpoint."""
    lane, t = fan._log[:2]
    lanes = [np.flatnonzero(lane == i) for i in range(fan._last.size)]
    assert fan._last.tolist() == [at[-1] for at in lanes]
    return [t[at].tolist() for at in lanes]


def _lanes_at(seeds, T, n, k, tol):
    xi, xi_t, _ = radial.integrate_lanes(*seeds, T, n, k, rtol=tol[0],
                                         atol=tol[1])
    return np.array([xi, xi_t])


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3), (9, 4), (11, 5),
                                 (13, 12)])
@pytest.mark.parametrize("tol", [(1e-7, 1e-9), (1e-9, 1e-11)])
def test_fan_reads_equal_fresh_scans(n, k, tol):
    # Each draw reads radii in a random order, one with R - 1 <= 1e-6,
    # which puts T below the starting step, and last a radius past every
    # earlier read, which extends the fan.  A second fan goes out to
    # R = 60 first, which stops the lanes that the first integral proves
    # break down before ln 60, and then comes back down: its reads replay
    # stopped lanes at radii where they break down again and at radii
    # they reach.  That fan is last read at the times of three of its
    # checkpoints, where the first trial from the checkpoint before may
    # reach T exactly.  c1 takes both ends of its range and two random
    # values; k = 12 runs the large-k right-hand side.
    rng = np.random.default_rng([n, k, round(-math.log10(tol[0]))])
    grid = shooting.default_scan(n, k, num=41).grid
    for c1 in (-0.6, 0.6, *rng.uniform(-0.6, 0.6, 2)):
        radii = rng.uniform(1.0001, 12.0, rng.integers(2, 6)).tolist()
        radii.append(1.0 + 10.0 ** rng.uniform(-12.0, -6.0))
        order = [radii[i] for i in rng.permutation(len(radii))]
        order.append(1.5 * max(order))
        down = [60.0, 30.0, 12.0, 6.0, 3.0, 2.0, 1.5, 1.2, 1.05, 8.0, 45.0]
        for order in (order, down):
            fan, seeds = _fan_of(grid, n, k, c1, tol)
            for R in order:
                T = math.log(R)
                assert _same_bits(fan.end_states(T),
                                  _lanes_at(seeds, T, n, k, tol))
        t = fan._log[1]
        for T in rng.choice(t[t > 0.0], 3).tolist():
            assert _same_bits(fan.end_states(T), _lanes_at(seeds, T, n, k, tol))


def test_a_lane_to_a_short_T_starts_with_the_unbounded_step():
    # For seed 22 of this grid, scipy's starting step is about 0.0058585
    # with no end time, below T = ln 1.00591, but bounding scipy's first
    # trial by T would change it, and with it the state at T.  A lane
    # starts with the unbounded step whatever T is, so the fan reads it
    # from the same checkpoints as any other T.
    n, k, c1, tol = 7, 2, -0.6, (1e-9, 1e-11)
    grid = shooting.default_scan(n, k, num=41).grid
    R = 1.00591
    T = math.log(R)
    seed = np.array([grid[22:23], c1 * np.exp(-grid[22:23])])
    f, h = radial._lane_start(seed, n, k, *tol)
    assert h[0] < T
    want, _ = radial._lane_loop(seed, np.zeros(1), seed, f, h, T, n, k, *tol)
    assert _same_bits(_lanes_at(seed, T, n, k, tol), want)

    fan, seeds = _fan_of(grid, n, k, c1, tol)
    for T in (math.log(3.0), math.log(R)):
        assert _same_bits(fan.end_states(T), _lanes_at(seeds, T, n, k, tol))


@pytest.mark.parametrize("c1", [-0.6, -0.3, 0.6])
def test_a_probe_reads_the_residuals_of_a_fresh_scan(c1):
    # c1 = +-0.6 makes the low end of the grid inadmissible.  A probe
    # leaves some roots unrefined, so it matches a fresh polish-free
    # solve in status and count, not in each root.
    scan = shooting.default_scan(5, 2, num=40)
    tol = dict(scan_rtol=1e-7, scan_atol=1e-9)
    probe = shooting._prober(5, 2, c1, 0.3, scan, *tol.values())
    for R in (3.0, 1.2, 8.0):
        served = probe(R)
        fresh = shooting.solve_annulus(AnnulusProblem(5, 2, R, c1, 0.3),
                                       scan=scan, polish=False, **tol)
        assert _same_bits(served.diagnostics.residuals,
                          fresh.diagnostics.residuals)
        assert (served.status, len(served)) == (fresh.status, len(fresh))


def _stored_searches():
    """(spec, stored answer, scan, c1, c2, (scan_rtol, scan_atol)) of each
    stored radius search, with the scan and inner data of its _prober."""
    searches = []
    for verdict in _stored_verdicts("rstar", "bifurcation"):
        spec = verdict["spec"]
        if spec["kind"] == "rstar":
            search = shooting.find_r_star
            scan, c1, c2 = shooting.ScanSpec(*spec["scan"]), spec["c1"], \
                spec["c2"]
        else:
            search = shooting.verify_bifurcation
            xi_c = shooting.cylinder_solution(spec["n"], spec["k"])[0]
            scan, c1, c2 = shooting.ScanSpec(
                xi_c - spec["window"], xi_c + spec["window"],
                spec["num"]), 0.0, 0.0
        defaults = inspect.signature(search).parameters
        tol = tuple(defaults["scan_" + name].default
                    for name in ("rtol", "atol"))
        searches.append((spec, verdict["answer"], scan, c1, c2, tol))
    assert len(searches) == 60
    return searches


def _certified(result):
    """The brackets of a probe's result that it counts unrefined."""
    problem, grid = result.problem, result.diagnostics.grid
    left, right = np.searchsorted(
        grid, np.reshape(result.diagnostics.brackets, (-1, 2))).T
    s_star = radial._survival_seed(problem.n, problem.k, problem.c1)
    sure = shooting._certain_brackets(grid, left, right, s_star, 1e-6)
    return [bracket for bracket, counted in
            zip(result.diagnostics.brackets, sure) if counted]


def test_probes_count_unrefined_only_roots_that_refinement_keeps(
        monkeypatch):
    # At every radius of the 60 stored searches' histories, a probe
    # answers the status and count of one that refines every bracket
    # (s* = inf).  Each bracket it counts unrefined holds exactly one root
    # of that full refinement, and its solution is an end of the bracket;
    # every other solution is the full refinement's, bit for bit.  So
    # every stored history stands.  Probe brentq took 5290 evaluations of
    # the residual when every bracket was refined; the certificate brings
    # that to 3350.  Run with -s to print the counts.
    evals, refine = {True: 0, False: 0}, shooting.brentq
    brackets = certified = 0
    bad = []

    def counting(full):
        def search(f, a, b, **kwargs):
            def counted(s):
                evals[full] += 1
                return f(s)
            return refine(counted, a, b, **kwargs)
        return search

    for spec, answer, scan, c1, c2, tol in _stored_searches():
        probe = shooting._prober(spec["n"], spec["k"], c1, c2, scan, *tol)
        for R, *_ in answer["history"]:
            with monkeypatch.context() as m:
                m.setattr(shooting, "_survival_seed", lambda *_: math.inf)
                m.setattr(shooting, "brentq", counting(True))
                full = probe(R)
            with monkeypatch.context() as m:
                m.setattr(shooting, "brentq", counting(False))
                got = probe(R)
            sure = _certified(got)
            brackets += len(got.diagnostics.brackets)
            certified += len(sure)

            def outside(result):
                return [sol.xi0 for sol in result
                        if not any(a <= sol.xi0 <= b for a, b in sure)]

            if ((got.status, len(got)) != (full.status, len(full))
                    or outside(got) != outside(full)
                    or any(sum(a <= sol.xi0 <= b for sol in full) != 1
                           or sum(sol.xi0 in (a, b) for sol in got) != 1
                           for a, b in sure)):
                bad.append((spec, R))
    print(f"60 stored radius searches: {brackets} brackets, {certified} "
          f"certified, {brackets - certified} refined, {len(bad)} "
          f"disagreements; probe brentq evaluations {evals[True]} -> "
          f"{evals[False]}")
    assert bad == []
    assert (brackets, certified) == (647, 220)
    assert evals[False] <= 3350 < evals[True]


def test_a_bifurcation_probe_refines_only_uncertain_brackets(monkeypatch):
    # Stored bifurcation verdict (7, 2).  A probe calls brentq on each
    # sign change whose lower seed lies below the survival seed s* or
    # that shares an end with another bracket, and on no other bracket.
    probes, refined = [], []
    solve, refine = shooting.solve_annulus, shooting.brentq

    def solving(problem, **kwargs):
        refined.clear()
        result = solve(problem, **kwargs)
        probes.append((result.diagnostics.brackets, list(refined)))
        return result

    def refining(f, a, b, **kwargs):
        refined.append((a, b))
        return refine(f, a, b, **kwargs)

    monkeypatch.setattr(shooting, "solve_annulus", solving)
    monkeypatch.setattr(shooting, "brentq", refining)
    result = shooting.verify_bifurcation(7, 2, window=0.3, num=30)
    assert result.status == "ok"
    assert len(probes) == len(result.history)
    s_star = math.log(2 * 2 * radial.theta_constant(7, 2) / 7
                      * (1.0 + 1e-6)) / 4
    skipped = 0
    for brackets, calls in probes:
        ends = [end for bracket in brackets for end in bracket]
        uncertain = [(a, b) for a, b in brackets
                     if a < b and (a < s_star
                                   or ends.count(a) + ends.count(b) > 2)]
        assert calls == uncertain
        skipped += len(brackets) - len(uncertain)
    assert skipped > 0


def test_a_long_annulus_probe_counts_as_full_refinement(monkeypatch):
    # (10, 2), c1 = 0.33, R = 4540.  Every seed is above s* (about
    # -0.45), so every orbit survives, yet at the scan tolerance the
    # integrator ends each seed from 2.3 up nan: a truncated band of 25
    # cells.  The two brackets below it are counted at their scan ends,
    # and full refinement finds one root in each, rejecting none.
    probe = shooting._prober(10, 2, 0.33, 1e4, shooting.ScanSpec(1.5, 3.5, 41),
                             1e-7, 1e-9)
    got = probe(4540.0)
    assert radial._survival_seed(10, 2, 0.33) < 1.5
    assert got.diagnostics.truncated_high == 25
    assert got.diagnostics.brackets == [(1.75, 1.8), (2.2, 2.25)]
    assert (got.status, [sol.xi0 for sol in got]) == ("ok", [1.75, 2.25])
    monkeypatch.setattr(shooting, "_survival_seed", lambda *_: math.inf)
    full = probe(4540.0)
    assert full.status == "ok" and full.diagnostics.rejected == []
    assert [round(sol.xi0, 6) for sol in full] == [1.755281, 2.244963]


def test_a_probe_counts_unrefined_only_isolated_cells_above_the_seed():
    # Cells (2, 3) and (3, 4) share an end, (8, 8) is an exact zero and
    # (0, 1) starts below s*: only (6, 7) is counted unrefined, and only
    # when the grid's cells are wider than the merge radius.
    left, right = np.array([0, 2, 3, 6, 8]), np.array([1, 3, 4, 7, 8])
    for width, want in ((2e-6, True), (1e-6, False)):
        grid = np.arange(10) * width
        got = shooting._certain_brackets(grid, left, right, 0.5 * width,
                                         1e-6)
        assert got.tolist() == [False, False, False, want, False]


@pytest.mark.parametrize("search", ["rstar", "bifurcation"])
def test_a_search_integrates_each_seed_from_zero_once(monkeypatch, search):
    # The fan's log must hold one chain of steps per seed, from the seed
    # at t = 0: each read only appends to a seed's chain, and every
    # checkpoint is later than the one before it.  Each probe is one call
    # of the lane loop.
    chains, calls = {}, []
    lane_loop, end_states = radial._lane_loop, radial.LaneFan.end_states

    def counting(*args, **kwargs):
        calls.append(args[5])
        return lane_loop(*args, **kwargs)

    def chained(fan, T):
        end = end_states(fan, T)
        for seed, ts in zip(fan.seeds[0].tolist(), _chains(fan)):
            old = chains.get(seed, [0.0])
            assert ts[:len(old)] == old, seed
            assert all(s < t for s, t in zip(ts, ts[1:])), seed
            chains[seed] = ts
        return end

    def no_scan(*args, **kwargs):
        raise AssertionError("a probe integrated the scan grid afresh")

    monkeypatch.setattr(radial, "_lane_loop", counting)
    monkeypatch.setattr(radial.LaneFan, "end_states", chained)
    monkeypatch.setattr(shooting, "integrate_lanes", no_scan)
    if search == "rstar":
        scan = shooting.default_scan(5, 2, num=60)
        result = shooting.find_r_star(5, 2, -0.3, 0.0, scan=scan)
        assert result.status == "ok"
        admissible = shooting._inner_slopes(scan.grid, -0.3)[0]
        seeds = scan.grid[admissible]
    else:
        result = shooting.verify_bifurcation(7, 2, window=0.3, num=30)
        assert result.status == "ok"
        xi_c = shooting.cylinder_solution(7, 2)[0]
        seeds = shooting.ScanSpec(xi_c - 0.3, xi_c + 0.3, 30).grid
    assert sorted(chains) == seeds.tolist()
    assert calls == [math.log(entry[0]) for entry in result.history]


def test_a_fan_keeps_the_steps_it_replays(monkeypatch):
    # Stored rstar verdict 47 of the benchmark reference.  Its first probe,
    # at R = 1.01, ends lanes that the first integral proves break down
    # before ln 1.01.  Its third, at R = 1.00625, reads below that
    # horizon, where one such lane is not proven doomed and steps on to
    # its breakdown near the pole.  A read keeps the steps it replays, so
    # the same read again does not take them a second time.  Keeping none
    # took the search 179 rounds of the lane loop, against 176 when the
    # fan still stepped the doomed lanes to the pole.
    n, k, c1, c2 = 7, 3, -0.3120426782498825, -0.14300102610984722
    scan = shooting.ScanSpec(-4.9216660617923775, 5.0783339382076225, 100)
    rms, rounds = radial._rms, [0]

    def counting(a):
        rounds[0] += 1
        return rms(a)

    monkeypatch.setattr(radial, "_rms", counting)  # once per round
    result = shooting.find_r_star(n, k, c1, c2, scan=scan)
    assert result.status == "ok" and rounds[0] <= 176, rounds

    tol = (1e-7, 1e-9)
    fan, seeds = _fan_of(scan.grid, n, k, c1, tol)
    costs = []
    for R in (1.01, 1.00625, 1.00625):
        rounds[0] = 0
        T = math.log(R)
        got = fan.end_states(T)
        costs.append(rounds[0])
        assert _same_bits(got, _lanes_at(seeds, T, n, k, tol))
    assert costs[2] < costs[1], costs
    for ts in _chains(fan):
        assert (np.diff(ts) > 0.0).all()


def test_fan_reads_equal_fresh_lanes_on_the_stored_searches(monkeypatch):
    # Each stored radius search's fan reads its history's radii in stored
    # order, then again in reverse from the checkpoints that the first
    # pass kept, and every read is bit for bit the fresh lanes at its
    # radius.  The lane loop took 4098 and 1292 rounds for the two passes
    # when the fan sorted its checkpoints lane by lane after every read.
    # Run with -s to print the counts.
    rms, rounds = radial._rms, [0]

    def counting(a):
        rounds[0] += 1
        return rms(a)

    monkeypatch.setattr(radial, "_rms", counting)  # once per round
    passes = {name: {"reads": 0, "rounds": 0, "bad": []}
              for name in ("stored", "reverse")}
    searches = _stored_searches()
    for spec, answer, scan, c1, _, tol in searches:
        n, k = spec["n"], spec["k"]
        radii = [R for R, *_ in answer["history"]]
        fan, seeds = _fan_of(scan.grid, n, k, c1, tol)
        fresh = {R: _lanes_at(seeds, math.log(R), n, k, tol) for R in radii}
        for name, order in (("stored", radii), ("reverse", radii[::-1])):
            tally = passes[name]
            for R in order:
                start = rounds[0]
                got = fan.end_states(math.log(R))
                tally["reads"] += 1
                tally["rounds"] += rounds[0] - start
                if got.tobytes() != fresh[R].tobytes():
                    tally["bad"].append((spec, R))
    for name, tally in passes.items():
        print(f"{len(searches)} stored radius searches, {name} order: "
              f"{tally['reads']} fan reads, {tally['rounds']} lane-loop "
              f"rounds, {len(tally['bad'])} differences")
    assert passes["stored"]["bad"] == passes["reverse"]["bad"] == []
    assert passes["stored"]["reads"] == passes["reverse"]["reads"] == 878
    assert passes["stored"]["rounds"] <= 4098
    assert passes["reverse"]["rounds"] <= 1292


# ----------------------------------------------------- synthetic residuals


def _fake_residual_factory(fn):
    """Stand-in for the integrate-and-compare residual map.

    Like the real map it takes a scalar seed or the whole scan grid.
    """
    elementwise = np.vectorize(fn, otypes=[float])

    def factory(problem, rtol, atol):
        return elementwise
    return factory


def test_solve_annulus_brackets_and_merges_synthetic_roots(monkeypatch):
    monkeypatch.setattr(shooting, "_make_residual",
                        _fake_residual_factory(
                            lambda s: (s - 0.4) * (s - 0.6)))
    problem = AnnulusProblem(5, 2, 2.0)
    spec = shooting.ScanSpec(0.0, 1.0, 101)
    result = shooting.solve_annulus(problem, scan=spec, polish=False)
    assert result.status == "ok"
    assert [round(s.xi0, 9) for s in result] == [0.4, 0.6]
    # a merge radius wider than the root gap collapses them to one
    merged = shooting.solve_annulus(problem, scan=spec, polish=False,
                                    merge_tol=0.5)
    assert len(merged) == 1


def test_solve_annulus_accepts_roots_on_grid_points(monkeypatch):
    problem = AnnulusProblem(5, 2, 2.0)
    spec = shooting.ScanSpec(0.0, 1.0, 11)
    monkeypatch.setattr(shooting, "_make_residual",
                        _fake_residual_factory(lambda s: s - 0.0))
    low = shooting.solve_annulus(problem, scan=spec, polish=False)
    assert [s.xi0 for s in low] == [0.0]
    monkeypatch.setattr(shooting, "_make_residual",
                        _fake_residual_factory(lambda s: s - 1.0))
    high = shooting.solve_annulus(problem, scan=spec, polish=False)
    assert [s.xi0 for s in high] == [1.0]


def test_solve_annulus_inconclusive_on_wide_interior_gap(monkeypatch):
    monkeypatch.setattr(
        shooting, "_make_residual",
        _fake_residual_factory(
            lambda s: math.nan if 0.3 < s < 0.7 else 1.0))
    result = shooting.solve_annulus(
        AnnulusProblem(5, 2, 2.0), scan=shooting.ScanSpec(0.0, 1.0, 101),
        polish=False, gap_limit=10)
    assert result.status == "inconclusive"
    assert result.diagnostics.gap_runs != []


def test_solve_annulus_inconclusive_when_every_bracket_is_rejected():
    # A residual bound no root can meet rejects every bracket; the solve
    # used to answer "empty", as if no root were there.
    problem = AnnulusProblem(5, 2, 5.0)
    scan = shooting.default_scan(5, 2, num=50)
    assert shooting.solve_annulus(problem, scan=scan).status == "ok"
    result = shooting.solve_annulus(problem, scan=scan, residual_bound=0.0)
    assert result.status == "inconclusive" and result.solutions == ()
    assert result.diagnostics.brackets != []
    assert len(result.diagnostics.rejected) == len(
        result.diagnostics.brackets)
    assert {r[0] for r in result.diagnostics.rejected} == {"residual_bound"}


def test_solve_annulus_edge_truncation_still_reads_empty(monkeypatch):
    monkeypatch.setattr(
        shooting, "_make_residual",
        _fake_residual_factory(lambda s: math.nan if s < 0.2 else 1.0))
    result = shooting.solve_annulus(
        AnnulusProblem(5, 2, 2.0), scan=shooting.ScanSpec(0.0, 1.0, 101),
        polish=False, gap_limit=10)
    assert result.status == "empty"
    assert result.diagnostics.truncated_low == 20
    assert result.diagnostics.truncated_high == 0


def test_nan_run_classification():
    nan = math.nan
    interior, lead, trail = shooting._nan_runs(
        np.array([nan, nan, 1.0, nan, 1.0, nan]))
    assert interior == [(3, 3)]
    assert lead == 2 and trail == 1
    interior, lead, trail = shooting._nan_runs(np.full(4, nan))
    assert interior == [] and lead == 4 and trail == 0
    interior, lead, trail = shooting._nan_runs(np.ones(4))
    assert interior == [] and lead == 0 and trail == 0


# -------------------------------------------------------- threshold search


def test_find_r_star_validates_inputs():
    with pytest.raises(ValueError):
        shooting.find_r_star(5, 2, 0.3, 0.0)  # c1 + c2 not negative
    with pytest.raises(ValueError):
        shooting.find_r_star(5, 1, -0.3, 0.0)  # k too small
    with pytest.raises(ValueError):
        shooting.find_r_star(4, 2, -0.3, 0.0)  # 2k not below n
    with pytest.raises(ValueError):
        shooting.find_r_star(5, 2, -0.3, 0.0, r_init=0.9)



def _fake_solver(decide):
    """solve_annulus stand-in driven by a per-radius verdict function."""

    def fake(problem, **kwargs):
        verdict = decide(problem.R)
        if verdict is None:
            return types.SimpleNamespace(status="inconclusive", solutions=())
        if verdict:
            return types.SimpleNamespace(status="ok", solutions=(0,))
        return types.SimpleNamespace(status="empty", solutions=())
    return fake


def test_find_r_star_brackets_a_synthetic_threshold(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: R >= 1.37))
    result = shooting.find_r_star(5, 2, -0.3, 0.0, rel_tol=1e-6)
    assert result.status == "ok"
    assert abs(result.r_star - 1.37) < 2e-6 * 1.37
    lo, hi = result.bracket
    assert lo < 1.37 <= hi
    assert all(entry[1] in ("ok", "empty") for entry in result.history)
    # solvable probes report one branch, unsolvable probes none
    assert all((entry[2] == 1) == (entry[0] >= 1.37)
               for entry in result.history)


def test_find_r_star_anomaly_when_solvable_at_every_radius(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: True))
    result = shooting.find_r_star(5, 2, -0.3, 0.0)
    assert result.status == "anomaly"
    assert result.r_star is None
    # the walk-down must have probed radii arbitrarily close to one
    assert min(entry[0] for entry in result.history) - 1.0 <= 4e-6


def test_find_r_star_unresolved_when_never_solvable(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: False))
    result = shooting.find_r_star(5, 2, -0.3, 0.0, R_max=64.0)
    assert result.status == "unresolved"
    assert result.r_star is None
    assert result.history[-1][0] == 64.0


def test_find_r_star_reports_disqualified_probes(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: None))
    result = shooting.find_r_star(5, 2, -0.3, 0.0)
    assert result.status == "inconclusive"
    assert result.r_star is None and result.bracket is None


@pytest.mark.parametrize("decide, R_max, last", [
    # walk-down from a solvable r_init = 1.01: its first probe is 1.0025
    (lambda R: None if R < 1.005 else True, 64.0, 1.0025),
    # growth march: 1.02 is unsolvable, 1.04 disqualified
    (lambda R: None if R > 1.03 else False, 64.0, 1.04),
    # the march ends at 41.96, so R_max is probed on its own
    (lambda R: None if R == 50.0 else False, 50.0, 50.0),
    # bisection of (1.32, 1.64): 1.48 and 1.40 are solvable, 1.36 is not
    (lambda R: None if 1.33 < R < 1.37 else R >= 1.37, 64.0, 1.36),
])
def test_find_r_star_stops_at_a_disqualified_probe_in_every_phase(
        monkeypatch, decide, R_max, last):
    monkeypatch.setattr(shooting, "solve_annulus", _fake_solver(decide))
    result = shooting.find_r_star(5, 2, -0.3, 0.0, R_max=R_max)
    assert result.status == "inconclusive"
    assert result.r_star is None and result.bracket is None
    assert result.history[-1] == (pytest.approx(last), "inconclusive", 0)
    assert all(entry[1] != "inconclusive" for entry in result.history[:-1])
    assert len(result.history) > 1


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0}, {"rel_tol": -1e-4}, {"rel_tol": math.nan},
    {"rel_tol": math.inf}, {"shrink_limit": 0.0},
    {"shrink_limit": math.nan}, {"R_max": math.inf}, {"R_max": math.nan},
    {"growth": 1.0}, {"growth": 0.5}, {"growth": math.nan},
    {"growth": math.inf}, {"growth": 1.0 + 2.0 ** -52}, {"growth": 1.001},
])
def test_find_r_star_refuses_degenerate_search_parameters(monkeypatch,
                                                          kwargs):
    # Each of these made the search loop forever or skip its bisection.
    # The last two need more than MAX_GROWTH_PROBES radii to reach R_max;
    # with 1 + 2**-52, gap * growth rounds back to gap.
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: False))
    with pytest.raises(ValueError):
        shooting.find_r_star(5, 2, -0.3, 0.0, **kwargs)



# ------------------------------------------------------- branch transition


def _fake_counter(count_of_R):
    def fake(problem, **kwargs):
        m = count_of_R(problem.R)
        return types.SimpleNamespace(status="ok" if m else "empty",
                                     solutions=tuple(range(m)))
    return fake


def test_verify_bifurcation_locates_a_synthetic_transition(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_counter(lambda R: 1 if R < 6.0 else 3))
    result = shooting.verify_bifurcation(7, 2)
    thr = shooting.bifurcation_threshold(7, 2)
    assert result.status == "ok"
    assert result.predicted == thr
    assert abs(result.located - 6.0) <= 2e-4 * thr
    assert result.relative_error == abs(result.located - thr) / thr
    # the first two probes are the window endpoints
    assert result.history[0] == (pytest.approx(0.9 * thr), 1)
    assert result.history[1] == (pytest.approx(1.1 * thr), 3)


def test_verify_bifurcation_fails_without_a_branch_jump(monkeypatch):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_counter(lambda R: 1))
    result = shooting.verify_bifurcation(7, 2)
    assert result.status == "failed"
    assert result.located is None and result.relative_error is None
    assert len(result.history) == 2

@pytest.mark.parametrize("kwargs", [
    {"window": 0.0}, {"window": -0.5}, {"window": math.nan},
    {"span": 0.0}, {"span": 1.0}, {"span": math.nan},
    {"rel_tol": 0.0}, {"rel_tol": math.nan}, {"rel_tol": math.inf},
    {"num": 30.5}, {"num": 30.0}, {"num": 1},
])
def test_verify_bifurcation_refuses_degenerate_search_parameters(
        monkeypatch, kwargs):
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_counter(lambda R: 1 if R < 6.0 else 3))
    with pytest.raises(ValueError):
        shooting.verify_bifurcation(7, 2, **kwargs)


def test_bisections_stop_at_adjacent_floats(monkeypatch):
    # A tolerance finer than float spacing ends with an adjacent-float
    # bracket instead of probing its midpoint forever.
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_solver(lambda R: R >= 1.37))
    found = shooting.find_r_star(5, 2, -0.3, 0.0, rel_tol=1e-300)
    lo, hi = found.bracket
    assert found.status == "ok" and hi == np.nextafter(lo, 2.0)
    monkeypatch.setattr(shooting, "solve_annulus",
                        _fake_counter(lambda R: 1 if R < 6.0 else 3))
    located = shooting.verify_bifurcation(7, 2, rel_tol=1e-300).located
    assert abs(located - 6.0) <= 1e-14


# ------------------------------------------------------ degenerating seeds


def test_counterexample_sweep_validates_inputs():
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(5, 1, -1.0, 0.05, [1e-3])
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(5, 2, 0.1, 0.05, [1e-3])
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(5, 2, -1.0, 0.6, [1e-3])
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(5, 2, -1.0, 0.05, [0.1])
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(5, 2, -1.0, 0.05, [])
    with pytest.raises(ValueError):
        # inside (0, delta) but already outside the velocity window
        shooting.counterexample_sweep(5, 2, -1.0, 0.4, [0.3])
    for num_window in (0, 1, 2.0, 256.5):
        with pytest.raises(ValueError):
            shooting.counterexample_sweep(5, 2, -1.0, 0.05, [1e-3],
                                          num_window=num_window)


def test_counterexample_sweep_bounded_gradient_unbounded_hessian(tmp_path):
    eps_values = [1e-3, 3e-3, 1e-2]
    sweep = shooting.counterexample_sweep(5, 2, -1.0, 0.05, eps_values)
    assert sweep.n == 5 and sweep.k == 2
    assert [row.eps for row in sweep.rows] == eps_values
    for row in sweep.rows:
        assert row.xi0 == row.eps + math.log(1.0)
        assert row.xi_t0 == -math.exp(-row.eps)
        assert row.termination == "window_exit"
        assert row.T_window > 1e-3
        assert row.xi_tt0 > 0.0
        assert np.isfinite(row.sup_c1)
        assert 2.0 < row.sup_c1 < 2.2
    # the initial curvature grows like 1/eps across a decade of eps
    ratio = sweep.rows[0].xi_tt0 / sweep.rows[-1].xi_tt0
    assert 8.0 < ratio < 13.0
    hess = [row.hessian_inner for row in sweep.rows]
    assert hess[0] > hess[1] > hess[2]
    assert hess[0] / hess[2] > 8.0
    assert sweep.R0 == math.exp(min(r.T_window for r in sweep.rows))
    assert sweep.R0 > 1.0

    assert sweep.rows[0].as_list()[:2] == [sweep.rows[0].eps,
                                           sweep.rows[0].xi0]
    out = tmp_path / "sweep.csv"
    sweep.write_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == shooting.SWEEP_COLUMNS
    assert len(rows) == 1 + len(eps_values)
    assert float(rows[1][0]) == eps_values[0]
    assert rows[1][5] == "window_exit"
