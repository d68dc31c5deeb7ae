"""Tests for the annulus shooting layer: scans, thresholds, and sweeps."""

import csv
import math
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
    with pytest.raises(ValueError):
        shooting.ScanSpec(0.0, 1.0, num=1)


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


# ------------------------------------------------------------ the seed fan


@pytest.mark.parametrize("n,k", [(5, 2), (7, 2), (7, 3)])
@pytest.mark.parametrize("tol", [(1e-7, 1e-9), (1e-9, 1e-11)])
def test_fan_reads_equal_fresh_scans(n, k, tol):
    # Each draw reads radii in a random order, one with R - 1 <= 1e-6,
    # which puts T below the starting step, and last a radius past every
    # earlier read, which extends the fan.  c1 takes both ends of its
    # range and two random values.
    rng = np.random.default_rng([n, k, round(-math.log10(tol[0]))])
    grid = shooting.default_scan(n, k, num=41).grid
    for c1 in (-0.6, 0.6, *rng.uniform(-0.6, 0.6, 2)):
        c2 = rng.uniform(-0.5, 0.5)
        radii = rng.uniform(1.0001, 12.0, rng.integers(2, 6)).tolist()
        radii.append(1.0 + 10.0 ** rng.uniform(-12.0, -6.0))
        order = [radii[i] for i in rng.permutation(len(radii))]
        order.append(1.5 * max(order))
        fan = shooting._SeedFan(grid, n, k, c1, *tol)
        for R in order:
            problem = AnnulusProblem(n, k, R, c1, c2)
            fresh = shooting._make_residual(problem, *tol)(grid)
            assert _same_bits(fan.residuals(problem), fresh)


def test_fan_restarts_a_lane_whose_starting_step_depends_on_T():
    # For seed 22 of this grid, scipy's starting step is about 0.0058585
    # with no end time, but bounding its first trial by T = ln 1.00591
    # changes it, although it stays below T, and with it the state at T.
    # The fan must start that lane afresh.
    n, k, c1, tol = 7, 2, -0.6, (1e-9, 1e-11)
    grid = shooting.default_scan(n, k, num=41).grid
    R = 1.00591
    T = math.log(R)
    seed = np.array([grid[22:23], c1 * np.exp(-grid[22:23])])
    f, h_free = radial._lane_start(seed, math.inf, n, k, *tol)
    _, h_T = radial._lane_start(seed, T, n, k, *tol)
    assert h_free[0] < T and h_T[0] != h_free[0]
    ends = [radial._lane_loop(seed, np.zeros(1), seed, f, h, T, n, k, *tol)[0]
            for h in (h_free, h_T)]
    assert not _same_bits(*ends)

    fan = shooting._SeedFan(grid, n, k, c1, *tol)
    for radius in (3.0, R):
        problem = AnnulusProblem(n, k, radius, c1, 0.0)
        fresh = shooting._make_residual(problem, *tol)(grid)
        assert _same_bits(fan.residuals(problem), fresh)


@pytest.mark.parametrize("change", ["grid", "class", "c1", "rtol", "atol"])
def test_solve_annulus_refuses_a_fan_of_another_scan(change):
    scan = shooting.default_scan(5, 2, num=40)
    fan = shooting._SeedFan(scan.grid, 5, 2, -0.3, 1e-7, 1e-9)
    problem = AnnulusProblem(5, 2, 3.0, -0.3, 0.0)
    kwargs = dict(scan=scan, scan_rtol=1e-7, scan_atol=1e-9, polish=False)
    served = shooting.solve_annulus(problem, _fan=fan, **kwargs)
    fresh = shooting.solve_annulus(problem, **kwargs)
    assert _same_bits(served.diagnostics.residuals,
                      fresh.diagnostics.residuals)

    if change == "grid":
        kwargs["scan"] = shooting.default_scan(5, 2, num=41)
    elif change == "class":
        problem = AnnulusProblem(7, 2, 3.0, -0.3, 0.0)
        kwargs["scan"] = shooting.ScanSpec(scan.lo, scan.hi, scan.num)
    elif change == "c1":
        problem = AnnulusProblem(5, 2, 3.0, -0.2, 0.0)
    else:
        kwargs["scan_" + change] = 1e-8
    with pytest.raises(ValueError, match="another scan"):
        shooting.solve_annulus(problem, _fan=fan, **kwargs)


@pytest.mark.parametrize("search", ["rstar", "bifurcation"])
def test_a_search_integrates_each_seed_from_zero_once(monkeypatch, search):
    # The fan's open-ended runs (T = inf) must form one chain of steps per
    # seed: each run resumes a seed where the last one left it, and every
    # accepted step moves it forward.  Each probe is one replay call.
    where, replays = {}, []

    def counting(y0, t, *args, accepted=None, **kwargs):
        if args[3] != math.inf:
            replays.append(t.size)
            return radial._lane_loop(y0, t, *args, **kwargs)
        for s, t_s in zip(y0[0].tolist(), t.tolist()):
            assert t_s == where.get(s, 0.0)
            where[s] = t_s

        def chained(i, t_i, *state):
            for s, t_s in zip(y0[0, i].tolist(), t_i.tolist()):
                assert t_s > where[s]
                where[s] = t_s
            accepted(i, t_i, *state)

        return radial._lane_loop(y0, t, *args, accepted=chained, **kwargs)

    def no_scan(*args, **kwargs):
        raise AssertionError("a probe integrated the scan grid afresh")

    monkeypatch.setattr(shooting, "_lane_loop", counting)
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
    assert sorted(where) == seeds.tolist()
    assert len(replays) == len(result.history)


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
