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
