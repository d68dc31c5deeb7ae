"""Radial ODE reduction: coordinates, integration, events, reconstruction."""
import math

import numpy as np
import pytest

from syl import radial, schouten, shooting, symfn


@pytest.mark.parametrize("n,k,want", [
    (5, 2, 0.5),          # 2 / C(4,1)
    (7, 3, 4.0 / 15.0),   # 4 / C(6,2)
    (3, 1, 1.0),          # 1 / C(2,0)
    (7, 2, 1.0 / 3.0),    # 2 / C(6,1)
])
def test_theta_constant(n, k, want):
    assert radial.theta_constant(n, k) == pytest.approx(want, rel=1e-15)


def test_annulus_problem_validation_and_derived_fields():
    p = radial.AnnulusProblem(5, 2, 4.0, 0.1, -0.2)
    assert p.T == pytest.approx(math.log(4.0))
    assert p.theta == pytest.approx(0.5)
    with pytest.raises(ValueError):
        radial.AnnulusProblem(5, 2, 1.0)  # outer radius must exceed 1
    with pytest.raises(ValueError):
        radial.AnnulusProblem(5, 0, 2.0)
    with pytest.raises(ValueError):
        radial.AnnulusProblem(2, 1, 2.0)


@pytest.mark.parametrize("R,c1,c2", [(math.inf, 0.0, 0.0),
                                     (math.nan, 0.0, 0.0),
                                     (4.0, math.nan, 0.0),
                                     (4.0, 0.0, -math.inf)])
def test_annulus_problem_rejects_non_finite_data(R, c1, c2):
    with pytest.raises(ValueError):
        radial.AnnulusProblem(5, 2, R, c1, c2)


def test_coordinate_maps_roundtrip():
    rng = np.random.default_rng(8)
    for n in (3, 5, 8):
        t = rng.normal(size=6)
        xi = rng.normal(size=6)
        u = radial.u_from_xi(xi, t, n)
        assert np.all(u > 0)
        np.testing.assert_allclose(radial.xi_from_u(u, t, n), xi,
                                   rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        radial.xi_from_u(np.array([-1.0]), np.array([0.0]), 5)


def test_radial_state_admissibility():
    assert radial.RadialState(0.0, 1.0, 0.5).admissible
    assert not radial.RadialState(0.0, 1.0, 1.0).admissible
    assert not radial.RadialState(0.0, 1.0, -1.0 + 1e-14).admissible


def test_ode_rhs_cylinder_is_stationary():
    # the constant solution sits where acceleration vanishes at xi_t = 0
    for n, k in ((5, 2), (7, 3), (7, 2)):
        xi_cyl = shooting.cylinder_solution(n, k)[0]
        assert radial.ode_rhs(xi_cyl, 0.0, n, k) == pytest.approx(0.0, abs=1e-14)


def test_ode_rhs_vectorized_and_pole():
    vals = radial.ode_rhs(np.zeros(3), np.array([0.0, 0.5, -0.5]), 5, 2)
    assert vals.shape == (3,)
    # pure evaluation: the degenerate set is a genuine pole for k >= 2
    # and guarding is the integrator's job
    with np.errstate(divide="ignore"):
        assert math.isinf(radial.ode_rhs(0.0, 1.0, 5, 2))


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (5, 1), (5, 3)])
def test_invariant_is_conserved_along_trajectories(n, k):
    xi0 = 0.2 if n > 2 * k else -0.3
    traj = radial.integrate((xi0, 0.1), 2.0, n, k)
    s = traj.sample(150)
    E = radial.ode_invariant(s[:, 1], s[:, 2], n, k)
    # rtol 1e-10 per step accumulates over ~1e3 steps; 1e-8 is the honest
    # ceiling for the drift across all (n, k) pairs exercised here
    assert np.abs(E - E[0]).max() < 1e-8 * max(1.0, abs(E[0]))


def test_negative_invariant_forces_breakdown():
    """A negative conserved quantity certifies the orbit degenerates in
    finite time; the integrator reports it even when the terminal event
    is numerically unreachable behind the pole."""
    seed = (0.01, -math.exp(-0.01))  # steep inward slope
    assert radial.ode_invariant(*seed, 5, 2) < 0.0
    traj = radial.integrate(seed, 50.0, 5, 2)
    assert traj.termination == "ellipticity_breakdown"
    assert traj.t_end < 50.0
    final = traj.final_state
    assert 1.0 - final.xi_t ** 2 < 1e-4


def test_positive_invariant_orbits_reach_horizon():
    xi_cyl = shooting.cylinder_solution(5, 2)[0]
    seed = (xi_cyl + 0.4, 0.0)
    assert radial.ode_invariant(*seed, 5, 2) > 0.0
    traj = radial.integrate(seed, 6.0, 5, 2)
    assert traj.termination == "reached_T"
    assert traj.t_end == pytest.approx(6.0)


def test_integrate_input_validation():
    with pytest.raises(ValueError):
        radial.integrate((0.0, 1.0), 1.0, 5, 2)  # inadmissible seed
    with pytest.raises(ValueError):
        radial.integrate((0.0, 0.0), -1.0, 5, 2)


@pytest.mark.parametrize("T_max", [math.inf, math.nan])
def test_integrate_refuses_a_non_finite_end_time(T_max):
    # An orbit near the cylinder neither breaks down nor leaves, so with
    # T_max = inf the integration used to run forever.
    xi_cyl = shooting.cylinder_solution(5, 2)[0]
    with pytest.raises(ValueError):
        radial.integrate((xi_cyl + 0.05, 0.0), T_max, 5, 2,
                         rtol=1e-6, atol=1e-9)
    with pytest.raises(ValueError):
        shooting.counterexample_sweep(6, 2, -1.0, 0.2, [1e-3], T_max=T_max)


def test_integrate_extra_event_termination():
    def crossing(t, y):
        return y[0] - 0.5  # fires when xi grows through 0.5

    crossing.terminal = True
    xi_cyl = shooting.cylinder_solution(5, 2)[0]
    traj = radial.integrate((xi_cyl + 0.3, 0.4), 10.0, 5, 2,
                            extra_events=(crossing,))
    assert traj.termination == "event:0"
    assert traj.xi(traj.t_end) == pytest.approx(0.5, abs=1e-8)


def test_trajectory_state_accessors_and_range_checks():
    traj = radial.integrate((0.3, 0.0), 1.0, 5, 2)
    st = traj.state(0.5)
    assert st.t == 0.5
    assert traj.initial_state.xi == pytest.approx(0.3)
    assert traj.final_state.t == pytest.approx(traj.t_end)
    with pytest.raises(ValueError):
        traj.xi(traj.t_end + 1.0)
    s = traj.sample(64)
    assert s.shape == (64, 3)
    assert s[0, 0] == 0.0 and s[-1, 0] == pytest.approx(traj.t_end)
    # A sample count must be an integer of at least two.
    for num in (0, 1, 2.5, True, "3"):
        with pytest.raises(ValueError, match="integer of at least 2"):
            traj.sample(num)
        with pytest.raises(ValueError, match="integer of at least 2"):
            radial.reconstruct(traj, num)
    assert traj.sample(np.int64(5)).shape == (5, 3)
    assert radial.reconstruct(traj, np.int64(5)).t.shape == (5,)


def test_trajectory_xi_tt_matches_rhs():
    traj = radial.integrate((0.25, -0.1), 1.5, 5, 2)
    for t in (0.0, 0.7, 1.2):
        want = radial.ode_rhs(traj.xi(t), traj.xi_t(t), 5, 2)
        assert traj.xi_tt(t) == pytest.approx(want, rel=1e-9)


def test_bc_residuals_closed_forms():
    st = radial.RadialState(0.0, 0.2, 0.3)
    assert radial.inner_bc_residual(st, 0.0) == pytest.approx(0.3)
    c1 = 0.25
    assert radial.inner_bc_residual(st, c1) == pytest.approx(
        0.3 - c1 * math.exp(-0.2))
    end = radial.RadialState(math.log(4.0), -0.1, 0.05)
    c2 = -0.3
    assert radial.outer_bc_residual(end, c2, 4.0) == pytest.approx(
        0.05 + c2 * math.exp(0.1) / 4.0)


def test_cylinder_trajectory_reconstruction_solves_pointwise():
    """The constant orbit reconstructs to a conformal factor whose
    curvature eigenvalues satisfy the normalized equation everywhere."""
    n, k = 5, 2
    xi_cyl = shooting.cylinder_solution(n, k)[0]
    traj = radial.integrate((xi_cyl, 0.0), math.log(3.0), n, k)
    prof = radial.reconstruct(traj, 100)
    assert np.abs(prof.sigma_k_residual).max() < 1e-10
    np.testing.assert_allclose(prof.r, np.exp(prof.t), rtol=1e-13)
    np.testing.assert_allclose(
        prof.u, np.exp(-0.5 * (n - 2) * (prof.xi + prof.t)), rtol=1e-12)
    # radial derivative of u by chain rule
    m = 0.5 * (n - 2)
    np.testing.assert_allclose(
        prof.du, -m * (prof.xi_t + 1.0) * prof.u / prof.r, rtol=1e-10)


def test_reconstruct_second_derivative_consistency():
    traj = radial.integrate((0.4, -0.2), 1.0, 5, 2)
    prof = radial.reconstruct(traj, 50)
    # u'' from the profile equals the numerical derivative of u' in r
    # away from the endpoints
    d2 = np.gradient(prof.du, prof.r, edge_order=2)
    np.testing.assert_allclose(prof.d2u[3:-3], d2[3:-3], rtol=5e-3)
    # and the spectral columns agree with the closed-form map
    lr, lt = schouten.radial_eigenvalues(prof.xi, prof.xi_t, prof.xi_tt, 5)
    np.testing.assert_allclose(prof.lam_rad, lr, rtol=1e-12)
    np.testing.assert_allclose(prof.lam_tan, lt, rtol=1e-12)


def test_profile_csv_roundtrip(tmp_path):
    traj = radial.integrate((0.3, 0.1), 0.8, 5, 2)
    prof = radial.reconstruct(traj, 20)
    path = tmp_path / "profile.csv"
    prof.write_csv(path)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert list(data.dtype.names) == radial.CSV_COLUMNS
    # %.17g output reproduces the arrays bit-for-bit
    np.testing.assert_array_equal(data["xi"], prof.xi)
    np.testing.assert_array_equal(data["sigma_k_residual"],
                                  prof.sigma_k_residual)


def test_solution_trajectories_stay_in_cone():
    """Shooting solutions keep every lower sigma_l positive along the way."""
    res = shooting.solve_annulus(radial.AnnulusProblem(5, 2, 3.0))
    assert res.status == "ok"
    for sol in res:
        prof = radial.reconstruct(sol.trajectory, 60)
        for lr, lt in zip(prof.lam_rad, prof.lam_tan):
            lam = np.array([lr] + [lt] * 4)
            assert symfn.in_gamma_k(lam, 2)


@pytest.mark.parametrize("n,k,seed,T", [(5, 1, (0.2, 0.3), 1.5),
                                        (5, 2, (0.4, -0.2), 1.0),
                                        (7, 3, (0.1, 0.5), 1.2),
                                        (8, 4, (0.0, -0.6), 0.8)])
def test_reconstruct_sigma_k_residual_column(n, k, seed, T):
    prof = radial.reconstruct(radial.integrate(seed, T, n, k), 64)
    lr, lt = prof.lam_rad, prof.lam_tan
    newton = [symfn.sigma_k(np.array([a] + [b] * (n - 1)), k) - 1.0
              for a, b in zip(lr, lt)]
    assert prof.sigma_k_residual.tolist() == newton
    # One radial and n - 1 equal tangential eigenvalues factor sigma_k.
    factored = (math.comb(n - 1, k - 1) * lt ** (k - 1)
                * (lr + (n - k) / k * lt) - 1.0)
    spread = (np.abs(lr) + (n - 1) * np.abs(lt)) ** k
    assert np.all(np.abs(prof.sigma_k_residual - factored) <= 1e-12 * spread)


@pytest.mark.parametrize("s", [5.93, 6.0])
@pytest.mark.parametrize("rtol,atol", [(1e-7, 1e-9), (1e-10, 1e-12)])
def test_cone_bracket_rounding_does_not_stop_trajectories(s, rtol, atol):
    """Where theta e^{-2k xi} is ~1e-16 of 1 - xi_t^2, the l = k cone
    bracket cancels to rounding; these seeds used to stop as cone exits,
    s = 6.0 at t = 0."""
    seed, T = (s, 1.5 * math.exp(-s)), math.log(6.0)
    traj = radial.integrate(seed, T, 7, 3, rtol=rtol, atol=atol)
    assert traj.termination == "reached_T"
    xi, xi_t, cause = radial.integrate_endpoint(*seed, T, 7, 3,
                                                rtol=rtol, atol=atol)
    assert cause == "reached_T"
    residual = radial.outer_bc_residual(radial.RadialState(T, xi, xi_t),
                                        0.0, 6.0)
    assert math.isfinite(residual)
    assert residual == pytest.approx(traj.final_state.xi_t, abs=1e-6)


def test_integrate_no_longer_locates_a_rounding_cone_exit():
    # scipy's event location used to raise "f(a) and f(b) must have
    # different signs" on the cancelling cone bracket here.
    traj = radial.integrate((3.24, 0.199), 1.49, 7, 6, rtol=1e-7, atol=1e-9)
    assert traj.termination == "reached_T"


def test_integrate_endpoint_input_validation():
    with pytest.raises(ValueError):
        radial.integrate_endpoint(0.0, 1.0, 1.0, 5, 2)  # inadmissible seed
    for xi_t0 in (1e200, math.nan):  # refused without a RuntimeWarning
        with pytest.raises(ValueError):
            radial.integrate_endpoint(0.0, xi_t0, 1.0, 5, 2)
        with pytest.raises(ValueError):
            radial.integrate_lanes([0.0], [xi_t0], 1.0, 5, 2)
    with pytest.raises(ValueError):
        radial.integrate_endpoint(0.0, 0.0, -1.0, 5, 2)
    with pytest.raises(ValueError):
        radial.integrate_endpoint(0.0, 0.0, math.inf, 5, 2)


# Each integration entry point on the seed (xi0, 0.1) of (5, 2) to T = 1.
_ENTRY_POINTS = {
    "integrate": lambda xi0=0.5, **tol: radial.integrate(
        (xi0, 0.1), 1.0, 5, 2, **tol).final_state.xi,
    "integrate_lanes": lambda xi0=0.5, **tol: radial.integrate_lanes(
        [xi0], [0.1], 1.0, 5, 2, **tol)[0][0],
    "integrate_endpoint": lambda xi0=0.5, **tol: radial.integrate_endpoint(
        xi0, 0.1, 1.0, 5, 2, **tol)[0],
    "LaneFan": lambda xi0=0.5, **tol: radial.LaneFan(
        [xi0], [0.1], 5, 2, **tol).end_states(1.0)[0, 0],
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("xi0", [math.nan, math.inf, -math.inf])
def test_integrators_refuse_a_non_finite_seed(entry, xi0):
    # The lanes and the float stepper used to answer nan and step_failure.
    with pytest.raises(ValueError, match="finite"):
        _ENTRY_POINTS[entry](xi0=xi0)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("name", ["rtol", "atol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1e-8])
def test_integrators_refuse_a_bad_tolerance(entry, name, value):
    # A nan tolerance used to shrink a nan step forever in integrate.
    with pytest.raises(ValueError, match="rtol and atol"):
        _ENTRY_POINTS[entry](**{name: value})


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_integrators_accept_zero_tolerances(entry):
    # Each entry point raises an rtol below 100 eps to it with a warning,
    # as scipy's RK45 does; with rtol = atol = 0 the lanes and the float
    # stepper used to reject every trial step.
    for tol in ({"rtol": 0.0}, {"rtol": 0.0, "atol": 0.0}):
        with pytest.warns(UserWarning, match="rtol"):
            assert math.isfinite(_ENTRY_POINTS[entry](**tol))
    assert math.isfinite(_ENTRY_POINTS[entry](atol=0.0))


def test_lane_fan_input_validation():
    with pytest.raises(ValueError, match="admissible"):
        radial.LaneFan([0.0, 0.0], [0.5, 1.0], 5, 2)
    fan = radial.LaneFan([0.0], [0.5], 5, 2)
    for T in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be"):
            fan.end_states(T)


def test_lanes_accept_zero_seeds():
    # A scan grid with no admissible seed integrates none.
    xi, xi_t, cause = radial.integrate_lanes(np.zeros(0), np.zeros(0), 1.0,
                                             5, 2)
    assert xi.shape == xi_t.shape == cause.shape == (0,)
    assert radial.LaneFan([], [], 5, 2).end_states(1.0).shape == (2, 0)


@pytest.mark.parametrize("seed,T,n,k,want", [
    ((0.0, 0.999999), 1.0, 25, 12, "ellipticity_breakdown"),
    ((0.0, -0.9999), 2.0, 30, 14, "ellipticity_breakdown"),
    ((-1.0, 0.99), 2.0, 26, 12, "ellipticity_breakdown"),
])
def test_integrate_ends_like_a_lane_where_the_pole_overflows(seed, T, n, k,
                                                             want):
    # For k >= 12, (1 - xi_t^2)^(1-k) overflows a float near the
    # degenerate set; this used to raise OverflowError out of integrate.
    traj = radial.integrate(seed, T, n, k)
    _, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), T, n, k)
    assert traj.termination == cause == want


LARGE_K_SEED = (10.0, 3.0e-6 * math.exp(-10.0))


def test_large_k_breakdown_follows_the_tanh_closed_form(deadline):
    # For k >= 27 the pole overflows inside the guard while e^{-2k xi}
    # underflows, and 0 * inf = nan made the stepper crawl.  For k > n/2
    # and large xi the theta term is negligible: xi_tt = g (1 - xi_t^2)
    # with g = (2k - n)/(2k), so xi_t = tanh(g t + artanh xi_t0) falls to
    # the guard 1 - xi_t^2 = 1e-12 at t_b below.
    n, k = 35, 28
    g = (2 * k - n) / (2 * k)
    t_b = (math.acosh(1e6) - math.atanh(LARGE_K_SEED[1])) / g
    assert t_b == pytest.approx(38.690, abs=1e-3)
    with deadline(10):
        traj = radial.integrate(LARGE_K_SEED, 45.0, n, k)
        assert traj.termination == "ellipticity_breakdown"
        assert abs(traj.t_end - t_b) < 0.1
        for rtol, atol in ((1e-7, 1e-9), (1e-10, 1e-12)):
            for T, want in ((38.5, "reached_T"),
                            (39.0, "ellipticity_breakdown")):
                got = radial.integrate_endpoint(*LARGE_K_SEED, T, n, k,
                                                rtol=rtol, atol=atol)
                _, _, (cause,) = radial.integrate_lanes(
                    *([v] for v in LARGE_K_SEED), T, n, k, rtol=rtol,
                    atol=atol)
                assert got[2] == cause == want, (rtol, T)


def _lane_accel(x, v, n, k):
    """xi_tt of the lanes at states (x, v), scalars or 1-D arrays."""
    y = np.array([np.ravel(x), np.ravel(v)])
    out = np.empty_like(y)
    with np.errstate(all="ignore"):  # as in the lane loop
        radial._lane_rhs(y, k, radial.theta_constant(n, k),
                         (n - 2.0 * k) / (2.0 * k), out)
    return out[1].reshape(np.shape(x))[()]


def test_large_k_right_hand_side_takes_the_product_in_log_form():
    # e^{-2k xi} underflows and (1 - xi_t^2)^(1-k) overflows; their
    # product underflows, so xi_tt is the beta term alone.
    n, k, x, v = 35, 28, 48.0, 0.9999999999981
    want = -(n - 2.0 * k) / (2.0 * k) * (1.0 - v * v)
    assert radial.ode_rhs(x, v, n, k) == pytest.approx(want, rel=1e-12)
    assert radial._clamped_accel(n, k)(x, v) == pytest.approx(want,
                                                             rel=1e-12)
    assert _lane_accel(x, v, n, k) == pytest.approx(want, rel=1e-12)


def test_ode_rhs_is_the_lanes_right_hand_side():
    # On admissible states with -2k xi <= 700 the lanes clamp nothing, so
    # ode_rhs and their second row run the same operations, the log form
    # of large k included (it is taken where k >= 27 near the pole).
    rng = np.random.default_rng(45)
    logged = 0
    for n in range(3, 40):
        for k in range(1, n + 1):
            x = np.concatenate([rng.uniform(-350.0 / k, 8.0, 60),
                                rng.uniform(30.0, 60.0, 20)])
            v = rng.uniform(-1.0, 1.0, 80) * (1.0 - 10.0 ** rng.uniform(
                -11.9, 0.0, 80))
            v[-20:] = np.copysign(1.0 - 10.0 ** rng.uniform(-11.9, -10.0, 20),
                                  v[-20:])
            assert (1.0 - v * v > radial.ETA_GUARD).all()
            with np.errstate(all="ignore"):
                want = radial.ode_rhs(x, v, n, k)
                th = radial.theta_constant(n, k)
                logged += np.isnan(th * np.exp(-2.0 * k * x)
                                   * (1.0 - v * v) ** (1 - k)).sum()
            np.testing.assert_array_equal(_lane_accel(x, v, n, k), want,
                                          err_msg=f"{n}, {k}")
    assert logged > 0


def test_large_k_clamped_trials_keep_their_nan():
    # A trial past the degenerate set is clamped to 1 - xi_t^2 = 1e-30;
    # its nan must stay, so that the step is rejected.
    n, k, x, v = 35, 28, 48.0, 1.0 + 1e-9
    assert math.isnan(radial._clamped_accel(n, k)(x, v))
    assert math.isnan(_lane_accel(x, v, n, k))


def test_integrate_does_not_warn_on_rejected_trial_steps():
    # Trial steps from these seeds reach the clamped pole, and scipy's
    # stage sums used to warn "invalid value encountered in dot"; the
    # suite turns any RuntimeWarning into an error.
    seeds = np.linspace(-1.0, 1.0, 15)
    T = math.log(6.0)
    causes = [radial.integrate((s, 0.0), T, 7, 2, rtol=1e-7,
                               atol=1e-9).termination for s in seeds]
    _, _, lanes = radial.integrate_lanes(seeds, np.zeros(15), T, 7, 2,
                                         rtol=1e-7, atol=1e-9)
    assert causes == lanes.tolist()
    assert "ellipticity_breakdown" in causes and "reached_T" in causes


_START_CLASSES = [(3, 1), (4, 2), (5, 2), (6, 3), (7, 2), (7, 3), (10, 4),
                  (12, 12), (25, 12), (30, 14), (40, 14)]


def _start_draws():
    """(n, k, xs, vs) per class of _START_CLASSES: seeds of every slope,
    some next to the degenerate set, and some with overflowing
    exponentials."""
    rng = np.random.default_rng(20261018)
    for n, k in _START_CLASSES:
        xs = np.concatenate([rng.uniform(-6.0, 6.0, 40),
                             rng.uniform(-400.0, 400.0, 10)])
        vs = rng.uniform(-1.0, 1.0, 50) * (1.0 - 10.0 ** rng.uniform(
            -12.0, 0.0, 50))
        yield n, k, xs, vs


@pytest.mark.parametrize("rtol,atol", [(1e-7, 1e-9), (1e-10, 1e-12)])
def test_float_start_equals_lane_start_bit_for_bit(rtol, atol):
    # integrate_endpoint starts from _start, and the lanes from _start
    # seed by seed, so a lane's start does not depend on its batch.
    for n, k, xs, vs in _start_draws():
        f, h = radial._lane_start(np.array([xs, vs]), n, k, rtol, atol)
        accel = radial._clamped_accel(n, k)
        for i, (x, v) in enumerate(zip(xs.tolist(), vs.tolist())):
            a, h1 = radial._start(x, v, accel, rtol, atol)
            assert float(f[0, i]).hex() == v.hex()
            assert a.hex() == float(f[1, i]).hex(), (n, k, x, v)
            assert h1.hex() == float(h[i]).hex(), (n, k, x, v)


@pytest.mark.parametrize("seed", [(0.5, 0.0), (0.0, 0.5)])
def test_zero_atol_is_refused_for_a_seed_with_a_zero_component(seed):
    # The component's error scale is 0, so scipy's starting step is nan,
    # which its controller shrinks forever.  A lane and the float stepper
    # end such a seed at once.
    with pytest.raises(ValueError):
        radial.integrate(seed, 1.0, 5, 2, atol=0.0)
    _, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), 1.0, 5, 2,
                                            atol=0.0)
    got = radial.integrate_endpoint(*seed, 1.0, 5, 2, atol=0.0)
    assert got[2] == cause == "step_failure"


@pytest.mark.parametrize("seed,want", [((0.0, 0.9), "ellipticity_breakdown"),
                                       ((0.0, -0.9), "step_failure")])
def test_a_step_failure_at_the_seed_is_labelled_by_the_certificate(seed,
                                                                   want):
    # At atol = 0 both fail their first step.  From (0, 0.9) the first
    # integral proves breakdown by t = 0.021; from (0, -0.9), with
    # xi_t < 0, it gives no time.
    _, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), 1.0, 5, 2,
                                            atol=0.0)
    got = radial.integrate_endpoint(*seed, 1.0, 5, 2, atol=0.0)
    assert got[2] == cause == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,n,k", [((-200.0, 0.0), 5, 2),
                                      ((-360.0, 0.5), 7, 3)])
def test_extreme_seeds_end_quietly_as_a_lane_ends_them(seed, n, k):
    # The exponentials of these seeds overflow: the float start must take
    # numpy's inf and nan, and certifying the breakdown must not warn.
    xi, xi_t, (cause,) = radial.integrate_lanes(*([v] for v in seed), 1.0,
                                                n, k)
    got = radial.integrate_endpoint(*seed, 1.0, n, k)
    assert got[2] == cause == "step_failure"
    assert math.isnan(got[0]) and math.isnan(got[1])
    assert np.isnan(xi).all() and np.isnan(xi_t).all()


# ------------------------------------------------ the breakdown certificate


def _certificate_grids():
    """(n, k, T, seeds, slopes, rtol, atol, fan): the scan grids of the
    wide-annulus and branch-count acceptance tests, and 200-seed default
    windows at two radii; ``fan`` marks the grids that radius searches
    read from a LaneFan."""
    for n, k in ((5, 2), (7, 3)):
        xi_c = shooting.cylinder_solution(n, k)[0]
        grid = shooting.ScanSpec(xi_c - 5.0, xi_c + 5.0, 301).grid
        for R in (1.5, 2.0, 5.0, 10.0, 50.0):
            for c1 in (0.0, 0.3, 0.5):
                ok, slopes = shooting._inner_slopes(grid, c1)
                yield n, k, math.log(R), grid[ok], slopes[ok], 1e-7, 1e-9, \
                    False
    for n, k in ((5, 2), (7, 2), (7, 3)):
        xi_c = shooting.cylinder_solution(n, k)[0]
        grid = shooting.ScanSpec(xi_c - 0.5, xi_c + 0.5, 400).grid
        thr = shooting.bifurcation_threshold(n, k)
        for R in (0.9 * thr, 1.1 * thr):
            yield n, k, math.log(R), grid, 0.0 * grid, 1e-9, 1e-11, True
    for n, k in ((4, 1), (5, 2), (6, 2), (7, 2), (7, 3), (6, 4), (9, 4),
                 (10, 5)):
        grid = shooting.default_scan(n, k, num=200).grid
        for R, c1 in ((2.0, -0.5), (20.0, 0.5)):
            ok, slopes = shooting._inner_slopes(grid, c1)
            yield n, k, math.log(R), grid[ok], slopes[ok], 1e-7, 1e-9, False


def _uncertified(t, xi, xi_t, n, k):
    return np.full(np.shape(xi), math.nan)


def test_certified_lanes_break_down_before_T(monkeypatch):
    # Each lane that the first integral ends early must break down before
    # T on the float stepper, which has no early end, and every eighth
    # on the dense integrator no later than the certified time; the lanes
    # and fan reads must equal those of a loop without the certificate
    # bit for bit, but for step failures that it proves are breakdowns.
    bound_of = radial._breakdown_time
    certified = 0
    for n, k, T, xs, vs, rtol, atol, fan in _certificate_grids():
        tol = dict(rtol=rtol, atol=atol)
        got = radial.integrate_lanes(xs, vs, T, n, k, **tol)
        reads = fan and radial.LaneFan(xs, vs, n, k, **tol).end_states(T)
        with monkeypatch.context() as patch:
            patch.setattr(radial, "_breakdown_time", _uncertified)
            want = radial.integrate_lanes(xs, vs, T, n, k, **tol)
            if fan:
                plain = radial.LaneFan(xs, vs, n, k, **tol).end_states(T)
                assert reads.tobytes() == plain.tobytes()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        relabeled = got[2] != want[2]
        assert (got[2][relabeled] == "ellipticity_breakdown").all()
        assert (want[2][relabeled] == "step_failure").all()

        horizon = T - 1e-3 * max(1.0, T)
        broke = got[2] == "ellipticity_breakdown"
        for x, v in zip(xs[broke].tolist(), vs[broke].tolist()):
            bounds = []
            with monkeypatch.context() as patch:
                patch.setattr(radial, "_breakdown_time", lambda *args: (
                    bounds.append(bound_of(*args)) or bounds[-1]))
                radial.integrate_lanes([x], [v], T, n, k, **tol)
            seed, *steps = bounds
            ends = [float(b[0]) for b in steps if b[0] <= horizon]
            if np.isnan(seed).all() or not ends:
                continue
            certified += 1
            assert radial.integrate_endpoint(x, v, T, n, k, **tol)[2] \
                == "ellipticity_breakdown", (n, k, T, x, v)
            if certified % 8 == 0:  # a dense integration costs 5-10 ms
                traj = radial.integrate((x, v), T, n, k, **tol)
                assert traj.termination == "ellipticity_breakdown"
                assert traj.t_end <= ends[0], (n, k, T, x, v)
    assert certified >= 2000


def test_fan_stopped_lanes_break_down_before_the_stop(monkeypatch):
    # Each lane that a fan read ends as a breakdown, by the guard or
    # early by the first integral, must break down before that read's T
    # on the float stepper, which has no early end.  Three reads run each
    # fan.
    lane_loop = radial._lane_loop
    stopped = []

    def spy(y0, t, y, f, h, T, n, k, rtol, atol, **kwargs):
        end, cause = lane_loop(y0, t, y, f, h, T, n, k, rtol, atol, **kwargs)
        stopped.extend((x, v, T, n, k, rtol, atol) for x, v in
                       y0[:, cause == 1].T.tolist())
        return end, cause

    monkeypatch.setattr(radial, "_lane_loop", spy)
    # The bifurcation windows, once per class, and default windows.
    grids = list({(n, k): (n, k, xs, vs, rtol, atol) for n, k, _, xs, vs,
                  rtol, atol, fan in _certificate_grids() if fan}.values())
    for n, k in ((5, 2), (7, 3), (9, 4), (13, 12)):
        grid = shooting.default_scan(n, k, num=100).grid
        for c1 in (-0.5, 0.5):
            ok, slopes = shooting._inner_slopes(grid, c1)
            grids.append((n, k, grid[ok], slopes[ok], 1e-7, 1e-9))
    for n, k, xs, vs, rtol, atol in grids:
        fan = radial.LaneFan(xs, vs, n, k, rtol=rtol, atol=atol)
        for R in (2.0, 8.0, 64.0):
            fan.end_states(math.log(R))
    for x, v, T, n, k, rtol, atol in stopped:
        assert radial.integrate_endpoint(x, v, T, n, k, rtol=rtol,
                                         atol=atol)[2] \
            == "ellipticity_breakdown", (x, v, T, n, k)
    assert len(stopped) >= 250


def test_a_fan_extension_skips_the_steps_of_stopped_lanes(monkeypatch):
    # A 200-seed (5, 2) window first read at ln 64 takes fewer rounds of
    # the lane loop than without the certificate, and reads the same
    # bits.
    grid = shooting.default_scan(5, 2, num=200).grid
    ok, slopes = shooting._inner_slopes(grid, -0.3)
    rms, calls, rounds, reads = radial._rms, [0], [], []

    def counting(a):
        calls[0] += 1
        return rms(a)

    monkeypatch.setattr(radial, "_rms", counting)  # once per round
    for certified in (True, False):
        with monkeypatch.context() as patch:
            if not certified:
                patch.setattr(radial, "_breakdown_time", _uncertified)
            fan = radial.LaneFan(grid[ok], slopes[ok], 5, 2, rtol=1e-7,
                                 atol=1e-9)
            calls[0] = 0
            fan.end_states(math.log(64.0))
            rounds.append(calls[0])
            reads.append([fan.end_states(math.log(R)).tobytes()
                          for R in (64.0, 20.0, 3.0, 1.5, 1.01)])
    assert rounds[0] < rounds[1] // 2, rounds
    assert reads[0] == reads[1]


@pytest.mark.parametrize("n,k,R,seed", [
    (4, 4, 3.6760991796894684, (-0.6783919597989945, 0.7361640939136332)),
    (6, 4, 12.217438668164554, (-0.2261306532663312, 0.6130286313858284)),
    (11, 4, 6.819361258741421, (-1.5978121662500038, 0.6331010515792268)),
    (5, 5, 49.16787219516935, (-1.1809045226130652, 0.9532932855348528)),
])
def test_large_k_breakdowns_take_one_label(n, k, R, seed):
    # The lanes and the float stepper fail their steps at different
    # states near the pole; when a state 1 - xi_t^2 < 1e-4 decided the
    # label, one of them called these breakdowns step failures.
    T, tol = math.log(R), dict(rtol=1e-7, atol=1e-9)
    xi, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), T, n, k,
                                             **tol)
    got = radial.integrate_endpoint(*seed, T, n, k, **tol)
    assert got[2] == cause == "ellipticity_breakdown"
    assert math.isnan(got[0]) and np.isnan(xi).all()


def test_large_k_lanes_end_like_the_float_stepper():
    # Default scan windows at random radii and inner slopes, for k >= 4.
    rng = np.random.default_rng(7)
    causes = set()
    for n, k in ((4, 4), (5, 4), (7, 4), (8, 5), (9, 6), (11, 4), (11, 8)):
        T = rng.uniform(math.log(1.2), math.log(50.0))
        grid = shooting.default_scan(n, k, num=100).grid
        ok, slopes = shooting._inner_slopes(grid, rng.uniform(-0.5, 0.5))
        xs, vs = grid[ok].tolist(), slopes[ok].tolist()
        xi, _, lanes = radial.integrate_lanes(xs, vs, T, n, k, rtol=1e-7,
                                              atol=1e-9)
        for x, v, end, cause in zip(xs, vs, xi.tolist(), lanes.tolist()):
            got = radial.integrate_endpoint(x, v, T, n, k, rtol=1e-7,
                                            atol=1e-9)
            assert got[2] == cause, (n, k, T, x, v)
            assert math.isnan(got[0]) == math.isnan(end), (n, k, T, x, v)
            causes.add(cause)
    assert causes == {"reached_T", "ellipticity_breakdown"}


def test_breakdown_time_reads_the_sign_of_the_invariant():
    # (5, 2): at rest on the cylinder E > 0, so nothing is certain; far
    # below it E < 0, with a bound while xi_t > 0 and inf otherwise.
    xi_c = shooting.cylinder_solution(5, 2)[0]
    got = radial._breakdown_time(1.0, np.array([xi_c, -1.0, -1.0]),
                                 np.array([0.0, 0.5, -0.5]), 5, 2)
    assert math.isnan(got[0]) and got[2] == math.inf
    assert radial.ode_invariant(-1.0, 0.5, 5, 2) < 0.0
    xi_b = math.log(-2 * 2 * 0.5 / (5 * radial.ode_invariant(-1.0, 0.5, 5,
                                                             2))) / 5
    assert got[1] == pytest.approx(1.0 + (xi_b + 1.0) / 0.5, rel=1e-12)
    traj = radial.integrate((-1.0, 0.5), 10.0, 5, 2)
    assert traj.termination == "ellipticity_breakdown"
    assert 1.0 + traj.t_end <= got[1]


def test_breakdown_time_reads_e_from_the_invariant():
    # Bit for bit the bound of the docstring with E from ode_invariant,
    # on arrays and on the Python floats of integrate_endpoint.
    rng = np.random.default_rng(46)
    sure = 0
    for n, k in ((3, 1), (5, 2), (7, 3), (8, 4), (9, 6), (35, 28)):
        x = rng.uniform(-3.0, 3.0, 400)
        v = rng.uniform(-1.0, 1.0, 400)
        t = rng.uniform(0.0, 5.0, 400)
        got = radial._breakdown_time(t, x, v, n, k)
        with np.errstate(all="ignore"):
            E = radial.ode_invariant(x, v, n, k)
            b = 2.0 * k * radial.theta_constant(n, k) / n
            want = np.where(v > 0.0, t + (np.log(-b / E) / n - x) / v,
                            math.inf)
        keep = E < -1e-6 * b * np.exp(-n * x)
        np.testing.assert_array_equal(np.isnan(got), ~keep)
        np.testing.assert_array_equal(got[keep], want[keep])
        for i in range(0, 400, 10):
            one = radial._breakdown_time(float(t[i]), float(x[i]),
                                         float(v[i]), n, k)
            assert one == got[i] or math.isnan(one) and math.isnan(got[i])
        sure += keep.sum()
    assert sure > 0


def test_seeds_from_the_survival_seed_have_a_surely_positive_invariant():
    # Random (n, k, c1) with n > 2k.  At every seed s > s*, with
    # xi_t0 = c1 e^{-s}, E exceeds the margin 1e-6 B e^{-ns}, and
    # E e^{ns} = (e^{2s} - c1^2)^k - B increases with s.  At s* itself E
    # is the margin, so s* is no higher than it must be.
    rng = np.random.default_rng(22)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(max(3, 2 * k + 1), 2 * k + 12))
        c1 = float(rng.uniform(-2.0, 2.0))
        b = 2.0 * k * radial.theta_constant(n, k) / n
        s_star = radial._survival_seed(n, k, c1)
        s = s_star + np.sort(rng.uniform(0.0, 4.0, 50))
        E = radial.ode_invariant(s, c1 * np.exp(-s), n, k)
        assert (E > 1e-6 * b * np.exp(-n * s)).all(), (n, k, c1)
        assert (np.diff(E * np.exp(n * s)) > 0.0).all(), (n, k, c1)
        assert radial.ode_invariant(s_star, c1 * math.exp(-s_star), n, k) \
            == pytest.approx(1e-6 * b * math.exp(-n * s_star), rel=1e-3)
