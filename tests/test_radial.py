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


@pytest.mark.parametrize("seed,T,n,k,want", [
    ((0.0, 0.999999), 1.0, 25, 12, "ellipticity_breakdown"),
    ((0.0, -0.9999), 2.0, 30, 14, "step_failure"),
    ((-1.0, 0.99), 2.0, 26, 12, "step_failure"),
])
def test_integrate_ends_like_a_lane_where_the_pole_overflows(seed, T, n, k,
                                                             want):
    # For k >= 12, (1 - xi_t^2)^(1-k) overflows a float near the
    # degenerate set; this used to raise OverflowError out of integrate.
    traj = radial.integrate(seed, T, n, k)
    _, _, (cause,) = radial.integrate_lanes(*([v] for v in seed), T, n, k)
    assert traj.termination == cause == want


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


@pytest.mark.parametrize("rtol,atol", [(1e-7, 1e-9), (1e-10, 1e-12)])
def test_float_start_equals_lane_start_bit_for_bit(rtol, atol):
    # integrate_endpoint starts in Python floats; refinement keeps its
    # bits only if that start is the lanes' start exactly.  math.exp, or
    # Python's ** for the pole, would miss on some of these draws.
    rng = np.random.default_rng(20261018)
    Ts = [math.log(1.0001), 0.01, 0.1, 0.7, 2.0, 5.0]
    for n, k in _START_CLASSES:
        for T in Ts:
            xs = np.concatenate([rng.uniform(-6.0, 6.0, 40),
                                 rng.uniform(-400.0, 400.0, 10)])
            vs = rng.uniform(-1.0, 1.0, 50) * (1.0 - 10.0 ** rng.uniform(
                -12.0, 0.0, 50))
            for x, v in zip(xs.tolist(), vs.tolist()):
                f, h = radial._lane_start(np.array([[x], [v]]), T, n, k,
                                          rtol, atol)
                a, h1 = radial._endpoint_start(x, v, T, n, k, rtol, atol)
                assert a.hex() == float(f[1, 0]).hex(), (n, k, T, x, v)
                assert h1.hex() == float(h[0]).hex(), (n, k, T, x, v)


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
