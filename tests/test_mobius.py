"""Tests for conformal maps, Kelvin transforms, and boundary-jet invariance."""

import math

import numpy as np
import pytest

from syl import fd, mobius, schouten
from syl.mobius import (
    BoundaryData,
    Dilation,
    Inversion,
    MobiusMap,
    Orthogonal,
    Translation,
    affine_field,
    canonical_boundary_matrix,
    constant_field,
    kelvin,
    transform_boundary_data,
)


def _random_orthogonal(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _generators(n, rng):
    return [
        Translation(rng.normal(size=n)),
        Orthogonal(_random_orthogonal(n, rng)),
        Dilation(1.7),
        Inversion(rng.normal(size=n) + 3.0, 0.9),
    ]


# ------------------------------------------------------------- generators


@pytest.mark.parametrize("idx", range(4))
def test_generator_jacobian_data_matches_finite_differences(idx):
    rng = np.random.default_rng(10 + idx)
    n = 4
    g = _generators(n, rng)[idx]
    y = rng.normal(size=n) * 0.3  # safely away from the inversion pole
    D = g.jacobian_matrix(y)
    assert np.abs(D - fd.jacobian(g.apply, y)).max() < 1e-6
    assert math.isclose(g.jac(y), abs(np.linalg.det(D)), rel_tol=1e-12)
    fd_glog = fd.gradient(lambda z: math.log(abs(np.linalg.det(
        g.jacobian_matrix(z)))) if not isinstance(g, (Translation, Orthogonal))
        else 0.0, y)
    if isinstance(g, (Translation, Orthogonal)):
        assert np.all(g.grad_log_jac(y) == 0.0)
    else:
        assert np.abs(g.grad_log_jac(y) - fd_glog).max() < 1e-6


@pytest.mark.parametrize("idx", range(4))
def test_generator_inverse_round_trip(idx):
    rng = np.random.default_rng(20 + idx)
    n = 5
    g = _generators(n, rng)[idx]
    y = rng.normal(size=n) * 0.3
    assert np.abs(g.inverse().apply(g.apply(y)) - y).max() < 1e-12


def test_generator_validation():
    with pytest.raises(ValueError):
        Orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not orthogonal
    with pytest.raises(ValueError):
        Orthogonal(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Dilation(0.0)
    with pytest.raises(ValueError):
        Dilation(-2.0)
    with pytest.raises(ValueError):
        Translation(np.ones((2, 2)))
    with pytest.raises(ValueError):
        Inversion(np.zeros(3), 0.0)


def test_inversion_is_an_involution_fixing_its_sphere():
    rng = np.random.default_rng(2)
    c = rng.normal(size=4)
    inv = Inversion(c, 1.3)
    y = rng.normal(size=4)
    assert np.abs(inv.apply(inv.apply(y)) - y).max() < 1e-12
    on_sphere = c + 1.3 * np.array([1.0, 0.0, 0.0, 0.0])
    assert np.abs(inv.apply(on_sphere) - on_sphere).max() < 1e-14
    with pytest.raises(ValueError):
        inv.apply(c)  # the pole


# ----------------------------------------------------------- compositions


def test_mobius_map_chain_rule_against_finite_differences():
    rng = np.random.default_rng(7)
    n = 4
    word = MobiusMap([Dilation(0.8),
                      Inversion(3.0 * np.ones(n), 1.1),
                      Translation(rng.normal(size=n))])
    y = rng.normal(size=n) * 0.3
    D = word.jacobian_matrix(y)
    assert np.abs(D - fd.jacobian(word.apply, y)).max() < 1e-6
    assert math.isclose(word.jac(y), abs(np.linalg.det(D)), rel_tol=1e-10)
    glog_fd = fd.gradient(lambda z: math.log(word.jac(z)), y)
    assert np.abs(word.grad_log_jac(y) - glog_fd).max() < 1e-6


def test_mobius_map_compose_and_inverse():
    rng = np.random.default_rng(8)
    n = 3
    f = MobiusMap([Dilation(2.0), Translation(rng.normal(size=n))])
    g = MobiusMap([Inversion(4.0 * np.ones(n), 1.0)])
    y = rng.normal(size=n) * 0.2
    assert np.abs(f.compose(g).apply(y) - f.apply(g.apply(y))).max() < 1e-13
    assert np.abs(f.inverse().apply(f.apply(y)) - y).max() < 1e-12
    assert np.abs(g.inverse().apply(g.apply(y)) - y).max() < 1e-12
    word = f.compose(g)
    assert np.abs(word.inverse().apply(word.apply(y)) - y).max() < 1e-12
    with pytest.raises(ValueError):
        MobiusMap([])


def _closed_form_jet(g, y):
    """Each generator's jet slot by its own closed form, term by term."""
    y = np.asarray(y, dtype=float)
    n = y.size
    if isinstance(g, Translation):
        return y + g.v, np.eye(n), 1.0, np.zeros(n)
    if isinstance(g, Orthogonal):
        return g.O @ y, g.O.copy(), 1.0, np.zeros(n)
    if isinstance(g, Dilation):
        return g.rho * y, g.rho * np.eye(n), g.rho ** n, np.zeros(n)
    z = y - g.center
    r2 = float(z @ z)
    return (g.center + (g.radius ** 2 / r2) * z,
            (g.radius ** 2 / r2) * (np.eye(n) - 2.0 * np.outer(z, z) / r2),
            (g.radius ** 2 / r2) ** n, -2.0 * n * z / r2)


def _chain_of_closed_forms(word, y):
    """The chain rule over a word, one generator slot at a time."""
    z = np.asarray(y, dtype=float)
    D, g_log, jprod = np.eye(z.size), np.zeros(z.size), 1.0
    for g in reversed(word.word):
        image, Dg, Jg, g_log_g = _closed_form_jet(g, z)
        g_log = g_log + D.T @ g_log_g
        jprod *= Jg
        D = Dg @ D
        z = image
    return z, D, jprod, g_log


def _same_bits(a, b):
    return all(np.asarray(u).tobytes() == np.asarray(v).tobytes()
               for u, v in zip(a, b, strict=True))


def test_jet_equals_accessors_and_chain_bit_for_bit():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        n = int(rng.integers(3, 7))
        word = MobiusMap([_generators(n, rng)[int(i)]
                          for i in rng.integers(0, 4, size=rng.integers(1, 6))])
        y = rng.normal(size=n)
        for psi in word.word + (word,):
            jet = psi.jet(y)
            assert _same_bits(jet, (psi.apply(y), psi.jacobian_matrix(y),
                                    psi.jac(y), psi.grad_log_jac(y)))
        for g in word.word:
            assert _same_bits(g.jet(y), _closed_form_jet(g, y))
        assert _same_bits(word.jet(y), _chain_of_closed_forms(word, y))


# ------------------------------------------------------- kelvin transform


def test_kelvin_vectorized_and_guarded():
    n = 4
    b = schouten.Bubble(n)
    W = kelvin(b.u, np.zeros(n), 1.0, n)
    pts = np.random.default_rng(0).normal(size=(10, n))
    vals = W(pts)
    assert vals.shape == (10,)
    assert isinstance(W(pts[0]), float)
    with pytest.raises(ValueError):
        W(np.zeros(n))  # the pole
    with pytest.raises(ValueError):
        kelvin(b.u, np.zeros(n), -1.0, n)
    with pytest.raises(ValueError):
        kelvin(b.u, np.zeros(n), 1.0, 2)


def test_kelvin_is_an_involution():
    n = 5
    b = schouten.Bubble(n, a=0.8)
    center = 0.2 * np.ones(n)
    once = kelvin(b.u, center, 0.9, n)
    twice = kelvin(once, center, 0.9, n)
    pts = np.random.default_rng(1).normal(size=(40, n))
    assert np.abs(twice(pts) - b.u(pts)).max() < 1e-13


def test_round_sphere_factor_is_kelvin_invariant_at_its_own_radius():
    # the width-a profile reproduces itself under reflection in the
    # sphere of radius 1/a about its center
    n = 5
    a = 1.7
    b = schouten.Bubble(n, a=a)
    W = kelvin(b.u, np.zeros(n), 1.0 / a, n)
    pts = np.random.default_rng(2).normal(size=(60, n))
    assert np.abs(W(pts) - b.u(pts)).max() < 1e-14


# ---------------------------------------------------------- moving sphere


def test_moving_sphere_radius_recovers_the_invariance_radius():
    n = 5
    a = 1.7
    b = schouten.Bubble(n, a=a)
    cloud = np.random.default_rng(3).normal(size=(400, n)) * 1.2
    res = mobius.moving_sphere_radius(b.u, np.zeros(n), cloud, n=n,
                                      bisect_tol=1e-7)
    assert res.status == "bracketed"
    assert abs(res.lam_bar - 1.0 / a) < 1e-6
    lo, hi = res.bracket
    assert lo <= res.lam_bar <= hi and hi - lo <= 1e-7
    assert res.n_points == 400


def test_moving_sphere_radius_range_limited():
    n = 5
    b = schouten.Bubble(n, a=1.7)
    cloud = np.random.default_rng(3).normal(size=(100, n))
    res = mobius.moving_sphere_radius(b.u, np.zeros(n), cloud, n=n,
                                      lam_max=0.3)
    assert res.status == "range_limited"
    assert res.lam_bar == 0.3


def test_moving_sphere_radius_validates_cloud():
    n = 4
    b = schouten.Bubble(n)
    with pytest.raises(ValueError):
        mobius.moving_sphere_radius(b.u, np.zeros(n), np.zeros((5, 3)), n=n)
    with pytest.raises(ValueError):
        mobius.moving_sphere_radius(b.u, np.zeros(n), np.zeros((3, n)), n=n)


@pytest.mark.parametrize("bisect_tol", [0.0, -1e-6, math.nan, math.inf])
def test_moving_sphere_radius_refuses_a_degenerate_bisect_tol(bisect_tol):
    n = 4
    b = schouten.Bubble(n)
    cloud = np.random.default_rng(3).normal(size=(50, n))
    with pytest.raises(ValueError, match="bisect_tol"):
        mobius.moving_sphere_radius(b.u, np.zeros(n), cloud, n=n,
                                    bisect_tol=bisect_tol)


def test_moving_sphere_bisection_stops_at_adjacent_floats():
    # A tolerance below the float spacing of the radius ends with an
    # adjacent-float bracket instead of probing its midpoint forever.
    n, a = 4, 1.3
    b = schouten.Bubble(n, a, np.zeros(n), 1.0)
    cloud = np.random.default_rng(7).normal(size=(200, n)) * 1.5
    res = mobius.moving_sphere_radius(b.u, np.zeros(n), cloud, n=n,
                                      bisect_tol=1e-300)
    lo, hi = res.bracket
    assert res.status == "bracketed" and hi == np.nextafter(lo, 1.0)
    assert abs(res.lam_bar - 1.0 / a) < 1e-6


@pytest.mark.parametrize("coarse", [0, -1])
def test_moving_sphere_radius_refuses_an_empty_coarse_scan(coarse):
    # With no coarse radius tested it reported range_limited at lam_max.
    n = 4
    b = schouten.Bubble(n)
    cloud = np.random.default_rng(3).normal(size=(50, n))
    with pytest.raises(ValueError, match="coarse"):
        mobius.moving_sphere_radius(b.u, np.zeros(n), cloud, n=n,
                                    coarse=coarse)


def test_gradient_bound_check_refuses_low_dimensions():
    # n = 2 divided by n - 2 = 0.
    cloud = np.random.default_rng(5).normal(size=(10, 2)) * 0.3
    with pytest.raises(ValueError, match="dimension"):
        mobius.gradient_bound_check(lambda Y: np.ones_like(Y), np.zeros(2),
                                    1.0, cloud, n=2)


@pytest.mark.parametrize("lam_bar", [math.nan, 0.0, -1.0, math.inf])
def test_gradient_bound_check_refuses_a_radius_not_positive_and_finite(
        lam_bar):
    # A nan or non-positive radius holds no point, so a gradient of 100
    # would pass vacuously.
    n = 4
    cloud = np.random.default_rng(5).normal(size=(50, n)) * 0.3
    with pytest.raises(ValueError, match="lam_bar"):
        mobius.gradient_bound_check(lambda Y: 100.0 * np.ones_like(Y),
                                    np.zeros(n), lam_bar, cloud, n=n)


def test_gradient_bound_holds_inside_the_critical_sphere():
    n = 5
    b = schouten.Bubble(n)  # a = 1, critical radius 1

    def grad_log(Y):
        return b.grad(Y) / b.u(Y)[:, None]

    cloud = np.random.default_rng(4).normal(size=(500, n)) * 0.5
    rep = mobius.gradient_bound_check(grad_log, np.zeros(n), 1.0, cloud, n=n)
    assert rep.satisfied
    # the ratio d(1-d)/(1+d^2) tops out near 0.207 on the unit ball
    assert 0.15 < rep.max_ratio < 0.21
    assert rep.n_points > 0
    assert np.linalg.norm(rep.worst_point) < 1.0


def test_gradient_bound_flags_a_violating_field():
    n = 4
    cloud = np.random.default_rng(5).normal(size=(50, n)) * 0.3
    rep = mobius.gradient_bound_check(
        lambda Y: 100.0 * np.ones_like(Y), np.zeros(n), 1.0, cloud, n=n)
    assert not rep.satisfied
    assert rep.max_ratio > 1.0


def test_gradient_bound_with_no_interior_points_is_vacuous():
    n = 4
    cloud = 5.0 + np.abs(np.random.default_rng(6).normal(size=(20, n)))
    rep = mobius.gradient_bound_check(
        lambda Y: np.ones_like(Y), np.zeros(n), 1e-3, cloud, n=n)
    assert rep.satisfied and rep.n_points == 0 and rep.max_ratio == 0.0


# ------------------------------------------------------- sphere identities


def test_sphere_identity_equality_cases():
    rng = np.random.default_rng(11)
    n = 5
    x = rng.normal(size=n)
    r = 1.3
    ydir = rng.normal(size=n)
    y = x + r * ydir / np.linalg.norm(ydir)
    # z on the sphere: outside case with exact equality
    zdir = rng.normal(size=n)
    z_on = x + r * zdir / np.linalg.norm(zdir)
    res = mobius.sphere_identity_check(x, r, z_on, y)
    assert res.case == "a" and res.satisfied and res.equality
    assert abs(res.lhs - res.rhs) < 1e-12
    # z at the center: inside case with exact equality at r/2
    res = mobius.sphere_identity_check(x, r, x, y)
    assert res.case == "b" and res.satisfied and res.equality
    assert abs(res.lhs - res.rhs) < 1e-12
    assert math.isclose(res.rhs, r / 2.0, rel_tol=1e-12)


def test_sphere_identity_generic_cases_are_strict():
    rng = np.random.default_rng(12)
    n = 4
    x = rng.normal(size=n)
    r = 0.8
    ydir = rng.normal(size=n)
    y = x + r * ydir / np.linalg.norm(ydir)
    far = x + 3.0 * np.ones(n)
    res = mobius.sphere_identity_check(x, r, far, y)
    assert res.case == "a" and res.satisfied and not res.equality
    assert res.lhs > res.rhs
    near = x + 0.2 * np.ones(n) / math.sqrt(n)
    res = mobius.sphere_identity_check(x, r, near, y)
    assert res.case == "b" and res.satisfied and not res.equality
    assert res.lhs > res.rhs


def test_sphere_identity_validates_inputs():
    n = 3
    x = np.zeros(n)
    with pytest.raises(ValueError):
        mobius.sphere_identity_check(x, -1.0, x, x)
    with pytest.raises(ValueError):
        # y off the sphere
        mobius.sphere_identity_check(x, 1.0, x, 2.0 * np.ones(n))


@pytest.mark.parametrize("count", [0, -3])
def test_randomized_checks_refuse_an_empty_count(count):
    with pytest.raises(ValueError, match="count"):
        mobius.sphere_identity_sweep(4, count)
    with pytest.raises(ValueError, match="count"):
        mobius.verify_reduction_identities(4, count)


def test_sphere_identity_sweep_is_nonnegative_and_deterministic():
    worst = mobius.sphere_identity_sweep(4, count=200)
    assert worst >= -1e-10
    assert worst == mobius.sphere_identity_sweep(4, count=200)


# ------------------------------------------------------------ boundary jets


def test_boundary_data_validation():
    n = 4
    x = np.zeros(n)
    nu = np.zeros(n)
    nu[0] = 1.0
    H = np.eye(n)
    BoundaryData(x, 1.0, np.ones(n), nu, H)  # valid
    with pytest.raises(ValueError):
        BoundaryData(x, 0.0, np.ones(n), nu, H)
    with pytest.raises(ValueError):
        BoundaryData(x, 1.0, np.ones(n + 1), nu, H)
    with pytest.raises(ValueError):
        BoundaryData(x, 1.0, np.ones(n), 2.0 * nu, H)
    bad = H.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        BoundaryData(x, 1.0, np.ones(n), nu, bad)
    assert BoundaryData(x, 1.0, np.ones(n), nu, H).n == n


def test_scalar_field_helpers():
    n = 3
    base = np.ones(n)
    fld = affine_field(base, 2.0, np.array([1.0, 0.0, -1.0]))
    y = base + np.array([0.5, 1.0, 0.25])
    assert fld.value(y) == pytest.approx(2.0 + 0.5 - 0.25)
    assert np.array_equal(fld.gradient(y), [1.0, 0.0, -1.0])
    const = constant_field(n, 3.5)
    assert const.value(y) == 3.5
    assert np.array_equal(const.gradient(y), np.zeros(n))


def _jet(n, rng):
    nu = rng.normal(size=n)
    nu /= np.linalg.norm(nu)
    H = rng.normal(size=(n, n))
    return BoundaryData(rng.normal(size=n), float(np.exp(rng.normal())),
                        rng.normal(size=n), nu, 0.5 * (H + H.T))


def test_transform_boundary_data_translation_is_trivial():
    rng = np.random.default_rng(21)
    n = 4
    data = _jet(n, rng)
    v = rng.normal(size=n)
    psi = MobiusMap([Translation(v)])
    fld = affine_field(data.x + v, data.s, data.p)
    out = transform_boundary_data(psi, fld, data)
    assert out.jac == 1.0
    assert math.isclose(out.s, data.s, rel_tol=1e-14)
    assert np.abs(out.p - data.p).max() < 1e-13
    assert np.abs(out.nu - data.nu).max() < 1e-13
    assert np.abs(out.H - data.H).max() < 1e-13


def test_transform_boundary_data_dilation_closed_form():
    rng = np.random.default_rng(22)
    n = 5
    data = _jet(n, rng)
    rho = 1.9
    psi = MobiusMap([Dilation(rho)])
    fld = constant_field(n, data.s)
    out = transform_boundary_data(psi, fld, data)
    assert math.isclose(out.jac, rho ** n, rel_tol=1e-13)
    assert math.isclose(out.s, rho ** ((n - 2) / 2.0) * data.s,
                        rel_tol=1e-12)
    assert np.abs(out.p).max() < 1e-13  # constant field, zero log-gradient
    assert np.abs(out.nu - data.nu).max() < 1e-13
    assert np.abs(out.H - data.H / rho).max() < 1e-12


def test_transform_boundary_data_rotation_closed_form():
    rng = np.random.default_rng(23)
    n = 4
    data = _jet(n, rng)
    O = _random_orthogonal(n, rng)
    psi = MobiusMap([Orthogonal(O)])
    fld = affine_field(O @ data.x, data.s, data.p)
    out = transform_boundary_data(psi, fld, data)
    assert out.jac == pytest.approx(1.0, rel=1e-13)
    assert math.isclose(out.s, data.s, rel_tol=1e-13)
    assert np.abs(out.p - O.T @ data.p).max() < 1e-12
    assert np.abs(out.nu - O @ data.nu).max() < 1e-12
    assert np.abs(out.H - data.H).max() < 1e-12


def test_transform_boundary_data_inversion_on_its_own_sphere():
    rng = np.random.default_rng(24)
    n = 4
    nu = rng.normal(size=n)
    nu /= np.linalg.norm(nu)
    Hraw = rng.normal(size=(n, n))
    x = rng.normal(size=n)
    x /= np.linalg.norm(x)  # on the unit sphere: fixed by the inversion
    data = BoundaryData(x, 1.3, rng.normal(size=n), nu,
                        0.5 * (Hraw + Hraw.T))
    psi = MobiusMap([Inversion(np.zeros(n), 1.0)])
    fld = affine_field(x, data.s, data.p)
    out = transform_boundary_data(psi, fld, data)
    assert math.isclose(out.jac, 1.0, rel_tol=1e-12)
    glog = psi.grad_log_jac(x)
    expect_H = data.H + (float(glog @ nu) / n) * np.eye(n)
    assert np.abs(out.H - expect_H).max() < 1e-11
    assert math.isclose(out.s, data.s, rel_tol=1e-12)


def test_canonical_boundary_matrix_normalization():
    rng = np.random.default_rng(25)
    n = 4
    H = rng.normal(size=(n, n))
    H = 0.5 * (H + H.T)
    nu = np.zeros(n)
    nu[1] = 1.0
    assert np.abs(canonical_boundary_matrix(1.0, np.zeros(n), nu, H, n)
                  - H).max() == 0.0
    s = 2.7
    scaled = canonical_boundary_matrix(s, np.zeros(n), nu, H, n)
    assert np.abs(scaled - s ** (-1.0) * H).max() < 1e-14
    with pytest.raises(ValueError):
        canonical_boundary_matrix(0.0, np.zeros(n), nu, H, n)


def test_householder_rotation_sends_the_normal_to_the_first_axis():
    rng = np.random.default_rng(26)
    for _ in range(5):
        nu = rng.normal(size=5)
        nu /= np.linalg.norm(nu)
        O = mobius._householder_to_axis(nu)
        assert np.abs(O.T @ O - np.eye(5)).max() < 1e-12
        image = O @ nu
        assert abs(image[0] - 1.0) < 1e-12
        assert np.abs(image[1:]).max() < 1e-12
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert np.array_equal(mobius._householder_to_axis(e1), np.eye(5))


@pytest.mark.parametrize("target", ["_spectrum_gap", "center_decomposition"])
def test_reduction_identities_fail_on_a_nan_violation(monkeypatch, target):
    if target == "_spectrum_gap":
        monkeypatch.setattr(mobius, "_spectrum_gap", lambda *a: math.nan)
        failing = set(mobius.REDUCTION_NAMES) - {"center_decomposition"}
    else:
        # only the word's inversion sits at the origin: a nan differential
        jet = mobius.Inversion.jet

        def nan_at_origin(self, y):
            image, D, J, g = jet(self, y)
            return image, D * (math.nan if not self.center.any() else 1.0), J, g

        monkeypatch.setattr(mobius.Inversion, "jet", nan_at_origin)
        failing = {"center_decomposition"}
    report = mobius.verify_reduction_identities(n=4, count=3, seed=1)
    assert not report.passed
    for name in mobius.REDUCTION_NAMES:
        assert (report.max_violation[name] == math.inf) == (name in failing)
        if name in failing:
            assert report.worst_index[name] == 0


def test_reduction_identities_pass_on_random_jets(tmp_path):
    report = mobius.verify_reduction_identities(n=4, count=60, seed=1,
                                                tol=1e-9)
    assert report.passed
    assert set(report.max_violation) == set(mobius.REDUCTION_NAMES)
    # index -1 marks a reduction whose violation never rose above zero
    for name, idx in report.worst_index.items():
        assert -1 <= idx < 60
        if idx == -1:
            assert report.max_violation[name] == 0.0
    rows = list(report.rows())
    assert len(rows) == len(mobius.REDUCTION_NAMES)
    out = tmp_path / "reductions.csv"
    report.write_csv(out)
    text = out.read_text().strip().splitlines()
    assert len(text) == 1 + len(mobius.REDUCTION_NAMES)
    assert text[0].startswith("reduction,")
    with pytest.raises(ValueError):
        mobius.verify_reduction_identities(n=2, count=1)
