"""Tests for the symmetric-function and cone-algebra layer."""
import math
import warnings

import numpy as np
import pytest

from syl import fd, symfn


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3), (8, 5), (12, 7)])
def test_sigma_k_matches_bruteforce(n, k):
    rng = np.random.default_rng(11235 + n * 10 + k)
    for _ in range(20):
        lam = rng.normal(0.0, 2.0, size=n)
        fast = symfn.sigma_k(lam, k)
        slow = symfn.sigma_k_bruteforce(lam, k)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (5, 2), (8, 5), (12, 7)])
def test_sigma_k_of_rows_rounds_as_each_row_alone(n, k):
    rows = np.random.default_rng(n * 10 + k).normal(0.0, 2.0, size=(30, n))
    batched = symfn.sigma_k(rows, k)
    assert batched.shape == (30,)
    assert batched.tolist() == [symfn.sigma_k(row, k) for row in rows]
    with pytest.raises(ValueError):
        symfn.sigma_k(rows[None], k)


def test_sigma_k_edge_orders():
    lam = np.array([1.0, 2.0, 3.0])
    assert symfn.sigma_k(lam, 0) == 1.0
    assert symfn.sigma_k(lam, 3) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        symfn.sigma_k(lam, 4)
    with pytest.raises(ValueError):
        symfn.sigma_k(lam, -1)


def test_sigma_k_known_values():
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    # sigma_k(1,...,1) = C(n, k)
    for k in range(5):
        assert symfn.sigma_k(lam, k) == pytest.approx(math.comb(4, k))


@pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (7, 4)])
def test_sigma_k_gradient_is_delete_one_and_matches_fd(n, k):
    rng = np.random.default_rng(97 + k)
    for _ in range(10):
        lam = rng.normal(0.0, 1.5, size=n)
        grad = symfn.sigma_k_gradient(lam, k)
        # gradient component i is sigma_{k-1} of the vector with slot i removed
        for i in range(n):
            rest = np.delete(lam, i)
            assert grad[i] == pytest.approx(symfn.sigma_k_bruteforce(rest, k - 1),
                                            rel=1e-11, abs=1e-11)
        num = fd.gradient(lambda x: symfn.sigma_k(x, k), lam)
        np.testing.assert_allclose(grad, num, rtol=1e-6, atol=1e-6)


def test_gamma_cone_membership_is_strict():
    assert symfn.in_gamma_k(np.ones(5), 3)
    # sigma_2 of (1, 0, 0) vanishes: boundary points are excluded
    assert not symfn.in_gamma_k(np.array([1.0, 0.0, 0.0]), 2)
    assert symfn.in_gamma_k(np.array([1.0, 0.0, 0.0]), 1)
    # one moderately negative entry keeps sigma_1, sigma_2 > 0
    assert symfn.in_gamma_k(np.array([-0.2, 1.0, 1.0, 1.0]), 2)
    assert not symfn.in_gamma_k(np.array([-1.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        symfn.in_gamma_k(np.ones(3), 4)


def _draws_with_zeros(seed, count=400):
    """Seeded vectors, n <= 8, about a third of them with zero entries."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        lam = rng.normal(0.0, 1.5, size=n)
        if rng.random() < 0.35:
            lam[rng.random(n) < 0.4] = 0.0
        yield lam, int(rng.integers(1, n + 1))


def test_in_gamma_k_equals_per_order_sign_tests():
    for lam, k in _draws_with_zeros(2024):
        expected = all(symfn.sigma_k(lam, l) > 0.0 for l in range(1, k + 1))
        assert symfn.in_gamma_k(lam, k) == expected
    # sigma_1 < 0 settles it before the power sums of higher orders,
    # which would overflow here, are formed.
    assert not symfn.in_gamma_k(np.array([-1e120, 1.0, 1.0]), 3)


def test_in_gamma_k_at_extreme_scales():
    # e_3 overflows at 1e120 and underflows to zero at 1e-120; the pass is
    # redone at unit scale, silently, and an exact zero stays outside.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert symfn.in_gamma_k(np.full(3, 1e120), 3)
        assert symfn.in_gamma_k(np.full(3, 1e-120), 3)
        assert not symfn.in_gamma_k(np.array([1.0, 1.0, 0.0]), 3)
        assert not symfn.in_gamma_k(np.array([-1e200, 1e200, 1e200]), 3)


def test_sigma_k_gradient_equals_delete_one_sigma_bit_for_bit():
    for lam, k in _draws_with_zeros(4048):
        grad = symfn.sigma_k_gradient(lam, k)
        assert grad.shape == lam.shape
        assert grad.tolist() == [symfn.sigma_k(np.delete(lam, i), k - 1)
                                 for i in range(lam.size)]


def test_cone_spec_validation():
    spec = symfn.ConeSpec(2, 5)
    assert spec.contains(np.ones(5))
    with pytest.raises(ValueError):
        symfn.ConeSpec(0, 5)
    with pytest.raises(ValueError):
        symfn.ConeSpec(6, 5)
    with pytest.raises(ValueError):
        symfn.ConeSpec(1, 2)
    with pytest.raises(ValueError):
        spec.contains(np.ones(4))


def test_gamma_nested_cones():
    """Gamma_k shrinks as k grows; the positive orthant sits in all of them."""
    rng = np.random.default_rng(5)
    counts = []
    for k in (1, 2, 3, 4):
        inside = sum(
            symfn.in_gamma_k(lam, k)
            for lam in rng.normal(0.5, 1.0, size=(500, 4))
        )
        counts.append(inside)
    assert counts == sorted(counts, reverse=True)
    for lam in np.random.default_rng(6).lognormal(size=(50, 4)):
        assert symfn.in_gamma_k(lam, 4)


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2), (6, 3)])
def test_sigma_root_homogeneous_and_consistent(n, k):
    f = symfn.sigma_root(k, n)
    rng = np.random.default_rng(n * 100 + k)
    for _ in range(8):
        lam = rng.lognormal(0.0, 0.6, size=n)
        assert f.in_cone(lam)
        val = f.value(lam)
        assert val == pytest.approx(symfn.sigma_k(lam, k) ** (1.0 / k))
        t = float(rng.uniform(0.5, 3.0))
        assert f.value(t * lam) == pytest.approx(t * val, rel=1e-12)
        np.testing.assert_allclose(
            f.gradient(lam), fd.gradient(f.value, lam), rtol=1e-5, atol=1e-7)
        # degree-one homogeneity makes the Euler identity exact
        assert f.gradient(lam) @ lam == pytest.approx(val, rel=1e-12)


def test_symmetrize_average():
    def h(lam):
        return float(lam[0])  # deliberately asymmetric

    h_sym = symfn.symmetrize_average(h, 3)
    lam = np.array([1.0, 2.0, 4.0])
    assert h_sym(lam) == pytest.approx(lam.mean())
    perm = lam[[2, 0, 1]]
    assert h_sym(perm) == pytest.approx(h_sym(lam))

    already = symfn.symmetrize_average(lambda x: float(np.sum(x ** 2)), 3)
    assert already(lam) == pytest.approx(float(np.sum(lam ** 2)))

    with pytest.raises(ValueError):
        symfn.symmetrize_average(h, 9)


def test_build_concave_f_validation():
    cone = symfn.ConeSpec(2, 4)
    with pytest.raises(ValueError):
        symfn.build_concave_f(lambda x: 1.0, 0.0, n=4, in_cone=cone.contains)
    with pytest.raises(ValueError):
        symfn.build_concave_f(lambda x: 1.0, 1.0, n=4, in_cone=cone.contains)
    with pytest.raises(ValueError):
        # defining function vanishing at the center is rejected
        symfn.build_concave_f(lambda x: 0.0, 0.5, n=4, in_cone=cone.contains)


def test_build_concave_f_reduces_to_sigma2_root_squared():
    """With h = sigma_2 and alpha = 1/2 the construction collapses to
    sqrt(sigma_2) by homogeneity, which is a useful closed-form cross-check."""
    cone = symfn.ConeSpec(2, 4)
    built = symfn.build_concave_f(
        lambda x: float(symfn.sigma_k(x, 2)), 0.5, n=4,
        in_cone=cone.contains,
        grad_h=lambda x: symfn.sigma_k_gradient(x, 2))
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam = rng.lognormal(0.0, 0.5, size=4)
        want = math.sqrt(symfn.sigma_k(lam, 2))
        assert built.value(lam) == pytest.approx(want, rel=1e-12)
        grad = built.gradient(lam)
        np.testing.assert_allclose(grad, fd.gradient(built.value, lam),
                                   rtol=1e-6, atol=1e-8)
        assert grad @ lam == pytest.approx(want, rel=1e-11)
    # certified trace bound: delta = n * h(e/n)^(1/alpha) = 4 * (6/16)^2
    assert built.delta == pytest.approx(0.5625, abs=1e-15)


def test_build_concave_f_outside_cone_raises():
    cone = symfn.ConeSpec(1, 3)
    built = symfn.build_concave_f(lambda x: 1.0, 0.5, n=3,
                                  in_cone=cone.contains)
    with pytest.raises(ValueError):
        built.value(np.array([-1.0, -1.0, -1.0]))


def test_build_concave_f_symmetrize_path():
    cone = symfn.ConeSpec(1, 3)
    lopsided = lambda x: float(x[0] + 0.5 * x[1] + 0.25 * x[2])
    built = symfn.build_concave_f(lopsided, 0.5, n=3,
                                  in_cone=cone.contains, symmetrize=True)
    lam = np.array([0.3, 1.1, 2.2])
    for perm in ([1, 2, 0], [2, 1, 0]):
        assert built.value(lam[perm]) == pytest.approx(built.value(lam),
                                                       rel=1e-12)


def test_homotopy_point_and_membership():
    lam = np.array([2.0, -1.0, 0.5])
    np.testing.assert_allclose(symfn.homotopy_point(lam, 1.0), lam)
    np.testing.assert_allclose(symfn.homotopy_point(lam, 0.0),
                               np.full(3, lam.sum()))
    mid = symfn.homotopy_point(lam, 0.25)
    np.testing.assert_allclose(mid, 0.25 * lam + 0.75 * lam.sum())
    with pytest.raises(ValueError):
        symfn.homotopy_point(lam, -0.1)
    with pytest.raises(ValueError):
        symfn.homotopy_point(lam, 1.5)

    cone = symfn.ConeSpec(2, 3)
    assert symfn.homotopy_membership(lam, 0.0, cone.contains)
    neg = np.array([-2.0, 0.5, 0.5])
    assert not symfn.homotopy_membership(neg, 0.0, cone.contains)


def test_homotopy_f_interpolates_and_guards():
    f = symfn.sigma_root(2, 4)
    lam = np.exp(np.random.default_rng(3).normal(size=4))
    assert symfn.homotopy_f(lam, 1.0, f) == pytest.approx(f.value(lam))
    start = symfn.homotopy_f(lam, 0.0, f)
    assert start == pytest.approx(f.value(np.full(4, lam.sum())))
    bad = np.array([-5.0, 1.0, 1.0, 1.0])  # sigma_1 < 0: every t fails
    with pytest.raises(ValueError):
        symfn.homotopy_f(bad, 0.0, f)


def test_verify_axioms_accepts_sigma_roots():
    rng = np.random.default_rng(42)
    for n, k in ((4, 2), (5, 3)):
        f = symfn.sigma_root(k, n)
        samples = rng.lognormal(0.0, 0.5, size=(40, n))
        report = symfn.verify_axioms(f, samples, rng=rng)
        assert report.passed, report.as_dict()
        assert report["concavity"].max_violation <= 1e-5


def test_verify_axioms_flags_violations():
    rng = np.random.default_rng(7)
    samples = rng.lognormal(0.0, 0.4, size=(25, 3))
    cone = symfn.ConeSpec(1, 3)

    convex = symfn.SymmetricCurvatureFunction(
        value=lambda lam: float(np.sum(lam ** 2)) / float(np.sum(lam)),
        gradient=lambda lam: (2.0 * lam * np.sum(lam) - np.sum(lam ** 2))
        / float(np.sum(lam)) ** 2,
        in_cone=cone.contains)
    report = symfn.verify_axioms(convex, samples, rng=rng)
    assert not report["concavity"].passed
    assert report["concavity"].max_violation > 1e-4

    asym = symfn.SymmetricCurvatureFunction(
        value=lambda lam: float(lam[0]),
        gradient=lambda lam: np.eye(len(lam))[0],
        in_cone=cone.contains)
    report = symfn.verify_axioms(asym, samples, rng=rng)
    assert not report["symmetry"].passed

    shifted = symfn.SymmetricCurvatureFunction(
        value=lambda lam: float(np.sum(lam)) - 100.0,
        gradient=lambda lam: np.ones(len(lam)),
        in_cone=cone.contains,
        homogeneous=False)
    report = symfn.verify_axioms(shifted, samples, rng=rng)
    assert not report["positivity"].passed


def test_verify_axioms_fails_on_a_nan_violation():
    rng = np.random.default_rng(11)
    samples = rng.lognormal(0.0, 0.4, size=(6, 3))
    f = symfn.sigma_root(2, 3)
    f = symfn.SymmetricCurvatureFunction(f.value, f.gradient, f.in_cone,
                                         delta=1e-3)
    assert symfn.verify_axioms(f, samples, rng=rng).passed
    nan_f = symfn.SymmetricCurvatureFunction(
        value=lambda lam: math.nan,
        gradient=lambda lam: np.full(lam.size, math.nan),
        in_cone=f.in_cone, delta=1e-3)
    report = symfn.verify_axioms(nan_f, samples, rng=rng)
    names = {"symmetry", "positivity", "monotonicity", "concavity",
             "homogeneity", "gradient_trace_bound"}
    assert {c.name for c in report.checks} == names
    for name in names:
        assert not report[name].passed
        assert report[name].max_violation == math.inf
        assert np.array_equal(report[name].worst_sample, samples[0])


def test_verify_axioms_reports_a_nan_hessian_as_failed_concavity():
    # LAPACK's eigvalsh refuses a nan matrix: that must read as a failed
    # check, not raise LinAlgError out of verify_axioms.
    f = symfn.sigma_root(2, 4)
    calls = 0

    def value(lam):
        nonlocal calls
        calls += 1
        return f.value(lam) if calls <= 3 else math.nan

    samples = np.random.default_rng(3).lognormal(0.0, 0.3, size=(2, 4))
    report = symfn.verify_axioms(
        symfn.SymmetricCurvatureFunction(value, f.gradient, f.in_cone),
        samples)
    assert not report["concavity"].passed
    assert report["concavity"].max_violation == math.inf
    assert np.array_equal(report["concavity"].worst_sample, samples[0])


def test_verify_axioms_rejects_exterior_samples():
    f = symfn.sigma_root(2, 3)
    with pytest.raises(ValueError):
        symfn.verify_axioms(f, [np.array([-1.0, -1.0, -1.0])])


def test_axiom_report_accessors():
    f = symfn.sigma_root(1, 3)
    samples = np.random.default_rng(0).lognormal(size=(10, 3))
    report = symfn.verify_axioms(f, samples)
    d = report.as_dict()
    assert set(d) >= {"symmetry", "positivity", "monotonicity", "concavity"}
    assert report["symmetry"].passed
    with pytest.raises(KeyError):
        report["no_such_check"]


def _quadratic():
    a = np.array([[2.0, -1.0, 3.0], [-1.0, 4.0, 0.0], [3.0, 0.0, -5.0]])
    return a, lambda y: float(y @ a @ y)


def test_numerical_hessian_is_exact_on_a_quadratic():
    # Dyadic point and step: every stencil value is an exact float.
    a, fun = _quadratic()
    x = np.array([0.5, 0.25, -0.5])
    H = symfn._numerical_hessian(fun, x, lambda p: True, 2.0 ** -3)
    assert np.array_equal(H, 2.0 * a)


def test_numerical_hessian_shrinks_its_step_inside_the_cone():
    a, fun = _quadratic()
    in_cone = lambda p: p[0] > 0.0
    x = np.array([2.0 ** -5, 0.5, 0.5])  # 2h = 0.25 crosses p[0] = 0
    asked = []

    def guarded(p):
        assert in_cone(p)
        asked.append(p)
        return fun(p)

    H = symfn._numerical_hessian(guarded, x, in_cone, 2.0 ** -3)
    np.testing.assert_allclose(H, 2.0 * a, rtol=1e-9, atol=1e-9)
    # one shrink, to h = 0.0125, keeps the stencil in the cone
    assert max(np.abs(p - x).max() for p in asked) == pytest.approx(0.025)
    # four points per entry on or above the diagonal
    assert len(asked) == 4 * 6


def test_numerical_hessian_gives_up_after_four_shrinks():
    def fun(p):
        raise AssertionError("no stencil point lies in the cone")

    # 2h is 0.25, ..., 2.5e-4 over the four tries; a fifth, 2.5e-5, fits.
    x = np.array([1e-4, 0.5, 0.5])
    assert symfn._numerical_hessian(fun, x, lambda p: p[0] > 0.0,
                                    2.0 ** -3) is None
