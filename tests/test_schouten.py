"""Conformal Schouten-tensor computations against closed forms."""
import math

import numpy as np
import pytest

from syl import fd, mobius, schouten


def test_conformal_factor_sample_validation():
    x = np.zeros(3)
    good = schouten.ConformalFactorSample(x, 1.0, np.zeros(3), np.eye(3))
    assert good.n == 3
    with pytest.raises(ValueError):
        schouten.ConformalFactorSample(x, -1.0, np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        schouten.ConformalFactorSample(x, 1.0, np.zeros(2), np.eye(3))
    H = np.eye(3)
    H[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        schouten.ConformalFactorSample(x, 1.0, np.zeros(3), H)
    with pytest.raises(ValueError):
        schouten.ConformalFactorSample(np.zeros(2), 1.0, np.zeros(2),
                                       np.eye(2))


@pytest.mark.parametrize("n", [3, 5, 9, 16])
def test_eigenvalues_match_lapack_and_order(n):
    rng = np.random.default_rng(n)
    for _ in range(15):
        M = rng.normal(size=(n, n))
        A = 0.5 * (M + M.T)
        got = schouten.eigenvalues(A)
        want = np.sort(np.linalg.eigvalsh(A))[::-1]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)
        assert np.all(np.diff(got) <= 1e-12)


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        schouten.eigenvalues(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        schouten.eigenvalues(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_eigenvalues_refuses_non_finite_entries(bad, where):
    A = np.eye(3)
    A[where] = A[where[::-1]] = bad
    with pytest.raises(ValueError, match="finite"):
        schouten.eigenvalues(A)


@pytest.mark.parametrize("sym_tol", [math.nan, -1e-9, math.inf])
def test_eigenvalues_refuses_a_symmetry_tolerance_outside_0_inf(sym_tol):
    # A nan tolerance skips the symmetry check, giving [3.5, -1.5] for
    # this matrix; a negative one rejects even the identity.
    for A in ([[1.0, 5.0], [0.0, 1.0]], np.eye(2)):
        with pytest.raises(ValueError, match="sym_tol"):
            schouten.eigenvalues(np.array(A), sym_tol=sym_tol)


def _numpy_rotation_loop(A, sym_tol=1e-9):
    """The cyclic Jacobi loop as numpy row and column operations: the
    reference the stacked rotations must reproduce bit for bit."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = 1.0 + float(np.abs(A).max())
    if float(np.abs(A - A.T).max()) > sym_tol * scale:
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (A + A.T)
    n = a.shape[0]
    if n == 1:
        return a[0, 0:1].copy()

    for _ in range(60):
        off = math.sqrt(2.0 * float(np.sum(np.triu(a, 1) ** 2)))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = a[q, p] = 0.0
    return np.sort(np.diag(a))[::-1].copy()


def _symmetric_draws(rng, count):
    """Seeded symmetric matrices, n = 1..16: dense, sparse, integer-valued
    and widely scaled."""
    for i in range(count):
        n = 1 + i % 16
        M = rng.normal(size=(n, n))
        kind = (i // 16) % 4
        if kind == 1:
            M *= rng.random((n, n)) < 0.3
        elif kind == 2:
            M = np.round(3.0 * M)
        elif kind == 3:
            M *= 10.0 ** rng.uniform(-8.0, 8.0)
        yield M + M.T


def test_eigenvalues_equal_the_numpy_rotation_loop_bit_for_bit():
    rng = np.random.default_rng(20261018)
    matrices = list(_symmetric_draws(rng, 320))
    for n in (3, 4, 5, 7):
        factors = (schouten.Bubble(n, 1.3, amplitude=0.8), schouten.Cylinder(n))
        for factor in factors:
            for _ in range(5):
                y = rng.normal(size=n)
                matrices.append(schouten.schouten_matrix(factor.sample(y)))
    lone = [schouten.eigenvalues(A) for A in matrices]
    mismatches = [A for A, lam in zip(matrices, lone)
                  if lam.tobytes() != _numpy_rotation_loop(A).tobytes()]
    assert not mismatches, f"{len(mismatches)} of {len(matrices)} differ"
    # As stacks grouped by n: the draws mix scales and sparsity, so the
    # members converge on different sweeps and skip different rotations.
    by_n = {}
    for A, lam in zip(matrices, lone):
        by_n.setdefault(A.shape[0], []).append((A, lam))
    for n, group in by_n.items():
        stacked = schouten.eigenvalues(np.array([A for A, _ in group]))
        assert stacked.shape == (len(group), n)
        for row, (_, lam) in zip(stacked, group):
            assert row.tobytes() == lam.tobytes(), n


def test_eigenvalues_of_a_stack_keep_its_leading_shape():
    rng = np.random.default_rng(47)
    M = rng.normal(size=(2, 3, 4, 4))
    A = M + np.swapaxes(M, -1, -2)
    got = schouten.eigenvalues(A)
    assert got.shape == (2, 3, 4)
    for i in range(2):
        for j in range(3):
            assert got[i, j].tobytes() == schouten.eigenvalues(A[i, j]).tobytes()
    assert schouten.eigenvalues(np.zeros((0, 3, 3))).shape == (0, 3)
    with pytest.raises(ValueError):
        schouten.eigenvalues(np.zeros((0, 0)))


@pytest.mark.parametrize("bad,message", [(math.nan, "finite"),
                                         (math.inf, "finite"),
                                         (0.5, "symmetric")])
def test_eigenvalues_refuse_a_stack_with_one_bad_member(bad, message):
    A = np.stack([np.eye(3)] * 4)
    A[2, 0, 1] = bad
    with pytest.raises(ValueError, match=message):
        schouten.eigenvalues(A)


def test_eigenvalues_match_a_50_digit_oracle(monkeypatch):
    """Jacobi against mpmath's eigsy at 50 digits, on random symmetric
    matrices and on the canonical boundary matrices the reduction
    verifier feeds the solver."""
    mpmath = pytest.importorskip("mpmath")
    seen = []
    solve = schouten.eigenvalues

    def recording(A, **kw):
        seen.extend(np.array(A).reshape(-1, *np.shape(A)[-2:]))
        return solve(A, **kw)

    monkeypatch.setattr(schouten, "eigenvalues", recording)
    for n in (3, 4, 5):
        mobius.verify_reduction_identities(n, 4, seed=n)
    monkeypatch.undo()
    assert len(seen) == 3 * 10 * 4
    matrices = seen + list(_symmetric_draws(np.random.default_rng(5), 48))
    for A in matrices:
        with mpmath.workdps(50):
            exact = mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)
        exact = np.sort([float(e) for e in exact])[::-1]
        err = float(np.abs(schouten.eigenvalues(A) - exact).max())
        assert err <= 1e-13 * float(np.abs(A).max()), (A, err)


def test_rank_one_spectrum():
    np.testing.assert_allclose(schouten.rank_one_spectrum(0.0, np.ones(4), 3.0),
                               np.full(4, 3.0))
    got = schouten.rank_one_spectrum(1.0, np.array([0.0, 0.0, 2.0]), 3.0)
    np.testing.assert_allclose(got, [7.0, 3.0, 3.0])
    # dense cross-check on random data
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = rng.normal(size=5)
        mu, nu = rng.normal(), rng.normal()
        A = mu * np.outer(x, x) + nu * np.eye(5)
        np.testing.assert_allclose(schouten.rank_one_spectrum(mu, x, nu),
                                   schouten.eigenvalues(A),
                                   rtol=1e-10, atol=1e-10)


def test_constant_factor_has_zero_schouten():
    sample = schouten.ConformalFactorSample(
        np.array([0.5, -1.0, 2.0]), 3.0, np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(schouten.schouten_matrix(sample),
                               np.zeros((3, 3)), atol=1e-15)


def test_mean_curvature_conformal_identity_and_zero_set():
    for n in (3, 4, 6):
        assert schouten.mean_curvature_conformal(1.0, 0.0, 2.5, n) == 2.5
    # the Robin expression du + (n-2)/2 h u = 0 maps to zero mean curvature
    n, u, h = 5, 0.8, 1.3
    du = -0.5 * (n - 2) * h * u
    assert schouten.mean_curvature_conformal(u, du, h, n) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        schouten.mean_curvature_conformal(0.0, 0.0, 1.0, 5)


def test_mean_curvature_conformal_dilation_consistency():
    """A constant factor u = s rescales lengths by s^(2/(n-2)); the mean
    curvature of a sphere of rescaled radius shrinks by exactly that factor."""
    n, s = 5, 1.7
    h = 2.0
    got = schouten.mean_curvature_conformal(s, 0.0, h, n)
    assert got == pytest.approx(h * s ** (-2.0 / (n - 2.0)), rel=1e-13)


@pytest.mark.parametrize("n,a,amp", [(4, 1.0, 1.0), (5, 0.7, 1.0),
                                     (6, 2.0, 1.0), (5, 1.0, 2.5)])
def test_bubble_spectrum_closed_form(n, a, amp):
    b = schouten.Bubble(n, a, amplitude=amp)
    want = 2.0 * amp ** (-4.0 / (n - 2.0))
    np.testing.assert_allclose(b.spectrum(), np.full(n, want), rtol=1e-13)
    rng = np.random.default_rng(int(10 * a) + n)
    for _ in range(10):
        y = rng.normal(0.0, 1.0, size=n)
        lam = schouten.eigenvalues(schouten.schouten_matrix(b.sample(y)))
        np.testing.assert_allclose(lam, np.full(n, want), rtol=1e-9,
                                   atol=1e-9)


def test_bubble_derivatives_match_fd():
    b = schouten.Bubble(5, 1.3, center=np.array([0.2, 0.0, -0.1, 0.4, 1.0]))
    rng = np.random.default_rng(77)
    for _ in range(5):
        y = rng.normal(size=5)
        np.testing.assert_allclose(b.grad(y), fd.gradient(b.u, y),
                                   rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(b.hess(y), fd.hessian(b.u, y),
                                   rtol=1e-4, atol=1e-5)


def test_cylinder_spectrum_is_half_with_one_flipped_sign():
    for n in (3, 5, 8):
        c = schouten.Cylinder(n)
        want = np.array([0.5] * (n - 1) + [-0.5])
        np.testing.assert_allclose(c.spectrum(), want, atol=1e-15)
        rng = np.random.default_rng(n)
        for _ in range(6):
            y = rng.normal(0.0, 1.0, size=n)
            lam = schouten.eigenvalues(schouten.schouten_matrix(c.sample(y)))
            np.testing.assert_allclose(lam, want, rtol=1e-9, atol=1e-10)


def test_radial_eigenvalues_scalar_and_vector():
    lr, lt = schouten.radial_eigenvalues(0.0, 0.0, 0.0, 5)
    assert lr == pytest.approx(-0.5)
    assert lt == pytest.approx(0.5)
    xi = np.array([0.0, 0.1])
    lr, lt = schouten.radial_eigenvalues(xi, np.zeros(2), np.zeros(2), 5)
    assert lr.shape == (2,)
    assert lt[1] == pytest.approx(0.5 * math.exp(0.2))
    with pytest.raises(ValueError):
        schouten.radial_eigenvalues(0.0, 0.0, 0.0, 2)


def test_radial_spectrum_matches_dense_pipeline():
    """The closed-form radial eigenvalues agree with assembling the full
    conformal Hessian at a point and running the dense path."""
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(3, 8))
        xi = float(rng.normal(0.0, 0.4))
        xi_t = float(rng.uniform(-0.85, 0.85))
        xi_tt = float(rng.normal(0.0, 1.0))
        t = float(rng.uniform(-0.4, 0.4))
        r = math.exp(t)
        m = 0.5 * (n - 2)
        u = math.exp(-m * (xi + t))
        du = -m * (xi_t + 1.0) * u / r
        d2u = m * u / r ** 2 * (-xi_tt + m * (xi_t + 1.0) ** 2 + (xi_t + 1.0))
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        hess = d2u * np.outer(d, d) + du / r * (np.eye(n) - np.outer(d, d))
        sample = schouten.ConformalFactorSample(r * d, u, du * d, hess)
        dense = schouten.eigenvalues(schouten.schouten_matrix(sample))
        closed = schouten.radial_spectrum(xi, xi_t, xi_tt, n)
        np.testing.assert_allclose(dense, closed, rtol=1e-9, atol=1e-10)
