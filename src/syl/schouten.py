"""Conformal curvature algebra over a flat background.

For a positive factor u the conformal metric u^(4/(n-2)) * (flat) has a
Schouten tensor whose eigenvalue vector is carried by the symmetric matrix
assembled in :func:`schouten_matrix` from pointwise (u, grad, hess) data.
Only the flat-background law lives here; closed-form reference factors
(round bubble, radial cylinder) and small dense eigen-extraction round out
the module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConformalFactorSample",
    "schouten_matrix",
    "eigenvalues",
    "rank_one_spectrum",
    "mean_curvature_conformal",
    "radial_eigenvalues",
    "radial_spectrum",
    "Bubble",
    "Cylinder",
]


@dataclass(frozen=True)
class ConformalFactorSample:
    """Pointwise data (x, u, grad u, hess u) of a positive conformal factor."""

    x: np.ndarray
    u: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "grad", np.asarray(self.grad, dtype=float))
        object.__setattr__(self, "hess", np.asarray(self.hess, dtype=float))
        n = self.x.size
        if n < 3:
            raise ValueError("dimension must be at least 3")
        if not self.u > 0.0:
            raise ValueError("conformal factor must be positive")
        if self.grad.shape != (n,) or self.hess.shape != (n, n):
            raise ValueError("inconsistent shapes in conformal factor sample")
        scale = 1.0 + float(np.abs(self.hess).max())
        if float(np.abs(self.hess - self.hess.T).max()) > 1e-10 * scale:
            raise ValueError("hessian must be symmetric")

    @property
    def n(self) -> int:
        return self.x.size


def schouten_matrix(sample: ConformalFactorSample) -> np.ndarray:
    """Symmetric matrix whose spectrum is the conformal Schouten eigenvalue
    vector of u^(4/(n-2)) * flat at the sample point."""
    n = sample.n
    m = n - 2.0
    u = sample.u
    g = sample.grad
    a = -(2.0 / m) * u ** (-(n + 2.0) / m) * sample.hess
    a += (2.0 * n / m ** 2) * u ** (-2.0 * n / m) * np.outer(g, g)
    a -= (2.0 / m ** 2) * u ** (-2.0 * n / m) * float(g @ g) * np.eye(n)
    return a


@functools.lru_cache(maxsize=None)
def _lower_triangle(n: int) -> np.ndarray:
    """Boolean n x n mask of the entries on and below the diagonal."""
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False  # one array serves every caller
    return mask


def eigenvalues(A: np.ndarray, *, sym_tol: float = 1e-9) -> np.ndarray:
    """Spectrum of a small dense symmetric matrix, sorted non-increasing.

    Cyclic Jacobi rotations: deterministic, no external solver involved,
    accurate for the n <= 16 matrices this package produces.  Each
    rotation updates rows p and q, then columns p and q, of the matrix
    held as lists of Python floats: every product and difference rounds
    as the same numpy array operation would, without numpy's per-call
    cost on rows this short.  The off-diagonal norm that ends the sweeps
    stays a numpy sum of ``np.triu(a, 1) ** 2``, because numpy's pairwise
    summation order is not a left-to-right float loop's; the triangle is
    cut by a mask kept per n rather than rebuilt every sweep.  Non-finite
    entries are refused, and so is a ``sym_tol`` outside [0, inf): a nan
    one would skip the symmetry check and a negative one fail it always.
    """
    if not 0.0 <= sym_tol < math.inf:
        raise ValueError(f"sym_tol must be finite and >= 0: {sym_tol}")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix must be finite")
    scale = 1.0 + float(np.abs(A).max())
    if float(np.abs(A - A.T).max()) > sym_tol * scale:
        raise ValueError("matrix must be symmetric")
    a = (0.5 * (A + A.T)).tolist()
    n = len(a)
    lower = _lower_triangle(n)

    for _ in range(60):
        upper = np.where(lower, 0.0, np.array(a))
        off = math.sqrt(2.0 * float(np.sum(upper ** 2)))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                tau = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rp, rq = a[p], a[q]
                a[p] = [c * x - s * y for x, y in zip(rp, rq)]
                a[q] = [s * x + c * y for x, y in zip(rp, rq)]
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                a[p][q] = a[q][p] = 0.0
    return np.sort([a[i][i] for i in range(n)])[::-1].copy()


def rank_one_spectrum(mu: float, x, nu: float) -> np.ndarray:
    """Spectrum of mu * x x^T + nu * I: one eigenvalue mu*|x|^2 + nu, the
    rest nu; returned sorted non-increasing."""
    x = np.asarray(x, dtype=float)
    lam = np.full(x.size, nu, dtype=float)
    lam[0] = mu * float(x @ x) + nu
    return np.sort(lam)[::-1].copy()


def mean_curvature_conformal(u: float, du_dnu: float, h_g: float, n: int) -> float:
    """Boundary mean curvature of the conformal metric from that of the
    background: the Robin-type transformation law.

    Normalised so that the identity factor is a fixed point: ``u = 1``
    with vanishing normal derivative returns ``h_g`` unchanged.  The
    zero set of the returned value is that of the Robin expression
    du_dnu + (n-2)/2 * h_g * u, so a vanishing Robin datum is reported
    as a minimal (zero mean curvature) conformal boundary either way.
    """
    if not u > 0.0:
        raise ValueError("conformal factor must be positive")
    return u ** (-n / (n - 2.0)) * (2.0 / (n - 2.0) * du_dnu + h_g * u)


def radial_eigenvalues(xi, xi_t, xi_tt, n: int = 3):
    """Schouten eigenvalues of a radial factor in logarithmic coordinates.

    Returns the radial eigenvalue and the tangential eigenvalue (the
    latter carrying multiplicity n-1).  These are the corrected closed
    forms: substituting them into sigma_k reproduces the autonomous
    radial ODE exactly, and they match the dense pipeline through
    :func:`schouten_matrix` on reconstructed profiles.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    e2 = np.exp(2.0 * np.asarray(xi, dtype=float))
    w = 1.0 - np.asarray(xi_t, dtype=float) ** 2
    lam_rad = e2 * (np.asarray(xi_tt, dtype=float) - 0.5 * w)
    lam_tan = 0.5 * e2 * w
    if np.ndim(lam_rad) == 0:
        return float(lam_rad), float(lam_tan)
    return lam_rad, lam_tan


def radial_spectrum(xi: float, xi_t: float, xi_tt: float, n: int) -> np.ndarray:
    """Full eigenvalue vector of a radial factor, sorted non-increasing."""
    lam_rad, lam_tan = radial_eigenvalues(xi, xi_t, xi_tt, n)
    lam = np.full(n, lam_tan)
    lam[0] = lam_rad
    return np.sort(lam)[::-1].copy()


class Bubble:
    """The round-sphere conformal factor
    u(y) = amplitude * (a / (1 + a^2 |y - center|^2))^((n-2)/2).

    Its Schouten eigenvalue vector is the constant (2, ..., 2) scaled by
    amplitude^(-4/(n-2)), independent of the point, the width a and the
    center.
    """

    def __init__(self, n: int, a: float = 1.0, center=None, amplitude: float = 1.0):
        if n < 3:
            raise ValueError("dimension must be at least 3")
        if not a > 0.0 or not amplitude > 0.0:
            raise ValueError("width and amplitude must be positive")
        self.n = n
        self.a = float(a)
        self.center = (np.zeros(n) if center is None
                       else np.asarray(center, dtype=float))
        if self.center.shape != (n,):
            raise ValueError("center must have length n")
        self.amplitude = float(amplitude)
        self.kind = "bubble"

    def u(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        w = 1.0 + self.a ** 2 * np.sum(d * d, axis=-1)
        val = self.amplitude * (self.a / w) ** ((self.n - 2.0) / 2.0)
        return float(val) if np.ndim(val) == 0 else val

    def grad(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        w = 1.0 + self.a ** 2 * np.sum(d * d, axis=-1)
        m = (self.n - 2.0) / 2.0
        coef = -2.0 * m * self.a ** 2 * self.u(y) / w
        return np.asarray(coef)[..., None] * d

    def hess(self, y):
        y = np.asarray(y, dtype=float)
        d = y - self.center
        m = (self.n - 2.0) / 2.0
        w = 1.0 + self.a ** 2 * float(d @ d)
        coef = -2.0 * m * self.amplitude * self.a ** (m + 2.0) * w ** (-m - 2.0)
        return coef * (w * np.eye(self.n)
                       - 2.0 * (m + 1.0) * self.a ** 2 * np.outer(d, d))

    def sample(self, y) -> ConformalFactorSample:
        return ConformalFactorSample(y, self.u(y), self.grad(y), self.hess(y))

    def spectrum(self) -> np.ndarray:
        return np.full(self.n, 2.0 * self.amplitude ** (-4.0 / (self.n - 2.0)))


class Cylinder:
    """The scale-invariant factor u(y) = |y|^(-(n-2)/2) on punctured space.

    Schouten eigenvalues are (1/2, ..., 1/2, -1/2) at every point; the
    spectrum method reports them in that (non-increasing) order.
    """

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("dimension must be at least 3")
        self.n = n
        self.kind = "cylinder"

    def _rho2(self, y):
        y = np.asarray(y, dtype=float)
        rho2 = np.sum(y * y, axis=-1)
        if np.any(rho2 == 0.0):
            raise ValueError("cylinder factor is singular at the origin")
        return y, rho2

    def u(self, y):
        y, rho2 = self._rho2(y)
        val = rho2 ** (-(self.n - 2.0) / 4.0)
        return float(val) if np.ndim(val) == 0 else val

    def grad(self, y):
        y, rho2 = self._rho2(y)
        m = (self.n - 2.0) / 2.0
        return -m * np.asarray(rho2 ** (-m / 2.0 - 1.0))[..., None] * y

    def hess(self, y):
        y, rho2 = self._rho2(y)
        m = (self.n - 2.0) / 2.0
        rho2 = float(rho2)
        return -m * rho2 ** (-m / 2.0 - 2.0) * (
            rho2 * np.eye(self.n) - (m + 2.0) * np.outer(y, y))

    def sample(self, y) -> ConformalFactorSample:
        return ConformalFactorSample(y, self.u(y), self.grad(y), self.hess(y))

    def spectrum(self) -> np.ndarray:
        lam = np.full(self.n, 0.5)
        lam[-1] = -0.5
        return lam
