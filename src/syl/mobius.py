"""Conformal maps of flat space and the boundary-data reductions they induce.

Three layers:

* generator classes (translation, orthogonal map, dilation, sphere
  inversion) and :class:`MobiusMap` words over them, each defined by its
  exact 1-jet (image, Jacobian matrix, |det| and its log-gradient);
* the Kelvin transform of a scalar field, the moving-sphere radius of a
  field at a point over a sample cloud, the interior gradient bound that
  radius implies, and two elementary sphere inequalities used by the
  moving-sphere argument;
* the induced transform of boundary data (value, gradient, unit normal,
  symmetric curvature matrix) and a randomized verifier showing that the
  associated canonical boundary matrix has conformally invariant spectrum
  under five explicit reductions: translating the base point, killing the
  normal gradient component, killing the whole gradient, normalizing the
  value to one, and rotating the normal onto a coordinate axis.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import schouten

__all__ = [
    "Translation",
    "Orthogonal",
    "Dilation",
    "Inversion",
    "MobiusMap",
    "kelvin",
    "MovingSphereResult",
    "moving_sphere_radius",
    "GradientBoundReport",
    "gradient_bound_check",
    "SphereIdentityResult",
    "sphere_identity_check",
    "sphere_identity_sweep",
    "BoundaryData",
    "ScalarField",
    "affine_field",
    "constant_field",
    "TransformedData",
    "transform_boundary_data",
    "canonical_boundary_matrix",
    "ReductionReport",
    "verify_reduction_identities",
    "REDUCTION_NAMES",
]

_POLE_TOL = 1e-14


def _vec(v) -> np.ndarray:
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise ValueError("expected a flat coordinate vector")
    return out


class _Conformal:
    """Accessors of a conformal map psi, each read off its 1-jet
    ``jet(y) = (psi(y), d(psi)(y), |det d(psi)(y)|, grad log |det|)``."""

    def apply(self, y):
        return self.jet(y)[0]

    def jacobian_matrix(self, y):
        return self.jet(y)[1]

    def jac(self, y):
        return self.jet(y)[2]

    def grad_log_jac(self, y):
        return self.jet(y)[3]


@dataclass(frozen=True)
class Translation(_Conformal):
    """y -> y + v.  Unit Jacobian everywhere."""

    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _vec(self.v))

    def jet(self, y):
        n = self.v.size
        return np.asarray(y, dtype=float) + self.v, np.eye(n), 1.0, np.zeros(n)

    def inverse(self):
        return Translation(-self.v)


@dataclass(frozen=True)
class Orthogonal(_Conformal):
    """y -> O y for an orthogonal matrix O.  Unit Jacobian everywhere."""

    O: np.ndarray

    def __post_init__(self):
        O = np.asarray(self.O, dtype=float)
        if O.ndim != 2 or O.shape[0] != O.shape[1]:
            raise ValueError("orthogonal generator needs a square matrix")
        if np.abs(O.T @ O - np.eye(O.shape[0])).max() > 1e-10:
            raise ValueError("matrix is not orthogonal")
        object.__setattr__(self, "O", O)

    def jet(self, y):
        return (self.O @ np.asarray(y, dtype=float), self.O.copy(), 1.0,
                np.zeros(self.O.shape[0]))

    def inverse(self):
        return Orthogonal(self.O.T)


@dataclass(frozen=True)
class Dilation(_Conformal):
    """y -> rho y for rho > 0.  Jacobian rho^n, log-gradient zero."""

    rho: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("dilation factor must be positive")

    def jet(self, y):
        y = np.asarray(y, dtype=float)
        n = y.size
        return self.rho * y, self.rho * np.eye(n), self.rho ** n, np.zeros(n)

    def inverse(self):
        return Dilation(1.0 / self.rho)


@dataclass(frozen=True)
class Inversion(_Conformal):
    """Sphere inversion y -> x + lam^2 (y - x) / |y - x|^2.

    An involution fixing the sphere |y - x| = lam, with

        d(psi)(y)      = (lam/|z|)^2 (I - 2 zhat zhat^T),   z = y - x,
        |det d(psi)|   = (lam/|z|)^(2n),
        grad log |det| = -2n z / |z|^2.
    """

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec(self.center))
        if not self.radius > 0.0:
            raise ValueError("inversion radius must be positive")

    def jet(self, y):
        z = np.asarray(y, dtype=float) - self.center
        r2 = float(z @ z)
        if r2 < _POLE_TOL:
            raise ValueError("inversion evaluated at its pole")
        n = z.size
        q = self.radius ** 2 / r2
        return (self.center + q * z,
                q * (np.eye(n) - 2.0 * np.outer(z, z) / r2),
                q ** n, -2.0 * n * z / r2)

    def inverse(self):
        return Inversion(self.center, self.radius)


class MobiusMap(_Conformal):
    """Composition word of conformal generators.

    ``MobiusMap([g1, g2, g3])`` is the map g1 o g2 o g3 -- the rightmost
    generator acts first.  Its jet composes the generator jets by the
    chain rule; evaluation raises if the orbit hits an inversion pole.
    """

    def __init__(self, word):
        self.word = tuple(word)
        if not self.word:
            raise ValueError("empty composition word")

    def jet(self, y):
        z = np.asarray(y, dtype=float)
        D, g_log, jprod = np.eye(z.size), np.zeros(z.size), 1.0
        for g in reversed(self.word):
            z, Dg, Jg, g_log_g = g.jet(z)
            g_log = g_log + D.T @ g_log_g
            jprod *= Jg
            D = Dg @ D
        return z, D, jprod, g_log

    def __call__(self, y):
        return self.apply(y)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(self.word + other.word)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(tuple(g.inverse() for g in reversed(self.word)))


def kelvin(w, center, radius: float, n: int):
    """Kelvin transform of a scalar field about the sphere (center, radius).

    Returns a vectorized callable

        W(y) = (radius/|y - center|)^(n-2) * w(center + radius^2 (y-center)/|y-center|^2)

    which raises at the pole y = center.
    """
    x = _vec(center)
    if not radius > 0.0:
        raise ValueError("kelvin radius must be positive")
    if n < 3:
        raise ValueError("dimension must be at least 3")

    def transformed(y):
        Y = np.asarray(y, dtype=float)
        single = Y.ndim == 1
        Y = np.atleast_2d(Y)
        z = Y - x
        r2 = np.einsum("ij,ij->i", z, z)
        if np.any(r2 < _POLE_TOL):
            raise ValueError("kelvin transform evaluated at its pole")
        images = x + (radius ** 2 / r2)[:, None] * z
        vals = (radius ** 2 / r2) ** (0.5 * (n - 2.0)) * np.asarray(w(images), dtype=float)
        return float(vals[0]) if single else vals

    return transformed


@dataclass(frozen=True)
class MovingSphereResult:
    """Largest inversion radius keeping the reflected field below the field."""

    lam_bar: float
    status: str  # "bracketed" | "range_limited"
    bracket: tuple
    lam_max: float
    n_points: int
    tol: float


def moving_sphere_radius(
    w,
    x,
    cloud,
    *,
    n: int,
    tol: float = 1e-9,
    lam_max: float | None = None,
    coarse: int = 64,
    bisect_tol: float = 1e-6,
) -> MovingSphereResult:
    """Critical sphere radius of a field at a point, over a sample cloud.

    For each candidate radius lam the Kelvin transform of ``w`` about
    (x, lam) is compared with ``w`` on every cloud point outside the
    sphere; the radius passes while the transform stays below ``w + tol``
    everywhere.  A coarse ascending scan finds the first failing radius,
    then bisection tightens the pass/fail bracket to ``bisect_tol``.

    If every radius up to ``lam_max`` (default: the cloud's outer radius)
    passes, the result is ``range_limited`` at ``lam_max``.
    """
    if not 0.0 < bisect_tol < math.inf:
        raise ValueError(f"bisect_tol must be positive and finite, "
                         f"got {bisect_tol!r}")
    if coarse < 1:
        raise ValueError(f"coarse must be at least 1, got {coarse!r}")
    x = _vec(x)
    Y = np.asarray(cloud, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != x.size:
        raise ValueError("cloud must be (m, n) with n matching the point")
    dist = np.sqrt(np.einsum("ij,ij->i", Y - x, Y - x))
    keep = dist > 1e-8
    Y, dist = Y[keep], dist[keep]
    if Y.shape[0] == 0:
        raise ValueError("cloud has no points distinct from x")
    if lam_max is None:
        lam_max = float(dist.max())
    if not lam_max > 0.0:
        raise ValueError("lam_max must be positive")
    w_vals = np.asarray(w(Y), dtype=float)

    def passes(lam: float) -> bool:
        outside = dist >= lam
        if not np.any(outside):
            return True
        W = kelvin(w, x, lam, n)
        return bool(np.all(W(Y[outside]) <= w_vals[outside] + tol))

    lo = None
    hi = None
    for j in range(1, coarse + 1):
        lam = lam_max * j / coarse
        if passes(lam):
            lo = lam
        else:
            hi = lam
            break
    if hi is None:
        return MovingSphereResult(lam_max, "range_limited",
                                  (lo if lo is not None else 0.0, lam_max),
                                  lam_max, int(Y.shape[0]), tol)
    if lo is None:
        lo = hi / 1024.0
        while not passes(lo):
            lo /= 1024.0
            if lo < 1e-30:
                raise ValueError("no passing radius found above zero")
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is two adjacent floats
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return MovingSphereResult(0.5 * (lo + hi), "bracketed", (lo, hi),
                              lam_max, int(Y.shape[0]), tol)


@dataclass(frozen=True)
class GradientBoundReport:
    """Check of |grad log w| <= (n-2) / (lam_bar - |y - x|) inside the sphere."""

    satisfied: bool
    max_ratio: float
    worst_point: np.ndarray
    n_points: int
    tol: float


def gradient_bound_check(
    grad_log_w,
    x,
    lam_bar: float,
    cloud,
    *,
    n: int,
    tol: float = 1e-9,
) -> GradientBoundReport:
    """Interior gradient estimate implied by a moving-sphere radius.

    Points of the cloud strictly inside the sphere of radius ``lam_bar``
    around x must satisfy |grad log w(y)| (lam_bar - |y-x|) <= n - 2.
    ``grad_log_w`` maps an (m, n) array to an (m, n) array.  A radius
    that is not positive and finite, which no point is inside, is
    refused rather than passed vacuously.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if not 0.0 < lam_bar < math.inf:
        raise ValueError(f"lam_bar must be positive and finite: {lam_bar}")
    x = _vec(x)
    Y = np.asarray(cloud, dtype=float)
    dist = np.sqrt(np.einsum("ij,ij->i", Y - x, Y - x))
    inside = dist < lam_bar
    if not np.any(inside):
        return GradientBoundReport(True, 0.0, x, 0, tol)
    Yi, di = Y[inside], dist[inside]
    g = np.asarray(grad_log_w(Yi), dtype=float)
    mags = np.sqrt(np.einsum("ij,ij->i", g, g))
    ratios = mags * (lam_bar - di) / (n - 2.0)
    worst = int(np.argmax(ratios))
    return GradientBoundReport(bool(ratios[worst] <= 1.0 + tol),
                               float(ratios[worst]), Yi[worst].copy(),
                               int(Yi.shape[0]), tol)


@dataclass(frozen=True)
class SphereIdentityResult:
    case: str  # "a" (z outside the ball) | "b" (z inside or on it)
    lhs: float
    rhs: float
    satisfied: bool
    equality: bool


def sphere_identity_check(center, radius: float, z, y, *,
                          tol: float = 1e-10) -> SphereIdentityResult:
    """Two elementary inequalities between a sphere point and a test point.

    With x the center, r the radius, y on the sphere, nu(y) = (x - y)/r
    the inward unit normal, and z any point:

    * case a (|z - x| >= r):   |y-z|^2/(2r) + (y-z).nu(y) >= |z-x| - r,
      with equality exactly when z lies on the sphere;
    * case b (|z - x| <  r):  -|y-z|^2/(2r) - (y-z).nu(y) >= (r - |z-x|)/2,
      with equality exactly when z is the center or on the sphere.

    Both quantities on the left are independent of where y sits on the
    sphere; the check still takes y explicitly and validates it.
    """
    x = _vec(center)
    z = _vec(z)
    y = _vec(y)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    ry = float(np.linalg.norm(y - x))
    if abs(ry - radius) > 1e-8 * max(1.0, radius):
        raise ValueError("y does not lie on the sphere")
    nu = (x - y) / radius
    d = float(np.linalg.norm(z - x))
    yz2 = float((y - z) @ (y - z))
    base = yz2 / (2.0 * radius) + float((y - z) @ nu)
    if d >= radius:
        case, lhs, rhs = "a", base, d - radius
        eq_expected = abs(d - radius) <= tol
    else:
        case, lhs, rhs = "b", -base, 0.5 * (radius - d)
        eq_expected = d <= tol or abs(d - radius) <= tol
    gap = lhs - rhs
    return SphereIdentityResult(case, lhs, rhs,
                                bool(gap >= -tol),
                                bool(abs(gap) <= tol) or eq_expected)


def sphere_identity_sweep(n: int, count: int = 500, *, rng=None,
                          tol: float = 1e-10) -> float:
    """Randomized stress of :func:`sphere_identity_check`.

    Returns the worst (most negative) inequality gap seen; raises if any
    draw violates its inequality beyond ``tol``.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    worst = math.inf
    for _ in range(count):
        x = rng.normal(size=n)
        r = float(np.exp(rng.normal()))
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        y = x + r * direction
        z = x + rng.normal(size=n) * np.exp(rng.normal())
        res = sphere_identity_check(x, r, z, y, tol=tol)
        worst = min(worst, res.lhs - res.rhs)
        if not res.satisfied:
            raise AssertionError(f"sphere inequality violated: gap {worst}")
    return worst


# ----------------------------------------------------------------------
# Boundary data and its conformal transforms.


@dataclass(frozen=True)
class BoundaryData:
    """Pointwise boundary jet: location, value, gradient, normal, curvature."""

    x: np.ndarray
    s: float
    p: np.ndarray
    nu: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vec(self.x))
        object.__setattr__(self, "p", _vec(self.p))
        object.__setattr__(self, "nu", _vec(self.nu))
        H = np.asarray(self.H, dtype=float)
        n = self.x.size
        if self.p.size != n or self.nu.size != n or H.shape != (n, n):
            raise ValueError("inconsistent dimensions in boundary data")
        if not self.s > 0.0:
            raise ValueError("boundary value must be positive")
        if abs(float(self.nu @ self.nu) - 1.0) > 1e-8:
            raise ValueError("normal must be a unit vector")
        if np.abs(H - H.T).max() > 1e-8 * (1.0 + np.abs(H).max()):
            raise ValueError("curvature matrix must be symmetric")
        object.__setattr__(self, "H", 0.5 * (H + H.T))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ScalarField:
    """A field given by a value callable and a gradient callable."""

    value: object
    gradient: object


def affine_field(base, s: float, p) -> ScalarField:
    """Field with value s and gradient p at ``base``: u(y) = s + p.(y-base)."""
    base = _vec(base)
    p = _vec(p)

    def value(y):
        return float(s + p @ (np.asarray(y, dtype=float) - base))

    def gradient(y):
        return p.copy()

    return ScalarField(value, gradient)


def constant_field(n: int, s: float = 1.0) -> ScalarField:
    return ScalarField(lambda y: float(s), lambda y: np.zeros(n))


@dataclass(frozen=True)
class TransformedData:
    """Boundary jet after a conformal map, evaluated at the original point."""

    s: float
    p: np.ndarray
    nu: np.ndarray
    H: np.ndarray
    jac: float


def transform_boundary_data(psi, u_field: ScalarField, data: BoundaryData,
                            ) -> TransformedData:
    """Push a boundary jet through a conformal map.

    With J the absolute Jacobian determinant of ``psi`` at x and
    c = (n-2)/(2n), the transformed jet at x is

        s'  = J^c u(psi x)
        p'  = c J^c (grad log J) u(psi x) + J^c d(psi)^T grad u(psi x)
        nu' = d(psi) nu / |d(psi) nu|
        H'  = J^(-1/n) (H + (grad log J . nu)/n * I)

    where the field slots are read from ``u_field`` at the image point and
    the geometry slots from ``data`` at the original point.
    """
    n = data.n
    c = (n - 2.0) / (2.0 * n)
    image, D, J, glog = psi.jet(data.x)
    uval = float(u_field.value(image))
    ugrad = _vec(u_field.gradient(image))
    Jc = J ** c
    s_new = Jc * uval
    p_new = c * Jc * glog * uval + Jc * (D.T @ ugrad)
    dnu = D @ data.nu
    nu_new = dnu / np.linalg.norm(dnu)
    H_new = J ** (-1.0 / n) * (data.H + (float(glog @ data.nu) / n) * np.eye(n))
    return TransformedData(float(s_new), p_new, nu_new, H_new, float(J))


def canonical_boundary_matrix(s: float, p, nu, H, n: int) -> np.ndarray:
    """Scale-normalized boundary matrix whose spectrum the reductions preserve.

        C = s^(-2/(n-2)) (H + 2/(n-2) * (p.nu / s) I)
    """
    p = _vec(p)
    nu = _vec(nu)
    H = np.asarray(H, dtype=float)
    if not s > 0.0:
        raise ValueError("boundary value must be positive")
    shift = 2.0 / (n - 2.0) * float(p @ nu) / s
    return s ** (-2.0 / (n - 2.0)) * (H + shift * np.eye(n))


REDUCTION_NAMES = (
    "translate_base",
    "kill_normal_gradient",
    "kill_full_gradient",
    "normalize_value",
    "rotate_normal",
    "center_decomposition",
)


@dataclass
class ReductionReport:
    """Outcome of the randomized invariance check for the five reductions."""

    n: int
    count: int
    seed: int
    tol: float
    max_violation: dict = field(default_factory=dict)
    worst_index: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.max_violation.values())

    def rows(self):
        for name in self.max_violation:
            yield [name, self.max_violation[name], self.worst_index[name],
                   self.tol, self.max_violation[name] <= self.tol]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["reduction", "max_violation", "worst_index",
                             "tol", "passed"])
            for name, violation, idx, tol, ok in self.rows():
                writer.writerow([name, f"{violation:.17g}", idx,
                                 f"{tol:.17g}", ok])


def _spectrum_gap(sL: float, pL, nuL, HL, sR: float, pR, nuR, HR,
                  n: int) -> float:
    specL = schouten.eigenvalues(canonical_boundary_matrix(sL, pL, nuL, HL, n))
    specR = schouten.eigenvalues(canonical_boundary_matrix(sR, pR, nuR, HR, n))
    return float(np.abs(specL - specR).max())


def _householder_to_axis(nu: np.ndarray) -> np.ndarray:
    n = nu.size
    e1 = np.zeros(n)
    e1[0] = 1.0
    v = nu - e1
    norm2 = float(v @ v)
    if norm2 < 1e-24:
        return np.eye(n)
    return np.eye(n) - 2.0 * np.outer(v, v) / norm2


def verify_reduction_identities(n: int = 4, count: int = 1000, *,
                                seed: int = 0, tol: float = 1e-9,
                                ) -> ReductionReport:
    """Randomized invariance check of the canonical boundary spectrum.

    For ``count`` random boundary jets, each named reduction builds its
    explicit conformal map, pushes the jet through
    :func:`transform_boundary_data`, and compares the canonical-matrix
    spectrum of (transformed value and gradient, original geometry)
    against that of (original value and gradient, transformed geometry).
    The sixth entry checks that an off-center inversion equals the word
    translate o invert-at-origin o translate-back in every Jacobian slot.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    rng = np.random.default_rng(seed)
    report = ReductionReport(n=n, count=count, seed=int(seed), tol=tol)
    for name in REDUCTION_NAMES:
        report.max_violation[name] = 0.0
        report.worst_index[name] = -1

    def note(name, violation, idx):
        if math.isnan(violation):  # a nan violation must fail its check
            violation = math.inf
        if violation > report.max_violation[name]:
            report.max_violation[name] = float(violation)
            report.worst_index[name] = idx

    def push(name, idx, word, fld, data, s, p):
        """Push ``data`` through ``word`` and note the spectrum gap of
        (transformed value and gradient, original geometry) against
        (s, p, transformed geometry); returns the transformed jet."""
        out = transform_boundary_data(MobiusMap(word), fld, data)
        note(name, _spectrum_gap(out.s, out.p, data.nu, data.H, s, p, out.nu,
                                 out.H, n), idx)
        return out

    def invert_along(name, idx, data, unit, along):
        """Push ``data`` through the inversion fixing x whose center sits
        along ``unit`` at signed distance (n-2)s/along; returns the
        transformed gradient."""
        lam = -(n - 2.0) * data.s / along
        return push(name, idx, [Inversion(data.x - lam * unit, abs(lam))],
                    affine_field(data.x, data.s, data.p), data, data.s,
                    data.p).p

    e1 = np.zeros(n)
    e1[0] = 1.0
    for idx in range(count):
        x = rng.normal(size=n)
        s = float(np.exp(rng.normal(scale=0.5)))
        p = rng.normal(size=n)
        nu = rng.normal(size=n)
        nu /= np.linalg.norm(nu)
        H = rng.normal(size=(n, n))
        H = 0.5 * (H + H.T)
        data = BoundaryData(x, s, p, nu, H)

        # --- translate the base point (unit Jacobian everywhere).
        v = rng.normal(size=n)
        push("translate_base", idx, [Translation(v)],
             affine_field(x + v, s, p), data, s, p)

        # --- kill the normal gradient component: inversion fixing x whose
        # center sits along the normal at signed distance (n-2)s/(p.nu).
        if abs(float(p @ nu)) < 1e-3:
            adj = BoundaryData(x, s, p + 0.5 * nu, nu, H)
        else:
            adj = data
        pn = float(adj.p @ nu)
        p_out = invert_along("kill_normal_gradient", idx, adj, nu, pn)
        # The transformed gradient must be the tangential projection.
        note("kill_normal_gradient",
             float(np.abs(p_out - (adj.p - pn * nu)).max()), idx)

        # --- kill the whole gradient: same mechanism aligned with p.
        if float(np.linalg.norm(p)) < 1e-3:
            adj = BoundaryData(x, s, p + 0.5 * e1, nu, H)
        else:
            adj = data
        pmag = float(np.linalg.norm(adj.p))
        p_out = invert_along("kill_full_gradient", idx, adj, adj.p / pmag,
                             pmag)
        note("kill_full_gradient", float(np.abs(p_out).max()), idx)

        # --- normalize the value to one via a dilation of the constant field.
        out = push("normalize_value", idx, [Dilation(s ** (2.0 / (n - 2.0)))],
                   constant_field(n), data, 1.0, np.zeros(n))
        note("normalize_value", abs(out.s - s), idx)

        # --- rotate the normal onto the first coordinate axis.  The image
        # field carries the original gradient, so the left slots see its
        # pullback O^T p while the right slots rotate the normal.
        O = _householder_to_axis(nu)
        out = push("rotate_normal", idx, [Orthogonal(O)],
                   affine_field(O @ x, s, p), data, s, p)
        note("rotate_normal", float(np.abs(out.nu - e1).max()), idx)

        # --- composition consistency: an off-center inversion must equal
        # the word translate(center) o invert-at-origin o translate(-center).
        ctr = rng.normal(size=n)
        rad = float(np.exp(rng.normal(scale=0.3)))
        direct = Inversion(ctr, rad)
        word = MobiusMap([Translation(ctr), Inversion(np.zeros(n), rad),
                          Translation(-ctr)])
        probe = rng.normal(size=n) + ctr + 1.5 * np.ones(n)
        image, D, J, g_log = word.jet(probe)
        image_d, D_d, J_d, g_log_d = direct.jet(probe)
        gap = float(np.max([np.abs(image - image_d).max(),  # keeps a nan
                            np.abs(D - D_d).max(),
                            abs(J - J_d) / max(1.0, abs(J_d)),
                            np.abs(g_log - g_log_d).max()]))
        note("center_decomposition", gap, idx)

    return report
