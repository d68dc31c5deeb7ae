"""Elementary symmetric functions, the cones they cut out, and concave
curvature functions built from defining functions.

Eigenvalue vectors are plain 1-D numpy arrays (dimensionless).  The cone
``G_k`` is the open set where the first k elementary symmetric polynomials
are strictly positive; membership is an exact sign test on the computed
values, so boundary points classify as outside.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import fd

__all__ = [
    "sigma_k",
    "sigma_k_bruteforce",
    "sigma_k_gradient",
    "in_gamma_k",
    "ConeSpec",
    "SymmetricCurvatureFunction",
    "sigma_root",
    "build_concave_f",
    "symmetrize_average",
    "homotopy_point",
    "homotopy_membership",
    "homotopy_f",
    "verify_axioms",
    "AxiomCheck",
    "AxiomReport",
]


def _as_vector(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalue vector must be 1-D and non-empty")
    return lam


def _elementary(lam: np.ndarray, k: int):
    """Yield e_0..e_k of ``lam`` (of each row when 2-D) by Newton's
    identities, m*e_m = sum_{j=1..m} (-1)^(j-1) e_(m-j) p_j on the power
    sums p_j.  The power sum p_m is formed only when e_m is asked for,
    and each e_m is the same float whatever k is."""
    e = [1.0 if lam.ndim == 1 else np.ones(len(lam))]
    yield e[0]
    p, powers = [], 1.0
    for m in range(1, k + 1):
        powers = powers * lam
        p.append(np.add.reduce(powers, axis=-1))
        acc = 0.0
        for j in range(1, m + 1):
            acc += (1.0 if j % 2 else -1.0) * e[m - j] * p[j - 1]
        e.append(acc / m)
        yield e[m]


def sigma_k(lam, k: int):
    """k-th elementary symmetric polynomial of the entries of ``lam``.

    Computed through the Newton recurrence on power sums, which is
    well-conditioned for the small dimensions (n <= 16) this package
    targets.  ``sigma_k(lam, 0) == 1`` by convention.  A 2-D ``lam``
    gives the array of sigma_k of its rows, each rounded exactly as that
    row alone would be.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] < 1:
        raise ValueError("eigenvalues must be a non-empty vector or rows "
                         "of vectors")
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    *_, e_k = _elementary(lam, k)
    return float(e_k) if lam.ndim == 1 else e_k


def sigma_k_bruteforce(lam, k: int) -> float:
    """Direct subset expansion of sigma_k; cross-check oracle for small n."""
    lam = _as_vector(lam)
    n = lam.size
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def sigma_k_gradient(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: entry i is sigma_(k-1) of lam with entry i removed."""
    lam = _as_vector(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    # Row i is lam without entry i, as np.delete(lam, i) gives it.
    rest = np.broadcast_to(lam, (n, n))[~np.eye(n, dtype=bool)]
    return list(_elementary(rest.reshape(n, n - 1), k - 1))[-1]


def _cone_signs(lam: np.ndarray, k: int):
    """True when e_1..e_k are all positive, False at the first negative
    one, None at the first that is zero or non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for e in itertools.islice(_elementary(lam, k), 1, None):
            if not 0.0 < abs(e) < math.inf:
                return None
            if e < 0.0:
                return False
    return True


def in_gamma_k(lam, k: int) -> bool:
    """Open-cone membership: sigma_l(lam) > 0 strictly for every l <= k.

    A pass that meets a zero or non-finite e_l (a boundary point, or over-
    or underflow at an extreme scale) is redone on lam scaled by a power of
    two to max|lam| in [1/2, 1); that scaling is exact, so it moves no sign.
    """
    lam = _as_vector(lam)
    if not 1 <= k <= lam.size:
        raise ValueError(f"order k={k} out of range for n={lam.size}")
    verdict = _cone_signs(lam, k)
    if verdict is None:
        lam = np.ldexp(lam, -np.frexp(np.abs(lam).max())[1])
        verdict = bool(_cone_signs(lam, k))
    return verdict


@dataclass(frozen=True)
class ConeSpec:
    """The cone {sigma_1 > 0, ..., sigma_k > 0} in dimension n."""

    k: int
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")

    def contains(self, lam) -> bool:
        lam = _as_vector(lam)
        if lam.size != self.n:
            raise ValueError(f"expected dimension {self.n}, got {lam.size}")
        return in_gamma_k(lam, self.k)


@dataclass(frozen=True)
class SymmetricCurvatureFunction:
    """A symmetric curvature function f together with its cone of definition.

    ``value`` and ``gradient`` are only meaningful on cone members; callers
    are expected to gate on ``in_cone`` first.  ``homogeneous`` marks
    degree-one positive homogeneity (the normalization used throughout the
    solvers), and ``delta`` is the certified lower bound for the trace of
    the gradient when one is available.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    in_cone: Callable[[np.ndarray], bool]
    homogeneous: bool = True
    delta: float | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, lam) -> float:
        return self.value(np.asarray(lam, dtype=float))


def sigma_root(k: int, n: int) -> SymmetricCurvatureFunction:
    """The builtin curvature function sigma_k^(1/k) on its natural cone."""
    cone = ConeSpec(k, n)

    def value(lam):
        return sigma_k(lam, k) ** (1.0 / k)

    def gradient(lam):
        s = sigma_k(lam, k)
        return (s ** (1.0 / k - 1.0) / k) * sigma_k_gradient(lam, k)

    return SymmetricCurvatureFunction(
        value=value,
        gradient=gradient,
        in_cone=cone.contains,
        homogeneous=True,
        delta=None,
        meta={"kind": "sigma_root", "k": k, "n": n},
    )


def symmetrize_average(h: Callable, n: int, limit: int = 8) -> Callable:
    """Average ``h`` over all coordinate permutations.

    Returns a symmetric function agreeing with ``h`` whenever ``h`` was
    already symmetric.  Factorial cost; guarded to small dimensions.
    """
    if n > limit:
        raise ValueError(f"permutation averaging limited to n <= {limit}")
    perms = list(itertools.permutations(range(n)))

    def h_sym(lam):
        lam = np.asarray(lam, dtype=float)
        return sum(h(lam[list(p)]) for p in perms) / len(perms)

    return h_sym


def build_concave_f(
    h: Callable[[np.ndarray], float],
    alpha: float = 0.5,
    *,
    n: int,
    in_cone: Callable[[np.ndarray], bool],
    grad_h: Callable[[np.ndarray], np.ndarray] | None = None,
    symmetrize: bool = False,
) -> SymmetricCurvatureFunction:
    """Build a degree-one concave curvature function from a defining function.

    ``h`` must be positive and concave on the cone and vanish on its
    boundary (the caller's responsibility; ``verify_axioms`` spot-checks).
    The construction rescales ``g = h**alpha`` to homogeneity one along the
    trace direction:

        f(lam) = tr(lam) * g(lam / tr(lam)),   tr(lam) = lam_1 + ... + lam_n

    Every partial derivative of f is then at least ``(1-alpha)*f/tr(lam)``,
    and the trace of the gradient is bounded below by the certified
    constant ``delta = n * h(e/n)**(1/alpha)`` stored on the result.

    When ``symmetrize`` is set, ``h`` is first replaced by its permutation
    average (equal to ``h`` for symmetric input, factorial cost otherwise).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if symmetrize:
        h = symmetrize_average(h, n)
        grad_h = None

    center = np.full(n, 1.0 / n)
    h_center = float(h(center))
    if not h_center > 0.0:
        raise ValueError("defining function must be positive at the cone center")
    delta = n * h_center ** (1.0 / alpha)

    gh = grad_h if grad_h is not None else (
        lambda lam: fd.gradient(h, lam, 1e-7))

    def value(lam):
        lam = np.asarray(lam, dtype=float)
        tr = float(lam.sum())
        if not tr > 0.0:
            raise ValueError("argument outside the cone (non-positive trace)")
        return tr * float(h(lam / tr)) ** alpha

    def gradient(lam):
        lam = np.asarray(lam, dtype=float)
        tr = float(lam.sum())
        if not tr > 0.0:
            raise ValueError("argument outside the cone (non-positive trace)")
        x = lam / tr
        hx = float(h(x))
        gx = alpha * hx ** (alpha - 1.0) * np.asarray(gh(x), dtype=float)
        # d/dlam_i [tr * g(lam/tr)] = g(x) + dg_i(x) - dg(x).x
        return float(hx ** alpha) + gx - float(gx @ x)

    return SymmetricCurvatureFunction(
        value=value,
        gradient=gradient,
        in_cone=in_cone,
        homogeneous=True,
        delta=delta,
        meta={"kind": "homogenized", "alpha": alpha, "n": n},
    )


def homotopy_point(lam, t: float) -> np.ndarray:
    """The deformed argument t*lam + (1-t)*sigma_1(lam)*(1,...,1)."""
    lam = _as_vector(lam)
    if not 0.0 <= t <= 1.0:
        raise ValueError("deformation parameter must lie in [0, 1]")
    return t * lam + (1.0 - t) * lam.sum() * np.ones_like(lam)


def homotopy_membership(lam, t: float, in_cone: Callable) -> bool:
    """Membership in the deformed cone: the deformed point lies in the base cone."""
    return bool(in_cone(homotopy_point(lam, t)))


def homotopy_f(lam, t: float, f: SymmetricCurvatureFunction) -> float:
    """Deformed curvature function; raises if the deformed point exits the cone."""
    pt = homotopy_point(lam, t)
    if not f.in_cone(pt):
        raise ValueError(f"deformed point left the cone at t={t}")
    return f.value(pt)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    max_violation: float
    worst_sample: np.ndarray | None = None


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            c.name: {"passed": bool(c.passed),
                     "max_violation": float(c.max_violation)}
            for c in self.checks
        }


def _numerical_hessian(fun, x, in_cone, step_scale=1e-5):
    """Central-difference Hessian; shrinks the step if the stencil exits the cone."""
    x = np.asarray(x, dtype=float)
    n = x.size
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    h = step_scale * max(1.0, float(np.linalg.norm(x)))
    for _ in range(4):
        e = np.eye(n) * h
        # The (j, i) points are the (i, j) points reordered, bit for bit.
        stencil = [(x + e[i] + e[j], x + e[i] - e[j],
                    x - e[i] + e[j], x - e[i] - e[j]) for i, j in pairs]
        if all(in_cone(p) for pts in stencil for p in pts):
            break
        h *= 0.1
    else:
        return None
    H = np.empty((n, n))
    for (i, j), (pp, pm, mp, mm) in zip(pairs, stencil):
        v = (fun(pp) - fun(pm) - fun(mp) + fun(mm)) / (4.0 * h * h)
        H[i, j] = H[j, i] = v
    return H


def verify_axioms(
    f: SymmetricCurvatureFunction,
    samples: Sequence[np.ndarray],
    *,
    concavity_tol: float = 1e-5,
    hessian_step: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> AxiomReport:
    """Check the structural axioms of a curvature function on sample points.

    Verifies symmetry, positivity, strict monotonicity of the gradient,
    concavity (numerical Hessian eigenvalues below tolerance), degree-one
    homogeneity when claimed, and the gradient-trace lower bound when the
    function carries a certified ``delta``.  All samples must lie in the
    cone interior.  Only finitely many derivatives are probed, so
    smoothness beyond second order is taken on trust from the caller.

    ``concavity_tol`` must stay above the central-difference noise floor
    eps * |f| / step^2 (about 1e-6 at the default step): homogeneous
    functions have an exactly-zero Hessian eigenvalue that roundoff
    perturbs to either side, so demanding more would reject genuinely
    concave input.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    samples = [np.asarray(s, dtype=float) for s in samples]
    for s in samples:
        if not f.in_cone(s):
            raise ValueError("verify_axioms requires interior sample points")

    # check name -> worst violation; a value <= 0 is never recorded, so
    # a satisfied check reads 0.0
    viol = collections.defaultdict(float)
    where = {}  # check name -> the sample showing it
    strictly_positive = strictly_monotone = True
    skipped_hessians = 0

    def note(name, v, s):
        if math.isnan(v):  # a nan violation must fail its check
            v = math.inf
        if v > viol[name]:
            viol[name], where[name] = v, s

    for s in samples:
        val = f.value(s)
        scale = 1.0 + abs(val)

        perm = rng.permutation(s.size)
        note("symmetry", abs(f.value(s[perm]) - val) / scale, s)

        strictly_positive &= val > 0.0
        note("positivity", -val, s)

        grad = np.asarray(f.gradient(s), dtype=float)
        strictly_monotone &= float(grad.min()) > 0.0
        note("monotonicity", -float(grad.min()), s)

        H = _numerical_hessian(f.value, s, f.in_cone, hessian_step)
        if H is None:
            skipped_hessians += 1
        elif np.isfinite(H).all():
            note("concavity", float(np.linalg.eigvalsh(H).max()), s)
        else:  # LAPACK refuses a non-finite matrix; the check fails
            note("concavity", math.inf, s)

        if f.homogeneous:
            t = float(rng.uniform(0.5, 2.0))
            note("homogeneity", abs(f.value(t * s) - t * val) / (scale * t), s)

        if f.delta is not None:
            note("gradient_trace_bound", f.delta - float(grad.sum()), s)

    def check(name, passed):
        return AxiomCheck(name, passed, viol[name], where.get(name))

    checks = [
        check("symmetry", viol["symmetry"] <= 1e-12),
        check("positivity", strictly_positive),
        check("monotonicity", strictly_monotone),
        check("concavity", viol["concavity"] <= concavity_tol),
    ]
    if f.homogeneous:
        checks.append(check("homogeneity", viol["homogeneity"] <= 1e-10))
    if f.delta is not None:
        checks.append(check("gradient_trace_bound",
                            viol["gradient_trace_bound"] <= 1e-8))
    if skipped_hessians:
        checks.append(AxiomCheck("hessian_stencil_in_cone", False,
                                 float(skipped_hessians)))
    return AxiomReport(tuple(checks))
