"""Shooting solvers for the radial annulus problem.

Everything here reduces a boundary-value question on the annulus
1 < r < R to scanning the inner log-profile value s = xi(0): the inner
Robin condition fixes xi_t(0) = c1 * exp(-s) exactly, the trajectory is
integrated across the annulus, and the outer Robin residual becomes a
scalar function of s whose zeros are the solutions.

On top of the basic solver sit three investigations:

* ``find_r_star``    -- smallest outer radius at which the problem with
                        negative-total boundary data becomes solvable;
* ``verify_bifurcation`` -- locates the radius where the rotationally
                        symmetric branch count jumps (1 -> 3) and compares
                        it against the closed-form prediction;
* ``counterexample_sweep`` -- one-parameter family of solutions whose
                        C^1 data stays bounded on a fixed annulus while
                        the Hessian at the inner boundary blows up.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .radial import (
    AnnulusProblem,
    LaneFan,
    RadialState,
    _survival_seed,
    brentq,
    integrate,
    integrate_endpoint,
    integrate_lanes,
    ode_rhs,
    outer_bc_residual,
    theta_constant,
    u_from_xi,
)
from . import schouten, symfn

__all__ = [
    "ScanSpec",
    "AnnulusSolution",
    "ShootingDiagnostics",
    "ShootingResult",
    "solve_annulus",
    "cylinder_solution",
    "bifurcation_threshold",
    "BifurcationResult",
    "verify_bifurcation",
    "RStarResult",
    "find_r_star",
    "CounterexampleRow",
    "CounterexampleSweep",
    "counterexample_sweep",
    "SWEEP_COLUMNS",
]

# Seeds are clipped slightly inside the ellipticity guard so the very
# first integrator step is well-posed.
SEED_MARGIN = 1e-9

# Most radii find_r_star may probe while it grows R - 1 geometrically.
MAX_GROWTH_PROBES = 1000


def cylinder_solution(n: int, k: int) -> tuple[float, float]:
    """Equilibrium of the radial ODE and the matching profile scale.

    Returns (xi_cyl, scale) where xi = xi_cyl is the constant trajectory
    and scale = u(1) = exp(-(n-2) xi_cyl / 2) is the profile value at the
    inner boundary.  Exists only for n > 2k.
    """
    if not n > 2 * k:
        raise ValueError(f"no cylinder equilibrium for n={n}, k={k}")
    th = theta_constant(n, k)
    xi_cyl = math.log(2.0 * k * th / (n - 2.0 * k)) / (2.0 * k)
    scale = math.exp(-0.5 * (n - 2.0) * xi_cyl)
    # The equilibrium spectrum must have sigma_k exactly one.
    lam = schouten.radial_spectrum(xi_cyl, 0.0, 0.0, n)
    if abs(symfn.sigma_k(lam, k) - 1.0) > 1e-10:
        raise AssertionError("cylinder equilibrium failed its sigma_k check")
    return xi_cyl, scale


def bifurcation_threshold(n: int, k: int) -> float:
    """Outer radius at which the symmetric branch first multiplies.

    The linearization around the cylinder equilibrium oscillates with
    angular frequency sqrt(n-2k); a half-period fits the annulus exactly
    when ln R = pi / sqrt(n-2k).
    """
    if not n > 2 * k:
        raise ValueError(f"no cylinder equilibrium for n={n}, k={k}")
    return math.exp(math.pi / math.sqrt(n - 2.0 * k))


@dataclass(frozen=True)
class ScanSpec:
    """Uniform grid of inner values s = xi(0) for the shooting scan."""

    lo: float
    hi: float
    num: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("scan window must be finite")
        if not self.lo < self.hi:
            raise ValueError("scan window must have lo < hi")
        _check_count(num=self.num)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.num)

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.num - 1)


def default_scan(n: int, k: int, *, half_width: float = 5.0,
                 num: int = 2000) -> ScanSpec:
    """Scan window centred on the cylinder value (or 0 when there is none)."""
    center = cylinder_solution(n, k)[0] if n > 2 * k else 0.0
    return ScanSpec(center - half_width, center + half_width, num)


@dataclass(frozen=True)
class AnnulusSolution:
    """One shooting solution: inner data, outer residual, trajectory.

    The root was refined at integrator tolerance (rtol, atol); its dense
    trajectory is integrated at that tolerance when first read.
    """

    xi0: float
    xi_t0: float
    residual: float
    problem: AnnulusProblem
    rtol: float
    atol: float

    @cached_property
    def trajectory(self):
        p = self.problem
        return integrate((self.xi0, self.xi_t0), p.T, p.n, p.k,
                         rtol=self.rtol, atol=self.atol)

    @property
    def inner_u(self) -> float:
        return float(u_from_xi(self.xi0, 0.0, self.problem.n))


@dataclass
class ShootingDiagnostics:
    """Scan-level evidence backing a shooting verdict."""

    grid: np.ndarray
    residuals: np.ndarray
    brackets: list = field(default_factory=list)
    gap_runs: list = field(default_factory=list)
    truncated_low: int = 0
    truncated_high: int = 0
    rejected: list = field(default_factory=list)


@dataclass(frozen=True)
class ShootingResult:
    problem: AnnulusProblem
    solutions: tuple
    status: str  # "ok" | "empty" | "inconclusive"
    diagnostics: ShootingDiagnostics

    def __iter__(self):
        return iter(self.solutions)

    def __len__(self):
        return len(self.solutions)


def _seed_state(s: float, c1: float) -> RadialState | None:
    xi_t0 = c1 * math.exp(-s)
    if abs(xi_t0) > 1.0 - SEED_MARGIN:
        return None
    return RadialState(0.0, float(s), xi_t0)


def _inner_slopes(seeds: np.ndarray, c1: float):
    """(ok, xi_t0): which seeds are admissible, and their inner slopes."""
    with np.errstate(over="ignore", invalid="ignore"):
        xi_t0 = c1 * np.exp(-seeds)
    return np.abs(xi_t0) <= 1.0 - SEED_MARGIN, xi_t0


def _outer_residual(problem: AnnulusProblem, xi, xi_t):
    """Outer Robin residuals of end states (xi, xi_t) arrays at r = R."""
    # Not outer_bc_residual: np.exp and math.exp differ on 92,750 of
    # 2,000,000 uniform draws in [-30, 30], which would move the scan.
    return xi_t + problem.c2 * np.exp(-xi) / problem.R


def _make_residual(problem: AnnulusProblem, rtol: float, atol: float):
    """Outer-residual-of-inner-value map; nan marks unevaluable seeds.

    A 1-D array of seeds is integrated at once, as lanes of
    :func:`integrate_lanes`, and gives the array of residuals.  A scalar
    seed runs one such lane in Python floats, :func:`integrate_endpoint`,
    which is what brentq refinement evaluates.  Both end every seed the
    same way.
    """
    n, k, T = problem.n, problem.k, problem.T

    def lanes(seeds: np.ndarray) -> np.ndarray:
        ok, xi_t0 = _inner_slopes(seeds, problem.c1)
        xi, xi_t = np.full((2,) + seeds.shape, math.nan)
        if ok.any():
            xi[ok], xi_t[ok], _ = integrate_lanes(
                seeds[ok], xi_t0[ok], T, n, k, rtol=rtol, atol=atol)
        return _outer_residual(problem, xi, xi_t)

    def endpoint(s):
        seed = _seed_state(s, problem.c1)
        if seed is None:
            return math.nan
        xi, xi_t, _ = integrate_endpoint(seed.xi, seed.xi_t, T, n, k,
                                         rtol=rtol, atol=atol)
        return outer_bc_residual(RadialState(T, xi, xi_t), problem.c2,
                                 problem.R)

    def fn(s):
        if np.ndim(s):
            return lanes(np.asarray(s, dtype=float))
        return endpoint(s)

    return fn


def _nan_runs(values: np.ndarray):
    """(interior_runs, leading, trailing): maximal nan runs in the scan."""
    m = values.size
    edges = np.diff(np.isnan(values).astype(np.int8), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1).tolist(),
               (np.flatnonzero(edges == -1) - 1).tolist())
    leading = trailing = 0
    interior = []
    for (a, b) in runs:
        if a == 0:
            leading = b - a + 1
        elif b == m - 1:
            trailing = b - a + 1
        else:
            interior.append((a, b))
    return interior, leading, trailing


def solve_annulus(
    problem: AnnulusProblem,
    *,
    scan: ScanSpec | None = None,
    scan_rtol: float = 1e-7,
    scan_atol: float = 1e-9,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    residual_bound: float = 1e-10,
    merge_tol: float = 1e-6,
    gap_limit: int = 10,
    polish: bool = True,
    _residuals: np.ndarray | None = None,
) -> ShootingResult:
    """Find every rotationally symmetric solution on the annulus.

    Stage one evaluates the outer residual on the scan grid at relaxed
    integrator tolerance, every seed at once as integrator lanes, and
    brackets its sign changes.  Stage two refines each bracket once with
    brentq: when ``polish`` is set, at tight tolerance (rtol, atol) and
    keeping only roots whose outer residual there is below
    ``residual_bound``; otherwise at the scan tolerance.  Nearby roots
    (within ``merge_tol``) are merged.  Each solution integrates its
    dense trajectory, at the tolerance it was refined at, when read.

    Unevaluable seeds -- ellipticity breakdown or step failure before the
    outer boundary, or an inadmissible seed velocity -- appear as nan entries
    in the scan.  Runs of nans at the scan edges are only truncation;
    a run strictly inside the scan longer than ``gap_limit`` cells makes
    an empty result ``inconclusive`` rather than ``empty``, because a
    root could hide inside the unevaluated band.

    The radius searches pass ``_residuals``, the scan residuals read from
    the :class:`radial.LaneFan` of their grid (see :func:`_prober`), so
    the grid is not integrated again.  A single solve scans afresh:
    building a fan to read it once costs about 13% more.  Such a probe,
    always polish-free, only counts: a bracket that surely holds one root
    of its own (:func:`_certain_brackets`) is not refined, and its
    solution is the bracket's scan end of smaller residual.

    The four tolerances must be finite and non-negative: a nan one would
    make every seed unevaluable and the answer a false ``empty``.  For
    the same reason ``scan_atol`` and ``atol`` must be positive when
    c1 = 0 or the grid holds the seed 0 (see
    :func:`_check_zero_slope_atol`).  ``residual_bound``, ``merge_tol``
    and ``gap_limit`` must not be nan or negative: a nan bound would
    accept every root.  A result whose every bracket was rejected is
    ``inconclusive`` too: refinement could not confirm a root that may be
    there.
    """
    for name, tol in (("scan_rtol", scan_rtol), ("scan_atol", scan_atol),
                      ("rtol", rtol), ("atol", atol)):
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, "
                             f"got {tol!r}")
    for name, value in (("residual_bound", residual_bound),
                        ("merge_tol", merge_tol), ("gap_limit", gap_limit)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if scan is None:
        scan = default_scan(problem.n, problem.k)
    grid = scan.grid
    _check_zero_slope_atol(problem.c1, grid, scan_atol=scan_atol, atol=atol)
    coarse = _make_residual(problem, scan_rtol, scan_atol)
    residuals = coarse(grid) if _residuals is None else _residuals

    diag = ShootingDiagnostics(grid=grid, residuals=residuals)
    interior, lead, trail = _nan_runs(residuals)
    diag.gap_runs = interior
    diag.truncated_low = lead
    diag.truncated_high = trail

    # Bracket sign changes between adjacent evaluated cells; an exact
    # zero is its own bracket.  The last cell has no right neighbour.
    a, b = residuals[:-1], residuals[1:]
    both = ~(np.isnan(a) | np.isnan(b))
    zero = both & (a == 0.0)
    left = np.flatnonzero(zero | (both & (a * b < 0.0)))
    right = np.where(zero[left], left, left + 1)
    if residuals[-1] == 0.0:
        left = np.append(left, grid.size - 1)
        right = np.append(right, grid.size - 1)
    diag.brackets = list(zip(grid[left], grid[right]))
    s_star = (math.inf if _residuals is None
              else _survival_seed(problem.n, problem.k, problem.c1))
    counted = _certain_brackets(grid, left, right, s_star, merge_tol)

    # Each bracket is refined once, on the map at the solution tolerance.
    tol = (rtol, atol) if polish else (scan_rtol, scan_atol)
    fine = _make_residual(problem, *tol) if polish else coarse
    xtol = 1e-13 if polish else 1e-10
    # brentq returns a point it has evaluated, so its residual is read
    # back, not integrated again; only an exact grid zero is evaluated.
    # brentq refuses a nan value, a seed it cannot evaluate, by ValueError.
    memo = {}

    def remembered(s):
        v = memo[s] = fine(s)
        return v

    found = []
    for (a, b), i, j, sure in zip(diag.brackets, left, right, counted):
        if sure:
            i = i if abs(residuals[i]) <= abs(residuals[j]) else j
            memo[grid[i]] = residuals[i]
        try:
            root = grid[i] if sure or a == b else brentq(remembered, a, b,
                                                          xtol=xtol)
        except ValueError as exc:
            diag.rejected.append(("refine_failed", a, b, repr(exc)))
            continue
        res = memo[root] if root in memo else fine(root)
        if math.isnan(res) or (polish and abs(res) > residual_bound):
            diag.rejected.append(("residual_bound", root, res))
            continue
        found.append(AnnulusSolution(float(root), problem.c1 * math.exp(-root),
                                     float(res), problem, *tol))

    # Merge near-duplicates, keeping the better residual.
    found.sort(key=lambda sol: sol.xi0)
    merged = []
    for sol in found:
        if merged and sol.xi0 - merged[-1].xi0 < merge_tol:
            if abs(sol.residual) < abs(merged[-1].residual):
                merged[-1] = sol
        else:
            merged.append(sol)

    if merged:
        status = "ok"
    elif diag.rejected or any(b - a + 1 > gap_limit for (a, b) in interior):
        status = "inconclusive"
    else:
        status = "empty"
    return ShootingResult(problem, tuple(merged), status, diag)


def _check_positive(**values):
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")


def _check_count(**counts):
    """Refuse a sample count that is not an integer of at least 2."""
    for name, value in counts.items():
        if not (hasattr(value, "__index__") and operator.index(value) >= 2):
            raise ValueError(f"{name} must be an integer of at least 2, "
                             f"got {value!r}")


def _check_zero_slope_atol(c1, grid, **atols):
    """Refuse a zero absolute tolerance where a seed has a zero component.
    At c1 = 0 every inner slope is 0, so no seed has an error scale in its
    slope: each ends as a step failure, and the answer would be a false
    ``empty``.  A seed xi0 = 0 on the grid likewise ends as a step
    failure, a nan cell where a root could hide."""
    for name, atol in atols.items():
        if c1 == 0.0 and atol == 0.0:
            raise ValueError(f"{name} must be positive when c1 = 0")
        if atol == 0.0 and 0.0 in grid:
            raise ValueError(f"{name} must be positive when the scan grid "
                             "holds the seed 0")


def _prober(n, k, c1, c2, scan, scan_rtol, scan_atol):
    """R -> the polish-free solve at outer radius R, for a radius search.

    The admissible seeds of the scan grid are integrated once, as a
    :class:`radial.LaneFan`, and every probe passes the solve its scan
    residuals, read from the fan at T = ln R.  The probe's solutions are
    counted, not used: a root that refinement cannot drop or merge is
    left unrefined (see :func:`solve_annulus`).
    """
    grid = scan.grid
    ok, xi_t0 = _inner_slopes(grid, c1)
    fan = LaneFan(grid[ok], xi_t0[ok], n, k, rtol=scan_rtol, atol=scan_atol)

    def probe(R: float) -> ShootingResult:
        problem = AnnulusProblem(n, k, R, c1, c2)
        xi, xi_t = np.full((2, grid.size), math.nan)
        xi[ok], xi_t[ok] = fan.end_states(problem.T)
        return solve_annulus(problem, scan=scan, scan_rtol=scan_rtol,
                             scan_atol=scan_atol, polish=False,
                             _residuals=_outer_residual(problem, xi, xi_t))
    return probe


def _certain_brackets(grid, left, right, s_star, merge_tol):
    """Which brackets (``grid`` indices ``left``, ``right``) surely hold
    one root that no other root merges with, so that refining them
    cannot change a count.

    Every seed of a bracket survives to T when its lower seed is at least
    ``s_star`` (:func:`radial._survival_seed`).  So the residual of the
    exact orbit is continuous there, and the scan's sign change brackets
    a root that brentq cannot miss.  That is a statement about the exact
    orbit: on long annuli the integrator can still fail on such orbits
    near the separatrix, and there refinement would reject a root that a
    probe counts.

    When no other bracket has an end in common with it, and the grid's
    cells are wider than ``merge_tol``, its root lies farther than that
    from every other bracket's root.  An exact grid zero (left == right)
    has its cell as both ends, so it is not counted here.
    """
    ends = np.bincount(np.concatenate([left, right]), minlength=grid.size)
    return ((grid[left] >= s_star) & (ends[left] == 1) & (ends[right] == 1)
            & (np.diff(grid).min() > merge_tol))


def _bisect(upper, lo, hi, width):
    """Halve [lo, hi] on the predicate ``upper`` (true on hi's side) while
    hi - lo > width(lo); return the final (lo, hi)."""
    while hi - lo > width(lo):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is two adjacent floats
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class _Inconclusive(Exception):
    """Raised when a radius probe's scan has a disqualifying gap."""


@dataclass(frozen=True)
class RStarResult:
    """Outcome of the threshold-radius search."""

    n: int
    k: int
    c1: float
    c2: float
    status: str  # "ok" | "anomaly" | "unresolved" | "inconclusive"
    r_star: float | None
    bracket: tuple | None
    history: tuple  # (R, scan status, solution count) per probe


def find_r_star(
    n: int,
    k: int,
    c1: float,
    c2: float,
    *,
    r_init: float = 1.01,
    R_max: float = 64.0,
    rel_tol: float = 1e-4,
    growth: float = 2.0,
    shrink_limit: float = 1e-6,
    scan: ScanSpec | None = None,
    scan_rtol: float = 1e-7,
    scan_atol: float = 1e-9,
) -> RStarResult:
    """Smallest outer radius at which the annulus problem is solvable.

    Requires mean-convex-sum data c1 + c2 < 0 and 2 <= k < n/2, the regime
    in which thin annuli are expected to admit no solution.  The search
    grows R geometrically in R - 1 until a solvable radius appears, then
    bisects the (unsolvable, solvable) bracket to relative width
    ``rel_tol`` and reports the midpoint.

    Statuses: ``ok`` (threshold bracketed), ``anomaly`` (solvable all the
    way down to R - 1 = ``shrink_limit``, contradicting the thin-annulus
    expectation), ``unresolved`` (unsolvable all the way up to ``R_max``),
    ``inconclusive`` (a probe scan had a disqualifying interior gap, or
    every bracket of a probe was rejected).

    Every probe reads the scan from one :class:`radial.LaneFan`.
    """
    if not c1 + c2 < 0.0:
        raise ValueError("threshold search needs c1 + c2 < 0")
    if not (2 <= k and 2 * k < n):
        raise ValueError("threshold search needs 2 <= k < n/2")
    _check_positive(rel_tol=rel_tol, shrink_limit=shrink_limit, R_max=R_max)
    if not 1.0 < growth < math.inf:
        raise ValueError(f"growth must be finite and above 1, got {growth!r}")
    if not 1.0 < r_init < R_max:
        raise ValueError("need 1 < r_init < R_max")
    probes = math.log((R_max - 1.0) / (r_init - 1.0)) / math.log(growth)
    if math.ceil(probes) > MAX_GROWTH_PROBES:
        raise ValueError(f"growth {growth!r} needs {math.ceil(probes)} "
                         f"probes to reach R_max, over {MAX_GROWTH_PROBES}")
    if scan is None:
        scan = default_scan(n, k)
    _check_zero_slope_atol(c1, scan.grid, scan_atol=scan_atol)
    probe = _prober(n, k, c1, c2, scan, scan_rtol, scan_atol)
    history = []

    def solvable(R: float) -> bool:
        result = probe(R)
        history.append((R, result.status, len(result.solutions)))
        if result.status == "inconclusive":
            raise _Inconclusive
        return result.status == "ok"

    def search():
        """(status, bracket), probing through ``solvable``."""
        if solvable(r_init):
            # Solvable immediately: walk down toward R = 1 looking for the
            # unsolvable side of the bracket.
            hi, gap = r_init, (r_init - 1.0) / 4.0
            while gap >= shrink_limit and solvable(1.0 + gap):
                hi, gap = 1.0 + gap, gap / 4.0
            if gap < shrink_limit:
                return "anomaly", None
            lo = 1.0 + gap
        else:
            lo, gap = r_init, (r_init - 1.0) * growth
            while 1.0 + gap <= R_max and not solvable(1.0 + gap):
                lo, gap = 1.0 + gap, gap * growth
            if 1.0 + gap <= R_max:
                hi = 1.0 + gap
            elif history[-1][0] < R_max and solvable(R_max):
                hi = R_max
            else:
                return "unresolved", None
        return "ok", _bisect(solvable, lo, hi, lambda lo: rel_tol * lo)

    try:
        status, bracket = search()
    except _Inconclusive:
        status, bracket = "inconclusive", None
    r_star = None if bracket is None else 0.5 * (bracket[0] + bracket[1])
    return RStarResult(n, k, c1, c2, status, r_star, bracket, tuple(history))


@dataclass(frozen=True)
class BifurcationResult:
    n: int
    k: int
    predicted: float
    located: float | None
    relative_error: float | None
    status: str  # "ok" | "failed"
    history: tuple  # (R, branch count) per probe


def verify_bifurcation(
    n: int,
    k: int,
    *,
    window: float = 0.5,
    num: int = 400,
    scan_rtol: float = 1e-9,
    scan_atol: float = 1e-11,
    span: float = 0.1,
    rel_tol: float = 2e-4,
) -> BifurcationResult:
    """Locate the branch-count jump of the zero-Robin annulus problem.

    Scans a window of half-width ``window`` around the cylinder value and
    counts shooting solutions as the outer radius varies; bisects the
    interval [(1-span) thr, (1+span) thr] on the predicate "more than one
    branch" and compares the located transition with the closed form.
    Every probe reads the scan from one :class:`radial.LaneFan`.
    """
    if not window > 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    if not 0.0 < span < 1.0:
        raise ValueError(f"span must lie in (0, 1), got {span!r}")
    _check_positive(rel_tol=rel_tol)
    thr = bifurcation_threshold(n, k)
    xi_c = cylinder_solution(n, k)[0]
    scan = ScanSpec(xi_c - window, xi_c + window, num)
    _check_zero_slope_atol(0.0, scan.grid, scan_atol=scan_atol)
    probe = _prober(n, k, 0.0, 0.0, scan, scan_rtol, scan_atol)
    history = []

    def count(R: float) -> int:
        m = len(probe(R).solutions)
        history.append((R, m))
        return m

    lo, hi = (1.0 - span) * thr, (1.0 + span) * thr
    if not (count(lo) <= 1 < count(hi)):
        return BifurcationResult(n, k, thr, None, None, "failed",
                                 tuple(history))
    lo, hi = _bisect(lambda R: count(R) > 1, lo, hi, lambda lo: rel_tol * thr)
    located = 0.5 * (lo + hi)
    return BifurcationResult(n, k, thr, located, abs(located - thr) / thr,
                             "ok", tuple(history))


SWEEP_COLUMNS = ["eps", "xi0", "xi_t0", "xi_tt0", "T_window", "termination",
                 "sup_u", "sup_u_inv", "sup_grad", "sup_c1", "hessian_inner"]


@dataclass(frozen=True)
class CounterexampleRow:
    """One member of the bounded-C1, unbounded-C2 family.

    ``sup_c1`` is the window supremum of the pointwise sum
    |u| + 1/u + |u'|, the quantity that stays uniformly bounded while
    ``hessian_inner`` diverges.
    """

    eps: float
    xi0: float
    xi_t0: float
    xi_tt0: float
    T_window: float
    termination: str
    sup_u: float
    sup_u_inv: float
    sup_grad: float
    sup_c1: float
    hessian_inner: float

    def as_list(self):
        return [getattr(self, c) for c in SWEEP_COLUMNS]


@dataclass(frozen=True)
class CounterexampleSweep:
    n: int
    k: int
    c: float
    delta: float
    rows: tuple
    R0: float

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            for row in self.rows:
                out = []
                for v in row.as_list():
                    out.append(v if isinstance(v, str) else f"{v:.17g}")
                writer.writerow(out)


def counterexample_sweep(
    n: int,
    k: int,
    c: float,
    delta: float,
    eps_values,
    *,
    T_max: float = 10.0,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    num_window: int = 256,
) -> CounterexampleSweep:
    """Sweep the near-degenerate seed family and measure its blow-up.

    Each eps launches the trajectory xi(0) = eps + ln|c|,
    xi_t(0) = -exp(-eps), which starts close to the ellipticity boundary
    with a large positive xi_tt of order eps^(1-k).  Integration stops
    when the trajectory leaves its control window (xi_t reaching
    -1 + delta, or xi_tt falling to zero).  Each row reports the window
    length T and the C^0/C^1/C^2 magnitudes of the reconstructed profile:
    sup |u|, sup 1/u, sup |u'| over the window, and the Hessian scale
    max(|u''|, |u'|) at the inner boundary r = 1.

    The returned R0 = exp(min T) is an annulus radius on which every
    member of the family lives: the C^1 data stays uniformly bounded as
    eps -> 0 while the inner Hessian diverges.
    """
    if k < 2:
        raise ValueError("the blow-up mechanism needs k >= 2")
    if not k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    if not c < 0.0:
        raise ValueError("needs a negative inner Robin constant c")
    if not 0.0 < delta < 0.5:
        raise ValueError("needs 0 < delta < 1/2")
    _check_count(num_window=num_window)
    eps_values = [float(e) for e in eps_values]
    if not eps_values:
        raise ValueError("needs at least one eps")
    for eps in eps_values:
        if not 0.0 < eps < delta:
            raise ValueError(f"eps={eps} violates 0 < eps < delta")
        if not math.exp(-eps) > 1.0 - 0.5 * delta:
            raise ValueError(f"eps={eps} starts outside the control window")

    m = 0.5 * (n - 2.0)
    rows = []
    for eps in eps_values:
        xi0 = eps + math.log(abs(c))
        xi_t0 = -math.exp(-eps)
        xi_tt0 = ode_rhs(xi0, xi_t0, n, k)

        def window_exit(t, y):
            return y[1] - (delta - 1.0)

        window_exit.terminal = True

        def accel_zero(t, y):
            return ode_rhs(y[0], y[1], n, k)

        accel_zero.terminal = True

        traj = integrate((xi0, xi_t0), T_max, n, k, rtol=rtol, atol=atol,
                         extra_events=(window_exit, accel_zero))
        termination = {"event:0": "window_exit", "event:1": "accel_zero"}.get(
            traj.termination, traj.termination)

        pts = traj.sample(num_window)
        ts, xi, xi_t = pts[:, 0], pts[:, 1], pts[:, 2]
        r = np.exp(ts)
        u = u_from_xi(xi, ts, n)
        du = -m * (xi_t + 1.0) * u / r
        u0 = float(u[0])
        du0 = float(du[0])
        d2u0 = m * u0 * (-xi_tt0 + m * (xi_t0 + 1.0) ** 2 + (xi_t0 + 1.0))
        rows.append(CounterexampleRow(
            eps=eps, xi0=xi0, xi_t0=xi_t0, xi_tt0=float(xi_tt0),
            T_window=traj.t_end, termination=termination,
            sup_u=float(np.max(u)), sup_u_inv=float(np.max(1.0 / u)),
            sup_grad=float(np.max(np.abs(du))),
            sup_c1=float(np.max(np.abs(u) + 1.0 / u + np.abs(du))),
            hessian_inner=max(abs(d2u0), abs(du0))))

    R0 = math.exp(min(row.T_window for row in rows))
    return CounterexampleSweep(n, k, float(c), float(delta), tuple(rows), R0)
