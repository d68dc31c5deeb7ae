"""Radial reduction of the curvature-one equation on an annulus.

In logarithmic coordinates t = ln r the substitution
``u = exp(-(n-2)(xi+t)/2)`` turns the radial sigma_k curvature-one
equation into the autonomous second-order ODE

    xi_tt = theta * exp(-2k xi) * (1-xi_t^2)^(1-k) - (n-2k)/(2k) * (1-xi_t^2)

valid while |xi_t| < 1 (the elliptic branch; the equation degenerates at
the endpoints when k >= 2).  This module provides the coordinate maps,
the right-hand side with its guards, an adaptive integrator with event
truncation and dense output, two twins of it that return only the state
at the outer end (a lane-batched one that advances many seeds at once,
and a scalar one in Python floats), a fan of lanes that reads the same
seeds at any end time, Robin boundary residuals in xi-form, and
reconstruction of the annulus profile u(r) together with its Schouten
eigenvalues.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import _common, schouten, symfn

__all__ = [
    "ETA_GUARD",
    "TERMINATIONS",
    "theta_constant",
    "AnnulusProblem",
    "RadialState",
    "Trajectory",
    "xi_from_u",
    "u_from_xi",
    "ode_rhs",
    "ode_invariant",
    "integrate",
    "solve_ivp",
    "brentq",
    "integrate_lanes",
    "LaneFan",
    "integrate_endpoint",
    "inner_bc_residual",
    "outer_bc_residual",
    "reconstruct",
    "RadialProfile",
    "CSV_COLUMNS",
]

# Ellipticity guard on 1 - xi_t^2: trajectories are truncated by event
# before the degenerate set is reached, never stepped across it.
ETA_GUARD = 1e-12

# Why an integration stopped (``Trajectory.termination`` also allows
# ``event:<index>`` for caller-supplied events).
TERMINATIONS = ("reached_T", "ellipticity_breakdown", "step_failure")


def theta_constant(n: int, k: int) -> float:
    """Normalizing constant of the radial ODE: 2^(k-1) / binom(n-1, k-1)."""
    if n < 3 or not 1 <= k <= n:
        raise ValueError(f"bad cone indices n={n}, k={k}")
    return 2.0 ** (k - 1) / math.comb(n - 1, k - 1)


@dataclass(frozen=True)
class AnnulusProblem:
    """Annulus 1 < r < R with Robin constants c1 (inner) and c2 (outer)."""

    n: int
    k: int
    R: float
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if not 1 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")
        if not self.R > 1.0:
            raise ValueError("outer radius must exceed 1")
        if not all(math.isfinite(v) for v in (self.R, self.c1, self.c2)):
            raise ValueError("R, c1 and c2 must be finite")

    @property
    def theta(self) -> float:
        return theta_constant(self.n, self.k)

    @property
    def T(self) -> float:
        return math.log(self.R)


@dataclass(frozen=True)
class RadialState:
    t: float
    xi: float
    xi_t: float

    @property
    def admissible(self) -> bool:
        return 1.0 - self.xi_t ** 2 > ETA_GUARD


def xi_from_u(u, t, n: int):
    """Logarithmic profile xi = -(2/(n-2)) ln u - t.  Accepts arrays."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("profile must be positive")
    out = -(2.0 / (n - 2.0)) * np.log(u) - np.asarray(t, dtype=float)
    return float(out) if np.ndim(out) == 0 else out


def u_from_xi(xi, t, n: int):
    """Inverse of :func:`xi_from_u`: u = exp(-(n-2)(xi+t)/2)."""
    out = np.exp(-0.5 * (n - 2.0)
                 * (np.asarray(xi, dtype=float) + np.asarray(t, dtype=float)))
    return float(out) if np.ndim(out) == 0 else out


def ode_rhs(xi, xi_t, n: int, k: int, theta: float | None = None):
    """Second derivative xi_tt prescribed by the radial ODE.

    Pure evaluation: callers own the ellipticity guard, so the pole at
    1 - xi_t^2 = 0 and numpy's warnings stay.  Vectorizes over (xi, xi_t)
    arrays.  The unclamped body of the lanes' right-hand side
    (:func:`_pole_rhs`), so it takes their k >= 12 log form.
    """
    th = theta_constant(n, k) if theta is None else theta
    w = 1.0 - np.asarray(xi_t, dtype=float) ** 2
    out = _pole_rhs(-2.0 * k * np.asarray(xi, dtype=float), w, k, th,
                    (n - 2.0 * k) / (2.0 * k))
    return float(out) if np.ndim(out) == 0 else out


def _pole_rhs(e, w, k, th, beta):
    """theta e^e w^(1-k) - beta w, with e = -2k xi and w = 1 - xi_t^2:
    the acceleration of :func:`ode_rhs` and of the lanes (which clamp
    their w below at 1e-30 and e above at 700).  Arrays.

    For k >= 12 the pole w^(1-k) can overflow while w > 0 (k >= 27 inside
    the guard), and e^e can underflow to 0.  Where the result is then
    nan, 0 * inf, and w > 1e-30, the product is taken in log form,
    exp(min(e + (1-k) ln w, 700)); :func:`_clamped_accel` takes it alike.
    A clamped trial keeps its nan, so that the step is rejected.
    """
    if k < 12:
        return th * np.exp(e) * w ** (1 - k) - beta * w
    with np.errstate(over="ignore", invalid="ignore"):  # mended below
        out = th * np.exp(e) * w ** (1 - k) - beta * w
    lost = np.isnan(out) & (w > 1e-30)
    if lost.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(lost, th * np.exp(np.minimum(
                e + (1 - k) * np.log(w), 700.0)) - beta * w, out)
    return out


def ode_invariant(xi, xi_t, n: int, k: int):
    """Conserved quantity of the radial ODE.

    (1-xi_t^2)^k satisfies a linear first-order equation in xi along
    trajectories, which integrates to the constant

        E = (1-xi_t^2)^k exp(-(n-2k) xi) - (2k theta / n) exp(-n xi).

    Orbits with E > 0 never reach |xi_t| = 1; orbits with E < 0 do.  Used
    as an integrator-accuracy oracle.
    """
    xi = np.asarray(xi, dtype=float)
    w = 1.0 - np.asarray(xi_t, dtype=float) ** 2
    out = w ** k * np.exp(-(n - 2.0 * k) * xi) \
        - _invariant_tail(n, k) * np.exp(-n * xi)
    return float(out) if np.ndim(out) == 0 else out


class Trajectory:
    """Integrated radial trajectory with dense output.

    Samples are available through :meth:`state`, :meth:`xi` and friends at
    any t in [0, t_end]; ``termination`` records why integration stopped:
    ``reached_T``, ``ellipticity_breakdown`` or ``step_failure``.
    """

    def __init__(self, n, k, sol, termination, t_end):
        self.n = n
        self.k = k
        self._sol = sol
        self.termination = termination
        self.t_end = float(t_end)
        self.t_grid = np.asarray(sol.t, dtype=float)

    def xi(self, t):
        return self._eval(t)[0]

    def xi_t(self, t):
        return self._eval(t)[1]

    def _eval(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.t_end + 1e-12):
            raise ValueError("query time outside the integrated range")
        vals = self._sol.sol(np.clip(t, 0.0, self.t_end))
        return vals

    def xi_tt(self, t):
        xi, xi_t = self._eval(t)
        return ode_rhs(xi, xi_t, self.n, self.k)

    def state(self, t) -> RadialState:
        xi, xi_t = self._eval(t)
        return RadialState(float(t), float(xi), float(xi_t))

    @property
    def initial_state(self) -> RadialState:
        return self.state(0.0)

    @property
    def final_state(self) -> RadialState:
        return self.state(self.t_end)

    def sample(self, num: int = 200) -> np.ndarray:
        """(num, 3) array of (t, xi, xi_t) equally spaced on [0, t_end]."""
        _common.check_count(2, num=num)
        ts = np.linspace(0.0, self.t_end, num)
        xi, xi_t = self._eval(ts)
        return np.column_stack([ts, xi, xi_t])


def integrate(
    initial,
    T_max: float,
    n: int,
    k: int,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    extra_events=(),
) -> Trajectory:
    """Integrate the radial ODE from t = 0 until T_max or a terminal event.

    ``initial`` is a RadialState or an (xi, xi_t) pair at t = 0 and must be
    admissible, T_max must be positive and finite, and rtol and atol
    finite and non-negative, atol positive if a component of the seed is
    0: that component would have no error scale, and the starting step
    would be nan, which the controller shrinks forever.  The steps are
    those of scipy 1.17.1's RK45 (see :func:`solve_ivp`).  The built-in
    terminal event is ellipticity breakdown (1 - xi_t^2 falls to the
    guard).  ``extra_events`` are passed through to :func:`solve_ivp`
    (scipy's event protocol); each must be terminal, and stopping at one
    gives termination cause ``event:<index>``.

    For k >= 2 the right-hand side has a pole on the degenerate set, so
    adaptive steps can underflow before the guard event becomes
    locatable.  When that happens the first integral decides the cause:
    a step failure is reported as ``ellipticity_breakdown`` (truncated at
    the last accepted state) only where :func:`_certified_breakdown`
    proves from the seed and that state that the orbit reaches
    |xi_t| = 1 before T_max, and as ``step_failure`` otherwise.
    """
    if isinstance(initial, RadialState):
        y0 = (initial.xi, initial.xi_t)
    else:
        y0 = (float(initial[0]), float(initial[1]))
    rtol = _check_args(*y0, T_max, rtol, atol)
    if atol == 0.0 and 0.0 in y0:
        raise ValueError("atol must be positive for a seed with a zero "
                         "component")
    accel = _clamped_accel(n, k)

    def rhs(t, y):
        return (y[1], accel(y[0], y[1]))

    def ellipticity(t, y):
        v = y[1] if -1e150 < y[1] < 1e150 else 1e150
        return 1.0 - v * v - ETA_GUARD

    ellipticity.terminal = True

    # There is no cone-exit event.  A trajectory spectrum is one radial
    # eigenvalue plus an isotropic tangential block, for which sigma_l
    # factors as
    #   C(n-1, l-1) * lam_tan^(l-1) * [lam_rad + (n-l)/l * lam_tan]
    # with lam_tan > 0 while 1 - xi_t^2 > 0.  Up to the factor e^{2 xi}
    # the bracket is xi_tt + (n-2l)/(2l) * (1-xi_t^2), which the ODE makes
    #   theta * e^{-2k xi} * (1-xi_t^2)^(1-k) + (n/2l - n/2k) * (1-xi_t^2),
    # positive for every l <= k.  The spectrum stays in the cone as long
    # as the guard holds, and an event on the bracket fires only when
    # rounding cancels it.
    events = [ellipticity]
    events.extend(extra_events)

    # Rejected trial steps may still reach inf or nan inside the stage
    # sums; the controller rejects them, as it does for the lanes.
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, float(T_max)), y0, rtol=rtol, atol=atol,
                        events=events)

    if sol.status == -1:
        termination = _failed_step(y0, sol.t[-1], sol.y[0, -1], sol.y[1, -1],
                                   T_max, n, k)
        t_end = float(sol.t[-1])
    elif sol.status == 1:
        # solve_ivp records only the event that stopped it.
        first = next(i for i, te in enumerate(sol.t_events) if te.size)
        termination = ("ellipticity_breakdown" if first == 0
                       else f"event:{first - 1}")
        t_end = float(sol.t_events[first][0])
    else:
        termination = "reached_T"
        t_end = float(T_max)
    return Trajectory(n, k, sol, termination, t_end)


def _clamped_accel(n, k):
    """xi_tt of the radial ODE for one state, clamped to stay finite.

    Trial steps may overshoot the degenerate set or fling the state far
    out; clamping the inputs keeps the evaluation finite, so the error
    estimator rejects the step instead of raising or warning.  Where
    (1 - xi_t^2)^(1-k) overflows a float (k >= 12 near the degenerate
    set) it is taken as inf, the value numpy gives the lanes, and where
    e^{-2k xi} is then 0 and 1 - xi_t^2 was not clamped, the product is
    taken in log form, as :func:`_pole_rhs` takes it.  A clamped trial
    keeps its nan, so that the step is rejected.  For k <= 11 the pole
    of a clamped state cannot overflow, and the closure has no such
    branch.  The float twin of the second row of :func:`_lane_rhs`.
    """
    th = theta_constant(n, k)
    beta = (n - 2.0 * k) / (2.0 * k)
    c, p = -2.0 * k, 1 - k
    exp = math.exp

    def accel(x, v):
        if not -1e150 < v < 1e150:
            v = 1e150
        w = 1.0 - v * v
        if w < 1e-30:
            w = 1e-30
        e = c * x
        if e > 700.0:
            e = 700.0
        try:
            pole = w ** p
        except OverflowError:
            pole = math.inf
        return th * exp(e) * pole - beta * w

    def large_k(x, v):
        # With w unclamped, accel is nan only as 0 * inf: the pole is inf
        # (caught OverflowError for floats, inf for numpy scalars) where
        # exp(e) underflowed.
        a = accel(x, v)
        w = 1.0 - v * v
        if a == a or not w > 1e-30:
            return a
        return th * exp(min(c * x + p * math.log(w), 700.0)) - beta * w

    return accel if k < 12 else large_k


# Dormand-Prince 5(4) (Dormand & Prince 1980, J. Comput. Appl. Math.
# 6:19-26; Hairer-Norsett-Wanner, Solving ODEs I, Sec. II.4): stage
# coefficients, 5th-order weights, and error weights E = b5 - b4 over the
# six stages plus the first-same-as-last seventh.  With the controller
# constants below this is the method of scipy 1.17.1's RK45, which
# solve_ivp ports; the lanes of integrate_lanes and integrate_endpoint
# take the steps integrate takes.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (-71 / 57600, 0.0, 71 / 16695, -71 / 1920, 17253 / 339200,
         -22 / 525, 1 / 40)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1 / 5

# The dense output of RK45 (Shampine 1986, Math. Comp. 46:135-150, with
# Dormand and Prince's optimal c_6): over a step of size h from (t_old,
# y_old), y(t_old + x h) = y_old + h * (K^T P) (x, x^2, x^3, x^4), with K
# the seven stage derivatives.
_DP_P = (
    (1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0, 0, 0, 0),
    (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

# The tableau as the arrays scipy's RK45 holds, laid out alike, so that
# each matrix product below rounds as scipy's does.
_RK_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_RK_A = np.array([row + (0.0,) * (5 - len(row)) for row in ((),) + _DP_A])
_RK_ROWS = [_RK_A[s, :s] for s in range(1, 6)]
_RK_B, _RK_E, _RK_P = np.array(_DP_B), np.array(_DP_E), np.array(_DP_P)
_EPS = np.finfo(float).eps
_BRENTQ_RTOL = 4 * float(_EPS)


def brentq(f, a, b, *, xtol=2e-12, rtol=_BRENTQ_RTOL, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method (Brent 1973, *Algorithms for Minimization without Derivatives*,
    ch. 4).

    scipy 1.17.1's ``scipy.optimize.brentq``, ported bit for bit: the loop
    of its ``brentq.c`` on Python floats, so f is evaluated at the same
    points and the same root is returned, and the checks of its wrapper.
    A nan value of f, or f(a) and f(b) of one sign, raises ValueError;
    no convergence within ``maxiter`` iterations raises RuntimeError.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol, rtol = float(xtol), float(rtol)

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return float(fx)

    def differ(p, q):  # signbit(p) != signbit(q)
        return math.copysign(1.0, p) != math.copysign(1.0, q)

    xpre, xcur = float(a), float(b)
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if not differ(fpre, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and differ(fpre, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # C divides by zero into inf or nan, which bisects below.
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _norm(x):
    """scipy's RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


class _Step:
    """The dense output of one accepted step: scipy's RkDenseOutput."""

    __slots__ = ("t_old", "h", "y_old", "Q")

    def __init__(self, t_old, t, y_old, Q):
        self.t_old, self.h, self.y_old, self.Q = t_old, t - t_old, y_old, Q

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            p = np.cumprod(np.tile(x, 4))
        else:
            p = np.cumprod(np.tile(x, (4, 1)), axis=0)
        y = self.h * np.dot(self.Q, p)
        y += self.y_old[:, None] if y.ndim == 2 else self.y_old
        return y


class DenseSolution:
    """The dense output of an integration: scipy's OdeSolution on
    increasing breakpoints ``ts``.

    A time is evaluated on the step ``searchsorted`` (side ``left``) finds
    for it, the lower one at a breakpoint, and clamped to the first or
    last step outside them.  An array of times is sorted and evaluated in
    runs that share a step, as scipy evaluates it.
    """

    def __init__(self, ts, steps):
        self.ts = ts
        self.steps = steps

    def __call__(self, t):
        t = np.asarray(t)
        last = len(self.steps) - 1
        if t.ndim == 0:
            i = np.searchsorted(self.ts, t, side="left")
            return self.steps[min(max(i - 1, 0), last)](t)
        order = np.argsort(t)
        t_sorted = t[order]
        segments = np.clip(np.searchsorted(self.ts, t_sorted, side="left")
                           - 1, 0, last)
        starts = np.flatnonzero(np.diff(segments, prepend=-1))
        ys = [self.steps[segment](part) for segment, part in
              zip(segments[starts], np.split(t_sorted, starts[1:]))]
        return np.hstack(ys)[:, np.argsort(order)]


@dataclass
class IvpResult:
    """The fields of scipy's result that :func:`solve_ivp` fills: status
    0 at the end of the span, 1 at an event, -1 after a step failure."""

    t: np.ndarray
    y: np.ndarray
    sol: DenseSolution
    t_events: list
    status: int
    nfev: int


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=()):
    """scipy 1.17.1's ``solve_ivp(fun, t_span, y0, method="RK45",
    dense_output=True, events=events, rtol=rtol, atol=atol)``, ported bit
    for bit for an increasing span and terminal events.

    The port makes scipy's numpy calls in scipy's order, so its steps,
    states, event times, dense output and ``nfev`` equal scipy's to the
    last bit: the starting step of ``select_initial_step``; the stages
    and weights of ``rk_step`` as matrix products of the stage array,
    the zero weight of the second stage included; the RMS error norm
    through ``np.linalg.norm``; the controller, with its step floor of
    ten ulps of t; and the dense output ``K^T P`` of each step.  An event
    fires when its value reaches or crosses zero over a step, in its
    ``direction`` if it has one, and is located by :func:`brentq` on the
    dense output at xtol = rtol = 4 eps; of several, the earliest stops
    the integration.  An event that is not terminal is refused.

    ``fun(t, y)`` gets y as a numpy array; each event gets y0 as given,
    then numpy arrays.
    """
    t, tf = map(float, t_span)
    if not t < tf:
        raise ValueError("the time span must be increasing")
    events = tuple(events)
    if any(getattr(event, "terminal", None) != 1 for event in events):
        raise ValueError("every event must be terminal")
    direction = np.array([getattr(e, "direction", 0) for e in events],
                         dtype=float)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")
    if rtol < 100 * _EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * _EPS})`.",
                      stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)
    atol = np.asarray(atol)
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")

    nfev = 0

    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    # select_initial_step (Hairer-Norsett-Wanner II.4).
    f = rhs(t, y)
    span = tf - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _norm(y / scale), _norm(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    d2 = _norm((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, span)

    K = np.empty((7, y.size))
    ts, ys, steps = [t], [y0], []
    g = [event(t, y0) for event in events]
    t_events = [[] for _ in events]
    status = None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            if t_new > tf:
                t_new = tf
            h = t_new - t
            h_abs = np.abs(h)

            # rk_step
            K[0] = f
            for s, a in enumerate(_RK_ROWS, start=1):
                dy = np.dot(K[:s].T, a) * h
                K[s] = rhs(t + _RK_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _RK_B)
            f_new = K[-1] = rhs(t + h, y_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _norm(np.dot(K.T, _RK_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * error_norm ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= tf:
            status = 0
        step = _Step(t_old, t, y_old, K.T.dot(_RK_P))
        steps.append(step)

        # find_active_events: a value that reaches or crosses zero.
        g_new = [event(t, y) for event in events]
        up = (np.asarray(g) <= 0) & (np.asarray(g_new) >= 0)
        down = (np.asarray(g) >= 0) & (np.asarray(g_new) <= 0)
        active = np.nonzero(up & (direction > 0) | down & (direction < 0)
                            | (up | down) & (direction == 0))[0]
        if active.size:
            roots = np.asarray([
                brentq(lambda tau, event=events[i]: event(tau, step(tau)),
                       t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                for i in active])
            first = np.argsort(roots)[0]
            t = roots[first]
            t_events[active[first]].append(t)
            y = step(t)
            status = 1
        g = g_new

        # An event at the start of a step ends the integration where the
        # previous step did; scipy then drops the step.
        if len(ts) > 1 and ts[-1] == t:
            steps.pop()
        else:
            ts.append(t)
            ys.append(y)

    ts = np.array(ts)
    return IvpResult(t=ts, y=np.vstack(ys).T, sol=DenseSolution(ts, steps),
                     t_events=[np.asarray(te) for te in t_events],
                     status=status, nfev=nfev)


def _lane_rhs(y, k, th, beta, out):
    """The clamped right-hand side of :func:`integrate` on (2, m) states,
    written into ``out``: the one right-hand side of the lanes, for every
    k, with xi_t, 1 - xi_t^2 and -2k xi clamped as :func:`_clamped_accel`
    clamps them before :func:`_pole_rhs`.  Returns the clamped
    1 - xi_t^2."""
    v = np.where(np.abs(y[1]) < 1e150, y[1], 1e150)
    w = np.maximum(1.0 - v * v, 1e-30)
    out[0] = y[1]
    out[1] = _pole_rhs(np.minimum(-2.0 * k * y[0], 700.0), w, k, th, beta)
    return w


# A first-integral verdict is sure when E clears B e^{-n xi} by this
# relative margin, which rounding cannot fake.
_SURE = 1e-6


def _invariant_tail(n, k):
    """B = 2k theta / n, the coefficient of e^{-n xi} in the invariant E
    of :func:`ode_invariant`."""
    return 2.0 * k * theta_constant(n, k) / n


def _breakdown_time(t, xi, xi_t, n, k):
    """A time by which the orbit through (xi, xi_t) at time t reaches the
    degenerate set 1 - xi_t^2 = 0: inf where it is sure to reach it but
    xi_t <= 0, and nan where the first integral does not make it sure.
    Accepts arrays.

    Write w = 1 - xi_t^2 and B = 2k theta / n.  The invariant of
    :func:`ode_invariant` gives w^k = B e^{-2k xi} + E e^{(n-2k) xi}, and
    with it the ODE reads

        xi_tt = [2k B e^{-2k xi} - (n-2k) E e^{(n-2k) xi}] / (2k w^{k-1}).

    Let E < 0.  For n >= 2k both terms of the bracket are non-negative and
    the first is positive.  For n < 2k, w^k >= 0 gives E e^{(n-2k) xi} >=
    -B e^{-2k xi}, so the bracket is at least n B e^{-2k xi} > 0.  Either
    way xi_tt > 0 while w > 0, so xi_t rises and the orbit cannot stay in
    the elliptic branch for all time.  Once xi_t > 0, xi_t only grows, and
    xi >= xi(t) + xi_t(t) (s - t) at later times s.  But w^k >= 0 bounds
    xi by xi_b = ln(-B/E)/n, where w = 0, so the orbit reaches the
    degenerate set by t + (xi_b - xi) / xi_t.

    Sure means E < -1e-6 B e^{-n xi} (``_SURE``), with E and xi_b finite:
    a state too far out for floats is left to the integrator.
    """
    b = _invariant_tail(n, k)
    with np.errstate(all="ignore"):  # extreme states overflow; then nan
        tail = b * np.exp(-n * xi)
        E = np.asarray(ode_invariant(xi, xi_t, n, k))
        xi_b = np.log(-b / E) / n
        time = np.where(xi_t > 0.0, t + (xi_b - xi) / xi_t, math.inf)
    return np.where((E < -_SURE * tail) & np.isfinite(E + xi_b), time,
                    math.nan)


def _survival_seed(n, k, c1):
    """The inner value s* from which every seed (xi, xi_t) = (s, c1 e^{-s})
    with s >= s* is sure to survive: its orbit never reaches the
    degenerate set 1 - xi_t^2 = 0, so it reaches any T.

    With w and B as in :func:`_breakdown_time`, the seed has
    E e^{ns} = (e^{2s} - c1^2)^k - B, which increases with s.  E > 0 makes
    w^k = B e^{-2k xi} + E e^{(n-2k) xi} positive at every xi, and
    |xi_t| < 1 keeps xi finite in finite time.  s* is where the seed's E
    clears the margin of :func:`_breakdown_time` with the sign flipped,
    E = 1e-6 B e^{-ns}.
    """
    b = _invariant_tail(n, k)
    return 0.5 * math.log(c1 * c1 + (b * (1.0 + _SURE)) ** (1.0 / k))


def _certified_breakdown(sure, t, xi, xi_t, T, n, k):
    """Whether the first integral proves that an orbit breaks down before
    T, the one rule behind every breakdown label but the guard's: its
    seed is ``sure`` to reach the degenerate set (the seed's
    :func:`_breakdown_time` is not nan), and from its state (xi, xi_t) at
    time t it does so by T - 1e-3 max(1, T).  The seed's E keeps the rule
    off orbits that the integrator's error carries across E = 0, and the
    margin off orbits that it might carry just past T.  Accepts
    arrays."""
    return sure & (_breakdown_time(t, xi, xi_t, n, k)
                   <= T - 1e-3 * max(1.0, T))


def _failed_step(seed, t, xi, xi_t, T, n, k):
    """The termination of one orbit from ``seed`` (xi0, xi_t0) whose step
    failed at its last accepted state (xi, xi_t) at time t:
    ``ellipticity_breakdown`` where :func:`_certified_breakdown` proves it,
    ``step_failure`` otherwise.  The lanes label theirs by the same
    rule."""
    sure = ~np.isnan(_breakdown_time(0.0, *seed, n, k))
    if _certified_breakdown(sure, t, xi, xi_t, T, n, k):
        return "ellipticity_breakdown"
    return "step_failure"


def _stage_sum(weights, K):
    """A new array sum_j c_j * K[j] over the nonzero weights c_j of a
    tableau row, whose first weight is nonzero.

    Elementwise and added in tableau order, as integrate_endpoint adds;
    a matrix product would round differently for different batch widths.
    """
    total = K[0] * weights[0]
    for j in range(1, len(weights)):
        if weights[j]:
            total += K[j] * weights[j]
    return total


def _rms(a):
    """The RMS norm of scipy 1.17.1's RK45 over the two state components,
    per lane."""
    return np.sqrt(a[0] * a[0] + a[1] * a[1]) / 2 ** 0.5


def _start(x, v, accel, rtol, atol):
    """(a, h): xi_tt and the starting step of the seed (x, v).

    scipy 1.17.1's RK45 ``select_initial_step`` (Hairer-Norsett-Wanner
    II.4) for an unbounded span, with ``accel`` from
    :func:`_clamped_accel` and the RMS norm of the lanes.  It does not
    depend on the end time, so a lane's steps depend on its seed alone
    until a trial reaches T, which clips it.  scipy bounds its two trial
    step sizes by the span, so a lane takes the steps of :func:`integrate`
    when T is at least both.  Each comparison treats nan as scipy's
    Python ``min`` and ``max`` do.
    """
    def div(p, q):  # numpy's inf or nan where q is 0
        if q:
            return p / q
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(p) / q)

    def rms(p, q):
        return math.sqrt(p * p + q * q) / 2 ** 0.5

    a = accel(x, v)
    sx, sv = atol + abs(x) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(div(x, sx), div(v, sv)), rms(div(v, sx), div(a, sv))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x1, v1 = x + h0 * v, v + h0 * a
    d2 = div(rms(div(v1 - v, sx), div(accel(x1, v1) - a, sv)), h0)
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = h0 * 1e-3 if h0 * 1e-3 > 1e-6 else 1e-6
    else:
        h1 = div(0.01, d2 if d2 > d1 else d1) ** (1 / 5)
    return a, h1 if h1 < 100 * h0 else 100 * h0


def _lane_start(y0, n, k, rtol, atol):
    """(f, h): the derivatives and starting steps of seeds y0 of shape
    (2, m), each seed's from :func:`_start`."""
    accel = _clamped_accel(n, k)
    starts = [_start(x, v, accel, rtol, atol) for x, v in zip(*y0.tolist())]
    a, h = np.array(starts, dtype=float).reshape(-1, 2).T
    return np.array([y0[1], a]), h


def _lane_loop(y0, t, y, f, h, T, n, k, rtol, atol, accepted=None):
    """The controller of :func:`integrate_lanes`, from given lane states.

    Lane i stands at time t[i] in state y[:, i], with derivative f[:, i]
    and proposed step h[i], as after an accepted step, and steps towards
    T; y0[:, i] is its seed, which certifies breakdowns.  A trial that T
    clips (t + h > T, with h after the ten-ulp floor) is the first whose
    size depends on T, and so is every later step.  After every round,
    ``accepted(i, t, y, f, h)`` receives the new states of the lanes i
    that accepted a step, go on and have had no clipped trial: states
    that a lane to any later end time passes through too.

    Each stage state is y plus h times the :func:`_stage_sum` of the stage
    derivatives before it, each :func:`_lane_rhs` of its state, and the
    error estimate is the ``_DP_E`` sum over all seven; those derivatives,
    K, are the loop's only scratch, and shrink with the live lanes.  Every
    operation is elementwise and in a fixed order, so a lane takes the same
    steps whatever other lanes share its batch.

    A lane also ends as a breakdown, as a guard hit does, after an
    accepted step from which :func:`_certified_breakdown` proves that the
    orbit reaches the degenerate set before T: its exact orbit does, and
    wherever this was tested the lane, integrated on, broke down as well,
    with the same nan, after the steps that cost the most, near the pole.
    A lane whose step fails is a breakdown by the same rule, read at its
    last accepted state, and a step failure otherwise.  The rule reads
    only the lane's own seed and state, so the lanes that go on keep
    their steps.

    Returns (end, cause): the (2, m) state at T, nan unless the lane
    reached it, and per lane an index into ``TERMINATIONS``.
    """
    th = theta_constant(n, k)
    beta = (n - 2.0 * k) / (2.0 * k)
    m = t.size
    end = np.full((2, m), np.nan)
    cause = np.empty(m, dtype=int)
    lane = np.arange(m)
    rejected = clipped = np.zeros(m, dtype=bool)
    K = np.empty((7, 2, m))
    # The seed's part of the certificate, read once.
    doomed = ~np.isnan(_breakdown_time(0.0, y0[0], y0[1], n, k))

    with np.errstate(all="ignore"):
        while lane.size:
            min_step = 10.0 * np.spacing(t)
            h = np.where(~rejected & (h < min_step), min_step, h)
            failed = ~(h >= min_step)
            clipped = clipped | (t + h > T)
            t_new = np.minimum(t + h, T)
            h = t_new - t

            K[0] = f
            for s, row in enumerate(_DP_A, start=1):
                _lane_rhs(y + _stage_sum(row, K) * h, k, th, beta, out=K[s])
            y_new = y + _stage_sum(_DP_B, K) * h
            w = _lane_rhs(y_new, k, th, beta, out=K[6])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(_stage_sum(_DP_E, K) * h / scale)

            accept = (err < 1.0) & ~failed
            power = _SAFETY * err ** _ERROR_EXPONENT
            grow = np.where(err == 0.0, _MAX_FACTOR,
                            np.minimum(_MAX_FACTOR, power))
            grow = np.where(rejected, np.minimum(1.0, grow), grow)
            # fmax ignores a nan norm, as Python's max(0.2, nan) does.
            h = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, power))
            rejected = ~accept

            y = np.where(accept, y_new, y)
            f = np.where(accept, K[6], f)
            t = np.where(accept, t_new, t)
            # The bound is inf where xi_t <= 0: only lanes with xi_t > 0
            # are tested.
            proven = doomed[lane] & (y[1] > 0.0)
            if proven.any():
                proven = _certified_breakdown(proven, t, y[0], y[1], T, n, k)
            fired = accept & ((w <= ETA_GUARD) | proven)

            reached = accept & (t >= T) & ~fired
            end[:, lane[reached]] = y[:, reached]
            cause[lane[reached]] = 0
            cause[lane[fired]] = 1
            cause[lane[failed]] = np.where(proven[failed], 1, 2)

            live = ~(reached | fired | failed)
            if accepted is not None:
                on = accept & live & ~clipped
                accepted(lane[on], t[on], y[:, on], f[:, on], h[on])
            if not live.all():
                lane, y, f, h, t, rejected, clipped = (
                    lane[live], y[:, live], f[:, live], h[live], t[live],
                    rejected[live], clipped[live])
                K = np.empty((7, 2, lane.size))
    return end, cause


def _check_args(xi0, xi_t0, T, rtol, atol):
    """Refuse a seed with a nan or infinite xi0 or an inadmissible slope,
    an end time not positive and finite (``T=None`` skips it), and a nan,
    infinite or negative tolerance, which would shrink a nan step forever
    or fake an empty answer.  Returns rtol raised to 100 eps with a
    warning, as scipy's RK45 raises it: at rtol = atol = 0 every trial
    step would be rejected."""
    with np.errstate(over="ignore"):  # a huge slope squares to inf
        ok = np.all(np.isfinite(xi0) & (1.0 - xi_t0 * xi_t0 > ETA_GUARD))
    if not ok:
        raise ValueError("initial state must be finite and admissible")
    if T is not None:
        _common.check_positive(T=T)
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf):
        raise ValueError(f"rtol and atol must be finite and non-negative, "
                         f"got {rtol!r} and {atol!r}")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol {rtol!r} is below 100 eps; raising it to "
                      "100 eps", stacklevel=3)
    return max(rtol, float(100 * _EPS))


def integrate_lanes(xi0, xi_t0, T, n: int, k: int, *,
                    rtol: float = 1e-10, atol: float = 1e-12):
    """Integrate many seeds of the radial ODE from t = 0 to t = T at once.

    Each lane is one admissible seed (xi0, xi_t0) with its own step size,
    and runs the controller of :func:`integrate` (scipy 1.17.1's RK45, as
    :func:`solve_ivp` ports it): the same tableau and RMS error norm;
    safety factor 0.9, step factors clamped to [0.2, 10] and no growth
    straight after a rejected trial; a nan error norm shrinks the step by
    0.2; a step below ten ulps of t fails.  Each seed starts from
    :func:`_start`, scipy's step for an unbounded span, as
    :func:`integrate_endpoint` and :class:`LaneFan` start, so its steps
    are those of ``integrate`` when T is at least scipy's two trial step
    sizes.  After every accepted step the ellipticity guard of
    :func:`integrate` is tested by the sign of its values at the ends of
    the step, which is how :func:`solve_ivp` detects events, so each lane
    stops where ``integrate`` would.  The guard is positive at the start
    of a step, so the test reads only its end.  Events are not located: a
    lane that stops early reports nan for its state.  Finished lanes
    leave the working arrays, so the cost per step follows the live
    lanes.

    A lane ends as a breakdown, with nan, as soon as the first integral
    proves that it breaks down before T, and a lane whose step fails is
    a breakdown only where the same rule proves it (see
    :func:`_lane_loop` and :func:`_certified_breakdown`).

    A lane's result does not depend on its batch: every operation is
    elementwise, and the stage sums are formed in tableau order, as
    :func:`integrate_endpoint` forms them.

    Returns (xi, xi_t, termination): the state at T and the cause, one of
    ``TERMINATIONS``, each shaped like the seeds.
    """
    shape = np.shape(xi0)
    y0 = np.array([np.ravel(xi0), np.ravel(xi_t0)], dtype=float)
    rtol = _check_args(*y0, T, rtol, atol)
    f, h = _lane_start(y0, n, k, rtol, atol)
    end, cause = _lane_loop(y0, np.zeros(y0.shape[1]), y0, f, h, T, n, k,
                            rtol, atol)
    termination = np.asarray(TERMINATIONS)[cause].reshape(shape)
    return end[0].reshape(shape), end[1].reshape(shape), termination


class LaneFan:
    """Lanes of :func:`integrate_lanes` for fixed seeds, read at any T.

    The radial ODE is autonomous, and a lane starts from :func:`_start`,
    the step of an unbounded span, so a lane integrated to T takes the
    same steps whatever T is until its first trial that T clips (see
    :func:`_lane_loop`); later trials from the same state only shrink.
    The fan logs the controller states after those steps (t, state,
    derivative and proposed step) as checkpoints in ``_log``, five flat
    arrays (lane, t, y, f, h) in arrival order, with lane i's newest at
    ``_last[i]``: its entries, from the seed itself, are its chain, and
    the lane to T passes through each up to the first whose first trial
    T clips.

    :meth:`end_states` is one :func:`_lane_loop` run at T over every
    lane, each from that checkpoint, or from its newest if T clips none,
    and gives bit for bit the states of :func:`integrate_lanes`, since a
    lane's steps do not depend on its batch.  Only a run from a lane's
    newest checkpoint accepts steps before a clipped trial, and those are
    appended, so each chain stays in time order.  A lane that ended, by
    the guard, a failed step or the first integral, is replayed from its
    newest checkpoint at the next read and ends again on the same bits if
    that read's T clips none of its trials.
    """

    def __init__(self, xi0, xi_t0, n: int, k: int, *, rtol: float = 1e-10,
                 atol: float = 1e-12):
        self.seeds = np.array([np.ravel(xi0), np.ravel(xi_t0)], dtype=float)
        rtol = _check_args(*self.seeds, None, rtol, atol)
        self.n, self.k, self.rtol, self.atol = n, k, rtol, atol
        m = self.seeds.shape[1]
        f0, h0 = _lane_start(self.seeds, n, k, rtol, atol)
        self._log = (np.arange(m), np.zeros(m), self.seeds, f0, h0)
        self._last = np.arange(m)

    def end_states(self, T: float) -> np.ndarray:
        """The (2, m) states (xi, xi_t) of the seeds at T, nan where a lane
        stops first."""
        _check_args(*self.seeds, T, self.rtol, self.atol)
        lane, t, y, f, h = self._log
        # Each lane replays from its earliest checkpoint whose first trial,
        # after the loop's ten-ulp floor, T clips, or else from its newest.
        clips = np.flatnonzero(t + np.maximum(h, 10.0 * np.spacing(t)) > T)
        at = self._last.copy()
        np.minimum.at(at, lane[clips], clips)
        log = [self._log]
        end, _ = _lane_loop(self.seeds, t[at], y[:, at], f[:, at], h[at], T,
                            self.n, self.k, self.rtol, self.atol,
                            accepted=lambda *part: log.append(part))
        self._log = tuple(np.concatenate(a, axis=-1) for a in zip(*log))
        new = np.arange(t.size, self._log[1].size)
        np.maximum.at(self._last, self._log[0][new], new)
        return end


def integrate_endpoint(xi0: float, xi_t0: float, T: float, n: int, k: int,
                       *, rtol: float = 1e-10, atol: float = 1e-12):
    """One lane of :func:`integrate_lanes`, stepped in Python floats.

    For a single seed, numpy's per-operation cost outweighs the step
    itself, so root refinement, which asks for one seed at a time, takes
    its steps here.  The contract is that of a lane: the same tableau,
    scipy's controller and its unbounded-span starting step (hence the
    steps of :func:`integrate` when T is at least scipy's two trial step
    sizes), nan-norm shrink, ten-ulp step failure and ellipticity test
    on accepted steps, and nan for the state when the seed stops early.
    It starts exactly as a lane does, from :func:`_start`; its steps
    agree with a lane's to rounding, since ``math.exp`` and Python's
    ``**`` round unlike numpy's.

    Returns (xi, xi_t, termination): floats and one of ``TERMINATIONS``.
    """
    x0 = x = float(xi0)
    v0 = v = float(xi_t0)
    rtol = _check_args(x, v, T, rtol, atol)
    accel = _clamped_accel(n, k)
    a, h = _start(x, v, accel, rtol, atol)
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _DP_A
    b1, _, b3, b4, b5, b6 = _DP_B
    e1, _, e3, e4, e5, e6, e7 = _DP_E
    t = 0.0
    rejected = False
    while True:
        min_step = 10.0 * math.ulp(t)
        if not rejected and h < min_step:
            h = min_step
        if not h >= min_step:
            return math.nan, math.nan, _failed_step((x0, v0), t, x, v, T,
                                                    n, k)
        t_new = min(t + h, T)
        h = t_new - t

        # Stage states, each the state plus h times a weighted sum of the
        # stage derivatives (v_s, a_s) before it.
        v2 = v + a21 * a * h
        a2 = accel(x + a21 * v * h, v2)
        v3 = v + (a31 * a + a32 * a2) * h
        a3 = accel(x + (a31 * v + a32 * v2) * h, v3)
        v4 = v + (a41 * a + a42 * a2 + a43 * a3) * h
        a4 = accel(x + (a41 * v + a42 * v2 + a43 * v3) * h, v4)
        v5 = v + (a51 * a + a52 * a2 + a53 * a3 + a54 * a4) * h
        a5 = accel(x + (a51 * v + a52 * v2 + a53 * v3 + a54 * v4) * h, v5)
        v6 = v + (a61 * a + a62 * a2 + a63 * a3 + a64 * a4 + a65 * a5) * h
        a6 = accel(x + (a61 * v + a62 * v2 + a63 * v3 + a64 * v4
                        + a65 * v5) * h, v6)
        x_new = x + h * (b1 * v + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6)
        v_new = v + h * (b1 * a + b3 * a3 + b4 * a4 + b5 * a5 + b6 * a6)
        a_new = accel(x_new, v_new)
        # A nan end state makes a_new or v_new nan, so the norm is nan
        # even though Python's max drops a nan that np.maximum keeps.
        ex = ((e1 * v + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v_new)
              * h / (atol + max(abs(x), abs(x_new)) * rtol))
        ev = ((e1 * a + e3 * a3 + e4 * a4 + e5 * a5 + e6 * a6 + e7 * a_new)
              * h / (atol + max(abs(v), abs(v_new)) * rtol))
        err = math.sqrt(ex * ex + ev * ev) / 2 ** 0.5

        if not err < 1.0:
            h *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
            continue
        grow = (_MAX_FACTOR if err == 0.0
                else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT))
        h *= min(1.0, grow) if rejected else grow
        rejected = False
        t, x, v, a = t_new, x_new, v_new, a_new
        # An accepted v is finite, so the clamps of _lane_rhs cannot
        # change the sign of the guard.
        if 1.0 - v * v <= ETA_GUARD:
            return math.nan, math.nan, "ellipticity_breakdown"
        if t >= T:
            return x, v, "reached_T"


def inner_bc_residual(state: RadialState, c1: float) -> float:
    """Robin residual at r = 1 in xi-form: xi_t(0) - c1 * exp(-xi(0))."""
    return state.xi_t - c1 * math.exp(-state.xi)


def outer_bc_residual(state: RadialState, c2: float, R: float) -> float:
    """Robin residual at r = R in xi-form: xi_t(T) + c2 * exp(-xi(T)) / R."""
    return state.xi_t + c2 * math.exp(-state.xi) / R


CSV_COLUMNS = ["t", "xi", "xi_t", "xi_tt", "r", "u", "du", "d2u",
               "lam_rad", "lam_tan", "sigma_k_residual"]


@dataclass(frozen=True)
class RadialProfile:
    """Reconstructed annulus profile sampled along a trajectory."""

    n: int
    k: int
    t: np.ndarray
    xi: np.ndarray
    xi_t: np.ndarray
    xi_tt: np.ndarray
    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    d2u: np.ndarray
    lam_rad: np.ndarray
    lam_tan: np.ndarray
    sigma_k_residual: np.ndarray

    def rows(self):
        cols = [getattr(self, name) for name in CSV_COLUMNS]
        for i in range(self.t.size):
            yield [float(c[i]) for c in cols]

    def write_csv(self, path):
        _common.write_csv(path, CSV_COLUMNS, self.rows())


def reconstruct(traj: Trajectory, num: int = 200) -> RadialProfile:
    """Sample u, u', u'' and the Schouten eigenvalues along a trajectory.

    The chain rule through u = exp(-(n-2)(xi+t)/2), r = e^t gives

        u'  = -(n-2)/2 * (xi_t + 1) * u / r
        u'' = (n-2)/2 * u / r^2 * [ -xi_tt + (n-2)/2 (xi_t+1)^2 + (xi_t+1) ]

    The sigma_k residual column reports sigma_k(spectrum) - 1, which
    vanishes identically along exact trajectories.
    """
    n, k = traj.n, traj.k
    m = 0.5 * (n - 2.0)
    ts, xi, xi_t = np.ascontiguousarray(traj.sample(num).T)
    xi_tt = ode_rhs(xi, xi_t, n, k)
    r = np.exp(ts)
    u = u_from_xi(xi, ts, n)
    du = -m * (xi_t + 1.0) * u / r
    d2u = m * u / r ** 2 * (-xi_tt + m * (xi_t + 1.0) ** 2 + (xi_t + 1.0))
    lam_rad, lam_tan = schouten.radial_eigenvalues(xi, xi_t, xi_tt, n)
    spectra = np.repeat(lam_tan[:, None], n, axis=1)
    spectra[:, 0] = lam_rad
    res = symfn.sigma_k(spectra, k) - 1.0
    return RadialProfile(n=n, k=k, t=ts, xi=xi, xi_t=xi_t, xi_tt=xi_tt,
                         r=r, u=u, du=du, d2u=d2u,
                         lam_rad=lam_rad, lam_tan=lam_tan,
                         sigma_k_residual=res)
