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
and a scalar one in Python floats), Robin boundary residuals in xi-form,
and reconstruction of the annulus profile u(r) together with its
Schouten eigenvalues.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import schouten, symfn

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
    "integrate_lanes",
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

    Pure evaluation: callers own the ellipticity guard.  Vectorizes over
    (xi, xi_t) arrays.
    """
    th = theta_constant(n, k) if theta is None else theta
    w = 1.0 - np.asarray(xi_t, dtype=float) ** 2
    out = th * np.exp(-2.0 * k * np.asarray(xi, dtype=float)) * w ** (1 - k) \
        - (n - 2.0 * k) / (2.0 * k) * w
    return float(out) if np.ndim(out) == 0 else out


def ode_invariant(xi, xi_t, n: int, k: int):
    """Conserved quantity of the radial ODE.

    (1-xi_t^2)^k satisfies a linear first-order equation in xi along
    trajectories, which integrates to the constant

        E = (1-xi_t^2)^k exp(-(n-2k) xi) - (2k theta / n) exp(-n xi).

    Orbits with E > 0 never reach |xi_t| = 1; orbits with E < 0 do.  Used
    as an integrator-accuracy oracle.
    """
    th = theta_constant(n, k)
    xi = np.asarray(xi, dtype=float)
    w = 1.0 - np.asarray(xi_t, dtype=float) ** 2
    out = w ** k * np.exp(-(n - 2.0 * k) * xi) \
        - (2.0 * k * th / n) * np.exp(-n * xi)
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
    admissible.  The built-in terminal event is ellipticity breakdown
    (1 - xi_t^2 falls to the guard).  ``extra_events`` are passed through
    to the integrator (scipy event protocol) and, when terminal, produce
    termination cause ``event:<index>``.

    For k >= 2 the right-hand side has a pole on the degenerate set, so
    adaptive steps can underflow slightly before the guard event becomes
    locatable.  When that happens the conserved quantity decides the cause:
    a negative invariant certifies that the orbit reaches |xi_t| = 1 in
    finite time, and such step failures are reported as
    ``ellipticity_breakdown`` (truncated at the last resolvable state).
    """
    if isinstance(initial, RadialState):
        y0 = (initial.xi, initial.xi_t)
    else:
        y0 = (float(initial[0]), float(initial[1]))
    if not 1.0 - y0[1] ** 2 > ETA_GUARD:
        raise ValueError("initial state is not admissible")
    if not T_max > 0.0:
        raise ValueError("T_max must be positive")
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

    # Rejected trial steps may still reach inf or nan inside scipy's
    # stage sums; the controller rejects them, as it does for the lanes.
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, float(T_max)), y0, method="RK45",
                        rtol=rtol, atol=atol, dense_output=True,
                        events=events)

    if sol.status == -1:
        if _certified_breakdown(y0[0], y0[1], float(sol.y[1, -1]), n, k):
            termination = "ellipticity_breakdown"
        else:
            termination = "step_failure"
        t_end = float(sol.t[-1])
    elif sol.status == 1:
        hit = [i for i, te in enumerate(sol.t_events) if te.size > 0]
        first = min(hit, key=lambda i: sol.t_events[i][0])
        if first == 0:
            termination = "ellipticity_breakdown"
        else:
            termination = f"event:{first - 1}"
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
    set) it is taken as inf, the value numpy gives the lanes.  The
    scalar twin of the second row of :func:`_lane_rhs`.
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

    return accel


def _certified_breakdown(xi0, xi_t0, xi_t_last, n, k):
    """Whether a step failure is the orbit reaching |xi_t| = 1.

    A negative invariant certifies that the orbit from (xi0, xi_t0)
    reaches the degenerate set in finite time; together with a last
    resolved state close to it, the failure is ellipticity breakdown.
    Accepts arrays.
    """
    return ((ode_invariant(xi0, xi_t0, n, k) < 0.0)
            & (1.0 - xi_t_last ** 2 < 1e-4))


# Dormand-Prince 5(4) (Dormand & Prince 1980, J. Comput. Appl. Math.
# 6:19-26; Hairer-Norsett-Wanner, Solving ODEs I, Sec. II.4): stage
# coefficients, 5th-order weights, and error weights E = b5 - b4 over the
# six stages plus the first-same-as-last seventh.  With the controller
# constants below this is the method scipy's RK45 steps with, so the
# lanes of integrate_lanes and integrate_endpoint take the steps
# integrate takes.
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


def _lane_rhs(y, k, th, beta, out=None):
    """The clamped right-hand side of :func:`integrate` on (2, m) states.

    Returns (f, w): the derivative, written into ``out`` when given, and
    the clamped 1 - xi_t^2.
    """
    v = np.where(np.abs(y[1]) < 1e150, y[1], 1e150)
    w = np.maximum(1.0 - v * v, 1e-30)
    growth = np.exp(np.minimum(-2.0 * k * y[0], 700.0))
    f = np.empty_like(y) if out is None else out
    f[0] = y[1]
    f[1] = th * growth * w ** (1 - k) - beta * w
    return f, w


def _weighted_sum(weights, K, out, term):
    """sum_j c_j * K[j] over the nonzero weights c_j, into ``out``;
    ``term`` is scratch shaped like ``out``.  Every tableau row starts
    with a nonzero weight.

    Elementwise and added in tableau order, as integrate_endpoint adds;
    a matrix product would round differently for different batch widths.
    """
    np.multiply(K[0], weights[0], out=out)
    for j in range(1, len(weights)):
        if weights[j]:
            out += np.multiply(K[j], weights[j], out=term)
    return out


def _rms(a):
    """scipy's RMS norm over the two state components, per lane."""
    return np.sqrt(a[0] * a[0] + a[1] * a[1]) / 2 ** 0.5


def _initial_step(y, f, T, k, th, beta, rtol, atol):
    """scipy's starting step (Hairer-Norsett-Wanner II.4), per lane.

    ``np.where(b < a, b, a)`` is Python's ``min(a, b)`` and keeps its
    handling of nan, which ``np.minimum`` does not.
    """
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
    h0 = np.where(T < h0, T, h0)
    f1, _ = _lane_rhs(y + h0 * f, k, th, beta)
    d2 = _rms((f1 - f) / scale) / h0
    d12 = np.where(d2 > d1, d2, d1)
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.where(h0 * 1e-3 > 1e-6, h0 * 1e-3, 1e-6),
                  (0.01 / d12) ** (1 / 5))
    h = np.where(h1 < 100 * h0, h1, 100 * h0)
    return np.where(T < h, T, h)


def _lane_start(y0, T, n, k, rtol, atol):
    """(f, h): the derivative and starting step of seeds y0 of shape (2, m).

    The starting step is bounded by T; with T = inf it is the step every
    end time at or beyond both of scipy's trial sizes starts with.
    """
    th = theta_constant(n, k)
    beta = (n - 2.0 * k) / (2.0 * k)
    with np.errstate(all="ignore"):
        f, _ = _lane_rhs(y0, k, th, beta)
        return f, _initial_step(y0, f, T, k, th, beta, rtol, atol)


def _lane_loop(y0, t, y, f, h, T, n, k, rtol, atol, *, stop=math.inf,
               accepted=None):
    """The controller of :func:`integrate_lanes`, from given lane states.

    Lane i stands at time t[i] in state y[:, i], with derivative f[:, i]
    and proposed step h[i], as after an accepted step, and steps towards
    T; y0[:, i] is its seed, which certifies breakdowns.  A lane parks,
    leaving without a state, when the first trial from an accepted state
    would reach ``stop``: t + h >= stop, with h after the ten-ulp floor.
    After every round, ``accepted(i, t, y, f, h)`` receives the lanes i
    that accepted a step and go on, with their new states.

    Every operation is elementwise and in a fixed order, so a lane takes
    the same steps whatever other lanes share its batch.

    Returns (end, cause): the (2, m) state at T, nan unless the lane
    reached it, and per lane an index into ``TERMINATIONS``, or -1 for a
    parked lane.
    """
    th = theta_constant(n, k)
    beta = (n - 2.0 * k) / (2.0 * k)
    m = t.size
    end = np.full((2, m), np.nan)
    cause = np.full(m, -1)
    lane = np.arange(m)
    rejected = np.zeros(m, dtype=bool)
    K, acc, term = np.empty((7, 2, m)), np.empty((2, m)), np.empty((2, m))

    with np.errstate(all="ignore"):
        while lane.size:
            min_step = 10.0 * np.spacing(t)
            h = np.where(~rejected & (h < min_step), min_step, h)
            failed = leave = ~(h >= min_step)
            if stop < math.inf:
                leave = failed | (~rejected & (t + h >= stop))
            t_new = np.minimum(t + h, T)
            h = t_new - t

            K[0] = f
            for s, row in enumerate(_DP_A, start=1):
                _weighted_sum(row, K, acc, term)
                acc *= h
                acc += y
                _lane_rhs(acc, k, th, beta, out=K[s])
            _weighted_sum(_DP_B, K, acc, term)
            acc *= h
            y_new = y + acc
            _, w = _lane_rhs(y_new, k, th, beta, out=K[6])
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            _weighted_sum(_DP_E, K, acc, term)
            acc *= h
            acc /= scale
            err = _rms(acc)

            accept = (err < 1.0) & ~leave
            power = _SAFETY * err ** _ERROR_EXPONENT
            grow = np.where(err == 0.0, _MAX_FACTOR,
                            np.minimum(_MAX_FACTOR, power))
            grow = np.where(rejected, np.minimum(1.0, grow), grow)
            # fmax ignores a nan norm, as Python's max(0.2, nan) does.
            h = h * np.where(accept, grow, np.fmax(_MIN_FACTOR, power))
            rejected = ~accept

            fired = accept & (w <= ETA_GUARD)
            y = np.where(accept, y_new, y)
            f = np.where(accept, K[6], f)
            t = np.where(accept, t_new, t)

            reached = accept & (t >= T) & ~fired
            end[:, lane[reached]] = y[:, reached]
            cause[lane[reached]] = 0
            cause[lane[fired]] = 1
            if failed.any():
                gone = lane[failed]
                broke = _certified_breakdown(y0[0, gone], y0[1, gone],
                                             y[1, failed], n, k)
                cause[gone] = np.where(broke, 1, 2)

            live = ~(reached | fired | leave)
            if accepted is not None:
                on = accept & live
                accepted(lane[on], t[on], y[:, on], f[:, on], h[on])
            if not live.all():
                lane, y, f, h, t, rejected = (
                    lane[live], y[:, live], f[:, live], h[live], t[live],
                    rejected[live])
                m = lane.size
                K, acc, term = (np.empty((7, 2, m)), np.empty((2, m)),
                                np.empty((2, m)))
    return end, cause


def _check_endpoint_args(y0, T):
    if not np.all(1.0 - y0[1] ** 2 > ETA_GUARD):
        raise ValueError("initial state is not admissible")
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")


def integrate_lanes(xi0, xi_t0, T, n: int, k: int, *,
                    rtol: float = 1e-10, atol: float = 1e-12):
    """Integrate many seeds of the radial ODE from t = 0 to t = T at once.

    Each lane is one admissible seed (xi0, xi_t0) with its own step size,
    and runs the controller of :func:`integrate` (scipy's RK45): the same
    tableau, starting step and RMS error norm; safety factor 0.9, step
    factors clamped to [0.2, 10] and no growth straight after a rejected
    trial; a nan error norm shrinks the step by 0.2; a step below ten
    ulps of t fails.  After every accepted step the ellipticity guard of
    :func:`integrate` is tested by the sign of its values at the ends of
    the step, which is how scipy detects events, so each lane stops where
    ``integrate`` would.  The guard is positive at the start of a step,
    so the test reads only its end.  Events are not located: a lane that
    stops early reports nan for its state.  Finished lanes leave the
    working arrays, so the cost per step follows the live lanes.

    A lane's result does not depend on its batch: every operation is
    elementwise, and the stage sums are formed in tableau order, as
    :func:`integrate_endpoint` forms them.

    Returns (xi, xi_t, termination): the state at T and the cause, one of
    ``TERMINATIONS``, each shaped like the seeds.
    """
    shape = np.shape(xi0)
    y0 = np.array([np.ravel(xi0), np.ravel(xi_t0)], dtype=float)
    _check_endpoint_args(y0, T)
    f, h = _lane_start(y0, T, n, k, rtol, atol)
    end, cause = _lane_loop(y0, np.zeros(y0.shape[1]), y0, f, h, T, n, k,
                            rtol, atol)
    termination = np.asarray(TERMINATIONS)[cause].reshape(shape)
    return end[0].reshape(shape), end[1].reshape(shape), termination


def integrate_endpoint(xi0: float, xi_t0: float, T: float, n: int, k: int,
                       *, rtol: float = 1e-10, atol: float = 1e-12):
    """One lane of :func:`integrate_lanes`, stepped in Python floats.

    For a single seed, numpy's per-operation cost outweighs the step
    itself, so root refinement, which asks for one seed at a time, takes
    its steps here.  The contract is that of a lane: the same tableau,
    controller, starting step (from ``_initial_step`` on a one-lane
    array), nan-norm shrink, ten-ulp step failure and ellipticity test on
    accepted steps, and nan for the state when the seed stops early.  The
    two agree to rounding.

    Returns (xi, xi_t, termination): floats and one of ``TERMINATIONS``.
    """
    y0 = np.array([[xi0], [xi_t0]], dtype=float)
    _check_endpoint_args(y0, T)
    accel = _clamped_accel(n, k)
    f, h = _lane_start(y0, T, n, k, rtol, atol)
    h = float(h[0])
    x, v, a = float(y0[0, 0]), float(y0[1, 0]), float(f[1, 0])
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
            if _certified_breakdown(y0[0, 0], y0[1, 0], v, n, k):
                return math.nan, math.nan, "ellipticity_breakdown"
            return math.nan, math.nan, "step_failure"
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows():
                writer.writerow([f"{v:.17g}" for v in row])


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
    ts = np.linspace(0.0, traj.t_end, num)
    xi, xi_t = traj._eval(ts)
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
