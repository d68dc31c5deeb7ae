"""The in-repo RK45 and brentq against scipy, bit for bit.

``radial.solve_ivp`` and ``radial.brentq`` port scipy 1.17.1's
``solve_ivp`` (RK45, dense output, terminal events) and
``optimize.brentq``.  The package runs without scipy; these tests run
where scipy 1.17 or later is installed (earlier releases differ in
details such as brentq's sign test) and compare every float by its
bytes.
"""
import math
import random

import numpy as np
import pytest

pytest.importorskip("scipy", minversion="1.17")
from scipy.integrate import solve_ivp as scipy_solve_ivp  # noqa: E402
from scipy.integrate._ivp.common import select_initial_step  # noqa: E402
from scipy.optimize import brentq as scipy_brentq  # noqa: E402
from test_radial import _start_draws  # noqa: E402

from syl import radial, shooting  # noqa: E402

CLASSES = [(3, 1), (4, 2), (5, 2), (6, 2), (7, 3), (8, 3), (9, 4), (10, 5),
           (12, 6), (13, 12), (16, 12), (25, 12)]


def _assert_same_solution(ref, got):
    assert got.status == ref.status
    assert got.nfev == ref.nfev
    assert got.t.tobytes() == ref.t.tobytes()
    assert got.y.tobytes() == ref.y.tobytes()
    assert len(got.t_events) == len(ref.t_events)
    for mine, theirs in zip(got.t_events, ref.t_events):
        assert mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()
    if ref.t.size < 2:
        return
    # Shuffled times, breakpoints among them, evaluate in runs per step;
    # single times take the lower step at a breakpoint.
    ts = np.concatenate([np.linspace(ref.t[0], ref.t[-1], 57), ref.t])
    ts = np.random.default_rng(ts.size).permutation(ts)
    assert got.sol(ts).tobytes() == ref.sol(ts).tobytes()
    for t in (ref.t[0], ref.t[1], ref.t[-1], 0.5 * (ref.t[0] + ref.t[-1])):
        assert got.sol(t).tobytes() == ref.sol(t).tobytes()


@pytest.fixture
def pinned(monkeypatch):
    """Route radial.integrate through both integrators; yields the
    statuses of the compared calls."""
    port, statuses = radial.solve_ivp, []

    def both(fun, t_span, y0, *, rtol, atol, events=()):
        ref = scipy_solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol,
                              atol=atol, dense_output=True,
                              events=list(events))
        got = port(fun, t_span, y0, rtol=rtol, atol=atol, events=events)
        _assert_same_solution(ref, got)
        statuses.append(got.status)
        return got

    monkeypatch.setattr(radial, "solve_ivp", both)
    return statuses


def test_solve_ivp_matches_scipy_bit_for_bit(pinned):
    rng = random.Random(20261018)
    causes = set()
    for _ in range(80):
        n, k = rng.choice(CLASSES)
        rtol = 10.0 ** rng.uniform(-10.0, -6.0)
        atol = rtol * 10.0 ** rng.uniform(-3.0, 0.0)
        near_one = rng.choice([-1, 1]) * rng.uniform(0.99, 0.999999)
        slope = rng.choice([rng.uniform(-0.999, 0.999), near_one])
        extra = ()
        if rng.random() < 0.35:
            def level(t, y, at=rng.uniform(-0.9, 0.9)):
                return y[1] - at

            def height(t, y, at=rng.uniform(-2.0, 2.0)):
                return y[0] - at

            level.terminal = height.terminal = True
            height.direction = rng.choice([-1, 0, 1])
            extra = (level, height)
        traj = radial.integrate((rng.uniform(-2.0, 2.0), slope),
                                rng.uniform(0.05, 5.0), n, k, rtol=rtol,
                                atol=atol, extra_events=extra)
        causes.add(traj.termination.split(":")[0])
    # A step failure that the first integral does not prove a breakdown:
    # E = +1.0e-6 at this seed, and the integration error carries the
    # orbit to the degenerate set at t = 6.79.
    traj = radial.integrate((2.3, 0.33 * math.exp(-2.3)), math.log(4540.0),
                            10, 2, rtol=1e-7, atol=1e-9)
    assert traj.t_end == pytest.approx(6.79, abs=5e-3)
    causes.add(traj.termination)
    assert set(pinned) == {-1, 0, 1}
    assert causes == {"reached_T", "ellipticity_breakdown", "step_failure",
                      "event"}


def test_counterexample_events_match_scipy_bit_for_bit(pinned):
    for n, k, c, delta, eps in [(6, 2, -1.0, 0.2, [1e-3, 1e-2]),
                                (8, 3, -2.0, 0.3, [1e-4, 1e-2]),
                                (10, 4, -3.0, 0.25, [1e-6, 1e-3])]:
        shooting.counterexample_sweep(n, k, c, delta, eps)
    assert pinned.count(1) == len(pinned) == 6


@pytest.mark.parametrize("rtol,atol", [(1e-7, 1e-9), (1e-10, 1e-12)])
def test_start_is_scipys_step_for_an_unbounded_span(rtol, atol):
    # The norms differ: scipy's np.linalg.norm against the lanes' sqrt.
    for n, k, xs, vs in _start_draws():
        accel = radial._clamped_accel(n, k)

        def fun(t, y):
            return np.array([y[1], accel(y[0], y[1])])

        for x, v in zip(xs.tolist(), vs.tolist()):
            y0 = np.array([x, v])
            with np.errstate(all="ignore"):  # inf stages of far seeds
                want = select_initial_step(fun, 0.0, y0, math.inf, math.inf,
                                           fun(0.0, y0), 1, 4, rtol, atol)
            _, h = radial._start(x, v, accel, rtol, atol)
            assert math.isclose(h, want, rel_tol=1e-12), (n, k, x, v)


def test_solve_ivp_refuses_events_it_does_not_port():
    def event(t, y):
        return y[0]

    for terminal in (False, 2):
        event.terminal = terminal
        with pytest.raises(ValueError):
            radial.solve_ivp(lambda t, y: y, (0.0, 1.0), (1.0, 0.0),
                             rtol=1e-6, atol=1e-9, events=(event,))


def _trace(root_finder, f, a, b, **kw):
    """(result, evaluated points): the root and its type, or the error."""
    points = []

    def recorded(x):
        points.append((type(x), x))
        return f(x)

    try:
        root = root_finder(recorded, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), points
    return (type(root), root), points


def test_brentq_matches_scipy_bit_for_bit():
    rng = random.Random(5)
    outcomes = set()
    for i in range(3000):
        c = [rng.uniform(-1.0, 1.0) for _ in range(6)]
        # Tiny values underflow the extrapolation's denominator to zero,
        # which C turns into inf.
        scale = 10.0 ** rng.uniform(-320.0, -150.0) if i % 4 == 0 else 1.0
        hole = rng.uniform(-1.0, 1.0) if i % 10 == 1 else math.inf

        def f(x, c=c, scale=scale, hole=hole):
            if abs(x - hole) < 0.05:
                return math.nan
            return scale * sum(cj * x ** j for j, cj in enumerate(c))

        a, b = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        kw = {"xtol": 10.0 ** rng.uniform(-15.0, -1.0)}
        if i % 7 == 0:
            kw["maxiter"] = rng.randint(0, 6)
        ref = _trace(scipy_brentq, f, a, b, **kw)
        assert _trace(radial.brentq, f, a, b, **kw) == ref
        outcomes.add(ref[0][0])
    assert outcomes == {float, ValueError, RuntimeError}


def test_shooting_refines_with_the_ported_brentq():
    assert shooting.brentq is radial.brentq
