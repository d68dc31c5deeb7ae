"""Reported roots and breakdowns against a 20-digit Taylor integrator.

``mpmath.odefun`` integrates the radial ODE by Taylor series and shares
no code with the Dormand-Prince steppers of ``radial``.  The ODE is
carried with z = e^{-2k xi} as a third component, z_t = -2k xi_t z, so
that its right-hand side is rational, which keeps each series cheap.
"""

import math

import pytest

from syl import radial, shooting
from syl.radial import AnnulusProblem

mpmath = pytest.importorskip("mpmath")

DIGITS = 20


def _mp_state(xi0, xi_t0, T, n, k):
    """(xi, xi_t) at T from the seed (xi0, xi_t0), at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        theta = mpmath.mpf(2) ** (k - 1) / mpmath.binomial(n - 1, k - 1)
        beta = mpmath.mpf(n - 2 * k) / (2 * k)

        def rhs(t, y):
            x, v, z = y
            w = 1 - v * v
            return [v, theta * z / w ** (k - 1) - beta * w, -2 * k * v * z]

        x0 = mpmath.mpf(xi0)
        solution = mpmath.odefun(rhs, 0, [x0, mpmath.mpf(xi_t0),
                                          mpmath.exp(-2 * k * x0)])
        xi, xi_t, _ = solution(mpmath.mpf(T))
        return xi, xi_t


def _mp_residual(problem, s):
    """The outer Robin residual of seed s, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        x0 = mpmath.mpf(s)
        xi, xi_t = _mp_state(x0, problem.c1 * mpmath.exp(-x0), problem.T,
                             problem.n, problem.k)
        return float(xi_t + problem.c2 * mpmath.exp(-xi) / problem.R)


@pytest.mark.parametrize("args,count", [
    ((5, 2, 30.0, 0.0, 0.0), 3),
    ((7, 2, 7.231, 0.011, 0.318), 3),
    ((5, 2, 5.0, -0.3, 0.2), 1),
])
def test_reported_roots_hold_at_twenty_digits(args, count):
    # The residual changes sign across xi0 +- 1e-8, and its secant puts
    # the true root within XI0_TOL of the reported one (3e-12 to 2.5e-11
    # when this test was written).
    problem = AnnulusProblem(*args)
    result = shooting.solve_annulus(problem)
    assert len(result.solutions) == count
    for sol in result.solutions:
        a, b = sol.xi0 - 1e-8, sol.xi0 + 1e-8
        fa, fb = _mp_residual(problem, a), _mp_residual(problem, b)
        assert fa * fb < 0.0, (args, sol.xi0, fa, fb)
        root = a - fa * (b - a) / (fb - fa)
        assert abs(root - sol.xi0) < 1e-10, (args, sol.xi0, root)


@pytest.mark.parametrize("s", [-0.408, -1.0])
def test_breakdown_trajectories_hold_at_twenty_digits(s):
    # At c1 = 0 these seeds of (5, 2) reach |xi_t| = 1 before R = 5.  A
    # Taylor series cannot pass that singularity, so the states are
    # compared just before it, where xi_t is already near 1.
    traj = radial.integrate((s, 0.0), math.log(5.0), 5, 2)
    assert traj.termination == "ellipticity_breakdown"
    t = 0.999 * traj.t_end
    state = traj.state(t)
    xi, xi_t = _mp_state(s, 0.0, t, 5, 2)
    assert state.xi_t > 0.9
    assert abs(float(xi) - state.xi) < 1e-9
    assert abs(float(xi_t) - state.xi_t) < 1e-6
