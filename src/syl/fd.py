"""Central finite differences with per-coordinate steps.

Steps follow the package-wide convention h_i = scale * max(1, |x_i|),
with scale defaulting to 1e-5.  These are the oracles used to validate
closed-form derivatives; they are deliberately simple.
"""

from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-5


def _steps(x, scale):
    return scale * np.maximum(1.0, np.abs(x))


def gradient(fun, x, scale: float = DEFAULT_STEP) -> np.ndarray:
    """Gradient of a scalar function: its :func:`jacobian`."""
    return jacobian(fun, x, scale)


def hessian(fun, x, scale: float = DEFAULT_STEP) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.size
    h = _steps(x, scale)
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        H[i, i] = (fun(x + ei) - 2.0 * fun(x) + fun(x - ei)) / (h[i] * h[i])
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                fun(x + ei + ej) - fun(x + ei - ej)
                - fun(x - ei + ej) + fun(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return H


def jacobian(fun, x, scale: float = DEFAULT_STEP) -> np.ndarray:
    """Jacobian matrix of a vector-valued map, column i = d fun / d x_i."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, scale)
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h[i]
        cols.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e)))
                    / (2.0 * h[i]))
    return np.stack(cols, axis=-1)
