"""Rules shared by several modules: argument checks, bisection, the worst
violation of a named check, and the CSV table format.  This module
imports nothing from ``syl``, so every other module may import it."""

from __future__ import annotations

import csv
import math
import operator


def check_positive(**values):
    """Refuse a value that is not positive and finite."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value!r}")


def check_count(minimum, **counts):
    """Refuse a count that is not an integer of at least ``minimum`` (of
    any value if ``minimum`` is None); a bool is refused too, so
    ``count=True`` is not one sample."""
    for name, value in counts.items():
        if (isinstance(value, bool) or not hasattr(value, "__index__")
                or minimum is not None and operator.index(value) < minimum):
            least = "" if minimum is None else f" of at least {minimum}"
            raise ValueError(f"{name} must be an integer{least}, "
                             f"got {value!r}")


def bisect(upper, lo, hi, width):
    """Halve [lo, hi] on the predicate ``upper`` (true on hi's side) while
    hi - lo > width(lo), or until the bracket is two adjacent floats;
    return the final (lo, hi)."""
    while hi - lo > width(lo):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if upper(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def note_worst(worst, where, name, value, witness):
    """Record ``value`` in ``worst[name]`` and ``witness`` in
    ``where[name]`` when it exceeds the worst so far (0.0 if none yet).
    A nan violation counts as inf, so it fails its check."""
    if math.isnan(value):
        value = math.inf
    if value > worst.get(name, 0.0):
        worst[name], where[name] = float(value), witness


def write_csv(path, header, rows):
    """Write a CSV table with every float as %.17g, which reads back bit
    for bit, and every other value as ``str`` prints it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row])
