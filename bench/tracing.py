"""Outside-in tracing of ``syl`` for the benchmark's traced run.

Each module's public functions are rebound, at the module attribute the
package looks them up through, to a wrapper that records a span around
the call.  Nothing under ``src/`` changes: ``shooting`` imported
``integrate`` and ``brentq`` by name, so those are wrapped at
``syl.shooting`` as well as at their home modules.

Spans are aggregated per verdict instead of stored.  A closed span adds
its duration to its parent's covered time, so a span's self time is its
duration minus the part its children cover, and the self times of a
verdict sum to its wall time.  Keeping only per-name totals holds memory
flat when a verdict makes hundreds of thousands of ``sigma_k`` calls.
"""

from __future__ import annotations

import importlib
import inspect
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "covered", "stage", "scan_rtol", "refining")

    def __init__(self, name):
        self.name = name
        self.covered = 0.0
        self.stage = None
        self.scan_rtol = None
        self.refining = False


class VerdictTrace:
    """Per-name span totals and integer counters of one verdict."""

    def __init__(self):
        self.wall = 0.0
        self.total = defaultdict(float)  # span name -> seconds
        self.self_time = defaultdict(float)  # span name -> seconds
        self.counts = Counter()  # integer counters


class Tracer:
    """Records spans around the wrapped ``syl`` functions while installed."""

    def __init__(self):
        self._stack = []
        self._current = None
        self._saved = []

    # -- per-verdict scope -------------------------------------------------

    @contextmanager
    def verdict(self):
        """Trace one verdict; yields the VerdictTrace filled in on exit.

        RuntimeWarnings raised inside are counted with the filter set to
        "always", so repeats from one source line are not folded away.
        """
        vt = VerdictTrace()
        root = _Frame("verdict")
        self._current = vt
        self._stack.append(root)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            t0 = _clock()
            try:
                yield vt
            finally:
                vt.wall = _clock() - t0
                self._stack.pop()
                self._current = None
        vt.self_time["verdict"] += vt.wall - root.covered
        vt.counts["radial.runtime_warnings"] += sum(
            issubclass(w.category, RuntimeWarning) for w in caught)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:  # outside a verdict: input generation, checks
                return fn(*args, **kwargs)
            frame = _Frame(name)
            if before is not None:
                args, kwargs = before(frame, args, kwargs)
            stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = _clock() - t0
                stack.pop()
                stack[-1].covered += d
                vt = self._current
                vt.total[name] += d
                vt.self_time[name] += d - frame.covered
                vt.counts[name + ".calls"] += 1
                if frame.stage is not None:
                    vt.total["shooting." + frame.stage] += d
                    vt.counts["shooting." + frame.stage + ".calls"] += 1
            if after is not None:
                after(self._current, args, kwargs, out)
            return out

        return wrapper

    def _enclosing_solve(self):
        """(solve_annulus frame, inside a brentq span?) for the stack top."""
        in_brentq = False
        for frame in reversed(self._stack):
            if frame.name == "shooting.brentq":
                in_brentq = True
            elif frame.name == "shooting.solve_annulus":
                return frame, in_brentq
        return None, False

    def _sites(self):
        from syl import radial, shooting

        solve_sig = inspect.signature(shooting.solve_annulus)
        integrate_rtol = inspect.signature(
            radial.integrate).parameters["rtol"].default

        def solve_before(frame, args, kwargs):
            bound = solve_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            frame.scan_rtol = bound.arguments["scan_rtol"]
            return args, kwargs

        def solve_after(vt, args, kwargs, out):
            vt.counts["shooting.solutions"] += len(out.solutions)
            vt.counts["shooting.brackets"] += len(out.diagnostics.brackets)

        def brentq_before(frame, args, kwargs):
            solve, _ = self._enclosing_solve()
            if solve is not None:
                solve.refining = True
            f, rest = args[0], args[1:]

            def counted(*a):
                self._current.counts["shooting.brentq.evals"] += 1
                return f(*a)

            return (counted,) + rest, kwargs

        def integrate_before(frame, args, kwargs):
            # A scan-tolerance integration belongs to the scan until the
            # first brentq of its solve starts, and to refinement after;
            # any other tolerance is the tight polish.
            solve, in_brentq = self._enclosing_solve()
            if solve is not None:
                rtol = kwargs.get("rtol", integrate_rtol)
                if rtol != solve.scan_rtol:
                    frame.stage = "polish"
                elif in_brentq or solve.refining:
                    frame.stage = "refine"
                else:
                    frame.stage = "scan"
            return args, kwargs

        def integrate_after(vt, args, kwargs, out):
            cause = out.termination
            if cause.startswith("event:"):
                cause = "event"
            vt.counts["radial.termination." + cause] += 1
            vt.counts["radial.integrate.steps"] += len(out.t_grid) - 1

        def solve_ivp_after(vt, args, kwargs, out):
            vt.counts["radial.solve_ivp.nfev"] += int(out.nfev)

        integrate_hooks = ("radial.integrate", integrate_before,
                           integrate_after)
        return [
            ("syl.cli", "main", ("cli.main",)),
            ("syl.shooting", "solve_annulus",
             ("shooting.solve_annulus", solve_before, solve_after)),
            ("syl.shooting", "find_r_star", ("shooting.find_r_star",)),
            ("syl.shooting", "verify_bifurcation",
             ("shooting.verify_bifurcation",)),
            ("syl.shooting", "counterexample_sweep",
             ("shooting.counterexample_sweep",)),
            ("syl.shooting", "brentq", ("shooting.brentq", brentq_before)),
            ("syl.shooting", "integrate", integrate_hooks),
            ("syl.radial", "integrate", integrate_hooks),
            ("syl.radial", "solve_ivp",
             ("radial.solve_ivp", None, solve_ivp_after)),
            ("syl.radial", "reconstruct", ("radial.reconstruct",)),
            ("syl.symfn", "sigma_k", ("symfn.sigma_k",)),
            ("syl.symfn", "verify_axioms", ("symfn.verify_axioms",)),
            ("syl.schouten", "eigenvalues", ("schouten.eigenvalues",)),
            ("syl.schouten", "schouten_matrix", ("schouten.schouten_matrix",)),
            ("syl.mobius", "verify_reduction_identities",
             ("mobius.verify_reduction_identities",)),
            ("syl.mobius", "sphere_identity_sweep",
             ("mobius.sphere_identity_sweep",)),
            ("syl.mobius", "moving_sphere_radius",
             ("mobius.moving_sphere_radius",)),
            ("syl.fd", "gradient", ("fd.gradient",)),
            ("syl.fd", "hessian", ("fd.hessian",)),
            ("syl.fd", "jacobian", ("fd.jacobian",)),
        ]

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for modname, attr, spec in self._sites():
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(spec[0], original, *spec[1:]))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def add_into(acc: VerdictTrace, vt: VerdictTrace) -> None:
    acc.wall += vt.wall
    for name, v in vt.total.items():
        acc.total[name] += v
    for name, v in vt.self_time.items():
        acc.self_time[name] += v
    acc.counts.update(vt.counts)


TERMINATIONS = ("reached_T", "ellipticity_breakdown", "cone_exit",
                "step_failure", "event")
TIMED_SPANS = (
    "radial.reconstruct", "shooting.find_r_star",
    "shooting.verify_bifurcation", "shooting.counterexample_sweep",
    "symfn.verify_axioms", "schouten.eigenvalues",
    "mobius.verify_reduction_identities", "mobius.sphere_identity_sweep",
    "mobius.moving_sphere_radius", "fd.gradient", "fd.hessian",
    "fd.jacobian", "cli.main")
CALL_COUNTS = (
    "radial.reconstruct", "shooting.solve_annulus", "shooting.brentq",
    "shooting.scan", "shooting.refine", "shooting.polish", "symfn.sigma_k",
    "schouten.eigenvalues", "schouten.schouten_matrix", "fd.gradient",
    "fd.hessian", "fd.jacobian")


def layer_metrics(acc: VerdictTrace, verdicts: int) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).

    Counts and times are per verdict, so that runs which completed
    different numbers of verdicts compare.  A ratio whose base is zero
    on this workload is reported as None.
    """
    t, s, c = acc.total, acc.self_time, acc.counts
    out = {}

    def count(name, key=None):
        out[name] = (c[key or name] / verdicts, "count/verdict")

    def seconds(name, value):
        out[name] = (value / verdicts, "s/verdict")

    def ratio(name, num, den):
        out[name] = (num / den if den else None, "1")

    count("radial.integrate.calls")
    seconds("radial.integrate.s", t["radial.integrate"])
    count("radial.integrate.steps")
    seconds("radial.solve_ivp.s", t["radial.solve_ivp"])
    count("radial.solve_ivp.nfev")
    seconds("radial.integrate.overhead_s",
            t["radial.integrate"] - t["radial.solve_ivp"])
    for cause in TERMINATIONS:
        count("radial.termination." + cause)
    ratio("radial.integrate.useful_ratio", c["radial.termination.reached_T"],
          c["radial.integrate.calls"])
    count("radial.runtime_warnings")
    for name in CALL_COUNTS:
        count(name + ".calls")
    count("shooting.probes_per_verdict", "shooting.solve_annulus.calls")
    count("shooting.integrations_per_verdict", "radial.integrate.calls")
    for stage in ("scan", "refine", "polish"):
        seconds(f"shooting.{stage}.s", t["shooting." + stage])
    seconds("shooting.self_s", s["shooting.solve_annulus"])
    count("shooting.brentq.evals")
    ratio("shooting.root_yield", c["shooting.solutions"],
          c["shooting.brackets"])
    seconds("symfn.sigma_k.s", t["symfn.sigma_k"])
    for name in TIMED_SPANS:
        seconds(name + ".s", t[name])
    seconds("cli.self_s", s["cli.main"])
    return out


INTEGER_COUNTERS = (
    ("radial.integrate.calls", "radial.integrate.steps",
     "radial.solve_ivp.nfev", "shooting.solve_annulus.calls",
     "shooting.brentq.calls", "shooting.brentq.evals")
    + tuple("radial.termination." + c for c in TERMINATIONS))


def integer_counters(vt: VerdictTrace) -> dict:
    """The counters that must repeat exactly when a verdict is re-run."""
    return {name: int(vt.counts[name]) for name in INTEGER_COUNTERS}
