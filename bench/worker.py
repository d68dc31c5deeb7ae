"""One benchmark process: set up from a fresh interpreter, then run a
workload in a closed loop and print its raw results as one JSON line.

Before the first verdict and after every verdict the worker times one run
of a fixed reference kernel, a scipy ``solve_ivp`` integration that uses
nothing from ``syl``.  The host's speed can change by a factor of two
within seconds; ``run.py`` scales each verdict's time by the kernel runs
on either side of it, and set-up time by a kernel run right after set-up,
which takes that change out of the gated metrics.

Normally started by ``run.py``, which pins the environment and turns the
raw results into metrics.  Run directly to regenerate the stored
reference answers of the default seed:

    python3 bench/worker.py --workload shooting --write-reference
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE_DIR = os.path.join(HERE, "reference")
# Rounds pinned by the stored references: two runs' worth today.
REFERENCE_ROUNDS = 4
# Kernel runs before timing starts, so its first-call costs are not sampled.
KERNEL_WARMUP = 3


def _reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, workload + ".json")


def _import_syl():
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import syl
    where = os.path.dirname(os.path.abspath(syl.__file__))
    if where != os.path.join(SRC, "syl"):
        raise ImportError(f"syl imported from {where}, not from {SRC}")


def _environment() -> dict:
    import numpy
    import scipy
    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SYL_THREADS")
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **{p: os.environ.get(p) for p in pins}}


def _oscillator(t, y):
    return [y[1], -y[0]]


def kernel_s() -> float:
    """Seconds of one run of the reference kernel.

    An RK45 integration of a harmonic oscillator with fixed inputs: the
    interpreter, numpy and scipy paths that ``radial.integrate`` spends
    its time in, so host contention slows the kernel and verdicts alike.
    """
    from scipy.integrate import solve_ivp
    t0 = time.perf_counter()
    solve_ivp(_oscillator, (0.0, 40.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    return time.perf_counter() - t0


def _verdict(workloads, spec, tracer):
    """(seconds, output or None, failures, trace or None) of one verdict."""
    trace = None
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = workloads.run(spec)
            seconds = time.perf_counter() - t0
        else:
            with tracer.verdict() as trace:
                out = workloads.run(spec)
            seconds = trace.wall
    except Exception as exc:  # a raising verdict is a failed verdict
        return 0.0, None, [f"raised {exc!r}"], trace
    return seconds, out, workloads.check(spec, out), trace


def write_reference(workload: str) -> None:
    import workloads
    records = []
    for r in range(REFERENCE_ROUNDS):
        for spec in workloads.WORKLOADS[workload](workloads.DEFAULT_SEED, r):
            _, out, fails, _ = _verdict(workloads, spec, None)
            if fails:
                raise SystemExit(f"reference verdict failed: {fails}")
            records.append({"spec": spec,
                            "answer": workloads.answer(spec, out)})
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(_reference_path(workload), "w") as fh:
        json.dump({"workload": workload, "seed": workloads.DEFAULT_SEED,
                   "verdicts": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    _import_syl()
    t1 = time.perf_counter()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}")
    if args.write_reference:
        write_reference(args.workload)
        return 0
    make_round = workloads.WORKLOADS[args.workload]
    specs = make_round(args.seed, 0)
    round_size = len(specs)
    with open(_reference_path(args.workload)) as fh:
        reference = json.load(fh)["verdicts"]
    if args.seed != workloads.DEFAULT_SEED:
        reference = []
    t2 = time.perf_counter()
    result = {"ready_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC),
              "import_s": t1 - t0, "inputs_s": t2 - t1}
    # The host's speed at the end of set-up.  The first kernel run scales
    # set-up time best: later runs are further from it in time.
    result["setup_kernel_s"] = kernel_s()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        total = tracing.VerdictTrace()
        counters = []
    verdict_s, failures = [], []
    failed = 0
    for _ in range(KERNEL_WARMUP):
        kernel_s()
    start = time.perf_counter()
    kernels = [kernel_s()]
    r = 0
    while True:
        for spec in specs:
            i = len(verdict_s)
            seconds, out, fails, vt = _verdict(workloads, spec, tracer)
            if out is not None and i < len(reference):
                if reference[i]["spec"] != spec:
                    fails.append("inputs differ from the reference inputs")
                else:
                    fails += workloads.compare(
                        spec, workloads.answer(spec, out),
                        reference[i]["answer"])
            verdict_s.append(seconds)
            kernels.append(kernel_s())
            if fails:
                failed += 1
                failures.append(f"verdict {i} ({spec['kind']}): "
                                + "; ".join(fails))
            if vt is not None:
                tracing.add_into(total, vt)
                counters.append(tracing.integer_counters(vt))
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
        specs = make_round(args.seed, r)
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(total, len(verdict_s))
        result["counters"] = counters
        result["self_s"] = sum(total.self_time.values())
        result["traced_s"] = total.wall
    result.update(
        verdict_s=verdict_s, kernel_s=kernels, run_s=run_s, rounds=r,
        round_size=round_size,
        failed=failed, failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        env=_environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
