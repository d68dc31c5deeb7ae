"""The syl benchmark.

    python3 bench/run.py --workload shooting --seed 3 --seconds 30 --trace 0

runs one seeded workload in a closed loop (one process, one client
thread, the next verdict starts when the previous one returns) for whole
rounds until ``--seconds`` have passed, checks every verdict, prints each
metric by name and unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload traced and reports its per-layer metrics,
printing the full per-layer table above the JSON line.  ``--workload all``
runs every workload in turn.

Timings are reported twice.  ``verdicts_per_s``, ``verdict_s_p50``,
``verdict_s_tail`` and ``setup_wall_s`` are wall time as measured.  The
``ref_`` metrics and ``setup_s``, the ones ``BENCHMARK.json`` gates, are
the same times at a fixed host speed: each verdict's wall time is
multiplied by ``REF_KERNEL_S`` over the mean time of the reference kernel
runs just before and just after it (see ``worker.kernel_s``), and each
set-up time by ``REF_KERNEL_S`` over a kernel run right after set-up.  On
a shared host whose speed swings by a factor of two within seconds, the
wall times of ten runs spread by 20-40%, the scaled ones by 5-16%; a
change to the program moves both alike.  Process CPU time is no help:
it tracks wall time here, because the host slows the core rather than
taking it away.

Every worker is a fresh interpreter whose environment pins BLAS and
OpenMP to one thread and drops ``SYL_THREADS``, so the library's default
serial path is what gets measured.  An untraced run starts
``SETUP_SAMPLES - 1`` workers that only set up, before the one that also
runs; ``setup_s`` is the median of their scaled set-up times.  Only the standard
library is used here, so this process adds nothing to what it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("shooting", "verifiers")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0
TAIL_BEYOND = 10
# Seconds one reference kernel run takes on an uncontended core of the
# 2-vCPU Intel Xeon VM the benchmark was defined on (Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1).  The ref_ metrics are seconds at that speed.
REF_KERNEL_S = 0.030


class BenchError(Exception):
    pass


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SYL_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(args, deadline: float) -> dict:
    """Run one worker to completion; its JSON result plus ``setup_s``."""
    started = _now_ns()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready_ns"] - started) / 1e9
    return result


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple:
    """(setup results, run result) of one benchmark run."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--setup-only"], deadline))
    run = spawn(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                deadline)
    setups.append(run)
    return setups, run


def tail(verdict_s: list, round_size: int) -> tuple:
    """(value, percentile) of the verdict-time tail.

    The percentile is the highest one with TAIL_BEYOND verdicts beyond it
    in one round, taken by nearest rank over every verdict of the run.
    Pinning it to the round keeps its meaning when a faster program
    completes more rounds in the same time.
    """
    ordered = sorted(verdict_s)
    beyond = round_size - TAIL_BEYOND
    index = -(-len(ordered) * beyond // round_size) - 1
    return ordered[index], 100.0 * beyond / round_size


def ref_times(verdict_s: list, kernel_s: list) -> list:
    """Verdict times at the host speed where the kernel takes REF_KERNEL_S.

    ``kernel_s`` has one kernel run before each verdict and one after
    the last; verdict ``i`` is scaled by the mean of runs ``i`` and
    ``i + 1``.
    """
    return [t * REF_KERNEL_S / (0.5 * (before + after))
            for t, before, after in zip(verdict_s, kernel_s, kernel_s[1:])]


def timings(prefix: str, verdicts: list, round_size: int) -> dict:
    """Throughput, median and tail of one list of verdict times.

    Throughput is per second of verdict time, which leaves out the
    kernel runs between verdicts.
    """
    return {
        prefix + "verdicts_per_s": (len(verdicts) / sum(verdicts), "1/s"),
        prefix + "verdict_s_p50": (statistics.median(verdicts), "s"),
        prefix + "verdict_s_tail": (tail(verdicts, round_size)[0], "s"),
    }


def end_to_end(setups: list, run: dict) -> dict:
    size = run["round_size"]
    return {
        **timings("ref_", ref_times(run["verdict_s"], run["kernel_s"]), size),
        **timings("", run["verdict_s"], size),
        "setup_s": (statistics.median(
            s["setup_s"] * REF_KERNEL_S / s["setup_kernel_s"]
            for s in setups), "s"),
        "setup_wall_s": (statistics.median(s["setup_s"] for s in setups),
                         "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        "host.kernel_s_p50": (statistics.median(run["kernel_s"]), "s"),
    }


def per_layer(setups: list, run: dict) -> dict:
    layers = {name: tuple(v) for name, v in run["layers"].items()}
    layers["setup.import_s"] = (
        statistics.median(s["import_s"] for s in setups), "s")
    layers["setup.inputs_s"] = (
        statistics.median(s["inputs_s"] for s in setups), "s")
    layers["traced.verdicts_per_s"] = timings(
        "", run["verdict_s"], run["round_size"])["verdicts_per_s"]
    return layers


def declared(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def report(workload: str, seed: int, seconds: float, trace: int,
           deadline: float) -> dict:
    """Run, print the metric table, and return the result object."""
    setups, run = measure(workload, seed, seconds, trace, deadline)
    env = run["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    n = len(run["verdict_s"])
    print(f"workload {workload} seed {seed} trace {trace}: {n} verdicts in "
          f"{run['rounds']} rounds, {run['run_s']:.3f} s")
    table = per_layer(setups, run) if trace else end_to_end(setups, run)
    for name, (value, unit) in table.items():
        shown = "n/a (zero base)" if value is None else f"{value:.6g} {unit}"
        note = ""
        if name.endswith("verdict_s_tail"):
            pct = tail(run["verdict_s"], run["round_size"])[1]
            note = f"  (p{pct:.1f} of {n} verdicts)"
        print(f"  {name:40s} {shown}{note}")
    if trace:
        print(f"  {'self times / traced wall':40s} "
              f"{run['self_s'] / run['traced_s']:.6f}")
    print(f"  {'failed_fraction':40s} {run['failed'] / n:.6g} "
          f"({run['failed']} of {n})")
    for line in run["failures"]:
        print("FAILED " + line, file=sys.stderr)
    metrics = {}
    for entry in declared(trace):
        value, unit = table[entry["name"]]
        if unit != entry["unit"] or value is None:
            raise BenchError(f"metric {entry['name']} is {value} {unit}, "
                             f"BENCHMARK.json declares {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {"correct": run["failed"] == 0, "attempted": n,
            "failed": run["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "syl", "__init__.py")):
        print("error: no syl sources under src/ next to the benchmark",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(names)
    try:
        results = {name: report(name, args.seed, args.seconds, args.trace,
                                deadline)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = results[args.workload] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
