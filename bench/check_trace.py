"""Tracing overhead and repeatability of the traced run.

    python3 bench/check_trace.py --seed 0 --seconds 30

For every workload this makes four runs of the same seed: untraced,
traced, traced, untraced, so that a steady drift in machine speed cancels
from the comparison.  It prints the tracing overhead as the mean traced
minus the mean untraced ``ref_verdicts_per_s``, and checks that the integer
counters (calls, RHS evaluations, steps, termination causes, probes) of
every verdict both traced runs completed are identical.  Exits with code
1 if any differ.
"""

from __future__ import annotations

import argparse
import sys
import time

import run


def rate(result: dict) -> float:
    verdicts = run.ref_times(result["verdict_s"], result["kernel_s"])
    return len(verdicts) / sum(verdicts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    common = ["--seed", str(args.seed), "--seconds", repr(args.seconds)]
    ok = True
    for name in run.WORKLOADS:
        deadline = time.monotonic() + 4 * run.TIMEOUT_S
        plain1, first, second, plain2 = (
            run.spawn(["--workload", name, "--trace", str(t)] + common,
                      deadline)
            for t in (0, 1, 1, 0))
        a, b = first["counters"], second["counters"]
        same = min(len(a), len(b))
        differ = [i for i in range(same) if a[i] != b[i]]
        ok = ok and not differ
        plain = (rate(plain1) + rate(plain2)) / 2
        traced = (rate(first) + rate(second)) / 2
        print(f"{name}: untraced {rate(plain1):.4f} {rate(plain2):.4f} 1/s, "
              f"traced {rate(first):.4f} {rate(second):.4f} 1/s, overhead "
              f"{traced - plain:+.4f} 1/s ({traced / plain - 1:+.1%}); "
              f"counters of {same} verdicts "
              + ("identical" if not differ else f"DIFFER at {differ[:5]}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
