"""Tests of the benchmark itself: input generation, tracing, checks.

Run with ``python3 -m pytest bench``.
"""

import math

import pytest

import run
import tracing
import workloads
from syl import radial, shooting


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    first = [make(5, r) for r in range(3)]
    assert first == [make(5, r) for r in range(3)]
    assert first != [make(6, r) for r in range(3)]
    assert first[0] != first[1]


def _traced(spec, tracer):
    with tracer.verdict() as vt:
        out = workloads.run(spec)
    return vt, out


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def _cheap_verdicts():
    solve = workloads.shooting_round(0, 0)[0]
    verifiers = [s for s in workloads.verifiers_round(0, 0)
                 if s["kind"] == "bubble"
                 or s["argv"][0] in ("cone-check", "cylinder",
                                     "counterexample")
                 or s["argv"][:3] == ["verify", "--suite", "radial"]]
    return [solve] + verifiers


def test_self_times_sum_to_verdict_wall(tracer):
    for spec in _cheap_verdicts():
        vt, out = _traced(spec, tracer)
        assert workloads.check(spec, out) == []
        assert len(vt.self_time) > 1  # spans below the verdict were seen
        assert sum(vt.self_time.values()) == pytest.approx(vt.wall, rel=0.05)


def test_integrations_are_classified_by_stage(tracer):
    spec = workloads.shooting_round(0, 0)[0]
    vt, (result, _) = _traced(spec, tracer)
    c = vt.counts
    stages = [c[f"shooting.{s}.calls"] for s in ("scan", "refine", "polish")]
    assert sum(stages) == c["radial.integrate.calls"]
    c1 = spec["c1"]
    admissible = sum(abs(c1 * math.exp(-s)) <= 1.0 - shooting.SEED_MARGIN
                     for s in result.diagnostics.grid)
    assert stages[0] == admissible
    assert stages[2] > 0 and len(result.solutions) > 0
    assert c["radial.reconstruct.calls"] == len(result.solutions)


def test_traced_counters_repeat(tracer):
    spec = next(s for s in workloads.shooting_round(0, 0)
                if s["kind"] == "rstar")
    first, _ = _traced(spec, tracer)
    second, _ = _traced(spec, tracer)
    assert tracing.integer_counters(first) == tracing.integer_counters(second)
    assert tracing.integer_counters(first)["shooting.solve_annulus.calls"] > 1


def test_uninstall_restores_bindings():
    original = shooting.integrate
    t = tracing.Tracer()
    t.install()
    assert shooting.integrate is not original
    t.uninstall()
    assert shooting.integrate is original is radial.integrate


def test_reference_comparison_catches_changed_answers():
    solve = {"kind": "solve"}
    ref = {"status": "ok", "xi0": [0.25, 1.5]}
    assert workloads.compare(solve, {"status": "ok",
                                     "xi0": [0.25 + 1e-12, 1.5]}, ref) == []
    assert workloads.compare(solve, {"status": "ok",
                                     "xi0": [0.25 + 1e-9, 1.5]}, ref)
    assert workloads.compare(solve, {"status": "ok", "xi0": [0.25]}, ref)
    cli = {"kind": "cli"}
    ref = {"code": 0, "stdout": '{"passed": true}\n'}
    assert workloads.compare(cli, dict(ref), ref) == []
    assert workloads.compare(cli, {"code": 0, "stdout": '{"passed":true}\n'},
                             ref)


def test_tail_has_ten_verdicts_beyond_it_per_round():
    assert run.tail([float(i) for i in range(30)], 30) == (19.0, 200 / 3)
    value, pct = run.tail([float(i) for i in range(60)], 30)
    assert value == 39.0 and pct == 200 / 3  # twenty beyond in two rounds
    assert run.tail([float(i) for i in range(11)], 11) == (0.0, 100 / 11)


def test_ref_times_scale_by_the_kernel_runs_around_each_verdict():
    k = run.REF_KERNEL_S
    assert run.ref_times([1.0, 2.0], [k, 3 * k, k]) == [0.5, 1.0]
    # A host twice as slow doubles verdicts and kernel runs alike.
    assert run.ref_times([2.0, 4.0], [2 * k, 6 * k, 2 * k]) == [0.5, 1.0]
