"""Tests of the benchmark's tracer on real workload iterations.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""

import sys

import pytest

import run
import tracer as tr
import workloads as wl


def traced_iterations(workload, count, work):
    cli = run.load_cli()
    tally = run.Tally()
    tracer = tr.Tracer()
    cfgs = run.parse_configs(cli, wl.experiments(workload, 0))
    reference: dict = {}
    with tracer:
        for _ in range(count):
            run.warm_iteration(cli, cfgs, work, tally, reference, tracer)
    assert tally.failures == []
    assert tally.attempted == count * len(cfgs)
    return [
        (tr.iteration_spans(tracer.spans, i), tracer.counts[i]) for i in range(1, count + 1)
    ]


@pytest.fixture(scope="module", params=["damped-bump", "observe-scan"])
def traced(request, tmp_path_factory):
    return request.param, traced_iterations(request.param, 2, tmp_path_factory.mktemp("work"))


def test_self_times_sum_to_root_span(traced):
    _, iterations = traced
    spans, _ = iterations[0]
    roots = [s for s in spans if s[3] < 0]
    assert roots and all(s[0] == "cli.run" for s in roots)
    root_s = sum(s[2] - s[1] for s in roots)
    assert sum(tr.self_times(spans)) == pytest.approx(root_s, rel=0.01)


def test_counts_repeat_across_iterations(traced):
    _, iterations = traced
    first, second = (tr.layer_metrics(*it) for it in iterations)
    counts = [k for k, unit in tr.LAYER_UNITS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_pinned_work_counts(traced):
    workload, iterations = traced
    metrics = tr.layer_metrics(*iterations[0])
    if workload == "damped-bump":
        assert metrics["dynamics.step.calls"] == 4000
    else:
        assert metrics["kernels.expm.calls"] == 2


def test_uninstall_restores_every_name():
    cli = run.load_cli()
    import numpy.fft
    import scipy.linalg

    before = (cli.run, cli.linear_control_gramian, numpy.fft.fft, scipy.linalg.expm)
    step = sys.modules["dgblab.dynamics"].Etdrk4Integrator.step
    with tr.Tracer():
        assert cli.run is not before[0]
        assert cli.linear_control_gramian is sys.modules["dgblab.control"].linear_control_gramian
    assert (cli.run, cli.linear_control_gramian, numpy.fft.fft, scipy.linalg.expm) == before
    assert sys.modules["dgblab.dynamics"].Etdrk4Integrator.step is step
