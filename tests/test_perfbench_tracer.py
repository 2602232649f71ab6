"""The benchmark's span tracer (perfbench/tracer.py) against the package.

The tracer wraps seqmp functions by the names their callers look them up
by. A rename of one of those names fails here, in the tier-1 suite, instead
of in a benchmark run.
"""
import pathlib

import pytest

from seqmp import bench

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The tracer and workloads modules of perfbench/, imported through sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_run_matches_untraced_and_every_layer_records_calls(perfbench):
    tracer_mod, workloads = perfbench
    task = bench.resolve_task("transport_a_mini")
    params = bench.params_with_overrides(task, {"m": 60}, seed=1)
    _, plain = bench.run(task, "psm", params)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        _, traced = bench.run(task, "psm", params)
    finally:
        tracer.restore()
    assert plain is not None and traced is not None
    assert plain.configs.tobytes() == traced.configs.tobytes()
    calls = {name[:-len(".calls")]: value for name, (value, _) in tracer_mod.layer_metrics(tracer).items()
             if name.endswith(".calls")}
    for layer in workloads.LAYERS:
        assert sum(n for name, n in calls.items() if name.startswith(f"{layer}.")) > 0, layer
