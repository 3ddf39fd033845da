"""Benchmark harness conventions.

Every benchmark regenerates one experiment row/series from EXPERIMENTS.md and
prints it through ``repro.analysis.report.print_table`` (run with ``-s`` to
see the tables; pytest-benchmark reports the timings either way).  Heavy
experiments use ``benchmark.pedantic`` with a single round so the reported
series comes from exactly one run.

Every test that uses the ``benchmark`` fixture additionally runs with an
observability registry attached (:mod:`repro.obs`): its counter/gauge/span
snapshot is stored in ``benchmark.extra_info["obs"]``, so the
``--benchmark-json`` artifact carries per-phase breakdowns (augmenting
paths, cache probes, engine steps, …) alongside the wall-clock numbers.
Tests that must measure the *no-sink* fast path (``bench_obs_overhead``)
simply avoid the ``benchmark`` fixture.
"""

import pytest

from repro import obs


def run_once(benchmark, fn):
    """Benchmark ``fn`` with one warm round and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(autouse=True)
def obs_snapshot(request):
    """Attach a registry per benchmark; snapshot into the JSON artifact."""
    if "benchmark" not in request.fixturenames:
        yield
        return
    # Resolve the benchmark fixture *now*: it must outlive this fixture's
    # teardown (resolving it there breaks on pytest >= 9).
    bench = request.getfixturevalue("benchmark")
    with obs.capture() as registry:
        yield
    snapshot = registry.snapshot()
    if any(snapshot.values()):
        bench.extra_info["obs"] = snapshot
