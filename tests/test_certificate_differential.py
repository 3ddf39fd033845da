"""Differential tests: integer witness extraction and the grouped checker.

The witness extractor (``offline/flow.py``: :func:`schedule_from_work` over
integer ticks) and the schedule checker (:meth:`Schedule.verify`, one
grouped integer pass) replaced ``Fraction`` implementations that are kept
verbatim in ``tests/reference_certificates.py``.  Here the new code must
match them exactly:

* every witness serializes byte-identically to the reference extractor's,
  over the golden corpus and hypothesis instances with fractional data, at
  speeds ``1``, ``3/2`` and ``2/3``, on every available flow backend;
* every :class:`FeasibilityReport` equals the reference checker's, on valid
  witnesses and on arbitrary (mostly invalid) segment sets.
"""

from __future__ import annotations

import ast
import json
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model import Instance, Job, Schedule, Segment
from repro.model.io import load, schedule_to_dict
from repro.offline.feascache import cache_for
from repro.offline.flow import (
    _DINIC_KERNELS,
    available_backends,
    max_flow_assignment,
    mcnaughton,
    resolve_backend,
    schedule_from_work,
)
from repro.offline.optimum import migratory_optimum
from repro.verify import certify, unsat_certificate

from tests.reference_certificates import (
    ref_mcnaughton,
    ref_schedule_from_work,
    ref_verify,
)

SPEEDS = (Fraction(1), Fraction(3, 2), Fraction(2, 3))
BACKENDS = available_backends()
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")
CORPUS = sorted(f for f in os.listdir(CORPUS_DIR) if f != "expectations.json")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _bytes(segments) -> str:
    return json.dumps(schedule_to_dict(segments), sort_keys=True)


def _check_report(schedule, instance, speed=1, machines=None):
    """``schedule.verify`` — asserted equal to the reference checker's report."""
    report = schedule.verify(instance, speed, machines)
    assert report == ref_verify(schedule, instance, speed, machines)
    return report


def _assert_witnesses_match(instance, m, speed, backend):
    """Every extraction path at ``m`` equals the reference, byte for byte."""
    feasible, work, intervals = max_flow_assignment(instance, m, speed, backend=backend)
    if not feasible:
        return False
    expected = _bytes(ref_schedule_from_work(work, intervals, m))
    # the exact-work path (networkx, max_flow_assignment users)
    assert _bytes(schedule_from_work(work, intervals, m)) == expected
    kernel = _DINIC_KERNELS.get(resolve_backend(backend))
    if kernel is not None:
        # the raw integer flow path, from the very network the work came from
        cache = cache_for(instance)
        network = cache.solved_network(m, speed, kernel)
        ticks = schedule_from_work(
            network.work_by_job(), intervals, m, unit=speed * cache.scale_for(speed)
        )
        assert _bytes(ticks) == expected
    cert = certify(instance, m, speed, backend=backend, check=False)
    assert cert.kind == "feasible"
    assert _bytes(cert.schedule) == expected
    report = _check_report(cert.schedule, instance, speed, machines=m)
    assert report.feasible, report.violations
    return True


def _sandwich(instance, speed, backend):
    if unsat_certificate(instance, speed) is not None:
        return 0
    opt = migratory_optimum(instance, speed, backend=backend)
    checked = 0
    for m in (opt, opt + 1, opt + 3):
        checked += _assert_witnesses_match(instance, m, speed, backend)
    return checked


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("speed", SPEEDS, ids=str)
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_witnesses_match_reference(name, speed, backend):
    instance = load(os.path.join(CORPUS_DIR, name))
    if unsat_certificate(instance, speed) is not None:
        pytest.skip("no machine count is feasible at this speed")
    assert _sandwich(instance, speed, backend) > 0


@st.composite
def fractional_instances(draw, max_size: int = 7):
    """Mixed denominators in every field; windows admit speed ≥ 1/2."""
    n = draw(st.integers(1, max_size))
    jobs = []
    for i in range(n):
        release = Fraction(draw(st.integers(0, 40)), draw(st.sampled_from((1, 2, 3, 4))))
        processing = Fraction(draw(st.integers(1, 18)), draw(st.sampled_from((1, 2, 3, 5))))
        slack = Fraction(draw(st.integers(0, 24)), draw(st.sampled_from((1, 2, 6))))
        jobs.append(Job(release, processing, release + 2 * processing + slack, id=i))
    return Instance(jobs)


@pytest.mark.parametrize("backend", BACKENDS)
@given(fractional_instances(), st.sampled_from(SPEEDS))
@settings(max_examples=40, deadline=None)
def test_fractional_witnesses_match_reference(backend, instance, speed):
    assert _sandwich(instance, speed, backend) > 0


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.fractions(0, 4, max_denominator=6)),
        max_size=8,
    ),
    st.fractions(0, 10, max_denominator=12),
    st.fractions(Fraction(1, 12), 4, max_denominator=12),
    st.integers(0, 5),
    st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_mcnaughton_matches_reference(pieces, start, length, m, offset):
    end = start + length
    try:
        expected = ref_mcnaughton(pieces, start, end, m, offset)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            mcnaughton(pieces, start, end, m, offset)
        return
    got = mcnaughton(pieces, start, end, m, offset)
    assert got == expected
    assert [(s.start.denominator, s.end.denominator) for s in got] == [
        (s.start.denominator, s.end.denominator) for s in expected
    ]


def test_mcnaughton_accepts_ints_and_reports_errors():
    assert mcnaughton([(7, 2), (8, 2)], 0, 3, 2, machine_offset=4) == [
        Segment(7, 4, 0, 2), Segment(8, 4, 2, 3), Segment(8, 5, 0, 1),
    ]
    with pytest.raises(ValueError, match="empty elementary interval"):
        mcnaughton([], 3, 3, 1)
    with pytest.raises(ValueError, match="piece of job 1 exceeds"):
        mcnaughton([(1, Fraction(7, 2))], 1, 4, 2)
    assert mcnaughton([(1, 3)], 1, 4, 1) == [Segment(1, 0, 1, 4)]
    with pytest.raises(ValueError, match="exceed machine capacity"):
        mcnaughton([(1, 3), (2, 3), (3, 1)], 0, 3, 2)


def test_schedule_from_work_refines_the_tick_to_the_endpoints():
    # Flow ticks of 1/2 over intervals whose endpoints need thirds: the
    # common tick becomes 1/6, and a unit of p/q scales amounts by q.
    intervals = [(Fraction(0), Fraction(4, 3)), (Fraction(4, 3), Fraction(3))]
    work = {0: {0: 2, 1: 3}, 1: {0: 1}, 2: {1: 3}}
    exact = {j: {k: Fraction(a, 2) for k, a in row.items()} for j, row in work.items()}
    expected = _bytes(ref_schedule_from_work(exact, intervals, 2))
    assert _bytes(schedule_from_work(work, intervals, 2, unit=2)) == expected
    assert _bytes(schedule_from_work(exact, intervals, 2)) == expected
    thirds = {j: {k: 3 * a for k, a in row.items()} for j, row in work.items()}
    assert _bytes(schedule_from_work(thirds, intervals, 2, unit=Fraction(6))) == expected
    halves = {j: {k: a * 2 for k, a in row.items()} for j, row in work.items()}
    assert _bytes(schedule_from_work(halves, intervals, 2, unit=Fraction(4))) == expected
    # A rational unit p/q: an amount of a ticks is a·q/p machine time.
    quarters = {0: {0: 1, 1: 2}, 1: {0: 1}, 2: {1: 2}}
    exact = {j: {k: a * Fraction(3, 4) for k, a in row.items()}
             for j, row in quarters.items()}
    assert _bytes(schedule_from_work(quarters, intervals, 2, unit=Fraction(4, 3))) == (
        _bytes(ref_schedule_from_work(exact, intervals, 2)))
    assert _bytes(schedule_from_work({}, intervals, 2)) == _bytes(())


def test_schedule_from_work_merges_across_intervals():
    # Job 0 fills machine 0 through both intervals: one merged segment,
    # exactly as the reference's Schedule normalization produced.
    intervals = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(5, 2))]
    work = {0: {0: Fraction(1), 1: Fraction(3, 2)}, 1: {1: Fraction(1, 2)},
            2: {0: Fraction(1, 3)}}
    got = schedule_from_work(work, intervals, 2)
    assert _bytes(got) == _bytes(ref_schedule_from_work(work, intervals, 2))
    assert got.segments[0] == Segment(0, 0, 0, Fraction(5, 2))
    assert len(got) == 3


# ---------------------------------------------------------------------------
# the checker against the reference, on arbitrary segment sets


@st.composite
def instance_and_segments(draw):
    instance = draw(fractional_instances(max_size=5))
    ids = [j.id for j in instance] + [99]
    segments = []
    for _ in range(draw(st.integers(0, 12))):
        start = Fraction(draw(st.integers(0, 60)), draw(st.sampled_from((1, 2, 3, 4))))
        length = Fraction(draw(st.integers(1, 20)), draw(st.sampled_from((1, 2, 3, 5))))
        segments.append(Segment(draw(st.sampled_from(ids)), draw(st.integers(0, 3)),
                                start, start + length))
    return instance, segments


@given(instance_and_segments(), st.sampled_from(SPEEDS), st.none() | st.integers(0, 4))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verify_matches_reference_on_arbitrary_schedules(pair, speed, machines):
    instance, segments = pair
    # both the normalized schedule and the raw, unmerged segment order
    _check_report(Schedule(segments), instance, speed, machines)
    raw = Schedule._from_normalized(tuple(segments))
    assert raw.verify(instance, speed, machines) == ref_verify(
        segments, instance, speed, machines)


def test_verify_of_empty_schedule_and_instance():
    assert _check_report(Schedule([]), Instance([])).feasible
    report = _check_report(Schedule([]), Instance([Job(0, 2, 3, id=5)]), machines=0)
    assert report.violations == ("job 5 received 0 < p_j = 2",)
    assert report.unfinished == {5: Fraction(2)}


# ---------------------------------------------------------------------------
# the trust anchor stays self-contained


def test_schedule_module_imports_only_the_model_layer():
    path = os.path.join(SRC, "repro", "model", "schedule.py")
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                top = node.module.split(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names or (
                    node.module == "repro.model" or node.module.startswith("repro.model.")
                ), node.module
            else:
                assert node.level == 1, f"relative import leaves repro.model: {node.module}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                assert top in sys.stdlib_module_names or alias.name.startswith(
                    "repro.model"), alias.name
