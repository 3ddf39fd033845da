"""``min_machines``: gallop up from a lower bound, simulate no count twice,
and check the answer against the count below it.

The search assumes success is monotone in the machine count.  The property
below checks that assumption for every registered policy on small
instances, from the migratory optimum (which no online policy beats) up to
two past the first success.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.model import Instance, Job
from repro.offline.optimum import migratory_optimum
from repro.online import EDF, FirstFitEDF, LowerBoundError, min_machines, succeeds
from repro.runner.tasks import POLICIES

from tests.strategies import instances_st


@given(instances_st(max_size=6), st.sampled_from(sorted(POLICIES)))
@settings(max_examples=80, deadline=None)
def test_success_is_monotone_from_the_optimum(instance, name):
    cls = POLICIES[name]
    opt = migratory_optimum(instance)
    k = min_machines(lambda _: cls(), instance, lo=opt)
    assert k >= opt
    for m in range(opt, k + 3):
        assert succeeds(cls(), instance, m) == (m >= k), (name, m, k)


def _trials(instance, lo, policy=EDF):
    """(answer, machine counts simulated in order, engine.simulate spans)."""
    counts = []

    def factory(k):
        counts.append(k)
        return policy()

    with obs.capture() as registry:
        k = min_machines(factory, instance, lo=lo)
    spans = registry.snapshot()["spans"]["engine.simulate"]["count"]
    return k, counts, spans


@given(instances_st(max_size=8), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_no_count_is_simulated_twice(instance, below):
    lo = max(1, migratory_optimum(instance) - below)
    k, counts, spans = _trials(instance, lo)
    assert len(counts) == len(set(counts)) == spans
    assert k in counts or k == lo == 1


def test_gallop_then_bisect_probe_order():
    """Eight unit jobs in [0, 1): EDF needs 8 machines; from lo=1 the probes
    are 1, 2, 4, 8 (gallop), then 6, 7 (bisection between 4 and 8)."""
    instance = Instance([Job(0, 1, 1, id=i) for i in range(8)])
    k, counts, spans = _trials(instance, lo=1)
    assert k == 8
    assert counts == [1, 2, 4, 8, 6, 7]
    assert spans == 6


def test_answer_at_lo_checks_the_count_below():
    instance = Instance([Job(0, 1, 1, id=i) for i in range(3)])
    k, counts, _ = _trials(instance, lo=3)
    assert k == 3
    assert counts == [3, 2]


def test_lo_above_the_answer_raises():
    instance = Instance([Job(0, 1, 1, id=i) for i in range(3)])
    with pytest.raises(LowerBoundError,
                       match="succeeds on 4 machines, below the lower bound 5"):
        min_machines(lambda _: FirstFitEDF(), instance, lo=5)


def test_hi_is_trusted_and_never_simulated():
    instance = Instance([Job(0, 1, 1, id=i) for i in range(3)])
    counts = []

    def factory(k):
        counts.append(k)
        return EDF()

    assert min_machines(factory, instance, lo=1, hi=3) == 3
    assert 3 not in counts


def test_hi_caps_the_gallop():
    """A far ``hi`` does not change the probes: 1, 2, 4, then 3."""
    instance = Instance([Job(0, 1, 1, id=i) for i in range(3)])
    counts = []

    def factory(k):
        counts.append(k)
        return EDF()

    assert min_machines(factory, instance, lo=1, hi=10) == 3
    assert counts == [1, 2, 4, 3]


def test_overshooting_probe_is_not_divergence():
    """The gallop may probe up to ~2× the answer (here 512 for 300 parallel
    unit jobs); only counts beyond 4n + 64 mean the policy never succeeds."""
    instance = Instance([Job(0, 1, 1, id=i) for i in range(300)])
    assert min_machines(lambda _: EDF(), instance) == 300
