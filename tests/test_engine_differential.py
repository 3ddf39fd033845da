"""Differential tests: the integer-tick engine against the ``Fraction`` engine.

The online engine (``online/engine.py``) and the policies that read engine
state run on integer ticks.  They replaced ``Fraction`` implementations that
are kept verbatim in ``tests/reference_engine.py``.  Here every run of the
new engine must match the reference exactly:

* the schedule (``schedule_to_dict``, byte for byte), the segment list,
  misses, and per job the remaining work, start and finish times,
  commitment, machines, migration count and migration overhead;
* every :class:`TraceEvent` of a ``trace=True`` run;
* the ``engine.*`` counters of a captured :class:`~repro.obs.Registry`;
* the message of every ``InfeasibleOnline`` / ``EngineError``.

Inputs: the golden corpus, hypothesis instances with fractional data at
speeds ``1``, ``3/2`` and ``2/3`` with and without a migration cost, a
lockstep version of ``tests/test_engine_stateful.py``'s machine (horizons
and releases at new denominators refine the tick unit mid-run), and the
adversary drivers of ``core/adversary/``, which release jobs at new
denominators as they go.  Every policy of the sweep table runs, plus
``DeferredEDF``, ``SeededRandomFit``, the doubling wrapper with both
assigners, the laminar budget policies and ``SpeedFit``.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import tests.reference_engine as ref
from repro import obs
from repro.core.adversary import agreeable_lb, migration_gap, np_trap
from repro.core.laminar import GreedyLaminarPolicy, LaminarBudgetPolicy
from repro.core.speed_fit import SpeedFit
from repro.model import Instance, Job
from repro.model.io import load, schedule_to_dict
from repro.offline.optimum import migratory_optimum
from repro.online import (
    EDF,
    LLF,
    BestFitEDF,
    DeferredEDF,
    DoublingPolicy,
    EmptiestFitEDF,
    EngineError,
    FirstFitEDF,
    InfeasibleOnline,
    LaminarAssigner,
    NonPreemptiveEDF,
    OnlineEngine,
    SeededRandomFit,
    min_machines,
)
from repro.runner.tasks import POLICIES

SPEEDS = (Fraction(1), Fraction(3, 2), Fraction(2, 3))
COSTS = (Fraction(0), Fraction(1, 2), Fraction(1, 3))
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")
CORPUS = sorted(f for f in os.listdir(CORPUS_DIR) if f != "expectations.json")

#: name → (new policy factory, reference policy factory)
PAIRS = {
    "edf": (EDF, ref.EDF),
    "llf": (LLF, ref.LLF),
    "npedf": (NonPreemptiveEDF, ref.NonPreemptiveEDF),
    "firstfit": (FirstFitEDF, ref.FirstFitEDF),
    "bestfit": (BestFitEDF, ref.BestFitEDF),
    "emptiestfit": (EmptiestFitEDF, ref.EmptiestFitEDF),
    "deferred": (DeferredEDF, ref.DeferredEDF),
    "random3": (lambda: SeededRandomFit(3), lambda: ref.SeededRandomFit(3)),
    "doubling": (DoublingPolicy, ref.DoublingPolicy),
    "doubling-laminar": (
        lambda: DoublingPolicy(assigner_factory=lambda mu: LaminarAssigner()),
        lambda: ref.DoublingPolicy(assigner_factory=lambda mu: ref.LaminarAssigner()),
    ),
    "laminar": (LaminarBudgetPolicy, ref.ref_policy_class(LaminarBudgetPolicy)),
    "greedy-laminar": (GreedyLaminarPolicy, ref.ref_policy_class(GreedyLaminarPolicy)),
    "speedfit": (SpeedFit, ref.ref_policy_class(SpeedFit)),
}


def test_every_sweep_policy_has_a_reference():
    assert set(POLICIES) <= set(PAIRS)


def _engine_counters(registry) -> dict:
    return {k: v for k, v in registry.snapshot()["counters"].items()
            if k.startswith("engine.")}


def _snapshot(engine) -> dict:
    """Everything a driver can observe of a run, as comparable plain data."""
    return {
        "schedule": json.dumps(schedule_to_dict(engine.schedule()), sort_keys=True),
        "segments": [(s.job_id, s.machine, s.start, s.end) for s in engine.segments],
        "missed": list(engine.missed_jobs),
        "time": engine.time,
        "machines": engine.machines,
        "jobs": {
            job_id: (s.remaining, s.started_at, s.finished_at, s.finished, s.active,
                     s.missed, s.committed, sorted(s.machines), s.last_machine,
                     s.migration_count, s.overhead)
            for job_id, s in engine.jobs.items()
        },
        "active": [s.job.id for s in engine.active_jobs()],
        "trace": None if engine.trace is None else [
            (e.time, e.running, e.admitted, e.completed, e.missed) for e in engine.trace
        ],
    }


#: Both engines run under the same small event budget.  At a speed other
#: than 1, LLF's crossover wake-ups can chase a limit point (the running
#: job's laxity is not constant there), and a budget of ~16k events with
#: growing denominators takes minutes on the Fraction engine.  Exhausting
#: the budget raises the same EngineError on both engines, which is compared.
BUDGET = 1000


def _cap(engine) -> None:
    engine._event_budget = min(engine._event_budget, BUDGET)


def _run(engine_cls, policy, instance, machines, speed=1, cost=0, on_miss="record"):
    with obs.capture() as registry:
        engine = engine_cls(policy, machines=machines, speed=speed, on_miss=on_miss,
                            trace=True, migration_cost=cost)
        error = None
        try:
            engine.release(instance)
            _cap(engine)
            engine.run_to_completion()
        except (InfeasibleOnline, EngineError) as exc:
            error = (type(exc).__name__, str(exc))
    return _snapshot(engine), error, _engine_counters(registry)


def _assert_same_run(name, instance, machines, speed=1, cost=0, on_miss="record"):
    new, old = PAIRS[name]
    got = _run(OnlineEngine, new(), instance, machines, speed, cost, on_miss)
    want = _run(ref.OnlineEngine, old(), instance, machines, speed, cost, on_miss)
    assert got[1] == want[1], name
    assert got[2] == want[2], name
    assert got[0] == want[0], name
    return got


def _corpus(name):
    return load(os.path.join(CORPUS_DIR, name))


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_runs_match_reference(name):
    instance = _corpus(name)
    opt = migratory_optimum(instance)
    for policy in PAIRS:
        for machines in sorted({max(1, opt - 1), opt, opt + 2}):
            _assert_same_run(policy, instance, machines)
        _assert_same_run(policy, instance, opt, on_miss="raise")
    for speed in SPEEDS[1:]:
        for policy in ("edf", "llf", "firstfit", "deferred", "speedfit"):
            _assert_same_run(policy, instance, opt, speed=speed,
                             cost=Fraction(1, 2))


@st.composite
def fractional_instances(draw, max_size=6):
    jobs = []
    for i in range(draw(st.integers(1, max_size))):
        den = draw(st.sampled_from([1, 2, 3, 4, 6]))
        release = Fraction(draw(st.integers(0, 10 * den)), den)
        processing = Fraction(draw(st.integers(1, 4 * den)), den)
        slack = Fraction(draw(st.integers(0, 5 * den)), den)
        jobs.append(Job(release, processing, release + processing + slack, id=i))
    return Instance(jobs)


@given(
    fractional_instances(),
    st.sampled_from(sorted(PAIRS)),
    st.integers(1, 4),
    st.sampled_from(SPEEDS),
    st.sampled_from(COSTS),
    st.sampled_from(["record", "raise"]),
)
@settings(max_examples=300, deadline=None)
def test_fractional_instances_match_reference(instance, policy, machines, speed, cost, on_miss):
    _assert_same_run(policy, instance, machines, speed, cost, on_miss)


@given(fractional_instances(max_size=5), st.sampled_from(sorted(POLICIES)),
       st.sampled_from(SPEEDS))
@settings(max_examples=60, deadline=None)
def test_min_machines_matches_reference(instance, policy, speed):
    """Same answer as the reference doubling scan, seeded with the optimum.

    LLF runs at speed 1 only: its non-unit-speed runs are compared one by one
    above, under the capped budget (see ``BUDGET``).
    """
    if policy == "llf":
        speed = Fraction(1)
    new, old = PAIRS[policy]
    lo = 1 if speed < 1 else migratory_optimum(instance, speed)

    def outcome(search):
        try:
            return search()
        except RuntimeError as exc:  # no machine count succeeds
            return str(exc)

    assert outcome(lambda: min_machines(lambda k: new(), instance, lo=lo, speed=speed)) == (
        outcome(lambda: ref.min_machines(lambda k: old(), instance, speed=speed))
    )


class LockstepMachine(RuleBasedStateMachine):
    """``test_engine_stateful``'s adaptive driver, on both engines at once."""

    @initialize(
        machines=st.integers(1, 4),
        policy=st.sampled_from(["firstfit", "edf", "llf", "deferred", "bestfit"]),
        speed=st.sampled_from(SPEEDS),
        cost=st.sampled_from(COSTS),
    )
    def setup(self, machines, policy, speed, cost):
        new, old = PAIRS[policy]
        self.new = OnlineEngine(new(), machines=machines, speed=speed,
                                trace=True, migration_cost=cost)
        self.old = ref.OnlineEngine(old(), machines=machines, speed=speed,
                                    trace=True, migration_cost=cost)
        self.next_id = 0

    def _both(self, action):
        outcomes = []
        for engine in (self.new, self.old):
            _cap(engine)
            with obs.capture() as registry:
                try:
                    value = action(engine)
                except (InfeasibleOnline, EngineError) as exc:
                    value = (type(exc).__name__, str(exc))
            outcomes.append((value, _engine_counters(registry)))
        assert outcomes[0] == outcomes[1]

    @rule(
        delay=st.integers(0, 5),
        den=st.sampled_from([1, 2, 3, 5]),
        processing=st.integers(1, 8),
        slack=st.integers(0, 12),
    )
    def release_job(self, delay, den, processing, slack):
        r = self.new.time + Fraction(delay, den)
        job = Job(r, Fraction(processing, den), r + Fraction(processing + slack, den),
                  id=self.next_id)
        self.next_id += 1
        self._both(lambda engine: engine.release([job]))

    @rule(advance=st.integers(1, 8), den=st.sampled_from([1, 2, 3, 7]))
    def run_forward(self, advance, den):
        horizon = self.new.time + Fraction(advance, den)
        self._both(lambda engine: engine.run_until(horizon))

    @rule()
    def poll(self):
        self._both(lambda engine: engine.poll_selection())

    @rule()
    def query(self):
        self._both(lambda engine: (engine.used_machines,
                                   [s.job.id for s in engine.machine_jobs(0)]))

    @invariant()
    def same_state(self):
        if hasattr(self, "new"):
            assert _snapshot(self.new) == _snapshot(self.old)

    def teardown(self):
        if hasattr(self, "new"):
            self._both(lambda engine: engine.run_to_completion())
            assert _snapshot(self.new) == _snapshot(self.old)


LockstepMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestLockstep = LockstepMachine.TestCase


# ---------------------------------------------------------------------------
# adversary drivers: the same construction against either engine


def _drive(monkeypatch, module, use_ref, build):
    """Run ``build(policy_pair_index)`` with ``module`` on one engine."""
    if use_ref:
        monkeypatch.setattr(module, "OnlineEngine", ref.OnlineEngine)
    else:
        monkeypatch.setattr(module, "OnlineEngine", OnlineEngine)
    with obs.capture() as registry:
        adversary, outcome = build(1 if use_ref else 0)
    return outcome, _snapshot(adversary.engine), _engine_counters(registry)


def _gap_outcome(adversary, k):
    try:
        res = adversary.run(k)
    except migration_gap.AdversaryOutcome as exc:
        return ("outcome", str(exc), list(exc.missed))
    return ("result", res.n_jobs, res.machines_forced, res.critical_machines,
            res.node.case)


@pytest.mark.parametrize("policy,k,machines", [
    ("firstfit", 4, 7), ("bestfit", 4, 7), ("emptiestfit", 5, 8),
    ("random3", 5, 8), ("deferred", 3, 6), ("deferred", 5, 8),
    ("doubling", 4, 1), ("npedf", 3, 6),
])
def test_migration_gap_adversary_matches_reference(monkeypatch, policy, k, machines):
    def build(side):
        adversary = migration_gap.MigrationGapAdversary(PAIRS[policy][side](),
                                                        machines=machines)
        return adversary, _gap_outcome(adversary, k)

    new = _drive(monkeypatch, migration_gap, False, build)
    assert new == _drive(monkeypatch, migration_gap, True, build)


@pytest.mark.parametrize("policy,machines", [("edf", 40), ("edf", 44), ("llf", 44)])
def test_agreeable_adversary_matches_reference(monkeypatch, policy, machines):
    def build(side):
        adversary = agreeable_lb.AgreeableAdversary(PAIRS[policy][side](), m=40,
                                                    machines=machines)
        res = adversary.run(max_rounds=6)
        return adversary, (res.missed, res.rounds_played, res.debts, res.missed_jobs)

    new = _drive(monkeypatch, agreeable_lb, False, build)
    assert new == _drive(monkeypatch, agreeable_lb, True, build)


@pytest.mark.parametrize("k", [3, 5])
def test_np_trap_adversary_matches_reference(monkeypatch, k):
    def build(side):
        adversary = np_trap.NonPreemptiveTrapAdversary(PAIRS["npedf"][side](),
                                                       machines=k + 2)
        res = adversary.run(k)
        return adversary, (res.levels, res.starts, res.machines_forced, res.missed)

    new = _drive(monkeypatch, np_trap, False, build)
    assert new == _drive(monkeypatch, np_trap, True, build)


def test_refinement_keeps_views_exact():
    """A release at a new denominator rescales the clock, work and segments."""
    engine = OnlineEngine(EDF(), machines=1, speed=Fraction(3, 2))
    engine.release([Job(0, 3, 10, id=0)])
    unit = engine.unit
    engine.run_until(1)
    engine.release([Job(Fraction(8, 7), Fraction(1, 5), 4, id=1)])
    assert engine.unit % unit == 0 and engine.unit > unit
    assert engine.time == 1
    assert engine.remaining(0) == Fraction(3, 2)
    assert engine.segments[0].end == 1
    engine.run_to_completion()
    # job 1 preempts at 8/7 and runs (1/5)/(3/2) = 2/15; job 0 then needs 6/7
    assert engine.state_of(1).finished_at == Fraction(8, 7) + Fraction(2, 15)
    assert engine.state_of(0).finished_at == 2 + Fraction(2, 15)


def test_wakeup_inside_a_horizon_is_an_event():
    """DeferredEDF starts a job only at its latest start (a wake-up); a
    horizon past it must not swallow the wake-up."""
    for engine_cls, policy in ((OnlineEngine, DeferredEDF), (ref.OnlineEngine, ref.DeferredEDF)):
        engine = engine_cls(policy(), machines=1)
        engine.release([Job(0, 1, 4, id=0)])
        engine.run_until(10)
        assert engine.missed_jobs == []
        assert engine.state_of(0).started_at == 3
        assert engine.state_of(0).finished_at == 4
