"""Event-driven continuous-time simulator for online machine minimization.

The engine advances the clock from event to event; between events every
machine processes one fixed job at the machine speed.  Events are:

* job releases (known in advance only to the engine, not the policy),
* job completions,
* deadlines of unfinished jobs (so misses are detected at the exact time),
* policy wake-ups (:meth:`~repro.online.base.Policy.next_wakeup`),
* explicit ``run_until`` horizons requested by a driver.

The engine supports **incremental driving**: adaptive adversaries (Lemma 2,
Lemma 9) interleave ``release()`` / ``run_until()`` calls with inspection of
policy commitments and remaining processing times.  ``simulate()`` is the
batch convenience wrapper used by everything else.

**Integer ticks.**  Simulated time is exact but costs int arithmetic.  The
engine keeps one integer unit ``L`` (a :class:`~repro.online.base.TickGrid`):
the lcm of the denominators of every release, every deadline, every
``processing / speed`` and of ``migration_cost / speed``.  A time tick is
``1/L`` and a work tick is the work a machine does in one tick, so a running
job's remaining work drops by exactly one per tick, its completion event is
``tick + rem``, and the speed never enters the inner loop.  Policies read the
int tick fields of :class:`~repro.online.base.JobState` and
:attr:`OnlineEngine.tick`.

Drivers keep an exact :class:`~fractions.Fraction` view, converted only at
the boundary: :attr:`OnlineEngine.time`, :meth:`OnlineEngine.remaining`, the
``remaining`` / ``started_at`` / ``finished_at`` / ``overhead`` of a job
state, :attr:`OnlineEngine.segments` / :meth:`OnlineEngine.schedule` (kept
as tick tuples and built on read) and :attr:`TraceEvent.time`.

A release, a ``run_until`` horizon or a policy wake-up off the current grid
(adversaries release jobs at new denominators mid-run) **refines** ``L`` by
an integer factor and rescales the engine's own state.  Policies therefore
keep no tick values across decision points.

Per-step ``engine.*`` counters build up in engine-local ints and reach the
:mod:`repro.obs` sinks once per driver call (``release``, ``run_until``,
``run_to_completion``, ``poll_selection``), also when it raises.
:func:`simulate` records ``steps`` and ``decisions`` on its
``engine.simulate`` span; the per-decision log is ``OnlineEngine(trace=True)``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, to_fraction
from ..model.job import Job
from ..model.schedule import Schedule, Segment
from ..obs import core as _obs
from .base import (
    EngineError,
    InfeasibleOnline,
    JobState,
    LowerBoundError,
    Policy,
    TickGrid,
)

_MAX_EVENTS_FACTOR = 2000  # safety valve against pathological policies


class TraceEvent:
    """One decision point of a traced run (see ``OnlineEngine(trace=True)``)."""

    __slots__ = ("time", "running", "admitted", "completed", "missed")

    def __init__(self, time, running, admitted, completed, missed):
        self.time = time
        self.running = running  # machine -> job_id at this decision point
        self.admitted = admitted  # job ids released at this instant
        self.completed = completed  # job ids finished at slice end
        self.missed = missed  # job ids missed at slice end

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"TraceEvent(t={self.time}, running={self.running}, "
                f"+{self.admitted} ✓{self.completed} ✗{self.missed})")


class OnlineEngine:
    """Simulates a :class:`Policy` on ``machines`` speed-``speed`` machines."""

    def __init__(
        self,
        policy: Policy,
        machines: int,
        speed: Numeric = 1,
        on_miss: str = "record",
        trace: bool = False,
        migration_cost: Numeric = 0,
    ) -> None:
        if machines < 0:
            raise ValueError("machine count must be non-negative")
        if on_miss not in ("record", "raise"):
            raise ValueError("on_miss must be 'record' or 'raise'")
        self.policy = policy
        self.machines = machines
        self.speed = to_fraction(speed)
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        self.on_miss = on_miss
        #: extra work a job incurs each time it resumes on a new machine
        #: (the practical overhead the paper's non-migratory model avoids)
        self.migration_cost = to_fraction(migration_cost)
        if self.migration_cost < 0:
            raise ValueError("migration cost must be non-negative")
        self._grid = TickGrid(1, self.speed.numerator, self.speed.denominator)
        cost = self.migration_cost / self.speed
        self._grid.unit = cost.denominator
        #: migration cost in work ticks
        self._cost = cost.numerator
        #: the current time, in ticks (``time`` is the Fraction view)
        self.tick = 0
        self._started = False
        self.jobs: Dict[int, JobState] = {}
        self._pending: List[Tuple[int, int]] = []  # (release tick, job_id) heap
        #: released, unfinished, unmissed jobs (the hot set; see active_jobs)
        self._active: Dict[int, JobState] = {}
        #: (deadline tick, job_id) heap over active jobs, with lazy deletion
        self._deadlines: List[Tuple[int, int]] = []
        #: (job_id, machine, start tick, end tick, unit), in execution order;
        #: each keeps the unit it was recorded in, so refinements skip it
        self._segs: List[Tuple[int, int, int, int, int]] = []
        self._seg_view: Optional[List[Segment]] = None
        self.missed_jobs: List[int] = []
        self._event_budget = 10_000
        #: horizon tick of the running ``run_until`` (rescaled on refinement)
        self._limit: Optional[int] = None
        #: running map chosen at the current decision point
        self._running: Dict[int, int] = {}
        #: machine → ids of jobs committed to it (kept by commit/binding);
        #: with _job_seq this answers machine_jobs in O(jobs on machine)
        #: instead of the O(all jobs) scan it replaced
        self._machine_index: Dict[int, Set[int]] = {}
        #: machine → its index entry sorted by _job_seq, until the next bind
        self._machine_sorted: Dict[int, List[int]] = {}
        #: job id → insertion rank, so index-backed listings keep the exact
        #: enumeration order of the old full scans (self.jobs is ordered)
        self._job_seq: Dict[int, int] = {}
        #: machines that ever got a commitment or processed work
        self._ever_used: Set[int] = set()
        self._last_admitted: Tuple[int, ...] = ()
        #: decision-point log when constructed with ``trace=True``
        self.trace: Optional[List[TraceEvent]] = [] if trace else None
        #: steps taken and decision points (processed slices) so far
        self.steps = 0
        self.decisions = 0
        # engine.* counters not yet handed to the obs sinks (see _flush)
        self._releases = self._completions = self._misses = 0
        self._migrations = self._preemptions = self._queries = 0
        self._steps_sent = 0
        #: inside a driver call: counters wait for its _flush
        self._busy = False
        #: obs sinks were attached when the current driver call began
        self._observe = False

    # -- ticks -----------------------------------------------------------------

    @property
    def time(self) -> Fraction:
        """The current time (exact view of :attr:`tick`)."""
        return self._grid.time(self.tick)

    @property
    def unit(self) -> int:
        """Ticks per time unit (``L``); grows when the grid is refined."""
        return self._grid.unit

    def _refine(self, factor: int) -> None:
        """Multiply the unit by ``factor`` and rescale every tick value."""
        self._grid.unit *= factor
        self.tick *= factor
        self._cost *= factor
        if self._limit is not None:
            self._limit *= factor
        for s in self.jobs.values():
            s.rel *= factor
            s.due *= factor
            s.rem *= factor
            s.extra *= factor
            if s.start is not None:
                s.start *= factor
            if s.finish is not None:
                s.finish *= factor
        # positive scaling keeps both heaps ordered
        self._pending = [(r * factor, j) for r, j in self._pending]
        self._deadlines = [(d * factor, j) for d, j in self._deadlines]

    def _to_tick(self, value: Fraction) -> int:
        """The tick of time ``value``, refining the grid if it is off it."""
        scaled = value * self._grid.unit
        if scaled.denominator != 1:
            self._refine(scaled.denominator)
        return scaled.numerator

    def laxity(self, state: JobState) -> int:
        """Laxity ``d − t − remaining work`` of ``state``, as an int.

        The unit is ``1/(L · speed denominator)``; :meth:`time_after` turns
        a laxity back into the time it elapses at.
        """
        g = self._grid
        return g.den * (state.due - self.tick) - g.num * state.rem

    def time_after(self, laxity: int) -> Fraction:
        """The time ``laxity`` (in :meth:`laxity` units) after now."""
        g = self._grid
        return Fraction(self.tick * g.den + laxity, g.unit * g.den)

    # -- driver API ----------------------------------------------------------

    def _enter(self) -> bool:
        was_busy = self._busy
        self._busy = True
        self._observe = _obs.enabled()
        return was_busy

    def _leave(self, was_busy: bool) -> None:
        self._busy = was_busy
        if not was_busy:
            self._flush()

    def _flush(self) -> None:
        """Hand the accumulated engine.* counters to the obs sinks."""
        counts = (
            ("engine.steps", self.steps - self._steps_sent),
            ("engine.releases", self._releases),
            ("engine.migrations", self._migrations),
            ("engine.preemptions", self._preemptions),
            ("engine.completions", self._completions),
            ("engine.misses", self._misses),
            ("engine.machine_queries", self._queries),
        )
        self._steps_sent = self.steps
        self._releases = self._completions = self._misses = 0
        self._migrations = self._preemptions = self._queries = 0
        if _obs.enabled():
            for name, value in counts:
                if value:
                    _obs.incr(name, value)

    def release(self, jobs: Iterable[Job]) -> None:
        """Add jobs to the simulation (releases must not lie in the past).

        Refines the tick grid when a job's numbers are off it.
        """
        grid = self._grid
        per_speed = None if grid.num == grid.den else 1 / self.speed
        # (job, processing / speed) pairs; the quotient is what a work tick counts
        jobs = [(job, job.processing if per_speed is None else job.processing * per_speed)
                for job in jobs]
        need = grid.unit
        for job, work in jobs:
            need = lcm(need, job.release.denominator, job.deadline.denominator,
                       work.denominator)
        if need != grid.unit:
            self._refine(need // grid.unit)
        was_busy = self._enter()
        try:
            unit = grid.unit
            for job, work in jobs:
                if job.id in self.jobs:
                    raise EngineError(f"job {job.id} released twice")
                r = job.release
                rel = r.numerator * (unit // r.denominator)
                if self._started and rel < self.tick:
                    raise EngineError(
                        f"job {job.id} released at {job.release} < current time {self.time}"
                    )
                d = job.deadline
                state = JobState(
                    job, grid, rel, d.numerator * (unit // d.denominator),
                    work.numerator * (unit // work.denominator),
                )
                self._job_seq[job.id] = len(self.jobs)
                self.jobs[job.id] = state
                heapq.heappush(self._pending, (rel, job.id))
                self._event_budget += _MAX_EVENTS_FACTOR
            if not self._started and self._pending:
                self.tick = min(self.tick, self._pending[0][0])
            # jobs released at or before the current time become visible (and
            # are offered to the policy for commitment) immediately
            if self._pending and self._pending[0][0] <= self.tick:
                self._admit_releases()
        finally:
            self._leave(was_busy)

    def run_until(self, horizon: Numeric) -> None:
        """Advance the simulation to exactly ``horizon``."""
        horizon = to_fraction(horizon)
        if horizon < self.time:
            raise EngineError(f"cannot run backwards to {horizon}")
        was_busy = self._enter()
        try:
            self._limit = self._to_tick(horizon)
            while self.tick < self._limit:
                self._step()
            self._started = True
            # settle: admit releases due exactly at the horizon and check
            # misses, so drivers (adversaries) observe commitments made at
            # this instant
            self._admit_releases()
            self._check_misses()
        finally:
            self._limit = None
            self._leave(was_busy)

    def run_to_completion(self) -> None:
        """Advance until no active jobs or pending releases remain."""
        was_busy = self._enter()
        try:
            while self._pending or self._active:
                self._step()
        finally:
            self._leave(was_busy)

    # -- inspection API (used by policies and adversaries) ---------------------

    def active_jobs(self) -> List[JobState]:
        """Released, unfinished, unmissed jobs at the current time."""
        return list(self._active.values())

    def state_of(self, job_id: int) -> JobState:
        return self.jobs[job_id]

    def remaining(self, job_id: int) -> Fraction:
        return self.jobs[job_id].remaining

    def committed_machine(self, job_id: int) -> Optional[int]:
        return self.jobs[job_id].committed

    def _bind(self, job_id: int, machine: int) -> None:
        """Record a commitment in the machine index (idempotent)."""
        bucket = self._machine_index.get(machine)
        if bucket is None:
            bucket = self._machine_index[machine] = set()
        if job_id not in bucket:
            bucket.add(job_id)
            self._machine_sorted.pop(machine, None)
        self._ever_used.add(machine)

    def _machine_order(self, machine: int) -> List[int]:
        """Ids committed to ``machine`` in release order (cached per bind)."""
        order = self._machine_sorted.get(machine)
        if order is None:
            order = self._machine_sorted[machine] = sorted(
                self._machine_index.get(machine, ()), key=self._job_seq.__getitem__
            )
        return order

    def _count_query(self) -> None:
        """One ``engine.machine_queries``; outside a driver call, sent now."""
        self._queries += 1
        if not self._busy:
            self._flush()

    def machine_jobs(self, machine: int) -> List[JobState]:
        """Jobs committed to ``machine`` (finished ones included).

        Served from the commitment index in O(jobs on the machine); the
        enumeration order matches the old full scan (release order).
        """
        self._count_query()
        jobs = self.jobs
        return [jobs[i] for i in self._machine_order(machine)]

    def machine_active_jobs(self, machine: int) -> List[JobState]:
        self._count_query()
        active = self._active
        return [active[i] for i in self._machine_order(machine) if i in active]

    @property
    def used_machines(self) -> Set[int]:
        """Machines that have a commitment or ever processed a job."""
        self._count_query()
        return set(self._ever_used)

    @property
    def segments(self) -> List[Segment]:
        """Executed processing, one segment per job and slice (exact times)."""
        view = self._seg_view
        if view is None or len(view) != len(self._segs):
            time: Dict[Tuple[int, int], Fraction] = {}

            def at(t: int, unit: int) -> Fraction:
                f = time.get((t, unit))
                if f is None:
                    f = time[t, unit] = Fraction(t, unit)
                return f

            view = self._seg_view = [
                Segment(j, m, at(a, u), at(b, u)) for j, m, a, b, u in self._segs
            ]
        return list(view)

    def schedule(self) -> Schedule:
        return Schedule(self.segments)

    def poll_selection(self) -> Dict[int, int]:
        """Evaluate the policy's selection at the current instant.

        Advances no time but applies the selection's side effects — in
        particular, first-processing machine *bindings* of non-migratory
        policies.  Drivers use this to observe commitments that would
        otherwise only materialize in the next step (e.g. a procrastinating
        policy binding exactly at ``a_j``).
        """
        was_busy = self._enter()
        try:
            self._admit_releases()
            self._check_misses()
            return self._validated_selection()
        finally:
            self._leave(was_busy)

    # -- policy API ------------------------------------------------------------

    def commit(self, job_id: int, machine: int) -> None:
        """Bind a job to a machine (how non-migratory policies choose)."""
        if not (0 <= machine < self.machines):
            raise EngineError(f"machine {machine} out of range 0..{self.machines - 1}")
        state = self.jobs[job_id]
        if state.committed is not None and state.committed != machine:
            raise EngineError(
                f"job {job_id} already committed to machine {state.committed}"
            )
        state.committed = machine
        self._bind(job_id, machine)

    def add_machines(self, count: int = 1) -> int:
        """Open additional machines; returns the new machine count."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.machines += count
        if count:
            _obs.incr("engine.machines_opened", count)
        return self.machines

    # -- core loop ---------------------------------------------------------------

    def _admit_releases(self) -> None:
        """Move pending jobs whose release time has come; fire on_release."""
        pending = self._pending
        if not pending or pending[0][0] > self.tick:
            self._last_admitted = ()
            return
        batch: List[JobState] = []
        while pending and pending[0][0] <= self.tick:
            _, job_id = heapq.heappop(pending)
            state = self.jobs[job_id]
            self._active[job_id] = state
            heapq.heappush(self._deadlines, (state.due, job_id))
            batch.append(state)
        self.policy.on_release(self, batch)
        self._releases += len(batch)
        self._last_admitted = tuple(s.job.id for s in batch)

    def _check_misses(self) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0][0] <= self.tick:
            _, job_id = heapq.heappop(deadlines)
            state = self.jobs[job_id]
            if state.finish is not None or state.missed:
                continue  # stale heap entry
            if state.rem > 0:
                state.missed = True
                self._active.pop(job_id, None)
                self.missed_jobs.append(job_id)
                if self.on_miss == "raise":
                    raise InfeasibleOnline(
                        f"job {job_id} missed deadline {state.job.deadline} "
                        f"with {state.remaining} work left"
                    )

    def _validated_selection(self) -> Dict[int, int]:
        selection = self.policy.select(self)
        seen_jobs: Set[int] = set()
        jobs = self.jobs
        for machine, job_id in selection.items():
            if not (0 <= machine < self.machines):
                raise EngineError(f"selection uses machine {machine} out of range")
            if job_id in seen_jobs:
                raise EngineError(f"job {job_id} selected on two machines")
            seen_jobs.add(job_id)
            state = jobs.get(job_id)
            if state is None:
                raise EngineError(f"selection references unknown job {job_id}")
            if state.rel > self.tick:
                raise EngineError(f"job {job_id} selected before its release")
            if state.finish is not None or state.missed or state.rem <= 0:
                raise EngineError(f"job {job_id} selected but not runnable")
            if state.committed is not None and state.committed != machine:
                raise EngineError(
                    f"job {job_id} committed to machine {state.committed}, "
                    f"selected on {machine}"
                )
            if not self.policy.migratory and state.committed is None:
                # first processing binds the job for non-migratory policies
                state.committed = machine
                self._bind(job_id, machine)
        return selection

    def _next_event(self, selection: Dict[int, int]) -> int:
        # The wake-up comes first: converting it may refine the grid.
        wake = self.policy.next_wakeup(self)
        woken = None
        if wake is not None:
            wake = to_fraction(wake)
            if wake > self.time:
                woken = self._to_tick(wake)
        t = self.tick
        best = self._limit
        if woken is not None and (best is None or woken < best):
            best = woken
        if self._pending:
            c = self._pending[0][0]
            if best is None or c < best:
                best = c
        if selection:
            jobs = self.jobs
            c = t + min(jobs[j].rem for j in selection.values())
            if best is None or c < best:
                best = c
        deadlines = self._deadlines
        while deadlines:
            state = self.jobs[deadlines[0][1]]
            if state.finish is None and not state.missed:
                break
            heapq.heappop(deadlines)  # drop stale entries
        if deadlines and deadlines[0][0] > t:
            c = deadlines[0][0]
            if best is None or c < best:
                best = c
        if best is None or best <= t:
            raise EngineError("engine stalled: no future events")
        return best

    def _step(self) -> None:
        """Process one inter-event slice of time."""
        self._started = True
        self._event_budget -= 1
        if self._event_budget <= 0:
            raise EngineError("event budget exhausted; policy may be thrashing")
        limit = self._limit
        if not self._pending and not self.jobs:
            if limit is not None:
                self.tick = limit
            return
        pending = self._pending
        if pending and not self._active and pending[0][0] > self.tick:
            # nothing runnable: jump to the next release (bounded by limit)
            target = pending[0][0]
            self.tick = min(target, limit) if limit is not None else target
        self._admit_releases()
        self._check_misses()
        selection = self._validated_selection()
        prev_running = self._running
        self._running = dict(selection)
        jobs = self.jobs
        # migration penalties land when a job resumes on a different machine
        migrations = 0
        cost = self._cost
        for machine, job_id in selection.items():
            state = jobs[job_id]
            last = state.last_machine
            if last is not None and last != machine:
                state.migration_count += 1
                migrations += 1
                if cost:
                    state.rem += cost
                    state.extra += cost
            state.last_machine = machine
        self.steps += 1
        if self._observe:
            self._migrations += migrations
            # Preempted: ran at the previous decision point, still has work
            # and a live deadline, but lost its machine at this one.
            if prev_running:
                selected = set(selection.values())
                active = self._active
                self._preemptions += sum(
                    1 for jid in prev_running.values()
                    if jid not in selected and jid in active
                )
        if not selection and not self._pending and not self._active:
            # nothing left to do in this slice
            if limit is not None:
                self.tick = limit
            return
        if limit is not None and self.tick >= limit:
            return
        nxt = self._next_event(selection)
        limit = self._limit  # a wake-up may have refined the grid
        if limit is not None and nxt > limit:
            nxt = limit  # never process past an explicit horizon
        start = self.tick
        span = nxt - start
        segs = self._segs
        unit = self._grid.unit
        ever_used = self._ever_used
        completed = []
        for machine, job_id in selection.items():
            state = jobs[job_id]
            segs.append((job_id, machine, start, nxt, unit))
            if state.start is None:
                state.start = start
            state.machines.add(machine)
            ever_used.add(machine)
            state.rem -= span
            if state.rem <= 0:
                if state.rem < 0:
                    # completion strictly inside the slice is impossible: the
                    # completion tick was an event candidate, so nxt ≤ finish.
                    raise EngineError("negative remaining work")  # pragma: no cover
                if state.finish is None:
                    state.finish = nxt
                    completed.append(job_id)
        self.tick = nxt
        for job_id in completed:
            del self._active[job_id]
        missed_before = len(self.missed_jobs)
        self._check_misses()
        self.decisions += 1
        self._completions += len(completed)
        self._misses += len(self.missed_jobs) - missed_before
        if self.trace is not None:
            self.trace.append(
                TraceEvent(
                    time=self._grid.time(start),
                    running=dict(selection),
                    admitted=self._last_admitted,
                    completed=tuple(completed),
                    missed=tuple(self.missed_jobs[missed_before:]),
                )
            )
            self._last_admitted = ()


def simulate(
    policy: Policy,
    instance: Instance,
    machines: int,
    speed: Numeric = 1,
    on_miss: str = "record",
) -> OnlineEngine:
    """Run ``policy`` on a static instance to completion; returns the engine."""
    engine = OnlineEngine(policy, machines=machines, speed=speed, on_miss=on_miss)
    missed: Optional[InfeasibleOnline] = None
    with _obs.span("engine.simulate", policy=type(policy).__name__,
                   machines=machines, n=len(instance)) as span:
        try:
            engine.release(instance)
            engine.run_to_completion()
        except InfeasibleOnline as exc:
            # A missed deadline is an expected trial outcome, not a span
            # error: record it and raise once the span has closed.
            missed = exc
        span.set(outcome="ok" if missed is None and not engine.missed_jobs
                 else "infeasible", steps=engine.steps,
                 decisions=engine.decisions)
    if missed is not None:
        raise missed
    return engine


def succeeds(policy: Policy, instance: Instance, machines: int, speed: Numeric = 1) -> bool:
    """True iff the policy schedules the instance with no deadline miss.

    An :class:`EngineError` is a policy bug, not a miss, and propagates.
    """
    try:
        engine = simulate(policy, instance, machines, speed, on_miss="raise")
    except InfeasibleOnline:
        return False
    return not engine.missed_jobs


def min_machines(
    policy_factory,
    instance: Instance,
    lo: int = 1,
    hi: Optional[int] = None,
    speed: Numeric = 1,
) -> int:
    """Least machine count at which ``policy_factory(k)`` succeeds.

    ``lo`` is a lower bound on the answer (pass the migratory optimum: no
    online policy beats it) and ``hi``, if given, a count known to succeed.
    The search gallops upward from ``lo`` (``lo, lo+1, lo+3, lo+7, …``),
    binary-searches between the last failure and the first success, and
    simulates no count twice.  Success is assumed monotone in the count
    between those probes; the answer ``k`` is checked against ``k − 1``, and
    :class:`~repro.online.base.LowerBoundError` is raised if ``k == lo`` but
    ``lo − 1`` succeeds too.  A fresh policy instance is created per trial via
    ``policy_factory(k)``.
    """
    if len(instance) == 0:
        return 0
    lo = max(1, lo)
    known: Dict[int, bool] = {}
    if hi is not None:
        known[hi] = True

    def ok(k: int) -> bool:
        if k not in known:
            known[k] = succeeds(policy_factory(k), instance, k, speed)
        return known[k]

    failed = None
    k = lo
    while not ok(k):
        failed = k
        k = lo + 2 * (k - lo) + 1
        if hi is not None:
            k = min(k, hi)
        if k > 4 * len(instance) + 64:
            raise RuntimeError("policy does not succeed at any sane machine count")
    if failed is None:
        # No failure seen: k == lo, and the answer stands only if lo − 1
        # fails (zero machines cannot run a job).
        if k > 1 and ok(k - 1):
            raise LowerBoundError(
                f"policy succeeds on {k - 1} machines, below the lower bound {lo}"
            )
        return k
    while k - failed > 1:
        mid = (failed + k) // 2
        if ok(mid):
            k = mid
        else:
            failed = mid
    return k
