"""Reference oracle: the ``Fraction`` online engine and its policies.

Verbatim copies of the original ``online/engine.py`` (with the old
``JobState`` dataclass of ``online/base.py``, renamed ``RefJobState``) and of
the policies that read engine state (``online/edf.py``, ``online/llf.py``,
``online/nonmigratory.py`` including ``local_edf_feasible``, and
``online/doubling.py``), kept as differential oracles for the integer-tick
engine that replaced them.  Only the glue changed: imports are absolute,
``run_doubling`` builds this module's engine, and the laminar budget
policies of ``core/laminar.py`` (which read only ``Job`` values) are
re-based onto this module's ``CommitAtReleasePolicy`` by
:func:`ref_policy_class`.  Nothing here calls the engine under test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.instance import Instance, paper_order_key
from repro.model.intervals import Numeric, to_fraction
from repro.model.job import Job
from repro.model.schedule import Schedule, Segment
from repro.obs import core as _obs
from repro.online.base import EngineError, InfeasibleOnline, Policy


@dataclass
class RefJobState:
    """Mutable per-job bookkeeping inside the engine."""

    job: Job
    remaining: Fraction
    #: machine the job is committed to (non-migratory), if any
    committed: Optional[int] = None
    #: first time the job was ever processed
    started_at: Optional[Fraction] = None
    finished_at: Optional[Fraction] = None
    missed: bool = False
    #: machines that ever processed the job (for migration accounting)
    machines: set = field(default_factory=set)
    #: machine that processed the job most recently
    last_machine: Optional[int] = None
    #: number of migrations suffered (changes of processing machine)
    migration_count: int = 0
    #: extra work added by migration penalties (engine migration_cost)
    overhead: Fraction = Fraction(0)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None

    @property
    def active(self) -> bool:
        """Released, not finished, not (yet) missed."""
        return not self.finished and not self.missed

    def laxity_at(self, t: Fraction) -> Fraction:
        return self.job.deadline - t - self.remaining


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
        self.on_miss = on_miss
        #: extra work a job incurs each time it resumes on a new machine
        #: (the practical overhead the paper's non-migratory model avoids)
        self.migration_cost = to_fraction(migration_cost)
        if self.migration_cost < 0:
            raise ValueError("migration cost must be non-negative")
        self.time: Fraction = Fraction(0)
        self._started = False
        self.jobs: Dict[int, RefJobState] = {}
        self._pending: List[Tuple[Fraction, int]] = []  # (release, job_id) heap
        #: released, unfinished, unmissed jobs (the hot set; see active_jobs)
        self._active: Dict[int, RefJobState] = {}
        #: (deadline, job_id) heap over active jobs, with lazy deletion
        self._deadlines: List[Tuple[Fraction, int]] = []
        self.segments: List[Segment] = []
        self.missed_jobs: List[int] = []
        self._event_budget = 10_000
        #: running map chosen at the current decision point
        self._running: Dict[int, int] = {}
        #: machine → ids of jobs committed to it (kept by commit/binding);
        #: with _job_seq this answers machine_jobs in O(jobs on machine)
        #: instead of the O(all jobs) scan it replaced
        self._machine_index: Dict[int, Set[int]] = {}
        #: job id → insertion rank, so index-backed listings keep the exact
        #: enumeration order of the old full scans (self.jobs is ordered)
        self._job_seq: Dict[int, int] = {}
        #: machines that ever got a commitment or processed work
        self._ever_used: Set[int] = set()
        #: decision-point log when constructed with ``trace=True``
        self.trace: Optional[List[TraceEvent]] = [] if trace else None

    # -- driver API ----------------------------------------------------------

    def release(self, jobs: Iterable[Job]) -> None:
        """Add jobs to the simulation (releases must not lie in the past)."""
        for job in jobs:
            if job.id in self.jobs:
                raise EngineError(f"job id {job.id} released twice")
            if self._started and job.release < self.time:
                raise EngineError(
                    f"job {job.id} released at {job.release} < current time {self.time}"
                )
            self._job_seq[job.id] = len(self.jobs)
            self.jobs[job.id] = RefJobState(job=job, remaining=job.processing)
            heapq.heappush(self._pending, (job.release, job.id))
            self._event_budget += _MAX_EVENTS_FACTOR
        if not self._started and self._pending:
            self.time = min(self.time, self._pending[0][0])
        # jobs released at or before the current time become visible (and
        # are offered to the policy for commitment) immediately
        if self._pending and self._pending[0][0] <= self.time:
            self._admit_releases()

    def run_until(self, horizon: Numeric) -> None:
        """Advance the simulation to exactly ``horizon``."""
        horizon = to_fraction(horizon)
        if horizon < self.time:
            raise EngineError(f"cannot run backwards to {horizon}")
        while self.time < horizon:
            self._step(limit=horizon)
        self._started = True
        # settle: admit releases due exactly at the horizon and check misses,
        # so drivers (adversaries) observe commitments made at this instant
        self._admit_releases()
        self._check_misses()

    def run_to_completion(self) -> None:
        """Advance until no active jobs or pending releases remain."""
        while self._pending or self._active:
            self._step(limit=None)

    # -- inspection API (used by policies and adversaries) ---------------------

    def active_jobs(self) -> List[RefJobState]:
        """Released, unfinished, unmissed jobs at the current time."""
        return list(self._active.values())

    def state_of(self, job_id: int) -> RefJobState:
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
        bucket.add(job_id)
        self._ever_used.add(machine)

    def machine_jobs(self, machine: int) -> List[RefJobState]:
        """Jobs committed to ``machine`` (finished ones included).

        Served from the commitment index in O(jobs on the machine); the
        enumeration order matches the old full scan (release order).
        """
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        ids = self._machine_index.get(machine)
        if not ids:
            return []
        return [self.jobs[i] for i in sorted(ids, key=self._job_seq.__getitem__)]

    def machine_active_jobs(self, machine: int) -> List[RefJobState]:
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        ids = self._machine_index.get(machine)
        if not ids:
            return []
        return [
            self.jobs[i]
            for i in sorted(ids, key=self._job_seq.__getitem__)
            if i in self._active
        ]

    @property
    def used_machines(self) -> Set[int]:
        """Machines that have a commitment or ever processed a job."""
        if _obs.enabled():
            _obs.incr("engine.machine_queries")
        return set(self._ever_used)

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
        self._admit_releases()
        self._check_misses()
        return self._validated_selection()

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
        batch: List[RefJobState] = []
        while self._pending and self._pending[0][0] <= self.time:
            _, job_id = heapq.heappop(self._pending)
            state = self.jobs[job_id]
            self._active[job_id] = state
            heapq.heappush(self._deadlines, (state.job.deadline, job_id))
            batch.append(state)
        if batch:
            self.policy.on_release(self, batch)
            _obs.incr("engine.releases", len(batch))
        self._last_admitted = tuple(s.job.id for s in batch)

    def _check_misses(self) -> None:
        while self._deadlines and self._deadlines[0][0] <= self.time:
            _, job_id = heapq.heappop(self._deadlines)
            state = self.jobs[job_id]
            if state.finished or state.missed:
                continue  # stale heap entry
            if state.remaining > 0:
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
        for machine, job_id in selection.items():
            if not (0 <= machine < self.machines):
                raise EngineError(f"selection uses machine {machine} out of range")
            if job_id in seen_jobs:
                raise EngineError(f"job {job_id} selected on two machines")
            seen_jobs.add(job_id)
            state = self.jobs.get(job_id)
            if state is None:
                raise EngineError(f"selection references unknown job {job_id}")
            if state.job.release > self.time:
                raise EngineError(f"job {job_id} selected before its release")
            if not state.active or state.remaining <= 0:
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

    def _next_event(self, selection: Dict[int, int], limit: Optional[Fraction]) -> Fraction:
        candidates: List[Fraction] = []
        if self._pending:
            candidates.append(self._pending[0][0])
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            candidates.append(self.time + state.remaining / self.speed)
        while self._deadlines and (
            self.jobs[self._deadlines[0][1]].finished
            or self.jobs[self._deadlines[0][1]].missed
        ):
            heapq.heappop(self._deadlines)  # drop stale entries
        if self._deadlines and self._deadlines[0][0] > self.time:
            candidates.append(self._deadlines[0][0])
        wake = self.policy.next_wakeup(self)
        if wake is not None:
            wake = to_fraction(wake)
            if wake > self.time:
                candidates.append(wake)
        if limit is not None:
            candidates.append(limit)
        future = [c for c in candidates if c > self.time]
        if not future:
            raise EngineError("engine stalled: no future events")
        return min(future)

    def _step(self, limit: Optional[Fraction]) -> None:
        """Process one inter-event slice of time."""
        self._started = True
        self._event_budget -= 1
        if self._event_budget <= 0:
            raise EngineError("event budget exhausted; policy may be thrashing")
        if not self._pending and not self.jobs:
            if limit is not None:
                self.time = limit
            return
        if self._pending and not self.active_jobs() and self._pending[0][0] > self.time:
            # nothing runnable: jump to the next release (bounded by limit)
            target = self._pending[0][0]
            self.time = min(target, limit) if limit is not None else target
        self._admit_releases()
        self._check_misses()
        selection = self._validated_selection()
        prev_running = self._running
        self._running = dict(selection)
        # migration penalties land when a job resumes on a different machine
        migrations = 0
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            if state.last_machine is not None and state.last_machine != machine:
                state.migration_count += 1
                migrations += 1
                if self.migration_cost > 0:
                    state.remaining += self.migration_cost
                    state.overhead += self.migration_cost
            state.last_machine = machine
        if _obs.enabled():
            _obs.incr("engine.steps")
            if migrations:
                _obs.incr("engine.migrations", migrations)
            # Preempted: ran at the previous decision point, still has work
            # and a live deadline, but lost its machine at this one.
            selected = set(selection.values())
            preempted = sum(
                1 for jid in prev_running.values()
                if jid not in selected and jid in self._active
            )
            if preempted:
                _obs.incr("engine.preemptions", preempted)
        if not selection and not self._pending and not self.active_jobs():
            # nothing left to do in this slice
            if limit is not None:
                self.time = limit
            return
        if limit is not None and self.time >= limit:
            return
        nxt = self._next_event(selection, limit)
        if limit is not None and nxt > limit:
            nxt = limit  # never process past an explicit horizon
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            self.segments.append(Segment(job_id, machine, self.time, nxt))
            if state.started_at is None:
                state.started_at = self.time
            state.machines.add(machine)
            self._ever_used.add(machine)
            state.remaining -= (nxt - self.time) * self.speed
            if state.remaining < 0:
                # completion strictly inside the slice is impossible: the
                # completion time was an event candidate, so nxt ≤ finish.
                raise EngineError("negative remaining work")  # pragma: no cover
        start_time = self.time
        self.time = nxt
        completed = []
        for machine, job_id in selection.items():
            state = self.jobs[job_id]
            if state.remaining == 0 and not state.finished:
                state.finished_at = self.time
                self._active.pop(job_id, None)
                completed.append(job_id)
        missed_before = len(self.missed_jobs)
        self._check_misses()
        newly_missed = tuple(self.missed_jobs[missed_before:])
        admitted = getattr(self, "_last_admitted", ())
        if self.trace is not None:
            self.trace.append(
                TraceEvent(
                    time=start_time,
                    running=dict(selection),
                    admitted=admitted,
                    completed=tuple(completed),
                    missed=newly_missed,
                )
            )
            self._last_admitted = ()
        if _obs.enabled():
            if completed:
                _obs.incr("engine.completions", len(completed))
            if newly_missed:
                _obs.incr("engine.misses", len(newly_missed))
            _obs.event(
                "engine.decision",
                t=str(start_time),
                machines=len(selection),
                admitted=len(admitted),
                completed=len(completed),
                missed=len(newly_missed),
            )


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
                 else "infeasible")
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

    Assumes success is monotone in the machine count (true for every policy
    in this repo); performs binary search with a geometric upper-bound scan.
    A fresh policy instance is created per trial via ``policy_factory(k)``.
    """
    if len(instance) == 0:
        return 0
    if hi is None:
        hi = max(lo, 1)
        while not succeeds(policy_factory(hi), instance, hi, speed):
            hi *= 2
            if hi > 4 * len(instance) + 64:
                raise RuntimeError("policy does not succeed at any sane machine count")
    lo = max(1, lo)
    while lo < hi:
        mid = (lo + hi) // 2
        if succeeds(policy_factory(mid), instance, mid, speed):
            hi = mid
        else:
            lo = mid + 1
    return lo


def stable_machine_assignment(
    engine: OnlineEngine, chosen_ids: Sequence[int]
) -> Dict[int, int]:
    """Map chosen jobs to machines, keeping already-running jobs in place.

    Keeps migrations and preemptions at representation minimum: a job that
    was running in the previous slice and is chosen again stays on its
    machine; the rest fill the free machines in index order.
    """
    previous = getattr(engine, "_running", {})
    job_to_machine = {job_id: machine for machine, job_id in previous.items()}
    selection: Dict[int, int] = {}
    unplaced = []
    for job_id in chosen_ids:
        machine = job_to_machine.get(job_id)
        if machine is not None and machine < engine.machines and machine not in selection:
            selection[machine] = job_id
        else:
            unplaced.append(job_id)
    free = (m for m in range(engine.machines) if m not in selection)
    for job_id in unplaced:
        machine = next(free)
        selection[machine] = job_id
    return selection


class EDF(Policy):
    """Migratory EDF: run the ``k`` unfinished jobs with earliest deadlines."""

    migratory = True

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        active = sorted(
            engine.active_jobs(), key=lambda s: (s.job.deadline, s.job.id)
        )
        chosen = [s.job.id for s in active[: engine.machines]]
        return stable_machine_assignment(engine, chosen)


class NonPreemptiveEDF(Policy):
    """EDF that never preempts a started job.

    On agreeable instances plain EDF already has this property (Corollary 1);
    this policy enforces it on arbitrary instances, yielding the
    non-preemptive baseline used in Section 6.  Started jobs keep their
    machine; free machines take the unstarted active jobs with the earliest
    deadlines.  Non-preemptive schedules are trivially non-migratory.
    """

    migratory = False

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        selection: Dict[int, int] = {}
        busy_jobs = set()
        for state in engine.active_jobs():
            if state.started_at is not None and state.remaining > 0:
                machine = state.committed
                if machine is None:  # pragma: no cover - bound at first start
                    raise RuntimeError("started job without commitment")
                selection[machine] = state.job.id
                busy_jobs.add(state.job.id)
        waiting = sorted(
            (
                s
                for s in engine.active_jobs()
                if s.job.id not in busy_jobs and s.started_at is None
            ),
            key=lambda s: (s.job.deadline, s.job.id),
        )
        free = [m for m in range(engine.machines) if m not in selection]
        for machine, state in zip(free, waiting):
            selection[machine] = state.job.id
        return selection


class LLF(Policy):
    """Migratory Least Laxity First with exact crossover wake-ups."""

    migratory = True

    def _ranked(self, engine: OnlineEngine) -> List[Tuple[Fraction, int, JobState]]:
        t = engine.time
        return sorted(
            ((s.laxity_at(t), s.job.id, s) for s in engine.active_jobs()),
            key=lambda item: (item[0], item[1]),
        )

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        ranked = self._ranked(engine)
        chosen = [s.job.id for _, _, s in ranked[: engine.machines]]
        return stable_machine_assignment(engine, chosen)

    def next_wakeup(self, engine: OnlineEngine) -> Optional[Fraction]:
        """Earliest future time a waiting job's laxity undercuts a running one.

        Running jobs keep laxity constant; a waiting job's laxity decreases
        at rate one.  The first inversion with the *largest* running laxity
        happens after exactly ``ℓ_wait(t) − max ℓ_run(t)`` time units (only
        relevant when all machines are busy and someone waits).
        """
        ranked = self._ranked(engine)
        k = engine.machines
        if len(ranked) <= k or k == 0:
            return None
        max_running_laxity = ranked[k - 1][0]
        min_waiting_laxity = ranked[k][0]
        gap = min_waiting_laxity - max_running_laxity
        wakeups = []
        if gap > 0:
            wakeups.append(engine.time + gap)
        # Safety wake-up: a waiting job whose laxity reaches zero must start
        # immediately; with laxity ties (gap == 0) the id tie-break holds the
        # current choice until then (continuous-time LLF is ill-defined under
        # ties; this is the standard deterministic discretization).
        for laxity, _, _ in ranked[k:]:
            if laxity > 0:
                wakeups.append(engine.time + laxity)
                break  # ranked by laxity: the first positive one is minimal
        future = [w for w in wakeups if w > engine.time]
        return min(future) if future else None


def local_edf_feasible(
    t: Fraction,
    workload: Sequence[Tuple[Fraction, Fraction]],
    speed: Fraction,
) -> bool:
    """Feasibility of released work on one machine from time ``t``.

    ``workload`` is a list of ``(deadline, remaining_work)`` pairs, all
    released by ``t``.  EDF meets all deadlines iff for every deadline ``d``:
    ``Σ_{d_i ≤ d} remaining_i ≤ speed · (d − t)``.
    """
    acc = Fraction(0)
    for deadline, work in sorted(workload):
        acc += work
        if acc > speed * (deadline - t):
            return False
    return True


def machine_workload(engine: OnlineEngine, machine: int) -> List[Tuple[Fraction, Fraction]]:
    """(deadline, remaining) of the active jobs committed to ``machine``."""
    return [
        (s.job.deadline, s.remaining)
        for s in engine.machine_active_jobs(machine)
        if s.remaining > 0
    ]


class CommitAtReleasePolicy(Policy):
    """Shared scaffolding: commit on release, run machine-local EDF."""

    migratory = False

    def on_release(self, engine: OnlineEngine, jobs: Sequence[JobState]) -> None:
        for state in sorted(jobs, key=lambda s: (s.job.deadline, s.job.id)):
            machine = self.choose_machine(engine, state)
            if machine is None:
                machine = self.fallback_machine(engine, state)
            engine.commit(state.job.id, machine)

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        """Return a machine for the job, or ``None`` if no machine admits it."""
        raise NotImplementedError

    def fallback_machine(self, engine: OnlineEngine, state: JobState) -> int:
        """Where to put a job no machine admits (least-loaded by work)."""
        loads = [Fraction(0)] * engine.machines
        for s in engine.jobs.values():
            if s.committed is not None and s.active:
                loads[s.committed] += s.remaining
        return min(range(engine.machines), key=lambda m: (loads[m], m))

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        selection: Dict[int, int] = {}
        for machine in range(engine.machines):
            candidates = engine.machine_active_jobs(machine)
            runnable = [s for s in candidates if s.remaining > 0]
            if runnable:
                best = min(runnable, key=lambda s: (s.job.deadline, s.job.id))
                selection[machine] = best.job.id
        return selection


class FirstFitEDF(CommitAtReleasePolicy):
    """Commit to the lowest-index machine whose local EDF stays feasible."""

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.time
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            workload.append((state.job.deadline, state.remaining))
            if local_edf_feasible(t, workload, engine.speed):
                return machine
        return None


class BestFitEDF(CommitAtReleasePolicy):
    """Commit to the feasible machine with the most committed work (tightest fit)."""

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.time
        best_machine: Optional[int] = None
        best_load = Fraction(-1)
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            load = sum((w for _, w in workload), Fraction(0))
            workload.append((state.job.deadline, state.remaining))
            if local_edf_feasible(t, workload, engine.speed):
                if load > best_load:
                    best_load = load
                    best_machine = machine
        return best_machine


class DeferredEDF(Policy):
    """Procrastinating non-migratory policy: commits only at ``a_j``.

    The paper's lower-bound argument observes that *any* non-migratory
    algorithm must bind a job to a machine by its latest start time
    ``a_j = r_j + ℓ_j``.  This policy defers exactly that long (the engine
    binds a job at its first processing), so it exercises the adversary's
    deferred-commitment path: no machine information exists at release time.

    Started jobs run machine-local EDF; an unstarted job is placed on a free
    machine only once its laxity hits zero (then it runs continuously).
    """

    migratory = False

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        t = engine.time
        selection: Dict[int, int] = {}
        committed = []
        urgent = []
        for state in engine.active_jobs():
            if state.committed is not None:
                committed.append(state)
            elif state.laxity_at(t) <= 0:
                urgent.append(state)
        by_machine: Dict[int, List[JobState]] = {}
        for state in committed:
            by_machine.setdefault(state.committed, []).append(state)
        for machine, states in by_machine.items():
            best = min(states, key=lambda s: (s.job.deadline, s.job.id))
            selection[machine] = best.job.id
        free = (m for m in range(engine.machines) if m not in selection)
        for state in sorted(urgent, key=lambda s: (s.job.deadline, s.job.id)):
            machine = next(free, None)
            if machine is None:
                break  # no machine left: the job will miss (lazy is risky)
            selection[machine] = state.job.id
        return selection

    def next_wakeup(self, engine: OnlineEngine):
        """Wake at the next latest-start time of an uncommitted job."""
        t = engine.time
        starts = [
            t + s.laxity_at(t)
            for s in engine.active_jobs()
            if s.committed is None and s.laxity_at(t) > 0
        ]
        return min(starts) if starts else None


class SeededRandomFit(CommitAtReleasePolicy):
    """Commit to a uniformly random *feasible* machine (seeded).

    Used to probe the Lemma 2 adversary against arbitrary (rather than
    greedy) commitment behaviour: the lower bound holds for every
    deterministic algorithm, and a seeded random policy is deterministic
    once the seed is fixed.
    """

    def __init__(self, seed: int = 0) -> None:
        import random

        self._rng = random.Random(seed)

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.time
        feasible = []
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            workload.append((state.job.deadline, state.remaining))
            if local_edf_feasible(t, workload, engine.speed):
                feasible.append(machine)
        if not feasible:
            return None
        return self._rng.choice(feasible)


class EmptiestFitEDF(CommitAtReleasePolicy):
    """Commit to the feasible machine with the least committed work.

    A spreading policy: it is the natural worst case for the Lemma 2
    adversary, which punishes algorithms for scattering jobs over machines.
    """

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.time
        best_machine: Optional[int] = None
        best_load: Optional[Fraction] = None
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            load = sum((w for _, w in workload), Fraction(0))
            workload.append((state.job.deadline, state.remaining))
            if local_edf_feasible(t, workload, engine.speed):
                if best_load is None or load < best_load:
                    best_load = load
                    best_machine = machine
        return best_machine


class PhaseAssigner:
    """Assignment logic for one phase's machine range."""

    def assign(
        self, engine: OnlineEngine, state: JobState, machines: Sequence[int]
    ) -> Optional[int]:
        """Return a machine from ``machines`` or ``None`` to reject."""
        raise NotImplementedError


class FirstFitAssigner(PhaseAssigner):
    """EDF-admission first fit within the phase's machine range."""

    def assign(self, engine, state, machines):
        t = engine.time
        for machine in machines:
            workload = [
                (s.job.deadline, s.remaining)
                for s in engine.machine_active_jobs(machine)
                if s.remaining > 0
            ]
            workload.append((state.job.deadline, state.remaining))
            if local_edf_feasible(t, workload, engine.speed):
                return machine
        return None


class LaminarAssigner(PhaseAssigner):
    """The Section 5.1 budget scheme scoped to one phase.

    Identical logic to :class:`~repro.core.laminar.LaminarBudgetPolicy` but
    returning ``None`` instead of raising when every budget is exhausted,
    so the doubling wrapper can move to the next phase.
    """

    def __init__(self) -> None:
        self._assigned: Dict[int, List[Job]] = {}
        self._charged: Dict[Tuple[int, int], Fraction] = {}

    def assign(self, engine, state, machines):
        from repro.core.laminar import _chain_key, _min_by_domination

        job = state.job
        m_prime = len(machines)
        responsibles: List[Tuple[Job, int]] = []
        for machine in machines:
            intersecting = [
                j
                for j in self._assigned.get(machine, [])
                if j.interval.intersects(job.interval)
            ]
            if not intersecting:
                self._assigned.setdefault(machine, []).append(job)
                return machine
            responsibles.append((_min_by_domination(intersecting), machine))
        responsibles.sort(key=lambda item: _chain_key(item[0]))
        for i, (candidate, machine) in enumerate(responsibles, start=1):
            budget = candidate.laxity / m_prime
            used = self._charged.get((candidate.id, i), Fraction(0))
            if budget - used >= job.window:
                self._charged[(candidate.id, i)] = used + job.window
                self._assigned.setdefault(machine, []).append(job)
                return machine
        return None


@dataclass
class Phase:
    guess: int
    offset: int
    size: int
    assigner: PhaseAssigner

    @property
    def machines(self) -> range:
        return range(self.offset, self.offset + self.size)


class DoublingPolicy(Policy):
    """Guess-and-double wrapper around a per-phase assigner.

    ``assigner_factory(guess)`` builds the phase assigner; ``budget_fn(μ)``
    maps the guess to the phase's machine count (default: identity, i.e. the
    wrapped algorithm uses ``f(μ) = μ`` machines when the optimum is ``μ``).
    """

    migratory = False

    def __init__(
        self,
        assigner_factory: Callable[[int], PhaseAssigner] = lambda mu: FirstFitAssigner(),
        budget_fn: Callable[[int], int] = lambda mu: mu,
        initial_guess: int = 1,
    ) -> None:
        self.assigner_factory = assigner_factory
        self.budget_fn = budget_fn
        self.initial_guess = initial_guess
        self.phases: List[Phase] = []

    # -- phases ---------------------------------------------------------------

    def _open_phase(self, engine: OnlineEngine) -> Phase:
        guess = self.phases[-1].guess * 2 if self.phases else self.initial_guess
        size = max(1, self.budget_fn(guess))
        offset = self.phases[-1].offset + self.phases[-1].size if self.phases else 0
        needed = offset + size - engine.machines
        if needed > 0:
            engine.add_machines(needed)
        phase = Phase(guess, offset, size, self.assigner_factory(guess))
        self.phases.append(phase)
        return phase

    @property
    def current_guess(self) -> int:
        return self.phases[-1].guess if self.phases else 0

    @property
    def total_machines_opened(self) -> int:
        return sum(p.size for p in self.phases)

    # -- policy interface -------------------------------------------------------

    def on_release(self, engine: OnlineEngine, jobs: Sequence[JobState]) -> None:
        for state in sorted(jobs, key=lambda s: paper_order_key(s.job)):
            machine = self._assign(engine, state)
            engine.commit(state.job.id, machine)

    def _assign(self, engine: OnlineEngine, state: JobState) -> int:
        if not self.phases:
            self._open_phase(engine)
        # try the newest phase first: older phases are considered full
        machine = self.phases[-1].assigner.assign(
            engine, state, list(self.phases[-1].machines)
        )
        while machine is None:
            phase = self._open_phase(engine)
            machine = phase.assigner.assign(engine, state, list(phase.machines))
            if machine is None and phase.guess > 4 * len(engine.jobs) + 8:
                raise EngineError(
                    "doubling diverged: assigner rejects a job even on a "
                    "phase larger than the trivial bound"
                )
        return machine

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        selection: Dict[int, int] = {}
        for machine in range(engine.machines):
            runnable = [
                s for s in engine.machine_active_jobs(machine) if s.remaining > 0
            ]
            if runnable:
                best = min(runnable, key=lambda s: (s.job.deadline, s.job.id))
                selection[machine] = best.job.id
        return selection


def run_doubling(instance, assigner_factory=None, budget_fn=None) -> Tuple[OnlineEngine, DoublingPolicy]:
    """Convenience: simulate the doubling wrapper on an instance.

    The engine starts with a single machine; the wrapper opens more on
    demand.  Returns ``(engine, policy)`` so callers can inspect phases.
    """
    kwargs = {}
    if assigner_factory is not None:
        kwargs["assigner_factory"] = assigner_factory
    if budget_fn is not None:
        kwargs["budget_fn"] = budget_fn
    policy = DoublingPolicy(**kwargs)
    engine = OnlineEngine(policy, machines=1)
    engine.release(instance)
    engine.run_to_completion()
    return engine, policy


JobState = RefJobState


def ref_policy_class(cls):
    """``cls`` re-based onto this module's policy scaffolding.

    Policies whose own methods read only ``Job`` values (the laminar budget
    schemes, ``SpeedFit``) inherit their engine-facing methods — machine-local
    EDF selection, admission — from ``online/nonmigratory.py``.  The copy
    keeps ``cls``'s own methods and swaps that base for the verbatim one here.
    """
    import repro.online.nonmigratory as live

    bases = {live.CommitAtReleasePolicy: CommitAtReleasePolicy,
             live.FirstFitEDF: FirstFitEDF}
    for klass in cls.__mro__:
        if klass in bases:
            own = {k: v for k, v in vars(cls).items()
                   if k not in ("__dict__", "__weakref__")}
            return type("Ref" + cls.__name__, (bases[klass],), own)
    raise TypeError(f"{cls.__name__} has no reference base")
