"""Non-migratory online policies: commit-at-release + machine-local EDF.

The paper's model (Section 2) requires each job to be processed by exactly
one machine.  Every non-migratory policy here commits the machine at release
time and then runs preemptive EDF *locally* on each machine, which is
optimal per machine once the partition is fixed.

Admission is decided by an exact machine-local feasibility oracle: a set of
released jobs with remaining work is EDF-feasible on a speed-``s`` machine
iff for every deadline ``d``, the remaining work of jobs due by ``d`` fits
in ``s · (d − t)``.  (All candidate jobs are already released, so this
classical condition is exact.)  The oracle runs on the engine's integer
ticks, where a work tick is one tick of machine time, so the speed drops
out: remaining work ticks due by ``d`` must fit in ``d − t`` ticks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .base import JobState, Policy
from .edf import edf_key
from .engine import OnlineEngine


def local_edf_feasible(t, workload: Sequence[Tuple], speed=1) -> bool:
    """Feasibility of released work on one machine from time ``t``.

    ``workload`` is a list of ``(deadline, remaining_work)`` pairs, all
    released by ``t``.  EDF meets all deadlines iff for every deadline ``d``:
    ``Σ_{d_i ≤ d} remaining_i ≤ speed · (d − t)``.  The policies pass the
    engine's int ticks, where a work tick is one tick of machine time, so
    their ``speed`` is 1.
    """
    if speed != 1:
        workload = [(deadline, work / speed) for deadline, work in workload]
    acc = 0
    for deadline, work in sorted(workload):
        acc += work
        if acc > deadline - t:
            return False
    return True


def machine_workload(engine: OnlineEngine, machine: int) -> List[Tuple[int, int]]:
    """(deadline tick, remaining work ticks) of the active jobs on ``machine``."""
    return [
        (s.due, s.rem)
        for s in engine.machine_active_jobs(machine)
        if s.rem > 0
    ]


class CommitAtReleasePolicy(Policy):
    """Shared scaffolding: commit on release, run machine-local EDF."""

    migratory = False

    def on_release(self, engine: OnlineEngine, jobs: Sequence[JobState]) -> None:
        for state in sorted(jobs, key=edf_key):
            machine = self.choose_machine(engine, state)
            if machine is None:
                machine = self.fallback_machine(engine, state)
            engine.commit(state.job.id, machine)

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        """Return a machine for the job, or ``None`` if no machine admits it."""
        raise NotImplementedError

    def fallback_machine(self, engine: OnlineEngine, state: JobState) -> int:
        """Where to put a job no machine admits (least-loaded by work)."""
        loads = [0] * engine.machines
        for s in engine.jobs.values():
            if s.committed is not None and s.active:
                loads[s.committed] += s.rem
        return min(range(engine.machines), key=lambda m: (loads[m], m))

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        selection: Dict[int, int] = {}
        for machine in range(engine.machines):
            candidates = engine.machine_active_jobs(machine)
            runnable = [s for s in candidates if s.rem > 0]
            if runnable:
                best = min(runnable, key=edf_key)
                selection[machine] = best.job.id
        return selection


class FirstFitEDF(CommitAtReleasePolicy):
    """Commit to the lowest-index machine whose local EDF stays feasible."""

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.tick
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            workload.append((state.due, state.rem))
            if local_edf_feasible(t, workload):
                return machine
        return None


class BestFitEDF(CommitAtReleasePolicy):
    """Commit to the feasible machine with the most committed work (tightest fit)."""

    def choose_machine(self, engine: OnlineEngine, state: JobState) -> Optional[int]:
        t = engine.tick
        best_machine: Optional[int] = None
        best_load = -1
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            load = sum(w for _, w in workload)
            workload.append((state.due, state.rem))
            if local_edf_feasible(t, workload):
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
        selection: Dict[int, int] = {}
        committed = []
        urgent = []
        for state in engine.active_jobs():
            if state.committed is not None:
                committed.append(state)
            elif engine.laxity(state) <= 0:
                urgent.append(state)
        by_machine: Dict[int, List[JobState]] = {}
        for state in committed:
            by_machine.setdefault(state.committed, []).append(state)
        for machine, states in by_machine.items():
            best = min(states, key=edf_key)
            selection[machine] = best.job.id
        free = (m for m in range(engine.machines) if m not in selection)
        for state in sorted(urgent, key=edf_key):
            machine = next(free, None)
            if machine is None:
                break  # no machine left: the job will miss (lazy is risky)
            selection[machine] = state.job.id
        return selection

    def next_wakeup(self, engine: OnlineEngine):
        """Wake at the next latest-start time of an uncommitted job."""
        laxities = [
            lax
            for lax in (engine.laxity(s) for s in engine.active_jobs()
                        if s.committed is None)
            if lax > 0
        ]
        return engine.time_after(min(laxities)) if laxities else None


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
        t = engine.tick
        feasible = []
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            workload.append((state.due, state.rem))
            if local_edf_feasible(t, workload):
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
        t = engine.tick
        best_machine: Optional[int] = None
        best_load: Optional[int] = None
        for machine in range(engine.machines):
            workload = machine_workload(engine, machine)
            load = sum(w for _, w in workload)
            workload.append((state.due, state.rem))
            if local_edf_feasible(t, workload):
                if best_load is None or load < best_load:
                    best_load = load
                    best_machine = machine
        return best_machine
