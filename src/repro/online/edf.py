"""Earliest Deadline First — the classic migratory baseline.

Phillips et al. showed EDF has competitive ratio ``Ω(Δ)`` for machine
minimization (it is the weak baseline the paper contrasts with LLF), but it
is *optimal* for α-loose instances up to the factor of Theorem 13:
EDF on ``m/(1−α)²`` machines schedules any α-loose instance feasibly, and on
agreeable instances it never preempts a started job (Corollary 1).
"""

from __future__ import annotations

from typing import Dict, Sequence

from .base import JobState, Policy
from .engine import OnlineEngine


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


def edf_key(state: JobState):
    """Earliest deadline first, ties by job id (tick fields: one decision point)."""
    return (state.due, state.job.id)


class EDF(Policy):
    """Migratory EDF: run the ``k`` unfinished jobs with earliest deadlines."""

    migratory = True

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        active = sorted(engine.active_jobs(), key=edf_key)
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
            if state.start is not None and state.rem > 0:
                machine = state.committed
                if machine is None:  # pragma: no cover - bound at first start
                    raise RuntimeError("started job without commitment")
                selection[machine] = state.job.id
                busy_jobs.add(state.job.id)
        waiting = sorted(
            (
                s
                for s in engine.active_jobs()
                if s.job.id not in busy_jobs and s.start is None
            ),
            key=edf_key,
        )
        free = [m for m in range(engine.machines) if m not in selection]
        for machine, state in zip(free, waiting):
            selection[machine] = state.job.id
        return selection
