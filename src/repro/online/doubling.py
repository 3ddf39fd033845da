"""Online guess-and-double for the unknown optimum ``m``.

Section 2 of the paper: *"Throughout this paper we assume that the optimum
number of machines is known to the online algorithm.  It has been shown in
[4] that we can do so at the loss of a small constant factor."*  This module
makes that reduction executable.

The wrapper maintains a guess ``μ`` and a *phase* — a dedicated machine
range of size ``budget_fn(μ)`` managed by a fresh per-phase assigner.  When
the assigner rejects a job (its phase budget cannot absorb it), the guess
doubles and a new phase opens; committed jobs never move (the schedule stays
non-migratory).  Since phase sizes grow geometrically, the total machine
count is at most ``Σ_{i ≤ log₂ m̂} budget_fn(2^i) ≤ 2·budget_fn(2·m̂)`` for
linear budgets, i.e. a constant factor over the known-``m`` algorithm.

Two assigners are provided:

* :class:`FirstFitAssigner` — the general-purpose EDF-admission first fit,
* :class:`LaminarAssigner` — the Section 5 budget scheme, scoped per phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..model.instance import paper_order_key
from ..model.job import Job
from .base import EngineError, JobState, Policy
from .engine import OnlineEngine
from .edf import edf_key
from .nonmigratory import local_edf_feasible, machine_workload


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
        t = engine.tick
        for machine in machines:
            workload = machine_workload(engine, machine)
            workload.append((state.due, state.rem))
            if local_edf_feasible(t, workload):
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
        from ..core.laminar import _chain_key, _min_by_domination

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
                s for s in engine.machine_active_jobs(machine) if s.rem > 0
            ]
            if runnable:
                best = min(runnable, key=edf_key)
                selection[machine] = best.job.id
        return selection


def run_doubling(instance, assigner_factory=None, budget_fn=None) -> Tuple[OnlineEngine, DoublingPolicy]:
    """Convenience: simulate the doubling wrapper on an instance.

    The engine starts with a single machine; the wrapper opens more on
    demand.  Returns ``(engine, policy)`` so callers can inspect phases.
    """
    from .engine import OnlineEngine as _Engine

    kwargs = {}
    if assigner_factory is not None:
        kwargs["assigner_factory"] = assigner_factory
    if budget_fn is not None:
        kwargs["budget_fn"] = budget_fn
    policy = DoublingPolicy(**kwargs)
    engine = _Engine(policy, machines=1)
    engine.release(instance)
    engine.run_to_completion()
    return engine, policy
