"""The O(m log m)-machine non-migratory algorithm for laminar instances.

Section 5 of the paper.  α-loose jobs go to the Section 4 algorithm on a
separate machine pool; the heart is the assignment scheme for α-tight jobs
on ``m'`` machines:

* Jobs are assigned at release, in the paper's index order (release
  ascending, deadline descending at ties).
* If some machine has no previously assigned job whose window intersects
  ``I(j)``, job ``j`` goes to any such machine.
* Otherwise every machine has a unique **responsible** job — the ≺-minimal
  assigned job whose window intersects (hence contains) ``I(j)``.  By
  laminarity the responsibles form a chain ``c_1(j) ≺ … ≺ c_{m'}(j)``
  (the *candidates* of ``j``, smallest window first).
* Every job's laxity is split into ``m'`` equal sub-budgets.  Job ``j`` is
  assigned to the machine of the smallest-index candidate ``c_i(j)`` whose
  *i-th* budget can still pay ``|I(j)|``:

      ℓ_{c_i(j)}/m'  −  Σ_{j' ∈ U_i(c_i(j))} |I(j')|  ≥  |I(j)|,

  where ``U_i(c)`` are the previously assigned *i-th users* of ``c``.
* If no candidate can pay, the assignment **fails**; Theorem 9 proves this
  cannot happen for ``m' = O(m log m)`` (validated in experiment E-T9).

Scheduling is machine-local EDF; Lemma 5 shows the budgets guarantee
feasibility whenever the assignment succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.instance import Instance, paper_order_key
from ..model.intervals import Numeric, to_fraction
from ..model.job import Job
from ..model.schedule import Schedule
from ..online.base import InfeasibleOnline, JobState
from ..online.engine import OnlineEngine, min_machines, simulate
from ..online.nonmigratory import CommitAtReleasePolicy
from .loose import LooseAlgorithm


class LaminarAssignmentError(InfeasibleOnline):
    """No candidate's budget could pay for the arriving job: too few machines."""


class LaminarBudgetPolicy(CommitAtReleasePolicy):
    """The Section 5.1 assignment scheme on a fixed pool of ``m'`` machines.

    Intended for α-tight laminar job sets; the policy itself never inspects
    looseness (the split is done by :class:`LaminarAlgorithm`).
    """

    migratory = False

    def __init__(self) -> None:
        #: machine → jobs assigned to it, in assignment order
        self._assigned: Dict[int, List[Job]] = {}
        #: (candidate_id, i) → total |I(j')| charged by its i-th users
        self._charged: Dict[Tuple[int, int], Fraction] = {}

    # -- assignment --------------------------------------------------------

    def on_release(self, engine: OnlineEngine, jobs: Sequence[JobState]) -> None:
        for state in sorted(jobs, key=lambda s: paper_order_key(s.job)):
            machine = self._assign(engine, state.job)
            engine.commit(state.job.id, machine)
            self._assigned.setdefault(machine, []).append(state.job)

    def _assign(self, engine: OnlineEngine, job: Job) -> int:
        m_prime = engine.machines
        responsibles: List[Tuple[Job, int]] = []
        for machine in range(m_prime):
            intersecting = [
                j
                for j in self._assigned.get(machine, [])
                if j.interval.intersects(job.interval)
            ]
            if not intersecting:
                return machine
            responsibles.append((_min_by_domination(intersecting), machine))
        # all machines occupied around I(j): order candidates ≺-ascending
        responsibles.sort(key=lambda item: _chain_key(item[0]))
        for i, (candidate, machine) in enumerate(responsibles, start=1):
            budget = candidate.laxity / m_prime
            used = self._charged.get((candidate.id, i), Fraction(0))
            if budget - used >= job.window:
                self._charged[(candidate.id, i)] = used + job.window
                return machine
        raise LaminarAssignmentError(
            f"job {job.id} (|I|={job.window}) rejected by all {m_prime} budgets"
        )

    # selection: machine-local EDF inherited from CommitAtReleasePolicy


class GreedyLaminarPolicy(CommitAtReleasePolicy):
    """The *failing* greedy variant the paper warns about (Section 5.1).

    "Intuitively, we would also like to minimize the candidate that we pick
    w.r.t. ≺ … However, it fails to greedily assign jobs to the machine of
    their ≺-minimal candidate that fulfills the above necessary criterion."

    This policy assigns each job to the ≺-minimal candidate whose *total*
    laxity budget can still pay for ``|I(j)|`` — no per-index sub-budgets.
    It exists for the ablation experiment E-T9-abl: the sub-budget split of
    :class:`LaminarBudgetPolicy` is load-bearing, not an implementation
    detail.
    """

    migratory = False

    def __init__(self) -> None:
        self._assigned: Dict[int, List[Job]] = {}
        self._charged: Dict[int, Fraction] = {}

    def on_release(self, engine: OnlineEngine, jobs: Sequence[JobState]) -> None:
        for state in sorted(jobs, key=lambda s: paper_order_key(s.job)):
            machine = self._assign(engine, state.job)
            engine.commit(state.job.id, machine)
            self._assigned.setdefault(machine, []).append(state.job)

    def _assign(self, engine: OnlineEngine, job: Job) -> int:
        responsibles: List[Tuple[Job, int]] = []
        for machine in range(engine.machines):
            intersecting = [
                j
                for j in self._assigned.get(machine, [])
                if j.interval.intersects(job.interval)
            ]
            if not intersecting:
                return machine
            responsibles.append((_min_by_domination(intersecting), machine))
        responsibles.sort(key=lambda item: _chain_key(item[0]))
        for candidate, machine in responsibles:
            used = self._charged.get(candidate.id, Fraction(0))
            if candidate.laxity - used >= job.window:
                self._charged[candidate.id] = used + job.window
                return machine
        raise LaminarAssignmentError(
            f"greedy: job {job.id} rejected by every candidate's total budget"
        )


def _min_by_domination(jobs: Sequence[Job]) -> Job:
    """The ≺-minimal job: smallest window; ties resolved by index order.

    For equal windows the *later*-indexed job is dominated (the paper breaks
    window ties by index), hence ≺-minimal.
    """
    return min(jobs, key=_chain_key)


def _chain_key(job: Job) -> Tuple[Fraction, Tuple]:
    """Sort key realizing the ≺ chain order (most dominated first)."""
    inverted = paper_order_key(job)
    return (job.window, (-inverted[0], -inverted[1], -inverted[2]))


@dataclass
class LaminarRunResult:
    """Outcome of Theorem 9's algorithm on one laminar instance."""

    schedule: Schedule
    tight_machines: int
    loose_machines: int
    alpha: Fraction

    @property
    def machines(self) -> int:
        return self.tight_machines + self.loose_machines


class LaminarAlgorithm:
    """Theorem 9: budget assignment for tight jobs + Section 4 for loose."""

    def __init__(self, alpha: Numeric = Fraction(1, 2)) -> None:
        self.alpha = to_fraction(alpha)
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")

    def run_tight_with_budget(
        self, tight: Instance, m_prime: int
    ) -> Optional[Schedule]:
        """Run the budget scheme on ``m'`` machines; ``None`` on failure."""
        try:
            engine = simulate(LaminarBudgetPolicy(), tight, machines=m_prime)
        except LaminarAssignmentError:
            return None
        if engine.missed_jobs:
            return None
        return engine.schedule()

    def min_tight_machines(self, tight: Instance) -> int:
        """Smallest ``m'`` for which the budget scheme succeeds."""
        if len(tight) == 0:
            return 0
        return min_machines(lambda k: LaminarBudgetPolicy(), tight)

    def run(self, instance: Instance) -> LaminarRunResult:
        if not instance.is_laminar():
            raise ValueError("instance is not laminar")
        loose, tight = instance.split_by_looseness(self.alpha)
        tight_schedule = Schedule([])
        m_prime = 0
        if len(tight) > 0:
            m_prime = self.min_tight_machines(tight)
            sched = self.run_tight_with_budget(tight, m_prime)
            assert sched is not None
            tight_schedule = sched
        loose_schedule = Schedule([])
        loose_machines = 0
        if len(loose) > 0:
            result = LooseAlgorithm(self.alpha).run(loose)
            loose_schedule = result.schedule
            loose_machines = result.machines
        combined = tight_schedule.merged(loose_schedule.shifted_machines(m_prime))
        return LaminarRunResult(
            schedule=combined,
            tight_machines=m_prime,
            loose_machines=loose_machines,
            alpha=self.alpha,
        )
