"""Least Laxity First — the strong migratory baseline of Phillips et al.

LLF runs, at every point in time, the ``k`` unfinished jobs of smallest
laxity ``ℓ_j(t) = d_j − t − p_j(t)``.  Phillips et al. proved LLF is
``O(log Δ)``-competitive for machine minimization, versus EDF's ``Ω(Δ)``;
experiment E-BL reproduces this separation.

A running job's laxity is constant while it runs (deadline and remaining
work both recede), while a waiting job's laxity falls at unit rate.  A
priority inversion can therefore appear strictly between releases and
completions; :meth:`LLF.next_wakeup` computes the earliest crossover time in
closed form so the event-driven engine never misses a swap.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .base import JobState, Policy
from .edf import stable_machine_assignment
from .engine import OnlineEngine


class LLF(Policy):
    """Migratory Least Laxity First with exact crossover wake-ups."""

    migratory = True

    def _ranked(self, engine: OnlineEngine) -> List[Tuple[int, int, JobState]]:
        laxity = engine.laxity
        return sorted(
            ((laxity(s), s.job.id, s) for s in engine.active_jobs()),
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
        relevant when all machines are busy and someone waits).  Laxities are
        the engine's exact ints (:meth:`OnlineEngine.laxity`).
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
            wakeups.append(gap)
        # Safety wake-up: a waiting job whose laxity reaches zero must start
        # immediately; with laxity ties (gap == 0) the id tie-break holds the
        # current choice until then (continuous-time LLF is ill-defined under
        # ties; this is the standard deterministic discretization).
        for laxity, _, _ in ranked[k:]:
            if laxity > 0:
                wakeups.append(laxity)
                break  # ranked by laxity: the first positive one is minimal
        return engine.time_after(min(wakeups)) if wakeups else None
