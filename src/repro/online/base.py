"""Core types for the online scheduling engine.

An online algorithm is a :class:`Policy`.  The engine owns the clock and the
machine/job bookkeeping; the policy is consulted

* when jobs are released (``on_release``) — this is where non-migratory
  policies *commit* jobs to machines (Section 2 of the paper: a job must be
  committed by its latest start time ``a_j``; all policies in this repo
  commit at release, which only strengthens the lower-bound experiments),
* at every decision point (``select``) — returning which committed/eligible
  job each machine should process until the next event,
* optionally, to request extra wake-ups (``next_wakeup``) — e.g. LLF laxity
  crossovers or MediumFit start times.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..model.job import Job

if TYPE_CHECKING:  # pragma: no cover
    from .engine import OnlineEngine


class EngineError(RuntimeError):
    """A policy violated an engine invariant (e.g. migrated a committed job)."""


class InfeasibleOnline(RuntimeError):
    """Raised in ``on_miss='raise'`` mode when a deadline is missed."""


class LowerBoundError(ValueError):
    """``min_machines`` found success below its ``lo``: the bound was wrong.

    Either ``lo`` exceeds the true least machine count, or the policy's
    success is not monotone in the machine count.  Returning ``lo`` would
    report a count the policy does not need.
    """


class TickGrid:
    """The integer unit shared by one engine and its job states.

    ``unit`` is ``L``: one time tick is ``1/L``.  ``num/den`` is the machine
    speed, so one work tick — the work a machine does in one tick — is
    ``speed/L``.  The engine refines ``unit`` in place (see
    :meth:`~repro.online.engine.OnlineEngine.release`), so the views of every
    :class:`JobState` stay exact.
    """

    __slots__ = ("unit", "num", "den")

    def __init__(self, unit: int, num: int, den: int) -> None:
        self.unit = unit
        self.num = num
        self.den = den

    def time(self, ticks: int) -> Fraction:
        return Fraction(ticks, self.unit)

    def work(self, ticks: int) -> Fraction:
        return Fraction(ticks * self.num, self.unit * self.den)


class JobState:
    """Mutable per-job bookkeeping inside the engine.

    The tick fields are ints in the owning engine's current unit (see
    :class:`TickGrid`); policies read these, and only within one decision
    point (a unit refinement rescales them between decision points):

    * ``rel`` / ``due`` — release and deadline tick,
    * ``rem`` — remaining work in work ticks, i.e. the ticks of processing
      still needed at the engine's speed,
    * ``start`` / ``finish`` — tick of first processing / completion, or
      ``None``.

    Drivers read the exact views ``remaining``, ``started_at``,
    ``finished_at`` and ``overhead`` (:class:`~fractions.Fraction`).
    """

    __slots__ = (
        "job", "rel", "due", "rem", "start", "finish", "extra", "committed",
        "missed", "machines", "last_machine", "migration_count", "_grid",
    )

    def __init__(self, job: Job, grid: TickGrid, rel: int, due: int, rem: int) -> None:
        self.job = job
        self._grid = grid
        self.rel = rel
        self.due = due
        self.rem = rem
        self.start: Optional[int] = None
        self.finish: Optional[int] = None
        #: work ticks added by migration penalties (engine migration_cost)
        self.extra = 0
        #: machine the job is committed to (non-migratory), if any
        self.committed: Optional[int] = None
        self.missed = False
        #: machines that ever processed the job (for migration accounting)
        self.machines: set = set()
        #: machine that processed the job most recently
        self.last_machine: Optional[int] = None
        #: number of migrations suffered (changes of processing machine)
        self.migration_count = 0

    @property
    def remaining(self) -> Fraction:
        """Remaining work (processing units)."""
        return self._grid.work(self.rem)

    @property
    def overhead(self) -> Fraction:
        """Extra work added by migration penalties."""
        return self._grid.work(self.extra)

    @property
    def started_at(self) -> Optional[Fraction]:
        """First time the job was ever processed."""
        return None if self.start is None else self._grid.time(self.start)

    @property
    def finished_at(self) -> Optional[Fraction]:
        return None if self.finish is None else self._grid.time(self.finish)

    @property
    def finished(self) -> bool:
        return self.finish is not None

    @property
    def active(self) -> bool:
        """Released, not finished, not (yet) missed."""
        return self.finish is None and not self.missed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"JobState(job={self.job.id}, remaining={self.remaining}, "
                f"committed={self.committed}, finished_at={self.finished_at}, "
                f"missed={self.missed})")


class Policy(ABC):
    """Base class for online scheduling policies.

    ``migratory`` declares whether the policy is allowed to migrate jobs;
    the engine enforces non-migration for policies that declare it.
    """

    #: May a preempted job resume on a different machine?
    migratory: bool = True

    def on_release(self, engine: "OnlineEngine", jobs: Sequence[JobState]) -> None:
        """Hook invoked when ``jobs`` become available (same release time).

        Non-migratory policies typically call ``engine.commit(job_id, machine)``
        here.  Default: no commitment (jobs bind at first processing).
        """

    @abstractmethod
    def select(self, engine: "OnlineEngine") -> Dict[int, int]:
        """Return ``{machine_index: job_id}`` to process until the next event.

        Machines absent from the mapping idle.  Jobs must be active; each job
        may appear at most once; non-migratory policies may only map a job to
        its committed machine.
        """

    def next_wakeup(self, engine: "OnlineEngine") -> Optional[Fraction]:
        """An extra decision time strictly after ``engine.time``, if needed.

        A time, not a tick (``engine.time + 1`` is fine).  A wake-up off the
        engine's tick grid refines the grid, so rational wake-ups stay exact.
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__
