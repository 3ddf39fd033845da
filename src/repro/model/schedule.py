"""Schedule representation and exact feasibility verification.

A :class:`Schedule` is a set of segments ``(job, machine, [start, end))``.
Feasibility (Section 2 of the paper) requires that

1. every segment lies inside its job's window ``[r_j, d_j)``,
2. each machine processes at most one job at any time,
3. no job runs on two machines simultaneously,
4. every job receives exactly ``p_j`` units of processing
   (``p_j / speed`` units of machine time on speed-``s`` machines).

The checker also reports *migrations* (a job processed on more than one
machine — the paper's central dichotomy), *preemptions*, and the number of
machines actually used, so a single verified artifact backs all experiment
measurements.

:meth:`Schedule.verify` is the trust anchor of every feasible certificate,
so it is self-contained: it imports nothing outside :mod:`repro.model`,
derives its own integer time unit from the schedule's and the instance's
exact numbers, and runs in ``O(S log S)`` for ``S`` segments (one grouping
by machine and by job, one sort per group).  It shares no code with the
witness extractor in :mod:`repro.offline.flow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intervals import Interval, Numeric, to_fraction
from .instance import Instance
from .job import Job


@dataclass(frozen=True)
class Segment:
    """Processing of ``job_id`` on ``machine`` during ``[start, end)``."""

    job_id: int
    machine: int
    start: Fraction
    end: Fraction

    def __post_init__(self) -> None:
        start, end = self.start, self.end
        if type(start) is not Fraction or type(end) is not Fraction:
            start, end = to_fraction(start), to_fraction(end)
            object.__setattr__(self, "start", start)
            object.__setattr__(self, "end", end)
        # end <= start, cross-multiplied: denominators are positive, and
        # this skips Fraction's generic comparison on a hot constructor.
        if end.numerator * start.denominator <= start.numerator * end.denominator:
            raise ValueError(f"segment for job {self.job_id} has non-positive length")
        if self.machine < 0:
            raise ValueError("machine index must be non-negative")

    @property
    def length(self) -> Fraction:
        return self.end - self.start

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of verifying a schedule against an instance."""

    feasible: bool
    violations: Tuple[str, ...]
    machines_used: int
    migratory_jobs: Tuple[int, ...]
    preemptions: int
    #: job_id -> shortfall p_j − (work received); zero entries omitted
    unfinished: Dict[int, Fraction] = field(default_factory=dict)

    @property
    def migrations(self) -> int:
        return len(self.migratory_jobs)

    @property
    def is_non_migratory(self) -> bool:
        return not self.migratory_jobs

    def require_feasible(self) -> "FeasibilityReport":
        if not self.feasible:
            raise AssertionError("infeasible schedule: " + "; ".join(self.violations[:5]))
        return self


class Schedule:
    """An immutable collection of segments with normalization.

    Adjacent segments of the same job on the same machine are merged so that
    preemption counts are not inflated by representation artifacts.
    """

    __slots__ = ("segments",)

    segments: Tuple[Segment, ...]

    def __init__(self, segments: Iterable[Segment]) -> None:
        object.__setattr__(self, "segments", _merge_adjacent(segments))

    @classmethod
    def _from_normalized(cls, segments: Tuple[Segment, ...]) -> "Schedule":
        """Wrap segments that are already in normal form, without re-merging.

        For extractors that build their output merged (no back-to-back
        segments of one job on one machine) and sorted by ``(start, machine,
        job_id)``.  Nothing checks the form, and :meth:`verify` does not
        rely on it: unmerged or unsorted segments verify to the same
        report.  Only the segment order and count, as serialized, differ.
        """
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "segments", segments)
        return schedule

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Schedule is immutable")

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    # -- accessors ----------------------------------------------------------

    def machines(self) -> Tuple[int, ...]:
        return tuple(sorted({s.machine for s in self.segments}))

    @property
    def machines_used(self) -> int:
        return len({s.machine for s in self.segments})

    def job_segments(self, job_id: int) -> List[Segment]:
        return [s for s in self.segments if s.job_id == job_id]

    def machine_segments(self, machine: int) -> List[Segment]:
        return sorted(
            (s for s in self.segments if s.machine == machine),
            key=lambda s: s.start,
        )

    def work_of(self, job_id: int, speed: Numeric = 1) -> Fraction:
        speed = to_fraction(speed)
        return sum((s.length * speed for s in self.segments if s.job_id == job_id), Fraction(0))

    def makespan(self) -> Fraction:
        if not self.segments:
            return Fraction(0)
        return max(s.end for s in self.segments)

    def busy_time(self, machine: Optional[int] = None) -> Fraction:
        """Total processing time (of one machine, or all machines)."""
        return sum(
            (s.length for s in self.segments
             if machine is None or s.machine == machine),
            Fraction(0),
        )

    def machine_utilization(self) -> Dict[int, Fraction]:
        """Per-machine busy fraction over the schedule's overall span."""
        if not self.segments:
            return {}
        t0 = min(s.start for s in self.segments)
        t1 = max(s.end for s in self.segments)
        span = t1 - t0
        if span == 0:
            return {m: Fraction(0) for m in self.machines()}
        return {m: self.busy_time(m) / span for m in self.machines()}

    # -- transforms ----------------------------------------------------------

    def shifted_machines(self, offset: int) -> "Schedule":
        return Schedule(
            Segment(s.job_id, s.machine + offset, s.start, s.end) for s in self.segments
        )

    def merged(self, other: "Schedule") -> "Schedule":
        return Schedule(list(self.segments) + list(other.segments))

    def restricted_to_jobs(self, job_ids: Iterable[int]) -> "Schedule":
        keep = set(job_ids)
        return Schedule(s for s in self.segments if s.job_id in keep)

    # -- verification --------------------------------------------------------

    def verify(
        self,
        instance: Instance,
        speed: Numeric = 1,
        machines: Optional[int] = None,
    ) -> FeasibilityReport:
        """Check the schedule against ``instance`` on speed-``speed`` machines.

        When ``machines`` is given the schedule must also fit on that many
        machines — the extra condition that turns a verified schedule into a
        *feasibility certificate at* ``m`` (see :mod:`repro.verify`).

        One pass in ``O(S log S)`` for ``S`` segments: every time is first
        converted to an integer number of ticks of a common denominator
        derived here, from the schedule's and the instance's own numbers
        (never from whoever built the schedule); the segments are then
        grouped by machine and by job once, each group sorted once, and a
        job's work is summed from its own group.
        """
        speed = to_fraction(speed)
        segments = self.segments
        jobs = list(instance)
        dens = {s.start.denominator for s in segments}
        dens.update(s.end.denominator for s in segments)
        for job in jobs:
            dens.update((job.release.denominator, job.deadline.denominator,
                         job.processing.denominator))
        scale = math.lcm(*dens)
        mul = {d: scale // d for d in dens}
        window = {
            job.id: (job.release.numerator * mul[job.release.denominator],
                     job.deadline.numerator * mul[job.deadline.denominator])
            for job in jobs
        }

        unknown: List[str] = []
        outside: List[str] = []
        by_machine: Dict[int, List[Tuple[int, int, int]]] = {}
        by_job: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for idx, seg in enumerate(segments):
            start, end = seg.start, seg.end
            a = start.numerator * mul[start.denominator]
            b = end.numerator * mul[end.denominator]
            job_id, machine = seg.job_id, seg.machine
            # (1) window containment
            win = window.get(job_id)
            if win is None:
                unknown.append(f"segment references unknown job {job_id}")
            elif a < win[0] or b > win[1]:
                job = instance.job(job_id)
                outside.append(
                    f"job {job_id} runs [{start},{end}) outside "
                    f"window [{job.release},{job.deadline})"
                )
            # The segment index breaks ties, so each group sorts exactly as
            # a stable sort on (start) / (start, end) would.
            by_machine.setdefault(machine, []).append((a, idx, b))
            by_job.setdefault(job_id, []).append((a, b, idx, machine))

        violations: List[str] = []
        if machines is not None and len(by_machine) > machines:
            violations.append(
                f"schedule uses {len(by_machine)} machines > allowed {machines}"
            )
        violations += unknown
        violations += outside

        # (2) machine exclusivity
        for machine, row in by_machine.items():
            row.sort()
            for (_, i, b), (a2, j, _) in zip(row, row[1:]):
                if a2 < b:
                    x, y = segments[i], segments[j]
                    violations.append(
                        f"machine {machine} overlap: job {x.job_id} "
                        f"[{x.start},{x.end}) vs job {y.job_id} [{y.start},{y.end})"
                    )

        # (3) no intra-job parallelism, plus migration/preemption counting
        migratory: List[int] = []
        preemptions = 0
        busy: Dict[int, int] = {}
        for job_id, jrow in by_job.items():
            jrow.sort()
            for (_, b, _, m1), (a2, _, j, m2) in zip(jrow, jrow[1:]):
                if a2 < b:
                    violations.append(
                        f"job {job_id} runs on machines {m1} and "
                        f"{m2} simultaneously at {segments[j].start}"
                    )
                elif a2 > b or m2 != m1:
                    preemptions += 1
            if len({r[3] for r in jrow}) > 1:
                migratory.append(job_id)
            busy[job_id] = sum(r[1] - r[0] for r in jrow)

        # (4) work completion: busy ticks · speed against p_j, in ticks
        unfinished: Dict[int, Fraction] = {}
        num, den = speed.numerator, speed.denominator
        for job in jobs:
            p = job.processing
            need = p.numerator * mul[p.denominator] * den
            have = busy.get(job.id, 0) * num
            if have != need:
                got = Fraction(have, scale * den)
                if have < need:
                    unfinished[job.id] = p - got
                    violations.append(f"job {job.id} received {got} < p_j = {p}")
                else:
                    violations.append(f"job {job.id} received {got} > p_j = {p}")

        return FeasibilityReport(
            feasible=not violations,
            violations=tuple(violations),
            machines_used=len(by_machine),
            migratory_jobs=tuple(sorted(migratory)),
            preemptions=preemptions,
            unfinished=unfinished,
        )


def _merge_adjacent(segments: Iterable[Segment]) -> Tuple[Segment, ...]:
    """Merge back-to-back segments of the same job on the same machine."""
    segs = sorted(segments, key=lambda s: (s.machine, s.job_id, s.start))
    merged: List[Segment] = []
    for seg in segs:
        prev = merged[-1] if merged else None
        if (
            prev is not None
            and prev.machine == seg.machine
            and prev.job_id == seg.job_id
            and prev.end == seg.start
        ):
            merged[-1] = Segment(seg.job_id, seg.machine, prev.start, seg.end)
        else:
            merged.append(seg)
    return tuple(sorted(merged, key=lambda s: (s.start, s.machine, s.job_id)))
