"""Reference oracles: the ``Fraction`` witness extractor and checker.

Verbatim copies of the original ``offline/flow.py::mcnaughton`` /
``schedule_from_work`` and ``model/schedule.py::Schedule.verify`` /
``_merge_adjacent``, kept here as differential oracles for the integer
extractor and the grouped checker that replaced them.  Only the glue
changed: ``ref_schedule_from_work`` returns the normalized segment tuple
that ``Schedule(segments)`` used to hold, and ``ref_verify`` is the old
method as a function of the schedule (with the old ``machines_used`` and
``work_of`` accessors inlined as helpers), so that nothing here calls the
code under test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.model.instance import Instance
from repro.model.intervals import Numeric, to_fraction
from repro.model.schedule import FeasibilityReport, Segment


def ref_mcnaughton(
    pieces: Sequence[Tuple[int, Fraction]],
    start: Fraction,
    end: Fraction,
    m: int,
    machine_offset: int = 0,
) -> List[Segment]:
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    segments: List[Segment] = []
    machine = 0
    cursor = start
    for job_id, amount in pieces:
        if amount <= 0:
            continue
        if amount > length:
            raise ValueError(f"piece of job {job_id} exceeds interval length")
        remaining = amount
        while remaining > 0:
            if machine >= m:
                raise ValueError("pieces exceed machine capacity")
            room = end - cursor
            take = min(room, remaining)
            if take > 0:
                segments.append(
                    Segment(job_id, machine + machine_offset, cursor, cursor + take)
                )
            cursor += take
            remaining -= take
            if cursor == end:
                machine += 1
                cursor = start
    return segments


def ref_schedule_from_work(
    work: Dict[int, Dict[int, Fraction]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
) -> Tuple[Segment, ...]:
    segments: List[Segment] = []
    per_interval: Dict[int, List[Tuple[int, Fraction]]] = {}
    for job_id, row in work.items():
        for k, amount in row.items():
            per_interval.setdefault(k, []).append((job_id, amount))
    for k, pieces in per_interval.items():
        a, b = intervals[k]
        pieces.sort(key=lambda item: (-item[1], item[0]))
        segments.extend(ref_mcnaughton(pieces, a, b, m))
    return ref_merge_adjacent(segments)


def ref_merge_adjacent(segments: Iterable[Segment]) -> Tuple[Segment, ...]:
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


class _Accessors:
    """The old ``Schedule`` accessors ``ref_verify`` calls through ``self``."""

    def __init__(self, segments: Iterable[Segment]) -> None:
        self.segments = tuple(segments)

    @property
    def machines_used(self) -> int:
        return len({s.machine for s in self.segments})

    def work_of(self, job_id: int, speed: Numeric = 1) -> Fraction:
        speed = to_fraction(speed)
        return sum((s.length * speed for s in self.segments if s.job_id == job_id), Fraction(0))


def ref_verify(
    schedule: Iterable[Segment],
    instance: Instance,
    speed: Numeric = 1,
    machines: Optional[int] = None,
) -> FeasibilityReport:
    self = _Accessors(schedule)
    speed = to_fraction(speed)
    violations: List[str] = []

    if machines is not None and self.machines_used > machines:
        violations.append(
            f"schedule uses {self.machines_used} machines > allowed {machines}"
        )

    known = {j.id for j in instance}
    for seg in self.segments:
        if seg.job_id not in known:
            violations.append(f"segment references unknown job {seg.job_id}")

    # (1) window containment
    for seg in self.segments:
        if seg.job_id not in known:
            continue
        job = instance.job(seg.job_id)
        if seg.start < job.release or seg.end > job.deadline:
            violations.append(
                f"job {seg.job_id} runs [{seg.start},{seg.end}) outside "
                f"window [{job.release},{job.deadline})"
            )

    # (2) machine exclusivity
    by_machine: Dict[int, List[Segment]] = {}
    for seg in self.segments:
        by_machine.setdefault(seg.machine, []).append(seg)
    for machine, segs in by_machine.items():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                violations.append(
                    f"machine {machine} overlap: job {a.job_id} "
                    f"[{a.start},{a.end}) vs job {b.job_id} [{b.start},{b.end})"
                )

    # (3) no intra-job parallelism, plus migration/preemption counting
    migratory: List[int] = []
    preemptions = 0
    by_job: Dict[int, List[Segment]] = {}
    for seg in self.segments:
        by_job.setdefault(seg.job_id, []).append(seg)
    for job_id, segs in by_job.items():
        segs.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                violations.append(
                    f"job {job_id} runs on machines {a.machine} and "
                    f"{b.machine} simultaneously at {b.start}"
                )
            elif b.start > a.end or b.machine != a.machine:
                preemptions += 1
        if len({s.machine for s in segs}) > 1:
            migratory.append(job_id)

    # (4) work completion
    unfinished: Dict[int, Fraction] = {}
    for job in instance:
        got = self.work_of(job.id, speed)
        if got != job.processing:
            if got < job.processing:
                unfinished[job.id] = job.processing - got
                violations.append(
                    f"job {job.id} received {got} < p_j = {job.processing}"
                )
            else:
                violations.append(
                    f"job {job.id} received {got} > p_j = {job.processing}"
                )

    return FeasibilityReport(
        feasible=not violations,
        violations=tuple(violations),
        machines_used=self.machines_used,
        migratory_jobs=tuple(sorted(migratory)),
        preemptions=preemptions,
        unfinished=unfinished,
    )
