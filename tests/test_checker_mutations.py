"""Failure injection: the checker must catch every corruption of a valid
schedule.

These tests take verified-feasible schedules and apply systematic mutations
(shift a segment outside the window, duplicate it onto another machine,
shrink it, move it over a neighbour, drop it) and assert the independent
checker flags each one.  This is the trust anchor for every experiment:
"the benchmark asserts the checker passed" is only meaningful if the checker
catches corruption.

Every report is also compared with the reference checker (the original
``Fraction`` implementation, kept in ``tests/reference_certificates.py``):
the grouped integer checker must return an equal report, violation text
and order included, on each mutation.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import uniform_random_instance
from repro.model import Instance, Job, Schedule, Segment
from repro.offline.optimum import optimal_migratory_schedule

from tests.reference_certificates import ref_verify
from tests.strategies import instances_st


def _verify(schedule, inst, speed=1, machines=None):
    """``schedule.verify(...)``, asserted equal to the reference report."""
    report = schedule.verify(inst, speed, machines)
    assert report == ref_verify(schedule, inst, speed, machines)
    return report


def _valid_pair(seed: int):
    inst = uniform_random_instance(10, seed=seed)
    m, sched = optimal_migratory_schedule(inst)
    assert _verify(sched, inst, machines=m).feasible
    return inst, sched


class TestSegmentMutations:
    @pytest.mark.parametrize("seed", range(4))
    def test_drop_segment_detected(self, seed):
        inst, sched = _valid_pair(seed)
        mutated = Schedule(list(sched)[1:])
        assert not _verify(mutated, inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_shift_past_deadline_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = max(segs, key=lambda s: s.end)
        job = inst.job(victim.job_id)
        shift = (job.deadline - victim.end) + 1
        segs[segs.index(victim)] = Segment(
            victim.job_id, victim.machine, victim.start + shift, victim.end + shift
        )
        assert not _verify(Schedule(segs), inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_on_other_machine_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = segs[0]
        free_machine = max(s.machine for s in segs) + 1
        segs.append(Segment(victim.job_id, free_machine, victim.start, victim.end))
        rep = _verify(Schedule(segs), inst)
        assert not rep.feasible  # intra-job parallelism and/or overwork

    @pytest.mark.parametrize("seed", range(4))
    def test_shrink_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = max(segs, key=lambda s: s.length)
        half = Segment(victim.job_id, victim.machine, victim.start,
                       victim.start + victim.length / 2)
        segs[segs.index(victim)] = half
        rep = _verify(Schedule(segs), inst)
        assert not rep.feasible
        assert victim.job_id in rep.unfinished

    @pytest.mark.parametrize("seed", range(4))
    def test_relabel_job_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        a = segs[0]
        other = next(j for j in inst if j.id != a.job_id)
        segs[0] = Segment(other.id, a.machine, a.start, a.end)
        assert not _verify(Schedule(segs), inst).feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_overlay_two_jobs_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        by_machine = {}
        for s in segs:
            by_machine.setdefault(s.machine, []).append(s)
        machine, msegs = next(
            ((m, s) for m, s in by_machine.items() if len(s) >= 2), (None, None)
        )
        if machine is None:
            pytest.skip("single-segment machines only")
        msegs.sort(key=lambda s: s.start)
        a, b = msegs[0], msegs[1]
        # slide b backwards onto a
        overlap_start = a.end - min(a.length, b.length) / 2
        moved = Segment(b.job_id, b.machine, overlap_start,
                        overlap_start + b.length)
        segs[segs.index(b)] = moved
        assert not _verify(Schedule(segs), inst).feasible


class TestGroupingMutations:
    """Mutations aimed at the checker's grouping by machine and by job."""

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_same_job_overlap_on_two_machines(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        victim = max(segs, key=lambda s: s.length)
        free_machine = max(s.machine for s in segs) + 1
        # Move the back half of the victim onto a fresh machine, shifted
        # back by a quarter: the job's work is unchanged, but it now runs
        # on two machines at once for a quarter of the victim's length.
        quarter = victim.length / 4
        mid = victim.start + 2 * quarter
        segs[segs.index(victim)] = Segment(victim.job_id, victim.machine,
                                           victim.start, mid)
        segs.append(Segment(victim.job_id, free_machine, mid - quarter,
                            victim.end - quarter))
        rep = _verify(Schedule(segs), inst)
        assert rep.violations == (
            f"job {victim.job_id} runs on machines {victim.machine} and "
            f"{free_machine} simultaneously at {mid - quarter}",
        )
        assert victim.job_id in rep.migratory_jobs

    def test_partial_overlap_exact_report(self):
        inst = Instance([Job(0, 2, 4, id=0), Job(0, 1, 4, id=1)])
        segs = [Segment(0, 0, 0, 1), Segment(0, 1, Fraction(1, 2), Fraction(3, 2)),
                Segment(1, 1, 3, 4)]
        rep = _verify(Schedule(segs), inst)
        assert rep.violations == (
            "job 0 runs on machines 0 and 1 simultaneously at 1/2",)
        assert rep.migratory_jobs == (0,)
        assert rep.preemptions == 0  # an overlapping pair is not a preemption
        assert rep.machines_used == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_unknown_job_id_detected(self, seed):
        inst, sched = _valid_pair(seed)
        segs = list(sched)
        a = segs[0]
        unknown = max(j.id for j in inst) + 1
        segs.append(Segment(unknown, a.machine, a.end, a.end + 1))
        segs.append(Segment(unknown, a.machine + 1, a.end + 5, a.end + 6))
        rep = _verify(Schedule(segs), inst)
        assert not rep.feasible
        assert rep.violations.count(f"segment references unknown job {unknown}") == 2
        assert unknown in rep.migratory_jobs

    def test_segment_touching_window_edges_exactly(self):
        inst = Instance([Job(Fraction(1, 3), 2, Fraction(7, 3), id=4)])
        touching = Schedule([Segment(4, 0, Fraction(1, 3), Fraction(7, 3))])
        assert _verify(touching, inst, machines=1).feasible
        early = Schedule([Segment(4, 0, Fraction(1, 4), Fraction(9, 4))])
        late = Schedule([Segment(4, 0, Fraction(5, 12), Fraction(29, 12))])
        assert _verify(early, inst).violations == (
            "job 4 runs [1/4,9/4) outside window [1/3,7/3)",)
        assert _verify(late, inst).violations == (
            "job 4 runs [5/12,29/12) outside window [1/3,7/3)",)
        # Back-to-back on one machine touches without overlapping.
        split = Schedule([Segment(4, 0, Fraction(1, 3), 1),
                          Segment(4, 1, 1, Fraction(7, 3))])
        rep = _verify(split, inst, machines=1)
        assert rep.violations == ("schedule uses 2 machines > allowed 1",)
        assert rep.preemptions == 1 and rep.migratory_jobs == (4,)

    @pytest.mark.parametrize("seed", range(4))
    def test_job_with_no_segments_detected(self, seed):
        inst, sched = _valid_pair(seed)
        victim = next(iter(inst))
        rep = _verify(Schedule(s for s in sched if s.job_id != victim.id), inst)
        assert rep.unfinished == {victim.id: victim.processing}
        assert rep.violations == (
            f"job {victim.id} received 0 < p_j = {victim.processing}",)

    def test_machine_overlap_exact_report(self):
        inst = Instance([Job(0, 2, 4, id=0), Job(0, 2, 4, id=1)])
        segs = [Segment(1, 0, Fraction(3, 2), Fraction(7, 2)), Segment(0, 0, 0, 2)]
        rep = _verify(Schedule(segs), inst, machines=1)
        assert rep.violations == (
            "machine 0 overlap: job 0 [0,2) vs job 1 [3/2,7/2)",)
        assert rep.preemptions == 0 and rep.migratory_jobs == ()


class TestNormalization:
    """``Schedule(segments)`` puts any segment list into the witness form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_split_and_shuffled_witness_renormalizes(self, seed):
        inst, sched = _valid_pair(seed)
        pieces = []
        for s in sched:
            mid = s.start + s.length / 3
            pieces += [Segment(s.job_id, s.machine, mid, s.end),
                       Segment(s.job_id, s.machine, s.start, mid)]
        pieces.reverse()
        again = Schedule(pieces)
        assert again.segments == sched.segments
        assert _verify(again, inst) == _verify(sched, inst)
        # Left unmerged and unsorted, the pieces still verify the same:
        # back-to-back pieces on one machine are no preemption.
        raw = Schedule._from_normalized(tuple(pieces))
        assert _verify(raw, inst) == _verify(sched, inst)


class TestSpeedMutations:
    def test_wrong_speed_detected(self):
        inst = Instance([Job(0, 3, 4, id=0)])
        sched = Schedule([Segment(0, 0, 0, 2)])
        assert _verify(sched, inst, speed=Fraction(3, 2)).feasible
        assert not _verify(sched, inst, speed=1).feasible
        assert not _verify(sched, inst, speed=2).feasible  # overwork


class TestRandomizedMutations:
    @given(instances_st(min_size=2, max_size=6), st.integers(0, 3),
           st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_random_shift_never_passes_silently(self, inst, idx, shift_num):
        """Shifting any segment right by a positive amount either remains
        feasible (landed in a legal gap) or is flagged — but work totals
        must always reconcile."""
        m, sched = optimal_migratory_schedule(inst)
        segs = list(sched)
        victim = segs[idx % len(segs)]
        shift = Fraction(shift_num, 4)
        segs[segs.index(victim)] = Segment(
            victim.job_id, victim.machine, victim.start + shift,
            victim.end + shift,
        )
        mutated = Schedule(segs)
        rep = _verify(mutated, inst)
        # work is preserved by a shift, so any infeasibility must come from
        # structure, never from the work-totals check
        assert mutated.work_of(victim.job_id) == sched.work_of(victim.job_id)
        if rep.feasible:
            # accepted ⇒ genuinely still a valid schedule: re-verify stands
            assert not rep.violations
