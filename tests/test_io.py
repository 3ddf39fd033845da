"""Round-trip tests for JSON serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.model import Instance, Job, Schedule, Segment
from repro.model.io import (
    dumps,
    instance_from_dict,
    instance_to_dict,
    load,
    loads,
    save,
    schedule_from_dict,
    schedule_to_dict,
)

from tests.strategies import instances_st


class TestInstanceRoundTrip:
    def test_simple(self):
        inst = Instance([Job(0, 1, 2, id=0), Job(1, 2, 5, id=1, label="x")])
        again = loads(dumps(inst))
        assert again == inst
        assert again.job(1).label == "x"

    def test_fractional_data_lossless(self):
        inst = Instance([Job(Fraction(1, 3), Fraction(10, 7), Fraction(22, 7), id=0)])
        again = loads(dumps(inst))
        assert again[0].release == Fraction(1, 3)
        assert again[0].processing == Fraction(10, 7)

    @given(instances_st())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, inst):
        assert loads(dumps(inst)) == inst

    def test_adversarial_denominators(self):
        """The Lemma 2 instances have huge denominators; must survive."""
        from repro.core.adversary.migration_gap import MigrationGapAdversary
        from repro.online.nonmigratory import FirstFitEDF

        res = MigrationGapAdversary(FirstFitEDF(), machines=8).run(5)
        inst = res.instance
        assert loads(dumps(inst)) == inst

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            instance_from_dict({"kind": "schedule", "segments": []})


class TestScheduleRoundTrip:
    def test_simple(self):
        sched = Schedule([Segment(0, 0, 0, 1), Segment(1, 2, Fraction(1, 2), 3)])
        again = loads(dumps(sched))
        assert list(again) == list(sched)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"kind": "instance", "jobs": []})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loads('{"kind": "mystery"}')

    def test_dumps_type_checked(self):
        with pytest.raises(TypeError):
            dumps(42)


class TestSharedValues:
    """Parsed times are one object per distinct value (warm caches hold them)."""

    def test_instance_jobs_share_equal_times(self):
        data = {"kind": "instance", "jobs": [
            {"id": 0, "release": 0, "processing": "3/2", "deadline": 4},
            {"id": 1, "release": "0", "processing": "3/2", "deadline": 4},
            {"id": 2, "release": 4, "processing": 2, "deadline": 7},
        ]}
        a, b, c = instance_from_dict(data)
        assert a.processing is b.processing and a.deadline is b.deadline
        assert a.deadline is c.release and c.processing == 2
        assert a.release == b.release == 0  # "0" and 0: equal values, either object

    def test_schedule_segments_share_endpoints(self):
        sched = schedule_from_dict(schedule_to_dict(Schedule(
            [Segment(0, 0, 0, Fraction(1, 3)), Segment(1, 0, Fraction(1, 3), 1)])))
        first, second = sched.segments
        assert first.end is second.start

    @pytest.mark.parametrize("bad", [[1], {"x": 1}, None, "x/y"])
    def test_unhashable_or_bad_values_still_named(self, bad):
        from repro.model.io import InstanceFormatError

        data = {"kind": "instance", "jobs": [
            {"id": 0, "release": 0, "processing": 1, "deadline": 4},
            {"id": 1, "release": bad, "processing": 1, "deadline": 4}]}
        with pytest.raises(InstanceFormatError, match=r"jobs\[1\].*'release'"):
            instance_from_dict(data)


class TestFileIO:
    def test_save_load(self, tmp_path):
        inst = Instance([Job(0, 1, 3, id=0)])
        path = tmp_path / "inst.json"
        save(inst, str(path))
        assert load(str(path)) == inst

    def test_save_load_schedule(self, tmp_path):
        sched = Schedule([Segment(0, 1, 0, 2)])
        path = tmp_path / "sched.json"
        save(sched, str(path))
        loaded = load(str(path))
        assert isinstance(loaded, Schedule)
        assert loaded.machines_used == 1

    def test_integer_encoding_compact(self):
        inst = Instance([Job(0, 1, 2, id=0)])
        text = dumps(inst)
        assert '"release": 0' in text  # ints stay ints, not "0/1"


class TestMalformedInput:
    """Every structural defect raises InstanceFormatError with location context."""

    def _err(self, fn, *args, **kwargs):
        from repro.model.io import InstanceFormatError

        with pytest.raises(InstanceFormatError) as excinfo:
            fn(*args, **kwargs)
        return str(excinfo.value)

    def test_invalid_json(self):
        msg = self._err(loads, "{not json", source="bad.json")
        assert "bad.json" in msg and "invalid JSON" in msg

    def test_non_object_payload(self):
        msg = self._err(loads, "[1, 2, 3]")
        assert "expected a JSON object" in msg

    def test_missing_job_field_names_index_and_field(self):
        payload = {
            "kind": "instance",
            "jobs": [
                {"id": 0, "release": 0, "processing": 1, "deadline": 2},
                {"id": 1, "release": 0, "processing": 1},  # no deadline
            ],
        }
        msg = self._err(instance_from_dict, payload, "corpus/x.json")
        assert "corpus/x.json" in msg
        assert "jobs[1]" in msg and "'deadline'" in msg

    def test_unparsable_rational_named(self):
        payload = {
            "kind": "instance",
            "jobs": [{"id": 0, "release": "one half", "processing": 1, "deadline": 2}],
        }
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg and "'release'" in msg

    def test_jobs_not_a_list(self):
        msg = self._err(instance_from_dict, {"kind": "instance", "jobs": "nope"})
        assert "'jobs'" in msg and "list" in msg

    def test_missing_jobs(self):
        msg = self._err(instance_from_dict, {"kind": "instance"})
        assert "missing field 'jobs'" in msg

    def test_job_entry_not_an_object(self):
        payload = {"kind": "instance", "jobs": [17]}
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg and "expected an object" in msg

    def test_semantic_job_violation_located(self):
        # deadline before release+processing: Job's own validation, relocated
        payload = {
            "kind": "instance",
            "jobs": [{"id": 0, "release": 0, "processing": 5, "deadline": 1}],
        }
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg

    def test_schedule_missing_segment_field(self):
        payload = {
            "kind": "schedule",
            "segments": [{"job": 0, "machine": 0, "start": 0}],  # no end
        }
        msg = self._err(schedule_from_dict, payload, "sched.json")
        assert "sched.json" in msg and "segments[0]" in msg and "'end'" in msg

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "instance", "jobs": [{"id": 0}]}')
        msg = self._err(load, str(path))
        assert "broken.json" in msg and "jobs[0]" in msg

    def test_format_error_is_a_value_error(self):
        from repro.model.io import InstanceFormatError

        assert issubclass(InstanceFormatError, ValueError)

    def test_no_bare_keyerror_ever(self):
        """The class of bug this guards against: bare KeyError escaping."""
        payloads = [
            {"kind": "instance", "jobs": [{}]},
            {"kind": "schedule", "segments": [{}]},
            {"kind": "instance", "jobs": [None]},
            {"kind": "instance", "jobs": {}},
        ]
        from repro.model.io import InstanceFormatError

        for payload in payloads:
            fn = instance_from_dict if payload["kind"] == "instance" else schedule_from_dict
            with pytest.raises(InstanceFormatError):
                fn(payload)
