"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.model.io import load
from repro.model import Instance, Schedule


@pytest.fixture
def loose_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate", "loose", "-n", "15", "--alpha", "1/3",
                 "--seed", "7", "-o", str(path)]) == 0
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize("kind", ["uniform", "loose", "tight", "agreeable", "laminar"])
    def test_all_kinds(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.json"
        assert main(["generate", kind, "-n", "10", "-o", str(path)]) == 0
        inst = load(str(path))
        assert isinstance(inst, Instance) and len(inst) == 10

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "uniform", "-n", "8", "--seed", "5", "-o", str(a)])
        main(["generate", "uniform", "-n", "8", "--seed", "5", "-o", str(b)])
        assert load(str(a)) == load(str(b))


class TestInspect:
    def test_classify(self, loose_file, capsys):
        assert main(["classify", loose_file]) == 0
        out = capsys.readouterr().out
        assert "class = loose" in out

    def test_opt(self, loose_file, capsys):
        assert main(["opt", loose_file, "--nonmigratory"]) == 0
        out = capsys.readouterr().out
        assert "migratory optimum:" in out
        assert "non-migratory optimum" in out


class TestSolveSimulate:
    def test_solve_auto_writes_schedule(self, loose_file, tmp_path, capsys):
        out_path = tmp_path / "sched.json"
        assert main(["solve", loose_file, "-o", str(out_path)]) == 0
        sched = load(str(out_path))
        assert isinstance(sched, Schedule)
        inst = load(loose_file)
        assert sched.verify(inst).feasible

    def test_solve_named_algorithm(self, loose_file, capsys):
        assert main(["solve", loose_file, "--algorithm", "loose"]) == 0
        assert "LooseAlgorithm" in capsys.readouterr().out

    def test_simulate_search_mode(self, loose_file, capsys):
        assert main(["simulate", loose_file, "--policy", "llf"]) == 0
        assert "minimum machines" in capsys.readouterr().out

    def test_simulate_fixed_machines(self, loose_file, capsys):
        code = main(["simulate", loose_file, "--policy", "edf",
                     "--machines", "15", "--gantt", "--width", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "missed = none" in out
        assert "M0" in out

    def test_simulate_failure_exit_code(self, tmp_path, capsys):
        # 3 zero-laxity parallel unit jobs on 1 machine must fail
        path = tmp_path / "hard.json"
        path.write_text(json.dumps({
            "format": 1, "kind": "instance",
            "jobs": [{"id": i, "release": 0, "processing": 1, "deadline": 1}
                     for i in range(3)],
        }))
        assert main(["simulate", str(path), "--policy", "edf",
                     "--machines", "1"]) == 1

    def test_gantt_command(self, loose_file, tmp_path, capsys):
        out_path = tmp_path / "sched.json"
        main(["solve", loose_file, "-o", str(out_path)])
        capsys.readouterr()
        assert main(["gantt", str(out_path), "--width", "30"]) == 0
        assert "M0" in capsys.readouterr().out


class TestAdversaryCommands:
    def test_migration_gap(self, tmp_path, capsys):
        out_path = tmp_path / "adv.json"
        assert main(["adversary", "migration-gap", "--k", "3",
                     "--policy", "firstfit", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "forced 3 machines" in out
        inst = load(str(out_path))
        assert isinstance(inst, Instance)

    def test_agreeable(self, capsys):
        assert main(["adversary", "agreeable", "--m", "40",
                     "--machines", "40", "--policy", "edf",
                     "--rounds", "5"]) == 0
        assert "MISSED" in capsys.readouterr().out

    def test_agreeable_survival(self, capsys):
        assert main(["adversary", "agreeable", "--m", "40",
                     "--machines", "60", "--policy", "llf",
                     "--rounds", "5"]) == 0
        assert "survived" in capsys.readouterr().out


class TestNewCommands:
    def test_svg_command(self, loose_file, tmp_path, capsys):
        sched_path = tmp_path / "s.json"
        main(["solve", loose_file, "-o", str(sched_path)])
        capsys.readouterr()
        out_path = tmp_path / "s.svg"
        assert main(["svg", str(sched_path), "-o", str(out_path),
                     "--title", "T"]) == 0
        assert out_path.read_text().startswith("<svg")

    def test_profile_command(self, loose_file, capsys):
        assert main(["profile", loose_file, "--samples", "64"]) == 0
        out = capsys.readouterr().out
        assert "lower bound on m" in out

    def test_realtime_command(self, tmp_path, capsys):
        spec = tmp_path / "ts.json"
        spec.write_text(
            '{"tasks": [{"wcet": 1, "period": 4}, '
            '{"wcet": 2, "period": 8, "deadline": 6, "name": "x"}]}'
        )
        assert main(["realtime", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "migratory optimum" in out
        assert "recommended" in out

    def test_realtime_with_horizon(self, tmp_path, capsys):
        spec = tmp_path / "ts.json"
        spec.write_text('{"tasks": [{"wcet": 1, "period": 7}, {"wcet": 1, "period": 11}]}')
        assert main(["realtime", str(spec), "--horizon", "40"]) == 0


class TestObservability:
    def test_stats_prints_counter_table(self, loose_file, capsys):
        assert main(["stats", loose_file, "--policy", "edf"]) == 0
        out = capsys.readouterr().out
        assert "certified optimum:" in out
        assert "dinic.aug_paths" in out
        assert "engine.steps" in out

    def test_stats_json_spans_all_layers(self, loose_file, capsys):
        assert main(["stats", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["optimum"] >= 1
        counters = payload["counters"]
        assert len(counters) >= 10
        for layer in ("dinic.", "cache.", "search.", "verify."):
            assert any(name.startswith(layer) for name in counters), layer
        assert payload["spans"]["verify.certified_optimum"]["count"] == 1

    def test_global_trace_flag_writes_jsonl(self, loose_file, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["opt", loose_file, "--trace", str(trace)]) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        assert {"counter", "span"} <= {rec["type"] for rec in records}

    def test_trace_detached_after_run(self, loose_file, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "trace.jsonl"
        assert main(["classify", loose_file, "--trace", str(trace)]) == 0
        assert not obs.enabled()

    def test_profile_json_grid_winner(self, loose_file, capsys):
        assert main(["profile", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_bound"] >= 1
        winner = payload["grid_winner"]
        assert winner["grid_density"] > 0
        assert winner["start"] is not None and winner["end"] is not None
        assert winner["starts"] > 0 and winner["widths"] > 0
        assert "network" not in payload  # only reported with --network

    def test_profile_network_mode(self, loose_file, capsys):
        assert main(["profile", loose_file, "--network"]) == 0
        out = capsys.readouterr().out
        assert "event-interval sparsification" in out
        assert "elementary" in out and "kept" in out

    def test_profile_network_json(self, loose_file, capsys):
        assert main(["profile", loose_file, "--network", "--json"]) == 0
        net = json.loads(capsys.readouterr().out)["network"]
        assert net["intervals_kept"] == (
            net["intervals_elementary"]
            - net["intervals_dropped"]
            - net["intervals_merged"]
        )
        assert net["nodes_after"] <= net["nodes_before"]
        assert net["edges_after"] <= net["edges_before"]
        assert net["edges_after"] > 0


class TestObsV2:
    """`stats --prom`, the `trace` subcommand, `sweep status/--progress/--prom`."""

    FIXTURE = "tests/data/trace_fixture.jsonl"

    def test_stats_prom_exposition(self, loose_file, capsys):
        assert main(["stats", loose_file, "--policy", "edf", "--prom"]) == 0
        out = capsys.readouterr().out
        assert "repro_dinic_aug_paths_total" in out
        hist_families = [
            line for line in out.splitlines()
            if line.startswith("# TYPE") and line.endswith("histogram")
        ]
        assert len(hist_families) >= 3
        assert 'le="+Inf"' in out
        for line in out.splitlines():
            assert line
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])  # every sample parses

    def test_stats_json_has_hist_quantiles(self, loose_file, capsys):
        assert main(["stats", loose_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["hist_quantiles"]
        assert rows
        assert all(
            {"count", "p50", "p90", "p99", "max"} <= set(row)
            for row in rows.values()
        )
        assert "dinic.solve" in json.dumps(list(rows))
        assert payload["hists"].keys() == rows.keys()

    def test_trace_analyze_table(self, capsys):
        assert main(["trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "16 records (1 skipped)" in out
        assert "span path" in out
        assert "optimum.search/optimum.probe" in out

    def test_trace_analyze_json_and_folded(self, tmp_path, capsys):
        folded = tmp_path / "folded.txt"
        assert main(["trace", "analyze", self.FIXTURE,
                     "--folded", str(folded), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 16 and payload["skipped"] == 1
        assert payload["hotspots"][0]["path"] == "runner.chunk"
        assert payload["counters"]["dinic.aug_paths"] == 10
        text = folded.read_text()
        assert "engine.simulate 4000000" in text
        assert "optimum.search;optimum.probe;dinic.solve 900000" in text

    def test_trace_diff_of_identical_traces_is_flat(self, capsys):
        assert main(["trace", "diff", self.FIXTURE, self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "Δself_ms" in out
        assert "+5" not in out  # no nonzero deltas

    def test_trace_arity_errors(self):
        with pytest.raises(SystemExit):
            main(["trace", "diff", self.FIXTURE])
        with pytest.raises(SystemExit):
            main(["trace", self.FIXTURE, self.FIXTURE])

    def _sweep(self, extra):
        return main([
            "sweep", "ratio", "--policies", "edf", "--families", "uniform",
            "-n", "6", "--seeds", "2", *extra,
        ])

    def test_sweep_prom_status_and_latency_summary(self, tmp_path, capsys):
        journal, prom = tmp_path / "j.jsonl", tmp_path / "m.prom"
        assert self._sweep(["--journal", str(journal),
                            "--prom", str(prom)]) == 0
        assert "item latency p50=" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE repro_runner_item_ns histogram" in text
        assert 'le="+Inf"' in text

        assert main(["sweep", "status", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "state: complete" in out
        assert "2/2 settled (2 ok), 0 remaining" in out

        # A torn tail flips the journal to incomplete: exit 1, healable.
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"torn')
        assert main(["sweep", "status", str(journal), "--json"]) == 1
        status = json.loads(capsys.readouterr().out)
        assert status["dropped"] == 1 and not status["complete"]

    def test_sweep_status_names_the_shard(self, tmp_path, capsys):
        journal = tmp_path / "shard1.jsonl"
        assert self._sweep(["--shard", "1/2", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", str(journal)]) == 0
        assert "(shard 1/2 of a 2-item plan)" in capsys.readouterr().out

    def test_sweep_status_arity_and_missing(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "status"])
        with pytest.raises(SystemExit):
            main(["sweep", "status", str(tmp_path / "nope.jsonl")])

    def test_sweep_progress_ticker_on_stderr(self, capsys):
        assert self._sweep(["--progress"]) == 0
        err = capsys.readouterr().err
        assert "[sweep]" in err
        assert "2/2" in err


class TestErrorPaths:
    def test_missing_file(self, tmp_path):
        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["classify", str(tmp_path / "nope.json")])

    def test_wrong_payload_kind_for_instance(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text('{"format": 1, "kind": "schedule", "segments": []}')
        with pytest.raises(SystemExit):
            main(["classify", str(path)])

    def test_wrong_payload_kind_for_schedule(self, loose_file):
        with pytest.raises(SystemExit):
            main(["gantt", loose_file])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        # a user input problem exits cleanly, naming the file — no traceback
        with pytest.raises(SystemExit) as exc_info:
            main(["classify", str(path)])
        assert str(path) in str(exc_info.value)
        assert "invalid JSON" in str(exc_info.value)


class TestTypedFailures:
    """One error boundary: a one-line message and a stable code per class."""

    @staticmethod
    def _fails(argv, code, capsys, needle):
        from repro.cli import CliError

        with pytest.raises(CliError) as exc_info:
            main(argv)
        assert exc_info.value.code == code != 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro: ")
        assert needle in err and str(exc_info.value) == err.strip()

    def test_opt_missing_file(self, tmp_path, capsys):
        from repro.cli import EXIT_OS_ERROR

        missing = str(tmp_path / "missing.json")
        self._fails(["opt", missing], EXIT_OS_ERROR, capsys,
                    f"FileNotFoundError: [Errno 2] No such file or directory: '{missing}'")

    def test_verify_missing_file(self, tmp_path, capsys, loose_file):
        from repro.cli import EXIT_OS_ERROR

        missing = str(tmp_path / "missing.json")
        self._fails(["verify", missing], EXIT_OS_ERROR, capsys, missing)
        self._fails(["verify", loose_file, "--schedule", missing],
                    EXIT_OS_ERROR, capsys, missing)

    def test_trace_analyze_missing_file(self, tmp_path, capsys):
        from repro.cli import EXIT_OS_ERROR

        missing = str(tmp_path / "missing.jsonl")
        self._fails(["trace", "analyze", missing], EXIT_OS_ERROR, capsys, missing)

    def test_sweep_resume_missing_file(self, tmp_path, capsys):
        from repro.cli import EXIT_OS_ERROR

        sweep = ["sweep", "ratio", "--policies", "edf", "--families", "uniform",
                 "-n", "6", "--seeds", "2", "--resume", "--journal"]
        # A journal in a directory that does not exist cannot be written.
        missing = str(tmp_path / "absent" / "j.jsonl")
        self._fails(sweep + [missing], EXIT_OS_ERROR, capsys, missing)
        # A missing journal file is a fresh start: nothing settled yet.
        fresh = tmp_path / "j.jsonl"
        assert main(sweep + [str(fresh)]) == 0
        assert fresh.exists()

    def test_format_and_journal_errors(self, tmp_path, capsys):
        from repro.cli import EXIT_FORMAT_ERROR, EXIT_JOURNAL_ERROR

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self._fails(["opt", str(bad)], EXIT_FORMAT_ERROR, capsys,
                    "InstanceFormatError: ")
        self._fails(["sweep", "status", str(bad)], EXIT_JOURNAL_ERROR, capsys,
                    "JournalError: ")
        self._fails(["sweep", "merge", str(bad)], EXIT_JOURNAL_ERROR, capsys,
                    "Error: ")

    @pytest.mark.parametrize("setup, backend, code", [
        ("import os; os.environ['REPRO_DINIC_C'] = 'off'", "dinic_c", 6),
        ("import sys; sys.modules['networkx'] = None", "networkx", 7),
    ], ids=["kernel-unavailable", "missing-oracle"])
    def test_backend_failures(self, tmp_path, loose_file, setup, backend, code):
        import os
        import subprocess
        import sys

        from repro import cli

        assert code == {"dinic_c": cli.EXIT_KERNEL_UNAVAILABLE,
                        "networkx": cli.EXIT_MISSING_ORACLE}[backend]
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src, REPRO_KERNEL_CACHE=str(tmp_path))
        script = (f"{setup}\nimport sys\nfrom repro.cli import main\n"
                  f"sys.exit(main(['opt', {loose_file!r}, '--backend', {backend!r}]))")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("repro: ")

    def test_bugs_still_raise(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(cli, "_run", boom)
        with pytest.raises(ZeroDivisionError):
            main(["classify", "x.json"])
        assert cli.exit_code_for(ImportError("x", name="numpy")) is None
        assert cli.exit_code_for(ModuleNotFoundError("x", name="scipy.optimize")) == 7
