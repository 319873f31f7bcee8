"""Tests for the ``repro`` command-line launcher."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.workflow.executor import TIMING_METRICS, JsonlCheckpoint
from repro.workflow.results import StudyResults

#: ``fig4_smoke.json`` / ``fig6_smoke.json`` at ``--seed 0``, as written when
#: fig4 and fig6 still kept their runs' full in-process results: reading the
#: run records instead must not move a byte
FIG4_SMOKE_SEED0 = (
    '{\n  "uniform_mean": 102.31193742653608,\n  "proposal_mean": 88.55659603547528,'
    '\n  "proposal_mean_shift": -13.755341391060796,\n  "random_run_mean": 97.16925545086762,'
    '\n  "breed_run_mean": 93.71484905712309,\n  "breed_mean_shift": -3.4544063937445344,'
    '\n  "n_proposal_vectors": 30.0,\n  "n_uniform_vectors": 18.0\n}'
)
FIG6_SMOKE_SEED0 = (
    '{\n  "key_findings": {\n    "deviation_vs_iteration": -0.019523391631568285,'
    '\n    "deviation_vs_sample_loss": 0.3551015272182645,'
    '\n    "batch_loss_vs_iteration": -0.9009279511564522,'
    '\n    "sample_loss_vs_iteration": -0.7460313308678479\n  },\n  "checks": {'
    '\n    "deviation_weakly_coupled_to_iteration": true,'
    '\n    "deviation_positively_tracks_sample_loss": true,'
    '\n    "losses_decrease_with_iteration": true\n  }\n}'
)
PINNED_SUMMARIES = {"fig4": FIG4_SMOKE_SEED0, "fig6": FIG6_SMOKE_SEED0}
OVERHEAD_KEYS = [
    "random_steering_seconds", "breed_steering_seconds", "breed_steering_events",
    "breed_iterations", "breed_batches", "steering_seconds_per_event",
    "random_final_validation", "breed_final_validation",
    "random_dropped_messages", "breed_dropped_messages",
]


class TestParser:
    def test_registry_covers_all_experiments(self):
        assert set(EXPERIMENTS) == {
            "fig3a", "fig3b", "cross", "fig4", "fig6", "overhead", "table1",
        }

    def test_backend_resolution(self):
        from repro.cli import _resolve_backend

        parser = build_parser()
        assert _resolve_backend(parser.parse_args(["fig3b"])) == ("serial", None)
        assert _resolve_backend(parser.parse_args(["fig3b", "--jobs", "4"])) == ("process", 4)
        assert _resolve_backend(parser.parse_args(["fig3b", "--jobs", "1"])) == ("serial", 1)
        assert _resolve_backend(
            parser.parse_args(["fig3b", "--backend", "serial", "--jobs", "4"])
        ) == ("serial", 4)

    def test_checkpoint_flags_default_off(self):
        args = build_parser().parse_args(["fig3a"])
        assert args.checkpoint_every is None
        assert args.restore is False
        args = build_parser().parse_args(["fig3a", "--checkpoint-every", "50", "--restore"])
        assert args.checkpoint_every == 50
        assert args.restore is True

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_experiment_is_an_error(self):
        assert main([]) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_version_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        from pathlib import Path

        from repro import __version__

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert f'version = "{__version__}"' in pyproject.read_text()

    def test_serve_listed_alongside_experiments(self, capsys):
        assert main(["--list"]) == 0
        assert "serve" in capsys.readouterr().out


class TestServeParser:
    def test_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.root == "service"
        assert args.host == "127.0.0.1"
        assert args.port == 8517
        assert args.workers == 1

    def test_overrides(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--root", "/tmp/svc", "--port", "0", "--workers", "3", "--checkpoint-every", "5"]
        )
        assert (args.root, args.port, args.workers, args.checkpoint_every) == (
            "/tmp/svc", 0, 3, 5,
        )


class TestCliRuns:
    def test_table1(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Study (1)" in out
        assert (tmp_path / "table1.txt").exists()

    def test_fig3b_single_factor_writes_results_and_checkpoint(self, tmp_path, capsys):
        assert main([
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sigma" in out
        study = StudyResults.load_json(tmp_path / "fig3b_smoke.json")
        assert len(study) == 2  # SMOKE_FACTORS["sigma"] has two values
        checkpoint = tmp_path / "fig3b_smoke.runs.jsonl"
        assert len(checkpoint.read_text().splitlines()) == 2
        # The trailing status line is machine-readable.
        status = json.loads(out.strip().splitlines()[-1])
        assert status["experiment"] == "fig3b"
        assert status["runs"] == 2

    def test_fig3b_resume_from_checkpoint(self, tmp_path, capsys):
        args = ["fig3b", "--scale", "smoke", "--factor", "sigma", "--out", str(tmp_path)]
        assert main(args) == 0
        checkpoint = tmp_path / "fig3b_smoke.runs.jsonl"
        first = checkpoint.read_text()
        # Re-invoke with --resume: nothing new is executed or appended.
        assert main(args + ["--resume", str(checkpoint)]) == 0
        assert checkpoint.read_text() == first

    def test_checkpoint_every_writes_session_snapshots(self, tmp_path, capsys):
        args = [
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--out", str(tmp_path), "--checkpoint-every", "30",
        ]
        assert main(args) == 0
        snapshot_root = tmp_path / "fig3b_smoke.runs.jsonl.snapshots"
        run_dirs = sorted(p for p in snapshot_root.iterdir() if p.is_dir())
        assert len(run_dirs) == 2  # one snapshot dir per run
        assert all(any(d.glob("step-*/manifest.json")) for d in run_dirs)

    def test_fresh_invocation_clears_stale_snapshots(self, tmp_path, capsys):
        # A deliberately fresh invocation (no --restore) must not silently
        # resume runs mid-way from the previous invocation's session
        # snapshots — the snapshot dir is cleared along with the JSONL.
        args = [
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--out", str(tmp_path), "--checkpoint-every", "30",
        ]
        assert main(args) == 0
        snapshot_root = tmp_path / "fig3b_smoke.runs.jsonl.snapshots"
        sentinel = snapshot_root / "0000-stale-marker"
        sentinel.mkdir()
        assert main(args) == 0  # fresh: stale snapshot tree is removed first
        assert not sentinel.exists()
        # while --restore keeps the snapshots in place
        assert main(args + ["--restore"]) == 0
        assert snapshot_root.is_dir()

    def test_restore_resumes_default_checkpoint(self, tmp_path, capsys):
        args = [
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--out", str(tmp_path), "--checkpoint-every", "30",
        ]
        assert main(args) == 0
        checkpoint = tmp_path / "fig3b_smoke.runs.jsonl"
        first = checkpoint.read_text()
        # --restore implies --resume on the default checkpoint path: the
        # completed runs are spliced in, nothing is re-executed or appended.
        assert main(args + ["--restore"]) == 0
        assert checkpoint.read_text() == first

    def test_fig3b_unknown_factor_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["fig3b", "--factor", "nope", "--out", str(tmp_path)])

    def test_checkpoint_does_not_accumulate_across_invocations(self, tmp_path, capsys):
        args = ["fig3b", "--scale", "smoke", "--factor", "r_end", "--out", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0  # no --resume: fresh invocation, fresh checkpoint
        checkpoint = tmp_path / "fig3b_smoke.runs.jsonl"
        assert len(checkpoint.read_text().splitlines()) == 2  # not 4


class TestRecordAnalyses:
    """fig4, fig6 and overhead are study grids read from run records."""

    @pytest.mark.parametrize("experiment", ["fig4", "fig6"])
    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]])
    def test_summary_bytes_pinned(self, experiment, jobs, tmp_path, capsys):
        assert main([experiment, "--scale", "smoke", "--seed", "0", "--out", str(tmp_path), *jobs]) == 0
        assert (tmp_path / f"{experiment}_smoke.json").read_text() == PINNED_SUMMARIES[experiment]

    def test_overhead_keeps_its_summary_keys(self, tmp_path, capsys):
        assert main(["overhead", "--scale", "smoke", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "overhead_smoke.json").read_text())
        assert list(summary) == OVERHEAD_KEYS

    @pytest.mark.parametrize("experiment, n_runs", [("fig4", 2), ("fig6", 1), ("overhead", 2)])
    def test_engine_flags_apply(self, experiment, n_runs, tmp_path, capsys, monkeypatch):
        from repro.workflow.executor import MultiprocessExecutor

        calls = []
        execute = MultiprocessExecutor.execute
        monkeypatch.setattr(
            MultiprocessExecutor, "execute",
            lambda self, specs, on_record=None: calls.append(len(specs)) or execute(self, specs, on_record),
        )
        args = [experiment, "--scale", "smoke", "--out", str(tmp_path), "--jobs", "2",
                "--checkpoint-every", "30"]
        assert main(args) == 0
        assert calls == [n_runs]
        checkpoint = tmp_path / f"{experiment}_smoke.runs.jsonl"
        first = checkpoint.read_text()
        assert len(first.splitlines()) == n_runs
        run_dirs = list((tmp_path / f"{experiment}_smoke.runs.jsonl.snapshots").iterdir())
        assert len(run_dirs) == n_runs
        # --restore and --resume splice every completed run: nothing re-runs
        assert main(args + ["--restore"]) == 0
        assert main(args[:-2] + ["--resume", str(checkpoint)]) == 0
        assert checkpoint.read_text() == first
        assert calls == [n_runs, 0, 0]

    def test_fig4_restore_after_one_checkpointed_run_matches_a_fresh_run(self, tmp_path, capsys):
        args = ["fig4", "--scale", "smoke", "--out", str(tmp_path), "--checkpoint-every", "30"]
        assert main(args) == 0
        checkpoint = tmp_path / "fig4_smoke.runs.jsonl"
        first_run = checkpoint.read_text().splitlines()[0]
        checkpoint.write_text(first_run + "\n")  # killed after the first run finished
        assert main(args + ["--restore"]) == 0
        assert checkpoint.read_text().splitlines()[0] == first_run
        assert (tmp_path / "fig4_smoke.json").read_text() == FIG4_SMOKE_SEED0

    def test_seed_axis_doubles_the_runs_and_matches_single_seed_records(self, tmp_path, capsys):
        assert main(["fig4", "--scale", "smoke", "--seeds", "0-1", "--out", str(tmp_path / "axis")]) == 0
        note = capsys.readouterr().err
        assert "note: 2 seeds ran; the summary pools" in note and "fig4_smoke.runs.jsonl" in note
        axis = JsonlCheckpoint(tmp_path / "axis" / "fig4_smoke.runs.jsonl").load()
        assert sorted(axis) == ["fig4:breed-s0", "fig4:breed-s1", "fig4:random-s0", "fig4:random-s1"]
        for seed in (0, 1):
            out = tmp_path / f"seed{seed}"
            assert main(["fig4", "--scale", "smoke", "--seeds", str(seed), "--out", str(out)]) == 0
            assert "seeds ran" not in capsys.readouterr().err
            single = JsonlCheckpoint(out / "fig4_smoke.runs.jsonl").load()
            assert sorted(single) == ["fig4:breed", "fig4:random"]  # one seed: names unchanged
            for name, record in single.items():
                twin = axis[f"{name}-s{seed}"]
                assert twin.config == {**record.config, "seed": seed}
                for key in ("series", "workload", "seed", "digest", "executed_parameters",
                            "parameter_sources", "sample_correlations"):
                    assert getattr(twin, key) == getattr(record, key), (name, key)
                for run in (twin, record):
                    for key in TIMING_METRICS:
                        run.metrics.pop(key)
                assert twin.metrics == record.metrics

    def test_seed_list_forms(self):
        parser = build_parser()
        assert parser.parse_args(["fig4", "--seeds", "0-3"]).seeds == [0, 1, 2, 3]
        assert parser.parse_args(["fig4", "--seeds", "5"]).seeds == [5]
        assert parser.parse_args(["fig4", "--seeds", "0,3,7-8"]).seeds == [0, 3, 7, 8]
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4", "--seeds", "a-b"])


class TestCompare:
    @pytest.fixture
    def runs_file(self, tmp_path):
        from repro.workflow.results import RunResult

        checkpoint = JsonlCheckpoint(tmp_path / "planted.runs.jsonl")
        for seed in range(10):
            base = 1.0 + 0.1 * seed
            for method, value in (("breed", 0.95 * base), ("random", base)):
                checkpoint.append(RunResult(
                    name=f"s:{method}-s{seed}",
                    config={"_name": f"{method}-s{seed}", "method": method, "seed": seed},
                    metrics={"final_validation_loss": value},
                    seed=seed,
                ))
        return checkpoint.path

    def test_table_names_the_verdict(self, runs_file, capsys):
        assert main(["compare", str(runs_file), "--by", "method"]) == 0
        out = capsys.readouterr().out
        assert "breed vs random" in out and "10/10" in out and "holds" in out

    def test_json_output(self, runs_file, capsys):
        assert main(["compare", str(runs_file), "--json", "--metric", "final_validation_loss"]) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert (row["group"], row["baseline"], row["wins"], row["losses"]) == ("breed", "random", 10, 0)
        assert row["verdict"] == "holds"

    def test_unknown_metric_rejected(self, runs_file):
        with pytest.raises(SystemExit, match="missing"):
            main(["compare", str(runs_file), "--metric", "nope"])

    def test_figure_summary_points_to_its_runs_file(self, tmp_path):
        summary = tmp_path / "fig4_smoke.json"
        summary.write_text(json.dumps({"breed_mean_shift": -3.45}))
        with pytest.raises(SystemExit, match=r"figure summary.*fig4_smoke\.runs\.jsonl"):
            main(["compare", str(summary)])


class TestWorkloadFlag:
    def test_cross_runs_selected_workloads(self, tmp_path, capsys):
        assert main([
            "cross", "--scale", "smoke", "--out", str(tmp_path),
            "--workload", "burgers", "--workload", "fisher",
        ]) == 0
        out = capsys.readouterr().out
        assert "burgers" in out and "fisher" in out
        study = StudyResults.load_json(tmp_path / "cross_smoke.json")
        assert len(study) == 4  # 2 workloads x {breed, random}
        status = json.loads(out.strip().splitlines()[-1])
        assert status["experiment"] == "cross"

    def test_cross_rejects_unknown_workload(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["cross", "--workload", "nope", "--out", str(tmp_path)])

    def test_cross_accepts_mixed_case_workload_names(self, tmp_path, capsys):
        # the registry is case-insensitive; the CLI validation must be too
        assert main([
            "cross", "--scale", "smoke", "--workload", "Burgers", "--out", str(tmp_path),
        ]) == 0
        study = StudyResults.load_json(tmp_path / "cross_smoke.json")
        assert {run.workload for run in study.runs} == {"burgers"}

    def test_fig3b_runs_against_another_workload(self, tmp_path, capsys):
        assert main([
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--workload", "advection1d", "--out", str(tmp_path),
        ]) == 0
        study = StudyResults.load_json(tmp_path / "fig3b_smoke.json")
        assert {run.workload for run in study.runs} == {"advection1d"}

    def test_single_workload_experiments_reject_several(self, tmp_path):
        with pytest.raises(SystemExit, match="single workload"):
            main([
                "fig3b", "--workload", "burgers", "--workload", "fisher",
                "--out", str(tmp_path),
            ])


class TestTelemetryFlags:
    @pytest.fixture(autouse=True)
    def telemetry_reset(self):
        yield
        from repro import telemetry

        telemetry.disable()

    def test_metrics_flag_writes_exposition(self, tmp_path, capsys):
        assert main([
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--out", str(tmp_path), "--metrics",
        ]) == 0
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        path = tmp_path / "fig3b_smoke.metrics.txt"
        assert status["metrics"] == str(path)
        text = path.read_text()
        assert "# TYPE repro_session_ticks_total counter" in text
        assert "repro_solver_steps_total" in text

    def test_trace_flag_writes_jsonl_spans(self, tmp_path, capsys):
        trace_dir = tmp_path / "trace"
        assert main([
            "fig3b", "--scale", "smoke", "--factor", "sigma",
            "--out", str(tmp_path), "--trace", str(trace_dir),
        ]) == 0
        status = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert status["trace"] == str(trace_dir)
        files = list(trace_dir.glob("trace-*.jsonl"))
        assert files
        assert any("session.tick" in line for line in files[0].read_text().splitlines())

    def test_flags_off_leave_telemetry_dark(self, tmp_path, capsys):
        from repro import telemetry

        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert not telemetry.metrics_enabled()
        assert not telemetry.tracing_enabled()


class TestDoctor:
    def test_clean_root_is_healthy(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "shm segments" not in out
        assert out.strip().endswith("healthy")

    def test_json_output(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["healthy"] is True
        assert "orphaned_shm_segments" not in report
        assert report["service_roots"] == []

    def test_reports_cpus_and_the_solver_worker_selection_by_name(self, tmp_path, capsys, monkeypatch):
        import os

        from repro.melissa.workers import MIN_TRAJECTORY_FLOATS

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["solver_workers"] == {
            "usable_cpus": 3,
            "would_use_workers": True,
            "inline_reason": None,
            "min_trajectory_floats": MIN_TRAJECTORY_FLOATS,
        }
        assert main(["doctor", str(tmp_path)]) == 0
        assert "solver workers: 3 usable CPU(s); a session here forks 3" in capsys.readouterr().out

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["doctor", str(tmp_path), "--json"]) == 0  # informational, never an issue
        report = json.loads(capsys.readouterr().out)["solver_workers"]
        assert (report["would_use_workers"], report["inline_reason"]) == (False, "single_cpu")
        assert main(["doctor", str(tmp_path)]) == 0
        assert "steps its solvers inline (single_cpu)" in capsys.readouterr().out

    def test_stopped_service_root_is_benign(self, tmp_path, capsys):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "server.json").write_text(json.dumps({"url": "http://127.0.0.1:1", "pid": 1}))
        (root / "shutdown.marker").write_text("")
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["service_roots"][0]["status"] == "stopped"

    def test_crashed_service_root_flags_attention(self, tmp_path, capsys):
        root = tmp_path / "svc"
        root.mkdir()
        # Advertised URL nothing listens on, and no clean-stop marker.
        (root / "server.json").write_text(json.dumps({"url": "http://127.0.0.1:1", "pid": 1}))
        assert main(["doctor", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["service_roots"][0]["status"] == "crashed"
        assert any("repro serve --root" in issue for issue in report["issues"])

    def test_corrupt_server_json_flags_attention(self, tmp_path, capsys):
        root = tmp_path / "svc"
        root.mkdir()
        (root / "server.json").write_text("{not json")
        assert main(["doctor", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["service_roots"][0]["status"] == "corrupt"

    def test_live_service_root_reported_live(self, tmp_path, capsys):
        from repro.service import StudyService

        service = StudyService(tmp_path / "svc", port=0, n_workers=1).start()
        try:
            assert main(["doctor", str(tmp_path), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["service_roots"][0]["status"] == "live"
        finally:
            service.stop()

    def test_checkpoint_usage_scanned(self, tmp_path, capsys):
        snapshots = tmp_path / "runs.jsonl.snapshots" / "run0" / "step-10"
        snapshots.mkdir(parents=True)
        (snapshots / "manifest.json").write_text("{}")
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        usage = report["checkpoint_usage"][0]
        assert usage["snapshots"] == 1
        assert usage["bytes"] > 0

    def test_doctor_listed_in_experiments_table(self, capsys):
        main(["--list"])
        assert "doctor" in capsys.readouterr().out


class TestDoctorCampaigns:
    """The campaign-manifest probe: finished / running / abandoned roots."""

    @staticmethod
    def _write_manifest(root, pid, *, finished=False, node="train"):
        root.mkdir(parents=True, exist_ok=True)
        events = [
            {"seq": 0, "event": "campaign_started", "pid": pid, "ts": 1.0,
             "campaign": "demo", "digest": "d" * 16, "backend": "serial",
             "resumed": False, "nodes": [node]},
            {"seq": 1, "event": "node_started", "pid": pid, "ts": 2.0,
             "node": node, "attempt": 1},
        ]
        if finished:
            events.append({"seq": 2, "event": "node_finished", "pid": pid,
                           "ts": 3.0, "node": node, "runs": 1})
            events.append({"seq": 3, "event": "campaign_finished", "pid": pid,
                           "ts": 4.0, "campaign": "demo", "states": {node: "done"},
                           "cache_hits": 0, "runs_executed": 1})
        (root / "manifest.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events)
        )

    def test_finished_campaign_is_healthy(self, tmp_path, capsys):
        import os

        self._write_manifest(tmp_path / "camp", os.getpid(), finished=True)
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaigns"][0]["status"] == "finished"
        assert report["healthy"] is True

    def test_running_campaign_with_live_pid_is_healthy(self, tmp_path, capsys):
        import os

        self._write_manifest(tmp_path / "camp", os.getpid())
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaigns"][0]["status"] == "running"
        assert report["campaigns"][0]["running_nodes"] == ["train"]

    def test_abandoned_campaign_flags_attention_with_resume_hint(self, tmp_path, capsys):
        import subprocess
        import sys

        # a pid guaranteed dead: a subprocess that has already been reaped
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        self._write_manifest(tmp_path / "camp", probe.pid)

        assert main(["doctor", str(tmp_path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        finding = report["campaigns"][0]
        assert finding["status"] == "abandoned"
        assert finding["running_nodes"] == ["train"]
        hint = f"repro campaign --root {tmp_path / 'camp'} --resume"
        assert any(hint in issue for issue in report["issues"])

    def test_abandoned_campaign_in_table_output(self, tmp_path, capsys):
        import subprocess
        import sys

        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        self._write_manifest(tmp_path / "camp", probe.pid)

        assert main(["doctor", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "abandoned" in out
        assert "attention needed" in out.strip().splitlines()[-1]

    def test_non_campaign_jsonl_is_ignored(self, tmp_path, capsys):
        root = tmp_path / "svc" / "jobs" / "j1"
        root.mkdir(parents=True)
        (root / "manifest.jsonl").write_text(
            json.dumps({"seq": 0, "event": "queued", "pid": 1}) + "\n"
        )
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["campaigns"] == []

    def test_real_killed_campaign_is_abandoned_end_to_end(self, tmp_path):
        """A genuinely SIGKILLed `repro campaign` leaves an abandoned root."""
        import json as json_module

        from faults import CrashAt, run_campaign_cli
        from topologies import fanout_spec

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json_module.dumps(fanout_spec()))
        root = tmp_path / "camp"
        rc, _out, _err = run_campaign_cli(
            [spec_file, "--root", root], cwd=tmp_path,
            fault=CrashAt("f1", 0, point="run"),
        )
        assert rc != 0

        from repro.doctor import diagnose

        report = diagnose([tmp_path])
        finding = next(c for c in report["campaigns"] if c["root"] == str(root))
        assert finding["status"] == "abandoned"
        assert any("--resume" in issue for issue in report["issues"])


class TestDoctorJson:
    def test_clean_json_report_has_all_probe_keys(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "service_roots", "checkpoint_usage", "campaigns", "solver_workers", "issues", "healthy",
        }
        assert report["service_roots"] == []
        assert report["checkpoint_usage"] == []
        assert report["campaigns"] == []
        assert report["issues"] == []
        assert report["healthy"] is True
