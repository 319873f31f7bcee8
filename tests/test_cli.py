"""Tests for the ``repro`` command-line launcher."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.workflow.results import StudyResults


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
