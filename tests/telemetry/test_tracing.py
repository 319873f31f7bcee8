"""Unit tests for the JSONL span tracer and the chrome://tracing converter."""

from __future__ import annotations

import json
import os

from repro.telemetry.tracing import NULL_TRACER, Tracer, to_chrome


def _events(tracer: Tracer) -> list:
    tracer.flush()
    return [json.loads(line) for line in tracer.path.read_text().splitlines() if line]


class TestNullTracer:
    def test_disabled_and_reusable(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("x") is NULL_TRACER.span("y")
        with NULL_TRACER.span("x"):
            assert NULL_TRACER.depth == 0
        NULL_TRACER.instant("nothing")
        NULL_TRACER.flush()
        NULL_TRACER.close()


class TestTracer:
    def test_writes_per_pid_jsonl(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("tick"):
            pass
        tracer.close()
        assert tracer.path == tmp_path / f"trace-{os.getpid()}.jsonl"
        assert tracer.path.exists()

    def test_first_event_is_process_name_metadata(self, tmp_path):
        tracer = Tracer(tmp_path, process_name="unit test")
        meta = _events(tracer)[0]
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert meta["args"] == {"name": "unit test"}

    def test_complete_event_shape(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("session.tick", cat="session"):
            pass
        event = _events(tracer)[-1]
        assert event["ph"] == "X"
        assert event["name"] == "session.tick"
        assert event["cat"] == "session"
        assert event["pid"] == os.getpid()
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0

    def test_span_args_serialized(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("checkpoint.save", cat="checkpoint", tick=7):
            pass
        event = _events(tracer)[-1]
        assert event["args"] == {"tick": 7}

    def test_nesting_depth_and_containment(self, tmp_path):
        tracer = Tracer(tmp_path)
        assert tracer.depth == 0
        with tracer.span("outer"):
            assert tracer.depth == 1
            with tracer.span("inner"):
                assert tracer.depth == 2
        assert tracer.depth == 0
        events = {e["name"]: e for e in _events(tracer) if e["ph"] == "X"}
        inner, outer = events["inner"], events["outer"]
        # The child's window lies inside the parent's — the property the
        # chrome://tracing viewer uses to reconstruct the hierarchy.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_instant_event(self, tmp_path):
        tracer = Tracer(tmp_path)
        tracer.instant("server.steering", cat="steering", iteration=40)
        event = _events(tracer)[-1]
        assert event["ph"] == "i"
        assert event["s"] == "t"
        assert event["args"] == {"iteration": 40}

    def test_span_closed_on_exception(self, tmp_path):
        tracer = Tracer(tmp_path)
        try:
            with tracer.span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.depth == 0
        assert any(e["name"] == "failing" for e in _events(tracer))

    def test_every_line_is_valid_json(self, tmp_path):
        tracer = Tracer(tmp_path)
        for i in range(20):
            with tracer.span(f"span-{i}"):
                pass
        tracer.flush()
        for line in tracer.path.read_text().splitlines():
            json.loads(line)


class TestToChrome:
    def test_wraps_trace_events(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("a"):
            pass
        tracer.close()
        out = to_chrome(tracer.path)
        assert out.suffix == ".json"
        payload = json.loads(out.read_text())
        assert {e["name"] for e in payload["traceEvents"]} >= {"a", "process_name"}

    def test_tolerates_torn_final_line(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("kept"):
            pass
        tracer.close()
        with tracer.path.open("a") as stream:
            stream.write('{"name": "torn", "ph":')  # crashed writer mid-line
        payload = json.loads(to_chrome(tracer.path).read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        assert "kept" in names
        assert "torn" not in names

    def test_keeps_events_flushed_after_a_torn_line(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("before"):
            pass
        tracer.flush()
        # A writer killed mid-flush: half of a real event line, no newline.
        line = tracer.path.read_text().splitlines()[-1]
        with tracer.path.open("a") as stream:
            stream.write(line[: len(line) // 2])
        with tracer.span("after"):
            pass
        tracer.close()
        payload = json.loads(to_chrome(tracer.path).read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        assert names == ["process_name", "before", "after"]
