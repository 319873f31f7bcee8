"""Process-wide telemetry state: configure/disable, env mirroring, null paths."""

from __future__ import annotations

import os

from repro import telemetry


class TestDisabledDefaults:
    def test_disabled_by_default(self):
        assert telemetry.metrics_enabled() is False
        assert telemetry.tracing_enabled() is False
        assert telemetry.tracer() is telemetry.NULL_TRACER

    def test_metrics_returns_throwaway_registry_when_disabled(self):
        # Instrumented constructors can always register; nothing accumulates
        # across calls because each call hands out a fresh registry.
        telemetry.metrics().counter("x_total").inc()
        assert telemetry.metrics().counter_values() == {}


class TestConfigure:
    def test_enable_metrics_installs_shared_registry(self):
        telemetry.configure(metrics=True)
        assert telemetry.metrics_enabled()
        telemetry.metrics().counter("shared_total").inc()
        assert telemetry.metrics().counter_values()["shared_total"] == 1.0

    def test_enable_metrics_exports_env(self):
        telemetry.configure(metrics=True)
        assert os.environ[telemetry.METRICS_ENV] == "1"
        telemetry.configure(metrics=False)
        assert telemetry.METRICS_ENV not in os.environ

    def test_metrics_none_leaves_state_untouched(self):
        telemetry.configure(metrics=True)
        registry = telemetry.metrics()
        telemetry.configure(metrics=None)
        assert telemetry.metrics() is registry

    def test_custom_registry_installed(self):
        registry = telemetry.MetricsRegistry()
        telemetry.configure(registry=registry)
        assert telemetry.metrics() is registry

    def test_trace_dir_installs_tracer_and_exports_env(self, tmp_path):
        telemetry.configure(trace_dir=tmp_path, process_name="test proc")
        assert telemetry.tracing_enabled()
        assert os.environ[telemetry.TRACE_DIR_ENV] == str(tmp_path)
        with telemetry.tracer().span("probe"):
            pass
        telemetry.tracer().flush()
        assert list(tmp_path.glob("trace-*.jsonl"))

    def test_disable_resets_everything(self, tmp_path):
        telemetry.configure(metrics=True, trace_dir=tmp_path)
        telemetry.disable()
        assert not telemetry.metrics_enabled()
        assert not telemetry.tracing_enabled()
        assert telemetry.METRICS_ENV not in os.environ
        assert telemetry.TRACE_DIR_ENV not in os.environ


class TestConfigureFromEnv:
    def test_adopts_environment_switches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.METRICS_ENV, "1")
        monkeypatch.setenv(telemetry.TRACE_DIR_ENV, str(tmp_path))
        telemetry._configure_from_env()
        assert telemetry.metrics_enabled()
        assert telemetry.tracing_enabled()

    def test_zero_and_empty_mean_disabled(self, monkeypatch):
        monkeypatch.setenv(telemetry.METRICS_ENV, "0")
        monkeypatch.delenv(telemetry.TRACE_DIR_ENV, raising=False)
        telemetry._configure_from_env()
        assert not telemetry.metrics_enabled()
        assert not telemetry.tracing_enabled()
