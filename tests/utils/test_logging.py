"""Tests for the namespaced logger helper."""

from __future__ import annotations

from repro.utils.logging import get_logger


def test_get_logger_namespacing():
    assert get_logger("server").name == "repro.server"
