"""Tests for the accumulating timer."""

from __future__ import annotations

import pytest

from repro.utils.timer import Timer


class TestTimer:
    def test_span_accumulates(self):
        timer = Timer(name="t")
        with timer.span():
            pass
        with timer.span():
            pass
        assert timer.count == 2
        assert timer.total >= 0.0
        assert timer.mean == pytest.approx(timer.total / 2)

    def test_double_start_raises(self):
        timer = Timer()
        timer.start()
        with pytest.raises(RuntimeError):
            timer.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_mean_zero_without_spans(self):
        assert Timer().mean == 0.0

    def test_stop_returns_span_elapsed_not_total(self):
        timer = Timer()
        with timer.span():
            pass
        timer.start()
        elapsed = timer.stop()
        assert 0.0 <= elapsed <= timer.total

    def test_span_accumulates_on_exception(self):
        timer = Timer(name="t")
        with pytest.raises(ValueError):
            with timer.span():
                raise ValueError("body failed")
        # The span still closed: count advanced and the timer is restartable.
        assert timer.count == 1
        timer.start()
        timer.stop()
        assert timer.count == 2

    def test_error_messages_carry_timer_name(self):
        timer = Timer(name="receive")
        timer.start()
        with pytest.raises(RuntimeError, match="'receive'"):
            timer.start()

