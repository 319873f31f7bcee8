"""Weight-initialisation statistics of the schemes ``Linear``/``Conv2d`` accept by name."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init as init_schemes


class TestInitialisers:
    def test_kaiming_uniform_bound(self, rng):
        w = init_schemes.kaiming_uniform((64, 256), rng)
        fan_in = 256
        gain = np.sqrt(2.0 / (1.0 + 5.0))
        bound = np.sqrt(3.0) * gain / np.sqrt(fan_in)
        assert np.all(np.abs(w) <= bound + 1e-12)

    def test_kaiming_normal_std(self, rng):
        w = init_schemes.kaiming_normal((2000, 500), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 500), rel=0.05)

    def test_xavier_uniform_bound(self, rng):
        w = init_schemes.xavier_uniform((100, 300), rng)
        bound = np.sqrt(6.0 / 400)
        assert np.all(np.abs(w) <= bound + 1e-12)

    def test_xavier_normal_std(self, rng):
        w = init_schemes.xavier_normal((1000, 1000), rng)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 2000), rel=0.05)

    def test_uniform_bias_bound(self, rng):
        b = init_schemes.uniform_bias(100, 25, rng)
        assert np.all(np.abs(b) <= 1.0 / 5.0 + 1e-12)

    def test_rejects_non_2d_shapes(self, rng):
        with pytest.raises(ValueError):
            init_schemes.kaiming_uniform((3,), rng)  # type: ignore[arg-type]
