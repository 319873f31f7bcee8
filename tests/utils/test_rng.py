"""Tests for the named RNG stream registry."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "reservoir") == derive_seed(42, "reservoir")

    def test_differs_by_name(self):
        assert derive_seed(42, "reservoir") != derive_seed(42, "breed")

    def test_differs_by_root_seed(self):
        assert derive_seed(0, "reservoir") != derive_seed(1, "reservoir")

    def test_non_negative(self):
        assert derive_seed(0, "x") >= 0

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=20))
    def test_in_valid_generator_range(self, seed, name):
        derived = derive_seed(seed, name)
        assert 0 <= derived < 2**63
        # Must be usable as a Generator seed.
        np.random.default_rng(derived)


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_give_independent_streams(self):
        streams = RngStreams(seed=1)
        a = streams.get("a").random(10)
        b = streams.get("b").random(10)
        assert not np.allclose(a, b)

    def test_reproducible_across_instances(self):
        first = RngStreams(seed=7).get("x").random(5)
        second = RngStreams(seed=7).get("x").random(5)
        np.testing.assert_array_equal(first, second)

    def test_none_seed_records_entropy(self):
        streams = RngStreams(seed=None)
        assert isinstance(streams.seed, int)
        assert streams.seed >= 0
