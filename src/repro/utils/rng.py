"""Seeded random-number-generator utilities.

The reproduction relies on many interacting stochastic components (uniform
steering, Breed proposal sampling, reservoir eviction, batch sampling, NN
weight initialisation, scheduler jitter).  To keep experiments reproducible
while avoiding accidental stream coupling, every component draws from its own
named child stream derived from a single root seed via
:func:`numpy.random.SeedSequence.spawn`-style key hashing.

Example
-------
>>> streams = RngStreams(seed=123)
>>> a = streams.get("reservoir")
>>> b = streams.get("breed")
>>> a is streams.get("reservoir")
True
>>> float(a.random()) != float(b.random())
True
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

__all__ = ["RngStreams", "derive_seed"]


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a deterministic 63-bit child seed from ``root_seed`` and ``name``.

    The derivation hashes the pair with SHA-256 so that child streams for
    different component names are statistically independent even when the root
    seeds of two experiments are close (e.g. 0 and 1).

    Parameters
    ----------
    root_seed:
        The experiment-level seed.
    name:
        Component identifier, e.g. ``"reservoir"`` or ``"breed.proposal"``.

    Returns
    -------
    int
        A non-negative integer usable as a :class:`numpy.random.Generator` seed.
    """
    payload = f"{int(root_seed)}::{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class RngStreams:
    """A registry of named, independently seeded random generators.

    Parameters
    ----------
    seed:
        Root seed of the experiment.  ``None`` draws a random root seed from
        the OS entropy pool (recorded in :attr:`seed` for later reproduction).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy) & 0x7FFF_FFFF
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed used to derive every child stream."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for component ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(derive_seed(self._seed, name))
        return self._streams[name]

    def state_dict(self) -> Dict[str, object]:
        """Bit-generator states of every materialised stream (JSON-compatible).

        The per-stream state is whatever :attr:`numpy.random.BitGenerator.state`
        reports — plain dictionaries of (big) integers for PCG64 — so the dict
        round-trips exactly through JSON.
        """
        return {
            "seed": self._seed,
            "streams": {
                name: self._streams[name].bit_generator.state
                for name in sorted(self._streams)
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore stream states *in place*.

        Components hold direct references to the :class:`numpy.random.Generator`
        objects handed out by :meth:`get`, so restoration mutates the existing
        generators' bit-generator state rather than replacing the objects —
        every aliased holder (reservoir, launcher, breed controller, …)
        continues from the restored state.
        """
        if int(state["seed"]) != self._seed:
            raise ValueError(
                f"RngStreams state was saved with root seed {state['seed']}, "
                f"this registry uses {self._seed}"
            )
        for name, generator_state in state["streams"].items():  # type: ignore[union-attr]
            self.get(name).bit_generator.state = generator_state

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"
