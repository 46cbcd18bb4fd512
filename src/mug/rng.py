"""Counter-based random streams.

Everything stochastic in this package draws from an RngStream: a Philox
generator keyed by (seed, stream_id). Equal keys give identical sequences;
distinct stream ids give independent sequences, so parallel work (one stream
per walk start node, per mask draw, per eval repeat) stays reproducible
regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

# Purpose offsets keep stream ids from different subsystems disjoint.
# Each subsystem adds its own small index below 2**32.
STREAM_WALKS = 1 << 32
STREAM_SGNS = 2 << 32
STREAM_MASK = 3 << 32
STREAM_INIT = 4 << 32
STREAM_SPLIT = 5 << 32
STREAM_SAMPLE = 6 << 32

_MASK64 = (1 << 64) - 1


class RngStream:
    """A named, replayable random stream: generator keyed by (seed, stream_id)."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        self._gen = np.random.Generator(
            np.random.Philox(key=[self.seed, self.stream_id])
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)
