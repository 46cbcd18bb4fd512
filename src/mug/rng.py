"""Counter-based random streams, keyed by what they are for.

Everything stochastic in this package draws from an RngStream(seed, purpose,
*path): a Philox generator with key [seed, purpose] and counter
[0, *path, 0...]. The purpose names the kind of draw (walks, masks, ...)
and the path names which one (a view, an epoch, a parameter, a repeat).
Draws advance counter word 0 only (a carry into word 1 would take 2**64
blocks), and the path sits in words 1-3, so two different keys never
produce the same block: streams are disjoint by construction, with no id
packed or hashed. Every purpose keys its streams with paths of one length,
so a short path cannot alias a longer one that ends in zeros. Equal keys
give identical sequences. See Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3", SC 2011.
"""

from __future__ import annotations

import numpy as np

# Purposes. The path each one takes: WALKS (view), SGNS (epoch), INIT
# (parameter index), MASK (epoch, view), SPLIT (repeat); the others none.
# STRUCT keys a graph's struct table as a whole and draws nothing itself.
SYNTH, STRUCT, WALKS, SGNS_INIT, SGNS, SAMPLE, INIT, MASK, SPLIT = range(9)
_PATH_LEN = (0, 0, 1, 0, 1, 0, 1, 2, 1)

_MASK64 = (1 << 64) - 1


class RngStream:
    """A named, replayable random stream; stream_id is (purpose, *path)."""

    def __init__(self, seed: int, purpose: int = SYNTH, *path: int):
        if not (0 <= purpose < len(_PATH_LEN) and len(path) == _PATH_LEN[purpose]
                and all(0 <= i <= _MASK64 for i in path)):
            raise ValueError(f"stream key {(purpose, *path)}: not a purpose with its "
                             f"path length and indices in [0, 2**64)")
        self.seed = int(seed) & _MASK64
        self.stream_id = (purpose, *map(int, path))
        counter = np.zeros(4, dtype=np.uint64)
        counter[1:1 + len(path)] = path
        key = np.array([self.seed, purpose], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key, counter=counter))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def choice(self, n: int, size: int, replace: bool) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)
