"""Counter-based uniform random numbers.

Every value is a pure function of (seed, stream, index), so trials can
be generated in any order, on any worker, with identical results. The
mixer is the splitmix64 finalizer; streams are separated by offsetting
the counter with the 64-bit golden ratio before mixing.

Because a value depends on its index alone, any set of indices can be
drawn without drawing the rest: `IndexDraw` hashes a fixed index array
in place, for one (seed, stream) after another, into a buffer its
caller reuses. `uniforms` is that draw over the indices 0..count-1.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    """Collapse (seed, stream) into one 64-bit key. The stream index is
    mixed in, not just added, so neighboring streams share nothing."""
    return mix64(((seed & MASK64) + ((stream + 1) * GOLDEN)) & MASK64)


def uniform_at(seed: int, stream: int, index: int) -> float:
    """The index-th uniform of the (seed, stream) sequence, in [0, 1)."""
    key = stream_key(seed, stream)
    z = mix64((key + ((index + 1) * GOLDEN)) & MASK64)
    return (z >> 11) * 2.0**-53


# numpy scalars made once: the draw hashes with these every call
_ONE = np.uint64(1)
_GOLDEN64 = np.uint64(GOLDEN)
_ROUNDS = ((np.uint64(30), np.uint64(_MIX1)), (np.uint64(27), np.uint64(_MIX2)))
_LAST, _KEEP53 = np.uint64(31), np.uint64(11)


class IndexDraw:
    """uniform_at(seed, stream, i) for the indices i of one fixed array,
    hashed in place for any (seed, stream).

    The counters (i + 1) * GOLDEN are computed once, here; `fill` then
    adds the stream key and mixes in a reused uint64 scratch array, with
    no temporaries.
    """

    def __init__(self, index: np.ndarray):
        self.index = np.asarray(index)
        self._counters = np.add(self.index.astype(np.uint64, copy=False), _ONE)
        self._counters *= _GOLDEN64
        self._z = np.empty_like(self._counters)

    def fill(self, seed: int, stream: int, out: np.ndarray) -> np.ndarray:
        """Write the draws of (seed, stream) into the float64 array out,
        one per index, and return it."""
        z = self._z
        t = out.view(np.uint64)  # out's bytes hold each shifted term until the end
        np.add(self._counters, np.uint64(stream_key(seed, stream)), z)
        for shift, mult in _ROUNDS:
            np.right_shift(z, shift, t)
            z ^= t
            z *= mult
        np.right_shift(z, _LAST, t)
        z ^= t
        z >>= _KEEP53
        # below 2^53 now, so the int64 view holds the same values
        np.multiply(z.view(np.int64), 2.0**-53, out)
        return out


def uniforms(seed: int, stream: int, count: int) -> np.ndarray:
    """Vectorized uniform_at(seed, stream, 0..count-1) as float64."""
    return IndexDraw(np.arange(count, dtype=np.uint64)).fill(seed, stream, np.empty(count))
