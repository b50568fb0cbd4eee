"""The volume and image type, the seeded RNG and the finiteness error.

A ``Tensor`` is a contiguous row-major float32 numpy buffer that rejects NaN
and Inf on construction.  It is the type of ``Volume.data`` and of the
images ``metrics`` compares; inside the network, weights, biases, training
pairs and activations are plain float32 numpy arrays.

The random generator is SplitMix64 used in counter mode: output ``i`` of a
stream seeded with ``s`` is ``mix64(s + (i + 1) * 0x9E3779B97F4A7C15)`` with
the standard SplitMix64 finalizer.  Identical seeds therefore produce
bit-identical streams everywhere.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_F32_MAX = float(np.finfo(np.float32).max)


class NonFiniteError(ValueError):
    """A NaN or Inf reached a tensor, a layer output, a gradient or a loss."""


def validate_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Check extents are positive ints and the element count fits in memory."""
    extents = tuple(shape)
    if not extents:
        raise ValueError("shape must have at least one extent")
    count = 1
    for e in extents:
        if not isinstance(e, (int, np.integer)) or isinstance(e, bool) or e < 1:
            raise ValueError(f"shape extents must be positive integers, got {extents!r}")
        count *= int(e)
    if count > np.iinfo(np.intp).max:
        raise ValueError(f"element count {count} overflows the platform index range")
    return tuple(int(e) for e in extents)


class Tensor:
    """Read-only-by-convention float32 array.

    Construction rejects non-finite values so NaN/Inf never propagate
    silently.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        validate_shape(arr.shape)
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor contains NaN or Inf")
        self._data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def data(self) -> np.ndarray:
        """Underlying float32 buffer (do not mutate)."""
        return self._data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Rng:
    """Deterministic SplitMix64 stream in counter mode.

    The counter advances by the number of values drawn, so a stream is fully
    described by (seed, counter) and two streams with the same seed yield
    bit-identical values in order.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _U64_MASK
        self.counter = int(counter)

    @staticmethod
    def _mix(states: np.ndarray) -> np.ndarray:
        z = states.copy()
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def next_u64(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        idx = np.arange(self.counter + 1, self.counter + count + 1, dtype=np.uint64)
        self.counter += count
        states = np.uint64(self.seed) + idx * _GOLDEN
        return self._mix(states)

    def next_floats(self, count: int) -> np.ndarray:
        """float64 values in [0, 1) with 53 random bits each."""
        return (self.next_u64(count) >> np.uint64(11)) * np.float64(2.0**-53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates, high index downward, j = floor(u * (i + 1))."""
        n = len(items)
        if n < 2:
            return
        draws = self.next_floats(n - 1)
        for pos, i in enumerate(range(n - 1, 0, -1)):
            j = int(draws[pos] * (i + 1))
            items[i], items[j] = items[j], items[i]


def derive_seed(seed: int, tag: int) -> int:
    """Derive an independent child seed; distinct tags give distinct streams."""
    mixed = (seed ^ (0xD1B54A32D192ED03 * (tag + 1))) & _U64_MASK
    state = np.array([mixed], dtype=np.uint64) + _GOLDEN
    return int(Rng._mix(state)[0])


def uniform_init(shape: Sequence[int], lo: float, hi: float, rng: Rng) -> np.ndarray:
    """A new float32 array of i.i.d. uniform values in the half-open
    interval [lo, hi).  Bounds that are not finite in float32 are rejected,
    so every value is finite."""
    if not -_F32_MAX <= lo < hi <= _F32_MAX:
        raise ValueError(f"need float32-finite lo < hi, got lo={lo}, hi={hi}")
    extents = validate_shape(shape)
    u = rng.next_floats(math.prod(extents))
    vals = (lo + u * (hi - lo)).astype(np.float32)
    # float32 rounding can land exactly on hi; step those back to keep [lo, hi)
    top = np.float32(hi)
    vals = np.where(vals >= top, np.nextafter(top, np.float32(lo)), vals)
    return vals.reshape(extents)
