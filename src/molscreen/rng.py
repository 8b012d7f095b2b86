"""Self-contained deterministic random number generation.

Every stochastic step in the pipeline (dataset splits, bootstrap draws,
per-node feature subsampling) flows from a ``SplitMix64`` stream so that a
run is reproducible from its master seed alone, independent of Python or
numpy version.

SplitMix64 is counter-based: its ``i``-th value is the mixing function of
``state + i * GAMMA`` (Steele, Lea and Flood, OOPSLA 2014). ``below_many``
and ``sample_many`` therefore compute many generators' next values, as
many as a block of draws needs, in one array pass, and advance each
generator exactly as the loop over ``below`` or ``sample`` would.
"""

from __future__ import annotations

import numpy as np

_SPAN = 1 << 64
_MASK = _SPAN - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Derive the seed for sub-stream ``index`` from a master seed.

    Defined as the splitmix64 finalizer applied to
    ``master + GAMMA * (index + 1)``, so sub-streams are decorrelated and
    the mapping is stable across releases.
    """
    return _mix((master + _GAMMA * (index + 1)) & _MASK)


class SplitMix64:
    """Tiny deterministic generator with the draws the pipeline needs."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)`` via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample(self, items: list, k: int) -> list:
        """k items drawn without replacement, by partial Fisher-Yates."""
        n = len(items)
        if k > n:
            raise ValueError("sample size exceeds population")
        pool = list(items)
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k] if k > 0 else []


def _streams(generators: list, count: int) -> np.ndarray:
    """The next ``count`` values of every generator's ``next_u64``, one
    row per generator, computed in numpy's wrapping uint64 arithmetic
    without advancing any generator."""
    states = np.array([g._state for g in generators], dtype=np.uint64)
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + states[:, None]
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def below_many(generators: list, n: int, count: int) -> np.ndarray:
    """``[[g.below(n) for _ in range(count)] for g in generators]`` as a
    ``(len(generators), count)`` array, leaving every generator in the
    same state. The draws of all generators are computed at once; a
    generator whose block holds a draw ``below`` would reject falls back
    to its loop."""
    if not 0 < n <= 1 << 63:
        raise ValueError("below_many() requires 1 <= n <= 2**63")
    z = _streams(generators, count)
    out = (z % np.uint64(n)).astype(np.intp)
    if _SPAN % n:
        rejected = (z >= np.uint64(_SPAN - _SPAN % n)).any(axis=1).tolist()
    else:
        rejected = [False] * len(generators)
    for g, row, redraw in zip(generators, out, rejected):
        if redraw:
            row[:] = [g.below(n) for _ in range(count)]
        else:
            g._state = (g._state + _GAMMA * count) & _MASK
    return out


def sample_many(generators: list, n, k, count: int) -> np.ndarray:
    """``[[g.sample(list(range(n_t)), k_t) for _ in range(count)] for g,
    n_t, k_t in zip(generators, n, k)]`` as a ``(len(generators), count,
    max k)`` array, leaving every generator in the same state; ``n`` and
    ``k`` are each an int shared by every generator or one per generator.
    A draw whose ``k_t`` is below the largest holds ``n_t`` in its
    remaining cells.

    The generator is counter-based: its ``i``-th value is a function of
    its state and ``i`` alone, so all draws of all generators are
    computed at once in numpy's wrapping uint64 arithmetic, and the
    Fisher-Yates swaps one position at a time for all of them, a row per
    (generator, draw). A generator whose block holds a value ``sample``
    would reject falls back to ``count`` calls of ``sample``.
    """
    size = len(generators)
    n = np.broadcast_to(np.asarray(n, dtype=np.intp), size)
    k = np.broadcast_to(np.asarray(k, dtype=np.intp), size)
    if (k > n).any():
        raise ValueError("sample size exceeds population")
    width = int(k.max()) if size else 0
    position = np.arange(width)
    # Draw c of generator g takes its values c * k_g .. c * k_g + k_g - 1;
    # past k_g a row reads values it never uses.
    at = (np.arange(count)[:, None] * k[:, None, None] + position).reshape(size, count * width)
    z = np.take_along_axis(_streams(generators, count * width), at, axis=1)
    z = z.reshape(size * count, width)
    n_rows = np.repeat(n, count)[:, None]
    live = position < np.repeat(k, count)[:, None]
    # The population left at each draw; 1 past a draw's last, where the
    # swap is a no-op.
    m = np.where(live, n_rows - position, 1).astype(np.uint64)
    # sample rejects z >= 2**64 - 2**64 % m, and 2**64 % m is (2**64 - m) % m.
    spare = (np.uint64(0) - m) % m
    rejected = ((spare > 0) & (z >= np.uint64(0) - spare)).reshape(size, count * width).any(axis=1)
    # The swaps, in z's buffer: z % m is below 2**63, so it reads the same
    # as an int64. The block's other arrays go before the pool is built.
    z %= m
    swap = z.view(np.int64)
    swap += position
    del at, m, spare
    rows = np.arange(size * count)
    top = int(n.max()) if size else 0
    pool = np.broadcast_to(np.arange(top), (rows.size, top)).copy()
    for i in range(width):
        j = swap[:, i]
        drawn = pool[rows, j]
        pool[rows, j] = pool[:, i]
        pool[:, i] = drawn
    out = np.where(live, pool[:, :width], n_rows).reshape(size, count, width)
    for g in np.flatnonzero(rejected).tolist():
        n_g, k_g = int(n[g]), int(k[g])
        for c in range(count):
            out[g, c, :k_g] = generators[g].sample(list(range(n_g)), k_g)
    for g in np.flatnonzero(~rejected).tolist():
        generators[g]._state = (generators[g]._state + _GAMMA * count * int(k[g])) & _MASK
    return out
