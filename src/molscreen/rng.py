"""Self-contained deterministic random number generation.

Every stochastic step in the pipeline (dataset splits, bootstrap draws,
per-node feature subsampling) flows from a ``SplitMix64`` stream so that a
run is reproducible from its master seed alone, independent of Python or
numpy version.
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
        """k items drawn without replacement, by partial Fisher-Yates.

        Each swap index is ``below(len(items) - i)``, with the generator
        step and the mixing inlined: the forest draws every node's feature
        subset here.
        """
        n = len(items)
        if k > n:
            raise ValueError("sample size exceeds population")
        pool = list(items)
        state = self._state
        for i in range(k):
            m = n - i
            limit = _SPAN - _SPAN % m
            while True:
                state = (state + _GAMMA) & _MASK
                z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
                z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
                z ^= z >> 31
                if z < limit:
                    break
            j = i + z % m
            pool[i], pool[j] = pool[j], pool[i]
        self._state = state
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


# Measured with 14 items and k = 5: the array draws cost about 80 us per
# call and the loop about 6 us per generator.
_SAMPLE_MANY = 12


def sample_many(generators: list, n, k) -> np.ndarray:
    """``[g.sample(list(range(n_t)), k_t) for g, n_t, k_t in zip(generators,
    n, k)]`` as a ``(len(generators), max k)`` array, leaving every
    generator in the same state; ``n`` and ``k`` are each an int shared by
    every generator or one per generator. A row whose ``k_t`` is below the
    largest holds ``n_t`` in its remaining cells.

    The draws of all generators are computed at once in numpy's wrapping
    uint64 arithmetic, and the Fisher-Yates swaps one position at a time
    for all of them; a generator whose block holds a draw ``sample`` would
    reject falls back to ``sample``. Below ``_SAMPLE_MANY`` generators, one
    ``sample`` per generator is faster and is what runs."""
    count = len(generators)
    n = np.broadcast_to(np.asarray(n, dtype=np.intp), count)
    k = np.broadcast_to(np.asarray(k, dtype=np.intp), count)
    if (k > n).any():
        raise ValueError("sample size exceeds population")
    width = int(k.max()) if count else 0
    out = np.repeat(n[:, None], width, axis=1)
    if count < _SAMPLE_MANY:
        for t, (g, n_t, k_t) in enumerate(zip(generators, n.tolist(), k.tolist())):
            out[t, :k_t] = g.sample(list(range(n_t)), k_t)
        return out
    z = _streams(generators, width)
    position = np.arange(width)
    live = position < k[:, None]
    # The population left at each draw; 1 past a generator's last draw,
    # where the swap is a no-op.
    m = np.where(live, n[:, None] - position, 1).astype(np.uint64)
    # sample rejects z >= 2**64 - 2**64 % m, and 2**64 % m is (2**64 - m) % m.
    spare = (np.uint64(0) - m) % m
    rejected = ((spare > 0) & (z >= np.uint64(0) - spare)).any(axis=1)
    rows = np.arange(count)
    top = int(n.max())
    pool = np.broadcast_to(np.arange(top), (count, top)).copy()
    swap = (z % m).astype(np.intp) + position
    for i in range(width):
        j = swap[:, i]
        drawn = pool[rows, j]
        pool[rows, j] = pool[:, i]
        pool[:, i] = drawn
    np.copyto(out, pool[:, :width], where=live)
    for t in np.flatnonzero(rejected).tolist():
        out[t, : k[t]] = generators[t].sample(list(range(n[t])), int(k[t]))
    for t in np.flatnonzero(~rejected).tolist():
        generators[t]._state = (generators[t]._state + _GAMMA * int(k[t])) & _MASK
    return out
