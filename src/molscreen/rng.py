"""Self-contained deterministic random number generation.

Every stochastic step in the pipeline (dataset splits, bootstrap draws,
per-node feature subsampling) flows from a ``SplitMix64`` stream so that a
run is reproducible from its master seed alone, independent of Python or
numpy version.
"""

from __future__ import annotations

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

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
