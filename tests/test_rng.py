"""The inlined ``SplitMix64.sample`` against the loop over ``below`` it
replaced: the same items in the same order, and the same stream after."""

import pytest

from molscreen.rng import SplitMix64, derive_seed

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


class ReferenceSampler(SplitMix64):
    def sample(self, items: list, k: int) -> list:
        if k > len(items):
            raise ValueError("sample size exceeds population")
        pool = list(items)
        out = []
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


def unmix(z: int) -> int:
    """Inverse of the splitmix64 finalizer."""

    def unshift(value: int, shift: int) -> int:
        x = value
        for _ in range(64 // shift + 1):
            x = value ^ (x >> shift)
        return x

    z = unshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK
    z = unshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK
    return unshift(z, 30)


def test_draws_equal_the_reference_for_every_subset_size():
    # 2,000 streams; every population size 1..64 is drawn by about 31 of
    # them, and each stream draws every k <= p in turn, so a draw that
    # consumed the stream differently would shift all later ones.
    for index in range(2000):
        seed = derive_seed(7, index)
        new, old = SplitMix64(seed), ReferenceSampler(seed)
        p = index % 64 + 1
        items = list(range(p))
        for k in range(p + 1):
            assert new.sample(items, k) == old.sample(items, k)
        assert new.next_u64() == old.next_u64()


def test_rejected_draws_are_redrawn_as_below_does():
    # For a population of 3 the one rejected 64-bit value is 2**64 - 1:
    # start the stream just before it.
    for k in (1, 2, 3):
        state = (unmix(MASK) - GAMMA) & MASK
        new, old = SplitMix64(0), ReferenceSampler(0)
        new._state = old._state = state
        peek = SplitMix64(0)
        peek._state = state
        assert peek.next_u64() == MASK
        assert new.sample(["a", "b", "c"], k) == old.sample(["a", "b", "c"], k)
        assert new.next_u64() == old.next_u64()


def test_sample_larger_than_population_rejected():
    with pytest.raises(ValueError):
        SplitMix64(1).sample([1, 2], 3)
