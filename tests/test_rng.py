"""``SplitMix64.sample`` and the array ``below_many`` and
``sample_many`` against the loops they replaced: the same draws in the
same order, and the same stream after."""

import warnings

import pytest

from molscreen.rng import SplitMix64, below_many, derive_seed, sample_many

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


def test_below_many_equals_the_loop_over_below():
    # Up to six generators a call, among them none; bounds near 2**63
    # reject about a quarter of all values ((1 << 62) + 5), or almost none.
    bounds = (1, 2, 3, 7, 21, 2000, (1 << 62) + 5, (1 << 63) - 1, 1 << 63)
    for index in range(500):
        n = bounds[index % len(bounds)]
        count = index % 50
        seeds = [derive_seed(11, 8 * index + t) for t in range(index % 7)]
        new = [SplitMix64(seed) for seed in seeds]
        old = [SplitMix64(seed) for seed in seeds]
        drawn = below_many(new, n, count)
        assert drawn.shape == (len(seeds), count)
        assert drawn.tolist() == [[g.below(n) for _ in range(count)] for g in old]
        assert [g.next_u64() for g in new] == [g.next_u64() for g in old]


def test_below_many_redraws_a_rejected_value(monkeypatch):
    # 2**64 - 1 is the one value below(3) rejects: put it third in the
    # block of the second of three generators.
    new = [SplitMix64(derive_seed(4, t)) for t in range(3)]
    old = [SplitMix64(derive_seed(4, t)) for t in range(3)]
    new[1]._state = old[1]._state = (unmix(MASK) - 3 * GAMMA) & MASK
    expected = [[g.below(3) for _ in range(6)] for g in old]
    # Only the second generator falls back to its loop; its neighbours
    # take the array path.
    looped = []
    below = SplitMix64.below
    monkeypatch.setattr(SplitMix64, "below", lambda g, n: looped.append(g) or below(g, n))
    assert below_many(new, 3, 6).tolist() == expected
    assert looped == [new[1]] * 6
    assert [g.next_u64() for g in new] == [g.next_u64() for g in old]


@pytest.mark.parametrize("n", [0, -1, (1 << 63) + 1])
def test_below_many_rejects_an_out_of_range_bound(n):
    with pytest.raises(ValueError):
        below_many([SplitMix64(1)], n, 3)


def per_generator_loop(generators, n, k, count) -> list:
    """What ``sample_many`` returns, generator by generator: ``count``
    successive ``sample`` calls, each padded with the generator's ``n``
    to the largest ``k``."""
    width = max(k, default=0)
    return [[g.sample(list(range(n_t)), k_t) + [n_t] * (width - k_t) for _ in range(count)]
            for g, n_t, k_t in zip(generators, n, k)]


# Each oracle runs on two families of streams, from master seeds 0 and 10**9.
MASTERS = [0, 10**9]


@pytest.mark.parametrize("master", MASTERS)
def test_sample_many_equals_a_sample_per_generator(master):
    # Blocks of several sizes, one after another, so that each block
    # starts where the one before left every stream; a block of none
    # leaves them where they are.
    for n, k, size in [(14, 5, 55), (24, 8, 11), (3, 1, 7), (8, 8, 5), (5, 0, 3), (1, 1, 2)]:
        seeds = [derive_seed(master + n * 100 + k, t) for t in range(size)]
        new = [SplitMix64(seed) for seed in seeds]
        old = [SplitMix64(seed) for seed in seeds]
        for count in (1, 3, 0, 8, 1, 16):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                drawn = sample_many(new, n, k, count)
            assert drawn.shape == (size, count, k)
            assert drawn.tolist() == per_generator_loop(old, [n] * size, [k] * size, count)
        assert [g.next_u64() for g in new] == [g.next_u64() for g in old]


def test_sample_many_redraws_a_rejected_value(monkeypatch):
    # 2**64 - 1 is the one value a draw below 3 rejects: make it the first
    # value of the third draw of the second generator, in a block of four
    # draws of two.
    new = [SplitMix64(derive_seed(5, t)) for t in range(3)]
    old = [SplitMix64(derive_seed(5, t)) for t in range(3)]
    new[1]._state = old[1]._state = (unmix(MASK) - 5 * GAMMA) & MASK
    expected = per_generator_loop(old, [3] * 3, [2] * 3, 4)
    # Only the second generator falls back to sample, once per draw.
    looped = []
    sample = SplitMix64.sample
    monkeypatch.setattr(SplitMix64, "sample", lambda g, *a: looped.append(g) or sample(g, *a))
    assert sample_many(new, 3, 2, 4).tolist() == expected
    assert looped == [new[1]] * 4
    monkeypatch.undo()
    assert [g._state for g in new] == [g._state for g in old]


def test_sample_many_larger_than_population_rejected():
    with pytest.raises(ValueError):
        sample_many([SplitMix64(1)], 2, 3, 1)


@pytest.mark.parametrize("master", MASTERS)
def test_sample_many_takes_a_population_and_size_per_generator(master):
    # Mixed sizes, k equal to n (a full shuffle), k of 0 and a population
    # of one, in blocks of several sizes.
    shapes = [(14, 5), (13, 5), (12, 4), (17, 6), (4, 4), (6, 0), (1, 1), (24, 8)] * 3
    n, k = [s[0] for s in shapes], [s[1] for s in shapes]
    seeds = [derive_seed(master + 77, t) for t in range(len(shapes))]
    new = [SplitMix64(seed) for seed in seeds]
    old = [SplitMix64(seed) for seed in seeds]
    for count in (1, 2, 5, 1, 11):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = sample_many(new, n, k, count)
        assert drawn.shape == (len(shapes), count, max(k))
        assert drawn.tolist() == per_generator_loop(old, n, k, count)
    assert [g.next_u64() for g in new] == [g.next_u64() for g in old]


@pytest.mark.parametrize("master", MASTERS)
def test_sample_many_mixes_ints_and_arrays(master):
    seeds = [derive_seed(master + 78, t) for t in range(13)]
    k = [t % 4 for t in range(13)]
    drawn = sample_many([SplitMix64(seed) for seed in seeds], 9, k, 3)
    assert drawn.tolist() == per_generator_loop([SplitMix64(seed) for seed in seeds], [9] * 13, k, 3)
    n = [3 + t for t in range(13)]
    drawn = sample_many([SplitMix64(seed) for seed in seeds], n, 3, 3)
    assert drawn.tolist() == per_generator_loop([SplitMix64(seed) for seed in seeds], n, [3] * 13, 3)


def test_sample_many_per_generator_redraws_a_rejected_value():
    # 2**64 - 1 is the one value a draw below 3 rejects: the first value of
    # the second draw of the second generator, whose population is 3,
    # among generators of other populations and sizes.
    n, k = [5, 3, 7, 3], [2, 2, 4, 1]
    new = [SplitMix64(derive_seed(6, t)) for t in range(4)]
    old = [SplitMix64(derive_seed(6, t)) for t in range(4)]
    new[1]._state = old[1]._state = (unmix(MASK) - 3 * GAMMA) & MASK
    assert sample_many(new, n, k, 3).tolist() == per_generator_loop(old, n, k, 3)
    assert [g._state for g in new] == [g._state for g in old]


def test_sample_many_per_generator_larger_than_population_rejected():
    with pytest.raises(ValueError):
        sample_many([SplitMix64(1), SplitMix64(2)], [4, 2], [3, 3], 1)
