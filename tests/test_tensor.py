import numpy as np
import pytest

from ctsr.tensor import (
    NonFiniteError,
    Rng,
    Tensor,
    derive_seed,
    uniform_init,
    validate_shape,
    zeros,
)


class TestShape:
    @pytest.mark.parametrize("bad", [[], [0], [2, -1], [2.5], [3, 0, 4]])
    def test_invalid_shapes(self, bad):
        with pytest.raises(ValueError):
            validate_shape(bad)

    def test_overflowing_count(self):
        with pytest.raises(ValueError, match="overflow"):
            validate_shape([2**40, 2**40])

    def test_row_major_roundtrip(self):
        # flat(i, j, k) = (i*b + j)*c + k for shape [a, b, c]
        a, b, c = 3, 4, 5
        t = Tensor(np.arange(a * b * c, dtype=np.float32).reshape(a, b, c))
        for i in range(a):
            for j in range(b):
                for k in range(c):
                    flat = (i * b + j) * c + k
                    assert t.data[i, j, k] == flat
                    assert t.data.ravel()[flat] == flat


class TestTensor:
    def test_zeros(self):
        t = zeros([2, 3])
        assert t.shape == (2, 3)
        assert t.data.dtype == np.float32
        assert np.all(t.data == 0.0)
        assert zeros([1]).tolist() == [0.0]
        assert zeros([2, 2, 2, 2, 2]).size == 32

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NonFiniteError):
            Tensor([float("inf"), 0.0])


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(7).next_u64(100), Rng(7).next_u64(100))
        t1 = uniform_init([4, 4], -1, 1, Rng(5))
        t2 = uniform_init([4, 4], -1, 1, Rng(5))
        assert t1 == t2

    def test_different_seeds_differ(self):
        a = Rng(0).next_floats(64)
        b = Rng(1).next_floats(64)
        assert not np.array_equal(a, b)

    def test_stream_continues_across_calls(self):
        r = Rng(9)
        chunks = np.concatenate([r.next_u64(3), r.next_u64(5)])
        assert np.array_equal(chunks, Rng(9).next_u64(8))

    def test_known_splitmix64_values(self):
        # first outputs of SplitMix64 seeded with 0 (published reference values)
        got = Rng(0).next_u64(3)
        assert got[0] == 0xE220A8397B1DCDAF
        assert got[1] == 0x6E789E6AA1B965F4
        assert got[2] == 0x06C45D188009454F

    def test_floats_in_unit_interval(self):
        u = Rng(123).next_floats(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_shuffle_is_permutation_and_deterministic(self):
        items = list(range(25))
        a, b = items[:], items[:]
        Rng(11).shuffle(a)
        Rng(11).shuffle(b)
        assert a == b
        assert sorted(a) == items
        assert a != items  # vanishingly unlikely to be identity

    def test_derive_seed_distinct_tags(self):
        seeds = {derive_seed(42, tag) for tag in range(100)}
        assert len(seeds) == 100


class TestUniformInit:
    def test_range_containment(self):
        t = uniform_init([4], 0.0, 1.0, Rng(0))
        assert np.all(t.data >= 0.0) and np.all(t.data < 1.0)
        big = uniform_init([100_000], -0.25, 0.25, Rng(1))
        assert np.all(big.data >= -0.25) and np.all(big.data < 0.25)

    def test_seed_zero_vs_one_streams_differ(self):
        a = uniform_init([64], 0, 1, Rng(0))
        b = uniform_init([64], 0, 1, Rng(1))
        assert not np.array_equal(a.data, b.data)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            uniform_init([2], 1.0, 1.0, Rng(0))
        with pytest.raises(ValueError):
            uniform_init([2], 2.0, -1.0, Rng(0))

    def test_deterministic_across_platforms(self):
        # pinned values: lo + u * (hi - lo) with u = (splitmix64 >> 11) * 2^-53
        t = uniform_init([2], 0.0, 1.0, Rng(0))
        expect0 = np.float32((0xE220A8397B1DCDAF >> 11) * 2.0**-53)
        expect1 = np.float32((0x6E789E6AA1B965F4 >> 11) * 2.0**-53)
        assert t.data[0] == expect0
        assert t.data[1] == expect1
