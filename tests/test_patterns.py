"""Bit-mask helpers: the row folds against a reference fold over the set bits,
and the round trip between masks and index lists."""

import random
from functools import reduce

import pytest

from confmine.patterns import Universe, and_rows, iter_indices, mask_of, or_rows


def reference_or(mask, rows):
    return reduce(lambda acc, i: acc | rows[i], iter_indices(mask), 0)


def reference_and(mask, rows, acc):
    return reduce(lambda a, i: a & rows[i], iter_indices(mask), acc)


def random_rows(rng, n_rows, width):
    return tuple(rng.getrandbits(width) for _ in range(n_rows))


class TestRowFolds:
    @pytest.mark.parametrize("seed", range(20))
    def test_match_reference_on_random_tables(self, seed):
        rng = random.Random(seed)
        n_rows, width = rng.randint(1, 40), rng.randint(1, 70)
        rows = random_rows(rng, n_rows, width)
        full = (1 << width) - 1
        for _ in range(25):
            mask = rng.getrandbits(n_rows)
            acc = rng.getrandbits(width) if rng.random() < 0.5 else full
            assert or_rows(mask, rows) == reference_or(mask, rows)
            assert and_rows(mask, rows, acc) == reference_and(mask, rows, acc)

    def test_empty_mask(self):
        rows = (0b101, 0b011, 0b110)
        assert or_rows(0, rows) == 0
        assert and_rows(0, rows, 0b1111) == 0b1111
        assert or_rows(0, ()) == 0
        assert and_rows(0, (), 7) == 7

    def test_single_bit(self):
        rows = (0b0011, 0b0110, 0b1100)
        for i, row in enumerate(rows):
            assert or_rows(1 << i, rows) == row
            assert and_rows(1 << i, rows, 0b1111) == row

    def test_every_bit(self):
        rng = random.Random(7)
        rows = random_rows(rng, 30, 50)
        every = (1 << len(rows)) - 1
        assert or_rows(every, rows) == reduce(lambda a, r: a | r, rows)
        assert and_rows(every, rows, (1 << 50) - 1) == reduce(lambda a, r: a & r, rows)

    def test_narrow_acc_bounds_the_result(self):
        rng = random.Random(11)
        rows = random_rows(rng, 12, 64)
        acc = 0b1011_0110
        for _ in range(50):
            mask = rng.getrandbits(len(rows))
            got = and_rows(mask, rows, acc)
            assert got & ~acc == 0
            assert got == reference_and(mask, rows, acc)


class TestMaskIndices:
    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip_and_ascending_order(self, seed):
        rng = random.Random(seed)
        for m in [0, 1, (1 << 100) - 1] + [rng.getrandbits(rng.randint(1, 120)) for _ in range(50)]:
            indices = list(iter_indices(m))
            assert mask_of(indices) == m
            assert indices == sorted(set(indices))
            assert indices == [i for i in range(m.bit_length()) if (m >> i) & 1]


class TestUniverse:
    def test_equal_universes_hash_equal(self):
        assert Universe(["a", "b"]) == Universe(("a", "b"))
        assert hash(Universe(["a", "b"])) == hash(Universe(("a", "b")))
        assert Universe(["a", "b"]) != Universe(["b", "a"])

    def test_repr(self):
        assert repr(Universe(["a", "b"])) == "Universe(['a', 'b'])"
