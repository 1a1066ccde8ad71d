import random

import numpy as np
import pytest

from mconvex import randbits
from mconvex.randbits import random_below, random_bits, random_depth_bits

# -1: a negative count draws nothing, like range(-1)
LENGTHS = (-1, 0, 1, 2, 5, 31, 64, 200)


def test_random_bits_matches_randint_stream():
    # the bulk draw must equal k calls of randint(0, 1), the first call as the
    # highest of the k bits, and leave the generator in the same state, so
    # every later draw is unchanged too
    for seed in range(1000):
        for k in LENGTHS:
            ref, rng = random.Random(seed), random.Random(seed)
            expected = tuple(ref.randint(0, 1) for _ in range(k))
            bits = random_bits(rng, k)
            assert type(bits) is int and bits >> max(k, 0) == 0, (seed, k)
            assert tuple((bits >> i) & 1 for i in reversed(range(k))) == expected, (seed, k)
            assert rng.getstate() == ref.getstate(), (seed, k)
            assert rng.random() == ref.random(), (seed, k)


def _scalar_depth_bits(rng, max_depth, count):
    """The loop random_depth_bits replaces."""
    out = []
    for _ in range(count):
        k = rng.randint(0, max_depth)
        out.append((k, random_bits(rng, k)))
    return out


def _pairs(max_depth, depths, bits):
    """The (k, bits) pairs of random_depth_bits' two arrays, as Python ints,
    after checking the arrays' dtypes and shapes."""
    assert depths.dtype == np.int64 and depths.shape == bits.shape == (len(depths),)
    if max_depth <= 64:
        assert bits.dtype == np.uint64
    else:
        assert bits.dtype == object and all(type(b) is int for b in bits)
    return list(zip(depths.tolist(), [int(b) for b in bits]))


def _pairs_per_read(max_depth):
    """About the pairs of random_depth_bits one read-ahead of CHUNK_WORDS
    words holds: 2^kb / (N + 1) words for k, then two per bit, a pair."""
    per_pair = 2 ** (max_depth + 1).bit_length() / (max_depth + 1) + max_depth
    return max(1, int(randbits.CHUNK_WORDS / per_pair))


def _check_depth_bits(max_depth, count, seed):
    ref, rng = random.Random(seed), random.Random(seed)
    ref.gauss(0, 1)
    rng.gauss(0, 1)
    expected = _scalar_depth_bits(ref, max_depth, count)
    got = _pairs(max_depth, *random_depth_bits(rng, max_depth, count))
    assert got == expected, (max_depth, count)
    assert rng.getstate() == ref.getstate(), (max_depth, count)
    assert rng.random() == ref.random(), (max_depth, count)


def test_random_depth_bits_matches_scalar_loop():
    # the bulk draw against randint then random_bits, across randint widths
    # kb = 1..10 and the read-ahead boundaries, from a generator whose
    # gauss_next is set (setstate must carry it through)
    for max_depth in (0, 1, 5, 63, 64, 65, 127, 128, 255, 256, 1000):
        chunk = _pairs_per_read(max_depth)
        for count in (0, 1, chunk - 1, chunk, chunk + 1, 15_000):
            _check_depth_bits(max_depth, count, max_depth + count)


class CountingRandom(random.Random):
    """A random.Random that counts the 32-bit words it generates, in all
    and in its largest getrandbits call; random() reads two."""

    def __init__(self, seed):
        self.words = self.largest = 0
        super().__init__(seed)

    def getrandbits(self, k):
        words = -(-k // 32)
        self.words += words
        self.largest = max(self.largest, words)
        return super().getrandbits(k)

    def random(self):
        self.words += 2
        return super().random()


# read-ahead caps of 16 words, the default, and 64K words
@pytest.mark.parametrize("chunk_words", [16, randbits.CHUNK_WORDS, 1 << 16])
def test_random_depth_bits_generates_each_word_once(monkeypatch, chunk_words):
    # the bulk draw generates the words the scalar loop consumes, plus at
    # most one read-ahead's worth (the words past the last pair and their
    # rewind), however many read-aheads it takes
    monkeypatch.setattr(randbits, "CHUNK_WORDS", chunk_words)
    for max_depth in (0, 5, 64, 1000):
        chunk = _pairs_per_read(max_depth)
        for count in (1, chunk, 3 * chunk + 7, 15_000):
            ref, rng = CountingRandom(count), CountingRandom(count)
            expected = _scalar_depth_bits(ref, max_depth, count)
            assert _pairs(max_depth, *random_depth_bits(rng, max_depth, count)) == expected
            assert rng.getstate() == ref.getstate(), (max_depth, count)
            assert rng.words <= ref.words + rng.largest, (max_depth, count)


def test_random_depth_bits_rejects_bad_depth():
    # randint(0, 2^32 - 1) reads 33 bits, two words a draw
    for max_depth in (-1, 2 ** 32 - 1, 2 ** 32):
        with pytest.raises(ValueError):
            random_depth_bits(random.Random(0), max_depth, 1)


def _check_below(n, count):
    ref, rng = CountingRandom(n + count), CountingRandom(n + count)
    ref.gauss(0, 1)
    rng.gauss(0, 1)
    expected = [ref.randrange(n) for _ in range(count)]
    got = random_below(rng, n, count)
    assert got.dtype == np.int64 and got.tolist() == expected, (n, count)
    assert rng.getstate() == ref.getstate(), (n, count)
    assert rng.words <= ref.words + rng.largest, (n, count)
    assert rng.random() == ref.random(), (n, count)


# read-ahead caps of 16 words, the default, and 64K words
@pytest.mark.parametrize("chunk_words", [16, randbits.CHUNK_WORDS, 1 << 16])
def test_random_below_matches_randrange(monkeypatch, chunk_words):
    # count calls of randrange(n), in draw order, for n of every randrange
    # width kb = 1..32 and on both sides of each power of two, across
    # read-aheads; the same end state (gauss_next included) and the next
    # random(); and the words generated are those of the scalar loop plus at
    # most one read-ahead (its rewind)
    monkeypatch.setattr(randbits, "CHUNK_WORDS", chunk_words)
    sizes = [1, 2, 3, 5, 2001, 2100, 2 ** 31, 2 ** 32 - 1]
    sizes += [2 ** kb + d for kb in range(1, 32) for d in (-1, 1)]
    cases = [(n, count) for n in sizes for count in (-1, 0, 1, 7, 3 * 16 + 5, 1000)]
    cases += [(n, chunk_words + 5) for n in (3, 2100, 2 ** 31 + 1)]
    for n, count in cases:
        _check_below(n, count)


def test_random_below_rejects_bad_range():
    for n in (0, -1, 2 ** 32):
        with pytest.raises(ValueError):
            random_below(random.Random(0), n, 1)
