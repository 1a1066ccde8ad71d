import random

import numpy as np
import pytest

from mconvex.randbits import random_below, random_bits, random_depth_bits, random_words, top_bits

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


def test_random_words_are_the_scalar_words():
    # one getrandbits(64 n) is n calls of getrandbits(64), the first the
    # lowest word, in values and in the state left behind; so a draw split
    # anywhere reads the words of one draw of its total
    for seed in range(50):
        for n in LENGTHS:
            ref, rng = random.Random(seed), random.Random(seed)
            words = random_words(rng, n)
            assert words.dtype == np.uint64 and words.shape == (max(n, 0),)
            assert words.tolist() == [ref.getrandbits(64) for _ in range(n)], (seed, n)
            assert rng.getstate() == ref.getstate(), (seed, n)
        split = random.Random(seed)
        parts = [random_words(split, k) for k in (3, 0, 5, 1)]
        assert np.concatenate(parts).tolist() == random_words(random.Random(seed), 9).tolist()


def test_top_bits_of_one_and_many_words():
    # the top k bits of rows of m words read as one big-endian int, k from 0
    # to 64 m, broadcast over the rows: uint64 up to one word, else ints
    rng = random.Random(5)
    for m in (0, 1, 2, 3):
        words = random_words(rng, 4 * 7 * m).reshape(4, 7, m)
        k = np.array([[rng.randint(0, 64 * m) for _ in range(7)] for _ in range(4)])
        k[0, :2] = 0, 64 * m
        got = top_bits(words, k)
        assert got.shape == (4, 7) and got.dtype == (np.uint64 if m <= 1 else object)
        for r in range(4):
            for c in range(7):
                whole = int.from_bytes(words[r, c].astype(">u8").tobytes(), "big")
                assert int(got[r, c]) == whole >> (64 * m - int(k[r, c])), (m, r, c)
        column = top_bits(words, k[:, :1])
        assert (column == top_bits(words, np.repeat(k[:, :1], 7, axis=1))).all()


def _scalar_depth_bits(rng, max_depth, count):
    """The per-vertex oracle of random_depth_bits, on scalar words of
    rng.getrandbits(64): the depth k = w % (N + 1) of the first, then the
    top k bits of the next ceil(N / 64), the first word highest."""
    m = -(-max_depth // 64)
    out = []
    for _ in range(count):
        k = rng.getrandbits(64) % (max_depth + 1)
        path = 0
        for _ in range(m):
            path = path << 64 | rng.getrandbits(64)
        out.append((k, path >> (64 * m - k)))
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


def _check_depth_bits(max_depth, count, seed):
    # the bulk draw against the per-vertex oracle and against count
    # one-vertex draws: the same pairs, and the same state left behind
    # (gauss_next set, so that it must be carried through)
    ref, rng, single = (random.Random(seed) for _ in range(3))
    for r in (ref, rng, single):
        r.gauss(0, 1)
    expected = _scalar_depth_bits(ref, max_depth, count)
    got = _pairs(max_depth, *random_depth_bits(rng, max_depth, count))
    one_by_one = [pair for _ in range(count)
                  for pair in _pairs(max_depth, *random_depth_bits(single, max_depth, 1))]
    assert got == expected == one_by_one, (max_depth, count)
    assert all(0 <= k <= max_depth and 0 <= b < 2 ** k for k, b in got)
    assert rng.getstate() == ref.getstate() == single.getstate(), (max_depth, count)
    assert rng.random() == ref.random(), (max_depth, count)


def test_random_depth_bits_matches_scalar_loop():
    # the bulk draw against the per-vertex oracle and one-vertex draws, at
    # depths of no path word (0), of one (1..64), and of two to sixteen
    for max_depth in (0, 1, 5, 63, 64, 65, 100, 127, 128, 129, 1000):
        for count in (-1, 0, 1, 2, 7, 200):
            _check_depth_bits(max_depth, count, max_depth + count)


def test_random_depth_bits_are_uniform():
    # every depth about equally often, and every bit of a path about half
    # the time (a word's bias modulo N + 1 is below (N + 1) / 2^64)
    rng = random.Random(8)
    for max_depth in (5, 64, 130):
        depths, bits = random_depth_bits(rng, max_depth, 30_000)
        counts = np.bincount(depths, minlength=max_depth + 1)
        mean = 30_000 / (max_depth + 1)
        assert abs(counts - mean).max() < 6 * mean ** 0.5, max_depth
        deep = [int(b) for k, b in zip(depths.tolist(), bits) if k == max_depth]
        for i in range(max_depth):
            ones = sum(b >> i & 1 for b in deep)
            assert abs(ones - len(deep) / 2) < 6 * (len(deep) / 4) ** 0.5, (max_depth, i)


class CountingRandom(random.Random):
    """A random.Random that counts the 32-bit words it generates, in all
    and in its largest getrandbits call, and its getrandbits calls;
    random() reads two words."""

    def __init__(self, seed):
        self.words = self.largest = self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        words = -(-k // 32)
        self.words += words
        self.calls += 1
        self.largest = max(self.largest, words)
        return super().getrandbits(k)

    def random(self):
        self.words += 2
        return super().random()


@pytest.mark.parametrize("count", [16, 1 << 15, 1 << 16])
def test_random_depth_bits_generates_each_word_once(count):
    # one getrandbits call generates the words of the count vertices and no
    # more: 1 + ceil(N / 64) 64-bit words a vertex, two 32-bit words each
    for max_depth in (0, 5, 64, 1000):
        rng = CountingRandom(count)
        depths, _ = random_depth_bits(rng, max_depth, count)
        assert len(depths) == count
        assert (rng.calls, rng.words) == (1, 2 * count * (1 - (-max_depth // 64))), max_depth


def test_random_depth_bits_reads_grow_with_a_long_pair():
    # the words a vertex reads grow with max_depth, 64 path bits a word, and
    # come in one getrandbits call: one vertex of B_400000 reads its 6,250
    # path words after its depth word, as the per-vertex oracle reads them
    for max_depth, words in ((64, 2), (6400, 101), (400_000, 6251)):
        ref, rng = random.Random(7), CountingRandom(7)
        expected = _scalar_depth_bits(ref, max_depth, 1)
        assert _pairs(max_depth, *random_depth_bits(rng, max_depth, 1)) == expected
        assert rng.getstate() == ref.getstate()
        assert (rng.calls, rng.words) == (1, 2 * words), max_depth
    assert expected[0][0] > 100_000


def test_random_depth_bits_rejects_bad_depth():
    for max_depth in (-1, 2 ** 32 - 1, 2 ** 32):
        with pytest.raises(ValueError):
            random_depth_bits(random.Random(0), max_depth, 1)


def _check_below(n, count):
    # count draws against the loop of w % n on scalar words and against
    # count one-draw calls: the same values and end state (gauss_next set),
    # the same next random(), and one word a draw
    ref, rng, single = CountingRandom(n + count), CountingRandom(n + count), random.Random(n + count)
    for r in (ref, rng, single):
        r.gauss(0, 1)
    expected = [ref.getrandbits(64) % n for _ in range(count)]
    got = random_below(rng, n, count)
    assert got.dtype == np.int64 and got.tolist() == expected, (n, count)
    assert [int(random_below(single, n, 1)[0]) for _ in range(count)] == expected, (n, count)
    assert rng.getstate() == ref.getstate() == single.getstate(), (n, count)
    assert rng.words == ref.words, (n, count)
    assert rng.random() == ref.random(), (n, count)


def test_random_below_matches_the_word_loop():
    # count draws of w % n, in draw order, for n of every bit width 1..32
    # and on both sides of each power of two
    sizes = [1, 2, 3, 5, 2001, 2100, 2 ** 31, 2 ** 32 - 1]
    sizes += [2 ** kb + d for kb in range(1, 32) for d in (-1, 1)]
    for n in sizes:
        for count in (-1, 0, 1, 7, 53, 1000):
            _check_below(n, count)


@pytest.mark.parametrize("count", [16, 1 << 15, 1 << 16])
def test_random_below_matches_randrange(count):
    # random_below stands in for count calls of randrange(n): long draws,
    # just past each count, are the word loop exactly, and their values
    # follow randrange's law, bin by bin within six standard deviations
    for n in (3, 2100, 2 ** 31 + 1):
        _check_below(n, count + 5)
    rng, ref = random.Random(count), random.Random(-count)
    for n in (3, 7, 2100):
        got = np.bincount(random_below(rng, n, count), minlength=n)
        want = np.bincount([ref.randrange(n) for _ in range(count)], minlength=n)
        assert got.shape == want.shape == (n,), (n, count)
        assert (abs(got - want) <= 6 * np.sqrt(got + want + 1)).all(), (n, count)


def test_random_below_is_uniform():
    # each value about equally often: the bias of w % n is below n / 2^64
    rng = random.Random(9)
    for n in (3, 7, 2100):
        counts = np.bincount(random_below(rng, n, 200 * n), minlength=n)
        assert abs(counts - 200).max() < 6 * 200 ** 0.5, n


def test_random_below_rejects_bad_range():
    for n in (0, -1, 2 ** 32):
        with pytest.raises(ValueError):
            random_below(random.Random(0), n, 1)
