import random

from mconvex.randbits import random_bits

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
