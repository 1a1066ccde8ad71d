"""Random draws in bulk, on fixed 64-bit words of a `random.Random`.

`random_words(rng, n)` is the one word source of the bulk draws: the n
words of one `rng.getrandbits(64 * n)`, the first drawn as the lowest.  A
multiple of 64 bits uses whole 32-bit Mersenne-Twister outputs, so two
calls give the words of one call of their total.

Each bulk draw reads a fixed number of words per item, item after item,
and maps them with array operations.  So a draw of n items equals n
one-item draws, in its values and in the state it leaves rng in, and a
count <= 0 draws nothing.  A word w taken modulo n is uniform on 0..n - 1
up to a bias below n / 2^64 (Lemire, "Fast random integer generation in an
interval", ACM TOMACS 2019); the top k bits of words are uniform.

- `random_below(rng, n, count)`: one word a draw, w % n.
- `random_depth_bits(rng, N, count)`: 1 + ceil(N / 64) words a vertex: the
  depth k = w % (N + 1) of the first, and as path bits the top k bits of
  the others (`top_bits`).
- `embeddings.search.nested_b4_rows` lays its maps out on the same words.

`random_bits` alone replays the scalar `rng.randint(0, 1)` stream: the
classify generators' pinned outputs rest on it.
"""
from __future__ import annotations

_REDRAW = bytes(range(128, 256))
_DIGIT = bytes(b"01"[b >> 6 & 1] for b in range(256))   # ASCII "0"/"1" of b >> 6


def random_bits(rng, k):
    """The k bits of `rng.randint(0, 1)` called k times, as one int whose
    highest of k bits is the first draw.  It consumes the same words of rng,
    so every later draw from rng is unchanged too."""
    out = b"0"
    while len(out) <= k:
        need = k + 1 - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_DIGIT, _REDRAW)
    return int(out, 2)


def random_words(rng, n):
    """The n 64-bit words of one `rng.getrandbits(64 * n)`, the first drawn
    as the lowest, as a uint64 array; n <= 0 draws nothing."""
    import numpy as np

    n = max(n, 0)
    return np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u8")


def top_bits(words, k):
    """The top k bits of each row of `words` (its last axis, m words read
    as one big-endian int of 64 m bits, the first word highest), for k
    broadcast over the rows (0 <= k <= 64 m): uint64 when m <= 1, else
    Python ints in an object array."""
    import numpy as np

    m = words.shape[-1]
    k = np.broadcast_to(np.asarray(k, dtype=np.uint64), words.shape[:-1])
    if m == 0:
        return np.zeros(k.shape, dtype=np.uint64)
    if m == 1:
        return np.where(k > 0, words[..., 0] >> ((64 - k) % 64), np.uint64(0))
    size = 8 * m
    rows = words.astype(">u8").tobytes()
    out = np.empty(k.size, dtype=object)
    out[:] = [int.from_bytes(rows[i * size:(i + 1) * size], "big") >> (64 * m - w)
              for i, w in enumerate(k.ravel().tolist())]
    return out.reshape(k.shape)


def random_below(rng, n, count):
    """`count` draws from 0..n - 1 (1 <= n < 2^32) as an int64 array, each
    one word w taken as w % n."""
    import numpy as np

    if not 0 < n < 2 ** 32:
        raise ValueError(f"n {n} not in 1 .. 2^32 - 1")
    return (random_words(rng, count) % n).astype(np.int64)


def random_depth_bits(rng, max_depth, count):
    """(depths, bits): `count` random vertices of B_max_depth as an int64
    array of their depths k and an array of their k path bits, the first
    bit the highest: uint64 when max_depth <= 64, else an object array of
    Python ints.  A vertex reads 1 + ceil(max_depth / 64) words: k = w %
    (max_depth + 1) of the first, its bits the top k of the others."""
    import numpy as np

    if not 0 <= max_depth < 2 ** 32 - 1:
        raise ValueError(f"max_depth {max_depth} not in 0 .. 2^32 - 2")
    per_vertex = 1 - (-max_depth // 64)
    words = random_words(rng, count * per_vertex).reshape(-1, per_vertex)
    depths = words[:, 0] % (max_depth + 1)
    return depths.astype(np.int64), top_bits(words[:, 1:], depths)
