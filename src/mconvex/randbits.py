"""Random bits drawn in bulk, on the exact stream of `rng.randint`.

In CPython every draw below reads 32-bit Mersenne-Twister words w, and
`rng.getrandbits(32 * j)` returns j such words, the first drawn as the lowest.

- `rng.randint(0, 1)` returns w >> 30, drawing a new word while that is 2 or
  3 (the top bit of w is set).  So the top byte b of each word decides it:
  b >= 128 is a redraw, otherwise the bit is b >> 6.
- `rng.randint(0, N)` with N < 2^32 returns w >> (32 - kb), where
  kb = (N + 1).bit_length(), drawing a new word while that exceeds N.
"""
from __future__ import annotations

_REDRAW = bytes(range(128, 256))
_DIGIT = bytes(b"01"[b >> 6 & 1] for b in range(256))   # ASCII "0"/"1" of b >> 6
_KEPT = bytes(int(b < 128) for b in range(256))          # 1 where a bit word is kept

# words per read-ahead (256 KB): about 1,000 pairs at max_depth 64, and some
# 1 MB of transient buffers while they are parsed
CHUNK_WORDS = 1 << 16


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


def random_depth_bits(rng, max_depth, count):
    """Yield `count` pairs (k, bits), equal to `count` repetitions of
    `k = rng.randint(0, max_depth); bits = random_bits(rng, k)`, and leave
    rng in the same state (`gauss_next` included).

    Words are read ahead about CHUNK_WORDS at a time and parsed into pairs;
    the words the pairs did not use are kept for the next parse, so every
    word is generated once.  A read-ahead is drawn only when the kept words
    end inside a pair, so the pairs of each read-ahead use up the words kept
    before it, and once the last pair is parsed only the last read-ahead is
    rewound: its saved state is restored and the words up to that pair
    drawn again.  rng runs up to a read-ahead ahead of the pairs yielded,
    and is in the scalar loop's state once the last pair has been yielded."""
    if not 0 <= max_depth < 2 ** 32:
        raise ValueError(f"max_depth {max_depth} not in 0 .. 2^32 - 1")
    per_pair, chunk = _chunk(max_depth)
    words = b""        # drawn words that no pair has used, 4 bytes each
    saved = drawn = None    # the state before the last read-ahead, and its words
    while count > 0:
        n = min(count, chunk)
        pairs, used = _parse(words, max_depth, n)
        words = words[4 * used:]
        count -= len(pairs)
        if len(pairs) < n:
            # the expected words of n pairs, plus 10% and 64 words of margin;
            # a pair longer than that takes the next read-ahead too
            saved, drawn = rng.getstate(), int(1.1 * n * per_pair) + 64
            words += rng.getrandbits(32 * drawn).to_bytes(4 * drawn, "little")
        elif count == 0 and words:
            rng.setstate(saved)
            rng.getrandbits(32 * (drawn - len(words) // 4))
        yield from pairs


def _chunk(max_depth):
    """(expected words per pair, pairs per read-ahead): 2^kb / (N + 1) words
    for k, then two per bit."""
    per_pair = 2 ** (max_depth + 1).bit_length() / (max_depth + 1) + max_depth
    return per_pair, max(1, int(CHUNK_WORDS / per_pair))


def _parse(block, max_depth, n):
    """(pairs, used): up to n pairs of `random_depth_bits` from the words of
    `block` (bytes, 4 per word, each little-endian), and the number of words
    those pairs used."""
    import numpy as np

    words = np.frombuffer(block, dtype="<u4")
    k_words = words >> (32 - (max_depth + 1).bit_length())    # each word's randint draw
    k_kept = (k_words <= max_depth).tobytes()                # 1 where it is kept
    k_vals = memoryview(k_words)
    tops = block[3::4]
    bit_kept = tops.translate(_KEPT)
    digits = tops.translate(_DIGIT, _REDRAW)              # the kept bits, in order
    pos = memoryview(np.flatnonzero(words < 2 ** 31))     # the kept bit words
    pairs = []
    q = c = 0          # the next unread word, and the kept bit words before it
    for _ in range(n):
        p = k_kept.find(1, q)
        if p < 0:
            break
        k = k_vals[p]
        c += bit_kept.count(1, q, p + 1)
        if c + k > len(digits):
            break
        pairs.append((k, int(b"0" + digits[c:c + k], 2)))
        c += k
        q = pos[c - 1] + 1 if k else p + 1
    return pairs, q
