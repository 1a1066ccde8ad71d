"""Random draws in bulk, on the exact stream of `rng.randint` and `rng.randrange`.

In CPython every draw below reads 32-bit Mersenne-Twister words w, and
`rng.getrandbits(32 * j)` returns j such words, the first drawn as the lowest.

- `rng.randint(0, 1)` returns w >> 30, drawing a new word while that is 2 or
  3 (the top bit of w is set).  So the top byte b of each word decides it:
  b >= 128 is a redraw, otherwise the bit is b >> 6.
- `rng.randrange(n)` and `rng.randint(0, n - 1)` with n < 2^32 return
  w >> (32 - kb), where kb = n.bit_length(), drawing a new word while that
  is n or more.
- `rng.random()` reads two words a, b, whatever their top bits, and returns
  ((a >> 5) * 2^26 + (b >> 6)) / 2^53, so `rng.random() < p` is the int
  (a >> 5) << 26 | b >> 6 compared with p * 2^53.
"""
from __future__ import annotations

_REDRAW = bytes(range(128, 256))
_DIGIT = bytes(b"01"[b >> 6 & 1] for b in range(256))   # ASCII "0"/"1" of b >> 6

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


class _WordReader:
    """The 32-bit words of rng, read ahead: `read(n)` draws n words as a
    little-endian bytes object, and `rewind(unused)` leaves rng as if the last
    `unused` words of the last read (at most that many) had not been drawn:
    it restores the state saved before that read (`gauss_next` included) and
    draws the used words again."""

    def __init__(self, rng):
        self.rng = rng
        self.saved = None
        self.drawn = 0

    def read(self, n):
        self.saved, self.drawn = self.rng.getstate(), n
        return self.rng.getrandbits(32 * n).to_bytes(4 * n, "little")

    def rewind(self, unused):
        if unused:
            self.rng.setstate(self.saved)
            self.rng.getrandbits(32 * (self.drawn - unused))


def random_below(rng, n, count):
    """`count` draws of `rng.randrange(n)` (1 <= n < 2^32) as an int64 array,
    in draw order, leaving rng in the state the scalar loop leaves
    (`gauss_next` included).  Words are read up to CHUNK_WORDS at a time, and
    the last read is rewound past the last word used."""
    import numpy as np

    if not 0 < n < 2 ** 32:
        raise ValueError(f"n {n} not in 1 .. 2^32 - 1")
    kb = n.bit_length()
    reader = _WordReader(rng)
    out = [np.zeros(0, dtype=np.int64)]
    while count > 0:
        # the expected words of count draws, plus 10% and 64 words of margin
        size = min(CHUNK_WORDS, int(1.1 * count * 2 ** kb / n) + 64)
        draws = np.frombuffer(reader.read(size), dtype="<u4") >> (32 - kb)
        kept = np.flatnonzero(draws < n)[:count]
        out.append(draws[kept].astype(np.int64))
        count -= len(kept)
        if count == 0:
            reader.rewind(size - 1 - int(kept[-1]))
    return np.concatenate(out)


def random_depth_bits(rng, max_depth, count):
    """(depths, bits): the pairs (k, bits) of `count` repetitions of
    `k = rng.randint(0, max_depth); bits = random_bits(rng, k)`, in draw
    order, as an int64 array of the k and an array of the bits: uint64 when
    max_depth <= 64, else an object array of Python ints.  rng is left in
    the scalar loop's state (`gauss_next` included).

    Words are read ahead about CHUNK_WORDS at a time and parsed into pairs;
    the words the pairs did not use are kept for the next parse, so every
    word is generated once.  A read-ahead is drawn only when the kept words
    end inside a pair, so the pairs of each read-ahead use up the words kept
    before it, and once the last pair is parsed only the last read-ahead is
    rewound."""
    import numpy as np

    if not 0 <= max_depth < 2 ** 32 - 1:
        raise ValueError(f"max_depth {max_depth} not in 0 .. 2^32 - 2")
    per_pair, chunk = _chunk(max_depth)
    reader = _WordReader(rng)
    words = b""        # drawn words that no pair has used, 4 bytes each
    depths = [np.zeros(0, dtype=np.int64)]
    bits = [np.zeros(0, dtype=np.uint64 if max_depth <= 64 else object)]
    while count > 0:
        n = min(count, chunk)
        k, b, used = _parse(words, max_depth, n)
        words = words[4 * used:]
        depths.append(k)
        bits.append(b)
        count -= len(k)
        if len(k) < n:
            # the expected words of n pairs, plus 10% and 64 words of margin;
            # a pair longer than that takes the next read-ahead too
            words += reader.read(int(1.1 * n * per_pair) + 64)
        elif count == 0:
            reader.rewind(len(words) // 4)
    return np.concatenate(depths), np.concatenate(bits)


def _chunk(max_depth):
    """(expected words per pair, pairs per read-ahead): 2^kb / (N + 1) words
    for k, then two per bit."""
    per_pair = 2 ** (max_depth + 1).bit_length() / (max_depth + 1) + max_depth
    return per_pair, max(1, int(CHUNK_WORDS / per_pair))


def _parse(block, max_depth, n):
    """(depths, bits, used): up to n pairs of `random_depth_bits` from the
    words of `block` (bytes, 4 per word, each little-endian), as its two
    arrays, and the number of words those pairs used.

    A kept bit word has its top bit clear.  A rejected k word w has
    w >> (32 - kb) > max_depth >= 2^(kb - 1) - 1, so its top bit is set:
    between two pairs only the kept k word can be a kept bit word."""
    import numpy as np

    k_words = np.frombuffer(block, dtype="<u4") >> (32 - (max_depth + 1).bit_length())
    k_kept = (k_words <= max_depth).tobytes()                # 1 where a k word is kept
    k_vals = memoryview(k_words)
    top = np.frombuffer(block, dtype=np.uint8)[3::4]         # each word's top byte b
    bit_kept = top < 128
    pos = np.flatnonzero(bit_kept)                           # the kept bit words
    digits = top[pos] >> 6                                   # and their bits
    bit_kept, pos = bit_kept.tobytes(), memoryview(pos)
    ks, cs = [], []
    q = c = 0          # the next unread word, and the kept bit words before it
    for _ in range(n):
        p = k_kept.find(1, q)
        if p < 0:
            break
        k = k_vals[p]
        c += bit_kept[p]
        if c + k > len(pos):
            break
        ks.append(k)
        cs.append(c)
        c += k
        q = pos[c - 1] + 1 if k else p + 1
    ks = np.array(ks, dtype=np.int64)
    return ks, _bits_at(digits, np.array(cs, dtype=np.int64), ks, max_depth), q


def _bits_at(digits, starts, widths, max_depth):
    """The ints of digits[s:s + w] (0/1 each, the first as the highest bit)
    for s, w in zip(starts, widths), every w <= max_depth: uint64 when
    max_depth <= 64, else an object array of Python ints.

    Each int is the top w bits of its row, digits[s:s + span] (zero past the
    end) for span = max_depth rounded up to a multiple of 64, all rows
    packed at once into big-endian ints of span bits."""
    import numpy as np

    span = 64 * max(1, -(-max_depth // 64))
    padded = np.zeros(len(digits) + span, dtype=np.uint8)
    padded[:len(digits)] = digits
    # windows[s] is padded[s:s + span], a view over padded
    windows = np.ndarray((len(digits) + 1, span), np.uint8, padded, strides=(1, 1))
    rows = np.packbits(windows[starts], axis=1)
    if span == 64:
        out = rows.view(">u8")[:, 0].astype(np.uint64) >> ((64 - widths) % 64).astype(np.uint64)
        out[widths == 0] = 0
        return out
    size = span // 8
    rows = rows.tobytes()
    out = np.empty(len(starts), dtype=object)
    out[:] = [int.from_bytes(rows[i * size:(i + 1) * size], "big") >> (span - w)
              for i, w in enumerate(widths.tolist())]
    return out
