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

`random_below`, `random_depth_bits` and `embeddings.search.nested_b4_rows`
each parse blocks of these words into draws, and read them through one
read-ahead loop, `_draw`, which keeps the words no draw has used yet and
rewinds its last read, so rng ends where their scalar loops leave it.
"""
from __future__ import annotations

_REDRAW = bytes(range(128, 256))
_DIGIT = bytes(b"01"[b >> 6 & 1] for b in range(256))   # ASCII "0"/"1" of b >> 6

# the most words one read-ahead of _draw draws (128 KB), chosen by timing
# caps of 16K, 32K and 64K words: at 16K, random_depth_bits' 15,000 pairs at
# max_depth 64 took 8-15% longer; 64K was no faster, and a nested_b4_rows
# parse keeps some 14 bytes a word of its read
CHUNK_WORDS = 1 << 15


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


def _draw(rng, count, per_item, parse):
    """The parts of `count` items parsed from the words of rng, leaving rng
    in the state of the scalar loop that draws them (`gauss_next` included):
    the one read-ahead of random_below, random_depth_bits and
    `embeddings.search.nested_b4_rows`.

    `parse(block, n)` reads up to n items from `block` (bytes, 4 per word,
    each little-endian) and returns (part, items, used, error): what it
    parsed, how many items that is, the words they used, and None; or, when
    an item is refused, the words used up to the refusing word and the
    exception, which is raised once rng stands just past that word.  It
    parses fewer than n items only when the block ends inside one.

    The words no item has used yet are kept for the next parse, so every
    word is generated once.  More are read only when a parse stops inside
    an item, so the items of each read use up the words kept before it, and
    only the last read is rewound past the last word used: rng goes back to
    its state before that read, and the used words of that read are drawn
    again.  A read takes the `per_item` words expected of an item 1.1 times
    for each item left, half an item more (so that one item longer than the
    mean mostly fits one read), and 64 words, up to CHUNK_WORDS."""
    parts, words, error = [], b"", None
    while count > 0 and error is None:
        size = min(CHUNK_WORDS, int((1.1 * count + 0.5) * per_item) + 64)
        saved = rng.getstate()
        words += rng.getrandbits(32 * size).to_bytes(4 * size, "little")
        part, items, used, error = parse(words, count)
        words = words[4 * used:]
        if items:
            parts.append(part)
        count -= items
    if words:
        rng.setstate(saved)
        rng.getrandbits(32 * (size - len(words) // 4))
    if error is not None:
        raise error
    return parts


def random_below(rng, n, count):
    """`count` draws of `rng.randrange(n)` (1 <= n < 2^32) as an int64 array,
    in draw order, on the words of the scalar loop (`_draw`)."""
    import numpy as np

    if not 0 < n < 2 ** 32:
        raise ValueError(f"n {n} not in 1 .. 2^32 - 1")
    kb = n.bit_length()

    def parse(block, left):
        draws = np.frombuffer(block, dtype="<u4") >> (32 - kb)
        kept = np.flatnonzero(draws < n)[:left]
        used = int(kept[-1]) + 1 if len(kept) == left else len(draws)
        return draws[kept].astype(np.int64), len(kept), used, None

    # a draw reads 2^kb / n words on average
    return np.concatenate([np.zeros(0, dtype=np.int64), *_draw(rng, count, 2 ** kb / n, parse)])


def random_depth_bits(rng, max_depth, count):
    """(depths, bits): the pairs (k, bits) of `count` repetitions of
    `k = rng.randint(0, max_depth); bits = random_bits(rng, k)`, in draw
    order, as an int64 array of the k and an array of the bits: uint64 when
    max_depth <= 64, else an object array of Python ints.  The words are
    those of the scalar loop (`_draw`)."""
    import numpy as np

    if not 0 <= max_depth < 2 ** 32 - 1:
        raise ValueError(f"max_depth {max_depth} not in 0 .. 2^32 - 2")
    # a pair reads 2^kb / (N + 1) words for k, then two per bit
    per_pair = 2 ** (max_depth + 1).bit_length() / (max_depth + 1) + max_depth
    parts = _draw(rng, count, per_pair, lambda block, n: _parse(block, max_depth, n))
    empty = (np.zeros(0, dtype=np.int64),
             np.zeros(0, dtype=np.uint64 if max_depth <= 64 else object))
    depths, bits = zip(empty, *parts)
    return np.concatenate(depths), np.concatenate(bits)


def _parse(block, max_depth, n):
    """The parse of random_depth_bits for `_draw`: up to n pairs from the
    words of `block`, their part the pair (depths, bits) of arrays.

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
    bits = _bits_at(digits, np.array(cs, dtype=np.int64), ks, max_depth)
    return (ks, bits), len(ks), q, None


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
