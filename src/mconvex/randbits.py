"""Random bits drawn in bulk, on the exact stream of `rng.randint(0, 1)`.

In CPython, `rng.randint(0, 1)` takes one 32-bit Mersenne-Twister word w and
returns w >> 30, drawing a new word while that is 2 or 3 (the top bit of w is
set).  `rng.getrandbits(32 * j)` returns j such words, the first drawn as the
lowest.  So the top byte b of each word decides both: b >= 128 is a redraw,
otherwise the bit is b >> 6.
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
