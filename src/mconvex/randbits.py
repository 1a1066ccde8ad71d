"""Random bits drawn in bulk, on the exact stream of `rng.randint(0, 1)`.

In CPython, `rng.randint(0, 1)` takes one 32-bit Mersenne-Twister word w and
returns w >> 30, drawing a new word while that is 2 or 3 (the top bit of w is
set).  `rng.getrandbits(32 * j)` returns j such words, the first drawn as the
lowest.  So the top byte b of each word decides both: b >= 128 is a redraw,
otherwise the bit is b >> 6.
"""
from __future__ import annotations

_REDRAW = bytes(range(128, 256))
_BIT = bytes(b >> 6 for b in range(256))


def random_bits(rng, k):
    """tuple(rng.randint(0, 1) for _ in range(k)), consuming the same words of
    rng, so that every later draw from rng is unchanged too."""
    out = b""
    while len(out) < k:
        need = k - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_BIT, _REDRAW)
    return tuple(out)
