"""Random faithful B_4 embeddings and the distortion-gap experiment.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings: every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L.  `nested_b4_indices` draws one as the 31 heap indices of its images,
and `nested_b4_rows` draws many as an array, on the same Mersenne-Twister
words, read through `randbits._draw`, the one read-ahead of every bulk draw
of the package.  `b4-search` draws its trials B4_CHUNK at
a time with one nested_b4_rows call and checks each chunk with one
`classify.b4_bound_checks` call, which decides its verdicts on ints, building
TreeVertex maps only for the trials that violate the floor
(`generate_faithful_b4` gives the TreeVertex map of the same draws).

One nested map stands for the whole family.  Sibling descents start with
different bits, so the image of lca(u, v) is the lca of the images of u and v,
and every d_eps distance in the image depends only on (L, h0, eps), not on the
descent bits.  So every nested map with the same (L, h0) has the same
distortion, and the distortion-gap experiment evaluates one of them.
"""
from __future__ import annotations

import random
from fractions import Fraction

from ..errors import OutOfRange, check
from ..randbits import _bits_at, _draw
from ..trees import _vertex
# b4_bound_check is not used here, but stays a name of this module:
# bench/tests/test_bench.py reaches it as search.b4_bound_check
from .classify import _B4, b4_bound_check, b4_bound_checks  # noqa: F401


# maps per chunk of b4-search: it draws a chunk with one nested_b4_rows call,
# then checks it with one b4_bound_checks call, so memory stays bounded at any
# trial count
B4_CHUNK = 256


def _check_L_h0(space, L, h0):
    """OutOfRange unless L lies in 1..max_depth // 4 and h0 (when given) in
    0..max_depth - 4L."""
    if not 1 <= L <= space.max_depth // 4:
        raise OutOfRange(f"L = {L} outside 1..{space.max_depth // 4}")
    if h0 is not None and not 0 <= h0 <= space.max_depth - 4 * L:
        raise OutOfRange(f"h0 = {h0} outside 0..{space.max_depth - 4 * L}")


def nested_b4_indices(space, rng, L=None, collide_prob=0.01, h0=None):
    """The heap indices of a random nested B_4 map, in _B4 order: 31 ints.

    The root goes to the depth-h0 vertex along h0 random bits, and each
    other vertex of B_4, in heap order, L levels below its parent's image
    along a random L-bit run (its first bit the highest).  A 1-child's run
    starts with the other bit than its sibling's (the 0-child, drawn just
    before), unless a deliberate collision, with probability collide_prob,
    copies the sibling's run: then the two siblings collapse.  L is drawn
    from 3..14 and h0 from 0..max_depth - 4L unless given; L must lie in
    1..max_depth // 4 and h0 in 0..max_depth - 4L (OutOfRange otherwise),
    so the image fits.  The draws are `rng.randint(3, 14)` for L,
    `rng.randint(0, max_depth - 4L)` for h0, `random_bits(rng, h0)` for the
    root, then per sibling pair `random_bits(rng, L)` twice and
    `rng.random()`.  This is the one row of nested_b4_rows.
    """
    return nested_b4_rows(space, rng, 1, L, collide_prob, h0)[0].tolist()


def nested_b4_rows(space, rng, count, L=None, collide_prob=0.01, h0=None):
    """`count` maps of nested_b4_indices as a (count, 31) array of heap
    indices, on the words of `count` calls to it: rng is left as they leave
    it (`gauss_next` included), and an OutOfRange of a drawn L, or of a
    given h0 below it, is raised with rng just past that L's word.  The
    array is int64 when space.max_depth <= 62, else Python ints in an
    object array.

    The words are read through `randbits._draw` and parsed map by map
    (_parse_b4); the bit runs of every parsed map are then packed at once,
    and the sibling flips, collisions and images are numpy operations on
    all maps (_b4_rows)."""
    import numpy as np

    dtype = np.int64 if space.max_depth <= 62 else object
    if count > 0 and L is not None:
        _check_L_h0(space, L, h0)
    # a map reads 2L kept words, some 4L words, and the two of rng.random()
    # for each of its 15 sibling pairs, 2 h0 words for the root run (h0 averaging (max_depth - 4L) / 2 when drawn), and a few
    # for the draws of L and h0; linear in L, so a drawn L averages to 8.5
    mean_L = 8.5 if L is None else L
    per_map = 60 * mean_L + 34 + (2 * h0 if h0 is not None else space.max_depth - 4 * mean_L)
    parts = _draw(rng, count, per_map,
                  lambda block, n: _parse_b4(space, L, h0, collide_prob, dtype, block, n))
    return np.concatenate([np.zeros((0, len(_B4)), dtype=dtype), *parts])


def _parse_b4(space, L, h0, collide_prob, dtype, block, n):
    """The parse of nested_b4_rows for `randbits._draw`: up to n maps from
    the words of `block`, their part the rows of _b4_rows.

    A kept bit word (one of random_bits) has its top bit clear, and an
    L-bit run is L kept words, ending at the last; `before[q]` counts the
    kept words before word q and `pos[c]` is the c-th kept word, so a run
    from word q ends at word pos[before[q] + L - 1].  The two runs of a
    sibling pair are the 2L kept words from the pair's first word, and its
    rng.random() reads the two words after them, whatever their top bits.

    Each parsed map adds 33 ints to `maps`: h0, L, the root run's first
    kept word, then per pair the first kept word c of its runs and the
    first word q of its rng.random()."""
    import numpy as np

    words = np.frombuffer(block, dtype="<u4")
    top = np.frombuffer(block, dtype=np.uint8)[3::4]        # each word's top byte
    kept = top < 128
    pos = kept.nonzero()[0]
    before = np.zeros(len(kept) + 1, dtype=np.int32)
    kept.cumsum(out=before[1:])
    N, given_L, given_h0 = space.max_depth, L, h0
    wv, before, pv = memoryview(words), memoryview(before), memoryview(pos)
    nw, npos = len(wv), len(pv)
    maps = []
    q = 0              # the next unread word
    for _ in range(n):
        start, mark = q, len(maps)
        if given_L is None:
            # randint(3, 14) keeps a word w with w >> 28 < 12
            while q < nw and wv[q] >> 28 >= 12:
                q += 1
            if q == nw:
                q = start
                break
            L, q = (wv[q] >> 28) + 3, q + 1
            try:
                _check_L_h0(space, L, given_h0)
            except OutOfRange as exc:
                return None, 0, q, exc
        if given_h0 is None:
            m = N - 4 * L + 1
            shift = 32 - m.bit_length()
            while q < nw and wv[q] >> shift >= m:
                q += 1
            if q == nw:
                q = start
                break
            h0, q = wv[q] >> shift, q + 1
        root = before[q]
        if root + h0 > npos:
            q = start
            break
        if h0:
            q = pv[root + h0 - 1] + 1
        maps += h0, L, root
        for _ in range(15):
            c = before[q]
            if c + 2 * L > npos:
                break
            q = pv[c + 2 * L - 1] + 1
            if q + 2 > nw:
                break
            maps += c, q
            q += 2
        else:
            continue
        del maps[mark:]
        q = start
        break
    items = len(maps) // 33
    return _b4_rows(maps, words, top, pos, collide_prob, dtype) if items else None, items, q, None


def _b4_rows(maps, words, top, pos, collide_prob, dtype):
    """The heap indices of the maps _parse_b4 parsed into `maps`, from the
    words of its block, their top bytes and its kept bit words, as
    nested_b4_rows returns them.  An image is the OR of its own and its
    ancestors' runs, each shifted up by L per level below it, under the
    root's marker bit 1 << h0."""
    import numpy as np

    if not _COLUMNS:
        # the runs' first kept words by heap index - 1 (the root's, then
        # each pair's twice), their widths (h0, then L), and for each
        # vertex its ancestors' runs and how many levels of L lie below
        # them (a vertex above depth 4 repeats its own run, shifted by 0)
        lines = [[(v >> k) - 1 for k in range(v.bit_length())] for v in range(1, 32)]
        _COLUMNS.extend(np.array(a) for a in (
            [2] + [3 + 2 * (i // 2) for i in range(30)], [0] + [1] * 30,
            [line + line[:1] * (5 - len(line)) for line in lines],
            [list(range(len(line))) + [0] * (5 - len(line)) for line in lines]))
    start_cols, width_cols, ancestors, levels = _COLUMNS
    maps = np.array(maps).reshape(-1, 33)
    m, Ls = len(maps), maps[:, 1:2]
    zero, after = maps[:, 3::2], maps[:, 4::2]
    one = zero + Ls
    # rng.random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for its words a, b
    a, b = words[after], words[after + 1]
    collide = ((a >> 5).astype(np.int64) << 26 | b >> 6) < collide_prob * 2 ** 53
    # a 1-child's run starts with the other bit than its sibling's, or is
    # its sibling's run on a collision
    digits = top[pos] >> 6
    digits[one] = 1 - digits[zero]
    starts = maps[:, start_cols]
    starts[:, 2::2] = np.where(collide, zero, one)
    widths = maps[:, width_cols]
    runs = _bits_at(digits, starts.ravel(), widths.ravel(), int(widths.max()))
    runs = (runs.view(np.int64) if dtype is np.int64 else runs.astype(object)).reshape(m, -1)
    # the root's image; each other's is its parent's, L levels up, and its run
    runs[:, 0] |= 1 << maps[:, 0].astype(dtype)
    shifts = (levels * Ls[:, :, None]).astype(dtype)
    return np.bitwise_or.reduce(runs[:, ancestors] << shifts, axis=2)


_COLUMNS = []       # numpy loads lazily: the column arrays of _b4_rows once used


def generate_faithful_b4(space, rng, L=None, collide_prob=0.01):
    """A random exactly vertically faithful map B_4 -> (B_infty, d_eps).

    Nested embeddings stretch every ancestor pair by exactly L, so the
    vertical report is D = 1 regardless of branch choices; occasional sibling
    collisions (collide_prob) leave faithfulness intact but make the full
    distortion infinite.  Returns a dict TreeVertex -> TreeVertex: the map of
    nested_b4_indices, on the same draws.
    """
    return dict(zip(_B4, map(_vertex, nested_b4_indices(space, rng, L, collide_prob))))


def distortion_gap_experiment(space, s, n, seed=0):
    """Compare the trivial upper bound with the rigidity floor at depth budget n.

    The identity map of B_n into the contracted tree has distortion exactly
    max_{m <= n} 1/eps_m = s(n) (witnessed by deep siblings), while the
    rigidity bound floors the distortion of any faithful B_4 image.  One
    collision-free nested map with L = max(1, n // 4), drawn from
    random.Random(seed) as one row of nested_b4_rows and checked by
    b4_bound_checks, gives the distortion of its whole family (see the
    module docstring).  Returns a dict with the upper bound, that distortion
    (key "search_best_dist"), the floor, and whether the floor holds.
    """
    if not 1 <= n <= 12:
        raise OutOfRange(f"n must be in 1..12, got {n}")
    upper = max(1 / space.eps[m] for m in range(1, n + 1))
    s_n = Fraction(s(n)).limit_denominator(10 ** 6)
    check(upper == s_n, "upper bound %s != s(%s) = %s", upper, n, s_n)
    rows = nested_b4_rows(space, random.Random(seed), 1, max(1, n // 4), 0.0)
    dist, bound, holds = b4_bound_checks(space, rows, Fraction(1, 512))[0]
    return {
        "upper_bound": upper,
        "search_best_dist": dist,
        "rigidity_floor": bound,
        "floor_holds": holds,
    }
