"""Random faithful B_4 embeddings and the distortion-gap experiment.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings: every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L.  `nested_b4_indices` draws one as the 31 heap indices of its images,
and `nested_b4_rows` draws many as an array, on the same Mersenne-Twister
words, parsed once per read-ahead.  `b4-search` draws its trials B4_CHUNK at
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
from ..randbits import _bits_at, _WordReader
from ..trees import _vertex
from .classify import _B4, b4_bound_check


# maps per chunk of b4-search: it draws a chunk with one nested_b4_rows call,
# then checks it with one b4_bound_checks call, so memory stays bounded at any
# trial count
B4_CHUNK = 256

# words per read-ahead of nested_b4_rows at most (64 KB): its parse keeps
# some 16 bytes a word, so 10,000 trials in chunks of B4_CHUNK peak about
# 1.4 MB lower than with reads of randbits.CHUNK_WORDS, at the same speed
_READ_WORDS = 1 << 14
# a read-ahead expecting more words than this takes 90% of them
_SPLIT_WORDS = 4096


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

    The words are read ahead and parsed map by map (_B4Words); the bit runs
    of every parsed map are then packed at once, and the sibling flips,
    collisions and images are numpy operations on all maps (an image is the
    OR of its own and its ancestors' runs, each shifted up by L per level
    below it, under the root's marker bit 1 << h0).  A read-ahead
    that expects more than _SPLIT_WORDS words takes 90% of them, so the
    last one, which alone is rewound past the last word used, is small."""
    import numpy as np

    dtype = np.int64 if space.max_depth <= 62 else object
    if count > 0 and L is not None:
        _check_L_h0(space, L, h0)
    mean, spread = _words_per_map(space.max_depth, L, h0)
    reader = _WordReader(rng)
    words = b""        # drawn words that no map has used, 4 bytes each
    parts = [np.zeros((0, len(_B4)), dtype=dtype)]
    while count > 0:
        need = max(0, count * mean - len(words) // 4)
        words += reader.read(min(_READ_WORDS, int(0.9 * need) if need > _SPLIT_WORDS
                                 else int(1.1 * need + spread) + 64))
        block = _B4Words(words, space, L, h0)
        used, error = block.parse(count)
        if error is not None:
            reader.rewind(len(words) // 4 - used)
            raise OutOfRange(error)
        words = words[4 * used:]
        if block.parsed:
            parts.append(block.rows(collide_prob, dtype))
            count -= len(parts[-1])
    reader.rewind(len(words) // 4)
    return np.concatenate(parts)


def _words_per_map(max_depth, L, h0):
    """(mean, spread): about the expected words of one map of nested_b4_rows,
    and how far that of the largest L lies above it.  A map with a given L
    reads 2L kept words, some 4L words, and the two of rng.random() for each
    of its 15 sibling pairs, 2 h0 words for the root run (h0 averaging
    (max_depth - 4L) / 2 when drawn), and a few for the draws of L and h0;
    linear in L, so a drawn L averages to L = 8.5."""
    def words(l):
        return 60 * l + 34 + (2 * h0 if h0 is not None else max_depth - 4 * l)

    low, high = (3, 14) if L is None else (L, L)
    mean = (words(low) + words(high)) / 2
    return mean, words(high) - mean


class _B4Words:
    """The maps of nested_b4_rows in one block of words (bytes, 4 per word,
    each little-endian).

    A kept bit word (one of random_bits) has its top bit clear, and an
    L-bit run is L kept words, ending at the last; `before[q]` counts the
    kept words before word q and `pos[c]` is the c-th kept word, so a run
    from word q ends at word pos[before[q] + L - 1].  The two runs of a
    sibling pair are the 2L kept words from the pair's first word, and its
    rng.random() reads the two words after them, whatever their top bits.

    Each parsed map adds 33 ints to self.parsed: h0, L, the root run's first
    kept word, then per pair the first kept word c of its runs and the
    first word q of its rng.random()."""

    def __init__(self, block, space, L, h0):
        import numpy as np

        self.words = np.frombuffer(block, dtype="<u4")
        self.top = np.frombuffer(block, dtype=np.uint8)[3::4]    # each word's top byte
        kept = self.top < 128
        self.pos = kept.nonzero()[0]
        self.before = np.zeros(len(kept) + 1, dtype=np.int32)
        kept.cumsum(out=self.before[1:])
        self.space, self.L, self.h0 = space, L, h0
        self.parsed = []

    def parse(self, count):
        """Parse up to `count` maps, until the words end inside one.  Returns
        (used, error): the words the parsed maps used, and None; or, when a
        drawn L (or a given h0 below it) is out of range, the words used up
        to that L and the OutOfRange message."""
        N = self.space.max_depth
        wv, before, pos = memoryview(self.words), memoryview(self.before), memoryview(self.pos)
        nw, npos = len(wv), len(pos)
        maps, L, h0 = self.parsed, self.L, self.h0
        q = 0              # the next unread word
        for _ in range(count):
            start, mark = q, len(maps)
            if self.L is None:
                # randint(3, 14) keeps a word w with w >> 28 < 12
                while q < nw and wv[q] >> 28 >= 12:
                    q += 1
                if q == nw:
                    q = start
                    break
                L, q = (wv[q] >> 28) + 3, q + 1
                try:
                    _check_L_h0(self.space, L, self.h0)
                except OutOfRange as exc:
                    return q, str(exc)
            if self.h0 is None:
                n = N - 4 * L + 1
                shift = 32 - n.bit_length()
                while q < nw and wv[q] >> shift >= n:
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
                q = pos[root + h0 - 1] + 1
            maps += h0, L, root
            for _ in range(15):
                c = before[q]
                if c + 2 * L > npos:
                    break
                q = pos[c + 2 * L - 1] + 1
                if q + 2 > nw:
                    break
                maps += c, q
                q += 2
            else:
                continue
            del maps[mark:]
            q = start
            break
        return q, None

    def rows(self, collide_prob, dtype):
        """The heap indices of the parsed maps, as nested_b4_rows returns them."""
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
        maps = np.array(self.parsed).reshape(-1, 33)
        m, Ls = len(maps), maps[:, 1:2]
        zero, after = maps[:, 3::2], maps[:, 4::2]
        one = zero + Ls
        # rng.random() is ((a >> 5) * 2^26 + (b >> 6)) / 2^53 for its words a, b
        a, b = self.words[after], self.words[after + 1]
        collide = ((a >> 5).astype(np.int64) << 26 | b >> 6) < collide_prob * 2 ** 53
        # a 1-child's run starts with the other bit than its sibling's, or is
        # its sibling's run on a collision
        digits = self.top[self.pos] >> 6
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


_COLUMNS = []       # numpy loads lazily: the column arrays of _B4Words.rows once used


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
    random.Random(seed), gives the distortion of its whole family (see the
    module docstring).  Returns a dict with the upper bound, that distortion
    (key "search_best_dist"), the floor, and whether the floor holds.
    """
    if not 1 <= n <= 12:
        raise OutOfRange(f"n must be in 1..12, got {n}")
    upper = max(1 / space.eps[m] for m in range(1, n + 1))
    s_n = Fraction(s(n)).limit_denominator(10 ** 6)
    check(upper == s_n, "upper bound %s != s(%s) = %s", upper, n, s_n)
    f = generate_faithful_b4(space, random.Random(seed), L=max(1, n // 4), collide_prob=0.0)
    dist, bound, holds = b4_bound_check(space, lambda v: f[v], Fraction(1, 512))
    return {
        "upper_bound": upper,
        "search_best_dist": dist,
        "rigidity_floor": bound,
        "floor_holds": holds,
    }
