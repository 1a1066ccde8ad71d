"""Random faithful B_4 embeddings and the distortion-gap experiment.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings: every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L.  `nested_b4_rows` draws maps as an array of the 31 heap indices
of their images, each map from a fixed number of 64-bit words of
`randbits.random_words`, so that a draw of many maps equals as many one-map
draws; `nested_b4_indices` is its one row, and `generate_faithful_b4` the
TreeVertex map of that row.  `b4-search` draws its trials B4_CHUNK at a time
with one nested_b4_rows call and checks each chunk with one
`classify.b4_bound_checks` call, which decides its verdicts on ints, building
TreeVertex maps only for the trials that violate the floor.

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
from ..randbits import random_words, top_bits
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
    starts with the other bit than its sibling's (the 0-child), unless a
    deliberate collision, with probability collide_prob, copies the
    sibling's run: then the two siblings collapse.  L is drawn from 3..14
    and h0 from 0..max_depth - 4L unless given; L must lie in
    1..max_depth // 4 and h0 in 0..max_depth - 4L (OutOfRange otherwise),
    so the image fits.  This is the one row of nested_b4_rows, which gives
    the words it reads.
    """
    return nested_b4_rows(space, rng, 1, L, collide_prob, h0)[0].tolist()


def nested_b4_rows(space, rng, count, L=None, collide_prob=0.01, h0=None):
    """`count` maps of nested_b4_indices as a (count, 31) array of heap
    indices: int64 when space.max_depth <= 62, else Python ints in an
    object array.

    Each map reads the same 2 + 31 W + 15 words of `randbits.random_words`,
    W = max(1, ceil(max_depth / 64)), whether L and h0 are given or drawn,
    so a draw of count maps equals count one-map draws: L = 3 + w % 12 of
    its first word, h0 = w % (max_depth - 4L + 1) of its second, the root's
    run of the next W, then per sibling pair, in heap order, the runs of the
    0-child and the 1-child (W words each) and a collision word w, which
    collides when (w >> 11) < collide_prob * 2^53 (as `rng.random() <
    collide_prob` reads 53 bits).  A run is the top L bits, the root's the
    top h0 bits, of its words (`randbits.top_bits`).  An image is its
    parent's image shifted up by L, ORed with its run, under the root's
    marker bit 1 << h0.

    A given L or h0 out of range raises OutOfRange before anything is
    drawn.  A drawn L that does not fit (or leaves no room for a given h0)
    raises it for the first such map, with rng past all count maps' words.
    """
    import numpy as np

    N, width = space.max_depth, max(1, -(-space.max_depth // 64))
    if count > 0 and L is not None:
        _check_L_h0(space, L, h0)
    per_map = 2 + 31 * width + 15
    words = random_words(rng, count * per_map).reshape(-1, per_map)
    if L is None:
        L = 3 + (words[:, :1] % 12).astype(np.int64)
        room = N - 4 * L
        fits = room >= 0 if h0 is None else (0 <= h0) & (h0 <= room)
        if not fits.all():
            _check_L_h0(space, int(L[fits.argmin(), 0]), h0)
    if h0 is None:
        h0 = words[:, 1:2] % np.asarray(N + 1 - 4 * L, dtype=np.uint64)
    # columns of one L and h0 a map: a 0-d uint64 mixed with an int would
    # turn float on numpy 1.x
    L, h0 = (np.broadcast_to(a, (len(words), 1)).astype(np.uint64) for a in (L, h0))
    pairs = words[:, 2 + width:].reshape(-1, 15, 2 * width + 1)
    root = top_bits(words[:, None, 2:2 + width], h0)
    runs = top_bits(pairs[:, :, :2 * width].reshape(-1, 30, width), L)
    # a 1-child's run starts with the other bit than its sibling's, or is
    # its sibling's run on a collision
    dtype = np.uint64 if N <= 62 else object
    root, runs, L, h0 = (a.astype(dtype) for a in (root, runs, L, h0))
    top = 1 << (L - 1)
    zero, one = runs[:, 0::2], runs[:, 1::2]
    collide = (pairs[:, :, 2 * width] >> 11) < collide_prob * 2 ** 53
    runs[:, 1::2] = np.where(collide, zero, (one & (top - 1)) | (zero & top ^ top))
    # the images by depth, each vertex's the parent's shifted up by L and its run
    level = root | 1 << h0
    images = [level]
    for d in range(1, 5):
        level = np.repeat(level, 2, axis=1) << L | runs[:, 2 ** d - 2:2 ** (d + 1) - 2]
        images.append(level)
    rows = np.hstack(images)
    return rows.view(np.int64) if dtype is np.uint64 else rows


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
