"""Random faithful B_4 embeddings and the distortion-gap experiment.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings: every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L.  `nested_b4_indices` draws one as the 31 heap indices of its images,
which `classify.b4_bound_checks` checks in bulk: `b4-search` draws its trials
B4_CHUNK at a time and checks each chunk in one call, building TreeVertex maps
only for the trials that violate the floor (`generate_faithful_b4` gives the
TreeVertex map of the same draws).

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
from ..randbits import random_bits
from ..trees import _vertex
from .classify import _B4, b4_bound_check


# maps per chunk of b4-search: it draws a chunk, then checks it with one
# b4_bound_checks call, so memory stays bounded at any trial count
B4_CHUNK = 16


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
    so the image fits.
    """
    if L is None:
        L = rng.randint(3, 14)
    if not 1 <= L <= space.max_depth // 4:
        raise OutOfRange(f"L = {L} outside 1..{space.max_depth // 4}")
    if h0 is None:
        h0 = rng.randint(0, space.max_depth - 4 * L)
    elif not 0 <= h0 <= space.max_depth - 4 * L:
        raise OutOfRange(f"h0 = {h0} outside 0..{space.max_depth - 4 * L}")
    top = 1 << (L - 1)
    images = [1 << h0 | random_bits(rng, h0)]
    runs = [0, 0]                          # by heap index; the root's unused
    for v in range(2, 32):
        bits = random_bits(rng, L)
        if v & 1:
            sib = runs[v - 1]
            if rng.random() < collide_prob:
                bits = sib                      # exact sibling collapse
            elif not (bits ^ sib) & top:
                bits ^= top
        runs.append(bits)
        images.append(images[(v >> 1) - 1] << L | bits)
    return images


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
