"""Random faithful B_4 embeddings and the distortion-gap experiment.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings: every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L.

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
from ..trees import ROOT, enumerate_bn
from .classify import b4_bound_check


def _nested_embedding(L, h0, root_bits, descents):
    """The nested B_4 embedding: root at the depth-h0 vertex along the h0-bit
    int `root_bits`, each child placed `L` levels below its parent along its
    L-bit int in `descents` (dict non-root TreeVertex -> int)."""
    images = {ROOT: ROOT.hang(root_bits, h0)}
    for v in enumerate_bn(4)[1:]:
        images[v] = images[v.parent()].hang(descents[v], L)
    return images


def _random_descents(rng, L, collide_prob=0.0):
    """Random per-edge bit runs; sibling edges get distinct leading bits unless
    a (rare) deliberate collision is requested, which collapses the siblings
    whenever the remaining bits also agree.  Each run is an L-bit int, its
    first bit the highest."""
    top = 1 << (L - 1)
    descents = {}
    for v in enumerate_bn(4)[1:]:      # heap order: each 0-child before its sibling
        bits = random_bits(rng, L)
        sib = descents.get(v.sibling())
        if sib is not None:
            if rng.random() < collide_prob:
                bits = sib                      # exact sibling collapse
            elif not (bits ^ sib) & top:
                bits ^= top
        descents[v] = bits
    return descents


def generate_faithful_b4(space, rng, L=None, collide_prob=0.01):
    """A random exactly vertically faithful map B_4 -> (B_infty, d_eps).

    Nested embeddings stretch every ancestor pair by exactly L, so the
    vertical report is D = 1 regardless of branch choices; occasional sibling
    collisions (collide_prob) leave faithfulness intact but make the full
    distortion infinite.  Returns a dict TreeVertex -> TreeVertex.  L must
    be in 1..max_depth // 4 (OutOfRange otherwise), so the image fits.
    """
    if L is None:
        L = rng.randint(3, 14)
    if not 1 <= L <= space.max_depth // 4:
        raise OutOfRange(f"L = {L} outside 1..{space.max_depth // 4}")
    h0 = rng.randint(0, space.max_depth - 4 * L)
    root_bits = random_bits(rng, h0)
    return _nested_embedding(L, h0, root_bits, _random_descents(rng, L, collide_prob))


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
