"""Randomized generation and annealing search over faithful B_4 embeddings.

The rigidity bound says a (1 + delta)-vertically faithful image of B_4 in
(B_infty, d_eps) cannot have small distortion: dist >= 1/(500 delta + eps_h0).
The generator below produces exactly faithful "nested" embeddings (every edge
of B_4 becomes a descending run of L levels, so ancestor pairs stretch by
exactly L); the annealer then minimizes distortion within that family to
probe how tight the bound is.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from ..errors import check
from ..randbits import random_bits
from ..trees import TreeVertex, enumerate_bn
from .classify import b4_bound_check, b4_distortion


def _nested_embedding(L, h0, root_bits, descents):
    """The nested B_4 embedding: root at the depth-h0 vertex `root_bits`, each
    child placed `L` levels below its parent along its bit string in
    `descents` (dict non-root TreeVertex -> tuple of L bits)."""
    images = {TreeVertex(()): TreeVertex._from_bits(root_bits)}
    for v in enumerate_bn(4):
        if v.depth == 0:
            continue
        images[v] = TreeVertex._from_bits(images[v.parent()].path + descents[v])
    return images


def _random_descents(rng, L, collide_prob=0.0):
    """Random per-edge bit runs; sibling edges get distinct leading bits unless
    a (rare) deliberate collision is requested, which collapses the siblings
    whenever the remaining bits also agree."""
    descents = {}
    for v in enumerate_bn(4):
        if v.depth == 0:
            continue
        bits = random_bits(rng, L)
        if v.path[-1] == 1:
            sib = descents[TreeVertex(v.path[:-1] + (0,))]
            if rng.random() < collide_prob:
                bits = sib                      # exact sibling collapse
            elif bits[0] == sib[0]:
                bits = (1 - sib[0],) + bits[1:]
        descents[v] = bits
    return descents


def generate_faithful_b4(space, rng, L=None, collide_prob=0.01):
    """A random exactly vertically faithful map B_4 -> (B_infty, d_eps).

    Nested embeddings stretch every ancestor pair by exactly L, so the
    vertical report is D = 1 regardless of branch choices; occasional sibling
    collisions (collide_prob) leave faithfulness intact but make the full
    distortion infinite.  Returns a dict TreeVertex -> TreeVertex.
    """
    if L is None:
        L = rng.randint(3, 14)
    h0 = rng.randint(0, space.max_depth - 4 * L)
    root_bits = random_bits(rng, h0)
    return _nested_embedding(L, h0, root_bits, _random_descents(rng, L, collide_prob))


def b4_search(space, delta, trials=2000, seed=0, L=None):
    """Simulated annealing over nested faithful embeddings, minimizing dist.

    Moves rerandomize one edge's descent run (keeping the family, hence exact
    faithfulness).  Returns (best images, best dist, bound, holds) where
    (bound, holds) come from the rigidity check on the best map found.
    """
    rng = random.Random(seed)
    if L is None:
        L = rng.randint(3, 8)
    h0 = rng.randint(0, space.max_depth - 4 * L)
    root_bits = random_bits(rng, h0)
    descents = _random_descents(rng, L)
    cur = _nested_embedding(L, h0, root_bits, descents)
    cur_d = b4_distortion(space, cur)
    best, best_d = cur, cur_d
    verts = [v for v in enumerate_bn(4) if v.depth > 0]
    for step in range(trials):
        temp = max(1e-3, 1.0 - step / trials)
        v = rng.choice(verts)
        old = descents[v]
        trial = dict(descents)
        bits = random_bits(rng, L)
        sib = descents.get(TreeVertex(v.path[:-1] + (1 - v.path[-1],)))
        if sib is not None and bits[0] == sib[0]:
            bits = (1 - sib[0],) + bits[1:]
        trial[v] = bits
        cand = _nested_embedding(L, h0, root_bits, trial)
        cand_d = b4_distortion(space, cand)
        if cand_d <= cur_d or rng.random() < math.exp(-float(cand_d - cur_d) / temp):
            descents, cur, cur_d = trial, cand, cand_d
            if cur_d < best_d:
                best, best_d = cur, cur_d
    dist, bound, holds = b4_bound_check(space, lambda v: best[v], delta)
    check(dist == best_d, "rigidity check dist %s != search dist %s", dist, best_d)
    return best, best_d, bound, holds


def distortion_gap_experiment(space, s, n, seed=0, trials=500):
    """Compare the trivial upper bound with search evidence at depth budget n.

    The identity map of B_n into the contracted tree has distortion exactly
    max_{m <= n} 1/eps_m = s(n) (witnessed by deep siblings), while the
    rigidity bound floors the distortion of any faithful B_4 image.  Returns a
    dict with the upper bound, the best searched distortion, and the floor.
    """
    if n > 12:
        raise ValueError("n <= 12")
    upper = max(1 / space.eps[m] for m in range(1, n + 1))
    s_n = Fraction(s(n)).limit_denominator(10 ** 6)
    check(upper == s_n, "upper bound %s != s(%s) = %s", upper, n, s_n)
    L = max(1, n // 4)
    delta = Fraction(1, 512)
    best, best_d, bound, holds = b4_search(space, delta, trials=trials, seed=seed, L=L)
    return {
        "upper_bound": upper,
        "search_best_dist": best_d,
        "rigidity_floor": bound,
        "floor_holds": holds,
    }
