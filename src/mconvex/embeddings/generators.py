"""Randomized instance generators for the property harnesses.

Each generator uses exact rejection: a candidate shape is built from random
integer parameters and kept only if the defining inequalities (approximate
midpoint, fork, 3-path scale window, ...) hold exactly in rational
arithmetic.  This keeps every emitted instance a genuine member of the
hypothesis class, so classifier soundness is tested honestly.
"""
from __future__ import annotations

from fractions import Fraction

from ..metric import is_midpoint
from ..randbits import random_bits, random_depth_bits
from ..trees import ROOT, EpsilonSequence, HTreeSpace, aligned_paths, scaled_path_distance
from .classify import has_scale_window
from ..errors import OutOfRange

# small constant schedules: horizontal terms stay below the delta windows of
# the classifiers; all satisfy eps < 1/4, non-increasing, n*eps_n non-decreasing
MIDPOINT_EPS = [Fraction(1, 128), Fraction(1, 512), Fraction(1, 2048)]
FORK_EPS = [Fraction(1, 1024), Fraction(1, 2048), Fraction(1, 4096)]


_SPACES = {}


def make_space(eps_value, depth=40):
    """The space to `depth` under the constant schedule eps_value.

    One validated space per (eps_value, depth), shared by every caller: the
    generators ask for one of a few constant schedules once per candidate.
    A plain function, not functools.lru_cache, so that tracers which wrap
    module functions still see every call."""
    key = (eps_value, depth)
    space = _SPACES.get(key)
    if space is None:
        space = _SPACES[key] = HTreeSpace(EpsilonSequence([eps_value] * (depth + 1)), depth)
    return space


def random_valid_epsilon(rng, N):
    """A random valid schedule: eps_n = c / max(n, n0), scaled into (0, 1]."""
    style = rng.randrange(3)
    if style == 0:
        c = Fraction(rng.randint(1, 100), rng.randint(100, 4000))
        vals = [min(c, Fraction(1))] * (N + 1)
    elif style == 1:
        n0 = rng.randint(4, max(5, N))
        c = Fraction(rng.randint(1, n0))
        vals = [min(Fraction(1), c / max(n, n0)) for n in range(N + 1)]
    else:
        # piecewise: constant then 1/n decay from a random knee
        knee = rng.randint(2, max(3, N - 1))
        c = Fraction(1, rng.randint(4, 64))
        vals = [c if n <= knee else c * knee / n for n in range(N + 1)]
    return EpsilonSequence(vals)


def _rand_vertex(rng, k, top=ROOT):
    """The vertex k levels below `top` (the root by default) along k random
    bits."""
    return top.hang(random_bits(rng, k), k)


def _branch_off(rng, line, lca_depth, depth):
    """A depth-`depth` vertex whose lca with `line` has depth exactly lca_depth."""
    return _rand_vertex(rng, depth - lca_depth - 1, line.ancestor(lca_depth + 1).sibling())


def _exact_delta(delta):
    """delta as a Fraction.  Raises OutOfRange when delta < 0: no candidate
    of the generators' rejection loops would ever be accepted."""
    if delta < 0:
        raise OutOfRange(f"delta = {delta} < 0")
    return Fraction(delta)


def gen_midpoint(rng, delta, depth=40):
    """A random (space, x, y, z) with y an exact delta-approximate midpoint.

    Mixes path shapes (three points down one branch line), tent shapes (apex
    with two hanging prongs) and horizontal perturbations of either; the
    orientation is flipped half the time.
    """
    delta = _exact_delta(delta)
    while True:
        space = make_space(rng.choice(MIDPOINT_EPS), depth)
        M = rng.randint(3, (depth - 2) // 3)
        shape = rng.randrange(3)
        if shape == 0:
            # path: z above y above x down one line, z may branch off low
            h_z = rng.randint(0, depth - 2 * M - 1)
            x = _rand_vertex(rng, h_z + 2 * M + rng.choice((0, 0, 1)))
            y = x.ancestor(h_z + M)
            if h_z > 0 and rng.random() < 0.5:
                z = _branch_off(rng, x, rng.randint(0, h_z - 1), h_z)
            else:
                z = x.ancestor(h_z)
        elif shape == 1:
            # tent: apex at h_a, y hangs M below, z hangs ~2M below on the
            # other side of a branch point above the apex
            h_a = rng.randint(1, depth - 2 * M - 1)
            apex = _rand_vertex(rng, h_a)
            y = _rand_vertex(rng, M, apex)
            l = rng.randint(0, h_a - 1)
            z = _branch_off(rng, apex, l, h_a + 2 * M + rng.choice((-1, 0)))
            x = apex
        else:
            # perturbed path: y slides horizontally off the line
            h_z = rng.randint(1, depth - 2 * M - 1)
            x = _rand_vertex(rng, h_z + 2 * M)
            g = rng.randint(1, min(3, M - 1))
            y = _branch_off(rng, x, h_z + M - g, h_z + M)
            z = x.ancestor(h_z)
        if rng.random() < 0.5:
            x, z = z, x
        if x != z and is_midpoint(space, x, y, z, delta):
            return space, x, y, z


def gen_fork(rng, delta, depth=40):
    """A random (space, x, y, z, w): y an exact delta-midpoint of (x, z) and
    (x, w).  Families cover tents (type I), descending prong pairs
    (contracted), mixed chains (type III) and parallel-branch shapes, which
    classify as type II directly: both of their triples are near path-type.
    No family reaches type IV or the promotion to type II."""
    delta = _exact_delta(delta)
    while True:
        space = make_space(rng.choice(FORK_EPS), depth)
        M = rng.randint(3, (depth - 4) // 3)
        family = rng.randrange(4)
        if family == 0:
            # two tents off one apex
            h_a = rng.randint(2, depth - 3 * M - 1)
            x = _rand_vertex(rng, h_a)
            y = _rand_vertex(rng, M, x)
            l1 = rng.randint(0, h_a - 1)
            l2 = rng.randint(0, h_a - 1)
            z = _branch_off(rng, x, l1, h_a + 2 * M)
            w = _branch_off(rng, x, l2, h_a + 2 * M)
        elif family == 1:
            # both prongs descend below y
            h_x = rng.randint(0, depth - 3 * M - 1)
            x = _rand_vertex(rng, h_x)
            y = _rand_vertex(rng, M, x)
            z = _rand_vertex(rng, M - 1, y.child(0))
            w = _rand_vertex(rng, M - 1, y.child(1))
        elif family == 2:
            # chain x -> y -> z with a tent prong w off the apex
            h_a = rng.randint(1, depth - 3 * M - 1)
            x = _rand_vertex(rng, h_a)
            y = _rand_vertex(rng, M, x)
            z = _rand_vertex(rng, M, y)
            w = _branch_off(rng, x, rng.randint(0, h_a - 1), h_a + 2 * M)
        else:
            # parallel branches: w above y on one branch, z above x on the other
            l = rng.randint(0, depth - 3 * M - 3)
            c = l + 1 + rng.randrange(2)
            lineA = _rand_vertex(rng, c + 2 * M)
            w = lineA.ancestor(c)
            y = lineA.ancestor(c + M)
            lineB = _branch_off(rng, lineA, l, c + 2 * M)
            x = lineB
            z = lineB.ancestor(c)
        if z == w or x == z or x == w:
            continue
        if is_midpoint(space, x, y, z, delta) and is_midpoint(space, x, y, w, delta):
            return space, x, y, z, w


def gen_3path(rng, delta, depth=40):
    """A random (space, x0..x3) forming an exact (1+delta)-approximate 3-path."""
    delta = _exact_delta(delta)
    while True:
        space = make_space(rng.choice(FORK_EPS), depth)
        M = rng.randint(3, (depth - 2) // 3)
        h_top = rng.randint(0, depth - 3 * M - 1)
        line = _rand_vertex(rng, h_top + 3 * M)
        pts = [line, line.ancestor(h_top + 2 * M),
               line.ancestor(h_top + M), line.ancestor(h_top)]
        # horizontal wiggles: slide interior points slightly off the line
        for i in (1, 2):
            if rng.random() < 0.4:
                h = pts[i].depth
                g = rng.randint(1, 2)
                if h - g > h_top:
                    pts[i] = _branch_off(rng, line, h - g, h)
        if rng.random() < 0.5:
            pts.reverse()
        if has_scale_window(space, pts, delta):
            return (space, *pts)


# ---------------------------------------------------------------------------
# harness generators for the non-classifier suites
# ---------------------------------------------------------------------------

class RealLine:
    """Exact 1-D target for path maps (points are Fractions)."""

    @staticmethod
    def dist(a, b):
        return abs(a - b)


def gen_boost_path(rng, n=4 ** 6, frac2=None):
    """A map P_n -> R with unit and double steps, dist <= 2 by construction.

    The double-step fraction is drawn so the straightness T(f) = (1 + q)/2
    stays high enough that boosting is guaranteed to find a good grid.
    """
    from .paths import PathMap
    if frac2 is None:
        frac2 = rng.uniform(0.38, 0.5)
    n2 = round(frac2 * n)
    steps = [2] * n2 + [1] * (n - n2)
    rng.shuffle(steps)
    vals = [Fraction(0)]
    for s in steps:
        vals.append(vals[-1] + s)
    return PathMap(n, RealLine(), vals)


def random_chain(rng, max_states=10, horizon=8, dim=3, coord_range=8):
    """A random exact-rational chain plus a random integer-point map into R^dim.

    Rows are supported on 1-3 states with integer-weight probabilities; about
    a third of (time, state) rows are omitted (held fixed).
    """
    from ..markov import ChainSpec
    n = rng.randint(2, max_states)
    states = list(range(n))
    T = rng.randint(2, horizon)
    kernels = {}
    for t in range(1, T + 1):
        rows = {}
        for z in states:
            if rng.random() < 0.35:
                continue
            support = rng.sample(states, rng.randint(1, min(3, n)))
            weights = [rng.randint(1, 4) for _ in support]
            total = sum(weights)
            rows[z] = {x: Fraction(wgt, total) for x, wgt in zip(support, weights)}
        if rows:
            kernels[t] = rows
    initial = {rng.randrange(n): Fraction(1)}
    coords = {z: tuple(rng.randint(-coord_range, coord_range) for _ in range(dim))
              for z in states}
    chain = ChainSpec(states, 0, T, kernels, initial)
    return chain, coords.__getitem__


def htree_random_triple_violations(space, rng, count):
    """Triangle-inequality violations over random vertex triples (exact).

    The 3 count vertices are drawn by `random_depth_bits`, each a depth
    from 0..max_depth and that many path bits, from a fixed number of words,
    so that count triples are count one-triple draws; all triples (x, y, z)
    are compared at once on `scaled_path_distance`, on the path words of
    `aligned_paths`, and only the violating ones become TreeVertex objects,
    in draw order."""
    import numpy as np

    depths, bits = random_depth_bits(rng, space.max_depth, 3 * count)
    h, b = depths.reshape(-1, 3).T, bits.reshape(-1, 3).T
    w = aligned_paths(space, h, b)

    def sd(s, t):
        return scaled_path_distance(space, h[s], w[s], h[t], w[t])

    return [tuple(ROOT.hang(int(b[s, t]), int(h[s, t])) for s in range(3))
            for t in np.flatnonzero(sd(0, 2) > sd(0, 1) + sd(1, 2))]
