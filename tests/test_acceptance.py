"""End-to-end acceptance suite: the headline numerical claims of the library.

Each test pins one externally checkable statement at its stated tolerance.
Frozen rational values were produced by the exact DP on first verified runs
and act as regression fixtures.
"""
import math
import random
import time
import warnings
from fractions import Fraction

import pytest

from mconvex.banach import LpSpace, check_prop21, pconvexity_slacks, fork_slack
from mconvex.embeddings.classify import (b4_bound_check, b4_bound_checks, classify_3paths,
                                         classify_forks, classify_midpoints)
from mconvex.embeddings.generators import (gen_3path, gen_boost_path, gen_fork,
                                           gen_midpoint, make_space,
                                           htree_random_triple_violations,
                                           random_chain, random_valid_epsilon)
from mconvex.embeddings.paths import path_boost, path_distortion
from mconvex.embeddings.search import generate_faithful_b4, nested_b4_indices
from mconvex.errors import DegenerateChain
from mconvex.laakso import build_laakso
from mconvex.markov import (ChainSpec, bn_ratio, convexity_ratio, laakso_ratio,
                            laakso_ratios, laakso_walk, per_k_laakso_bound, rhs_step_sum)
from mconvex.quotients import QuotientMap, lift_chain, trajectory_chain, \
    transfer_check
from mconvex.metric import FiniteMetricSpace, PointMap, triangle_failures
from mconvex.trees import (EpsilonSequence, HTreeSpace, enumerate_bn, scaled_distance_matrix,
                           tree_metric_equality_violations)

# frozen Laakso convexity ratios at p = 2 (exact DP, first verified run).
# m = 5 is out of reach of the DP that composed every row and ran BFS per
# source; it was first computed by the support-restricted DP with label
# distances, whose provenance is its bit-for-bit agreement with that DP for
# m <= 4 (test_markov.py::test_laakso_dp_matches_frozen_full_dp).  m = 6 was
# first computed by that DP with Fraction distance powers (41 s, 463 MB) and
# agrees with the integer DP, whose full per_k lists match at m <= 5.  m = 7
# is from one run of the integer DP with the graph-size guard lifted (266 s,
# 1.4 GB).  m = 8 and 9 are past every DP and come from the branch-interval
# closed form alone, which equals the DP wherever both run (and the copy
# recursion of laakso_ratio equals it up to m = 9).
LAAKSO_RATIO_P2 = {
    1: Fraction(85, 128),
    2: Fraction(10427, 8192),
    3: Fraction(932193, 524288),
    4: Fraction(75007459, 33554432),
    5: Fraction(5745252521, 2147483648),
    6: Fraction(427374142971, 137438953472),
    7: Fraction(31155714793969, 8796093022208),
    8: Fraction(2237108750263763, 562949953421312),
    9: Fraction(158730567098921337, 36028797018963968),
}


# ------------------------------------------------------------------------- 1

def test_laakso_rhs_identity_exact():
    start = time.monotonic()
    for m in range(1, 5):
        G = build_laakso(m)
        for p in (2, 3):
            value = rhs_step_sum(laakso_walk(G), lambda v: v, G.as_metric_space(), p)
            assert value == Fraction(1, 4 ** (m * (p - 1)))
            assert isinstance(value, (int, Fraction))
    assert time.monotonic() - start < 30


# ------------------------------------------------------------------------- 2

@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_laakso_per_k_counting_bound(m, p):
    rep = laakso_ratio(m, p)
    violations = []
    for k in range(2 * m - 1):
        count, bound = per_k_laakso_bound(m, k, p)
        if rep.per_k[k] < bound:
            violations.append((k, rep.per_k[k], bound))
    assert violations == []


# ------------------------------------------------------------------------- 3

def test_laakso_ratio_growth_and_fixtures():
    ratios = {m: laakso_ratio(m, 2).ratio for m in range(1, 6)}
    assert ratios == {m: LAAKSO_RATIO_P2[m] for m in range(1, 6)}
    for m in range(1, 5):
        assert ratios[m + 1] > ratios[m]
    # ratio(m)/m bounded below by a positive constant (here 1/2 suffices)
    for m in range(2, 6):
        assert ratios[m] / m >= Fraction(1, 2)
    # the per-scale counting bound at m = 5, k = 0..2m-2
    per_k = laakso_ratio(5, 2).per_k
    violations = [k for k in range(2 * 5 - 1) if per_k[k] < per_k_laakso_bound(5, k, 2)[1]]
    assert violations == []


def test_laakso_ratio_frontier_m6():
    # the generic DP at the largest m it is built for: the oracle's own frontier
    G6 = build_laakso(6)
    rep = convexity_ratio(laakso_walk(G6), lambda v: v, G6.as_metric_space(), 2)
    assert rep.ratio == LAAKSO_RATIO_P2[6]
    assert rep.ratio > LAAKSO_RATIO_P2[5]
    assert rep.ratio / 6 >= Fraction(1, 2)
    violations = [k for k in range(2 * 6 - 1)
                  if rep.per_k[k] < per_k_laakso_bound(6, k, 2)[1]]
    assert violations == []


def test_laakso_ratio_closed_form_m6_to_m9():
    # ratio/m >= 1/2 above is this suite's empirical constant, not the paper's:
    # the ratio grows with slope about 0.432 from 0.66 at m = 1, and ratio/8
    # is about 0.4967.  Past m = 6 the check is what the paper proves: the
    # ratio keeps growing and every per-scale term meets the counting bound.
    for m in (6, 7, 8, 9):
        rep = laakso_ratio(m, 2)
        assert rep.ratio == LAAKSO_RATIO_P2[m]
        assert rep.ratio > LAAKSO_RATIO_P2[m - 1]
        violations = [k for k in range(2 * m - 1)
                      if rep.per_k[k] < per_k_laakso_bound(m, k, 2)[1]]
        assert violations == []


def test_laakso_ratio_frontier_m64():
    # the copy recursion past the interval sum's m = 9: the frozen ratios
    # again, growth at every level, and the slope ratio(m) - ratio(m - 1)
    # settling near the limit_denominator fits 71/156, 79/183 and 857/1518
    # (fits, not a derived limit); the values at m = 64 are pinned
    fits = {1: Fraction(71, 156), 2: Fraction(79, 183), 3: Fraction(857, 1518)}
    pinned = {1: 0.4551282051282051, 2: 0.43169398907103823, 3: 0.5645586297760211}
    for p, fit in fits.items():
        ratios = [rep.ratio for rep in laakso_ratios(64, p)]
        if p == 2:
            assert ratios[1:10] == [LAAKSO_RATIO_P2[m] for m in range(1, 10)]
        slopes = [b - a for a, b in zip(ratios[1:], ratios[2:])]
        assert all(s > 0 for s in slopes)
        assert abs(slopes[-1] - fit) < Fraction(1, 10 ** 15)
        assert float(slopes[-1]) == pinned[p]


# ------------------------------------------------------------------------- 4

def test_bn_walk_per_k_window_and_growth():
    p = 2
    n = 16
    rep = bn_ratio(n, p)
    lo = Fraction(2 ** (p - 1), 4)
    hi = 4 * 2 ** (p - 1)
    for k in range(int(math.log2(n) / 2) + 1):
        term = rep.per_k[k] / rep.rhs
        assert lo <= term <= hi, (k, term)
    r4, r8, r16 = (bn_ratio(n_, p).ratio for n_ in (4, 8, 16))
    assert r4 < r8 < r16


# ------------------------------------------------------------------------- 5

def triangle_count(mat):
    """Number of ordered triples (i, j, k) of a square numpy distance matrix
    with mat[i, k] > mat[i, j] + mat[j, k], summed from triangle_failures."""
    import numpy as np
    return sum(int(np.count_nonzero(bad)) for _, bad in triangle_failures(mat))


def test_htree_triangle_inequality_random_schedules():
    rng = random.Random(20240817)
    total_sampled = 100_000
    sequences = 20
    per_seq = total_sampled // sequences
    for _ in range(sequences):
        eps = random_valid_epsilon(rng, 64)
        mat = scaled_distance_matrix(HTreeSpace(eps, 8), enumerate_bn(8))
        # exhaustive depth-8 triangle check, integer arithmetic throughout
        assert triangle_count(mat) == 0
        space = HTreeSpace(eps, 64)
        assert htree_random_triple_violations(space, rng, per_seq) == []


def test_htree_eps_one_equals_tree_metric_depth_12():
    one = EpsilonSequence([Fraction(1)] * 13)
    assert tree_metric_equality_violations(one, 12) == 0


# ------------------------------------------------------------------------- 6

def test_parallelogram_identity_and_fork_slack():
    total = 0
    for d in (2, 8, 64):
        slacks = pconvexity_slacks(d, 2, 1.0, 100_000 // 3 + 1, seed=d)
        assert float(abs(slacks).max()) <= 1e-12
        total += len(slacks)
    assert total >= 100_000
    rng = random.Random(6)
    sp = LpSpace(4, 2)
    for _ in range(2000):
        pts = [tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                     for _ in range(4)) for _ in range(4)]
        assert fork_slack(*pts, sp, 1) >= -Fraction(1, 10 ** 9)


# ------------------------------------------------------------------------- 7

def test_chain_transfer_into_l2():
    rng = random.Random(7)
    sp = LpSpace(3, 2)
    checked = 0
    while checked < 100:
        chain, f = random_chain(rng)
        try:
            lhs, bound, holds = check_prop21(chain, f, sp, 1)
        except DegenerateChain:
            continue
        checked += 1
        assert holds, (lhs, bound)
        assert bound == 16 * (bound / 16)  # exact rational arithmetic end to end


# ------------------------------------------------------------------------- 8

def test_path_boost_100_of_100():
    start = time.monotonic()
    rng = random.Random(8)
    successes = 0
    for _ in range(100):
        f = gen_boost_path(rng, 4 ** 6)
        # monotone with steps in {1, 2}: every pair ratio lies in [1, 2], so
        # dist(f) <= 2 (checking all ~8M pairs directly is quadratic; the step
        # structure gives the same bound exactly)
        assert set(f.step_dists()) <= {1, 2}
        with warnings.catch_warnings():
            # the sufficient-length precondition for D = 2 is astronomically
            # large; boosting is expected to succeed anyway on these maps
            warnings.simplefilter("ignore")
            res = path_boost(f, 4, 0.5, D=2)
        assert res.warned
        # independent verification of the returned grid
        assert path_distortion(f.restrict(res.grid)) <= Fraction(3, 2)
        successes += 1
    assert successes == 100
    assert time.monotonic() - start < 10


# ------------------------------------------------------------------------- 9

def test_classifier_soundness_bulk():
    cases = [
        (gen_midpoint, classify_midpoints, Fraction(1, 32)),
        (gen_fork, classify_forks, Fraction(1, 128)),
        (gen_3path, classify_3paths, Fraction(1, 256)),
    ]
    for gen, classify, delta in cases:
        rng = random.Random(9)
        groups = {}
        for _ in range(10_000):
            sp, *pts = gen(rng, delta)
            groups.setdefault(sp, []).append(pts)
        counts = {}
        for sp, rows in groups.items():
            for variant in classify(sp, rows, delta).variants:
                counts[variant] = counts.get(variant, 0) + 1
        assert sum(counts.values()) == 10_000
        assert counts.get("Unclassified", 0) == 0, counts
        assert len(counts) >= 2, counts  # generators hit multiple variants


# ------------------------------------------------------------------------ 10

def test_b4_rigidity_floor_10k():
    delta = Fraction(1, 512)
    space = make_space(Fraction(1, 5), depth=60)
    rng = random.Random(10)
    violations = []
    for i in range(10_000):
        f = generate_faithful_b4(space, rng)
        dist, bound, holds = b4_bound_check(space, lambda v: f[v], delta)
        if not holds:
            violations.append((i, dist, bound, {str(k): str(v) for k, v in f.items()}))
    assert violations == [], violations[:3]


@pytest.mark.parametrize("s", [5, 8])
def test_b4_rigidity_floor_every_L_h0(s):
    # one collision-free nested map per (L, h0) with h0 + 4L <= 60 stands for
    # all nested maps (the distortion depends only on (L, h0, eps)): each has
    # distortion exactly s, and at delta = 1/4096 the floor
    # 1 / (500 delta + 1/s), 3.105 at s = 5 and 4.047 at s = 8, is above 1 and
    # holds
    space = make_space(Fraction(1, s), depth=60)
    rng = random.Random(s)
    rows = [nested_b4_indices(space, rng, L=L, collide_prob=0.0, h0=h0)
            for L in range(1, 16) for h0 in range(61 - 4 * L)]
    assert len(rows) == 435
    delta = Fraction(1, 4096)
    floor = 1 / (500 * delta + Fraction(1, s))
    assert floor > 3
    assert b4_bound_checks(space, rows, delta) == [(s, floor, True)] * len(rows)


# two decreasing schedules to depth 60: eps_n = 1/(5 + n), and 1/5 up to a
# knee at n = 16, then 16/(5n) (n eps_n grows, as validity asks, in both)
DECREASING = {"harmonic": [Fraction(1, 5 + n) for n in range(61)],
              "knee": [Fraction(1, 5) * min(1, Fraction(16, max(n, 1))) for n in range(61)]}


@pytest.mark.parametrize("name", sorted(DECREASING))
def test_b4_rigidity_floor_every_L_h0_decreasing(name):
    # as above, on schedules where eps_h0, and so the floor, moves with h0:
    # every (L, h0) map holds at delta = 1/4096, and each dist is the per-pair
    # oracle's
    from test_embeddings import _b4_scalar_loop

    space = HTreeSpace(EpsilonSequence(DECREASING[name]), 60)
    rng = random.Random(len(name))
    pairs = [(L, h0) for L in range(1, 16) for h0 in range(61 - 4 * L)]
    rows = [nested_b4_indices(space, rng, L=L, collide_prob=0.0, h0=h0) for L, h0 in pairs]
    delta = Fraction(1, 4096)
    checks = b4_bound_checks(space, rows, delta)
    assert [holds for _, _, holds in checks] == [True] * 435
    assert [dist for dist, _, _ in checks] == \
        [dist for dist, _, _ in _b4_scalar_loop(space, rows, delta)]
    assert [bound for _, bound, _ in checks] == \
        [1 / (500 * delta + space.eps[h0]) for _, h0 in pairs]


# ------------------------------------------------------------------------ 11

def _random_quotient_instance(rng):
    """A fold of P_{2n} onto P_n composed with a random relabeling."""
    n = rng.randint(2, 4)
    labels = list(range(n + 1))
    rng.shuffle(labels)
    src = FiniteMetricSpace(list(range(2 * n + 1)),
                            lambda a, b: Fraction(abs(a - b)))
    tgt = FiniteMetricSpace(labels,
                            lambda a, b: Fraction(abs(labels.index(a) - labels.index(b))))
    f = PointMap(src, tgt, {i: labels[abs(n - i)] for i in range(2 * n + 1)})
    q = QuotientMap(f, 1, 1)
    horizon = rng.randint(2, 5)
    kernels = {}
    half = Fraction(1, 2)
    for t in range(1, horizon + 1):
        kernels[t] = {y: ({labels[1]: Fraction(1)} if labels.index(y) == 0 else
                          {labels[n - 1]: Fraction(1)} if labels.index(y) == n else
                          {labels[labels.index(y) - 1]: half,
                           labels[labels.index(y) + 1]: half})
                      for y in labels}
    chain = ChainSpec(labels, 0, horizon, kernels,
                      {labels[rng.randint(0, n)]: Fraction(1)})
    return q, chain


def test_quotient_lifting_50_instances():
    rng = random.Random(11)
    for _ in range(50):
        q, chain = _random_quotient_instance(rng)
        lift = lift_chain(q, chain, lambda s: s)
        tchain = trajectory_chain(chain)
        for traj in tchain.states:
            u = lift(traj)
            assert q(u) == traj[-1]          # f o h* = g* exactly
            if len(traj) > 1:
                step = q.a * q.f.target.dist(traj[-2], traj[-1])
                assert q.f.source.dist(lift(traj[:-1]), u) <= step
        ratio_y, bound, holds = transfer_check(q, chain, lambda s: s, 2)
        assert holds, (ratio_y, bound)
