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
from mconvex.embeddings.classify import (b4_bound_check, classify_3path,
                                         classify_fork, classify_midpoint)
from mconvex.embeddings.generators import (gen_3path, gen_boost_path, gen_fork,
                                           gen_midpoint, make_space,
                                           htree_random_triple_violations,
                                           random_chain, random_valid_epsilon)
from mconvex.embeddings.paths import path_boost, path_distortion
from mconvex.embeddings.search import generate_faithful_b4
from mconvex.errors import DegenerateChain
from mconvex.laakso import build_laakso
from mconvex.markov import (ChainSpec, bn_ratio, convexity_ratio,
                            laakso_rhs_identity, laakso_walk,
                            per_k_laakso_bound)
from mconvex.quotients import QuotientMap, lift_chain, trajectory_chain, \
    transfer_check
from mconvex.metric import FiniteMetricSpace, PointMap
from mconvex.trees import (EpsilonSequence, HTreeSpace, scaled_distance_matrix,
                           tree_metric_equality_violations, triangle_violations)

# frozen Laakso convexity ratios at p = 2 (exact DP, first verified run).
# m = 5 is out of reach of the DP that composed every row and ran BFS per
# source; it was first computed by the support-restricted DP with label
# distances, whose provenance is its bit-for-bit agreement with that DP for
# m <= 4 (test_markov.py::test_laakso_dp_matches_frozen_full_dp).
LAAKSO_RATIO_P2 = {
    1: Fraction(85, 128),
    2: Fraction(10427, 8192),
    3: Fraction(932193, 524288),
    4: Fraction(75007459, 33554432),
    5: Fraction(5745252521, 2147483648),
}


def _laakso_report(m, p, _cache={}):
    if (m, p) not in _cache:
        G = build_laakso(m)
        _cache[(m, p)] = convexity_ratio(laakso_walk(G), lambda v: v,
                                         G.as_metric_space(), p)
    return _cache[(m, p)]


# ------------------------------------------------------------------------- 1

def test_laakso_rhs_identity_exact():
    start = time.monotonic()
    for m in range(1, 5):
        G = build_laakso(m)
        for p in (2, 3):
            value = laakso_rhs_identity(G, p)
            assert value == Fraction(1, 4 ** (m * (p - 1)))
            assert isinstance(value, (int, Fraction))
    assert time.monotonic() - start < 30


# ------------------------------------------------------------------------- 2

@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_laakso_per_k_counting_bound(m, p):
    G = build_laakso(m)
    rep = _laakso_report(m, p)
    violations = []
    for k in range(2 * m - 1):
        count, bound = per_k_laakso_bound(G, k, p)
        if rep.per_k[k] < bound:
            violations.append((k, rep.per_k[k], bound))
    assert violations == []


# ------------------------------------------------------------------------- 3

def test_laakso_ratio_growth_and_fixtures():
    ratios = {m: _laakso_report(m, 2).ratio for m in range(1, 6)}
    assert ratios == LAAKSO_RATIO_P2
    for m in range(1, 5):
        assert ratios[m + 1] > ratios[m]
    # ratio(m)/m bounded below by a positive constant (here 1/2 suffices)
    for m in range(2, 6):
        assert ratios[m] / m >= Fraction(1, 2)
    # the per-scale counting bound at the frontier, k = 0..2m-2
    G5 = build_laakso(5)
    per_k = _laakso_report(5, 2).per_k
    violations = [k for k in range(2 * 5 - 1) if per_k[k] < per_k_laakso_bound(G5, k, 2)[1]]
    assert violations == []


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

def test_htree_triangle_inequality_random_schedules():
    rng = random.Random(20240817)
    total_sampled = 100_000
    sequences = 20
    per_seq = total_sampled // sequences
    for _ in range(sequences):
        eps = random_valid_epsilon(rng, 64)
        mat, _ = scaled_distance_matrix(eps, 8)
        # exhaustive depth-8 triangle check, integer arithmetic throughout
        assert triangle_violations(mat) == 0
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
        (gen_midpoint, classify_midpoint, Fraction(1, 32)),
        (gen_fork, classify_fork, Fraction(1, 128)),
        (gen_3path, classify_3path, Fraction(1, 256)),
    ]
    for gen, classify, delta in cases:
        rng = random.Random(9)
        counts = {}
        for _ in range(10_000):
            sp, *pts = gen(rng, delta)
            out = classify(sp, *pts, delta)
            counts[out.variant] = counts.get(out.variant, 0) + 1
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
