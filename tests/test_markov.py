import itertools
import random
from fractions import Fraction

import pytest

from mconvex.errors import DegenerateChain, OutOfRange, TooLarge
from mconvex.laakso import build_laakso
from mconvex.markov import (ChainSpec, bn_pair_expectation, bn_ratio,
                            convexity_ratio, default_k_max, downward_walk,
                            laakso_rhs_identity, laakso_time_set, laakso_walk,
                            pair_expectation, per_k_laakso_bound, rhs_step_sum)
from mconvex.metric import FiniteMetricSpace
from mconvex.trees import enumerate_bn, tree_distance
from mconvex.embeddings.generators import random_chain


def l1_space(coords):
    pts = sorted(set(coords.values()))
    return FiniteMetricSpace(pts, lambda a, b: sum(abs(u - v) for u, v in zip(a, b)))


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate trajectories of the chain and of the forked
# copy directly from the step kernels
# ---------------------------------------------------------------------------

def conditional_law(chain, z, s, t):
    """P(X_t = . | X_s = z) by direct kernel products."""
    law = {z: Fraction(1)}
    for t_ in range(s + 1, t + 1):
        kernel = chain.step_kernel(t_) or {}
        nxt = {}
        for state, p in law.items():
            row = kernel.get(state, {state: Fraction(1)})
            for x, px in row.items():
                nxt[x] = nxt.get(x, Fraction(0)) + p * px
        law = nxt
    return law


def oracle_pair_expectation(chain, f, space, t, s, p):
    if s >= t:
        return 0
    total = Fraction(0)
    for z, pz in chain.law(s).items():
        cond = conditional_law(chain, z, s, t)
        for x, px in cond.items():
            for y, py in cond.items():
                total += pz * px * py * space.dist(f(x), f(y)) ** p
    return total


def test_pair_expectation_matches_oracle():
    rng = random.Random(7)
    for _ in range(25):
        chain, f = random_chain(rng, max_states=6, horizon=6)
        space = l1_space({z: f(z) for z in chain.states})
        for _ in range(4):
            t = rng.randint(1, chain.t_max)
            s = rng.randint(-2, t)
            assert pair_expectation(chain, f, space, t, s, 2) == \
                oracle_pair_expectation(chain, f, space, t, s, 2)


def test_pair_expectation_zero_for_future_fork():
    rng = random.Random(1)
    chain, f = random_chain(rng, max_states=4, horizon=4)
    space = l1_space({z: f(z) for z in chain.states})
    assert pair_expectation(chain, f, space, 2, 2, 2) == 0
    assert pair_expectation(chain, f, space, 2, 5, 2) == 0


def test_rhs_step_sum_matches_oracle():
    rng = random.Random(3)
    for _ in range(15):
        chain, f = random_chain(rng, max_states=6, horizon=6)
        space = l1_space({z: f(z) for z in chain.states})
        total = Fraction(0)
        for t in range(1, chain.t_max + 1):
            mu = chain.law(t - 1)
            kernel = chain.step_kernel(t) or {}
            for z, pz in mu.items():
                for x, px in kernel.get(z, {z: Fraction(1)}).items():
                    total += pz * px * space.dist(f(z), f(x)) ** 2
        assert rhs_step_sum(chain, f, space, 2) == total


def test_law_with_held_fixed_rows():
    chain = ChainSpec([0, 1], 0, 2,
                      {1: {0: {0: Fraction(1, 2), 1: Fraction(1, 2)}}},
                      {0: Fraction(1)})
    # state 1 has no row at time 2, so it holds; state 0 has no row either
    assert chain.law(1) == {0: Fraction(1, 2), 1: Fraction(1, 2)}
    assert chain.law(2) == chain.law(1)
    assert chain.law(10) == chain.law(1)  # constant extension past horizon


def test_chain_spec_rejects_negative_or_unknown_mass():
    with pytest.raises(ValueError, match="negative"):
        ChainSpec([0, 1], 0, 2, {2: {0: {0: Fraction(3, 2), 1: Fraction(-1, 2)}}},
                  {0: Fraction(1)})
    with pytest.raises(ValueError):
        # once accepted: law(2) was {0: 3/2, 7: -1/2}
        ChainSpec([0, 1], 0, 2, {2: {0: {0: Fraction(3, 2), 7: Fraction(-1, 2)}}},
                  {0: Fraction(1)})
    with pytest.raises(ValueError, match="unknown state"):
        ChainSpec([0, 1], 0, 2, {2: {0: {7: Fraction(1)}}}, {0: Fraction(1)})
    with pytest.raises(ValueError, match="unknown state"):
        ChainSpec([0, 1], 0, 2, {}, {5: Fraction(1)})
    with pytest.raises(ValueError, match="negative"):
        ChainSpec([0, 1], 0, 2, {}, {0: Fraction(2), 1: Fraction(-1)})


def test_bn_ratio_matches_generic_dp():
    for n in (3, 4, 5):
        chain = downward_walk(n)
        space = FiniteMetricSpace(enumerate_bn(n), tree_distance)
        k_max = default_k_max(chain)
        rep = convexity_ratio(chain, lambda v: v, space, 2, k_max=k_max)
        closed = bn_ratio(n, 2, k_max=k_max)
        assert closed.per_k == rep.per_k
        assert closed.rhs == rep.rhs
        assert closed.ratio == rep.ratio


def test_bn_pair_expectation_oracle_small():
    n = 4
    chain = downward_walk(n)
    space = FiniteMetricSpace(enumerate_bn(n), tree_distance)
    for t in range(1, n + 3):
        for s in range(-2, t):
            assert bn_pair_expectation(n, t, s, 2) == \
                pair_expectation(chain, lambda v: v, space, t, s, 2)


def test_bn_ratio_rejects_bad_n():
    with pytest.raises(OutOfRange):
        bn_ratio(0, 2)


def test_downward_walk_guard():
    with pytest.raises(TooLarge):
        downward_walk(64)


def test_laakso_rhs_identity_small():
    for m in (1, 2):
        G = build_laakso(m)
        assert laakso_rhs_identity(G, 2) == Fraction(1, 4 ** m)
        chain = laakso_walk(G)
        assert rhs_step_sum(chain, lambda v: v, G.as_metric_space(), 2) == \
            Fraction(1, 4 ** m)


def test_laakso_time_set_interval_formula():
    # brute-force the union of intervals [(4i+1)4^h + 4^(h-2), (4i+1)4^h + 2*4^(h-2)]
    for m in (1, 2, 3, 4):
        for k in range(2 * m - 1):
            h = (k + 1) // 2
            brute = 0
            for t in range(4 ** m):
                ok = False
                for i in range(4 ** (m - h - 1) + 2):
                    base = (4 * i + 1) * 4 ** h
                    if base + Fraction(4 ** h, 16) <= t <= base + Fraction(4 ** h, 8):
                        ok = True
                brute += ok
            assert laakso_time_set(m, k) == brute
    # intervals shorter than 1 hold no integers: zero is correct for h <= 1
    assert laakso_time_set(2, 2) == 0
    assert laakso_time_set(3, 4) == 2


def test_per_k_bound_consistency():
    G = build_laakso(2)
    chain = laakso_walk(G)
    rep = convexity_ratio(chain, lambda v: v, G.as_metric_space(), 2)
    for k in range(2 * G.m - 1):
        count, bound = per_k_laakso_bound(G, k, 2)
        assert rep.per_k[k] >= bound


def test_degenerate_chain_raises_with_report():
    # all states mapped to one point: RHS = 0
    chain = downward_walk(2)
    space = FiniteMetricSpace([0], lambda a, b: Fraction(0))
    with pytest.raises(DegenerateChain) as exc:
        convexity_ratio(chain, lambda v: 0, space, 2)
    assert exc.value.report.rhs == 0


def test_report_serialization():
    rep = bn_ratio(4, 2)
    d = rep.to_dict()
    assert d["p"] == 2
    assert "ratio" in d and "per_k" in d
    csv = rep.to_csv()
    assert csv.splitlines()[0].startswith("k,")
    rep.to_json()
