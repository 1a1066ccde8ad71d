import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mconvex.errors import DegenerateChain, OutOfRange, TooLarge
from mconvex.laakso import build_laakso
from mconvex.markov import (ChainSpec, bn_pair_expectation, bn_ratio,
                            convexity_ratio, default_k_max, downward_walk,
                            laakso_rhs_identity, laakso_time_set, laakso_walk,
                            pair_expectation, per_k_laakso_bound, rhs_step_sum)
from mconvex.metric import FiniteMetricSpace, rat_from_str
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


# per_k and rhs of the Laakso walk (identity map), computed by the DP that
# composed every row of each conditional law and found hop distances by BFS
LAAKSO_DP_FROZEN = {
    (1, 2): ("1/4", ["1/8", "1/32", "1/128", "1/512"]),
    (2, 2): ("1/16", ["5/128", "17/1024", "67/4096", "47/8192", "47/32768", "47/131072"]),
    (3, 2): ("1/64", ["21/2048", "77/16384", "327/65536", "1505/524288", "3321/1048576",
                      "2877/2097152", "2877/8388608", "2877/33554432"]),
    (4, 2): ("1/256", ["85/32768", "317/262144", "1367/1048576", "6773/8388608",
                       "16229/16777216", "88659/134217728", "199019/268435456",
                       "183415/536870912", "183415/2147483648", "183415/8589934592"]),
    (1, 3): ("1/16", ["1/16", "1/128", "1/1024", "1/8192"]),
    (2, 3): ("1/256", ["5/1024", "25/16384", "207/131072", "139/524288", "139/4194304",
                       "139/33554432"]),
    (3, 3): ("1/4096", ["21/65536", "117/1048576", "1027/8388608", "7205/134217728",
                        "37965/536870912", "33313/2147483648", "33313/17179869184",
                        "33313/137438953472"]),
    (4, 3): ("1/65536", ["85/4194304", "485/67108864", "4307/536870912",
                         "33801/8589934592", "188713/34359738368", "1610735/549755813888",
                         "8885991/2199023255552", "8490595/8796093022208",
                         "8490595/70368744177664", "8490595/562949953421312"]),
}


@pytest.mark.parametrize("m,p", sorted(LAAKSO_DP_FROZEN))
def test_laakso_dp_matches_frozen_full_dp(m, p):
    G = build_laakso(m)
    rep = convexity_ratio(laakso_walk(G), lambda v: v, G.as_metric_space(), p)
    rhs, per_k = LAAKSO_DP_FROZEN[m, p]
    assert rep.rhs == rat_from_str(rhs)
    assert rep.per_k == [rat_from_str(x) for x in per_k]
    assert all(type(x) is Fraction for x in rep.per_k + [rep.rhs])


# ---------------------------------------------------------------------------
# brute-force oracle for the whole functional: enumerate full trajectories
# ---------------------------------------------------------------------------

def trajectories(chain):
    """[(path, prob)] with path[i] = X_{t_min + i}; rows left out hold fixed."""
    paths = [((z,), pz) for z, pz in chain.initial.items() if pz]
    for t in range(chain.t_min + 1, chain.t_max + 1):
        kernel = chain.kernels.get(t, {})
        paths = [(path + (x,), pr * px) for path, pr in paths
                 for x, px in kernel.get(path[-1], {path[-1]: Fraction(1)}).items()
                 if px]
    return paths


def oracle_convexity(chain, f, space, p, k_max):
    """(per_k, rhs) by summing over pairs of trajectories that share a prefix."""
    paths = trajectories(chain)

    def at(path, t):
        return path[min(max(t, chain.t_min), chain.t_max) - chain.t_min]

    def dp(a, b):
        return Fraction(space.dist(f(a), f(b))) ** p

    rhs = sum(pr * dp(at(path, t - 1), at(path, t))
              for path, pr in paths for t in range(chain.t_min + 1, chain.t_max + 1))
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        total = Fraction(0)
        for t in range(chain.t_min - 1, chain.t_max + gap + 2):
            s = t - gap
            cut = min(max(s, chain.t_min), chain.t_max) - chain.t_min + 1
            groups = {}
            for path, pr in paths:
                groups.setdefault(path[:cut], []).append((path, pr))
            for group in groups.values():
                mass = sum(pr for _, pr in group)
                for a, pa in group:
                    for b, pb in group:
                        total += pa * pb / mass * dp(at(a, t), at(b, t))
        per_k.append(total / Fraction(2) ** (k * p))
    return per_k, rhs


@st.composite
def small_chains(draw):
    """Chains whose laws are not level-synchronous: a spread initial law,
    rows left out (held fixed) and rows for states the chain never visits."""
    n = draw(st.integers(2, 5))
    states = list(range(n))
    t_min = draw(st.integers(-1, 1))
    t_max = t_min + draw(st.integers(1, 5))
    weight = st.integers(1, 3)

    def law(support):
        weights = [draw(weight) for _ in support]
        return {x: Fraction(w, sum(weights)) for x, w in zip(support, weights)}

    def support():
        return draw(st.lists(st.sampled_from(states), min_size=1, max_size=3, unique=True))

    kernels = {}
    for t in range(t_min + 1, t_max + 1):
        rows = {z: law(support()) for z in states if draw(st.booleans())}
        if rows:
            kernels[t] = rows
    coords = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=n, max_size=n))
    return ChainSpec(states, t_min, t_max, kernels, law(support())), coords.__getitem__


@settings(max_examples=60, deadline=None)
@given(small_chains(), st.sampled_from([1, 2, 3]))
def test_convexity_ratio_matches_trajectory_enumeration(chain_and_map, p):
    chain, f = chain_and_map
    space = l1_space({z: f(z) for z in chain.states})
    k_max = default_k_max(chain)
    per_k, rhs = oracle_convexity(chain, f, space, p, k_max)
    if rhs == 0:
        with pytest.raises(DegenerateChain) as exc:
            convexity_ratio(chain, f, space, p, k_max=k_max)
        assert exc.value.report.per_k == per_k
        return
    rep = convexity_ratio(chain, f, space, p, k_max=k_max)
    assert rep.rhs == rhs
    assert rep.per_k == per_k
    assert rep.ratio == sum(per_k) / rhs


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
