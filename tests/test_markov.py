import itertools
import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mconvex import markov
from mconvex.banach import LpSpace
from mconvex.errors import DegenerateChain, OutOfRange, TooLarge
from mconvex.laakso import build_laakso
from mconvex.markov import (INTERVAL_LIMIT, RATIO_LIMIT, ChainSpec, ConvexityReport,
                            _check_p, _k_max, _report, bn_ratio, convexity_ratio,
                            default_k_max, downward_walk, laakso_ratio, laakso_ratios,
                            laakso_time_set, laakso_walk, pair_expectation,
                            per_k_laakso_bound, rhs_step_sum)
from mconvex.metric import FiniteMetricSpace, is_integral, rat_from_str
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


def _shifted(chain, offset):
    """The chain with every time moved by `offset`."""
    return ChainSpec(chain.states, chain.t_min + offset, chain.t_max + offset,
                     {t + offset: chain.step_kernel(t) for t in chain._steps}, chain.initial)


def test_boundary_summands_vanish():
    # convexity_ratio sums the fork terms over t_min < t < t_max + 2^k only.
    # The terms just outside, at (t, s) = (t_min, t_min - 2^k) and
    # (t_max + 2^k, t_max), are 0 by pair_expectation and by the kernel
    # products of the oracle, for every summed scale; the terms just inside
    # are not all 0
    rng = random.Random(29)
    cases = []
    for i in range(16):
        chain, f = random_chain(rng, max_states=6, horizon=6)
        if i % 2:
            chain = _shifted(chain, rng.choice((-3, -1, 2, 5)))
        cases.append((chain, f, l1_space({z: f(z) for z in chain.states})))
    verts = enumerate_bn(3)
    cases.append((downward_walk(3), lambda v: v, FiniteMetricSpace(verts, tree_distance)))
    assert any(chain.t_min != 0 for chain, _, _ in cases)
    inside = 0
    for chain, f, space in cases:
        for k in range(default_k_max(chain) + 1):
            gap = 2 ** k
            for p in (1, 2, 1.5):
                for t, s in ((chain.t_min, chain.t_min - gap), (chain.t_max + gap, chain.t_max)):
                    assert pair_expectation(chain, f, space, t, s, p) == 0, (k, t, s, p)
                    assert oracle_pair_expectation(chain, f, space, t, s, p) == 0
                inside += any(pair_expectation(chain, f, space, t, t - gap, p)
                              for t in (chain.t_min + 1, chain.t_max + gap - 1))
    assert inside > 0


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


def test_chain_spec_rejects_inexact_probabilities():
    # once accepted, after which convexity_ratio died on the float's missing
    # denominator; a bool is an int, but no probability
    with pytest.raises(ValueError, match=r"kernel row at time 1, state 0 gives inexact "
                                         r"probability 0\.5 to 1"):
        ChainSpec([0, 1], 0, 1, {1: {0: {1: 0.5, 0: 0.5}}}, {0: 1})
    with pytest.raises(ValueError, match="initial law gives inexact probability 1.0"):
        ChainSpec([0, 1], 0, 1, {}, {0: 1.0})
    with pytest.raises(ValueError, match="initial law gives inexact probability True"):
        ChainSpec([0, 1], 0, 1, {}, {0: True})
    chain = ChainSpec([0, 1], 0, 1, {1: {0: {1: Fraction(1, 2), 0: Fraction(1, 2)}}}, {0: 1})
    assert chain.law(1) == {1: Fraction(1, 2), 0: Fraction(1, 2)}
    assert chain.int_law(1) == (2, {1: 1, 0: 1})


def test_bn_ratio_matches_generic_dp():
    for n in (3, 4, 5):
        chain = downward_walk(n)
        space = FiniteMetricSpace(enumerate_bn(n), tree_distance)
        rep = convexity_ratio(chain, lambda v: v, space, 2)
        closed = bn_ratio(n, 2)
        assert closed.per_k == rep.per_k
        assert closed.rhs == rep.rhs
        assert closed.ratio == rep.ratio


# ---------------------------------------------------------------------------
# the per-(t, s) Fraction loop that bn_ratio ran before the branch-interval
# kernel, kept as its oracle
# ---------------------------------------------------------------------------

def bn_pair_expectation(n, t, s, p):
    """E[d(X_t, X~_t(s))^p] for the downward walk on B_n (identity map).

    Uses the level symmetry of the tree: conditioned on X_s, the two copies
    follow independent child choices, so the lca level is s + j with
    probability 2^-(j+1), and the distance is 2 (min(t,n) - s - j).
    """
    if s >= t:
        return 0
    s = max(s, 0)
    g = min(t, n) - s
    if g <= 0:
        return 0
    exact = is_integral(p)
    total = 0
    for j in range(g):
        d = 2 * (g - j)
        dp = Fraction(d) ** int(p) if exact else float(d) ** p
        total += dp / Fraction(2) ** (j + 1) if exact else dp * 2.0 ** -(j + 1)
    return total


def _bn_ratio_reference(n, p, k_max=None):
    """ConvexityReport of the downward walk on B_n (identity map), closed form."""
    if n < 1:
        raise OutOfRange(f"n = {n} < 1")
    _check_p(p)
    if k_max is None:
        k_max = _k_max(n)
    exact = is_integral(p)
    rhs = n * (Fraction(1) if exact else 1.0)  # unit steps
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        total = 0
        for t in range(1, n + gap):
            total += bn_pair_expectation(n, t, t - gap, p)
        scale = Fraction(2) ** (k * int(p)) if exact else 2.0 ** (k * p)
        per_k.append(total / scale)
    return _report(p, per_k, rhs)


def test_bn_pair_expectation_oracle_small():
    n = 4
    chain = downward_walk(n)
    space = FiniteMetricSpace(enumerate_bn(n), tree_distance)
    for t in range(1, n + 3):
        for s in range(-2, t):
            assert bn_pair_expectation(n, t, s, 2) == \
                pair_expectation(chain, lambda v: v, space, t, s, 2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_bn_ratio_matches_fraction_loop(p):
    # every field, in value and type
    for n in range(1, 65):
        assert same_report(bn_ratio(n, p), _bn_ratio_reference(n, p)), n


def test_bn_ratio_non_integer_p_close_to_fraction_loop():
    # floats are summed in another order than the loop's, so equal up to rounding
    for n in range(1, 65):
        closed, ref = bn_ratio(n, 2.5), _bn_ratio_reference(n, 2.5)
        assert len(closed.per_k) == len(ref.per_k)
        for a, b in zip(closed.per_k + [closed.lhs_total, closed.rhs, closed.ratio,
                                        closed.pi_lower],
                        ref.per_k + [ref.lhs_total, ref.rhs, ref.ratio, ref.pi_lower]):
            assert type(a) is type(b) and math.isclose(a, b, rel_tol=1e-12), n


def test_bn_ratio_rejects_bad_n():
    with pytest.raises(OutOfRange):
        bn_ratio(0, 2)


@pytest.mark.parametrize("p", [0, -1])
def test_ratios_reject_p_below_one(p):
    chain = downward_walk(2)
    space = FiniteMetricSpace(enumerate_bn(2), tree_distance)
    with pytest.raises(OutOfRange):
        convexity_ratio(chain, lambda v: v, space, p)
    with pytest.raises(OutOfRange):
        bn_ratio(4, p)
    with pytest.raises(OutOfRange):
        laakso_ratio(2, p)


def test_downward_walk_guard():
    with pytest.raises(TooLarge):
        downward_walk(64)


def test_laakso_rhs_identity_small():
    for m in (1, 2):
        G = build_laakso(m)
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
        count, bound = per_k_laakso_bound(G.m, k, 2)
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
    # m = 5 from the DP with Fraction distance powers and unreduced laws
    (5, 2): ("1/1024", ["341/524288", "1277/4194304", "5527/16777216", "27845/134217728",
                        "67861/268435456", "397263/2147483648", "972079/4294967296",
                        "5576185/34359738368", "12534337/68719476736",
                        "11735141/137438953472", "11735141/549755813888",
                        "11735141/2199023255552"]),
    (5, 3): ("1/1048576", ["341/268435456", "1957/4294967296", "17427/34359738368",
                           "140185/549755813888", "791705/2199023255552",
                           "7520667/35184372088832", "44163451/140737488355328",
                           "399742925/2251799813685248", "2223727797/9007199254740992",
                           "2172988201/36028797018963968", "2172988201/288230376151711744",
                           "2172988201/2305843009213693952"]),
}


def _laakso_dp(m, p, _cache={}):
    """The generic DP's report on the Laakso walk, once per (m, p)."""
    if (m, p) not in _cache:
        G = build_laakso(m)
        _cache[m, p] = convexity_ratio(laakso_walk(G), lambda v: v, G.as_metric_space(), p)
    return _cache[m, p]


@pytest.mark.parametrize("m,p", sorted(LAAKSO_DP_FROZEN))
def test_laakso_dp_matches_frozen_full_dp(m, p):
    rhs, per_k = LAAKSO_DP_FROZEN[m, p]
    for rep in (_laakso_dp(m, p), laakso_ratio(m, p)):
        assert rep.rhs == rat_from_str(rhs)
        assert rep.per_k == [rat_from_str(x) for x in per_k]
        assert all(type(x) is Fraction for x in rep.per_k + [rep.rhs])


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", range(6))
def test_laakso_ratio_matches_dp(m, p):
    # every field, in value and type; at m = 0 the per_k are the int 0, as
    # the DP's are
    assert same_report(laakso_ratio(m, p), _laakso_dp(m, p))


@pytest.mark.parametrize("m", range(4))
def test_laakso_ratio_non_integer_p_close_to_dp(m):
    # floats are summed in another order than the DP's, so equal up to rounding
    closed, dp = laakso_ratio(m, 2.5), _laakso_dp(m, 2.5)
    assert type(closed.ratio) is type(dp.ratio)
    assert len(closed.per_k) == len(dp.per_k)
    for a, b in zip(closed.per_k + [closed.rhs, closed.ratio, closed.pi_lower],
                    dp.per_k + [dp.rhs, dp.ratio, dp.pi_lower]):
        assert math.isclose(a, b, rel_tol=1e-12)


def test_laakso_ratio_guards():
    # m past RATIO_LIMIT is refused before any work, and past INTERVAL_LIMIT
    # for a p that is not integral
    with pytest.raises(TooLarge):
        laakso_ratio(RATIO_LIMIT + 1, 2)
    assert laakso_ratio(INTERVAL_LIMIT, 2.5).ratio > 0
    for p in (Fraction(5, 2), 2.5):
        for run in (laakso_ratio, laakso_ratios):
            with pytest.raises(TooLarge):
                run(INTERVAL_LIMIT + 1, p)
    for run in (laakso_ratio, laakso_ratios):
        with pytest.raises(TooLarge):
            run(RATIO_LIMIT + 1, 3)
        with pytest.raises(OutOfRange):
            run(-1, 2)
        with pytest.raises(OutOfRange):
            run(3, 0)


def test_laakso_ratios_entries_are_laakso_ratio():
    # one pass gives every level: entry m is laakso_ratio(m, p)
    for p in (1, 2, 3, 2.0, 2.5):
        table = laakso_ratios(6, p)
        assert len(table) == 7
        for m, rep in enumerate(table):
            assert rep.to_dict() == laakso_ratio(m, p).to_dict()
            assert same_report(rep, laakso_ratio(m, p))


@pytest.mark.parametrize("p", [1, 2, 3, 4, 2.0])
def test_laakso_copy_recursion_matches_interval_kernel(p):
    # the branch-interval sum is the recursion's oracle, in value and type,
    # up to INTERVAL_LIMIT
    table = laakso_ratios(INTERVAL_LIMIT, p)
    for m in range(INTERVAL_LIMIT + 1):
        old = markov._laakso_interval_ratio(m, p)
        assert table[m].to_dict() == old.to_dict()
        assert same_report(table[m], old) and table[m].p == old.p
    # the float path is the interval kernel itself
    assert [rep.to_dict() for rep in laakso_ratios(5, p + 0.5)] == \
        [markov._laakso_interval_ratio(m, p + 0.5).to_dict() for m in range(6)]


def _old_faulhaber(q):
    """markov._faulhaber before the tangent numbers, verbatim: the Bernoulli
    numbers by the O(q^2) Fraction recurrence."""
    bern = [Fraction(1)]
    for n in range(1, q + 1):
        bern.append(-sum(math.comb(n + 1, i) * bern[i] for i in range(n)) / (n + 1))
    bern[1] = -bern[1]
    coef = [math.comb(q + 1, i) * b / (q + 1) for i, b in enumerate(bern)]
    den = math.lcm(*(c.denominator for c in coef))
    return [c.numerator * (den // c.denominator) for c in coef], den


def test_faulhaber_matches_the_fraction_recurrence():
    assert markov._tangent_numbers(6) == [1, 2, 16, 272, 7936, 353792]
    for q in range(1, 61):
        assert markov._faulhaber(q) == _old_faulhaber(q), q
    # the Fraction recurrence takes some 9 s at q = 1000
    start = time.perf_counter()
    coef, den = markov._faulhaber.__wrapped__(1000)
    assert time.perf_counter() - start < 1
    n = 7
    assert n * sum(c * n ** (1000 - i) for i, c in enumerate(coef)) == \
        den * sum(u ** 1000 for u in range(1, n + 1))


def test_even_power_sum_matches_direct_sums():
    # the direct sum up to n = q^2, Faulhaber's formula past it
    for q in range(1, 12):
        for n in [*range(20), *range(max(q * q - 5, 20), q * q + 40)]:
            assert markov._even_power_sum(n, q) == sum((2 * u) ** q for u in range(1, n + 1))
    n = 4 ** 20 + 3
    assert markov._even_power_sum(n, 3) == 2 * n ** 2 * (n + 1) ** 2


@pytest.mark.parametrize("p", [2, 3])
def test_laakso_ratio_meets_counting_bound_past_the_intervals(p):
    # the proof's certificate past m = 9: every per-scale term meets the
    # counting bound, and the ratio keeps growing
    table = laakso_ratios(64, p)
    for m in (10, 16, 64):
        rep = table[m]
        violations = [k for k in range(2 * m - 1)
                      if rep.per_k[k] < per_k_laakso_bound(m, k, p)[1]]
        assert violations == [] and rep.ratio > table[m - 1].ratio
        assert all(type(x) is Fraction for x in rep.per_k + [rep.rhs, rep.ratio])


# ---------------------------------------------------------------------------
# brute-force oracle for the whole functional: enumerate full trajectories
# ---------------------------------------------------------------------------

def trajectories(chain):
    """[(path, prob)] with path[i] = X_{t_min + i}; rows left out hold fixed."""
    paths = [((z,), pz) for z, pz in chain.initial.items() if pz]
    for t in range(chain.t_min + 1, chain.t_max + 1):
        kernel = chain.step_kernel(t) or {}
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


# ---------------------------------------------------------------------------
# the integer-distance path, reduced laws and the two-level cache against
# the paths they replace
# ---------------------------------------------------------------------------

def same(a, b):
    """Equal in value and in type; floats equal bit for bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def same_report(a, b):
    return (len(a.per_k) == len(b.per_k) and all(map(same, a.per_k, b.per_k))
            and same(a.rhs, b.rhs) and same(a.lhs_total, b.lhs_total)
            and same(a.ratio, b.ratio) and same(a.pi_lower, b.pi_lower))


@pytest.mark.parametrize("p", [1, 2, 3, 2.0, 1.5])
def test_integer_distance_path_matches_dist_pow_path(p):
    # the Laakso space gives hop counts over 4^m; the same distances as a plain
    # space run through dist_pow (Fractions, or floats for p = 1.5)
    for m in (1, 2, 3):
        G = build_laakso(m)
        chain = laakso_walk(G)
        scaled, plain = G.as_metric_space(), FiniteMetricSpace(G.vertices, G.distance)
        assert (scaled.den, plain.den) == (4 ** m, None)
        assert same_report(convexity_ratio(chain, lambda v: v, scaled, p),
                           convexity_ratio(chain, lambda v: v, plain, p))
        for t, s in ((4 ** m, 0), (4 ** m // 2 + 1, 1), (3, -2), (2, 2)):
            assert same(pair_expectation(chain, lambda v: v, scaled, t, s, p),
                        pair_expectation(chain, lambda v: v, plain, t, s, p))


def _unreduced(den, rows):
    return den, rows


def _random_rational_chain(rng):
    """A chain with laws of denominators up to 35 (so compositions have odd
    common factors), some rows left out, on points of the line at rational
    positions."""
    n = rng.randint(2, 5)
    states = list(range(n))
    t_min = rng.randint(-1, 1)
    t_max = t_min + rng.randint(1, 6)

    def law():
        support = rng.sample(states, rng.randint(1, min(3, n)))
        weights = [rng.randint(1, 7) for _ in support]
        return {x: Fraction(w, sum(weights)) for x, w in zip(support, weights)}

    kernels = {t: {z: law() for z in states if rng.random() < 0.8}
               for t in range(t_min + 1, t_max + 1)}
    pos = [Fraction(rng.randint(-300, 300), rng.randint(1, 97)) for _ in states]
    space = FiniteMetricSpace(states, lambda a, b: abs(pos[a] - pos[b]))
    return ChainSpec(states, t_min, t_max, kernels, law()), space


def test_reduced_laws_leave_every_output_unchanged(monkeypatch):
    # conditional laws divided by powers of two against the unreduced ones:
    # exact outputs equal, and the float sums of non-integer p bit for bit
    # (dividing by the whole gcd moves those floats on 24 of the 100 chains
    # here with p = 1.5 or 2.5)
    rng = random.Random(20261018)

    def run(chain, space, p):
        try:
            return convexity_ratio(chain, lambda v: v, space, p)
        except DegenerateChain as exc:
            return exc.report

    for trial in range(200):
        chain, space = _random_rational_chain(rng)
        p = (1.5, 2.5, 2, 3)[trial % 4]
        reduced = run(chain, space, p)
        with monkeypatch.context() as mp:
            mp.setattr(markov, "_reduced", _unreduced)
            unreduced = run(chain, space, p)
        assert len(reduced.per_k) == len(unreduced.per_k)
        assert all(map(same, reduced.per_k, unreduced.per_k))
        assert same(reduced.rhs, unreduced.rhs)


def test_reduced_divides_by_the_power_of_two_part():
    assert markov._reduced(12, {0: {1: 4, 2: 8}}) == (3, {0: {1: 1, 2: 2}})
    assert markov._reduced(12, {0: {1: 6}, 1: {2: 3}}) == (12, {0: {1: 6}, 1: {2: 3}})
    assert markov._reduced(6, {0: {1: 3, 2: 3}}) == (6, {0: {1: 3, 2: 3}})
    assert markov._reduced(8, {}) == (1, {})


def _spy_cond_cache(monkeypatch):
    """Record the most dyadic levels the cache held and how often each
    (s, j) was composed."""
    seen = {"levels": 0, "composed": {}}
    orig = markov._CondCache.cond

    def cond(self, s, j):
        fresh = s not in self.levels.get(j, {})
        M = orig(self, s, j)
        if fresh and j > 0 and s in self.levels.get(j, {}):
            seen["composed"][s, j] = seen["composed"].get((s, j), 0) + 1
        seen["levels"] = max(seen["levels"], len(self.levels))
        return M

    monkeypatch.setattr(markov._CondCache, "cond", cond)
    return seen


@pytest.mark.parametrize("m", [2, 3])
def test_cond_cache_holds_two_levels_and_composes_once(m, monkeypatch):
    G = build_laakso(m)
    chain = laakso_walk(G)
    expected = convexity_ratio(chain, lambda v: v, G.as_metric_space(), 2)
    seen = _spy_cond_cache(monkeypatch)
    composed = []
    compose = markov._compose
    monkeypatch.setattr(markov, "_compose", lambda *a: composed.append(1) or compose(*a))
    rep = convexity_ratio(chain, lambda v: v, G.as_metric_space(), 2)
    assert rep.per_k == expected.per_k
    assert seen["levels"] == 2
    assert set(seen["composed"].values()) == {1}
    assert len(composed) == len(seen["composed"])


@settings(max_examples=30, deadline=None)
@given(small_chains())
def test_cond_cache_two_levels_on_general_chains(chain_and_map):
    chain, f = chain_and_map
    space = l1_space({z: f(z) for z in chain.states})
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_cond_cache(mp)
        try:
            convexity_ratio(chain, f, space, 2)
        except DegenerateChain:
            pass
    assert seen["levels"] <= 2
    assert set(seen["composed"].values()) <= {1}


def test_convexity_ratio_builds_no_fraction_law_and_one_power_per_pair(monkeypatch):
    # on prop21-check's chains: the laws are int vectors, never law()'s
    # Fractions, and the one-step sum and the fork terms read one table, so
    # each unordered pair of states has its distance power computed once
    laws = []
    monkeypatch.setattr(ChainSpec, "law", lambda self, t: laws.append(t))
    rng = random.Random(1)
    sp = LpSpace(3, 2)
    for _ in range(20):
        chain, f = random_chain(rng)
        images = [tuple(f(s)) for s in chain.states]
        assert len(set(images)) == len(images)  # so point pairs are state pairs
        target = sp.as_metric_space(images)
        calls = []
        dist_pow = target.dist_pow
        monkeypatch.setattr(target, "dist_pow",
                            lambda x, y, p: calls.append(frozenset((x, y))) or dist_pow(x, y, p))
        try:
            convexity_ratio(chain, lambda s: tuple(f(s)), target, 2)
        except DegenerateChain:
            pass
        assert calls and len(calls) == len(set(calls))
    assert laws == []


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


# ---------------------------------------------------------------------------
# the DP against its frozen outputs: reports of seeded chains written by the
# Fraction-law DP (laws as {state: Fraction}, one Fraction per fork term),
# floats as hex, so every number must come back equal in value and type and
# every float bit for bit
# ---------------------------------------------------------------------------

DP_FIXTURE = pathlib.Path(__file__).with_name("markov_dp_frozen.json")
FIXTURE_P = (1, 2, 3, 1.5, 2.5)


def _fixture_runs():
    """(name, report) of 20 random_chain chains into l_p^3, as prop21-check
    builds them, and 30 _random_rational_chain chains, at each p of
    FIXTURE_P; a degenerate chain gives the report its error carries."""
    def run(chain, f, space, p):
        try:
            return convexity_ratio(chain, f, space, p)
        except DegenerateChain as exc:
            return exc.report

    rng = random.Random(20261020)
    for i in range(20):
        chain, f = random_chain(rng)
        for p in FIXTURE_P:
            target = LpSpace(3, p).as_metric_space([f(s) for s in chain.states])
            yield f"random_chain {i} p={p}", run(chain, lambda s: tuple(f(s)), target, p)
    for i in range(20):
        chain, space = _random_rational_chain(rng)
        for p in FIXTURE_P:
            yield f"rational_chain {i} p={p}", run(chain, lambda v: v, space, p)
    # states folded onto two points or one: forks whose copies split but
    # meet again in the image, so scales of zero terms (the Fraction 0, not
    # the int 0) and degenerate chains
    for i in range(10):
        chain, space = _random_rational_chain(rng)
        fold = (lambda v: v % 2) if i % 2 else (lambda v: 0)
        for p in FIXTURE_P:
            yield f"folded_chain {i} p={p}", run(chain, fold, space, p)


def _encode(x):
    if x is None:
        return None
    if isinstance(x, float):
        return "float " + x.hex()
    return f"{type(x).__name__} {x}"


def _decode(s):
    if s is None:
        return None
    kind, value = s.split(" ")
    return {"float": float.fromhex, "int": int, "Fraction": Fraction}[kind](value)


def _encode_report(rep):
    return {"p": _encode(rep.p), "per_k": [_encode(x) for x in rep.per_k],
            **{key: _encode(getattr(rep, key))
               for key in ("rhs", "lhs_total", "ratio", "pi_lower")}}


def test_dp_matches_the_frozen_fraction_dp():
    frozen = json.loads(DP_FIXTURE.read_text())
    runs = dict(_fixture_runs())
    assert sorted(runs) == sorted(frozen)
    for name, rep in runs.items():
        want = frozen[name]
        old = ConvexityReport(_decode(want["p"]), [_decode(x) for x in want["per_k"]],
                              *(_decode(want[key])
                                for key in ("lhs_total", "rhs", "ratio", "pi_lower")))
        assert _encode_report(old) == want, name  # the decoding loses nothing
        assert same_report(rep, old), name
