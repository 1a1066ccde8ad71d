import math
import random
from fractions import Fraction

import numpy as np
import pytest

from mconvex.banach import (LpSpace, check_pconvexity, check_prop21, find_K, fork_slack,
                            norm_pow, pconvexity_slacks, trivial_renorm_bound)
from mconvex.embeddings.generators import random_chain
from mconvex.errors import DegenerateChain, InvariantViolated, OutOfRange
from mconvex.markov import convexity_ratio
from mconvex.metric import is_integral


def test_norm_pow_exact_vs_float():
    v = (Fraction(3), Fraction(-4))
    assert norm_pow(v, 2) == 25
    assert LpSpace(2, 2).norm(v) == pytest.approx(5.0)
    # non-integer p falls back to floats
    assert LpSpace(2, 2.5).norm((3.0, -4.0)) == pytest.approx(
        (3 ** 2.5 + 4 ** 2.5) ** (1 / 2.5))


def test_parallelogram_identity_exact():
    # p = 2, K = 1: the inequality is the parallelogram law, slack identically 0
    rng = random.Random(0)
    sp = LpSpace(4, 2)
    for _ in range(200):
        a = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4))
        b = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(4))
        assert check_pconvexity(sp, 1, a, b) == 0


def test_pconvexity_slacks_vectorized_matches_scalar():
    slacks = pconvexity_slacks(3, 2, 1.0, 500, seed=4)
    assert np.abs(slacks).max() < 1e-9
    slacks4 = pconvexity_slacks(3, 4, 1.0, 500, seed=4)
    assert slacks4.min() > -1e-9  # p = 4, K = 1 holds with nonnegative slack


def test_find_K_lp_fixtures():
    assert find_K(LpSpace(3, 2), trials=300) == 1.0
    assert find_K(LpSpace(3, 4), trials=300) == 1.0
    k3 = find_K(LpSpace(2, 3), trials=300)
    assert k3 >= 1.0


def test_fork_slack_nonnegative_l2():
    rng = random.Random(2)
    sp = LpSpace(3, 2)
    for _ in range(500):
        pts = [tuple(Fraction(rng.randint(-20, 20)) for _ in range(3))
               for _ in range(4)]
        assert fork_slack(*pts, sp, 1) >= 0


def test_fork_slack_exact_zero_case():
    # degenerate fork x = y = z = w gives slack 0
    sp = LpSpace(2, 2)
    o = (Fraction(0), Fraction(0))
    assert fork_slack(o, o, o, o, sp, 1) == 0


def test_check_prop21_random_chains():
    rng = random.Random(11)
    sp = LpSpace(3, 2)
    done = 0
    while done < 20:
        chain, f = random_chain(rng)
        try:
            lhs, bound, holds = check_prop21(chain, f, sp, 1)
        except DegenerateChain:
            continue
        done += 1
        assert holds
        assert isinstance(lhs, (int, Fraction)) and isinstance(bound, (int, Fraction))


def test_trivial_renorm_bound():
    sp = LpSpace(2, 2)
    x = (Fraction(3), Fraction(4))
    val = trivial_renorm_bound(x, 5, sp)
    assert val == pytest.approx(5.0)
    with pytest.raises(ValueError):
        trivial_renorm_bound(x, 11, sp)
    # m < 1 has no steps to average: m = 0 divided by zero, m = -1 gave 0.0
    for m in (0, -1):
        with pytest.raises(OutOfRange, match=f"m = {m} < 1"):
            trivial_renorm_bound(x, m, sp)


def test_trivial_renorm_bound_is_checked():
    # a space whose norm under-reports ||x|| breaks value <= ||x||
    class ShortNorm(LpSpace):
        def norm(self, v):
            return super().norm(v) / 2

    with pytest.raises(InvariantViolated, match="exceeds"):
        trivial_renorm_bound((Fraction(3), Fraction(4)), 5, ShortNorm(2, 2))


def test_as_metric_space_dist_pow_exact():
    sp = LpSpace(2, 2)
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]
    ms = sp.as_metric_space(pts)
    # squared distances stay exact even though the distance is irrational
    assert ms.dist_pow(pts[0], pts[1], 2) == 2
    assert ms.dist(pts[0], pts[1]) == pytest.approx(math.sqrt(2))


def _exactable(p, *vectors):
    """The exactness test old_norm_pow was written against, kept with it."""
    if not is_integral(p):
        return False
    return all(isinstance(c, (int, Fraction)) for v in vectors for c in v)


def old_norm_pow(v, p):
    """norm_pow as it was before integer coordinates stayed ints, kept
    verbatim as the oracle."""
    if _exactable(p, v):
        return sum(Fraction(abs(c)) ** int(p) for c in v)
    return sum(abs(float(c)) ** p for c in v)


def test_norm_pow_types():
    assert norm_pow((3, -4), 2) == 25 and type(norm_pow((3, -4), 2)) is int
    assert type(norm_pow((3, -4, 0), 3)) is int and norm_pow((3, -4, 0), 3) == 91
    assert type(norm_pow((Fraction(3), Fraction(-4)), 2)) is Fraction
    assert type(norm_pow((3, Fraction(1, 2)), 2)) is Fraction
    assert norm_pow((3, Fraction(1, 2)), 2) == Fraction(37, 4)
    assert type(norm_pow((3, -4), 2.5)) is float
    assert type(norm_pow((3.0, -4.0), 2)) is float
    # a negative integer power stays an exact Fraction, as before
    assert norm_pow((2, -4), -1) == old_norm_pow((2, -4), -1) == Fraction(3, 4)
    assert type(norm_pow((2, -4), -1)) is Fraction
    sp = LpSpace(3, 2)
    assert sp.dist_pow((1, 2, 3), (4, 6, 3), 2) == 25
    assert type(sp.dist_pow((1, 2, 3), (4, 6, 3), 2)) is int


def _prop21_outcome(chain, f, sp):
    """(lhs, bound, holds, per_k, rhs) of check_prop21 and of the DP behind
    it, or the name of the exception both raise."""
    try:
        lhs, bound, holds = check_prop21(chain, f, sp, 1)
        target = sp.as_metric_space([f(s) for s in chain.states])
        rep = convexity_ratio(chain, lambda s: tuple(f(s)), target, sp.p)
    except DegenerateChain:
        return "DegenerateChain"
    return lhs, bound, holds, rep.per_k, rep.rhs


def test_check_prop21_matches_fraction_norm_pow(monkeypatch):
    """On 200+ seeded random chains, integer distance powers give the same
    values of the same types as the Fraction norm_pow."""
    import mconvex.banach as banach
    rng = random.Random(2026)
    instances = [random_chain(rng) for _ in range(240)]
    new = [_prop21_outcome(chain, f, LpSpace(3, 2)) for chain, f in instances]
    monkeypatch.setattr(banach, "norm_pow", old_norm_pow)
    assert type(LpSpace(3, 2).dist_pow((1, 2, 3), (4, 6, 3), 2)) is Fraction
    old = [_prop21_outcome(chain, f, LpSpace(3, 2)) for chain, f in instances]
    assert sum(o != "DegenerateChain" for o in old) >= 200
    assert len(new) == len(old)
    nonzero = 0
    for a, b in zip(new, old):
        assert a == b
        if b != "DegenerateChain":
            lhs, bound, holds, per_k, rhs = a
            assert [type(v) for v in (lhs, bound, holds, rhs)] == \
                [type(v) for v in (b[0], b[1], b[2], b[4])]
            assert [type(v) for v in per_k] == [type(v) for v in b[3]]
            nonzero += type(lhs) is Fraction and type(bound) is Fraction
    assert nonzero >= 100
