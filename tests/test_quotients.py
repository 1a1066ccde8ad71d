import math
import random
from fractions import Fraction

import pytest

from mconvex.errors import (HorizonTooLong, NotSurjective, OutOfRange,
                            PreconditionViolated)
from mconvex.markov import ChainSpec, convexity_ratio
from mconvex.metric import FiniteMetricSpace, PointMap, exact_or_float, is_exact
from mconvex.quotients import (QuotientMap, lift_chain, trajectory_chain, transfer_check,
                               verify_quotient)


def line(n):
    return FiniteMetricSpace(list(range(n + 1)),
                             lambda a, b: Fraction(abs(a - b)))


def fold_map(n):
    """P_{2n} -> P_n, i -> |n - i|: the standard (1,1)-Lipschitz quotient."""
    return PointMap(line(2 * n), line(n), {i: abs(n - i) for i in range(2 * n + 1)})


def test_fold_is_quotient():
    assert verify_quotient(fold_map(2), 1, 1) == []
    q = QuotientMap(fold_map(3), 1, 1)
    assert q.D == 1


def test_identity_is_quotient():
    sp = line(4)
    f = PointMap(sp, sp, {i: i for i in range(5)})
    assert verify_quotient(f, 1, 1) == []


def test_non_surjective_rejected():
    f = PointMap(line(2), line(2), {0: 0, 1: 0, 2: 1})
    with pytest.raises(NotSurjective):
        verify_quotient(f, 1, 1)


def scaled_target(scale):
    return FiniteMetricSpace([0, 1, 2], lambda a, b: scale * abs(a - b))


def test_colip_violation_detected():
    # shrinking the target: far target points invade small balls, a = 1 fails
    f = PointMap(line(2), scaled_target(Fraction(1, 2)), {0: 0, 1: 1, 2: 2})
    bad = verify_quotient(f, 1, 1)
    assert any(v[0] == "colip" for v in bad)
    assert all(v[0] != "lip" for v in bad)
    assert verify_quotient(f, 2, 1) == []


def test_lip_violation_detected():
    # stretching the target: not 1-Lipschitz
    f = PointMap(line(2), scaled_target(Fraction(2)), {0: 0, 1: 1, 2: 2})
    bad = verify_quotient(f, 1, 1)
    assert any(v[0] == "lip" for v in bad)
    assert verify_quotient(f, 1, 2) == []


def test_quotient_map_verifies_on_construction():
    f = PointMap(line(2), scaled_target(Fraction(2)), {0: 0, 1: 1, 2: 2})
    with pytest.raises(PreconditionViolated):
        QuotientMap(f, 1, 1)


@pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-1, 1), (1, Fraction(-1, 2)),
                                 (math.inf, 1), (1, math.inf), (math.nan, 1), (1, -0.5)])
def test_factors_must_be_finite_and_positive(a, b):
    with pytest.raises(OutOfRange):
        verify_quotient(fold_map(2), a, b)
    with pytest.raises(OutOfRange):
        QuotientMap(fold_map(2), a, b)


def old_test_radii(f):
    """The test radii of the loop below, verbatim: realized distances of
    source and target plus consecutive midpoints."""
    vals = set()
    for space in (f.source, f.target):
        pts = space.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                vals.add(space.dist(pts[i], pts[j]))
    vals = sorted(vals)
    radii = list(vals)
    for lo, hi in zip(vals, vals[1:]):
        radii.append(exact_or_float(lo + hi) / 2)
    return sorted(radii)


def old_verify_quotient(f, a, b):
    """The center × radius × (|X| + |Y|) loop that verify_quotient replaced:
    the image of every ball rebuilt, and both inclusions tested per target."""
    radii = old_test_radii(f)
    violations = []
    for x in f.source.points:
        fx = f(x)
        for r in radii:
            ball_image = {f(u) for u in f.source.points if f.source.dist(x, u) <= r}
            for y in f.target.points:
                dy = f.target.dist(fx, y)
                if dy * a <= r and y not in ball_image:
                    violations.append(("colip", x, r, y))
                if y in ball_image and dy > b * r:
                    violations.append(("lip", x, r, y))
    return violations


def random_distance(rng, mode):
    """A positive distance: an int or a Fraction when exact, a float when
    not, and any of the three in mode "mixed"."""
    kind = rng.randrange(3) if mode == "mixed" else 2 if mode == "float" else rng.randrange(2)
    if kind == 0:
        return rng.randint(1, 6)
    if kind == 1:
        return Fraction(rng.randint(1, 30), rng.randint(1, 8))
    return rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 6.0)])


def random_surjection(rng, mode, pool=None):
    """A PointMap from a random (not necessarily metric) table onto a
    smaller one, with every target point hit; distances drawn from `pool`
    when one is given."""
    n = rng.randint(1, 7)
    k = rng.randint(1, min(n, 4))

    def table(size):
        mat = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                mat[i][j] = mat[j][i] = (rng.choice(pool) if pool else
                                         random_distance(rng, mode))
        return FiniteMetricSpace.from_matrix(range(size), mat, exact=mode == "exact")

    images = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(images)
    return PointMap(table(n), table(k), dict(enumerate(images)))


def number_policy(f, a, b):
    """(f, a, b) as verify_quotient decides them: unchanged when a, b and
    every distance are exact, else with a, b and every distance floats."""
    dists = [sp.dist(x, y) for sp in (f.source, f.target) for x in sp.points for y in sp.points]
    if is_exact(a, b, *dists):
        return f, a, b

    def floated(sp):
        return FiniteMetricSpace(sp.points, lambda x, y: float(sp.dist(x, y)), exact=False)
    return PointMap(floated(f.source), floated(f.target), f.assignment), float(a), float(b)


FACTORS = [1, 2, Fraction(1, 2), Fraction(3, 2), 0.7, 1.3, Fraction(1, 3), Fraction(5, 7)]
ULP_POOL = [Fraction(757, 47), math.nextafter(757 / 47, math.inf), Fraction(2271, 517),
            Fraction(2271, 517) * Fraction(3, 11), 1, 2.5]


def test_verify_quotient_matches_old_loop_on_seeded_maps():
    rng = random.Random(20261018)
    with_violations = unsorted_br = 0
    for i in range(2400):
        if i < 2000:
            f = random_surjection(rng, ("exact", "float", "mixed")[i % 3])
            a, b = rng.choice(FACTORS), rng.choice(FACTORS)
        else:
            # r = 757/47 and the next float above it: 3/11 * r is exact, and
            # 3/11 times the float rounds below it, so b*r falls as r grows
            f = random_surjection(rng, "mixed", ULP_POOL)
            a, b = rng.choice(FACTORS), Fraction(3, 11)
        old = old_verify_quotient(*number_policy(f, a, b))
        new = verify_quotient(f, a, b)
        assert new == old
        assert [tuple(map(type, v)) for v in new] == [tuple(map(type, v)) for v in old]
        with_violations += bool(old)
        br = [b * r for r in old_test_radii(f)]
        unsorted_br += any(u > v for u, v in zip(br, br[1:]))
    # most maps have violations, and over a hundred have a b*r that falls
    # over the mixed radii (verify_quotient compares those maps in floats)
    assert with_violations > 1200 and unsorted_br > 100


def test_one_exactness_decision_per_call():
    # the fold of P_4 onto P_2 at spacing 1/3: 1.0 * Fraction(1, 3) rounds
    # below 1/3, so comparing it with the exact distance reported false lip
    # violations; with a float factor every distance is a float
    def thirds(n):
        return FiniteMetricSpace(list(range(n + 1)), lambda i, j: Fraction(abs(i - j), 3))
    f = PointMap(thirds(4), thirds(2), {i: abs(2 - i) for i in range(5)})
    for b in (1, Fraction(1), 1.0):
        assert verify_quotient(f, 1, b) == []
    # a float distance makes the radii floats; exact inputs keep them exact
    bad = verify_quotient(f, 1, Fraction(1, 2))
    assert bad and {type(v[2]) for v in bad} == {Fraction}
    assert {type(v[2]) for v in verify_quotient(f, 1, 0.5)} == {float}
    floats = verify_quotient(f, 1, 0.5)
    assert [(k, x, y) for k, x, _, y in bad] == [(k, x, y) for k, x, _, y in floats]
    assert all(math.isclose(u[2], v[2]) for u, v in zip(bad, floats))


def walk_chain(n):
    """Symmetric nearest-neighbor walk on P_n started at 0."""
    half = Fraction(1, 2)
    kernels = {}
    for t in range(1, n + 1):
        kernels[t] = {i: ({i + 1: Fraction(1)} if i == 0 else
                          {i - 1: Fraction(1)} if i == n else
                          {i - 1: half, i + 1: half})
                      for i in range(n + 1)}
    return ChainSpec(list(range(n + 1)), 0, n, kernels, {0: Fraction(1)})


def test_lift_chain_properties():
    n = 2
    q = QuotientMap(fold_map(n), 1, 1)
    chain = walk_chain(n)
    lift = lift_chain(q, chain, lambda s: s)
    tchain = trajectory_chain(chain)
    for traj in tchain.states:
        u = lift(traj)
        # f o h* = g* exactly
        assert q(u) == traj[-1]
        if len(traj) > 1:
            prev = lift(traj[:-1])
            step = q.f.target.dist(traj[-2], traj[-1])
            assert q.f.source.dist(prev, u) <= q.a * step


def test_trajectory_chain_preserves_marginals():
    chain = walk_chain(3)
    tchain = trajectory_chain(chain)
    for t in range(4):
        law = {}
        for traj, p in tchain.law(t).items():
            law[traj[-1]] = law.get(traj[-1], Fraction(0)) + p
        assert law == {z: p for z, p in chain.law(t).items() if p}


def test_trajectory_chain_guards():
    long_chain = ChainSpec([0], 0, 20, {}, {0: Fraction(1)})
    with pytest.raises(HorizonTooLong):
        trajectory_chain(long_chain)


def test_transfer_identity_is_equality():
    sp = line(4)
    q = QuotientMap(PointMap(sp, sp, {i: i for i in range(5)}), 1, 1)
    chain = walk_chain(4)
    ratio_y, bound, holds = transfer_check(q, chain, lambda s: s, 2)
    assert holds
    direct = convexity_ratio(chain, lambda s: s, sp, 2)
    assert ratio_y == direct.ratio
    assert bound >= ratio_y


def test_transfer_fold():
    q = QuotientMap(fold_map(2), 1, 1)
    chain = walk_chain(2)
    ratio_y, bound, holds = transfer_check(q, chain, lambda s: s, 2)
    assert holds


def test_transfer_factors_are_real_powers_for_non_integral_p():
    # this space gives its p-th powers as rationals (the exact value of the
    # float power) for every p, so both one-step sums are exact at p = 2.5;
    # the factors must still be a^p and b^p, not a^int(p) and b^int(p)
    def rational_line(n):
        return FiniteMetricSpace(list(range(n + 1)), lambda x, y: abs(x - y),
                                 dist_pow=lambda x, y, p: Fraction(abs(x - y) ** p))
    f = PointMap(rational_line(4), rational_line(2), {i: abs(2 - i) for i in range(5)})
    q = QuotientMap(f, 2, 1)
    chain = walk_chain(2)
    ratio_y, bound, holds = transfer_check(q, chain, lambda s: s, 2.5)
    rep_x = convexity_ratio(trajectory_chain(chain), lift_chain(q, chain, lambda s: s),
                            f.source, 2.5)
    assert type(rep_x.rhs) is Fraction
    assert bound == 2.0 ** 2.5 * rep_x.ratio and holds
