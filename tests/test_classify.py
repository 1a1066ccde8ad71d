import random
import re
from fractions import Fraction

import pytest

from mconvex.embeddings.classify import (b4_bound_check, classify_3path,
                                         classify_fork, classify_midpoint,
                                         path_scale_range)
from mconvex.embeddings.generators import (gen_3path, gen_fork, gen_midpoint,
                                           make_space)
from mconvex.embeddings.search import generate_faithful_b4
from mconvex.errors import (CollapsedAncestorPair, InvariantViolated, NotApproximatePath,
                            PreconditionViolated, check)
from mconvex.trees import ROOT, TreeVertex


def test_midpoint_path_shape():
    sp = make_space(Fraction(1, 128))
    x = TreeVertex((0,) * 12)
    y = x.ancestor(6)
    out = classify_midpoint(sp, x, y, ROOT, Fraction(1, 32))
    assert out.variant in ("PathType", "ReversePathType")
    # witness triple realizes the claimed nearness within budget
    assert out.nearness <= 3 * Fraction(1, 32) * sp.distance(x, ROOT)


def test_midpoint_tent_shape():
    sp = make_space(Fraction(1, 512))
    apex = TreeVertex((1, 0, 1))
    y = apex.descend((0, 0, 0, 0))
    z = TreeVertex((1, 0, 0) + (1,) * 8)
    out = classify_midpoint(sp, apex, y, z, Fraction(1, 32))
    assert out.variant in ("TentType", "ReverseTentType")


def test_midpoint_rejects_large_delta():
    sp = make_space(Fraction(1, 128))
    with pytest.raises(PreconditionViolated):
        classify_midpoint(sp, TreeVertex((0, 0)), TreeVertex((0,)), ROOT,
                          Fraction(1, 8))


def test_midpoint_rejects_non_midpoint():
    sp = make_space(Fraction(1, 128))
    # y far from the midpoint of (x, z)
    x = TreeVertex((0,) * 12)
    with pytest.raises(PreconditionViolated):
        classify_midpoint(sp, x, x.ancestor(1), ROOT, Fraction(1, 32))


def test_midpoint_rejects_wide_epsilon():
    sp = make_space(Fraction(1, 3))  # eps >= 1/4: classifier hypotheses fail
    x = TreeVertex((0,) * 12)
    with pytest.raises(PreconditionViolated):
        classify_midpoint(sp, x, x.ancestor(6), ROOT, Fraction(1, 32))


def test_fork_contracted_prongs():
    sp = make_space(Fraction(1, 2048))
    delta = Fraction(1, 128)
    x = ROOT
    y = TreeVertex((0,) * 6)
    z = y.descend((0,) + (1,) * 5)
    w = y.descend((1,) + (0,) * 5)
    out = classify_fork(sp, x, y, z, w, delta)
    assert out.variant == "ProngsContracted"
    bound = 2 * (35 * delta + sp.eps[0]) * sp.distance(x, y) * 2
    assert sp.distance(z, w) <= bound


# Shapes the generators do not reach.  With eps far below 1/4, a horizontal
# run of h levels below an lca costs only 2 eps h, so a point can stand at a
# unit distance beside another at the same height.

def test_fork_type_iv_in_both_prong_orders():
    # x and y at depth 36 on the two sides of the root, d(x, y) = 72 / 72 = 1;
    # z one level below y, w one level above it: (z, y, x) is path-type and
    # (w, y, x) tent-type, exactly
    sp = make_space(Fraction(1, 72))
    delta = Fraction(1, 71)
    x, y = TreeVertex((1,) + (0,) * 35), TreeVertex((0,) * 36)
    z, w = y.child(0), y.ancestor(35)
    for prongs in ((z, w), (w, z)):
        out = classify_fork(sp, x, y, *prongs, delta)
        assert out.variant == "IV" and out.nearness == 0
        assert out.witnesses == ((z, y, x), (w, y, x))


def test_fork_type_iii_with_the_tent_prong_first():
    # found by a search over shapes: x and y hang 4 and 6 levels below their
    # lca at depth 12, z and w 8 levels below it; (x, y, z) is near tent-type
    # and (w, y, x) near path-type, but (x, y, w) is not near tent-type, so
    # III comes from the prongs in the other order
    sp = make_space(Fraction(1, 256), depth=20)
    x, y, z, w = (TreeVertex(tuple(map(int, p))) for p in (
        "1011010001100100", "101101000110110000",
        "10110100011011010010", "10110100011011001101"))
    out = classify_fork(sp, x, y, z, w, Fraction(1, 100))
    assert out.variant == "III" and out.nearness == Fraction(1, 32)
    assert out.witnesses[0][0] == w and out.witnesses[1][1] == y


def test_3path_types_b_and_c_and_their_reversals():
    # delta just under 1/200 and 2 eps = 1/201 or 1/202: a branch point about
    # 200 levels up lets the path switch branches within its scale window
    delta = Fraction(1, 201)
    # B: x0 two levels below x1 on one side of the root; x2 on the other
    # side, one level above x1 and 200 levels below the root; x3 two above x2
    sp = make_space(Fraction(1, 402), depth=205)
    x2 = TreeVertex((1,) + (0,) * 199)
    pts = (TreeVertex((0,) * 203), TreeVertex((0,) * 201), x2, x2.ancestor(198))
    assert classify_3path(sp, *pts, delta).variant == "B"
    assert classify_3path(sp, *pts[::-1], delta).variant == "ReverseB"
    # C: x0, x1, x2 two levels apart down one line; x3 leaves that line at
    # depth 3, one level deeper than x2
    sp = make_space(Fraction(1, 404), depth=210)
    x1 = TreeVertex((0,) * 203)
    pts = (x1.ancestor(201), x1, TreeVertex((0,) * 205), TreeVertex((0, 0, 0, 1) + (0,) * 202))
    assert classify_3path(sp, *pts, delta).variant == "C"
    assert classify_3path(sp, *pts[::-1], delta).variant == "ReverseC"
    for p in (pts, pts[::-1]):
        assert classify_3path(sp, *p, delta).nearness == 0


def test_fork_soundness_randomized():
    rng = random.Random(0)
    delta = Fraction(1, 128)
    for _ in range(150):
        sp, x, y, z, w = gen_fork(rng, delta)
        out = classify_fork(sp, x, y, z, w, delta)
        assert out.variant != "Unclassified"


def test_midpoint_soundness_randomized():
    rng = random.Random(1)
    delta = Fraction(1, 32)
    for _ in range(150):
        sp, x, y, z = gen_midpoint(rng, delta)
        out = classify_midpoint(sp, x, y, z, delta)
        assert out.variant != "Unclassified"
        # the certified witness stays within the 3*delta*d(x,z) budget
        assert out.nearness <= 3 * delta * sp.distance(x, z)


def test_3path_soundness_randomized():
    rng = random.Random(2)
    delta = Fraction(1, 256)
    for _ in range(150):
        sp, *pts = gen_3path(rng, delta)
        out = classify_3path(sp, *pts, delta)
        assert out.variant != "Unclassified"


def test_3path_rejects_non_path():
    sp = make_space(Fraction(1, 2048))
    pts = [ROOT, TreeVertex((0,)), TreeVertex((1,)), TreeVertex((0, 0))]
    with pytest.raises(NotApproximatePath):
        path_scale_range(sp, pts, Fraction(1, 256))
    with pytest.raises(NotApproximatePath):
        classify_3path(sp, *pts, Fraction(1, 256))


def test_3path_vertical_line_is_type_a():
    sp = make_space(Fraction(1, 2048))
    line = TreeVertex((0, 1) * 9)
    pts = [line, line.ancestor(12), line.ancestor(6), line.ancestor(0)]
    out = classify_3path(sp, *pts, Fraction(1, 256))
    assert out.variant in ("A", "ReverseA")


def test_b4_bound_check_faithful_embedding():
    sp = make_space(Fraction(1, 5), depth=60)
    rng = random.Random(4)
    f = generate_faithful_b4(sp, rng, collide_prob=0.0)
    dist, bound, holds = b4_bound_check(sp, lambda v: f[v], Fraction(1, 512))
    assert holds
    assert bound == 1 / (500 * Fraction(1, 512) + Fraction(1, 5))


def test_b4_bound_check_rejects_unfaithful():
    sp = make_space(Fraction(1, 5), depth=60)
    # heavily warped: one branch stretched 8x, the other 1x
    def f(v):
        bits = sum(((b,) * (8 if b else 1) for b in v.path), ())
        return TreeVertex(bits)
    with pytest.raises(PreconditionViolated):
        b4_bound_check(sp, f, Fraction(1, 512))


def test_make_space_shares_one_space_per_schedule():
    import inspect
    from mconvex.embeddings import generators
    sp = make_space(Fraction(1, 128))
    assert make_space(Fraction(1, 128), 40) is sp
    assert make_space(Fraction(1, 128), depth=41) is not sp
    assert make_space(Fraction(1, 512)) is not sp
    assert isinstance(sp.eps.values, tuple) and sp.classifier_ready
    assert not make_space(Fraction(1, 3)).classifier_ready
    # a plain function, so tracers that wrap module functions count each call
    assert inspect.isfunction(generators.make_space)


def old_certify_labels(space, x, y, z, budget):
    """_certify_labels as it was before the integer distances, kept verbatim
    as the oracle."""
    from mconvex.embeddings.classify import _path_type, _tent_type
    heights = sorted({x.depth, y.depth, z.depth})
    pool = []
    seen = set()
    for v in (x, y, z):
        for h in heights:
            if h <= v.depth:
                a = v.ancestor(h)
                if a.path not in seen:
                    seen.add(a.path)
                    pool.append(a)
    near = {}
    for v in (x, y, z):
        near[v] = [(c, space.distance(v, c)) for c in pool
                   if space.distance(v, c) <= budget]

    labels = {}
    for label, (o1, o2, o3), shape in (
            ("P", (x, y, z), _path_type),
            ("T", (x, y, z), _tent_type),
            ("p", (z, y, x), _path_type),
            ("t", (z, y, x), _tent_type)):
        best = None
        for a, na in near[o1]:
            for b, nb in near[o2]:
                if shape is _path_type and not b.is_ancestor_of(a):
                    continue
                if shape is _tent_type and not a.is_ancestor_of(b):
                    continue
                for c, nc in near[o3]:
                    if shape(a, b, c):
                        n = max(na, nb, nc)
                        if best is None or n < best[0]:
                            best = (n, (a, b, c))
        if best is not None:
            labels[label] = best
    return labels


def old_path_scale_range(space, pts, delta):
    """path_scale_range as it was before the integer distances, kept verbatim
    as the oracle."""
    delta = Fraction(delta)
    lo = Fraction(0)
    hi = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dij = space.distance(pts[i], pts[j])
            lo = max(lo, dij / ((1 + delta) * (j - i)))
            cur = dij / (j - i)
            hi = cur if hi is None else min(hi, cur)
    if lo > hi or hi == 0:
        raise NotApproximatePath(f"no feasible scale: need L in [{lo}, {hi}]")
    return lo, hi


def _scale_outcome(fn, sp, pts, delta):
    try:
        return fn(sp, pts, delta)
    except NotApproximatePath as exc:
        return str(exc)


def test_certify_labels_and_scale_range_match_fraction_code():
    """Integer nearness and scale windows against the Fraction code, on
    seeded generator instances, with the classifiers' budgets and budgets
    that sit exactly on a candidate distance."""
    from mconvex.embeddings.classify import _certify_labels
    rng = random.Random(77)
    triples = []
    for _ in range(60):
        sp, x, y, z = gen_midpoint(rng, Fraction(1, 32))
        triples.append((sp, (x, y, z), 3 * Fraction(1, 32) * sp.distance(x, z)))
        sp, x, y, z, w = gen_fork(rng, Fraction(1, 128))
        for prong in (z, w):
            triples.append((sp, (x, y, prong), 7 * Fraction(1, 128) * sp.distance(x, y)))
        sp, *pts = gen_3path(rng, Fraction(1, 256))
        for i in (0, 1):
            triples.append((sp, pts[i:i + 3], 8 * Fraction(1, 256) * sp.distance(pts[0], pts[1])))
        # scale windows: the generated path, a perturbed one, and other deltas
        bent = list(pts)
        bent[rng.randrange(4)] = bent[rng.randrange(4)].descend_zeros(rng.randint(0, 3))
        for quad in (pts, bent, pts[::-1]):
            for delta in (Fraction(1, 256), Fraction(1, 4), Fraction(0), Fraction(-1, 2), -3):
                expected = _scale_outcome(old_path_scale_range, sp, quad, delta)
                got = _scale_outcome(path_scale_range, sp, quad, delta)
                assert got == expected
                if isinstance(expected, tuple):
                    assert [type(v) for v in got] == [Fraction, Fraction]
    checked = 0
    for sp, (x, y, z), budget in triples:
        exact = sp.distance(x, y.ancestor(rng.randint(0, y.depth)))
        for b in (budget, exact, exact * 3, Fraction(0)):
            expected = old_certify_labels(sp, x, y, z, b)
            got = _certify_labels(sp, x, y, z, b)
            assert got == expected
            assert all(type(n) is Fraction for n, _ in got.values())
            checked += len(got)
    assert checked >= 300


def old_check_exclusions(space, x, y, z, labels):
    """_check_exclusions as it was before the integer distances, kept
    verbatim as the oracle."""
    dxy = space.distance(x, y)
    dzy = space.distance(z, y)

    def tight(l, bound):
        return l in labels and labels[l][0] <= bound

    exclusions = []
    if x != y:
        exclusions += [("P", "T", dxy / 5), ("P", "p", dxy / 11), ("T", "t", dxy / 11)]
    if z != y:
        exclusions.append(("p", "t", dzy / 5))
    for l1, l2, bound in exclusions:
        check(not (tight(l1, bound) and tight(l2, bound)),
              "labels %s and %s both within %s: %s", l1, l2, bound, (x, y, z, labels))


def _exclusion_outcome(fn, sp, triple, labels):
    try:
        fn(sp, *triple, labels)
    except InvariantViolated as exc:
        return str(exc)
    return None


def test_check_exclusions_match_fraction_code():
    """Label sets with nearness on, just below and just above every
    exclusion threshold, including contradictory ones, raise exactly when
    and as the Fraction code did."""
    from mconvex.embeddings.classify import _check_exclusions
    rng = random.Random(78)
    raised = passed = 0
    for _ in range(40):
        sp, x, y, z = gen_midpoint(rng, Fraction(1, 32))
        for triple in ((x, y, z), (x, x, z), (x, z, z)):
            a, b, c = triple
            bounds = [sp.distance(a, b) / k for k in (5, 11)] + [sp.distance(c, b) / 5]
            nears = [n + e for n in bounds for e in (0, Fraction(-1, sp.den), Fraction(1, sp.den))]
            for _ in range(12):
                labels = {l: (rng.choice(nears), (a, b, c))
                          for l in rng.sample("PTpt", rng.randint(2, 4))}
                expected = _exclusion_outcome(old_check_exclusions, sp, triple, labels)
                assert _exclusion_outcome(_check_exclusions, sp, triple, labels) == expected
                raised += expected is not None
                passed += expected is None
    assert raised >= 100 and passed >= 100
    # a contradictory label set: path- and tent-type both within d(x, y) / 5
    sp = make_space(Fraction(1, 128))
    x = TreeVertex((0,) * 12)
    y = x.ancestor(6)
    bound = sp.distance(x, y) / 5
    with pytest.raises(InvariantViolated, match=f"labels P and T both within {bound}: "):
        _check_exclusions(sp, x, y, ROOT, {"P": (bound, None), "T": (bound / 2, None)})
    _check_exclusions(sp, x, y, ROOT, {"P": (bound, None), "T": (bound * 2, None)})


def test_b4_ancestor_pairs_are_the_strict_ancestor_pairs():
    # b4_bound_check names the first collapsed pair in sp_pairs(4) order: the
    # strict ancestor pairs of _B4, descendants in heap order, ancestors
    # from the root down
    from mconvex.embeddings.classify import _B4
    from mconvex.trees import sp_pairs
    pairs = [(a, b) for b in _B4 for a in (b.ancestor(h) for h in range(b.depth))]
    assert list(sp_pairs(4)) == pairs
    assert pairs == [(a, b) for b in _B4 for a in _B4 if a.is_strict_ancestor_of(b)]
    space = make_space(Fraction(1, 5), depth=20)
    pool = [TreeVertex((0,) * k) for k in range(3)]
    rng = random.Random(4)
    for _ in range(50):
        f = {v: rng.choice(pool) for v in _B4}
        x, y = next((a, b) for a, b in pairs if f[a] == f[b])
        with pytest.raises(CollapsedAncestorPair, match=re.escape(f"pair ({x}, {y})")):
            b4_bound_check(space, f.__getitem__, Fraction(1, 512))
