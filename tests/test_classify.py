import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mconvex.embeddings.bulk import require_ready
from mconvex.embeddings.classify import (ForkClass, MidpointClass, ThreePathClass,
                                         _promote_path, b4_bound_check,
                                         classify_3path, classify_3paths, classify_fork,
                                         classify_forks, classify_midpoint,
                                         classify_midpoints, path_scale_range)
from mconvex.embeddings.generators import (gen_3path, gen_fork, gen_midpoint,
                                           make_space)
from mconvex.embeddings.search import generate_faithful_b4
from mconvex.errors import (CollapsedAncestorPair, InvariantViolated, NotApproximatePath,
                            PreconditionViolated, check)
from mconvex.metric import is_midpoint
from mconvex.trees import ROOT, TreeVertex, index_array


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


def _path_type(a, b, c):
    return (c.depth <= b.depth <= a.depth
            and b.is_ancestor_of(a)
            and c.lca_depth(b) < b.depth)


def _tent_type(a, b, c):
    return (b.depth <= c.depth
            and a.is_ancestor_of(b)
            and a.lca_depth(c) < a.depth)


def old_certify_labels(space, x, y, z, budget):
    """_certify_labels as it was before the integer distances, kept verbatim
    as the oracle."""
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


def _bulk_labels(sp, cases):
    """The label dicts of certify on the (triple, budget) cases, all in one
    call: den * d <= floor(den * budget) exactly when d <= budget."""
    from mconvex.embeddings.bulk import certify
    idx = index_array([[v.index for v in triple] for triple, _ in cases])
    thr = index_array([math.floor(budget * sp.den) for _, budget in cases])
    labels = certify(sp, idx, thr)
    return [labels.of(t, sp.den) for t in range(len(cases))]


def test_certify_labels_and_scale_range_match_fraction_code():
    """Integer nearness and scale windows against the Fraction code, on
    seeded generator instances, with the classifiers' budgets and budgets
    that sit exactly on a candidate distance; the labels of all triples of
    a space come from one bulk call."""
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
    by_space = {}
    for sp, (x, y, z), budget in triples:
        exact = sp.distance(x, y.ancestor(rng.randint(0, y.depth)))
        by_space.setdefault(sp, []).extend(((x, y, z), b)
                                           for b in (budget, exact, exact * 3, Fraction(0)))
    checked = 0
    for sp, cases in by_space.items():
        for (triple, budget), got in zip(cases, _bulk_labels(sp, cases)):
            assert got == old_certify_labels(sp, *triple, budget)
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


def _exclusion_outcome(sp, triple, labels):
    try:
        old_check_exclusions(sp, *triple, labels)
    except InvariantViolated as exc:
        return str(exc)
    return None


def _bulk_exclusion_outcomes(sp, triple, label_sets):
    """The message of the first exclusion each label set breaks, or None,
    from one exclusion_codes call over all of them (nearness times den,
    as Fractions where the label sets hold no multiple of 1/den)."""
    from mconvex.embeddings.bulk import exclusion_codes, exclusion_error
    x, y, z = triple
    m = len(label_sets)
    has = np.array([[l in labels for l in "PTpt"] for labels in label_sets])
    near = np.array([[labels[l][0] * sp.den if l in labels else 0 for l in "PTpt"]
                     for labels in label_sets], dtype=object)
    codes = exclusion_codes(has, near, np.full(m, sp.scaled_distance(x, y)),
                             np.full(m, sp.scaled_distance(z, y)),
                             np.full(m, x == y), np.full(m, z == y))
    return [None if e < 0 else str(exclusion_error(sp, triple, labels, e))
            for labels, e in zip(label_sets, codes.tolist())]


def test_check_exclusions_match_fraction_code():
    """Label sets with nearness on, just below and just above every
    exclusion threshold, including contradictory ones, fail the bulk
    exclusion masks exactly when, and with the message, the Fraction code
    raised."""
    rng = random.Random(78)
    raised = passed = 0
    for _ in range(40):
        sp, x, y, z = gen_midpoint(rng, Fraction(1, 32))
        for triple in ((x, y, z), (x, x, z), (x, z, z)):
            a, b, c = triple
            bounds = [sp.distance(a, b) / k for k in (5, 11)] + [sp.distance(c, b) / 5]
            nears = [n + e for n in bounds for e in (0, Fraction(-1, sp.den), Fraction(1, sp.den))]
            label_sets = [{l: (rng.choice(nears), (a, b, c))
                           for l in rng.sample("PTpt", rng.randint(2, 4))} for _ in range(12)]
            expected = [_exclusion_outcome(sp, triple, labels) for labels in label_sets]
            assert _bulk_exclusion_outcomes(sp, triple, label_sets) == expected
            raised += sum(e is not None for e in expected)
            passed += sum(e is None for e in expected)
    assert raised >= 100 and passed >= 100
    # a contradictory label set: path- and tent-type both within d(x, y) / 5
    sp = make_space(Fraction(1, 128))
    x = TreeVertex((0,) * 12)
    y = x.ancestor(6)
    bound = sp.distance(x, y) / 5
    bad, good = _bulk_exclusion_outcomes(sp, (x, y, ROOT), [
        {"P": (bound, None), "T": (bound / 2, None)}, {"P": (bound, None), "T": (bound * 2, None)}])
    assert bad.startswith(f"labels P and T both within {bound}: ") and good is None


# ---------------------------------------------------------------------------
# the per-instance classifiers as they were before the bulk ones, kept as the
# differential oracle (on the Fraction labels and exclusions above)
# ---------------------------------------------------------------------------

_VARIANT = {"P": "PathType", "T": "TentType",
            "p": "ReversePathType", "t": "ReverseTentType"}


def old_classify_midpoint(space, x, y, z, delta):
    require_ready(space, delta, Fraction(1, 16), "midpoint classification")
    space.check_depth(x, y, z)
    if not is_midpoint(space, x, y, z, delta):
        raise PreconditionViolated("y is not a delta-approximate midpoint of x, z")
    budget = 3 * Fraction(delta) * space.distance(x, z)
    labels = old_certify_labels(space, x, y, z, budget)
    old_check_exclusions(space, x, y, z, labels)
    if not labels:
        return MidpointClass("Unclassified", None, None, budget, labels)
    best = min(labels, key=lambda l: (labels[l][0], "PTpt".index(l)))
    nearness, witness = labels[best]
    return MidpointClass(_VARIANT[best], witness, nearness, budget, labels)


def old_classify_fork(space, x, y, z, w, delta):
    require_ready(space, delta, Fraction(1, 70), "fork classification")
    space.check_depth(x, y, z, w)
    for prong in (z, w):
        if not is_midpoint(space, x, y, prong, delta):
            raise PreconditionViolated("y must be an approximate midpoint of both prongs")
    delta = Fraction(delta)
    d = space.distance(x, y)
    eta = 7 * delta                      # per-triple certification budget
    cap = 35 * delta * d                 # final nearness cap
    sz = old_certify_labels(space, x, y, z, eta * d)
    sw = old_certify_labels(space, x, y, w, eta * d)
    old_check_exclusions(space, x, y, z, sz)
    old_check_exclusions(space, x, y, w, sw)

    def result(variant, lz, lw, extra=None):
        nz, wz = lz
        nw, ww = lw
        n = max(nz, nw)
        check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
        return ForkClass(variant, (wz, ww), n, cap, prong_bound=extra)

    if "T" in sz and "T" in sw:
        return result("I", sz["T"], sw["T"])
    if "P" in sz and "P" in sw:
        return result("II", sz["P"], sw["P"])
    if "p" in sz and "T" in sw:
        return result("III", sz["p"], sw["T"])
    if "T" in sz and "p" in sw:
        return result("III", sw["p"], sz["T"])
    if "p" in sz and "t" in sw:
        return result("IV", sz["p"], sw["t"])
    if "t" in sz and "p" in sw:
        return result("IV", sw["p"], sz["t"])
    if ("p" in sz and "p" in sw) or ("t" in sz and "t" in sw):
        h0 = min(x.depth, y.depth, z.depth, w.depth)
        bound = 2 * (35 * delta + space.eps[h0]) * d
        dzw = space.distance(z, w)
        check(dzw <= bound, "contracted prongs %s apart, above %s", dzw, bound)
        key = "p" if ("p" in sz and "p" in sw) else "t"
        return result("ProngsContracted", sz[key], sw[key], extra=bound)
    for sa, sb, wb, swap in ((sz, sw, w, False), (sw, sz, z, True)):
        if "P" in sa and "t" in sb:
            n_p, (xp, yp, _) = sa["P"]
            best = _promote_path(space, xp, yp, wb, cap)
            if best is not None:
                n_b, bar = best
                n = max(n_p, sb["t"][0], n_b)
                check(n <= cap, "promoted fork: nearness %s above cap %s", n, cap)
                wit_a = sa["P"][1]
                wit_b = (xp, yp, bar)
                wits = (wit_a, wit_b) if not swap else (wit_b, wit_a)
                return ForkClass("II", wits, n, cap)
    return ForkClass("Unclassified", None, None, cap)


def old_classify_3path(space, x0, x1, x2, x3, delta):
    require_ready(space, delta, Fraction(1, 200), "3-path classification")
    pts = (x0, x1, x2, x3)
    space.check_depth(*pts)
    scale = path_scale_range(space, pts, delta)
    delta = Fraction(delta)
    d01 = space.distance(x0, x1)
    budget = 8 * delta * d01
    cap = 35 * delta * d01
    s1 = old_certify_labels(space, x0, x1, x2, budget)
    s2 = old_certify_labels(space, x1, x2, x3, budget)
    old_check_exclusions(space, x0, x1, x2, s1)
    old_check_exclusions(space, x1, x2, x3, s2)

    def result(variant, l1, l2):
        n = max(l1[0], l2[0])
        check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
        return ThreePathClass(variant, (l1[1], l2[1]), n, cap, scale)

    combos = (
        ("A", s1, "P", s2, "P"),
        ("B", s1, "P", s2, "t"),
        ("C", s1, "p", s2, "T"),
        ("ReverseA", s2, "p", s1, "p"),
        ("ReverseB", s2, "p", s1, "T"),
        ("ReverseC", s2, "P", s1, "t"),
    )
    for variant, sa, la, sb, lb in combos:
        if la in sa and lb in sb:
            return result(variant, sa[la], sb[lb])
    for variant, sa, la, sb, lb, far in (
            ("C", s1, "T", s2, "T", x0),
            ("ReverseC", s2, "t", s1, "t", x3)):
        if la in sa and lb in sb:
            n_b, (a2, b2, _) = sb[lb]
            best = _promote_path(space, b2, a2, far, cap)
            if best is not None:
                n_f, far_w = best
                n = max(sa[la][0], n_b, n_f)
                check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
                path_wit = (b2, a2, far_w)
                return ThreePathClass(variant, (path_wit, sb[lb][1]), n, cap, scale)
    return ThreePathClass("Unclassified", None, None, cap, scale)


# per kind: the generator, the bulk classifier, the oracle, and the deltas
# compared: the CLI's, as a Fraction and as a float, and 0.001
KINDS = {"midpoint": (gen_midpoint, classify_midpoints, old_classify_midpoint,
                      (Fraction(1, 32), 0.03125, 0.001)),
         "fork": (gen_fork, classify_forks, old_classify_fork,
                  (Fraction(1, 128), 0.0078125, 0.001)),
         "3path": (gen_3path, classify_3paths, old_classify_3path,
                   (Fraction(1, 256), 0.00390625, 0.001))}


def _by_space(instances):
    groups = {}
    for sp, *pts in instances:
        groups.setdefault(sp, []).append(pts)
    return groups


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_bulk_classifiers_match_the_per_instance_code(kind):
    """Every field of every class, on 1,000 seeded instances per delta, a
    float delta keeping is_midpoint's float comparison; the one-row calls
    agree too."""
    gen, bulk, oracle, deltas = KINDS[kind]
    one_row = {"midpoint": classify_midpoint, "fork": classify_fork, "3path": classify_3path}[kind]
    for delta in deltas:
        rng = random.Random(31)
        seen = set()
        for sp, rows in _by_space([gen(rng, delta) for _ in range(1000)]).items():
            got = bulk(sp, rows, delta)
            assert len(got) == len(rows)
            for pts, variant, out in zip(rows, got.variants, got):
                old = oracle(sp, *pts, delta)
                assert type(out) is type(old) and vars(out) == vars(old)
                assert variant == old.variant
                seen.add(variant)
            assert vars(one_row(sp, *rows[-1], delta)) == vars(got[-1])
        assert len(seen) >= 2 and "Unclassified" not in seen


def test_bulk_classifiers_decide_clean_rows_on_arrays(monkeypatch):
    # at an exact delta, a row that passes every check and reaches no
    # promotion makes no per-row call: its variant is read off the arrays
    from mconvex.embeddings import classify
    calls = []
    for name in ("is_midpoint", "path_scale_range", "_promote_path"):
        monkeypatch.setattr(classify, name, lambda *a, name=name: calls.append(name))
    for gen, bulk, _, deltas in KINDS.values():
        rng = random.Random(8)
        for sp, rows in _by_space([gen(rng, deltas[0]) for _ in range(300)]).items():
            assert "Unclassified" not in bulk(sp, rows, deltas[0]).variants
    assert calls == []


def _outcome(call):
    try:
        call()
    except Exception as exc:        # noqa: BLE001 -- compared by type and message
        return type(exc), str(exc)
    return None


def test_bulk_raises_the_error_of_the_first_failing_row():
    """A batch raises what the per-instance loop raises first: a failing
    check of an earlier row before a later row's, a vertex past the space's
    depth included."""
    sp = make_space(Fraction(1, 128), depth=20)
    x = TreeVertex((0,) * 12)
    deep = TreeVertex((1,) * 21)
    good = (x, x.ancestor(6), ROOT)
    off = (x, x.ancestor(1), ROOT)              # not a midpoint
    same = (x, x.ancestor(6), x)                # x == z
    for rows in ([good, off, (deep, x, ROOT)], [good, (deep, x, ROOT), off],
                 [good, same, off], [off, same], [good, good]):
        for delta in (Fraction(1, 32), 0.03125, Fraction(1, 16)):
            expected = next(filter(None, (_outcome(lambda r=r: old_classify_midpoint(sp, *r, delta))
                                          for r in rows)), None)
            assert _outcome(lambda: classify_midpoints(sp, rows, delta)) == expected
    line = TreeVertex((0, 1) * 9)
    path = (line, line.ancestor(12), line.ancestor(6), ROOT)
    bent = (ROOT, TreeVertex((0,)), TreeVertex((1,)), TreeVertex((0, 0)))   # no scale
    y = TreeVertex((0,) * 6)
    fork = (ROOT, y, y.descend((0,) + (1,) * 5), y.descend((1,) + (0,) * 5))
    far = fork[:3] + (TreeVertex((1,) * 12),)     # y is no midpoint of (x, w)
    loop = fork[:3] + (ROOT,)                      # x == w
    cases = [(classify_3paths, old_classify_3path, [path, bent, path[::-1]]),
             (classify_3paths, old_classify_3path, [path, (deep,) + path[1:], bent]),
             (classify_3paths, old_classify_3path, [path[::-1], bent, (deep,) + path[1:]]),
             (classify_forks, old_classify_fork, [fork, far, loop]),
             (classify_forks, old_classify_fork, [fork, loop, far, (deep,) + fork[1:]])]
    for bulk, oracle, rows in cases:
        expected = next(filter(None, (_outcome(lambda r=r: oracle(sp, *r, Fraction(1, 256)))
                                      for r in rows)))
        assert _outcome(lambda: bulk(sp, rows, Fraction(1, 256))) == expected


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
