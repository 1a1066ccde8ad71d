import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mconvex.embeddings.classify import b4_distortion
from mconvex.embeddings.generators import make_space
from mconvex.embeddings.paths import PathMap, path_distortion
from mconvex.embeddings.search import generate_faithful_b4
from mconvex import metric
from mconvex.errors import BadInput, CollapsedPair, OutOfRange, TooLarge
from mconvex.laakso import build_laakso
from mconvex.metric import (DEFAULT_TOL, FiniteMetricSpace, PointMap, _checked_matrix,
                            distortion, distortion_of, is_integral, is_midpoint,
                            midpoint_set, rat_from_str, rat_to_str, triangle_failures,
                            verify_metric)
from mconvex.trees import EpsilonSequence, HTreeSpace, TreeVertex, enumerate_bn, tree_distance
from mconvex.embeddings.generators import random_valid_epsilon


def triangle_count(mat):
    """Number of ordered triples (i, j, k) of a square numpy distance matrix
    with mat[i, k] > mat[i, j] + mat[j, k], summed from triangle_failures."""
    return sum(int(np.count_nonzero(bad)) for _, bad in triangle_failures(mat))


def line_space(n, exact=True):
    conv = Fraction if exact else float
    return FiniteMetricSpace(list(range(n)), lambda a, b: conv(abs(a - b)),
                             exact=exact)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@given(rationals)
def test_rat_roundtrip(q):
    assert rat_from_str(rat_to_str(q)) == q


def test_rat_from_str_accepts_integers():
    assert rat_from_str("7") == 7
    assert rat_from_str("-3/4") == Fraction(-3, 4)
    assert rat_from_str(1.5) == 1.5


def test_rat_from_str_rejects_bad_input():
    for text in ("1/0", "a/2", "1.5/2", ""):
        with pytest.raises(BadInput):
            rat_from_str(text)


def test_is_integral():
    assert is_integral(2) and is_integral(3.0)
    assert not is_integral(2.5) and not is_integral(Fraction(2))


def test_verify_metric_clean():
    rep = verify_metric(line_space(12))
    assert rep.is_metric
    assert rep.mode == "exhaustive"
    assert rep.violations == []


def test_verify_metric_catches_triangle_violation():
    def d(a, b):
        if {a, b} == {0, 2}:
            return Fraction(10)
        return Fraction(abs(a - b))
    rep = verify_metric(FiniteMetricSpace([0, 1, 2], d))
    assert not rep.is_metric
    assert any(v[0] == "triangle" for v in rep.violations)


def test_verify_metric_catches_asymmetry():
    mat = [[0, 1, 2], [5, 0, 1], [2, 1, 0]]
    rep = verify_metric(FiniteMetricSpace.from_matrix([0, 1, 2], mat))
    assert any(v[0] == "symmetry" for v in rep.violations)


def test_verify_metric_numpy_path_matches_loop():
    # every size runs the one numpy kernel over all n^3 ordered triples
    for n in (1, 2, 64, 65, 70):
        rep = verify_metric(line_space(n))
        assert rep.is_metric and (rep.mode, rep.triples_checked) == ("exhaustive", n ** 3)


def test_verify_metric_float_tolerance_on_both_routes():
    # a float line whose end-to-end distance is stretched by 1e-10 relative:
    # within tol = 1e-9 times the largest distance, so a metric at 64 points
    # as at 65; with the default 1e-12 it is not
    for n in (64, 65):
        rows = [[float(abs(i - j)) for j in range(n)] for i in range(n)]
        rows[0][n - 1] = rows[n - 1][0] = (n - 1) * (1 + 1e-10)
        loose = FiniteMetricSpace.from_matrix(range(n), rows, exact=False, tol=1e-9)
        assert verify_metric(loose).violations == []
        strict = FiniteMetricSpace.from_matrix(range(n), rows, exact=False)
        assert len(verify_metric(strict).violations) == 2 * (n - 2)


def test_space_json_roundtrip():
    sp = line_space(5)
    back = FiniteMetricSpace.from_json(sp.to_json())
    for i in range(5):
        for j in range(5):
            assert back.dist(back.points[i], back.points[j]) == sp.dist(i, j)


def test_pointmap_stats_exact():
    src = line_space(4)
    tgt = line_space(8)
    f = PointMap(src, tgt, {i: 2 * i for i in range(4)})
    lip, colip, dist = f.stats()
    assert (lip, colip, dist) == (2, Fraction(1, 2), 1)


def test_pointmap_collapse():
    src = line_space(3)
    f = PointMap(src, src, {0: 0, 1: 0, 2: 1})
    assert math.isinf(f.stats()[2])
    with pytest.raises(CollapsedPair):
        distortion(f, strict=True)


def test_midpoint_set_line():
    sp = line_space(9)
    assert midpoint_set(sp, 0, 8, Fraction(0)) == {4}
    near = midpoint_set(sp, 0, 8, Fraction(1, 4))
    assert {3, 4, 5} <= near and 0 not in near


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10),
       st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_is_midpoint_matches_definition(x, y, z, delta):
    assume(x != z)
    sp = line_space(11)
    half = Fraction(1 + delta) * sp.dist(x, z) / 2
    expected = sp.dist(x, y) <= half and sp.dist(y, z) <= half
    assert is_midpoint(sp, x, y, z, delta) == expected


def old_is_midpoint(space, x, y, z, delta):
    """is_midpoint before its int path, verbatim but for the x == z check."""
    d = space.dist(x, z)
    delta = Fraction(delta) if not isinstance(delta, float) else delta
    bound = (1 + delta) * d / 2
    return max(space.dist(x, y), space.dist(y, z)) <= bound


def test_is_midpoint_scaled_ints_match_fraction_formula():
    rng = random.Random(20261022)
    deltas = [0, Fraction(1, 2), Fraction(1, 32), Fraction(3, 7), Fraction(-1, 4), 1]
    outcomes = {True: 0, False: 0}
    on_bound = 0
    for _ in range(150):
        space = HTreeSpace(random_valid_epsilon(rng, 12), 12)
        verts = deep_vertices(rng, 6, 12)
        for x, y, z in zip(verts, verts[1:] + verts[:1], verts[2:] + verts[:2]):
            for delta in deltas:
                expected = old_is_midpoint(space, x, y, z, delta)
                assert is_midpoint(space, x, y, z, delta) == expected
                outcomes[expected] += 1
        # y on the bound: x 2M below z on one line, y an ancestor of x at
        # depth (1 - delta) M or (1 + delta) M, the last ancestor one step past
        M, delta = 2 * rng.randint(1, 3), rng.choice([0, Fraction(1, 2)])
        x = TreeVertex(tuple(rng.randrange(2) for _ in range(2 * M)))
        z = x.ancestor(0)
        for j in {int((1 - delta) * M), int((1 + delta) * M)}:
            dist = space.dist
            assert max(dist(x, x.ancestor(j)), dist(x.ancestor(j), z)) == \
                (1 + delta) * dist(x, z) / 2
            assert is_midpoint(space, x, x.ancestor(j), z, delta)
            assert old_is_midpoint(space, x, x.ancestor(j), z, delta)
            on_bound += 1
        assert not is_midpoint(space, x, x.ancestor(int((1 + delta) * M) + 1), z, delta)
    assert outcomes[True] >= 100 and outcomes[False] >= 100 and on_bound >= 150
    # the int path also serves a FiniteMetricSpace with scaled distances, and
    # a float delta keeps the float formula
    ms = space.as_metric_space(verts)
    for y in verts:
        for delta in deltas + [0.5, 0.1]:
            assert is_midpoint(ms, verts[0], y, verts[1], delta) == \
                old_is_midpoint(space, verts[0], y, verts[1], delta)


# ---------------------------------------------------------------------------
# the distortion kernel against the lip/colip loops it replaced
# ---------------------------------------------------------------------------

def old_stats(f):
    """The PointMap.stats loop before distortion_of, verbatim."""
    lip = 0
    colip = 0
    collapsed = False
    pts = f.source.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            ds = f.source.dist(pts[i], pts[j])
            if ds == 0:
                raise ValueError("source distances must be positive off-diagonal")
            dt = f.target.dist(f(pts[i]), f(pts[j]))
            if dt == 0:
                collapsed = True
                continue
            if isinstance(dt, (int, Fraction)) and isinstance(ds, (int, Fraction)):
                ratio = Fraction(dt) / Fraction(ds)
            else:
                ratio = float(dt) / float(ds)
            if ratio > lip:
                lip = ratio
            inv = 1 / ratio
            if inv > colip:
                colip = inv
    if collapsed:
        return (lip, colip, math.inf)
    return (lip, colip, lip * colip)


def old_htree_distance(space, x, y):
    """HTreeSpace.distance before integer scaling, verbatim: d_eps in Fractions."""
    space.check_depth(x, y)
    hx, hy = x.depth, y.depth
    m = min(hx, hy)
    return abs(hy - hx) + 2 * space.eps[m] * (m - x.lca_depth(y))


def old_b4_distortion(space, images):
    """The B_4 search loop before distortion_of, verbatim, on the Fraction
    distances of old_htree_distance."""
    verts = enumerate_bn(4)
    lip = 0
    colip = 0
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            dx = old_htree_distance(space, images[a], images[b])
            if dx == 0:
                return math.inf
            r = Fraction(dx) / tree_distance(a, b)
            lip = max(lip, r)
            colip = max(colip, 1 / r)
    return lip * colip


def old_path_distortion(f):
    """The path-map loop before distortion_of, verbatim."""
    lip = 0
    colip = 0
    for i in range(f.n + 1):
        for j in range(i + 1, f.n + 1):
            dt = f.target.dist(f(i), f(j))
            if dt == 0:
                return math.inf
            ratio = (Fraction(dt) / (j - i)
                     if isinstance(dt, (int, Fraction)) else float(dt) / (j - i))
            lip = max(lip, ratio)
            colip = max(colip, 1 / ratio)
    return lip * colip


def assert_identical(new, old):
    """Equal values of the same types, component by component."""
    if not isinstance(new, tuple):
        new, old = (new,), (old,)
    assert [type(v) for v in new] == [type(v) for v in old]
    assert new == old


def random_distance(rng, zero_prob):
    """A positive distance that is an int, a Fraction or a float (or 0)."""
    if rng.random() < zero_prob:
        return 0
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(1, 6)
    if kind == 1:
        return Fraction(rng.randint(1, 40), rng.randint(1, 12))
    return rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 9.0)])


def random_point_map(rng, mode):
    """A PointMap between random (not necessarily metric) distance tables;
    mode "exact", "float" or "mixed" picks the number types."""
    n = rng.randint(1, 8)
    pts = list(range(n))

    def table(zero_prob):
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = random_distance(rng, zero_prob)
                if mode == "exact" and isinstance(d, float):
                    d = Fraction(rng.randint(1, 9), rng.randint(1, 4))
                if mode == "float":
                    d = float(d)
                mat[i][j] = mat[j][i] = d
        return FiniteMetricSpace.from_matrix(pts, mat, exact=mode == "exact")

    source = table(0)
    target = table(rng.choice([0, 0, 0.1]))
    return PointMap(source, target, {p: p for p in pts})


def test_distortion_of_matches_old_loops_on_seeded_maps():
    rng = random.Random(20261017)
    checked = collapsed = 0
    # nested faithful B_4 maps, sibling collisions included
    for _ in range(300):
        space = make_space(Fraction(1, rng.choice([4, 5, 7, 12])), depth=60)
        images = generate_faithful_b4(space, rng, collide_prob=0.05)
        old = old_b4_distortion(space, images)
        assert_identical(b4_distortion(space, images), old)
        collapsed += old == math.inf
        verts = enumerate_bn(4)
        f = PointMap(FiniteMetricSpace(verts, tree_distance), space, images)
        assert_identical(f.stats(), old_stats(f))
        checked += 1
    assert 0 < collapsed < 300
    # exact, float and mixed point maps between small tables
    for i in range(400):
        f = random_point_map(rng, ("exact", "float", "mixed")[i % 3])
        assert_identical(f.stats(), old_stats(f))
        checked += 1
    # path maps into the line, exact and float, with collapses
    for i in range(300):
        n = rng.randint(0, 9)
        conv = Fraction if i % 2 else float
        vals = [conv(rng.randint(-6, 6)) / rng.choice([1, 2, 3]) for _ in range(n + 1)]
        line = FiniteMetricSpace(vals, lambda a, b: abs(a - b), exact=conv is Fraction)
        p = PathMap(n, line, vals)
        assert_identical(path_distortion(p), old_path_distortion(p))
        steps = FiniteMetricSpace(range(n + 1), lambda a, b: abs(a - b))
        f = PointMap(steps, line, dict(enumerate(vals)))
        assert_identical(f.stats(), old_stats(f))
        checked += 1
    assert checked == 1000


def test_numpy_matrix_scales_exactly():
    rows = [[0, Fraction(3, 4), 2], [Fraction(3, 4), 0, Fraction(5, 6)], [2, Fraction(5, 6), 0]]
    mat, tol = _checked_matrix(FiniteMetricSpace.from_matrix(range(3), rows))
    assert tol == 0 and mat.dtype == np.int64
    assert mat.tolist() == [[int(d * 12) for d in row] for row in rows]
    assert np.array_equal(mat, old_numpy_matrix(rows, True)[0])
    # past 2^61 the same ints (here over 3), in an object array
    wide = [[d * 2 ** 62 for d in row] for row in rows]
    mat, tol = _checked_matrix(FiniteMetricSpace.from_matrix(range(3), wide))
    assert tol == 0 and mat.dtype == object
    assert mat.tolist() == [[int(d * 3) for d in row] for row in wide]
    assert old_numpy_matrix(wide, True) is None
    # floats, also in a space flagged exact, with tol relative to the largest
    for exact in (True, False):
        mixed = [[0, 0.75, 2], [0.75, 0, Fraction(5, 6)], [2, Fraction(5, 6), 0]]
        space = FiniteMetricSpace.from_matrix(range(3), mixed, exact=exact, tol=1e-9)
        mat, tol = _checked_matrix(space)
        assert mat.dtype == np.float64 and tol == 2e-9
        assert mat.tolist() == [[float(d) for d in row] for row in mixed]


def old_checked_matrix(space):
    """_checked_matrix before its one type pass, verbatim: an isinstance
    scan, the set of denominators and a scaling comprehension."""
    if space._scaled_matrix is not None:
        try:
            return space._scaled_matrix(), 0
        except TooLarge:
            pass
    rows = space.distance_matrix()
    if space.exact and all(isinstance(d, (int, Fraction)) for row in rows for d in row):
        den = math.lcm(*{d.denominator for row in rows for d in row})
        scaled = [[d.numerator * (den // d.denominator) for d in row] for row in rows]
        fits = max(max(map(abs, row)) for row in scaled) <= 2 ** 61
        return np.array(scaled, dtype=np.int64 if fits else object), 0
    mat = np.array([[metric.to_float(d, "a distance") for d in row] for row in rows],
                   dtype=np.float64)
    return mat, space.tol * max(1.0, float(mat.max()))


def test_checked_matrix_matches_the_three_pass_code():
    # int, Fraction, mixed, bool and float rows, in spaces flagged exact or
    # not, and ints on both sides of the int64/object boundary at 2^61
    def line(scale, shift=0):
        return [[abs(i - j) * scale + shift * (i != j) for j in range(4)] for i in range(4)]

    matrices = [line(1), line(3), line(Fraction(3, 4)), line(Fraction(1, 3), 1), line(0.5),
                [[0, Fraction(3, 4), 2], [Fraction(3, 4), 0, 0.25], [2, 0.25, 0]],
                [[False, True], [True, False]], line(1, 2 ** 61 - 3), line(1, 2 ** 61 - 2),
                line(-1, -2 ** 61 + 3), line(-1, -2 ** 61 + 2), line(1, 2 ** 63),
                line(1, 2 ** 70), line(Fraction(1, 2), 2 ** 60), line(1)[:1]]
    for rows in matrices:
        for exact in (True, False):
            space = FiniteMetricSpace.from_matrix(range(len(rows)), rows, exact=exact)
            (mat, tol), (old, old_tol) = _checked_matrix(space), old_checked_matrix(space)
            assert (mat.dtype, mat.shape, tol) == (old.dtype, old.shape, old_tol)
            assert mat.tolist() == old.tolist()
            assert [type(v) for v in mat.ravel()] == [type(v) for v in old.ravel()]
    dtypes = [_checked_matrix(FiniteMetricSpace.from_matrix(range(4), line(1, shift)))[0].dtype
              for shift in (2 ** 61 - 3, 2 ** 61 - 2)]
    assert dtypes == [np.int64, object]


def test_verify_metric_exact_distance_past_the_float_range():
    # a space not flagged exact is checked in float64: an exact distance past
    # the float range is OutOfRange, not an OverflowError
    huge = Fraction(10 ** 400)
    space = FiniteMetricSpace.from_matrix(range(3), [[0, 1, huge], [1, 0, 1], [huge, 1, 0]],
                                          exact=False)
    with pytest.raises(OutOfRange, match="float range"):
        verify_metric(space)
    # flagged exact, the same distances are compared exactly
    exact = FiniteMetricSpace.from_matrix(range(3), space.distance_matrix())
    assert [v[0] for v in verify_metric(exact).violations] == ["triangle"] * 2


def test_distortion_of_edge_cases():
    assert distortion_of([]) == (0, 0, 0)
    assert distortion_of([(2, 0)]) == (0, 0, math.inf)
    assert distortion_of([(1, 2), (2, 1)]) == (2, 2, 4)
    with pytest.raises(ValueError):
        distortion_of([(0, 1)])


def test_triangle_violations_counts_ordered_triples():
    # the line 0..3 with d(0, 3) stretched to 7: (0, j, 3) and (3, j, 0)
    # break the triangle inequality for j = 1, 2
    mat = np.array([[0, 1, 2, 7],
                    [1, 0, 1, 2],
                    [2, 1, 0, 1],
                    [7, 2, 1, 0]])
    brute = sum(mat[i, k] > mat[i, j] + mat[j, k]
                for i in range(4) for j in range(4) for k in range(4))
    assert triangle_count(mat) == brute == 4
    assert triangle_count(np.abs(np.subtract.outer(range(6), range(6)))) == 0


# ---------------------------------------------------------------------------
# the triangle kernel against brute force, and verify_metric against its old loops
# ---------------------------------------------------------------------------

def brute_failures(rows, tol):
    """[(k, [(i, j), ...])] with rows[i][j] > rows[i][k] + rows[k][j] + tol,
    in Python numbers, in the kernel's order."""
    n = len(rows)
    out = []
    for k in range(n):
        bad = [(i, j) for i in range(n) for j in range(n)
               if rows[i][j] > rows[i][k] + rows[k][j] + tol]
        if bad:
            out.append((k, bad))
    return out


def kernel_failures(mat, tol):
    return [(k, [(int(i), int(j)) for i, j in zip(*bad.nonzero())])
            for k, bad in triangle_failures(mat, tol)]


# (max |entry|, tol): 2 * max + |tol| at each edge of int16 and int32
DTYPE_EDGES = [(2 ** 14 - 1, 1), (2 ** 14 - 1, -1), (2 ** 14, 0),
               (2 ** 30 - 1, 1), (2 ** 30 - 1, -1), (2 ** 30, 0), (2 ** 40, 0)]


@pytest.mark.parametrize("big, tol", DTYPE_EDGES)
def test_triangle_failures_exact_at_dtype_edges(big, tol):
    rng = random.Random(big + tol)
    pool = [big, big, big - 1, big // 2, 1, 0, 0, -1, -big // 2, -big]
    found = 0
    for _ in range(40):
        n = rng.randint(2, 7)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        mat = np.array(rows, dtype=np.int64)
        expected = brute_failures(rows, tol)
        assert kernel_failures(mat, tol) == expected
        if tol == 0:
            assert triangle_count(mat) == sum(len(bad) for _, bad in expected)
        found += bool(expected)
    assert found


def test_triangle_failures_float_with_tol():
    rng = random.Random(11)
    for trial in range(60):
        n = rng.randint(2, 8)
        rows = [[rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(-1, 3)]) for _ in range(n)]
                for _ in range(n)]
        mat = np.array(rows)
        tol = (0, 0.25, 1e-12 * max(1.0, float(mat.max())))[trial % 3]
        assert kernel_failures(mat, tol) == brute_failures(rows, tol)


def per_k_failures(mat, tol):
    """triangle_failures before its one-pass certificate, verbatim: the
    per-k scan, as kernel_failures lists it."""
    out = []
    n = len(mat)
    if n == 0:
        return out
    if mat.dtype.kind in "iu":
        mat = mat.astype(metric.narrowest_int(2 * max(int(mat.max()), -int(mat.min())) + abs(tol)))
    total = np.empty_like(mat)
    bad = np.empty(mat.shape, dtype=bool)
    for k in range(n):
        np.add(mat[:, k, None], mat[None, k, :], out=total)
        if tol:
            total += tol
        np.greater(mat, total, out=bad)
        if bad.any():
            out.append((k, [(int(i), int(j)) for i, j in zip(*bad.nonzero())]))
    return out


# (dtype, scale): scaled line metrics that the kernel keeps in int16, int32,
# int64, Python ints (an object array) and float64
KERNEL_DTYPES = [(np.int64, 1), (np.int64, 2 ** 12), (np.int64, 2 ** 40), (object, 2 ** 70),
                 (np.float64, 0.125)]


def line_rows(rng, n, scale):
    """The distance rows of n random points of {0, ..., 50} on a line, times scale."""
    xs = [rng.randint(0, 50) for _ in range(n)]
    return [[abs(a - b) * scale for b in xs] for a in xs]


@pytest.mark.parametrize("dtype, scale", KERNEL_DTYPES)
def test_triangle_failures_match_the_per_k_scan(dtype, scale):
    # clean matrices (the one-pass certificate yields nothing) and matrices
    # with violations injected (the per-k scan's (k, bad) in its order)
    rng = random.Random(repr((dtype, scale)))
    found = clean = 0
    for trial in range(40):
        n = rng.randint(1, 24)
        rows = line_rows(rng, n, scale)
        for _ in range(rng.choice([0, 0, 1, 3])):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] += rng.choice([1, 2, 60]) * scale
        if dtype is np.float64:
            if trial % 5 == 0:
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice([math.nan, math.inf])
            tol = (0, scale, 1e-12)[trial % 3]
        else:
            tol = rng.choice([0, 0, scale, -scale])
        mat = np.array(rows, dtype=dtype)
        expected = per_k_failures(mat, tol)
        assert kernel_failures(mat, tol) == expected, trial
        found += bool(expected)
        clean += not expected
    assert found >= 5 and clean >= 5

    # every size at and around the edges of the one pass's row blocks (n/2,
    # 3n/4), clean and dirty (symmetric: one pass), and asymmetric matrices
    # whose violations all lie strictly below the diagonal: only the pass on
    # mat.T sees those (not at n = 301, where each listing costs seconds on
    # Python ints)
    dirty = {"dirty": 0, "lower": 0}
    for n in [*range(2, 10), *range(63, 67), 301]:
        for kind in ("clean", "dirty", "lower")[:2 if n > 100 else 3]:
            rows = line_rows(rng, n, scale)
            for _ in range(0 if kind == "clean" else rng.choice([1, 3])):
                i, j = sorted((rng.randrange(n), rng.randrange(n)))
                step = rng.choice([2, 60]) * scale
                if kind == "dirty":
                    rows[i][j] += step
                if i < j:
                    rows[j][i] += step
            tol = rng.choice([0, scale] if dtype is not np.float64 else [0, scale, 1e-12])
            mat = np.array(rows, dtype=dtype)
            expected = per_k_failures(mat, tol)
            assert kernel_failures(mat, tol) == expected, (n, kind)
            if kind == "clean":
                assert expected == []
            else:
                dirty[kind] += bool(expected)
            if kind == "dirty":
                assert np.array_equal(mat, mat.T)
            if kind == "lower":
                assert all(i > j for _, bad in expected for i, j in bad)
    assert min(dirty.values()) >= 8

    # a clean symmetric matrix at the benchmark's B_8 size, 511 points
    assert list(triangle_failures(np.array(line_rows(rng, 511, scale), dtype=dtype))) == []


def test_triangle_failures_small_and_clean():
    assert list(triangle_failures(np.zeros((0, 0), dtype=np.int64))) == []
    assert list(triangle_failures(np.zeros((1, 1), dtype=np.int64))) == []
    line = np.abs(np.subtract.outer(range(100), range(100)))
    assert list(triangle_failures(line)) == []
    assert triangle_count(line) == 0 and type(triangle_count(line)) is int


def old_numpy_matrix(rows, exact, tol=DEFAULT_TOL):
    """The numpy route's builder before _checked_matrix, verbatim.

    Returns (matrix, tolerance-matrix-entry) or None when exact scaling fails;
    a float matrix's tolerance entry is the relative `tol` times its largest
    entry (at least 1).
    """
    import numpy as np

    if not exact:
        mat = np.array([[float(d) for d in row] for row in rows], dtype=np.float64)
        return mat, tol * max(1.0, float(mat.max()))
    if not all(isinstance(d, (int, Fraction)) for row in rows for d in row):
        return None
    den = math.lcm(*{d.denominator for row in rows for d in row})
    if den > 10 ** 9:
        return None
    scaled = [[d.numerator * (den // d.denominator) for d in row] for row in rows]
    top = max(max(row) for row in scaled)
    if top > 2 ** 61:
        return None
    return np.array(scaled, dtype=np.int64), 0


def old_hook_matrix(space):
    """The scaled route's builder before _checked_matrix, verbatim: the
    space's scaled_matrix hook, else (or where it raises TooLarge) the
    per-pair fill of old_scaled_matrix; None past 2^61."""
    import numpy as np

    if space.den is None:
        return None
    if space._scaled_matrix is not None:
        try:
            return space._scaled_matrix(), 0
        except TooLarge:
            pass
    pts = space.points
    scaled = space.scaled_distance
    n = len(pts)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        x, row = pts[i], rows[i]
        for j in range(i + 1, n):
            row[j] = rows[j][i] = scaled(x, pts[j])
    if max(max(map(abs, row)) for row in rows) > 2 ** 61:
        return None
    return np.array(rows, dtype=np.int64), 0


def old_integer_axioms_hold(mat):
    """The axiom check of the old numpy route, verbatim."""
    import numpy as np

    return (mat.dtype.kind == "i" and not mat.diagonal().any()
            and np.array_equal(mat, mat.T) and not (mat < 0).any())


def old_verify_metric(space, seed=0):
    """verify_metric before _checked_matrix, verbatim: the scalar loops up to
    64 points (and wherever no matrix was built), the numpy route from 65."""
    pts = space.points
    n = len(pts)
    if n < 1:
        raise ValueError("space must have at least one point")
    violations = []
    tol = 0 if space.exact else space.tol
    as_np = None
    if 64 < n <= metric.EXHAUSTIVE_LIMIT:
        as_np = (old_hook_matrix(space)
                 or old_numpy_matrix(space.distance_matrix(), space.exact, space.tol))
    if as_np is None or not old_integer_axioms_hold(as_np[0]):
        rows = space.distance_matrix()
        for i in range(n):
            if rows[i][i] != 0:
                violations.append(("diagonal", pts[i]))
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    violations.append(("symmetry", pts[i], pts[j]))
                if rows[i][j] < 0:
                    violations.append(("negative", pts[i], pts[j]))

    def tri_bad(a, b, c):
        # d(a,c) <= d(a,b) + d(b,c), with relative slack in floating mode
        lhs = rows[a][c]
        rhs = rows[a][b] + rows[b][c]
        if tol:
            return lhs > rhs + tol * max(abs(lhs), abs(rhs), 1.0)
        return lhs > rhs

    if n <= metric.EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        checked = 0
        if as_np is not None:
            mat, np_tol = as_np
            checked = n * n * n
            for k, bad in triangle_failures(mat, np_tol):
                for i, j in zip(*bad.nonzero()):
                    violations.append(("triangle", pts[i], pts[k], pts[j]))
        else:
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    for k in range(n):
                        if k == i or k == j:
                            continue
                        checked += 1
                        if tri_bad(i, j, k):
                            violations.append(("triangle", pts[i], pts[j], pts[k]))
    else:
        mode = "sampled"
        rng = random.Random(seed)
        checked = metric.SAMPLED_TRIPLES
        for _ in range(metric.SAMPLED_TRIPLES):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if tri_bad(i, j, k):
                violations.append(("triangle", pts[i], pts[j], pts[k]))
    return metric.MetricReport(violations, mode, checked)


def old_took_numpy_route(space):
    """Whether old_verify_metric checked the triangles of `space` in numpy."""
    n = len(space)
    return 64 < n <= metric.EXHAUSTIVE_LIMIT and (
        old_hook_matrix(space)
        or old_numpy_matrix(space.distance_matrix(), space.exact, space.tol)) is not None


def old_verify_violations(space):
    """The violation list of verify_metric's numpy route (n > 64) before
    triangle_failures, verbatim: the scalar axiom loop, then the numpy loop."""
    pts = space.points
    n = len(pts)
    violations = []
    rows = space.distance_matrix()

    for i in range(n):
        if rows[i][i] != 0:
            violations.append(("diagonal", pts[i]))
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                violations.append(("symmetry", pts[i], pts[j]))
            if rows[i][j] < 0:
                violations.append(("negative", pts[i], pts[j]))

    as_np = old_numpy_matrix(rows, space.exact)
    if as_np is not None:
        mat, np_tol = as_np
        for k in range(n):
            bad = mat > mat[:, k][:, None] + mat[k, :][None, :] + np_tol
            if bad.any():
                for i, j in zip(*bad.nonzero()):
                    violations.append(("triangle", pts[i], pts[k], pts[j]))
    return violations


def without_hook(space):
    """The same space with no scaled_matrix hook: _checked_matrix reads its
    distance_matrix()."""
    plain = copy.copy(space)
    plain._scaled_matrix = None
    return plain


def same_up_to_scale(a, b):
    """Whether two numpy distance matrices (int64 or object) are positive
    multiples of one another."""
    a, b = a.astype(object), b.astype(object)
    e = np.flatnonzero(a)[0]
    return a.flat[e] * b.flat[e] > 0 and np.array_equal(a * b.flat[e], b * a.flat[e])


def corrupt(rng, rows, faults):
    """Apply the named faults to random entries of a square matrix in place."""
    n = len(rows)
    for fault in faults:
        i, j = rng.sample(range(n), 2)
        d = rows[i][j]
        if fault == "diagonal":
            rows[i][i] = d / 3 if isinstance(d, float) else Fraction(d, 3)
        elif fault == "symmetry":
            rows[i][j] = d + Fraction(1, 7)
        elif fault == "negative":
            rows[i][j] = rows[j][i] = -d
        else:  # triangle: stretch one pair far beyond any detour
            rows[i][j] = rows[j][i] = 5 * d + 3


FAULT_KINDS = ["diagonal", "symmetry", "negative", "triangle"]


def corrupted_tree_space(rng, n, faults, exact=True, number=None):
    """n random points of B_6 under a random valid d_eps, as a matrix with
    the given faults, flagged exact or not (then checked in floats).  The
    entries are the Fraction distances, or with number=int the ints den *
    d_eps, with number=float the floats d_eps."""
    space = HTreeSpace(random_valid_epsilon(rng, 8), 8)
    verts = rng.sample(enumerate_bn(6), n)
    convert = {None: Fraction, int: lambda d: int(d * space.den), float: float}[number]
    rows = [[convert(d) for d in row] for row in space.as_metric_space(verts).distance_matrix()]
    corrupt(rng, rows, faults)
    return FiniteMetricSpace.from_matrix(verts, rows, exact=exact)


def test_verify_metric_matches_old_loops_on_corrupted_matrices():
    rng = random.Random(20261018)
    seen = set()
    for trial in range(48):
        faults = ([] if trial % 8 == 0 else [FAULT_KINDS[trial % 4]] if trial % 8 < 5
                  else rng.sample(FAULT_KINDS, rng.randint(2, 4)))
        # every 6th space in floating mode: a float matrix, checked with a tolerance
        fms = corrupted_tree_space(rng, rng.randint(65, 127), faults, exact=trial % 6 != 5)
        rep = verify_metric(fms)
        expected = old_verify_violations(fms)
        assert rep.violations == expected
        assert (rep.mode, rep.triples_checked) == ("exhaustive", len(fms) ** 3)
        seen.update(v[0] for v in expected)
        if not faults:
            assert expected == []
    assert seen == {"diagonal", "symmetry", "negative", "triangle"}


def is_degenerate(violation):
    """Whether a violation is a triangle with two equal points."""
    return violation[0] == "triangle" and len(set(violation[1:])) < 3


def assert_matches_old_verify(space):
    """verify_metric against old_verify_metric: the same list in value and
    order where the old one took its numpy route (n > 64), else the same
    multiset once the degenerate triangles (which the old scalar loop
    skipped) are dropped; degenerate triangles only where an axiom fails.
    Returns the violations."""
    rep, old = verify_metric(space), old_verify_metric(space)
    n = len(space)
    assert (rep.mode, rep.triples_checked) == ("exhaustive", n ** 3)
    kept = [v for v in rep.violations if not is_degenerate(v)]
    if old_took_numpy_route(space):
        assert rep.violations == old.violations
    else:
        assert sorted(map(repr, kept)) == sorted(map(repr, old.violations))
    if len(kept) < len(rep.violations):
        assert any(v[0] != "triangle" for v in rep.violations)
    return rep.violations


def test_verify_metric_one_route_matches_old_routes():
    # at least 200 seeded spaces on every old route: the scalar loops up to
    # 64 points, the numpy route from 65, and the scalar fallback where the
    # old builders declined (denominators past 10^9, ints past 2^61)
    # (the old scalar loop is slow on Fractions, so from 25 to 64 points the
    # exact matrices hold the ints den * d_eps)
    rng = random.Random(20261024)
    spaces = []
    for n in range(3, 128):
        faults = ([] if n % 5 == 0 else [FAULT_KINDS[n % 4]] if n % 5 < 4
                  else rng.sample(FAULT_KINDS, rng.randint(2, 4)))
        number = (float, int, None if n < 25 or n > 64 else int)[n % 3]
        spaces.append(corrupted_tree_space(rng, n, faults, number is not float, number))
    for n in range(60):
        faults = [FAULT_KINDS[n % 4]] * (n % 3)
        spaces.append(corrupted_tree_space(rng, rng.randint(3, 12), faults, n % 2 == 0))
    # unchecked schedules: increasing eps breaks the triangle inequality,
    # negative eps the sign
    for vals in ([Fraction(1, 8)] * 4 + [Fraction(1, 2)] * 4,
                 [Fraction(1, 3)] * 3 + [Fraction(-1, 5)] * 5,
                 [Fraction(1, 5), Fraction(1, 7), Fraction(1, 4), Fraction(1, 9),
                  Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 11)]):
        space = HTreeSpace(EpsilonSequence(vals, check=False), 7)
        for n in (20, 40, 70):
            spaces.append(space.as_metric_space(rng.sample(enumerate_bn(6), n)))
    # wide primes: a scale past 10^9 (the old numpy route declined it without
    # the hook, 66 points) and ints past 2^61 (an object matrix, 31 points),
    # each also with a stretched pair and a negative one
    for primes, n in (([101, 103, 107, 109, 113, 127, 131], 66),
                      ([10 ** 6 + q for q in (3, 33, 37, 39, 81)], 31)):
        wide = HTreeSpace(EpsilonSequence([Fraction(1, q) for q in primes]), len(primes) - 1)
        ms = wide.as_metric_space(rng.sample(enumerate_bn(len(primes) - 1), n))
        rows = [list(row) for row in ms.distance_matrix()]
        corrupt(rng, rows, ["triangle", "negative"])
        spaces += [ms, FiniteMetricSpace.from_matrix(ms.points, rows)]
    # depth-60 vertices, past the heap-index kernel
    for n in (30, 70):
        for eps in (EpsilonSequence([Fraction(2, 9)] * 65), random_valid_epsilon(rng, 64)):
            spaces.append(HTreeSpace(eps, 64).as_metric_space(deep_vertices(rng, n, 60)))
    # Laakso graphs, and G_2 with faults
    for m in range(4):
        spaces.append(build_laakso(m).as_metric_space())
    ms = build_laakso(2).as_metric_space()
    for exact in (True, False):
        rows = [list(row) for row in ms.distance_matrix()]
        corrupt(rng, rows, FAULT_KINDS)
        spaces.append(FiniteMetricSpace.from_matrix(ms.points, rows, exact=exact))
    assert len(spaces) >= 200
    seen, dtypes = set(), set()
    for space in spaces:
        dtypes.add(_checked_matrix(space)[0].dtype.kind)
        kinds = {v[0] for v in assert_matches_old_verify(space)}
        seen.update((kind, space.exact, len(space) > 64) for kind in kinds)
    assert seen == {(kind, exact, big) for kind in FAULT_KINDS
                    for exact in (True, False) for big in (True, False)}
    assert dtypes == {"i", "f", "O"}


def test_verify_metric_sampled_mode_matches_scalar_draws(monkeypatch):
    # past EXHAUSTIVE_LIMIT the triples are the old scalar loop's draws from
    # random.Random(seed), compared in numpy, in draw order
    monkeypatch.setattr(metric, "EXHAUSTIVE_LIMIT", 40)
    monkeypatch.setattr(metric, "SAMPLED_TRIPLES", 4000)
    rng = random.Random(20261025)
    spaces = [corrupted_tree_space(rng, 60, faults, exact=exact)
              for faults in ([], ["triangle"] * 20, ["negative", "symmetry"] * 5,
                             ["diagonal"] + ["triangle"] * 10)
              for exact in (True, False)]
    increasing = EpsilonSequence([Fraction(1, 8)] * 4 + [Fraction(1, 2)] * 4, check=False)
    spaces.append(HTreeSpace(increasing, 7).as_metric_space(rng.sample(enumerate_bn(6), 50)))
    triangles = 0
    for space in spaces:
        for seed in (0, 7):
            rep = verify_metric(space, seed)
            assert (rep.mode, rep.triples_checked) == ("sampled", 4000)
            assert rep.violations == old_verify_metric(space, seed).violations
            triangles += sum(v[0] == "triangle" for v in rep.violations)
        if any(v[0] == "triangle" for v in rep.violations):
            assert verify_metric(space, 0).violations != rep.violations
    assert triangles >= 100


def test_verify_metric_sampled_triples_are_the_randrange_loop(monkeypatch):
    # the triples (i, k, j) are 3 * SAMPLED_TRIPLES scalar randrange(n) calls
    # on random.Random(seed), here across more than one read-ahead of words,
    # so a triangle violation is listed exactly for the triples that loop
    # draws, in its order
    monkeypatch.setattr(metric, "EXHAUSTIVE_LIMIT", 40)
    monkeypatch.setattr(metric, "SAMPLED_TRIPLES", 30_000)
    rng = random.Random(20261019)
    for n in (41, 64, 70):
        space = corrupted_tree_space(rng, n, ["triangle"] * 30, number=int)
        rows = space.distance_matrix()
        for seed in (0, 5):
            draws = random.Random(seed)
            expected = []
            for _ in range(metric.SAMPLED_TRIPLES):
                i, k, j = draws.randrange(n), draws.randrange(n), draws.randrange(n)
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    expected.append(("triangle", space.points[i], space.points[k],
                                     space.points[j]))
            rep = verify_metric(space, seed)
            assert (rep.mode, rep.triples_checked) == ("sampled", 30_000)
            assert rep.violations == expected and expected, (n, seed)


def test_scaled_matrix_equals_numpy_matrix_of_fractions():
    # the hook's int64 matrix is den times the distances, so it is the
    # matrix of the same space without the hook (and of the old Fraction
    # builder, where that did not decline) up to a positive scale; past 2^61
    # both hold the same Python ints in an object array
    rng = random.Random(20261019)
    spaces = []
    for _ in range(12):
        space = HTreeSpace(random_valid_epsilon(rng, 64), 64)
        spaces.append(space.as_metric_space(rng.sample(enumerate_bn(7), rng.randint(65, 200))))
    # denominators whose lcm exceeds 10^9 (the old Fraction builder declined),
    # and one whose scaled ints pass 2^63 (an object matrix)
    for primes in ([101, 103, 107, 109, 113, 127], [1009, 1013, 1019, 1021, 1031, 1033, 1039]):
        wide = HTreeSpace(EpsilonSequence([Fraction(1, q) for q in primes]), len(primes) - 1)
        spaces.append(wide.as_metric_space(enumerate_bn(len(primes) - 1)))
    spaces.append(build_laakso(3).as_metric_space())
    # vertices past the old heap-index kernel's exact range (depth 52): the
    # hook takes them too
    deep = HTreeSpace(EpsilonSequence([Fraction(1, 5)] * 65), 64)
    spaces.append(deep.as_metric_space(deep_vertices(rng, 80, 60)))
    routes = []
    for ms in spaces:
        rows = ms.distance_matrix()
        (mat, tol), (plain, plain_tol) = _checked_matrix(ms), _checked_matrix(without_hook(ms))
        slow = old_numpy_matrix(rows, True)
        try:
            hooked = ms._scaled_matrix is not None and ms._scaled_matrix() is not None
        except TooLarge:
            hooked = False
        routes.append((hooked, mat.dtype.kind, plain.dtype.kind, slow is None))
        assert tol == plain_tol == 0 and same_up_to_scale(mat, plain)
        if hooked:
            assert mat.tolist() == [[d * ms.den for d in row] for row in rows]
        if mat.dtype == object:
            assert mat.tolist() == plain.tolist()
        if slow is not None:
            assert slow[1] == 0 and same_up_to_scale(mat, slow[0])
    # the Laakso space's hook is its hop-count matrix
    assert routes == ([(True, "i", "i", False)] * 12
                      + [(True, "i", "i", True), (False, "O", "O", True)]
                      + [(True, "i", "i", False), (True, "i", "i", False)])
    mat, tol = _checked_matrix(line_space(70))
    assert tol == 0 and mat.tolist() == [[abs(i - j) for j in range(70)] for i in range(70)]


def test_verify_metric_on_scaled_spaces_matches_old_loops():
    # unchecked schedules break the triangle inequality (eps increasing) or
    # the sign (eps negative); the violation lists keep content and order
    rng = random.Random(20261020)
    schedules = [[Fraction(1, 8)] * 4 + [Fraction(1, 2)] * 4,
                 [Fraction(1, 3)] * 3 + [Fraction(-1, 5)] * 5,
                 [Fraction(1, 5), Fraction(1, 7), Fraction(1, 4), Fraction(1, 9),
                  Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 11)]]
    kinds = set()
    for vals in schedules:
        space = HTreeSpace(EpsilonSequence(vals, check=False), 7)
        ms = space.as_metric_space(rng.sample(enumerate_bn(6), 90))
        expected = old_verify_violations(ms)
        assert verify_metric(ms).violations == expected
        kinds.update(v[0] for v in expected)
    assert kinds == {"negative", "triangle"}
    ms = build_laakso(3).as_metric_space()
    assert verify_metric(ms).violations == old_verify_violations(ms) == []


def deep_vertices(rng, n, depth):
    """n distinct random vertices of depth <= depth, one of them the all-ones
    vertex at that depth (the largest heap index there)."""
    verts = {TreeVertex((1,) * depth)}
    while len(verts) < n:
        verts.add(TreeVertex(tuple(rng.randrange(2) for _ in range(rng.randint(0, depth)))))
    return sorted(verts)


def old_scaled_matrix(space):
    """_scaled_matrix before the heap-index kernel, verbatim: one
    scaled_distance call per pair."""
    if space.den is None:
        return None
    pts = space.points
    scaled = space.scaled_distance
    n = len(pts)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        x, row = pts[i], rows[i]
        for j in range(i + 1, n):
            row[j] = rows[j][i] = scaled(x, pts[j])
    if max(max(map(abs, row)) for row in rows) > 2 ** 61:
        return None
    return np.array(rows, dtype=np.int64), 0


def test_verify_metric_kernel_matches_pair_loop():
    # the path-word hook gives verify_metric the matrix of the old per-pair
    # fill, and the violation list of the same space without the hook, on
    # every route: kernel (at any depth), refused (a possible entry past
    # 2^61: then Python ints in an object matrix)
    rng = random.Random(20261021)
    cases = []
    for _ in range(8):
        space = HTreeSpace(random_valid_epsilon(rng, 64), 64)
        cases.append(space.as_metric_space(rng.sample(enumerate_bn(7), rng.randint(65, 300))))
    # the deepest heap indices the old heap-index kernel took (2^53 - 1),
    # just past them, and depth 64 (heap indices past 2^64)
    for depth in (52, 53, 64):
        for eps in (EpsilonSequence([Fraction(2, 9)] * 65), random_valid_epsilon(rng, 64)):
            cases.append(HTreeSpace(eps, 64).as_metric_space(deep_vertices(rng, 70, depth)))
    # unchecked schedules: increasing eps breaks the triangle inequality,
    # negative eps the sign
    for vals in ([Fraction(1, 8)] * 4 + [Fraction(1, 2)] * 4,
                 [Fraction(1, 3)] * 3 + [Fraction(-1, 5)] * 5,
                 [Fraction(1, 5), Fraction(1, 7), Fraction(1, 4), Fraction(1, 9),
                  Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), Fraction(1, 11)]):
        space = HTreeSpace(EpsilonSequence(vals, check=False), 7)
        cases.append(space.as_metric_space(rng.sample(enumerate_bn(6), rng.randint(65, 90))))
    for primes in ([101, 103, 107, 109, 113, 127], [1009, 1013, 1019, 1021, 1031, 1033, 1039]):
        wide = HTreeSpace(EpsilonSequence([Fraction(1, q) for q in primes]), len(primes) - 1)
        cases.append(wide.as_metric_space(enumerate_bn(len(primes) - 1)))
    routes, kinds = [], set()
    for ms in cases:
        try:
            ms._scaled_matrix()
            route = "kernel"
        except TooLarge:
            route = "refused"
        mat, tol = _checked_matrix(ms)
        old = old_scaled_matrix(ms)
        routes.append((route, mat.dtype.kind, old is None))
        assert tol == 0
        if old is not None:
            assert same_up_to_scale(mat, old[0])
            if route == "kernel":
                assert mat.dtype == old[0].dtype == np.int64 and np.array_equal(mat, old[0])
        violations = verify_metric(ms).violations
        assert verify_metric(without_hook(ms)).violations == violations
        kinds.update(v[0] for v in violations)
    assert routes == ([("kernel", "i", False)] * 8
                      + [("kernel", "i", False)] * 6
                      + [("kernel", "i", False)] * 3
                      + [("kernel", "i", False), ("refused", "O", True)])
    assert kinds == {"negative", "triangle"}
