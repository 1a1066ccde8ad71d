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
from mconvex.errors import BadInput, CollapsedPair, TooLarge
from mconvex.laakso import build_laakso
from mconvex.metric import (FiniteMetricSpace, PointMap, _numpy_matrix, _scaled_matrix,
                            distortion,
                            distortion_of, is_integral, is_midpoint, midpoint_set,
                            rat_from_str, rat_to_str, triangle_failures, verify_metric)
from mconvex.trees import (HEAP_EXACT_DEPTH, EpsilonSequence, HTreeSpace, TreeVertex,
                           enumerate_bn, tree_distance)
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
    # > 64 points routes through the vectorized checker
    big = line_space(70)
    rep = verify_metric(big)
    assert rep.is_metric and rep.triples_checked == 70 ** 3


def test_verify_metric_float_tolerance_on_both_routes():
    # a float line whose end-to-end distance is stretched by 1e-10 relative:
    # within tol = 1e-9, so a metric whether the scalar loop (64 points) or
    # the numpy route (65 points) checks it; with the default 1e-12 it is not
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
    mat, tol = _numpy_matrix(rows, exact=True)
    assert tol == 0 and mat.dtype == np.int64
    assert mat.tolist() == [[int(d * 12) for d in row] for row in rows]


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


def test_triangle_failures_small_and_clean():
    assert list(triangle_failures(np.zeros((0, 0), dtype=np.int64))) == []
    assert list(triangle_failures(np.zeros((1, 1), dtype=np.int64))) == []
    line = np.abs(np.subtract.outer(range(100), range(100)))
    assert list(triangle_failures(line)) == []
    assert triangle_count(line) == 0 and type(triangle_count(line)) is int


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

    as_np = _numpy_matrix(rows, space.exact)
    if as_np is not None:
        mat, np_tol = as_np
        for k in range(n):
            bad = mat > mat[:, k][:, None] + mat[k, :][None, :] + np_tol
            if bad.any():
                for i, j in zip(*bad.nonzero()):
                    violations.append(("triangle", pts[i], pts[k], pts[j]))
    return violations


def corrupt(rng, rows, faults):
    """Apply the named faults to random entries of a square matrix in place."""
    n = len(rows)
    for fault in faults:
        i, j = rng.sample(range(n), 2)
        d = rows[i][j]
        if fault == "diagonal":
            rows[i][i] = d / 3
        elif fault == "symmetry":
            rows[i][j] = d + Fraction(1, 7)
        elif fault == "negative":
            rows[i][j] = rows[j][i] = -d
        else:  # triangle: stretch one pair far beyond any detour
            rows[i][j] = rows[j][i] = 5 * d + 3


def test_verify_metric_matches_old_loops_on_corrupted_matrices():
    rng = random.Random(20261018)
    kinds = ["diagonal", "symmetry", "negative", "triangle"]
    seen = set()
    for trial in range(48):
        space = HTreeSpace(random_valid_epsilon(rng, 8), 8)
        verts = rng.sample(enumerate_bn(6), rng.randint(65, 127))
        rows = [list(row) for row in space.as_metric_space(verts).distance_matrix()]
        faults = ([] if trial % 8 == 0 else [kinds[trial % 4]] if trial % 8 < 5
                  else rng.sample(kinds, rng.randint(2, 4)))
        corrupt(rng, rows, faults)
        # every 6th space in floating mode: a float matrix, checked with a tolerance
        fms = FiniteMetricSpace.from_matrix(verts, rows, exact=trial % 6 != 5)
        rep = verify_metric(fms)
        expected = old_verify_violations(fms)
        assert rep.violations == expected
        assert (rep.mode, rep.triples_checked) == ("exhaustive", len(verts) ** 3)
        seen.update(v[0] for v in expected)
        if not faults:
            assert expected == []
    assert seen == {"diagonal", "symmetry", "negative", "triangle"}


def test_scaled_matrix_equals_numpy_matrix_of_fractions():
    # the int64 matrix read from scaled distances is den times the distances,
    # so it is the matrix _numpy_matrix builds from the Fraction distances up
    # to a positive scale; it declines only entries past 2^61
    rng = random.Random(20261019)
    spaces = []
    for _ in range(12):
        space = HTreeSpace(random_valid_epsilon(rng, 64), 64)
        spaces.append(space.as_metric_space(rng.sample(enumerate_bn(7), rng.randint(65, 200))))
    # denominators whose lcm exceeds 10^9 (the Fraction route declines, the
    # scaled one does not), and one whose scaled ints pass 2^63 (both decline)
    for primes in ([101, 103, 107, 109, 113, 127], [1009, 1013, 1019, 1021, 1031, 1033, 1039]):
        wide = HTreeSpace(EpsilonSequence([Fraction(1, q) for q in primes]), len(primes) - 1)
        spaces.append(wide.as_metric_space(enumerate_bn(len(primes) - 1)))
    spaces.append(build_laakso(3).as_metric_space())
    # vertices past the heap-index kernel's exact range: read pair by pair
    deep = HTreeSpace(EpsilonSequence([Fraction(1, 5)] * 65), 64)
    spaces.append(deep.as_metric_space(deep_vertices(rng, 80, 60)))
    declined = []
    for ms in spaces:
        rows = ms.distance_matrix()
        fast, slow = _scaled_matrix(ms), _numpy_matrix(rows, True)
        declined.append((fast is None, slow is None))
        if fast is None:
            continue
        assert fast[1] == 0 and fast[0].dtype == np.int64
        assert fast[0].tolist() == [[d * ms.den for d in row] for row in rows]
        if slow is not None:
            a, b = fast[0].astype(object), slow[0].astype(object)
            assert slow[1] == 0 and np.array_equal(a * b[0, 1], b * a[0, 1])
    assert declined == ([(False, False)] * 12 + [(False, True), (True, True), (False, False)]
                        + [(False, False)])
    assert _scaled_matrix(line_space(70)) is None


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


def test_verify_metric_kernel_matches_pair_loop(monkeypatch):
    # the heap-index kernel gives verify_metric the very matrix and violation
    # list of the old per-pair fill, on every route: kernel, refused (depth
    # past HEAP_EXACT_DEPTH, or a possible entry past 2^61) and declined
    rng = random.Random(20261021)
    cases = []
    for _ in range(8):
        space = HTreeSpace(random_valid_epsilon(rng, 64), 64)
        cases.append(space.as_metric_space(rng.sample(enumerate_bn(7), rng.randint(65, 300))))
    # deepest heap indices the kernel takes (2^53 - 1), and just past them
    for depth in (HEAP_EXACT_DEPTH, HEAP_EXACT_DEPTH + 1, 64):
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
        new, old = _scaled_matrix(ms), old_scaled_matrix(ms)
        routes.append((route, new is None))
        assert (new is None) == (old is None)
        if new is None:
            continue  # verify_metric then runs the same code on both sides
        assert new[1] == old[1] == 0 and new[0].dtype == old[0].dtype == np.int64
        assert np.array_equal(new[0], old[0])
        violations = verify_metric(ms).violations
        with monkeypatch.context() as mp:
            mp.setattr(metric, "_scaled_matrix", old_scaled_matrix)
            assert verify_metric(ms).violations == violations
        kinds.update(v[0] for v in violations)
    assert routes == ([("kernel", False)] * 8
                      + [("kernel", False)] * 2 + [("refused", False)] * 2
                      + [("refused", False)] * 2
                      + [("kernel", False)] * 3
                      + [("kernel", False), ("refused", True)])
    assert kinds == {"negative", "triangle"}
