import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from mconvex.embeddings.classify import (_B4, _B4_PAIRS, _b4_extremes, b4_bound_check,
                                         b4_bound_checks)
from mconvex.embeddings.extract import (ExtractResult, _spread_map,
                                        extract_vertically_faithful)
from mconvex.embeddings.generators import (RealLine, gen_boost_path,
                                           htree_random_triple_violations, make_space,
                                           random_valid_epsilon)
from mconvex import trees
from mconvex.embeddings import paths, search
from mconvex.embeddings.paths import (PathMap, path_boost, path_distortion,
                                      submultiplicative_split, t_functional)
from mconvex.embeddings.ramsey import ExhaustionReport, ramsey_search, tkm_vertices
from mconvex.embeddings.search import (distortion_gap_experiment, generate_faithful_b4,
                                       nested_b4_indices, nested_b4_rows)
from mconvex.embeddings.vertical import VerticalReport, vertical_report
from mconvex.errors import (BoostFailed, CollapsedAncestorPair, DepthExceeded,
                            InvariantViolated, OutOfRange, PipelineFailed,
                            PreconditionViolated, TooLarge, check)
from mconvex.metric import distortion_of, exact_or_float, to_float
from mconvex.randbits import random_bits
from mconvex.trees import (ROOT, EpsilonSequence, HTreeSpace, TreeVertex, enumerate_bn,
                           sp_pairs, tree_distance)
from test_randbits import CountingRandom, _scalar_depth_bits


def line_map(vals):
    return PathMap(len(vals) - 1, RealLine(), [Fraction(v) for v in vals])


# --------------------------------------------------------------------- paths

def test_t_functional_basics():
    assert t_functional(line_map([0, 1, 2, 3])) == 1
    assert t_functional(line_map([0, 1, 0, 1])) == Fraction(1, 3)
    assert t_functional(line_map([5, 5, 5])) == 0  # constant map


def test_path_distortion():
    assert path_distortion(line_map([0, 2, 4])) == 1  # straight, scale-free
    assert path_distortion(line_map([0, 1, 3])) == 2
    assert math.isinf(path_distortion(line_map([0, 1, 1])))


def test_submultiplicative_split():
    # the product inequality is checked inside; exercise it over random maps
    rng = random.Random(5)
    for _ in range(100):
        total = rng.choice([4, 6, 8, 12])
        m = rng.choice([d for d in range(2, total) if total % d == 0])
        vals = [0]
        for _ in range(total):
            vals.append(vals[-1] + rng.choice([-1, 1, 1, 2]))
        f = line_map(vals)
        coarse, block, idx = submultiplicative_split(f, m, total // m)
        assert coarse.n == m and block.n == total // m
        assert 0 <= idx < m


def test_submultiplicative_split_ties_to_the_lowest_block():
    # block 0 goes out and back (T = 0); blocks 1 and 2 are straight (T = 1)
    f = line_map([0, 1, 0, 1, 2, 3, 4])
    coarse, block, idx = submultiplicative_split(f, 3, 2)
    assert idx == 1
    assert block.assignment == [0, 1, 2] and coarse.assignment == [0, 0, 2, 4]


@pytest.mark.parametrize("one", [Fraction(1), 1.0])
def test_submultiplicative_split_is_checked(monkeypatch, one):
    # T(f) = 1 against T(coarse) = T(block) = 1/2, in exact and float mode
    f = line_map(range(5))
    monkeypatch.setattr(paths, "t_functional", lambda g: one if g is f else one / 2)
    with pytest.raises(InvariantViolated, match="submultiplicativity"):
        submultiplicative_split(f, 2, 2)


@pytest.mark.parametrize("grid_t, delta, dist, match", [
    # T = 3/5 clears the threshold 1/2 of delta = 4, but 1 - T >= 1/t
    (Fraction(3, 5), 4, None, "not below 1/t"),
    # a distortion above the bound 1/(1 - t(1 - T))
    (None, 0.5, Fraction(100), "log-embedding bound"),
    # T = 13/16 clears the threshold of delta = 1.5, but the bound 4 > 2.5
    (Fraction(13, 16), 1.5, None, "exceeds 1 \\+ delta"),
])
def test_path_boost_bounds_are_checked(monkeypatch, grid_t, delta, dist, match):
    f = gen_boost_path(random.Random(9), 4 ** 4)
    if grid_t is not None:
        monkeypatch.setattr(paths, "t_functional", lambda g: grid_t)
    if dist is not None:
        monkeypatch.setattr(paths, "path_distortion", lambda g: dist)
    with pytest.raises(InvariantViolated, match=match):
        path_boost(f, 4, delta)


def test_path_boost_success_and_bound():
    rng = random.Random(9)
    f = gen_boost_path(rng, 4 ** 6)
    res = path_boost(f, 4, 0.5)
    assert res.t_value >= 1 - 0.5 / (2 * 4)
    # restriction to the returned grid really has small distortion
    g = f.restrict(res.grid)
    assert path_distortion(g) <= Fraction(3, 2)
    assert res.dist == path_distortion(g)


def test_path_boost_failure_reports_best():
    # alternate at every scale: T stays low at every grid, boosting must fail
    n = 4 ** 3
    vals = []
    for i in range(n + 1):
        vals.append(bin(i).count("1") % 2)
    # tiny drift keeps the map injective without straightening it
    f = PathMap(n, RealLine(), [Fraction(v) + Fraction(i, 10 ** 9)
                                for i, v in enumerate(vals)])
    with pytest.raises(BoostFailed) as exc:
        path_boost(f, 4, 0.5)
    assert exc.value.best_t < 1 - 0.5 / 8
    assert len(exc.value.best_grid) == 5


def test_path_boost_needs_two_steps_per_grid():
    # t = 1 or 0 made the level search `t ** (k + 1) <= n` loop forever
    f = line_map(range(17))
    for t in (1, 0, -2):
        with pytest.raises(PreconditionViolated):
            path_boost(f, t, 0.5)
    assert path_boost(f, 2, 0.5).grid == [0, 8, 16]


# ------------------------------------------------------------------ vertical

def test_vertical_report_identity():
    rep = vertical_report(lambda v: v, sp_pairs(4),
                          type("T", (), {"dist": staticmethod(tree_distance)})())
    assert rep.D == 1
    assert rep.faithful(Fraction(1, 512))


def test_vertical_report_collapse():
    f = lambda v: TreeVertex(())
    target = type("T", (), {"dist": staticmethod(tree_distance)})()
    pairs = [(TreeVertex(()), TreeVertex((0, 1)))]
    rep0 = vertical_report(f, pairs, target, strict=False)
    assert rep0.lam == 0 and math.isinf(rep0.D)
    with pytest.raises(CollapsedAncestorPair):
        vertical_report(f, pairs, target, strict=True)


def test_vertical_report_stretch_ratio():
    # stretch ancestor pairs unevenly: doubling only the deep edge
    def f(v):
        return v.descend_zeros(v.depth)  # depth doubles
    target = type("T", (), {"dist": staticmethod(tree_distance)})()
    rep = vertical_report(f, [(TreeVertex(()), TreeVertex((1,)))], target)
    assert rep.D == 1 and rep.lam == 2


def _vertical_report_oracle(f, pairs, target, strict=True):
    """The ratio loop vertical_report ran before it used metric.distortion_of,
    kept verbatim as the reference."""
    lo = None
    hi = None
    count = 0
    collapsed = False
    for x, y in pairs:
        count += 1
        dt = tree_distance(x, y)
        dx = target.dist(f(x), f(y))
        if dx == 0:
            if strict:
                raise CollapsedAncestorPair(f"f collapses ancestor pair ({x}, {y})")
            collapsed = True
            continue
        r = Fraction(dx) / dt if isinstance(dx, (int, Fraction)) else float(dx) / dt
        if lo is None or r < lo:
            lo = r
        if hi is None or r > hi:
            hi = r
    if count == 0:
        raise ValueError("no ancestor pairs supplied")
    if collapsed:
        return VerticalReport(0, math.inf, count)
    D = hi / lo if isinstance(hi, Fraction) and isinstance(lo, Fraction) \
        else float(hi) / float(lo)
    return VerticalReport(lo, D, count)


def _warped_b4(rng):
    """A B_4 map into B_infty whose edges descend 1..5 levels: vertically
    unfaithful, with integer tree distances."""
    k = rng.randint(0, 3)
    images = {TreeVertex(()): TreeVertex(()).hang(random_bits(rng, k), k)}
    for v in enumerate_bn(4)[1:]:
        k = rng.randint(1, 5)
        images[v] = images[v.parent()].hang(random_bits(rng, k), k)
    return images


class _FloatTarget:
    """An HTreeSpace whose distances are floats."""

    def __init__(self, space):
        self.space = space

    def dist(self, x, y):
        return float(self.space.distance(x, y))


def _vertical_cases(rng):
    """(f, pairs, target) inputs: faithful, warped and sibling-collapsed B_4
    maps into contracted trees (HTreeSpace targets, a constant-schedule one
    among them, and exact FiniteMetricSpace targets), and warped maps under
    the tree metric and float distances, each on all ancestor pairs, on one
    pair, and with an ancestor pair collapsed."""
    tree = type("T", (), {"dist": staticmethod(tree_distance)})()
    space = HTreeSpace(random_valid_epsilon(rng, 40), 40)
    const = make_space(Fraction(1, rng.randint(2, 9)), depth=40)
    maps = [generate_faithful_b4(space, rng, L=rng.randint(1, 8), collide_prob=0.0),
            generate_faithful_b4(space, rng, L=rng.randint(1, 8), collide_prob=1.0),
            _warped_b4(rng)]
    all_pairs = list(sp_pairs(4))
    for images, target in [(maps[0], space), (maps[1], space), (maps[2], space),
                           (maps[2], tree), (maps[0], _FloatTarget(space)),
                           (maps[0], const), (maps[2], const),
                           (maps[0], space.as_metric_space(maps[0].values())),
                           (maps[2], const.as_metric_space(maps[2].values()))]:
        collapsed = dict(images)
        v = rng.choice(enumerate_bn(4)[1:])
        collapsed[v] = collapsed[v.parent()]
        for imgs in (images, collapsed):
            yield imgs.__getitem__, all_pairs, target
            yield imgs.__getitem__, [rng.choice(all_pairs)], target


def _outcome(fn, *args, **kw):
    try:
        rep = fn(*args, **kw)
    except (CollapsedAncestorPair, ValueError) as exc:
        return type(exc)
    return rep.lam, rep.D, rep.pairs_checked


def test_vertical_report_matches_ratio_loop():
    rng = random.Random(17)
    floats = 0
    for _ in range(15):
        for f, pairs, target in _vertical_cases(rng):
            for strict in (True, False):
                old = _outcome(_vertical_report_oracle, f, pairs, target, strict=strict)
                new = _outcome(vertical_report, f, pairs, target, strict=strict)
                if isinstance(target, _FloatTarget) and isinstance(old, tuple) \
                        and not math.isinf(old[1]):
                    # D is lip * colip, lam is 1 / colip: equal up to rounding
                    floats += 1
                    assert all(type(a) is type(b) for a, b in zip(old, new))
                    assert math.isclose(old[0], new[0], rel_tol=1e-12)
                    assert math.isclose(old[1], new[1], rel_tol=1e-12)
                    assert old[2] == new[2]
                    continue
                assert old == new
                if isinstance(old, tuple):
                    assert [type(x) for x in old] == [type(x) for x in new]
    assert floats > 0
    for strict in (True, False):
        for fn in (_vertical_report_oracle, vertical_report):
            with pytest.raises(ValueError, match="no ancestor pairs"):
                fn(lambda v: v, [], HTreeSpace(random_valid_epsilon(rng, 8), 8),
                   strict=strict)


# -------------------------------------------------------------------- ramsey

def test_tkm_vertices_count():
    assert len(tkm_vertices(4, 2)) == 1 + 4 + 16


def test_ramsey_constant_coloring():
    copy = ramsey_search(4, 2, 2, lambda u, v: 0)
    assert isinstance(copy, dict)
    # 7 vertices of B_2 embedded, ancestor relations preserved level-by-level
    assert len(copy) == 7
    for u in copy:
        for v in copy:
            if u.is_strict_ancestor_of(v):
                got_u, got_v = copy[u], copy[v]
                assert len(got_u) == u.depth and len(got_v) == v.depth
                assert got_v[:len(got_u)] == got_u


def test_ramsey_level_coloring_found():
    copy = ramsey_search(4, 2, 2, lambda u, v: len(u) % 2)
    assert isinstance(copy, dict)


def test_ramsey_impossible_coloring_exhausts():
    # color by child index parity: siblings always differ, no monochromatic pair
    def coloring(u, v):
        return v[len(u)] % 2 if len(v) > len(u) else 0
    out = ramsey_search(2, 2, 2, coloring)
    assert isinstance(out, ExhaustionReport)
    assert out.nodes_explored > 0


def test_ramsey_guards():
    with pytest.raises(TooLarge):
        ramsey_search(4, 3, 2, lambda u, v: 0)
    with pytest.raises(TooLarge):
        ramsey_search(4, 2, 4, lambda u, v: 0)


# ------------------------------------------------------------------- extract

class _TreeMetric:
    dist = staticmethod(tree_distance)


def test_extract_identity_toy():
    res = extract_vertically_faithful(lambda v: v, 6, _TreeMetric(), 2,
                                      Fraction(1, 4), 1)
    assert res.report.D == 1
    assert res.params["m"] == 2
    # phi preserves strict ancestors and lands in B_6
    for v, img in res.phi.items():
        assert img.depth <= 6


def test_extract_fails_honestly_on_wild_stretch():
    # stretch grows fast with depth: too many colors for the guarded Ramsey step
    def f(v):
        return TreeVertex(v.path + (0,) * (v.depth ** 2))
    with pytest.raises(PipelineFailed) as exc:
        extract_vertically_faithful(f, 8, _TreeMetric(), 2, Fraction(1, 4), 1)
    assert exc.value.stage in ("ramsey", "verify")


def old_extract_vertically_faithful(f, n, target, t, delta, xi, k=1):
    """extract_vertically_faithful with stage 2 as it was before it ran on
    vertical_report: a min/max loop over the ancestor stretches of f o g.
    Kept as the oracle of the pipeline."""
    if not xi > 0 or delta < 0:
        raise OutOfRange(f"need xi > 0 and delta >= 0, got xi = {xi}, delta = {delta}")
    base = 1 + to_float(delta, "delta") / 4
    if not base > 1:
        raise OutOfRange(f"1 + delta/4 is not above 1 as a float, for delta = {delta}")
    l = math.ceil(2 / xi)
    m = min(n // (l * k), 2)
    if m < 1:
        raise PipelineFailed("depth", f"n = {n} too small for l*k = {l * k}")
    if t > m:
        raise PipelineFailed("depth", f"boost target t = {t} exceeds copy depth m = {m}")
    g = _spread_map(k, m, l, n)
    pairs = [(v[:i], v) for v in g for i in range(len(v))]
    lam = None
    D_hi = None
    for u, v in pairs:
        dx = target.dist(f(g[u]), f(g[v]))
        if dx == 0:
            raise PipelineFailed("vertical", f"f o g collapses ancestor pair {u}, {v}")
        r = exact_or_float(dx) / (l * k * (len(v) - len(u)))
        lam = r if lam is None or r < lam else lam
        D_hi = r if D_hi is None or r > D_hi else D_hi
    r_colors = max(1, math.ceil(math.log(float(D_hi / lam)) / math.log(base)) + 1)

    def coloring(u, v):
        dx = target.dist(f(g[u]), f(g[v]))
        ratio = float(dx) / (l * k * float(lam) * (len(v) - len(u)))
        return min(int(math.log(ratio) / math.log(base)) if ratio > 1 else 0,
                   r_colors - 1)

    try:
        copy = ramsey_search(2 ** k, m, r_colors, coloring)
    except TooLarge as e:
        raise PipelineFailed("ramsey", str(e))
    if isinstance(copy, ExhaustionReport):
        raise PipelineFailed("ramsey", f"no monochromatic copy: {copy}")
    chain = [TreeVertex((0,) * i) for i in range(m + 1)]
    path = PathMap(m, target, [f(g[copy[v]]) for v in chain])
    try:
        boost = path_boost(path, t, float(delta) / 4)
    except BoostFailed as e:
        raise PipelineFailed("boost", str(e))
    a = boost.grid[0]
    b = boost.grid[1] - boost.grid[0]
    verts = enumerate_bn(t)
    phi = {}
    for v in verts:
        psi_v = TreeVertex((0,) * a + sum((((bit,) + (0,) * (b - 1)) for bit in v.path), ()))
        phi[v] = g[copy[psi_v]]
    pairs = list(sp_pairs(t))
    if not all(phi[x].is_strict_ancestor_of(phi[y]) for x, y in pairs):
        raise PipelineFailed("verify", "ancestor relation not preserved")
    dist = distortion_of((tree_distance(u, v), tree_distance(phi[u], phi[v]))
                         for u, v in combinations(verts, 2))[2]
    if dist > 1 + Fraction(xi):
        raise PipelineFailed("verify", f"dist(phi) = {float(dist):.4f} > 1 + xi")
    rep = vertical_report(lambda v: f(phi[v]), pairs, target)
    if not rep.faithful(delta):
        raise PipelineFailed("verify", f"f o phi not (1+delta)-faithful: D = {float(rep.D):.6f}")
    return ExtractResult(phi, t, {"l": l, "k": k, "m": m, "r": r_colors}, rep, boost)


class _LevelWeightedTree:
    """The tree metric with weight[h] on every edge from depth h to h + 1."""

    def __init__(self, weight):
        self.below = [0]
        for w in weight:
            self.below.append(self.below[-1] + w)

    def dist(self, u, v):
        return self.below[u.depth] + self.below[v.depth] - 2 * self.below[u.lca_depth(v)]


def _extract_outcome(fn, *args):
    """What the pipeline returns, as plain data, or the stage it fails at."""
    try:
        res = fn(*args)
    except PipelineFailed as exc:
        return exc.stage
    rep = res.report
    return res.params, res.phi, (rep.lam, rep.D, rep.pairs_checked), res.boost.grid


def test_extract_matches_the_old_stretch_loop():
    # exact targets whose ancestor stretch under f o g depends on depth, so
    # stage 2 sees D > 1: depth-weighted tree metrics under the identity, and
    # maps that pad each vertex with zeros by a depth-dependent count
    rng = random.Random(29)
    stages = set()
    stretched = 0
    for _ in range(40):
        n = rng.randint(4, 9)
        if rng.random() < 0.5:
            target = _LevelWeightedTree([Fraction(rng.randint(2, 9), rng.randint(1, 4))
                                         for _ in range(n)])
            f = lambda v: v
        else:
            pad = [0]
            for _ in range(n):
                pad.append(pad[-1] + rng.randint(0, 2))
            target = _TreeMetric()
            f = lambda v, pad=pad: TreeVertex(v.path + (0,) * pad[v.depth])
        args = (f, n, target, 2, rng.choice((Fraction(1, 4), Fraction(1), Fraction(3))),
                rng.choice((1, 2, Fraction(1, 2))))
        old = _extract_outcome(old_extract_vertically_faithful, *args)
        assert _extract_outcome(extract_vertically_faithful, *args) == old
        stages.add(old if isinstance(old, str) else "ok")
        stretched += not isinstance(old, str) and old[0]["r"] > 1
    assert {"ok", "ramsey", "boost"} <= stages and stretched > 0, (stages, stretched)


def test_extract_fails_at_vertical_on_a_collapsing_map():
    # f o g sends an ancestor pair to one point: stage 2 fails, as it did
    # before it ran on vertical_report
    for f in (lambda v: ROOT, lambda v: v.ancestor(min(v.depth, 2))):
        for fn in (old_extract_vertically_faithful, extract_vertically_faithful):
            with pytest.raises(PipelineFailed) as exc:
                fn(f, 6, _TreeMetric(), 2, Fraction(1, 4), 1)
            assert exc.value.stage == "vertical"


# -------------------------------------------------------------------- search

def test_generate_faithful_b4_rejects_bad_L():
    space = make_space(Fraction(1, 5), depth=60)
    for L in (0, -1, 16, 100):
        with pytest.raises(OutOfRange, match=f"L = {L} "):
            generate_faithful_b4(space, random.Random(1), L=L)
    # L = max_depth // 4 fits: h0 = 0
    f = generate_faithful_b4(space, random.Random(1), L=15)
    assert f[TreeVertex(())].depth == 0 and max(v.depth for v in f.values()) == 60
    # a drawn L (3..14) past a shallow space's max_depth // 4
    with pytest.raises(OutOfRange):
        generate_faithful_b4(make_space(Fraction(1, 5), depth=8), random.Random(1))


def test_generate_faithful_b4_is_faithful():
    space = make_space(Fraction(1, 5), depth=60)
    rng = random.Random(3)
    for _ in range(25):
        f = generate_faithful_b4(space, rng)
        rep = vertical_report(lambda v: f[v], sp_pairs(4),
                              type("T", (), {"dist": space.distance})())
        assert rep.D == 1


def test_nested_b4_map_respects_rigidity_floor():
    space = make_space(Fraction(1, 5), depth=60)
    for seed in range(5):
        f = generate_faithful_b4(space, random.Random(seed), collide_prob=0.0)
        dist, bound, holds = b4_bound_check(space, lambda v: f[v], Fraction(1, 512))
        assert holds
        assert dist >= bound


def test_distortion_gap_experiment():
    space = make_space(Fraction(1, 5), depth=60)
    out = distortion_gap_experiment(space, lambda n: 5, 8, seed=1)
    assert out["floor_holds"]
    assert out["upper_bound"] == 5
    assert out["search_best_dist"] >= out["rigidity_floor"]
    for n in (0, -2, 13):
        with pytest.raises(OutOfRange):
            distortion_gap_experiment(space, lambda n: 5, n, seed=1)


# search._nested_embedding and search._random_descents, the TreeVertex code
# of the nested maps before search.nested_b4_indices drew them as heap
# indices, kept verbatim as its oracle.

def _nested_embedding(L, h0, root_bits, descents):
    """The nested B_4 embedding: root at the depth-h0 vertex along the h0-bit
    int `root_bits`, each child placed `L` levels below its parent along its
    L-bit int in `descents` (dict non-root TreeVertex -> int)."""
    images = {ROOT: ROOT.hang(root_bits, h0)}
    for v in enumerate_bn(4)[1:]:
        images[v] = images[v.parent()].hang(descents[v], L)
    return images


def _random_descents(rng, L, collide_prob=0.0):
    """Random per-edge bit runs; sibling edges get distinct leading bits unless
    a (rare) deliberate collision is requested, which collapses the siblings
    whenever the remaining bits also agree.  Each run is an L-bit int, its
    first bit the highest."""
    top = 1 << (L - 1)
    descents = {}
    for v in enumerate_bn(4)[1:]:      # heap order: each 0-child before its sibling
        bits = random_bits(rng, L)
        sib = descents.get(v.sibling())
        if sib is not None:
            if rng.random() < collide_prob:
                bits = sib                      # exact sibling collapse
            elif not (bits ^ sib) & top:
                bits ^= top
        descents[v] = bits
    return descents


def _words_per_map(space):
    """The 64-bit words nested_b4_rows reads a map: the words of L and h0,
    31 runs of W = max(1, ceil(max_depth / 64)) words, 15 collision words."""
    return 2 + 31 * max(1, -(-space.max_depth // 64)) + 15


def _scalar_b4_draw(space, rng, L=None, collide_prob=0.01, h0=None):
    """(L, h0, root bits, descents) of one nested map, decoded one scalar
    word of rng.getrandbits(64) at a time in the layout nested_b4_rows
    documents, with its OutOfRange checks: the per-map oracle of the bulk
    draw.  The descents are those of _random_descents, on these words."""
    N = space.max_depth
    width = max(1, -(-N // 64))

    def run(k):
        bits = 0
        for _ in range(width):
            bits = bits << 64 | rng.getrandbits(64)
        return bits >> (64 * width - k)

    if L is not None and not 1 <= L <= N // 4:
        raise OutOfRange(f"L = {L} outside 1..{N // 4}")
    if L is not None and h0 is not None and not 0 <= h0 <= N - 4 * L:
        raise OutOfRange(f"h0 = {h0} outside 0..{N - 4 * L}")
    L_word, h0_word = rng.getrandbits(64), rng.getrandbits(64)
    if L is None:
        L = 3 + L_word % 12
        if not L <= N // 4:
            raise OutOfRange(f"L = {L} outside 1..{N // 4}")
        if h0 is not None and not 0 <= h0 <= N - 4 * L:
            raise OutOfRange(f"h0 = {h0} outside 0..{N - 4 * L}")
    if h0 is None:
        h0 = h0_word % (N - 4 * L + 1)
    root = run(h0)
    top = 1 << (L - 1)
    descents = {}
    for v in enumerate_bn(4)[1:]:      # heap order: each 0-child before its sibling
        bits = run(L)
        if v.index & 1:
            sib = descents[v.sibling()]
            if rng.getrandbits(64) >> 11 < collide_prob * 2 ** 53:
                bits = sib                      # exact sibling collapse
            elif not (bits ^ sib) & top:
                bits ^= top
        descents[v] = bits
    return L, h0, root, descents


def scalar_nested_b4_indices(space, rng, L=None, collide_prob=0.01, h0=None):
    """nested_b4_indices on the per-map oracle: _nested_embedding of its
    scalar decode, as heap indices in _B4 order."""
    images = _nested_embedding(*_scalar_b4_draw(space, rng, L, collide_prob, h0))
    return [images[v].index for v in _B4]


def test_nested_b4_indices_match_the_descent_code():
    # the same maps, in _B4 order, and the same stream left behind as the
    # descent code on the scalar decode of the same words, on drawn and
    # given L and h0, collisions included, at depths of one and two words
    for seed in range(300):
        depth = (60, 100, 20)[seed % 3]
        space = make_space(Fraction(1, 5), depth=depth)
        L = (None, depth // 4, 1 + seed % 5)[seed % 3]
        h0 = None if seed % 4 else seed % (depth - 4 * (L or 14) + 1)
        for p in (0.0, 0.01, 0.5, 1.0):
            new_rng, old_rng, gen_rng = (random.Random(seed) for _ in range(3))
            old = _nested_embedding(*_scalar_b4_draw(space, old_rng, L, p, h0))
            new = nested_b4_indices(space, new_rng, L, p, h0)
            assert new == [old[v].index for v in _B4]
            assert all(type(i) is int for i in new)
            assert new_rng.getstate() == old_rng.getstate()
            if h0 is None:
                assert generate_faithful_b4(space, gen_rng, L, p) == old
                assert gen_rng.getstate() == old_rng.getstate()


def test_nested_b4_indices_rejects_bad_h0():
    space = make_space(Fraction(1, 5), depth=60)
    for L, h0 in ((1, -1), (1, 57), (15, 1), (3, 49)):
        with pytest.raises(OutOfRange, match=f"h0 = {h0} "):
            nested_b4_indices(space, random.Random(1), L=L, h0=h0)
    for L, h0 in ((1, 56), (15, 0), (3, 48)):
        row = nested_b4_indices(space, random.Random(1), L=L, h0=h0)
        assert row[0].bit_length() - 1 == h0 and max(row).bit_length() - 1 == h0 + 4 * L


def _draw_outcome(draw, rng):
    """The rows drawn (lists of ints) or the error's message, and rng's state
    after them, with its next random()."""
    try:
        out = draw()
    except OutOfRange as exc:
        out = str(exc)
    return out, rng.getstate(), rng.random()


def _check_rows(space, count, L, p, h0, seed):
    """nested_b4_rows against count maps of the per-map oracle and count
    one-map draws, from generators whose gauss_next is set: the same rows
    and the same state left behind, or the error of the first failing map.
    After an error rng stands where nested_b4_rows documents: untouched for
    a given L (or L and h0), past all count maps' words for a drawn L."""
    ref, rng, single, past = (random.Random(seed) for _ in range(4))
    for r in (ref, rng, single, past):
        r.gauss(0, 1)
    expected = _draw_outcome(
        lambda: [scalar_nested_b4_indices(space, ref, L, p, h0) for _ in range(count)], ref)
    one_by_one = _draw_outcome(
        lambda: [nested_b4_indices(space, single, L, p, h0) for _ in range(count)], single)

    def bulk():
        rows = nested_b4_rows(space, rng, count, L, p, h0)
        assert rows.shape == (max(count, 0), 31)
        assert rows.dtype == (np.int64 if space.max_depth <= 62 else object)
        return [[int(i) for i in row] for row in rows]

    got = _draw_outcome(bulk, rng)
    case = (space.max_depth, count, L, p, h0, seed)
    if isinstance(expected[0], str):
        assert got[0] == one_by_one[0] == expected[0], case
        if L is None:
            past.getrandbits(64 * count * _words_per_map(space))
        assert got[1:] == (past.getstate(), past.random()), case
    else:
        assert got == expected == one_by_one, case
    return expected[0]


def test_nested_b4_rows_match_the_scalar_draw():
    # the bulk draw against the per-map oracle and one-map draws, on drawn
    # and given L and h0, with no, some and only collisions, on counts
    # around a chunk, and in an object array at depth 63 and past 64
    chunk = search.B4_CHUNK
    space, deep = make_space(Fraction(1, 5), depth=60), make_space(Fraction(1, 5), depth=100)
    for count in (-1, 0, 1, chunk - 1, chunk + 1):
        for n, (L, h0) in enumerate(((None, None), (None, 7), (5, None), (2, 40))):
            for p in (0.0, 0.01, 1.0):
                _check_rows(space, count, L, p, h0, 1000 * count + 10 * n + int(100 * p))
    for sp in (make_space(Fraction(1, 5), depth=63), deep):
        for count in (1, 2, 40):
            for L, h0 in ((None, None), (sp.max_depth // 4, None), (3, sp.max_depth - 30)):
                for p in (0.0, 0.01, 1.0):
                    _check_rows(sp, count, L, p, h0, count)


@pytest.mark.parametrize("count", [16, 1 << 15])
def test_nested_b4_rows_generate_each_word_once(count):
    # one getrandbits call generates the words of the count maps and no
    # more, also when a drawn L is out of range (a drawn L above 5 is, at
    # depth 20); two 32-bit words a 64-bit word
    space, deep = make_space(Fraction(1, 5), depth=60), make_space(Fraction(1, 5), depth=100)
    shallow = make_space(Fraction(1, 5), depth=20)
    for sp, L, h0 in ((space, None, None), (space, 2, 40), (deep, 25, None),
                      (shallow, None, None)):
        n = count if sp is space else 16       # object rows past depth 62
        rng = CountingRandom(n)
        try:
            assert len(nested_b4_rows(sp, rng, n, L, 0.01, h0)) == n
        except OutOfRange:
            assert sp is shallow
        assert (rng.calls, rng.words) == (1, 2 * n * _words_per_map(sp)), (sp.max_depth, L)


def test_nested_b4_rows_out_of_range_unchanged():
    # an L or h0 out of range raises what the per-map oracle raises: at
    # once for a given L (or L and h0), with nothing drawn, and for the
    # drawn L of the first map that fails, with rng past every map's words
    shallow = make_space(Fraction(1, 5), depth=20)          # drawn L above 5 fails
    space = make_space(Fraction(1, 5), depth=60)
    cases = [(space, 0, None), (space, 16, None), (space, 3, 49), (space, 15, 1),
             (space, None, 50), (shallow, None, None), (shallow, None, 3), (shallow, 6, None),
             (space, None, -1)]
    errors = 0
    for sp, L, h0 in cases:
        for seed in range(8):
            for count in (1, 5, 40):
                out = _check_rows(sp, count, L, 0.01, h0, seed)
                errors += isinstance(out, str)
    assert errors > 100


# The bit-tuple versions of random_bits, _nested_embedding and
# _random_descents from before vertices were heap indices, kept
# verbatim (TreeVertex._from_bits, which trusted its bits, is now the public
# constructor) for the annealer oracle below.

def _old_random_bits(rng, k):
    return tuple(rng.randint(0, 1) for _ in range(k))


def _old_nested_embedding(L, h0, root_bits, descents):
    images = {TreeVertex(()): TreeVertex(root_bits)}
    for v in enumerate_bn(4):
        if v.depth == 0:
            continue
        images[v] = TreeVertex(images[v.parent()].path + descents[v])
    return images


def _old_random_descents(rng, L, collide_prob=0.0):
    descents = {}
    for v in enumerate_bn(4):
        if v.depth == 0:
            continue
        bits = _old_random_bits(rng, L)
        if v.path[-1] == 1:
            sib = descents[TreeVertex(v.path[:-1] + (0,))]
            if rng.random() < collide_prob:
                bits = sib                      # exact sibling collapse
            elif bits[0] == sib[0]:
                bits = (1 - sib[0],) + bits[1:]
        descents[v] = bits
    return descents


def _b4_search_oracle(space, delta, trials=2000, seed=0, L=None, h0=None):
    """The simulated annealer distortion-gap ran before, kept verbatim as the
    reference but for an h0 that may be given: it returns its starting map,
    since the distortion is constant on the nested family."""
    rng = random.Random(seed)
    if L is None:
        L = rng.randint(3, 8)
    if h0 is None:
        h0 = rng.randint(0, space.max_depth - 4 * L)
    root_bits = _old_random_bits(rng, h0)
    descents = _old_random_descents(rng, L)
    cur = _old_nested_embedding(L, h0, root_bits, descents)
    cur_d = b4_distortion(space, cur)
    best, best_d = cur, cur_d
    verts = [v for v in enumerate_bn(4) if v.depth > 0]
    for step in range(trials):
        temp = max(1e-3, 1.0 - step / trials)
        v = rng.choice(verts)
        old = descents[v]
        trial = dict(descents)
        bits = _old_random_bits(rng, L)
        sib = descents.get(TreeVertex(v.path[:-1] + (1 - v.path[-1],)))
        if sib is not None and bits[0] == sib[0]:
            bits = (1 - sib[0],) + bits[1:]
        trial[v] = bits
        cand = _old_nested_embedding(L, h0, root_bits, trial)
        cand_d = b4_distortion(space, cand)
        if cand_d <= cur_d or rng.random() < math.exp(-float(cand_d - cur_d) / temp):
            descents, cur, cur_d = trial, cand, cand_d
            if cur_d < best_d:
                best, best_d = cur, cur_d
    dist, bound, holds = b4_bound_check(space, lambda v: best[v], delta)
    check(dist == best_d, "rigidity check dist %s != search dist %s", dist, best_d)
    return best, best_d, bound, holds


def _schedules(rng, count):
    """Constant schedules, then `count` random valid ones, all to depth 60."""
    spaces = [make_space(Fraction(1, k), depth=60) for k in (1, 2, 5, 9)]
    return spaces + [HTreeSpace(random_valid_epsilon(rng, 60), 60) for _ in range(count)]


def test_one_nested_map_matches_the_annealer(monkeypatch):
    calls = []          # the rows of each rigidity check distortion-gap makes
    counted = search.b4_bound_checks
    monkeypatch.setattr(search, "b4_bound_checks",
                        lambda space, rows, delta: calls.append(len(rows))
                        or counted(space, rows, delta))
    rng = random.Random(23)
    delta = Fraction(1, 512)
    for space in _schedules(rng, 12):
        upper = lambda n: max(1 / space.eps[m] for m in range(1, n + 1))
        seed = rng.randrange(10 ** 6)
        for L in (None, 1, 2, 3, 5):
            # the annealer on the (L, h0) of a drawn map: another map of its
            # family, so the same rigidity check
            f = generate_faithful_b4(space, random.Random(seed), L=L, collide_prob=0.0)
            h0 = f[ROOT].depth
            best, best_d, bound, holds = _b4_search_oracle(
                space, delta, trials=12, seed=seed, L=f[ROOT.child(0)].depth - h0, h0=h0)
            assert b4_bound_check(space, lambda v: f[v], delta) == (best_d, bound, holds)
        for n in (1, 4, 8, 12):
            L = max(1, n // 4)
            h0 = nested_b4_indices(space, random.Random(seed), L, 0.0)[0].bit_length() - 1
            best, best_d, bound, holds = _b4_search_oracle(space, delta, trials=12,
                                                           seed=seed, L=L, h0=h0)
            del calls[:]
            out = distortion_gap_experiment(space, upper, n, seed=seed)
            assert calls == [1]
            assert out == {"upper_bound": upper(n), "search_best_dist": best_d,
                           "rigidity_floor": bound, "floor_holds": holds}
            assert [type(x) for x in out.values()] == \
                [type(x) for x in (upper(n), best_d, bound, holds)]


def test_nested_b4_distortion_depends_only_on_L_h0_eps():
    rng = random.Random(31)
    for space in _schedules(rng, 20):
        L = rng.randint(1, 14)
        h0 = rng.randint(0, space.max_depth - 4 * L)
        values = set()
        for _ in range(3):
            images = _nested_embedding(L, h0, random_bits(rng, h0), _random_descents(rng, L))
            values.add(b4_distortion(space, images))
        rows = [nested_b4_indices(space, rng, L, 0.0, h0) for _ in range(3)]
        values |= {dist for dist, _, _ in b4_bound_checks(space, rows, Fraction(1, 512))}
        assert len(values) == 1, (L, h0, values)


def _b4_bound_check_oracle(space, f, delta):
    """b4_bound_check before it reduced one pass of scaled distances per tree
    distance, kept verbatim as the reference (a vertical report over the
    ancestor pairs, then b4_distortion), except that its vertical report is
    the ratio loop above, which test_vertical_report_matches_ratio_loop
    holds equal to vertical_report."""
    if not Fraction(delta) < Fraction(1, 400):
        raise PreconditionViolated("requires delta < 1/400")
    images = {v: f(v) for v in _B4}
    space.check_depth(*images.values())
    rep = _vertical_report_oracle(lambda v: images[v], sp_pairs(4), space)
    if not rep.faithful(delta):
        raise PreconditionViolated(f"f is not (1+delta)-vertically faithful: D = {rep.D}")
    dist = _b4_distortion_oracle(space, images)
    h0 = min(v.depth for v in images.values())
    bound = 1 / (500 * Fraction(delta) + space.eps[h0])
    holds = dist >= bound
    return dist, bound, holds


def b4_distortion(space, images):
    """dist of the map B_4 -> (B_infty, d_eps) given by `images` (a dict
    vertex -> image) over all vertex pairs of B_4; inf on a collapse: the
    extremes of the bulk B_4 check, on one row."""
    _, _, _, lo, hi = next(_b4_extremes(space, [[images[v].index for v in _B4]]))
    return Fraction(hi, lo) if lo else math.inf


def _b4_distortion_oracle(space, images):
    """b4_distortion before it, kept verbatim: distortion_of over every pair
    of _B4_PAIRS."""
    imgs = [images[v] for v in _B4]
    sd = space.scaled_distance
    return distortion_of([(d, sd(imgs[i], imgs[j])) for i, j, d in _B4_PAIRS])[2]


def _b4_outcome(fn, *args):
    """The value with its types, or the error's type and message."""
    try:
        out = fn(*args)
    except (CollapsedAncestorPair, DepthExceeded, PreconditionViolated) as exc:
        return type(exc), str(exc)
    values = out if isinstance(out, tuple) else (out,)
    return values, [type(x) for x in values]


def _b4_differential_cases(rng):
    """(space, images, delta): 2,000 maps of the b4-search stream (with its
    sibling collisions), maps on the 20 random schedules, warped unfaithful
    maps, maps with ancestor pairs collapsed, maps deeper than max_depth, and
    delta = 1/400, 0 and a float delta."""
    space = make_space(Fraction(1, 5), depth=60)
    gen = random.Random(1)
    for _ in range(2000):
        yield space, generate_faithful_b4(space, gen), Fraction(1, 512)
    shallow = make_space(Fraction(1, 5), depth=20)
    for sched in _schedules(rng, 20):
        for L in (1, 2, 3, 8, 15):
            f = generate_faithful_b4(sched, rng, L=L, collide_prob=0.3)
            yield sched, f, Fraction(1, 512)
            yield sched, f, rng.choice((Fraction(1, 400), Fraction(1, 401), 1e-3, 0))
            yield shallow, f, Fraction(1, 512)
            # three ancestor pairs collapsed: v and a child onto an ancestor
            v = rng.choice(enumerate_bn(3)[1:])
            a = f[v.ancestor(rng.randrange(v.depth))]
            yield sched, {**f, v: a, v.child(rng.randint(0, 1)): a}, Fraction(1, 512)
        yield sched, _warped_b4(rng), Fraction(1, 512)


def test_b4_bound_check_matches_the_per_pair_oracle():
    rng = random.Random(41)
    seen = set()
    for space, images, delta in _b4_differential_cases(rng):
        f = images.__getitem__
        old = _b4_outcome(_b4_bound_check_oracle, space, f, delta)
        assert _b4_outcome(b4_bound_check, space, f, delta) == old
        old_d = _b4_outcome(_b4_distortion_oracle, space, images)
        assert _b4_outcome(b4_distortion, space, images) == old_d
        if isinstance(old[0], type):
            seen.add(old[0])
        else:
            dist, _, holds = old[0]
            seen.add("inf" if math.isinf(dist) else holds)
    assert seen >= {True, "inf", CollapsedAncestorPair, DepthExceeded,
                    PreconditionViolated}, seen


def _b4_rows_outcome(fn, space, rows, delta):
    """The values with their types, or the error's type and message."""
    try:
        out = fn(space, rows, delta)
    except (CollapsedAncestorPair, DepthExceeded, PreconditionViolated) as exc:
        return type(exc), str(exc)
    return out, [[type(x) for x in r] for r in out]


def _b4_scalar_loop(space, rows, delta):
    """b4_bound_checks as a loop of the per-pair oracle over its rows."""
    return [_b4_bound_check_oracle(space, dict(zip(_B4, map(trees._vertex, row))).__getitem__,
                                   delta)
            for row in rows]


def _b4_row_pool(space, rng):
    """Rows for a batch on `space`: nested maps, collided ones (dist inf),
    warped unfaithful ones, ones with ancestor pairs collapsed, and ones
    deeper than max_depth, some of them past 2^63 in heap index."""
    deep = make_space(Fraction(1, 5), depth=2 * space.max_depth)
    pool = []
    for _ in range(6):
        L = rng.randint(1, space.max_depth // 4)
        pool.append(generate_faithful_b4(space, rng, L=L, collide_prob=0.0))
        pool.append(generate_faithful_b4(space, rng, L=L, collide_prob=1.0))
    f = pool[0]
    v = rng.choice(enumerate_bn(3)[1:])
    pool.append({**f, v: f[v.parent()]})
    pool.append(_warped_b4(rng))
    pool.append(generate_faithful_b4(deep, rng, L=rng.randint(space.max_depth // 4 + 1,
                                                              deep.max_depth // 4),
                                     collide_prob=0.0))
    return [[f[v].index for v in _B4] for f in pool]


def test_b4_bound_checks_match_the_scalar_loop():
    # batches of rows on the b4-search stream, on collided and deep rows, on
    # heap indices past 2^63, and on schedules whose den * d_eps values
    # overflow int64 (so scaled_path_distance gives Python ints): the same
    # values and types as the per-pair oracle's loop, or the error of its
    # first failing row
    rng = random.Random(43)
    space = make_space(Fraction(1, 5), depth=60)
    gen = random.Random(1)
    stream = [nested_b4_indices(space, gen) for _ in range(400)]
    batches = [(space, stream[k:k + 37], Fraction(1, 512)) for k in range(0, 400, 37)]
    harmonic = [Fraction(1, 4 + n) for n in range(101)]          # den = lcm(4..104)
    overflow = [HTreeSpace(harmonic, 60), HTreeSpace(harmonic, 100)]
    assert not any(trees._scaled_fits(s, s.max_depth) for s in overflow)
    for sched in _schedules(rng, 4) + overflow + [make_space(Fraction(1, 7), depth=100)]:
        pool = _b4_row_pool(sched, rng)
        batches.append((sched, pool[:12:2], Fraction(1, 512)))
        batches.append((sched, pool[:12], rng.choice((Fraction(1, 401), 1e-3, 0))))
        for _ in range(4):
            batch = rng.sample(pool, rng.randint(1, 8))
            batches.append((sched, batch, rng.choice((Fraction(1, 512), Fraction(1, 400)))))
    seen = set()
    for sched, rows, delta in batches:
        old = _b4_rows_outcome(_b4_scalar_loop, sched, rows, delta)
        assert _b4_rows_outcome(b4_bound_checks, sched, rows, delta) == old
        if isinstance(old[0], type):
            seen.add(old[0])
        else:
            seen.add("ok")
            if any(math.isinf(dist) for dist, _, _ in old[0]):
                seen.add("inf")
            if not trees._scaled_fits(sched, sched.max_depth):
                seen.add("object")
            if any(max(row) >= 2 ** 63 for row in rows):
                seen.add("2^63")
    assert seen >= {"ok", "inf", "object", "2^63", CollapsedAncestorPair, DepthExceeded,
                    PreconditionViolated}, seen
    assert b4_bound_checks(space, [], Fraction(1, 512)) == []


def test_b4_bound_checks_scale_past_int64():
    # den * d_eps fits int64 here (den = 10^15 + 37, values below 2^61), but
    # 840 times it does not: the verdicts and dists are still those of the
    # per-pair oracle's loop, on faithful, collided and unfaithful rows
    rng = random.Random(47)
    space = make_space(Fraction(1, 10 ** 15 + 37), depth=60)
    assert trees._scaled_fits(space, space.max_depth)
    # 840 L den passes 2^63 from L = 11 on
    rows = [nested_b4_indices(space, rng, L=L, collide_prob=p)
            for L, p in ((15, 0.0), (15, 1.0), (12, 0.0), (3, 0.0))]
    warped = [[f[v].index for v in _B4] for f in (_warped_b4(rng), _warped_b4(rng))]
    for batch in (rows, rows + warped[:1], warped):
        for delta in (Fraction(1, 512), 1e-3):
            assert _b4_rows_outcome(b4_bound_checks, space, batch, delta) == \
                _b4_rows_outcome(_b4_scalar_loop, space, batch, delta)
    assert b4_bound_checks(space, rows[:1], Fraction(1, 512))[0][0] == 10 ** 15 + 37


def test_int_descents_match_tuple_code():
    # the int descents and their nested map against the tuple code they
    # replace, collisions included, on the same random stream
    for seed in range(200):
        L, h0 = 1 + seed % 9, seed % 13
        for p in (0.0, 0.5, 1.0):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            root, old_root = random_bits(new_rng, h0), _old_random_bits(old_rng, h0)
            new = _random_descents(new_rng, L, p)
            old = _old_random_descents(old_rng, L, p)
            assert new_rng.getstate() == old_rng.getstate()
            assert list(new) == list(old)
            assert all(new[v] == int("0" + "".join(map(str, old[v])), 2) for v in old)
            assert _nested_embedding(L, h0, root, new) == \
                _old_nested_embedding(L, h0, old_root, old)


def _scalar_triple_violations(space, rng, count):
    """htree_random_triple_violations as a per-triple loop: each vertex
    decoded from scalar words by the per-vertex oracle of
    random_depth_bits, hung from ROOT and compared on scaled_distance."""
    bad = []
    sd = space.scaled_distance
    for _ in range(count):
        x, y, z = (ROOT.hang(bits, k) for k, bits in _scalar_depth_bits(rng, space.max_depth, 3))
        if sd(x, z) > sd(x, y) + sd(y, z):
            bad.append((x, y, z))
    return bad


def test_triple_violations_match_per_triple_loop():
    # the same triples in the same order, and the same end state of rng: on
    # valid schedules (never a violation) and on invalid ones built unchecked
    rng = random.Random(14)
    cases = [(random_valid_epsilon(rng, depth), depth, 0)
             for depth in (0, 1, 7, 64, 64, 64, 100)]
    cases += [(EpsilonSequence([Fraction(1, 100)] * 5 + [1] * 60, check=False), 64, 87),
              (EpsilonSequence([3] * 65, check=False), 64, 296),
              (EpsilonSequence([Fraction(1, 2)] * 2 + [1] * 9, check=False), 10, 65)]
    for eps, depth, violations in cases:
        space = HTreeSpace(eps, depth)
        new_rng, old_rng = random.Random(1), random.Random(1)
        new = htree_random_triple_violations(space, new_rng, 2000)
        assert new == _scalar_triple_violations(space, old_rng, 2000)
        assert all(type(v) is TreeVertex for triple in new for v in triple)
        assert len(new) == violations
        assert new_rng.getstate() == old_rng.getstate()


def test_triple_violations_match_per_triple_loop_at_every_width():
    # unchecked random schedules at the depths where the path bits change
    # type (uint64 up to 64, Python ints past it) and the scaled distances
    # change dtype (int64, or Python ints past 2^61), each with violations
    rng = random.Random(2026)
    kinds = set()
    for depth in (0, 1, 63, 64, 65, 100):
        for trial in range(4):
            # eps_1 > 1 makes the root a shortcut between its two children
            vals = [Fraction(rng.randint(3, 9), 2) for _ in range(min(depth + 1, 2))] + [
                Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 7, 2 ** 61 + 1][:4 + trial % 2]))
                for _ in range(depth - 1)]
            space = HTreeSpace(EpsilonSequence(vals, check=False), depth)
            kinds.add((depth > 64, trees._scaled_fits(space, depth)))
            seed = rng.randrange(10 ** 6)
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            new_rng.gauss(0, 1)
            old_rng.gauss(0, 1)
            new = htree_random_triple_violations(space, new_rng, 600)
            assert new == _scalar_triple_violations(space, old_rng, 600), depth
            # at depth 0 every vertex is the root, which violates nothing
            assert bool(new) == (depth > 0), (depth, trial)
            assert new_rng.getstate() == old_rng.getstate()
            assert new_rng.random() == old_rng.random()
    assert kinds == {(wide, fits) for wide in (False, True) for fits in (False, True)}
