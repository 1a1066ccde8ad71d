import math
import random
from fractions import Fraction

import pytest

from mconvex.embeddings.extract import extract_vertically_faithful
from mconvex.embeddings.generators import RealLine, gen_boost_path, make_space
from mconvex.embeddings import paths
from mconvex.embeddings.paths import (PathMap, path_boost, path_distortion,
                                      submultiplicative_split, t_functional)
from mconvex.embeddings.ramsey import ExhaustionReport, ramsey_search, tkm_vertices
from mconvex.embeddings.search import b4_search, distortion_gap_experiment, \
    generate_faithful_b4
from mconvex.embeddings.vertical import bn_vertical_report, vertical_report
from mconvex.errors import (BoostFailed, CollapsedAncestorPair, InvariantViolated,
                            PipelineFailed, TooLarge)
from mconvex.trees import TreeVertex, enumerate_bn, tree_distance


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


# ------------------------------------------------------------------ vertical

def test_vertical_report_identity():
    rep = bn_vertical_report(lambda v: v, 4,
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


# -------------------------------------------------------------------- search

def test_generate_faithful_b4_is_faithful():
    space = make_space(Fraction(1, 5), depth=60)
    rng = random.Random(3)
    for _ in range(25):
        f = generate_faithful_b4(space, rng)
        rep = bn_vertical_report(lambda v: f[v], 4,
                                 type("T", (), {"dist": space.distance})())
        assert rep.D == 1


def test_b4_search_respects_rigidity_floor():
    space = make_space(Fraction(1, 5), depth=60)
    best, best_d, bound, holds = b4_search(space, Fraction(1, 512), trials=60, seed=2)
    assert holds
    assert best_d >= bound


def test_distortion_gap_experiment():
    space = make_space(Fraction(1, 5), depth=60)
    out = distortion_gap_experiment(space, lambda n: 5, 8, seed=1, trials=40)
    assert out["floor_holds"]
    assert out["upper_bound"] == 5
    assert out["search_best_dist"] >= out["rigidity_floor"]
