"""The exact-number policy against the formulas it replaced.

Each `old_*` function below is the implementation from before exactness was
decided once per computation (`metric.number_type`), kept verbatim as the
oracle: one copy of each formula in Fraction and one in float.  On a seeded
battery of int, Fraction and float inputs, with integral and non-integral p,
the current functions must give equal values of the same types, or raise the
same exception.
"""
import math
import random
from fractions import Fraction

import pytest

from mconvex import banach, markov, metric, quotients
from mconvex.banach import LpSpace, SLACK_REL_TOL
from mconvex.embeddings import paths
from mconvex.embeddings.generators import RealLine, random_chain
from mconvex.embeddings.paths import PathMap, path_distortion
from mconvex.errors import (BoostFailed, DegenerateChain, MconvexError, OutOfRange,
                            PreconditionViolated, check)
from mconvex.markov import (ConvexityReport, _bn_intervals, _check_p, _CondCache,
                            _DistPowCache, _k_max, _laakso_intervals, _report,
                            default_k_max, downward_walk, laakso_time_set, rhs_step_sum)
from mconvex.metric import FiniteMetricSpace, is_integral
from mconvex.quotients import QuotientMap, lift_chain, trajectory_chain
from mconvex.trees import HTreeSpace, enumerate_bn, tree_distance


# ---------------------------------------------------------------------------
# the old formulas, verbatim
# ---------------------------------------------------------------------------

def _exactable(p, *vectors):
    if not is_integral(p):
        return False
    return all(isinstance(c, (int, Fraction)) for v in vectors for c in v)


def old_norm_pow(v, p):
    if _exactable(p, v):
        q = int(p)
        return sum((abs(c) if q >= 0 else Fraction(abs(c))) ** q for c in v)
    return sum(abs(float(c)) ** p for c in v)


def old_check_pconvexity(space, K, a, b):
    p = space.p
    if p < 2:
        raise ValueError("p-convexity check requires p >= 2")
    apb = tuple(x + y for x, y in zip(a, b))
    amb = tuple(x - y for x, y in zip(a, b))
    rhs = old_norm_pow(apb, p) + old_norm_pow(amb, p)
    if _exactable(p, a, b) and isinstance(K, (int, Fraction)):
        lhs = 2 * old_norm_pow(a, p) + 2 / Fraction(K) ** int(p) * old_norm_pow(b, p)
    else:
        lhs = 2 * float(old_norm_pow(a, p)) + 2 / float(K) ** p * float(old_norm_pow(b, p))
        rhs = float(rhs)
    return rhs - lhs


def old_fork_slack(x, y, z, w, space, K):
    p = space.p
    diff = lambda u, v: tuple(a - b for a, b in zip(u, v))
    exact = _exactable(p, x, y, z, w) and isinstance(K, (int, Fraction))
    xw = old_norm_pow(diff(x, w), p)
    xz = old_norm_pow(diff(x, z), p)
    zw = old_norm_pow(diff(z, w), p)
    yw = old_norm_pow(diff(y, w), p)
    zy = old_norm_pow(diff(z, y), p)
    yx = old_norm_pow(diff(y, x), p)
    if exact:
        pi = int(p)
        lhs = (xw + xz) / Fraction(2 ** (pi - 1)) + zw / (Fraction(4) ** (pi - 1) * Fraction(K) ** pi)
    else:
        lhs = (float(xw) + float(xz)) / 2 ** (p - 1) + float(zw) / (4 ** (p - 1) * float(K) ** p)
        yw, zy, yx = float(yw), float(zy), float(yx)
    return yw + zy + 2 * yx - lhs


def old_check_prop21(chain, f, space, K, k_max=None):
    p = space.p
    target = space.as_metric_space([f(s) for s in chain.states])
    report = old_convexity_ratio(chain, lambda s: tuple(f(s)), target, p, k_max=k_max)
    if is_integral(p) and isinstance(K, (int, Fraction)):
        bound = Fraction(4 * K) ** int(p) * report.rhs
        holds = report.lhs_total <= bound
    else:
        bound = (4 * float(K)) ** p * float(report.rhs)
        holds = float(report.lhs_total) <= bound * (1 + SLACK_REL_TOL)
    return report.lhs_total, bound, holds


def old_trivial_renorm_bound(x, m, space):
    if m > 10:
        raise ValueError("m <= 10")
    p = space.p
    steps = [old_norm_pow(x, p) for _ in range(m)]  # ||tx - (t-1)x||^p = ||x||^p
    avg = sum(steps) / (Fraction(m) if not isinstance(steps[0], float) else m)
    value = float(avg) ** (1.0 / p)
    nx = space.norm(x)
    check(value <= nx + SLACK_REL_TOL * max(1.0, nx),
          "straight-line value %s exceeds ||x|| = %s", value, nx)
    return value


def old_dist_pow(space, x, y, p):
    d = space.dist(x, y)
    if is_integral(p):
        return d ** int(p)
    return float(d) ** p


def old_midpoint_set(space, x, z, delta):
    if x == z:
        raise ValueError("midpoint_set requires x != z")
    d = space.dist(x, z)
    if isinstance(d, (int, Fraction)) and not isinstance(delta, float):
        bound = Fraction(1 + Fraction(delta), 2) * d
    else:
        bound = (1 + delta) / 2 * d
    out = set()
    for y in space.points:
        if max(space.dist(x, y), space.dist(y, z)) <= bound:
            out.add(y)
    return out


def old_is_midpoint(space, x, y, z, delta):
    if x == z:
        raise ValueError("midpoints need x != z")
    sd = space.scaled_distance
    if sd is not None and not isinstance(delta, float):
        delta = Fraction(delta)
        p, q = delta.numerator, delta.denominator
        return max(sd(x, y), sd(y, z)) * 2 * q <= (q + p) * sd(x, z)
    d = space.dist(x, z)
    delta = Fraction(delta) if not isinstance(delta, float) else delta
    bound = (1 + delta) * d / 2
    return max(space.dist(x, y), space.dist(y, z)) <= bound


def old_QuotientMap_factors(a, b):
    return (Fraction(a) if not isinstance(a, float) else a,
            Fraction(b) if not isinstance(b, float) else b)


def old_transfer_check(q, chain, g, p, k_max=None):
    f = q.f
    rep_y = old_convexity_ratio(chain, g, f.target, p, k_max=k_max)
    tchain = trajectory_chain(chain)
    h_star = lift_chain(q, chain, g)
    rep_x = old_convexity_ratio(tchain, h_star, f.source, p, k_max=k_max)
    exact = isinstance(rep_y.rhs, (int, Fraction)) and isinstance(rep_x.rhs, (int, Fraction))
    ap = Fraction(q.a) ** int(p) if exact and not isinstance(q.a, float) else float(q.a) ** p
    bp = Fraction(q.b) ** int(p) if exact and not isinstance(q.b, float) else float(q.b) ** p
    step_ok = rep_x.rhs <= ap * rep_y.rhs
    lhs_ok = rep_y.lhs_total <= bp * rep_x.lhs_total
    bound = ap * bp * rep_x.ratio
    holds = step_ok and lhs_ok and rep_y.ratio <= bound
    return rep_y.ratio, bound, holds


def old_t_functional(f):
    return old_block_t(f, 0, f.n)


def old_block_t(f, lo, hi):
    steps = f.step_dists(lo, hi)
    mx = max(steps) if steps else 0
    if mx == 0:
        return 0
    end = f.target.dist(f(lo), f(hi))
    if isinstance(end, (int, Fraction)) and isinstance(mx, (int, Fraction)):
        return Fraction(end) / ((hi - lo) * Fraction(mx))
    return float(end) / ((hi - lo) * float(mx))


def old_submultiplicative_split(f, m, n):
    coarse = f.restrict([i * n for i in range(m + 1)])
    best_i = 0
    best_t = None
    for i in range(m):
        ti = old_block_t(f, i * n, (i + 1) * n)
        if best_t is None or ti > best_t:
            best_t = ti
            best_i = i
    block = f.restrict(list(range(best_i * n, (best_i + 1) * n + 1)))
    tf = old_t_functional(f)
    tc = old_t_functional(coarse)
    tb = old_t_functional(block)
    if isinstance(tf, Fraction) and isinstance(tc, Fraction) and isinstance(tb, Fraction):
        holds = tf <= tc * tb
    else:
        holds = float(tf) <= float(tc) * float(tb) * (1 + 1e-12) + 1e-15
    check(holds, "submultiplicativity violated: %s > %s * %s", tf, tc, tb)
    return coarse, block, best_i


def old_path_boost(f, t, delta):
    if t < 2:
        raise PreconditionViolated(f"t = {t} < 2")
    if delta < 0:
        raise OutOfRange(f"delta = {delta} < 0: no distortion is below 1")
    n = f.n
    k = 0
    while t ** (k + 1) <= n:
        k += 1
    if k < 1:
        raise PreconditionViolated(f"path length {n} shorter than t = {t}")
    best_grid = None
    best_t = -1
    base = 0
    for level in range(k, 0, -1):
        step = t ** (level - 1)
        grid = [base + i * step for i in range(t + 1)]
        tg = old_t_functional(f.restrict(grid))
        if tg > best_t:
            best_t = tg
            best_grid = grid
        blk_best = None
        blk_i = 0
        for i in range(t):
            ti = old_block_t(f, base + i * step, base + (i + 1) * step)
            if blk_best is None or ti > blk_best:
                blk_best = ti
                blk_i = i
        base = base + blk_i * step

    threshold = 1 - Fraction(delta) / (2 * t) if not isinstance(delta, float) \
        else 1 - delta / (2 * t)
    if best_t < threshold:
        raise BoostFailed(
            f"best grid T = {float(best_t):.6f} below threshold {float(threshold):.6f}",
            best_grid=best_grid, best_t=best_t)
    composed = f.restrict(best_grid)
    dist = path_distortion(composed)
    eps = 1 - best_t
    check(eps < Fraction(1, t) if isinstance(eps, Fraction) else eps < 1 / t,
          "1 - T = %s is not below 1/t = 1/%s", eps, t)
    bound = 1 / (1 - t * eps)
    check(dist <= bound if isinstance(dist, Fraction) and isinstance(bound, Fraction)
          else float(dist) <= float(bound) * (1 + 1e-12),
          "distortion %s exceeds the log-embedding bound %s", dist, bound)
    check(float(bound) <= 1 + float(delta) * (1 + 1e-12),
          "log-embedding bound %s exceeds 1 + delta = 1 + %s", bound, delta)
    return best_grid, best_t, dist


def _integer_law(mu):
    """A law {state: Fraction} as the vector (den, {state: num}), as the DP
    read it before its laws were propagated on ints."""
    den = math.lcm(*(p.denominator for p in mu.values()))
    return den, {z: p.numerator * (den // p.denominator) for z, p in mu.items() if p}


def old_fork_term(mu, M, dpow):
    if M is None:
        return 0
    denM, rows = M
    den_mu, mu_num = mu
    weights = {}
    for z, nz in mu_num.items():
        row = rows.get(z)
        if row is None or len(row) < 2:
            continue
        items = list(row.items())
        for i, (x, nx) in enumerate(items, 1):
            nzx = nz * nx
            for y, ny in items[i:]:
                key = (x, y)
                weights[key] = weights.get(key, 0) + nzx * ny
    if not weights:
        return 0
    total = 0
    for (x, y), w in weights.items():
        d = dpow.get(x, y)
        if d:
            total += d * w
    if dpow.den is not None:
        return Fraction(2 * total, den_mu * denM ** 2 * dpow.den)
    if isinstance(total, float):
        return 2 * total / (den_mu * denM ** 2)
    return 2 * total / Fraction(den_mu * denM ** 2)


def old_sanity_bound(rhs, p, exact):
    return (Fraction(4) ** int(p) if exact else 4.0 ** p) * rhs


def old_convexity_ratio(chain, f, space, p, k_max=None):
    _check_p(p)
    if k_max is None:
        k_max = default_k_max(chain)
    rhs = rhs_step_sum(chain, f, space, p)
    dpow = _DistPowCache(space, f, p)
    cache = _CondCache(chain)
    exact_p = is_integral(p)
    laws = [_integer_law(chain.law(s)) for s in range(chain.t_min, chain.t_max + 1)]
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        total = 0
        boundary_lo = boundary_hi = None
        for t in range(chain.t_min, chain.t_max + gap + 1):
            s = t - gap
            if s >= chain.t_max:
                break
            mu = laws[max(s - chain.t_min, 0)]
            term = old_fork_term(mu, cache.cond(s, k), dpow)
            if t == chain.t_min:
                boundary_lo = term
            if t == chain.t_max + gap:
                boundary_hi = term
            total += term
        cache.release(k - 1)
        check(not boundary_lo, "lower boundary summand must vanish at k=%d", k)
        check(not boundary_hi, "upper boundary summand must vanish at k=%d", k)
        scale = Fraction(2) ** (k * int(p)) if exact_p else 2.0 ** (k * p)
        term_k = total / scale if total else total
        check(term_k <= old_sanity_bound(rhs, p, exact_p),
              "per-k sanity bound failed at k=%d", k)
        per_k.append(term_k)
    if rhs == 0:
        report = ConvexityReport(p, per_k, sum(per_k), rhs, None, None)
        err = DegenerateChain("one-step sum is zero; ratio undefined")
        err.report = report
        raise err
    return _report(p, per_k, rhs)


def old_interval_ratio(p, pairs, depth, hop_den, rhs, k_max):
    exact = is_integral(p)
    q = int(p) if exact else p
    unit = 2 ** depth if exact else 1
    delta = [0] * (k_max + 1)
    last = suffix = None
    for t, since_b, hops in pairs:
        if t != last:
            last, suffix = t, 0
        longer = hops ** q * unit + suffix
        longer = longer >> 1 if exact else longer / 2
        delta[(since_b - 1).bit_length()] += longer - suffix
        suffix = longer
    per_k = []
    total = 0
    for k in range(k_max + 1):
        total += delta[k]
        if exact:
            term_k = Fraction(total, unit * hop_den ** q * 2 ** (k * q)) if total else 0
        else:
            term_k = total / (hop_den ** p * 2.0 ** (k * p)) if total else 0
        check(term_k <= old_sanity_bound(rhs, p, exact), "per-k sanity bound failed at k=%d", k)
        per_k.append(term_k)
    return _report(p, per_k, rhs)


def old_bn_ratio(n, p):
    if n < 1:
        raise OutOfRange(f"n = {n} < 1")
    _check_p(p)
    k_max = _k_max(n)
    rhs = n * (Fraction(1) if is_integral(p) else 1.0)
    return old_interval_ratio(p, _bn_intervals(n, k_max), n, 1, rhs, k_max)


def old_laakso_ratio(m, p):
    _check_p(p)
    k_max = _k_max(4 ** m)
    rhs = Fraction(1, 4 ** (m * (int(p) - 1))) if is_integral(p) else 4.0 ** (-m * (p - 1))
    return old_interval_ratio(p, _laakso_intervals(m), m, 4 ** m, rhs, k_max)


def old_per_k_laakso_bound(m, k, p):
    count = laakso_time_set(m, k)
    if is_integral(p):
        bound = count * Fraction(1, 2 ** ((2 * m + 3) * int(p) + 1))
    else:
        bound = count * 2.0 ** (-(2 * m + 3) * p - 1)
    return count, bound


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def same(a, b):
    """Equal in value and in type, recursively through tuples, lists, sets
    and reports (nan equals nan)."""
    if isinstance(a, ConvexityReport):
        return type(b) is ConvexityReport and same(
            (a.p, a.per_k, a.lhs_total, a.rhs, a.ratio, a.pi_lower),
            (b.p, b.per_k, b.lhs_total, b.rhs, b.ratio, b.pi_lower))
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except (MconvexError, ValueError, ZeroDivisionError, OverflowError) as exc:
        return ("raised", type(exc).__name__, str(exc))


def assert_same(new, old, seen):
    """new and old are the same; add the type names of old's leaves (or
    "raised") to `seen`."""
    assert same(new, old), (new, old)
    if isinstance(old, tuple) and old[:1] == ("raised",):
        seen.add("raised")
    elif isinstance(old, (tuple, list)):
        for item in old:
            assert_same(item, item, seen)
    else:
        seen.add(type(old).__name__)


P_VALUES = (2, 3, 2.0, 2.5, 2.7)
K_VALUES = (1, 2, Fraction(3, 2), Fraction(5, 4), 1.0, 1.5, 1.25)
KINDS = ("int", "int", "frac", "frac", "float", "mixed")


def number(rng, kind):
    """A random coordinate of the kind: int, Fraction, float, or any of them."""
    if kind == "mixed":
        kind = rng.choice(("int", "frac", "float"))
    c = rng.randint(-6, 6)
    if kind == "int":
        return c
    if kind == "frac":
        return Fraction(c, rng.randint(1, 5))
    return c / rng.choice((1, 2, 3, 7))


def vector(rng, d, kind):
    return tuple(number(rng, kind) for _ in range(d))


def test_norm_pow_and_the_convexity_inequalities_match_the_old_formulas():
    rng = random.Random(15)
    seen = set()
    for _ in range(600):
        d = rng.randint(1, 4)
        p, K = rng.choice(P_VALUES), rng.choice(K_VALUES)
        sp = LpSpace(d, p)
        kinds = [rng.choice(KINDS) for _ in range(4)]
        x, y, z, w = (vector(rng, d, kind) for kind in kinds)
        assert_same(outcome(banach.norm_pow, x, p), outcome(old_norm_pow, x, p), seen)
        assert_same(outcome(banach.check_pconvexity, sp, K, x, y),
                    outcome(old_check_pconvexity, sp, K, x, y), seen)
        assert_same(outcome(banach.fork_slack, x, y, z, w, sp, K),
                    outcome(old_fork_slack, x, y, z, w, sp, K), seen)
        m = rng.randint(1, 10)
        assert_same(outcome(banach.trivial_renorm_bound, x, m, sp),
                    outcome(old_trivial_renorm_bound, x, m, sp), seen)
    # a negative integer power stays an exact Fraction
    assert_same(banach.norm_pow((2, -4), -1), old_norm_pow((2, -4), -1), seen)
    assert {"int", "Fraction", "float"} <= seen


def test_check_prop21_matches_the_old_formula():
    rng = random.Random(21)
    kinds = {"int": lambda c: c, "frac": lambda c: Fraction(c, 2),
             "float": lambda c: c / 2}
    seen, held = set(), 0
    for _ in range(60):
        chain, f = random_chain(rng, max_states=6, horizon=5)
        conv = kinds[rng.choice(sorted(kinds))]
        g = lambda s, f=f, conv=conv: tuple(conv(c) for c in f(s))
        sp = LpSpace(3, rng.choice(P_VALUES))
        K = rng.choice(K_VALUES)
        new = outcome(banach.check_prop21, chain, g, sp, K)
        assert_same(new, outcome(old_check_prop21, chain, g, sp, K), seen)
        held += new[0] != "raised" and new[2] is True
    assert held >= 30 and {"Fraction", "float", "bool", "raised"} <= seen


def fold(n, scale, a, b):
    """The fold of the path 0..2n onto 0..n (i -> |n - i|) as an (a, b)
    quotient, with distances |i - j| times `scale` (exact when it is)."""
    exact = not isinstance(scale, float)
    X = FiniteMetricSpace(list(range(2 * n + 1)), lambda i, j: abs(i - j) * scale, exact=exact)
    Y = FiniteMetricSpace(list(range(n + 1)), lambda i, j: abs(i - j) * scale, exact=exact)
    return QuotientMap(metric.PointMap(X, Y, lambda i: abs(n - i)), a, b)


def reflecting_walk(n, horizon, start):
    kernels = {t: {y: ({1: Fraction(1)} if y == 0 else {n - 1: Fraction(1)} if y == n
                       else {y - 1: Fraction(1, 2), y + 1: Fraction(1, 2)})
                   for y in range(n + 1)}
               for t in range(1, horizon + 1)}
    return markov.ChainSpec(range(n + 1), 0, horizon, kernels, {start: Fraction(1)})


def test_transfer_check_and_quotient_factors_match_the_old_formulas():
    rng = random.Random(195)
    factors = (1, Fraction(1), 1.0, Fraction(3, 2), 1.5, 2, Fraction(7, 5), 1.4)
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        a, b = rng.choice(factors), rng.choice(factors)
        # scales whose floats are exact: verify_quotient compares float b * r
        # with exact distances without rounding slack
        q = fold(n, rng.choice((1, Fraction(1, 2), 0.5, 0.25)), a, b)
        assert same((q.a, q.b), old_QuotientMap_factors(a, b))
        chain = reflecting_walk(n, rng.randint(2, 4), rng.randint(0, n))
        p = rng.choice(P_VALUES)
        assert_same(outcome(quotients.transfer_check, q, chain, lambda y: y, p),
                    outcome(old_transfer_check, q, chain, lambda y: y, p), seen)
    assert {"Fraction", "float", "bool"} <= seen


def test_path_functionals_and_boost_match_the_old_formulas():
    rng = random.Random(60)
    convert = {"int": lambda v: v, "frac": lambda v: v / 3, "float": float,
               "mixed": lambda v: v / 3 if rng.random() < 0.5 else float(v / 3)}
    seen = set()
    for _ in range(120):
        t = rng.choice((2, 3, 4))
        n = t ** rng.randint(1, 3) * rng.choice((1, 2))
        kind = rng.choice(sorted(convert))
        vals, pos = [], 0
        for _ in range(n + 1):
            vals.append(convert[kind](Fraction(pos)))
            pos += rng.choice((1, 1, 1, 2, 0, -1))
        f = PathMap(n, RealLine(), vals)
        assert_same(outcome(paths.t_functional, f), outcome(old_t_functional, f), seen)
        lo = rng.randint(0, n - 1)
        hi = rng.randint(lo + 1, n)
        assert_same(outcome(paths._block_t, f, lo, hi), outcome(old_block_t, f, lo, hi), seen)
        m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        new, old = (outcome(fn, f, m, n // m) for fn in
                    (paths.submultiplicative_split, old_submultiplicative_split))
        assert same(new[0] == "raised", old[0] == "raised")
        if new[0] != "raised":
            assert same((new[0].assignment, new[1].assignment, new[2]),
                        (old[0].assignment, old[1].assignment, old[2]))
        delta = rng.choice((Fraction(1, 2), Fraction(3, 2), 0.5, 1, 2, 0.25, 0))
        new = outcome(paths.path_boost, f, t, delta)
        if not isinstance(new, tuple):
            new = (new.grid, new.t_value, new.dist)
        assert_same(new, outcome(old_path_boost, f, t, delta), seen)
    assert {"int", "Fraction", "float", "raised"} <= seen


def test_midpoints_and_dist_pow_match_the_old_formulas():
    rng = random.Random(416)
    deltas = (Fraction(1, 32), Fraction(1, 3), 0, 1, 0.25, 1 / 3, 0.0)
    spaces = []
    for kind in ("int", "frac", "float", "mixed"):
        pts = list(range(7))
        coords = [number(rng, kind) for _ in pts]
        spaces.append(FiniteMetricSpace(pts, lambda i, j, c=coords: abs(c[i] - c[j]),
                                        exact=kind in ("int", "frac")))
    eps = [Fraction(1, 5)] * 7
    spaces.append(HTreeSpace(eps, 6).as_metric_space(enumerate_bn(3)))
    tree_pts = enumerate_bn(3)
    spaces.append(FiniteMetricSpace(tree_pts, lambda u, v: float(tree_distance(u, v)),
                                    exact=False))
    checked = 0
    for _ in range(400):
        space = rng.choice(spaces)
        x, y, z = (rng.choice(space.points) for _ in range(3))
        delta = rng.choice(deltas)
        p = rng.choice(P_VALUES + (1, -1))
        assert same(outcome(space.dist_pow, x, y, p), outcome(old_dist_pow, space, x, y, p))
        if x == z:
            continue
        assert same(metric.is_midpoint(space, x, y, z, delta),
                    old_is_midpoint(space, x, y, z, delta))
        assert metric.midpoint_set(space, x, z, delta) == old_midpoint_set(space, x, z, delta)
        checked += 1
    assert checked >= 300


@pytest.mark.parametrize("p", P_VALUES)
def test_convexity_ratio_matches_the_old_formula(p):
    # B_3's downward walk into an exact tree space, a float copy of it, and
    # a float line
    verts = enumerate_bn(3)
    targets = [HTreeSpace([Fraction(1, 3)] * 5, 4).as_metric_space(verts),
               FiniteMetricSpace(verts, lambda u, v: float(tree_distance(u, v)) / 3, exact=False),
               FiniteMetricSpace(verts, lambda u, v: abs(u.index - v.index) * 0.7, exact=False)]
    for space in targets:
        chain = downward_walk(3)
        new = markov.convexity_ratio(chain, lambda v: v, space, p)
        old = old_convexity_ratio(chain, lambda v: v, space, p)
        assert same(new, old)


@pytest.mark.parametrize("p", (1, 2, 3, 2.5, 2.7, 1.01, 3.7))
def test_walk_closed_forms_match_the_old_formulas(p):
    for n in (1, 2, 5, 16, 33):
        assert same(markov.bn_ratio(n, p), old_bn_ratio(n, p))
    for m in range(5):
        assert same(markov.laakso_ratio(m, p), old_laakso_ratio(m, p))
        for k in range(2 * m - 1):
            assert same(markov.per_k_laakso_bound(m, k, p), old_per_k_laakso_bound(m, k, p))
