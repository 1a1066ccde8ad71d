"""Finite-dimensional l_p spaces and the linear convexity inequalities.

Checks the power-type-p convexity inequality

    2 ||a||^p + (2/K^p) ||b||^p  <=  ||a+b||^p + ||a-b||^p        (p >= 2)

its four-point "fork" consequence, and the transfer of these inequalities to
Markov chains.  Because the inequality involves only p-th powers of norms, it
evaluates exactly in rational arithmetic for integer p and rational inputs;
non-integer p falls back to floats with a relative 1e-9 tolerance policy.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import OutOfRange, check
from .metric import FiniteMetricSpace, number_type, power, to_float

SLACK_REL_TOL = 1e-9


def norm_pow(v, p):
    """||v||_p^p = sum |v_i|^p.  The number type is chosen once: for integral
    p and exact coordinates it is sum |v_i| ** int(p), exact, and an int when
    the coordinates are ints and p >= 0 (Fractions for p < 0); else it is
    the same sum in floats."""
    if number_type(p, *v) is float:
        return sum(abs(float(c)) ** p for c in v)
    if p < 0:
        v = map(Fraction, v)
    return sum(abs(c) ** int(p) for c in v)


class LpSpace:
    """R^d with the l_p norm."""

    def __init__(self, d, p):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.d = d
        self.p = p

    def norm(self, v):
        return float(norm_pow(v, self.p)) ** (1.0 / self.p)

    def dist(self, x, y):
        return self.norm(tuple(a - b for a, b in zip(x, y)))

    def dist_pow(self, x, y, q):
        """d(x, y)^q; exact when q == p and p is an integer (it is then just
        the coordinate power sum), floating otherwise."""
        diff = tuple(a - b for a, b in zip(x, y))
        if q == self.p:
            return norm_pow(diff, self.p)
        return float(norm_pow(diff, self.p)) ** (q / self.p)

    def as_metric_space(self, points):
        pts = [tuple(pt) for pt in points]
        return FiniteMetricSpace(pts, self.dist, exact=False, tol=1e-9,
                                 dist_pow=self.dist_pow)


def check_pconvexity(space, K, a, b):
    """Slack of the p-convexity inequality for the pair (a, b): rhs - lhs.

    Nonnegative slack means the inequality holds for this pair.  Exact
    rational for integer p with rational inputs and K.
    """
    p = space.p
    if p < 2:
        raise ValueError("p-convexity check requires p >= 2")
    apb = tuple(x + y for x, y in zip(a, b))
    amb = tuple(x - y for x, y in zip(a, b))
    num = number_type(p, K, *a, *b)
    rhs = num(norm_pow(apb, p) + norm_pow(amb, p))
    lhs = 2 * num(norm_pow(a, p)) + 2 / power(num(K), p) * num(norm_pow(b, p))
    return rhs - lhs


def pconvexity_slacks(d, p, K, trials, seed=0):
    """Vectorized slack evaluation over `trials` random Gaussian pairs.

    Returns a numpy array of slacks (floats); used by the randomized harness
    where 10^5 exact evaluations would be needlessly slow.  Raises
    OutOfRange unless p >= 2 (below it the inequality fails) and K > 0.
    """
    import numpy as np

    if p < 2 or not K > 0:
        raise OutOfRange(f"need p >= 2 and K > 0, got p = {p}, K = {K}")
    p = to_float(p, "p")  # numpy would raise to a Fraction p on Python objects
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((trials, d))
    b = rng.standard_normal((trials, d))
    npow = lambda m: (np.abs(m) ** p).sum(axis=1)
    return npow(a + b) + npow(a - b) - 2 * npow(a) - 2 / K ** p * npow(b)


def _adversarial_pairs(d, trials, seed):
    """Structured + random sample pairs for find_K.

    Includes the known extremal directions: collinear pairs (b = t*a) and
    disjointly supported pairs, alongside uniform Gaussian samples.
    """
    rng = random.Random(seed)
    pairs = []
    e = [0.0] * d
    e0 = list(e); e0[0] = 1.0
    for t in (1.0, 0.5, 0.1, 0.01):
        pairs.append((tuple(e0), tuple(t * c for c in e0)))
    if d >= 2:
        e1 = list(e); e1[1] = 1.0
        for t in (1.0, 0.5, 0.1):
            pairs.append((tuple(e0), tuple(t * c for c in e1)))
    while len(pairs) < trials:
        a = tuple(rng.gauss(0, 1) for _ in range(d))
        b = tuple(rng.gauss(0, 1) for _ in range(d))
        pairs.append((a, b))
    return pairs


def find_K(space, trials=1000, seed=0, rel_step=1e-3):
    """Empirical least K for which the sampled pairs satisfy p-convexity.

    Bisection over K against structured adversarial plus random pairs.  The
    result is an empirical estimate (all samples pass at K, some sample fails
    at K/(1+rel_step)), not a certificate.
    """
    p = space.p
    pairs = _adversarial_pairs(space.d, trials, seed)

    def passes(K):
        for a, b in pairs:
            s = check_pconvexity(space, K, a, b)
            scale = max(1.0, abs(float(norm_pow(a, p))), abs(float(norm_pow(b, p))))
            if float(s) < -SLACK_REL_TOL * scale:
                return False
        return True

    lo, hi = 1.0, 1.0
    while not passes(hi):
        lo = hi
        hi *= 2
        if hi > 2 ** 40:  # pragma: no cover - p >= 2 always terminates
            raise RuntimeError("find_K failed to bracket")
    if hi == 1.0:
        return 1.0
    while hi / lo > 1 + rel_step:
        mid = math.sqrt(lo * hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fork_slack(x, y, z, w, space, K):
    """Slack of the four-point fork inequality:

    (||x-w||^p + ||x-z||^p) / 2^(p-1) + ||z-w||^p / (4^(p-1) K^p)
        <=  ||y-w||^p + ||z-y||^p + 2 ||y-x||^p
    """
    p = space.p
    num = number_type(p, K, *x, *y, *z, *w)
    xw, xz, zw, yw, zy, yx = (num(norm_pow(tuple(a - b for a, b in zip(u, v)), p))
                              for u, v in ((x, w), (x, z), (z, w), (y, w), (z, y), (y, x)))
    lhs = (xw + xz) / power(2, p - 1) + zw / (power(4, p - 1) * power(num(K), p))
    return yw + zy + 2 * yx - lhs


def check_prop21(chain, f, space, K, k_max=None):
    """Transfer of p-convexity to Markov chains in l_p:

    sum_k sum_t E[...]/2^(kp)  <=  (4K)^p sum_t E[step^p]

    Both sides are computed by the exact DP over the l_p metric (exact for
    integer p).  Returns (lhs, bound, holds).
    """
    from .markov import convexity_ratio
    p = space.p
    target = space.as_metric_space([f(s) for s in chain.states])
    report = convexity_ratio(chain, lambda s: tuple(f(s)), target, p, k_max=k_max)
    num = number_type(p, K)
    bound = power(num(4 * K), p) * report.rhs
    tol = 0 if num is Fraction else SLACK_REL_TOL
    return report.lhs_total, bound, num(report.lhs_total) <= bound * (1 + tol)


def trivial_renorm_bound(x, m, space):
    """Objective value of the deterministic straight-line representation
    X_t = t*x over m steps: the chain is deterministic, so the fork terms all
    vanish and the per-step average is ||x||^p, i.e. the value is ||x||.

    Checks value <= ||x|| (InvariantViolated otherwise) and returns it.
    """
    if m < 1:
        raise OutOfRange(f"m = {m} < 1")
    if m > 10:
        raise ValueError("m <= 10")
    p = space.p
    steps = [norm_pow(x, p) for _ in range(m)]  # ||tx - (t-1)x||^p = ||x||^p
    avg = sum(steps) / Fraction(m)  # a float sum stays a float
    value = float(avg) ** (1.0 / p)
    nx = space.norm(x)
    check(value <= nx + SLACK_REL_TOL * max(1.0, nx),
          "straight-line value %s exceeds ||x|| = %s", value, nx)
    return value
