"""Path maps, the straightness functional T, and scale boosting.

T(f) = d(f(0), f(n)) / (n * max_i d(f(i-1), f(i))) measures how straight the
image of the n-path is; it is submultiplicative under splitting the path into
blocks, which is what lets a single good scale be found ("boosted") inside
any map whose overall T is not too small.
"""
from __future__ import annotations

import math
import warnings
from fractions import Fraction
from itertools import combinations

from ..errors import BoostFailed, LengthMismatch, OutOfRange, PreconditionViolated, check
from ..metric import distortion_of, exact_or_float, number_type, to_float


class PathMap:
    """A map {0..n} -> target metric space."""

    def __init__(self, n, target, assignment):
        self.n = n
        self.target = target
        if callable(assignment):
            assignment = [assignment(i) for i in range(n + 1)]
        if isinstance(assignment, dict):
            assignment = [assignment[i] for i in range(n + 1)]
        self.assignment = list(assignment)
        if len(self.assignment) != n + 1:
            raise LengthMismatch(f"need {n + 1} values, got {len(self.assignment)}")

    def __call__(self, i):
        return self.assignment[i]

    def restrict(self, indices):
        """The composed map along a subsequence of path indices."""
        return PathMap(len(indices) - 1, self.target,
                       [self.assignment[i] for i in indices])

    def step_dists(self, lo=0, hi=None):
        if hi is None:
            hi = self.n
        d = self.target.dist
        return [d(self.assignment[i - 1], self.assignment[i])
                for i in range(lo + 1, hi + 1)]


def t_functional(f):
    """T(f) in [0, 1]; 0 for constant maps by convention."""
    return _block_t(f, 0, f.n)


def path_distortion(f):
    """dist(f) viewing the domain as the unit-step path metric; inf on collapse."""
    return distortion_of((j - i, f.target.dist(f(i), f(j)))
                         for i, j in combinations(range(f.n + 1), 2))[2]


def _block_t(f, lo, hi):
    """T of the restriction of f to the sub-path [lo, hi] (unit steps)."""
    steps = f.step_dists(lo, hi)
    mx = max(steps) if steps else 0
    if mx == 0:
        return 0
    end = f.target.dist(f(lo), f(hi))
    num = number_type(1, end, mx)
    return num(end) / ((hi - lo) * num(mx))


def _best_block(f, base, step, count):
    """The i in range(count) maximising T on the block [base + i step,
    base + (i + 1) step], ties to the lowest i (0 when count is 0)."""
    return max(range(count), key=lambda i: _block_t(f, base + i * step, base + (i + 1) * step),
               default=0)


def submultiplicative_split(f, m, n):
    """Split f over P_{mn} into the coarse map i -> i*n over P_m and the best
    contiguous length-n block (argmax T, ties to the lowest index).

    Returns (coarse PathMap, best block PathMap, block index); checks the
    product inequality T(f) <= T(coarse) * T(block) (InvariantViolated).
    """
    if f.n != m * n:
        raise LengthMismatch(f"path length {f.n} != {m} * {n}")
    coarse = f.restrict([i * n for i in range(m + 1)])
    best_i = _best_block(f, 0, n, m)
    block = f.restrict(list(range(best_i * n, (best_i + 1) * n + 1)))
    tf = t_functional(f)
    tc = t_functional(coarse)
    tb = t_functional(block)
    num = number_type(1, tf, tc, tb)
    rel, slack = (0, 0) if num is Fraction else (1e-12, 1e-15)
    check(num(tf) <= num(tc) * num(tb) * (1 + rel) + slack,
          "submultiplicativity violated: %s > %s * %s", tf, tc, tb)
    return coarse, block, best_i


class BoostResult:
    def __init__(self, grid, t_value, dist, warned):
        self.grid = grid          # the t+1 path indices of the chosen progression
        self.t_value = t_value    # T of the composed map
        self.dist = dist          # directly verified distortion of f o phi
        self.warned = warned      # precondition n >= D^(4 t log t / delta) violated

    def __repr__(self):
        return f"BoostResult(grid={self.grid}, T={float(self.t_value):.6f}, dist={float(self.dist):.6f})"


def path_boost(f, t, delta, D=None):
    """Find an arithmetic progression phi: P_t -> P_n with dist(f o phi) <= 1 + delta.

    Descends the nested chain of maximal-T blocks of length t^j, recording the
    coarse t-grid at every level, and returns the recorded grid with maximal T
    (ties to the shallowest level).  Success requires T(grid) >= 1 - delta/(2t)
    which forces dist <= 1/(1 - t(1 - T)) <= 1 + delta; the distortion is also
    verified directly.  When the sufficient length precondition (with a known
    distortion bound D) is violated a warning is emitted, since the search may
    still succeed; BoostFailed carries the best grid otherwise.
    """
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
    if D is not None:
        needed = float(D) ** (4 * t * math.log(t) / float(delta))
        if n < needed:
            warnings.warn(
                f"path length {n} below the sufficient bound {needed:.3g}; "
                "boosting may fail", stacklevel=2)
            warned = True
        else:
            warned = False
    else:
        warned = False

    best_grid = None
    best_t = -1
    base = 0
    for level in range(k, 0, -1):
        step = t ** (level - 1)
        grid = [base + i * step for i in range(t + 1)]
        tg = t_functional(f.restrict(grid))
        if tg > best_t:
            best_t = tg
            best_grid = grid
        base += _best_block(f, base, step, t) * step   # descend into this level's best block

    threshold = 1 - exact_or_float(delta) / (2 * t)
    if best_t < threshold:
        raise BoostFailed(
            f"best grid T = {float(best_t):.6f} below threshold {float(threshold):.6f}",
            best_grid=best_grid, best_t=best_t)
    composed = f.restrict(best_grid)
    dist = path_distortion(composed)
    # the log-embedding bound: T >= 1 - eps with eps < 1/t gives dist <= 1/(1 - t eps)
    eps = 1 - best_t
    check(eps < 1 / number_type(1, eps)(t), "1 - T = %s is not below 1/t = 1/%s", eps, t)
    bound = 1 / (1 - t * eps)
    num = number_type(1, dist, bound)
    rel = 0 if num is Fraction else 1e-12
    check(num(dist) <= num(bound) * (1 + rel),
          "distortion %s exceeds the log-embedding bound %s", dist, bound)
    check(float(bound) <= 1 + to_float(delta, "delta") * (1 + 1e-12),
          "log-embedding bound %s exceeds 1 + delta = 1 + %s", bound, delta)
    return BoostResult(best_grid, best_t, dist, warned)
