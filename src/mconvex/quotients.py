"""Lipschitz quotients of finite metric spaces and chain lifting.

A surjection f: X -> Y is an (a, b)-Lipschitz quotient when for every center
x and radius r

    B_Y(f(x), r/a)  is contained in  f(B_X(x, r))  is contained in  B_Y(f(x), b r).

On finite spaces ball memberships only change at realized distances, so it
suffices to test r over the realized distances of both spaces together with
the midpoints between consecutive realized values (any other radius gives the
same pair of balls as one of these).  The co-Lipschitz inclusion is exactly
what allows a Y-valued Markov chain to be lifted step by step to X while
expanding each step by at most the factor a; that lift transfers the
p-convexity functional between the two spaces with factor (ab)^p = D^p.
"""
from __future__ import annotations

import math
from bisect import bisect_left

from .errors import (HorizonTooLong, LiftFailed, NotSurjective, OutOfRange,
                     PreconditionViolated)
from .markov import ChainSpec, convexity_ratio
from .metric import exact_or_float, is_exact, power, to_float

MAX_HORIZON = 8
MAX_STATES = 20


class QuotientMap:
    """A verified-on-construction (a, b)-Lipschitz quotient."""

    def __init__(self, f, a, b, verify=True):
        self.f = f
        self.a = exact_or_float(a)
        self.b = exact_or_float(b)
        if verify:
            bad = verify_quotient(f, a, b)
            if bad:
                raise PreconditionViolated(
                    f"not an ({a}, {b})-quotient: first violation {bad[0]}")

    @property
    def D(self):
        return self.a * self.b

    def __call__(self, x):
        return self.f(x)


def _realized(space):
    """The distances between distinct points of the space, pair by pair (a
    set would keep Fraction(1, 2) and drop an equal 0.5)."""
    pts = space.points
    return [space.dist(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))]


def _test_radii(vals):
    """The distinct realized distances `vals` plus consecutive midpoints, sorted."""
    vals = sorted(set(vals))
    return sorted(vals + [exact_or_float(lo + hi) / 2 for lo, hi in zip(vals, vals[1:])])


def verify_quotient(f, a, b):
    """All violations of the two ball inclusions; empty iff (a, b)-quotient.

    Violations are tuples ("colip" | "lip", center, radius, witness point),
    ordered by center, then radius, then witness in the target's point order.
    Raises OutOfRange unless a and b are finite and > 0, or when a float
    distance meets an exact value past the float range, and NotSurjective
    when some target point has no preimage.

    One exactness decision per call: a, b, the radii and every distance are
    exact when a, b and every distance are, else all floats (a float factor
    times an exact distance would round, and compare falsely with exact ones).
    A radius sweep per center x: y is in f(B_X(x, r)) exactly when
    r >= enter[y], the least d(x, u) over the preimages u of y.  So the
    colip radii of y (dy*a <= r < enter[y]) and its lip radii
    (enter[y] <= r with b*r < dy) are ranges of the sorted radii, found by
    bisection (b*r is non-decreasing in r in either number type); the two
    never meet at one (r, y).  Cost O(|X| (|X| + |Y| log |R|) + V log V) for
    R test radii and V violations.
    """
    for name, v in (("a", a), ("b", b)):
        if not v > 0 or isinstance(v, float) and math.isinf(v):
            raise OutOfRange(f"{name} = {v} must be finite and > 0")
    src, tgt = f.source, f.target
    targets = set(tgt.points)
    images = {f(x) for x in src.points}
    missing = targets - images
    if missing:
        raise NotSurjective(f"no preimage for {sorted(missing, key=repr)[0]!r}")
    vals = _realized(src) + _realized(tgt)
    sdist, tdist = src.dist, tgt.dist
    if not is_exact(a, b, *vals):
        a, b = to_float(a, "a"), to_float(b, "b")
        vals = [to_float(v, "a distance") for v in vals]
        sdist = lambda x, y: float(src.dist(x, y))
        tdist = lambda x, y: float(tgt.dist(x, y))
    radii = _test_radii(vals)
    br = [b * r for r in radii]
    violations = []
    for x in src.points:
        enter = {}
        for u in src.points:
            d, y = sdist(x, u), f(u)
            if y not in enter or d < enter[y]:
                enter[y] = d
        fx = f(x)
        found = []
        for j, y in enumerate(tgt.points):
            dy = tdist(fx, y)
            inside = bisect_left(radii, enter[y])
            colip = range(bisect_left(radii, dy * a, 0, inside), inside)
            lip = range(inside, bisect_left(br, dy, inside))
            found += [(i, j, "colip", y) for i in colip]
            found += [(i, j, "lip", y) for i in lip]
        found.sort()
        violations += ((kind, x, radii[i], y) for i, _, kind, y in found)
    return violations


def lift_chain(q, chain, g):
    """The greedy trajectory lift h*: finite trajectories over the chain's
    states -> source points, with f(h*(w)) = g(last state of w) and

        d_X(h*(w0..w_{t-1}), h*(w0..w_t)) <= a * d_Y(g(w_{t-1}), g(w_t)).

    Each step picks the first valid preimage in the source's point order
    (deterministic); the co-Lipschitz inclusion guarantees one exists, so a
    dead end raises LiftFailed and means the quotient verification was wrong.
    Returns a memoizing callable on state tuples.
    """
    f = q.f
    source_order = f.source.points
    cache = {}

    def lift(traj):
        traj = tuple(traj)
        if not traj:
            raise ValueError("empty trajectory")
        hit = cache.get(traj)
        if hit is not None:
            return hit
        y = g(traj[-1])
        if len(traj) == 1:
            for u in source_order:
                if f(u) == y:
                    cache[traj] = u
                    return u
            raise LiftFailed(f"no preimage of {y!r}")  # pragma: no cover
        prev = lift(traj[:-1])
        step = q.a * f.target.dist(g(traj[-2]), y)
        for u in source_order:
            if f(u) == y and f.source.dist(prev, u) <= step:
                cache[traj] = u
                return u
        raise LiftFailed(
            f"no preimage of {y!r} within {step} of {prev!r} "
            "(co-Lipschitz inclusion must have been violated)")

    lift.cache = cache
    return lift


def trajectory_chain(chain):
    """The history-augmented copy of the chain: states are trajectories
    (tuples of visited states), which makes the lifted process Markov.

    Guarded: horizon <= 8 and <= 20 base states.
    """
    if chain.horizon > MAX_HORIZON:
        raise HorizonTooLong(f"horizon {chain.horizon} > {MAX_HORIZON}")
    if len(chain.states) > MAX_STATES:
        raise HorizonTooLong(f"{len(chain.states)} states > {MAX_STATES}")
    initial = {(z,): p for z, p in chain.initial.items() if p}
    frontier = list(initial)
    all_states = list(frontier)
    kernels = {}
    for t in range(chain.t_min + 1, chain.t_max + 1):
        kernel = chain.step_kernel(t) or {}
        rows = {}
        nxt = []
        for traj in frontier:
            row = kernel.get(traj[-1])
            if row is None:
                nxt.append(traj)   # held fixed: trajectory does not extend
                continue
            rows[traj] = {traj + (x,): px for x, px in row.items() if px}
            nxt.extend(rows[traj])
        if rows:
            kernels[t] = rows
        frontier = nxt
        all_states.extend(frontier)
    seen = set()
    states = [s for s in all_states if not (s in seen or seen.add(s))]
    return ChainSpec(states, chain.t_min, chain.t_max, kernels, initial)


def transfer_check(q, chain, g, p, k_max=None):
    """Verify the quotient transfer inequality on a concrete instance.

    Computes the p-convexity functional of (chain, g) in Y and of the lifted
    trajectory chain in X, checks the two step-level inequalities from the
    lifting construction

        RHS_X <= a^p * RHS_Y      (each lifted step is at most a times longer)
        LHS_Y <= b^p * LHS_X      (f is b-Lipschitz and f o h* = g*)

    and returns (ratio_Y, D^p * ratio_X, holds) with D = ab, so holds implies
    this instance's convexity witness transfers with factor D^p.
    """
    f = q.f
    rep_y = convexity_ratio(chain, g, f.target, p, k_max=k_max)
    tchain = trajectory_chain(chain)
    h_star = lift_chain(q, chain, g)
    rep_x = convexity_ratio(tchain, h_star, f.source, p, k_max=k_max)
    exact = is_exact(rep_y.rhs, rep_x.rhs)
    ap, bp = (power(c if exact else float(c), p) for c in (q.a, q.b))
    step_ok = rep_x.rhs <= ap * rep_y.rhs
    lhs_ok = rep_y.lhs_total <= bp * rep_x.lhs_total
    bound = ap * bp * rep_x.ratio
    holds = step_ok and lhs_ok and rep_y.ratio <= bound
    return rep_y.ratio, bound, holds
