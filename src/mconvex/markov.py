"""Finite-horizon Markov chains and the exact p-convexity functional.

The functional compares, over scales k, the expected p-th power distance
between the chain at time t and an independent copy forked at time t - 2^k,
against the one-step sum:

    sum_k sum_t E[d(f(X_t), f(X~_t(t - 2^k)))^p] / 2^(kp)
        vs.  sum_t E[d(f(X_t), f(X_{t-1}))^p]

Chains use the constant extension X_t = X_{t_min} for t < t_min and
X_t = X_{t_max} for t > t_max, which makes the time sums finite: a fork
summand vanishes unless t_min < t and t - 2^k < t_max, so the DP sums over
exactly that window, by construction (the tests check the boundary terms).

All probabilities are exact rationals.  A chain keeps each kernel and law as
ints over one common denominator, and the DP (`convexity_ratio`) runs on ints
end to end: one table of distance powers serves the one-step sum and the fork
terms, and a scale's exact terms are summed as (num, den) over their lcm, one
Fraction per scale.  Float distance powers (non-integer p) are summed in the
order and with the divisions of the Fraction DP, so they match it bit for bit.

Two walks have closed forms that build no chain: the downward walk on B_n
(`bn_ratio`) and the downward walk on the Laakso graph G_m (`laakso_ratio`).
Both are one renewal, summed by one kernel (`_interval_ratio`): two copies
forked at time s are apart at time t only if they split at the branch point
b of an interval with s <= b < t, which they do with probability 1/2 at
each, and then they are d(b, t) apart:

    E[d(X_t, X~_t(s))^p] = sum_i 2^-(i+1) d(b_i, t)^p

over those intervals, outermost first.  On B_n every level b < min(t, n)
branches and d = 2 (min(t, n) - b); on G_m the walk branches at the junction
u of an interval (b, e) and d = 2 min(t - b, e - t) hops.  The generic DP
(`convexity_ratio` on `downward_walk` and `laakso_walk`) is their oracle in
the tests.

For integer p the Laakso sum runs over the copies of G_m instead
(`laakso_ratios`).  In hops, with K = 2^k and N = 4^(m-1), let
A_m(k) = sum_t E[d(X_t, X~_t(t - K))^p], F_m(t) that term with every
interval counted, PF_m(X) = sum_{t <= X} F_m(t), SF_m = PF_m(4^m - 1) and
Q(n) = sum_{u=1..n} (2u)^p (Faulhaber).  Write t = dN + t' in copy d.
Copies 0 and 3 of G_m are G_(m-1); in copies 1 and 2 the scale-m interval
(N, 3N) is outermost, at 2t' and 2(N - t') hops, and a fork joins it while
t' <= K (copy 1) or t' <= K - N (copy 2).  PF is only ever read at powers
of two, 4^i and 2 * 4^i, where copies 1 and 2 of G_(i+1) start.  So

    SF_m   = 3 SF_(m-1) + Q(N) - (2N)^p / 2
    A_m(k) = 4 A_(m-1)(k) + (Q(K) - PF(K)) / 2     for K < N,
    A_m(k) = (7 SF_(m-1) + Q(N)) / 2                for K = N,
    A_m(k) = SF_m                                   for K >= 2N,

with PF(4^i) = SF_i and PF(2 * 4^i) = (3 SF_i + Q(4^i)) / 2 at every level
past i, and per_k = A_m(k) / (4^(mp) 2^(kp)).  Every one of these is a
multiple of 1/4, so the recursion runs on ints over 4: O(m^2) big-int steps
give all of G_0..G_m.  The branch-interval sum is its oracle.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from fractions import Fraction

from .errors import DegenerateChain, OutOfRange, TooLarge, check
from .metric import exact_or_float, is_integral, number_type, power, rat_to_str

DOWNWARD_LIMIT = 16
# the largest m of laakso_ratio, which builds no graph: the copy recursion of
# integer p takes O(m^2) big-int steps (the table to m = 128 in about 0.1 s
# at p = 2), the branch-interval sum of other p O(4^m m) time (about 0.6 s
# at m = 9)
RATIO_LIMIT = 128
INTERVAL_LIMIT = 9


class ChainSpec:
    """A time-inhomogeneous Markov chain on a finite state space.

    kernels[t] is the transition law for the step from time t-1 to time t,
    as {state: {state: prob}}; rows may be omitted for states that cannot be
    occupied at time t-1.  States missing a row are treated as held fixed.
    Probabilities are exact: ints or Fractions, held as ints over a common
    denominator; `initial`, `step_kernel(t)` and `law(t)` are Fraction views.
    """

    def __init__(self, states, t_min, t_max, kernels, initial):
        self.states = list(states)
        self.t_min = t_min
        self.t_max = t_max
        known = set(self.states)
        den, rows = _int_rows({None: initial}, known, "initial law")
        law = rows[None]
        self._steps = {}  # t -> kernels[t] as ints, for every nonempty kernel
        for t, kernel in kernels.items():
            if not (t_min < t <= t_max):
                raise ValueError(f"kernel time {t} outside ({t_min}, {t_max}]")
            if kernel:
                self._steps[t] = _int_rows(kernel, known, f"kernel row at time {t}, state {{z!r}}")
        self._laws = [(den, law)]  # int_law(t_min..t_max), propagated on ints
        for t in range(t_min + 1, t_max + 1):
            den_k, rows = self._steps.get(t, (1, {}))
            nxt = {}
            for z, n in law.items():
                for x, nx in rows.get(z, {z: den_k}).items():  # no row: held
                    nxt[x] = nxt.get(x, 0) + n * nx
            g = math.gcd(den * den_k, *nxt.values())
            den, law = den * den_k // g, {x: n // g for x, n in nxt.items()}
            self._laws.append((den, law))

    @property
    def horizon(self):
        return self.t_max - self.t_min

    @property
    def initial(self):
        den, law = self._laws[0]
        return {z: Fraction(n, den) for z, n in law.items()}

    def step_kernel(self, t):
        """Kernel for the step into time t, or None (identity) where none is given."""
        if t not in self._steps:
            return None
        den, rows = self._steps[t]
        return {z: {x: Fraction(n, den) for x, n in row.items()} for z, row in rows.items()}

    def int_law(self, t):
        """Law of X_t under the constant-extension convention as ints over its
        least common denominator: (den, {state: num})."""
        return self._laws[min(max(t, self.t_min), self.t_max) - self.t_min]

    def law(self, t):
        """Law of X_t under the constant-extension convention, as {state: Fraction}."""
        den, law = self.int_law(t)
        return {z: Fraction(n, den) for z, n in law.items()}


def _int_rows(rows, known, where):
    """Laws {z: {x: prob}} as ints over the common denominator of all entries,
    (den, {z: {x: num}}), zeros left out.  A law with inexact, negative or
    unknown-state mass, or not summing to 1, is a ValueError on `where.format(z=z)`."""
    for z, row in rows.items():
        for x, px in row.items():
            if type(px) not in (int, Fraction):  # a bool is an int, but no probability
                raise ValueError(f"{where.format(z=z)} gives inexact probability {px!r} to {x!r}")
            if px < 0:
                raise ValueError(f"{where.format(z=z)} gives negative mass {px} to {x!r}")
            if x not in known:
                raise ValueError(f"{where.format(z=z)} puts mass on unknown state {x!r}")
    den = math.lcm(*[px.denominator for row in rows.values() for px in row.values()])
    out = {z: {x: px.numerator * (den // px.denominator) for x, px in row.items() if px}
           for z, row in rows.items()}
    for z, row in out.items():
        if sum(row.values()) != den:
            raise ValueError(f"{where.format(z=z)} does not sum to 1")
    return den, out


class ConvexityReport:
    """Per-scale sums and the resulting ratio / convexity witness."""

    def __init__(self, p, per_k, lhs_total, rhs, ratio, pi_lower):
        self.p = p
        self.per_k = per_k
        self.lhs_total = lhs_total
        self.rhs = rhs
        self.ratio = ratio
        self.pi_lower = pi_lower

    def to_dict(self):
        return {
            "p": self.p,
            "per_k": [rat_to_str(v) for v in self.per_k],
            "lhs_total": rat_to_str(self.lhs_total),
            "rhs": rat_to_str(self.rhs),
            "ratio": rat_to_str(self.ratio) if self.ratio is not None else None,
            "pi_lower": self.pi_lower,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["k", "per_k_term"])
        for k, v in enumerate(self.per_k):
            writer.writerow([k, rat_to_str(v)])
        writer.writerow(["rhs", rat_to_str(self.rhs)])
        return buf.getvalue()

    def __repr__(self):
        return f"ConvexityReport(p={self.p}, ratio={self.ratio}, pi_lower={self.pi_lower})"


# ---------------------------------------------------------------------------
# chain constructors
# ---------------------------------------------------------------------------

def downward_walk(n):
    """The downward random walk from the root of B_n, leaves absorbing."""
    from .trees import enumerate_bn, ROOT
    if n > DOWNWARD_LIMIT:
        raise TooLarge(f"n = {n} > {DOWNWARD_LIMIT}")
    states = enumerate_bn(n)
    half = Fraction(1, 2)
    kernels = {t: {v: {v.child(0): half, v.child(1): half} for v in states if v.depth == t - 1}
               for t in range(1, n + 1)}
    return ChainSpec(states, 0, n, kernels, {ROOT: Fraction(1)})


def laakso_walk(G):
    """The standard downward random walk on the directed Laakso graph."""
    T = 4 ** G.m
    by_level = {}
    for v in G.vertices:
        by_level.setdefault(G.level[v], []).append(v)
    kernels = {}
    for t in range(1, T + 1):
        kernel = {}
        for v in by_level[t - 1]:
            out = G.out_neighbors(v)
            p = Fraction(1, len(out))
            kernel[v] = {w: p for w in out}
        kernels[t] = kernel
    return ChainSpec(G.vertices, 0, T, kernels, {G.root: Fraction(1)})


# ---------------------------------------------------------------------------
# integer-numerator matrix machinery
# ---------------------------------------------------------------------------
# A "matrix" is None (identity) or (den, {z: {x: num}}); rows missing from the
# dict are identity rows.  A "vector" is (den, {state: num}).

def _compose(A, B, keep=None):
    """Matrix product A then B (A covers earlier steps).  With `keep`, the
    product has only the rows of states in it; B must have every row that
    those rows of A reach."""
    if A is None:
        return B
    if B is None:
        return A
    denA, rowsA = A
    denB, rowsB = B
    out = {}
    for z, row in rowsA.items():
        if keep is not None and z not in keep:
            continue
        acc = {}
        for w, nw in row.items():
            rb = rowsB.get(w)
            if rb is None:
                acc[w] = acc.get(w, 0) + nw * denB
            else:
                for x, nx in rb.items():
                    acc[x] = acc.get(x, 0) + nw * nx
        out[z] = acc
    # identity rows of A followed by B: any z not in rowsA but in rowsB
    for z in rowsB if keep is None else keep:
        rb = rowsB.get(z)
        if rb is not None and z not in out:
            out[z] = {x: nx * denA for x, nx in rb.items()}
    return _reduced(denA * denB, out)


def _reduced(den, rows):
    """The matrix (den, rows) divided by the largest power of two that
    divides den and every numerator.  Only powers of two: scaling by them is
    exact in floats, so the float sums of non-integer p do not move, which
    dividing by an odd factor of the gcd would break (for the Laakso walk
    the whole gcd is a power of two)."""
    acc = den
    for row in rows.values():
        for n in row.values():
            acc |= n
        if acc & 1:
            return den, rows
    shift = (acc & -acc).bit_length() - 1
    return den >> shift, {z: {x: n >> shift for x, n in row.items()}
                          for z, row in rows.items()}


class _CondCache:
    """Conditional laws over dyadic step counts, built by binary composition.

    cond(s, 0) is a step's kernel; cond(s, j > 0) keeps only the rows of
    states in supp(law(s)), the rows that _fork_sum reads.  This is exact:
    from supp(law(s)) the first half lands in supp(law(s + 2^(j-1))), whose
    rows the second half keeps.  Levels are held per j; `release(j)` drops
    one once no later level is built from it.
    """

    def __init__(self, chain):
        self.chain = chain
        self.levels = {}   # j -> {s: cond(s, j)}

    def cond(self, s, j):
        """Conditional law of X_{s + 2^j} given X_s (None = identity)."""
        chain = self.chain
        if s >= chain.t_max or s + 2 ** j <= chain.t_min:
            return None  # no kernel in (s, s + 2^j]
        level = self.levels.setdefault(j, {})
        if s in level:
            return level[s]
        level[s] = M = (chain._steps.get(s + 1) if j == 0 else
                        _compose(self.cond(s, j - 1), self.cond(s + 2 ** (j - 1), j - 1),
                                 chain.int_law(s)[1]))
        return M

    def release(self, j):
        self.levels.pop(j, None)


class _DistPowCache:
    """d(f(a), f(b))^p per unordered pair of states, one entry in `cache`
    under the order first asked.  For integer p >= 0 on a space with integer
    distances over `space.den`, the values are the ints scaled_distance^p
    over the denominator `self.den` = space.den^p; otherwise `self.den` is
    None and the values are space.dist_pow's."""

    def __init__(self, space, f, p):
        self.f = f
        self.cache = {}
        if space.den is not None and is_integral(p) and p >= 0:
            q = int(p)
            scaled = space.scaled_distance
            self.den = space.den ** q
            self.dist_pow = lambda x, y: scaled(x, y) ** q
        else:
            self.den = None
            self.dist_pow = lambda x, y: space.dist_pow(x, y, p)

    def get(self, a, b):
        val = self.cache.get((a, b))
        if val is None:
            val = self.cache.get((b, a))
        if val is None:
            fa, fb = self.f(a), self.f(b)
            val = self.cache[a, b] = self.dist_pow(fa, fb) if fa != fb else 0
        return val


def _add(acc, num, den):
    """acc + num / den over the lcm of the denominators; acc = (num, den) or None."""
    if acc is None:
        return num, den
    lcm = math.lcm(acc[1], den)
    return acc[0] * (lcm // acc[1]) + num * (lcm // den), lcm


def _fork_sum(mu, M, dpow):
    """E[d(f(X_t), f(X~_t))^p] = 2 total / den for one (t, s) as (total,
    den): both copies share X_s ~ mu, an int law vector, and then evolve
    independently with conditional law M.  None if no state of mu splits."""
    if M is None:
        return None
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
        return None
    cached = dpow.cache.get
    total = 0
    for (x, y), w in weights.items():
        d = cached((x, y))
        if d is None:  # first asked in the other order, or not yet
            d = cached((y, x)) or dpow.get(x, y)
        if d:
            total += d * w
    return total, den_mu * denM ** 2 * (dpow.den or 1)


def pair_expectation(chain, f, space, t, s, p):
    """E[d(f(X_t), f(X~_t(s)))^p], exactly; 0 when s >= t."""
    # compose single steps from s to t (direct calls need no dyadic alignment)
    M = functools.reduce(_compose, map(chain._steps.get, range(s + 1, t + 1)), None)
    fork = _fork_sum(chain.int_law(s), M, _DistPowCache(space, f, p))
    return 0 if fork is None else exact_or_float(2 * fork[0]) / fork[1]


def rhs_step_sum(chain, f, space, p):
    """sum_t E[d(f(X_t), f(X_{t-1}))^p]  (nonzero only inside the horizon)."""
    return _step_sum(chain, _DistPowCache(space, f, p))


def _step_sum(chain, dpow):
    """rhs_step_sum on the int laws and kernels: exact distance powers summed
    as ints per time, the times added by `_add`; a float d is added in order
    as P(X_{t-1} = z, X_t = x) * d, that probability rounded once from ints."""
    acc, flt = None, 0
    for t, (den_k, rows) in sorted(chain._steps.items()):
        den_mu, mu = chain.int_law(t - 1)
        total = 0
        for z, n in mu.items():
            for x, nx in rows.get(z, {}).items():
                d = dpow.get(z, x)
                if d and isinstance(d, float):
                    flt += n * nx / (den_mu * den_k) * d
                elif d:
                    total += n * nx * d
        if total:
            acc = _add(acc, total.numerator, total.denominator * den_mu * den_k)
    return flt if acc is None else Fraction(acc[0], acc[1] * (dpow.den or 1)) + flt


def _k_max(horizon):
    """The largest scale k summed by default: the first with 2^k >= horizon, plus one."""
    return max(1, math.ceil(math.log2(max(horizon, 1)))) + 1


def default_k_max(chain):
    return _k_max(chain.horizon)


def _check_p(p):
    """The functional is defined for p >= 1; p = 0 would divide by zero in
    pi_lower, and a negative p reads as a failed proof obligation."""
    if p < 1:
        raise OutOfRange(f"p = {p} < 1")


def _report(p, per_k, rhs, lhs=None):
    """The ConvexityReport of per-scale terms, their sum `lhs` (summed here
    when not given) and a nonzero one-step sum."""
    if lhs is None:
        lhs = sum(per_k)
    ratio = lhs / rhs
    return ConvexityReport(p, per_k, lhs, rhs, ratio, float(ratio) ** (1.0 / p))


def convexity_ratio(chain, f, space, p, k_max=None):
    """Exact per-scale sums, their total, the one-step sum, and the ratio.

    Raises DegenerateChain (carrying the zero report) when the one-step sum
    vanishes.  Raises InvariantViolated when a scale breaks the crude sanity
    bound per_k <= 4^p * rhs.  Raises OutOfRange for p < 1.  The time window
    needs no check: it holds every t whose summand can be nonzero.
    """
    _check_p(p)
    if k_max is None:
        k_max = default_k_max(chain)
    dpow = _DistPowCache(space, f, p)  # one table for the step sum and the fork terms
    rhs = _step_sum(chain, dpow)
    cache = _CondCache(chain)
    sanity = power(4, p) * rhs  # the crude bound every per_k term must meet
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        acc, flt = None, 0  # the exact terms as one (num, den); the float ones in order
        # t = s + gap runs over (t_min, t_max + gap): for t <= t_min no kernel
        # lies in (s, t], and from s = t_max on the conditional law is the
        # identity, so the two copies never split outside that window
        for s in range(chain.t_min - gap + 1, chain.t_max):
            fork = _fork_sum(chain._laws[max(s - chain.t_min, 0)], cache.cond(s, k), dpow)
            if fork is None:
                continue
            total, den = fork
            if isinstance(total, float):
                flt += 2 * total / den
            else:
                acc = _add(acc, 2 * total.numerator, den * total.denominator)
        cache.release(k - 1)  # scale k + 1 composes level k only
        if acc is not None and isinstance(flt, int) and is_integral(p):  # no float term
            term_k = Fraction(acc[0], acc[1] << k * int(p))
        else:
            total = flt if acc is None else Fraction(*acc) + flt
            term_k = total / power(2, k * p) if total else total
        check(term_k <= sanity, "per-k sanity bound failed at k=%d", k)
        per_k.append(term_k)
    if rhs == 0:
        err = DegenerateChain("one-step sum is zero; ratio undefined")
        err.report = ConvexityReport(p, per_k, sum(per_k), rhs, None, None)
        raise err
    return _report(p, per_k, rhs)


# ---------------------------------------------------------------------------
# closed forms and certified bounds
# ---------------------------------------------------------------------------

def _interval_ratio(p, pairs, depth, hop_den, rhs, k_max):
    """ConvexityReport of a walk from the (t, t - b, hops) of `pairs`: per
    time t, the intervals covering t, innermost first, whose copies split at
    level b are hops / hop_den apart at t (the module docstring's sum).

    The b's fall, so a fork at s = t - 2^k sees a prefix of them, whose sum
    obeys Horner's rule S_j = (hops_j^p + S_{j-1}) / 2.  An interval joins
    at the first scale k with b >= t - 2^k, k = bit_length(t - b - 1) <=
    k_max, so each pair adds S_j - S_{j-1} to a difference array over k.
    For integer p the sums are ints over 2^depth, whose halvings are exact
    while no t has more than `depth` intervals; floats for non-integer p.
    """
    num = number_type(p)
    q = int(p) if num is Fraction else p
    unit = 2 ** depth if num is Fraction else 1  # floats halve exactly without one
    # delta[k]: how much sum_t term(t - 2^k, t) grows from scale k - 1 to k
    delta = [0] * (k_max + 1)
    last = suffix = None
    for t, since_b, hops in pairs:
        if t != last:
            last, suffix = t, 0
        longer = hops ** q * unit + suffix
        longer = longer >> 1 if num is Fraction else longer / 2
        delta[(since_b - 1).bit_length()] += longer - suffix
        suffix = longer
    return _scaled_report(p, list(itertools.accumulate(delta)), unit * power(hop_den, p), rhs)


def _scaled_report(p, totals, scale, rhs):
    """The ConvexityReport of the per-scale terms totals[k] / (scale * 2^(kp)),
    each checked against the crude bound 4^p * rhs; the int 0 where a total
    is 0.  For integral p the totals and scale are ints: the bound is checked
    on ints, and each term and their sum is made as one Fraction."""
    sanity = power(4, p) * rhs
    if number_type(p) is float:
        per_k = [total / (scale * power(2, k * p)) if total else 0
                 for k, total in enumerate(totals)]
        for k, term_k in enumerate(per_k):
            check(term_k <= sanity, "per-k sanity bound failed at k=%d", k)
        return _report(p, per_k, rhs)
    dens = [scale << k * int(p) for k in range(len(totals))]
    for k, (total, den) in enumerate(zip(totals, dens)):
        check(total * sanity.denominator <= sanity.numerator * den,
              "per-k sanity bound failed at k=%d", k)
    lhs = sum(total * (dens[-1] // den) for total, den in zip(totals, dens))
    return _report(p, [Fraction(total, den) if total else 0 for total, den in zip(totals, dens)],
                   rhs, Fraction(lhs, dens[-1]) if lhs else 0)


def _bn_intervals(n, k_max):
    """The (t, t - b, hops) of the downward walk on B_n, innermost first:
    the levels b < min(t, n) that a fork of scale <= k_max sees."""
    reach = 2 ** k_max
    for t in range(1, n + reach):
        top = min(t, n)
        for b in range(top - 1, max(t - reach, 0) - 1, -1):
            yield t, t - b, 2 * (top - b)


def bn_ratio(n, p):
    """ConvexityReport of the downward walk on B_n (identity map), closed form.

    Equal to convexity_ratio(downward_walk(n), identity, B_n, p) but
    quadratic in n rather than exponential; cross-checked against the
    generic DP for small n in the test suite.  Raises OutOfRange for n < 1
    or p < 1.
    """
    if n < 1:
        raise OutOfRange(f"n = {n} < 1")
    _check_p(p)
    k_max = _k_max(n)
    rhs = number_type(p)(n)  # unit steps
    # a t is covered by at most min(t, n) <= n levels
    return _interval_ratio(p, _bn_intervals(n, k_max), n, 1, rhs, k_max)


def _laakso_intervals(m):
    """The (t, t - b, hops) of the downward walk on G_m, innermost first.

    For each scale h = 1..m and each copy start c = 0 (mod 4^h), the walk
    branches at b = c + 4^(h-1) (the junction u) and the branches meet again
    at e = c + 3 * 4^(h-1) (the junction w); hops are 4^-m long.
    """
    # (c's mask, b - c, e - c) per scale, innermost first
    scales = [(4 ** h - 1, 4 ** (h - 1), 3 * 4 ** (h - 1)) for h in range(1, m + 1)]
    for t in range(1, 4 ** m):  # no interval covers t = 0 or t >= 4^m
        for mask, b, e in scales:
            r = t & mask  # t's level inside its scale-h copy
            if b < r < e:
                since_b, until_e = r - b, e - r
                yield t, since_b, 2 * (since_b if since_b < until_e else until_e)


def _laakso_rhs(m, p):
    """The one-step sum of the walk on G_m: 4^m unit steps of length 4^-m."""
    return power(number_type(p)(4), -m * (p - 1))


def _laakso_interval_ratio(m, p):
    """laakso_ratio(m, p) summed over the branch intervals, in O(4^m m)."""
    # default_k_max of the walk, whose horizon is 4^m; t - b < 4^m = 2^(2m),
    # so no interval joins after k = 2m < k_max.  A t is covered by at most
    # one interval per scale
    return _interval_ratio(p, _laakso_intervals(m), m, 4 ** m, _laakso_rhs(m, p),
                           _k_max(4 ** m))


def _tangent_numbers(n):
    """[T_1, ..., T_n], with tan x = sum_k T_k x^(2k-1) / (2k-1)!: all ints,
    by the O(n^2) integer recurrence of Brent and Harvey ("Fast computation
    of Bernoulli, Tangent and Secant numbers", 2011)."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:n + 1]


@functools.lru_cache(maxsize=None)
def _faulhaber(q):
    """(c, den) with sum_{u=1..n} u^q = n * (sum_i c_i n^(q-i)) / den: the
    coefficients C(q+1, i) B_i / (q+1) of Faulhaber's formula (B_1 = +1/2)
    as ints over their lcm.  B_0 = 1, the odd B_i past B_1 vanish, and the
    even ones come from the tangent numbers: B_2k = (-1)^(k-1) 2k T_k /
    (4^k (4^k - 1))."""
    bern = [Fraction(1), Fraction(1, 2)] + [Fraction(0)] * (q - 1)
    for k, t in enumerate(_tangent_numbers(q // 2), 1):
        bern[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1))
    coef = [math.comb(q + 1, i) * b / (q + 1) for i, b in enumerate(bern[:q + 1])]
    den = math.lcm(*(c.denominator for c in coef))
    return [c.numerator * (den // c.denominator) for c in coef], den


def _even_power_sum(n, q):
    """Q(n) = sum_{u=1..n} (2u)^q; summed directly while n <= q^2, about
    what the O(q^2) Fraction steps of Faulhaber's coefficients cost."""
    if n <= q * q:
        return sum((2 * u) ** q for u in range(1, n + 1))
    coef, den = _faulhaber(q)
    acc = 0
    for c in coef:
        acc = acc * n + c
    return acc * n // den << q


def _laakso_copy_ratios(M, p):
    """The reports of G_0..G_M for integral p, by the module docstring's
    recursion over the copies, on ints in quarters."""
    q = int(p)
    reports = []
    # entering level j: sf = 4 SF_(j-1), a[k] = 4 A_(j-1)(k) and
    # c[k] = 4 (Q(2^k) - PF(2^k)) / 2 for k <= 2j - 3
    sf, a, c = 0, [], []
    for j in range(M + 1):
        if j:
            n = 4 ** (j - 1)
            qn = 4 * _even_power_sum(n, q)
            a = [4 * x + y for x, y in zip(a, c)]
            a.append((7 * sf + qn) >> 1)
            # PF(n) = SF_(j-1) and PF(2n) = (3 SF_(j-1) + Q(n)) / 2
            c += [(qn - sf) >> 1, (4 * _even_power_sum(2 * n, q) - ((3 * sf + qn) >> 1)) >> 1]
            sf = 3 * sf + qn - 2 * (2 * n) ** q
            a.append(sf)
        # k_max of the walk on G_j is 2j + 1 (2 at j = 0); A_j(k) = SF_j from k = 2j - 1
        totals = a + [sf] * (_k_max(4 ** j) + 1 - len(a))
        reports.append(_scaled_report(p, totals, 4 * 4 ** (j * q), _laakso_rhs(j, p)))
    return reports


def laakso_ratios(M, p):
    """The ConvexityReports of the downward walks on G_0..G_M (identity
    map), as a list indexed by m: no graph, chain or conditional law.

    Swapping the two branches of a copy fixes the root, so the law of X_t is
    uniform on its level, and two copies together at a junction u split there
    with probability 1/2: the renewal of the module docstring.  Integer p
    runs its recursion over the copies, one pass for every level; other p
    sum the branch intervals of each G_m (`_interval_ratio`).

    Equal to convexity_ratio(laakso_walk(build_laakso(m)), identity, ..., p)
    bit for bit, in value and type, for integer p.  Raises OutOfRange for
    M < 0 or p < 1, and TooLarge for M > RATIO_LIMIT (INTERVAL_LIMIT for p
    not integral).
    """
    _check_laakso(M, p)
    if is_integral(p):
        return _laakso_copy_ratios(M, p)
    return [_laakso_interval_ratio(m, p) for m in range(M + 1)]


def laakso_ratio(m, p):
    """The ConvexityReport of the downward walk on G_m: laakso_ratios(m, p)[m],
    with the same errors."""
    _check_laakso(m, p)
    if is_integral(p):
        return _laakso_copy_ratios(m, p)[-1]
    return _laakso_interval_ratio(m, p)


def _check_laakso(m, p):
    if m < 0:
        raise OutOfRange(f"m = {m} < 0")
    limit = RATIO_LIMIT if is_integral(p) else INTERVAL_LIMIT
    if m > limit:
        raise TooLarge(f"m = {m} > {limit}")
    _check_p(p)


def laakso_time_set(m, k):
    """|T_k|: the number of integer times in the union of branch-separation
    intervals [(4i+1) 4^h + 4^{h-2}, (4i+1) 4^h + 2*4^{h-2}], h = ceil(k/2).

    The 4^(m-h-1) intervals that start below 4^m also end below it, and each
    holds 4^(h-2) + 1 integers; for h <= 1 they are shorter than 1 and lie
    strictly between two integers.
    """
    if not 0 <= k <= 2 * m - 2:
        raise OutOfRange(f"k = {k} outside [0, {2 * m - 2}]")
    h = (k + 1) // 2
    if h < 2:
        return 0
    return 4 ** (m - h - 1) * (4 ** (h - 2) + 1)


def per_k_laakso_bound(m, k, p):
    """The proof's counting lower bound on the k-th per-scale term of the
    walk on G_m: |T_k| * 2^(-(2m+3)p - 1).  Returns (|T_k|, bound)."""
    count = laakso_time_set(m, k)
    return count, count * power(number_type(p)(2), -(2 * m + 3) * p - 1)
