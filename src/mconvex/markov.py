"""Finite-horizon Markov chains and the exact p-convexity functional.

The functional compares, over scales k, the expected p-th power distance
between the chain at time t and an independent copy forked at time t - 2^k,
against the one-step sum:

    sum_k sum_t E[d(f(X_t), f(X~_t(t - 2^k)))^p] / 2^(kp)
        vs.  sum_t E[d(f(X_t), f(X_{t-1}))^p]

Chains use the constant extension X_t = X_{t_min} for t < t_min and
X_t = X_{t_max} for t > t_max, which makes the time sums finite: every
summand vanishes outside a provable window (checked, not assumed).

All probabilities are exact rationals.  Internally, laws and conditional-law
matrices are stored as integer numerators over a single common denominator so
the dynamic programming inner loops run on (big)ints; d^p stays exact for
integer p and is floated only at the final power for non-integer p.
"""
from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from .errors import DegenerateChain, OutOfRange, TooLarge, check
from .metric import is_integral, rat_to_str

DOWNWARD_LIMIT = 16


class ChainSpec:
    """A time-inhomogeneous Markov chain on a finite state space.

    kernels[t] is the transition law for the step from time t-1 to time t,
    as {state: {state: prob}}; rows may be omitted for states that cannot be
    occupied at time t-1.  States missing a row are treated as held fixed.
    """

    def __init__(self, states, t_min, t_max, kernels, initial):
        self.states = list(states)
        self.t_min = t_min
        self.t_max = t_max
        self.kernels = {t: {z: dict(row) for z, row in k.items()}
                        for t, k in kernels.items()}
        self.initial = dict(initial)
        known = set(self.states)
        _check_law(self.initial, known, "initial law")
        for t, kernel in self.kernels.items():
            if not (t_min < t <= t_max):
                raise ValueError(f"kernel time {t} outside ({t_min}, {t_max}]")
            for z, row in kernel.items():
                _check_law(row, known, f"kernel row at time {t}, state {z!r}")
        self._laws = None

    @property
    def horizon(self):
        return self.t_max - self.t_min

    def step_kernel(self, t):
        """Kernel for the step into time t, or None (identity) outside the horizon."""
        if t <= self.t_min or t > self.t_max:
            return None
        return self.kernels.get(t)

    def law(self, t):
        """Law of X_t under the constant-extension convention, as {state: Fraction}."""
        if self._laws is None:
            laws = [ {z: Fraction(p) for z, p in self.initial.items() if p} ]
            for t_ in range(self.t_min + 1, self.t_max + 1):
                kernel = self.kernels.get(t_) or {}
                nxt = {}
                for z, pz in laws[-1].items():
                    row = kernel.get(z)
                    if row is None:
                        nxt[z] = nxt.get(z, 0) + pz
                    else:
                        for x, px in row.items():
                            if px:
                                nxt[x] = nxt.get(x, 0) + pz * px
                laws.append(nxt)
            self._laws = laws
        t = min(max(t, self.t_min), self.t_max)
        return self._laws[t - self.t_min]


def _check_law(law, known, where):
    """A probability law must sum to 1 with nonnegative mass on known states."""
    if sum(law.values()) != 1:
        raise ValueError(f"{where} does not sum to 1")
    for x, px in law.items():
        if px < 0:
            raise ValueError(f"{where} gives negative mass {px} to {x!r}")
        if x not in known:
            raise ValueError(f"{where} puts mass on unknown state {x!r}")


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
    kernels = {}
    for t in range(1, n + 1):
        kernel = {}
        for v in states:
            if v.depth == t - 1:
                kernel[v] = {v.child(0): half, v.child(1): half}
        kernels[t] = kernel
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

def _fractions_to_common(rows, keep=None):
    """Integer rows over one common denominator.  With `keep`, only the rows
    of states in it are converted; the denominator still covers every row."""
    den = math.lcm(*(p.denominator for row in rows.values() for p in row.values()))
    out = {z: {x: int(p * den) for x, p in row.items() if p}
           for z, row in rows.items() if keep is None or z in keep}
    return den, out


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
    return denA * denB, out


class _CondCache:
    """Conditional laws over dyadic step counts, built by binary composition.

    cond(s, j) keeps only the rows of states in supp(law(s)), the rows that
    _fork_term reads.  This is exact: from supp(law(s)) the first half lands
    in supp(law(s + 2^(j-1))), whose rows the second half keeps.
    """

    def __init__(self, chain):
        self.chain = chain
        self.cache = {}

    def cond(self, s, j):
        """Conditional law of X_{s + 2^j} given X_s (None = identity)."""
        key = (s, j)
        if key in self.cache:
            return self.cache[key]
        keep = self.chain.law(s)
        if j == 0:
            kernel = self.chain.step_kernel(s + 1)
            M = None if not kernel else _fractions_to_common(kernel, keep)
        else:
            A = self.cond(s, j - 1)
            B = self.cond(s + 2 ** (j - 1), j - 1)
            M = _compose(A, B, keep)
        self.cache[key] = M
        return M


class _DistPowCache:
    def __init__(self, space, f, p):
        self.space = space
        self.f = f
        self.p = p
        self.cache = {}

    def get(self, a, b):
        key = (a, b)
        val = self.cache.get(key)
        if val is None:
            fa, fb = self.f(a), self.f(b)
            val = self.space.dist_pow(fa, fb, self.p) if fa != fb else 0
            self.cache[key] = val
            self.cache[(b, a)] = val
        return val


def _integer_law(mu):
    """A law {state: Fraction} as the vector (den, {state: num})."""
    den, rows = _fractions_to_common({None: mu})
    return den, rows[None]


def _fork_term(mu, M, dpow):
    """E[d(f(X_t), f(X~_t))^p] for one (t, s): both copies share X_s ~ mu,
    an integer law vector, and then evolve independently with conditional
    law M."""
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
        for i in range(len(items)):
            x, nx = items[i]
            nzx = nz * nx
            for j in range(i + 1, len(items)):
                y, ny = items[j]
                w = nzx * ny
                key = (x, y)
                cur = weights.get(key)
                weights[key] = w if cur is None else cur + w
    if not weights:
        return 0
    total = 0
    for (x, y), w in weights.items():
        d = dpow.get(x, y)
        if d:
            total += d * w
    if isinstance(total, float):
        return 2 * total / (den_mu * denM ** 2)
    return 2 * total / Fraction(den_mu * denM ** 2)


def pair_expectation(chain, f, space, t, s, p):
    """E[d(f(X_t), f(X~_t(s)))^p], exactly; 0 when s >= t."""
    if s >= t:
        return 0
    mu = chain.law(s)
    # compose single steps from s to t (direct calls need no dyadic alignment)
    M = None
    for t_ in range(s + 1, t + 1):
        kernel = chain.step_kernel(t_)
        step = None if not kernel else _fractions_to_common(kernel)
        M = _compose(M, step)
    dpow = _DistPowCache(space, f, p)
    return _fork_term(_integer_law(mu), M, dpow)


def rhs_step_sum(chain, f, space, p):
    """sum_t E[d(f(X_t), f(X_{t-1}))^p]  (nonzero only inside the horizon)."""
    dpow = _DistPowCache(space, f, p)
    total = 0
    for t in range(chain.t_min + 1, chain.t_max + 1):
        kernel = chain.step_kernel(t)
        if not kernel:
            continue
        mu = chain.law(t - 1)
        for z, pz in mu.items():
            row = kernel.get(z)
            if row is None:
                continue
            for x, px in row.items():
                d = dpow.get(z, x)
                if d:
                    total += pz * px * d
    return total


def default_k_max(chain):
    return max(1, math.ceil(math.log2(max(chain.horizon, 1)))) + 1


def convexity_ratio(chain, f, space, p, k_max=None):
    """Exact per-scale sums, their total, the one-step sum, and the ratio.

    Raises DegenerateChain (carrying the zero report) when the one-step sum
    vanishes.  Raises InvariantViolated unless the truncated time window is
    exact (boundary summands vanish) and the crude per-scale sanity bound
    per_k <= 4^p * rhs holds.
    """
    if k_max is None:
        k_max = default_k_max(chain)
    rhs = rhs_step_sum(chain, f, space, p)
    dpow = _DistPowCache(space, f, p)
    cache = _CondCache(chain)
    exact_p = is_integral(p)
    # integer law vectors, once per time (the law is constant before t_min)
    laws = [_integer_law(chain.law(s)) for s in range(chain.t_min, chain.t_max + 1)]
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        total = 0
        boundary_lo = boundary_hi = None
        for t in range(chain.t_min, chain.t_max + gap + 1):
            s = t - gap
            if s >= chain.t_max:
                break  # conditional law is the identity from here on
            mu = laws[max(s - chain.t_min, 0)]
            term = _fork_term(mu, cache.cond(s, k), dpow)
            if t == chain.t_min:
                boundary_lo = term
            if t == chain.t_max + gap:
                boundary_hi = term
            total += term
        check(not boundary_lo, "lower boundary summand must vanish at k=%d", k)
        check(not boundary_hi, "upper boundary summand must vanish at k=%d", k)
        scale = Fraction(2) ** (k * int(p)) if exact_p else 2.0 ** (k * p)
        term_k = total / scale if total else total
        sanity = (Fraction(4) ** int(p) if exact_p else 4.0 ** p) * rhs
        check(term_k <= sanity, "per-k sanity bound failed at k=%d", k)
        per_k.append(term_k)
    lhs = sum(per_k)
    if rhs == 0:
        report = ConvexityReport(p, per_k, lhs, rhs, None, None)
        err = DegenerateChain("one-step sum is zero; ratio undefined")
        err.report = report
        raise err
    ratio = lhs / rhs
    pi_lower = float(ratio) ** (1.0 / p)
    return ConvexityReport(p, per_k, lhs, rhs, ratio, pi_lower)


# ---------------------------------------------------------------------------
# closed forms and certified bounds
# ---------------------------------------------------------------------------

def bn_pair_expectation(n, t, s, p):
    """E[d(X_t, X~_t(s))^p] for the downward walk on B_n (identity map).

    Uses the level symmetry of the tree: conditioned on X_s, the two copies
    follow independent child choices, so the lca level is s + j with
    probability 2^-(j+1), and the distance is 2 (min(t,n) - s - j).
    """
    if s >= t:
        return 0
    s = max(s, 0)
    g = min(t, n) - s
    if g <= 0:
        return 0
    exact = is_integral(p)
    total = 0
    for j in range(g):
        d = 2 * (g - j)
        dp = Fraction(d) ** int(p) if exact else float(d) ** p
        total += dp / Fraction(2) ** (j + 1) if exact else dp * 2.0 ** -(j + 1)
    return total


def bn_ratio(n, p, k_max=None):
    """ConvexityReport of the downward walk on B_n (identity map), closed form.

    Equivalent to convexity_ratio(downward_walk(n), identity, B_n, p) but
    linear in n rather than exponential; cross-checked against the generic DP
    for small n in the test suite.
    """
    if n < 1:
        raise OutOfRange(f"n = {n} < 1")
    if k_max is None:
        k_max = max(1, math.ceil(math.log2(n))) + 1
    exact = is_integral(p)
    rhs = n * (Fraction(1) if exact else 1.0)  # unit steps
    per_k = []
    for k in range(k_max + 1):
        gap = 2 ** k
        total = 0
        for t in range(1, n + gap):
            total += bn_pair_expectation(n, t, t - gap, p)
        scale = Fraction(2) ** (k * int(p)) if exact else 2.0 ** (k * p)
        per_k.append(total / scale)
    lhs = sum(per_k)
    ratio = lhs / rhs
    return ConvexityReport(p, per_k, lhs, rhs, ratio, float(ratio) ** (1.0 / p))


def laakso_rhs_identity(G, p):
    """The one-step sum for the Laakso walk with the identity map: 4^{-m(p-1)}."""
    chain = laakso_walk(G)
    space = G.as_metric_space()
    return rhs_step_sum(chain, lambda v: v, space, p)


def laakso_time_set(m, k):
    """|T_k|: the number of integer times in the union of branch-separation
    intervals [(4i+1) 4^h + 4^{h-2}, (4i+1) 4^h + 2*4^{h-2}], h = ceil(k/2)."""
    if not 0 <= k <= 2 * m - 2:
        raise OutOfRange(f"k = {k} outside [0, {2 * m - 2}]")
    h = (k + 1) // 2
    top = 4 ** m - 1
    count = 0
    i = 0
    while True:
        base = (4 * i + 1) * 4 ** h
        lo = base + Fraction(4) ** (h - 2)
        hi = base + 2 * Fraction(4) ** (h - 2)
        if lo > top:
            break
        lo_i = max(0, math.ceil(lo))
        hi_i = min(top, math.floor(hi))
        if hi_i >= lo_i:
            count += hi_i - lo_i + 1
        i += 1
    return count


def per_k_laakso_bound(G, k, p):
    """The proof's counting lower bound on the k-th per-scale term:
    |T_k| * 2^(-(2m+3)p - 1).  Returns (|T_k|, bound)."""
    count = laakso_time_set(G.m, k)
    if is_integral(p):
        bound = count * Fraction(1, 2 ** ((2 * G.m + 3) * int(p) + 1))
    else:
        bound = count * 2.0 ** (-(2 * G.m + 3) * p - 1)
    return count, bound


def embedding_distortion_certificate(G, f, p, Pi):
    """Lower bound on dist(f) for f: G_m -> X, given a Markov p-convexity
    upper bound Pi for the target space.

    The walk's ratio in G_m forces (A*B)^p * Pi^p >= ratio for any bi-Lipschitz
    constants A, B of f, so dist(f) >= ratio^(1/p) / Pi.
    """
    if Pi is None or Pi <= 0:
        raise ValueError("requires a certified convexity upper bound Pi for the target")
    chain = laakso_walk(G)
    space = G.as_metric_space()
    report = convexity_ratio(chain, lambda v: v, space, p)
    return report.pi_lower / Pi
