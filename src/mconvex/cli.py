"""Experiment runner: every desk-scale claim as a named, reproducible command.

Each experiment writes <name>.json (always) plus optional CSV/SVG artifacts
into the output directory (--out, or $MCONVEX_OUTPUT_DIR, default ".").
Outputs are deterministic given (name, parameters, seed): dictionaries are
emitted with sorted keys, rationals as "p/q" strings, and reductions run in a
fixed order, so re-running a config is byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .errors import BadInput, MconvexError
from .metric import (FiniteMetricSpace, PointMap, is_integral, rat_from_str, rat_to_str,
                     to_float)


def _frac(text):
    """Parse a finite CLI number: "1/32", "0.5", or "3".  Raises BadInput otherwise."""
    if "/" in text:
        return rat_from_str(text)
    try:
        value = float(text) if "." in text or "e" in text or "E" in text else int(text)
    except ValueError as exc:
        raise BadInput(f"not a number: {text!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):  # "1e400" overflows
        raise BadInput(f"not a finite number: {text!r}")
    return value


def _int(text, lo=None):
    """Parse a CLI integer, at least `lo` when given.  Raises BadInput otherwise."""
    try:
        value = int(text)
    except ValueError as exc:
        raise BadInput(f"not an integer: {text!r}") from exc
    if lo is not None and value < lo:
        raise BadInput(f"{value} < {lo}")
    return value


def _at_least(lo):
    """The argparse type of an integer option whose least value is `lo`."""
    return lambda text: _int(text, lo)


def _exponent(text):
    """Parse an exponent p >= 1 as _frac does; BadInput below 1."""
    value = _frac(text)
    if value < 1:
        raise BadInput(f"{value} < 1")
    return value


def _int_range(text):
    """Parse "1..4" or "3" into a non-empty list of ints >= 0, else BadInput."""
    lo, sep, hi = text.partition("..")
    values = list(range(_int(lo, 0), _int(hi if sep else lo, 0) + 1))
    if not values:
        raise BadInput(f"empty range: {text!r}")
    return values


# ---------------------------------------------------------------------------
# minimal SVG plotting
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _SVG_PAD = 480, 320, 40


def _svg_frame(body, title):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">\n'
            f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n'
            f'<text x="{_SVG_W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
            + body + "\n</svg>\n")


def _scale(vals, lo_px, hi_px, flip=False):
    lo, hi = min(vals), max(vals)
    span = float(hi - lo) or 1.0
    def to_px(v):
        t = (float(v) - float(lo)) / span
        if flip:
            t = 1 - t
        return round(lo_px + t * (hi_px - lo_px), 2)
    return to_px

def _svg_curve(xs, ys, title):
    px = _scale(xs, _SVG_PAD, _SVG_W - _SVG_PAD)
    py = _scale(ys, _SVG_PAD, _SVG_H - _SVG_PAD, flip=True)
    pts = " ".join(f"{px(x)},{py(y)}" for x, y in zip(xs, ys))
    dots = "\n".join(f'<circle cx="{px(x)}" cy="{py(y)}" r="3" fill="black"/>'
                     for x, y in zip(xs, ys))
    body = f'<polyline points="{pts}" fill="none" stroke="black"/>\n{dots}'
    return _svg_frame(body, title)


def _svg_bars(labels, ys, title):
    py = _scale([0] + list(ys), _SVG_PAD, _SVG_H - _SVG_PAD, flip=True)
    n = max(len(ys), 1)
    width = (_SVG_W - 2 * _SVG_PAD) / n
    bars = []
    for i, (lab, y) in enumerate(zip(labels, ys)):
        x0 = round(_SVG_PAD + i * width + 2, 2)
        top = py(y)
        bars.append(f'<rect x="{x0}" y="{top}" width="{round(width - 4, 2)}" '
                    f'height="{round(py(0) - top, 2)}" fill="gray"/>')
        bars.append(f'<text x="{round(x0 + width / 2 - 2, 2)}" y="{_SVG_H - 20}" '
                    f'text-anchor="middle" font-size="10">{lab}</text>')
    return _svg_frame("\n".join(bars), title)


# ---------------------------------------------------------------------------
# experiment implementations; each returns {filename_suffix: text}, where the
# ".json" entry is the machine-readable report
# ---------------------------------------------------------------------------

def _report(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _p_field(p):
    """An exponent as written to JSON: integral ones as they were parsed,
    rational ones as "p/q"."""
    return p if is_integral(p) else rat_to_str(p)


def _run_laakso_ratio(args):
    from .markov import laakso_ratios
    reports = laakso_ratios(max(args.m), args.p)
    rows = []
    for m in args.m:
        rep = reports[m]
        rows.append({"m": m, "ratio": rat_to_str(rep.ratio),
                     "lhs": rat_to_str(rep.lhs_total), "rhs": rat_to_str(rep.rhs),
                     "pi_lower": rep.pi_lower})
    csv = "m,ratio,lhs,rhs\n" + "".join(
        f'{r["m"]},{r["ratio"]},{r["lhs"]},{r["rhs"]}\n' for r in rows)
    svg = _svg_curve([r["m"] for r in rows],
                     [rat_from_str(r["ratio"]) for r in rows],
                     f"Laakso convexity ratio vs m (p={args.p})")
    return {".json": _report({"experiment": "laakso-ratio", "p": _p_field(args.p), "rows": rows}),
            ".csv": csv, ".svg": svg}


def _run_bn_ratio(args):
    from .markov import bn_ratio
    rep = bn_ratio(args.n, args.p)
    return {".json": _report({"experiment": "bn-ratio", "n": args.n, **rep.to_dict()}),
            ".csv": rep.to_csv()}


def _run_per_k_bound(args):
    from .markov import laakso_ratio, per_k_laakso_bound
    rep = laakso_ratio(args.m, args.p)
    rows = []
    for k in range(2 * args.m - 1):
        count, bound = per_k_laakso_bound(args.m, k, args.p)
        rows.append({"k": k, "per_k": rat_to_str(rep.per_k[k]), "count": count,
                     "bound": rat_to_str(bound), "ok": rep.per_k[k] >= bound})
    svg = _svg_bars([r["k"] for r in rows],
                    [rat_from_str(r["per_k"]) for r in rows],
                    f"per-scale terms, m={args.m}, p={args.p}")
    return {".json": _report({"experiment": "per-k-bound", "m": args.m, "p": _p_field(args.p),
                              "rows": rows, "all_ok": all(r["ok"] for r in rows)}),
            ".svg": svg}


def _run_pconvex_check(args):
    from .banach import pconvexity_slacks
    slacks = pconvexity_slacks(args.d, args.p, to_float(args.K, "K"), args.trials, seed=args.seed)
    return {".json": _report({
        "experiment": "pconvex-check", "d": args.d,
        "p": _p_field(args.p),
        "K": rat_to_str(args.K),
        "trials": args.trials, "seed": args.seed,
        "min_slack": float(slacks.min()), "max_abs_slack_if_identity":
            float(abs(slacks).max()) if args.p == 2 and args.K == 1 else None,
        "violations": int((slacks < -1e-9).sum())})}


def _run_prop21_check(args):
    import random
    from .banach import LpSpace, check_prop21
    from .embeddings.generators import random_chain
    from .errors import DegenerateChain
    rng = random.Random(args.seed)
    space = LpSpace(3, 2)
    checked = failures = 0
    while checked < args.trials:
        chain, f = random_chain(rng)
        try:
            holds = check_prop21(chain, f, space, 1)[2]
        except DegenerateChain:
            continue
        checked += 1
        failures += not holds
    return {".json": _report({"experiment": "prop21-check", "trials": checked,
                              "seed": args.seed, "failures": failures})}


def _run_htree_validate(args):
    import random
    from .trees import HTreeSpace, htree_triangle_violations
    from .embeddings.generators import random_valid_epsilon, htree_random_triple_violations
    if args.exhaustive_depth > args.max_depth:
        raise BadInput(f"--exhaustive-depth {args.exhaustive_depth} > "
                       f"--max-depth {args.max_depth}")
    rng = random.Random(args.seed)
    depth = args.exhaustive_depth
    results = []
    for i in range(args.sequences):
        eps = random_valid_epsilon(rng, args.max_depth)
        exhaustive_bad = htree_triangle_violations(eps, depth)
        space = HTreeSpace(eps, args.max_depth)
        sampled_bad = htree_random_triple_violations(space, rng, args.samples)
        results.append({"sequence": i, "exhaustive_violations": exhaustive_bad,
                        "sampled_violations": len(sampled_bad)})
    return {".json": _report({"experiment": "htree-validate", "seed": args.seed,
                              "exhaustive_depth": args.exhaustive_depth,
                              "results": results,
                              "all_ok": all(r["exhaustive_violations"] == 0
                                            and r["sampled_violations"] == 0
                                            for r in results)})}


def _run_classify(args):
    import random
    from .embeddings.classify import classify_3path, classify_fork, classify_midpoint
    from .embeddings.generators import gen_3path, gen_fork, gen_midpoint
    rng = random.Random(args.seed)
    counts = {}
    for _ in range(args.trials):
        if args.kind == "midpoint":
            sp, *pts = gen_midpoint(rng, args.delta)
            variant = classify_midpoint(sp, *pts, args.delta).variant
        elif args.kind == "fork":
            sp, *pts = gen_fork(rng, args.delta)
            variant = classify_fork(sp, *pts, args.delta).variant
        else:
            sp, *pts = gen_3path(rng, args.delta)
            variant = classify_3path(sp, *pts, args.delta).variant
        counts[variant] = counts.get(variant, 0) + 1
    return {".json": _report({"experiment": "classify", "kind": args.kind,
                              "delta": rat_to_str(Fraction(args.delta)),
                              "trials": args.trials, "seed": args.seed,
                              "variants": dict(sorted(counts.items())),
                              "unclassified": counts.get("Unclassified", 0)})}


def _run_boost(args):
    import random
    from .embeddings.generators import gen_boost_path
    from .embeddings.paths import path_boost
    rng = random.Random(args.seed)
    f = gen_boost_path(rng, args.n)
    res = path_boost(f, args.t, args.delta)
    return {".json": _report({"experiment": "boost", "n": args.n, "t": args.t,
                              "delta": rat_to_str(Fraction(args.delta)), "seed": args.seed,
                              "grid": res.grid, "T": rat_to_str(Fraction(res.t_value)),
                              "dist": rat_to_str(Fraction(res.dist))})}


def _run_b4_search(args):
    import random
    from .embeddings.classify import _B4, b4_bound_checks
    from .embeddings.generators import make_space
    from .embeddings.search import B4_CHUNK, nested_b4_rows
    from .trees import _vertex
    rng = random.Random(args.seed)
    space = make_space(Fraction(1, args.s_const), depth=60)
    delta = Fraction(args.delta)
    violations = []
    # the check draws nothing, so drawing a chunk before checking it leaves
    # every trial's draws as they are
    for start in range(0, args.trials, B4_CHUNK):
        rows = nested_b4_rows(space, rng, min(B4_CHUNK, args.trials - start))
        for i, (row, (dist, bound, holds)) in enumerate(
                zip(rows, b4_bound_checks(space, rows, delta)), start):
            if not holds:
                violations.append({"trial": i, "dist": rat_to_str(dist),
                                   "bound": rat_to_str(bound),
                                   "map": {str(k): str(_vertex(v))
                                           for k, v in zip(_B4, row.tolist())}})
    return {".json": _report({"experiment": "b4-search", "s_const": args.s_const,
                              "delta": rat_to_str(delta), "trials": args.trials,
                              "seed": args.seed, "violations": violations})}


def _run_distortion_gap(args):
    from .embeddings.generators import make_space
    from .embeddings.search import distortion_gap_experiment
    space = make_space(Fraction(1, args.s_const), depth=max(60, 4 * args.n))
    out = distortion_gap_experiment(space, lambda n: args.s_const, args.n, seed=args.seed)
    return {".json": _report({"experiment": "distortion-gap", "n": args.n,
                              "s_const": args.s_const, "seed": args.seed,
                              **{k: (rat_to_str(v) if isinstance(v, Fraction) else v)
                                 for k, v in out.items()}})}


def _load(path, what, build):
    """build(data) for the JSON document at `path`; unreadable or malformed
    input raises BadInput."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    # TypeError/AttributeError: a JSON value of the wrong shape, e.g. a list
    # where an object is expected
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BadInput(f"bad {what} file {path}: {type(exc).__name__}: {exc}") from exc


def _load_map(path):
    def build(data):
        src = FiniteMetricSpace.from_json(json.dumps(data["source"]))
        tgt = FiniteMetricSpace.from_json(json.dumps(data["target"]))
        assignment = {p: data["assignment"][str(p)] for p in src.points}
        return PointMap(src, tgt, assignment)
    return _load(path, "map", build)


def _load_chain(path):
    from .markov import ChainSpec

    def build(data):
        kernels = {int(t): {z: {x: rat_from_str(p) for x, p in row.items()}
                            for z, row in kernel.items()}
                   for t, kernel in data["kernels"].items()}
        initial = {z: rat_from_str(p) for z, p in data["initial"].items()}
        return ChainSpec(data["states"], data["t_min"], data["t_max"], kernels, initial)
    return _load(path, "chain", build)


def _run_quotient_verify(args):
    from .quotients import verify_quotient
    f = _load_map(args.map)
    violations = verify_quotient(f, args.a, args.b)
    return {".json": _report({
        "experiment": "quotient-verify", "a": rat_to_str(Fraction(args.a)),
        "b": rat_to_str(Fraction(args.b)),
        "violations": [{"kind": k, "center": str(x), "radius": rat_to_str(r),
                        "witness": str(y)} for k, x, r, y in violations],
        "is_quotient": not violations})}


def _run_quotient_lift(args):
    from .quotients import QuotientMap, lift_chain, trajectory_chain
    f = _load_map(args.map)
    chain = _load_chain(args.chain)
    q = QuotientMap(f, args.a, args.b)
    lift = lift_chain(q, chain, lambda s: s)
    tchain = trajectory_chain(chain)
    lifts = {"/".join(map(str, traj)): str(lift(traj)) for traj in tchain.states}
    return {".json": _report({"experiment": "quotient-lift",
                              "a": rat_to_str(Fraction(args.a)),
                              "b": rat_to_str(Fraction(args.b)),
                              "lifts": dict(sorted(lifts.items()))})}


def _run_ramsey_toy(args):
    import random
    from .embeddings.ramsey import ExhaustionReport, ramsey_search
    rng = random.Random(args.seed)
    table = {}
    def coloring(anc, desc):
        key = (anc, desc)
        if key not in table:
            table[key] = rng.randrange(args.r)
        return table[key]
    res = ramsey_search(args.k, args.m, args.r, coloring)
    if isinstance(res, ExhaustionReport):
        body = {"found": False, "nodes_explored": res.nodes_explored}
    else:
        body = {"found": True,
                "copy": {str(k): "/".join(map(str, v)) for k, v in sorted(res.items())}}
    return {".json": _report({"experiment": "ramsey-toy", "k": args.k, "m": args.m,
                              "r": args.r, "seed": args.seed, **body})}


def _run_extract_subtree(args):
    from .embeddings.extract import extract_vertically_faithful
    from .trees import tree_distance

    class _TreeMetric:
        dist = staticmethod(tree_distance)

    res = extract_vertically_faithful(lambda v: v, args.n, _TreeMetric(),
                                      args.t, args.delta, args.xi)
    return {".json": _report({
        "experiment": "extract-subtree", "n": args.n, "t": args.t,
        "delta": rat_to_str(Fraction(args.delta)), "xi": rat_to_str(Fraction(args.xi)),
        "params": res.params, "D": rat_to_str(Fraction(res.report.D)),
        "phi": {str(k): str(v) for k, v in sorted(res.phi.items())}})}


# ---------------------------------------------------------------------------
# registry / argument wiring
# ---------------------------------------------------------------------------

def _add_seed(sp):
    sp.add_argument("--seed", type=_int, required=True,
                    help="PRNG seed (mandatory: outputs must be reproducible)")


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every later
    main() call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="mconvex", description="Markov-convexity experiment runner")
    parser.add_argument("--out", default=None,
                        help="output directory (default $MCONVEX_OUTPUT_DIR or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {}

    def cmd(name, runner, help_text, randomized=False):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(runner=runner, name=name)
        if randomized:
            _add_seed(sp)
        specs[name] = (sp, help_text)
        return sp

    sp = cmd("laakso-ratio", _run_laakso_ratio, "convexity ratio of Laakso walks")
    # a string default goes through _int_range on every parse: no list is shared
    sp.add_argument("--m", type=_int_range, default="1..4", help='e.g. "1..4"')
    sp.add_argument("--p", type=_exponent, default=2)

    sp = cmd("bn-ratio", _run_bn_ratio, "convexity ratio of the B_n downward walk")
    sp.add_argument("--n", type=_int, required=True)   # bn_ratio checks n >= 1
    sp.add_argument("--p", type=_at_least(1), default=2)

    sp = cmd("per-k-bound", _run_per_k_bound, "per-scale counting bound for Laakso walks")
    sp.add_argument("--m", type=_at_least(0), required=True)
    sp.add_argument("--p", type=_exponent, default=2)

    sp = cmd("pconvex-check", _run_pconvex_check,
             "sampled p-convexity inequality slacks", randomized=True)
    sp.add_argument("--d", type=_at_least(0), default=8)
    sp.add_argument("--p", type=_frac, default=2)
    sp.add_argument("--K", type=_frac, default=1)
    sp.add_argument("--trials", type=_at_least(1), default=100000)

    sp = cmd("prop21-check", _run_prop21_check,
             "chain transfer inequality on random chains", randomized=True)
    sp.add_argument("--trials", type=_at_least(0), default=100)

    sp = cmd("htree-validate", _run_htree_validate,
             "triangle inequality for contracted tree metrics", randomized=True)
    sp.add_argument("--sequences", type=_at_least(0), default=20)
    sp.add_argument("--exhaustive-depth", type=_at_least(0), default=8)
    sp.add_argument("--samples", type=_at_least(0), default=5000)
    sp.add_argument("--max-depth", type=_at_least(0), default=64)

    sp = cmd("classify", _run_classify, "configuration classifier soundness",
             randomized=True)
    sp.add_argument("--kind", choices=["midpoint", "fork", "3path"], required=True)
    sp.add_argument("--delta", type=_frac, required=True)
    sp.add_argument("--trials", type=_at_least(0), default=10000)

    sp = cmd("boost", _run_boost, "path boosting on a generated map", randomized=True)
    sp.add_argument("--n", type=_at_least(0), default=4 ** 6)
    sp.add_argument("--t", type=_at_least(2), default=4)
    sp.add_argument("--delta", type=_frac, default=Fraction(1, 2))

    sp = cmd("b4-search", _run_b4_search,
             "rigidity bound on random faithful B_4 embeddings", randomized=True)
    sp.add_argument("--s-const", type=_at_least(1), default=5)
    sp.add_argument("--delta", type=_frac, default=Fraction(1, 512))
    sp.add_argument("--trials", type=_at_least(0), default=10000)

    sp = cmd("distortion-gap", _run_distortion_gap,
             "upper bound vs the rigidity floor on a nested B_4 image", randomized=True)
    sp.add_argument("--s-const", type=_at_least(1), default=5)
    sp.add_argument("--n", type=_int, default=8, help="depth budget, 1..12")
    sp.add_argument("--trials", type=_at_least(0), default=500,
                    help="ignored: one nested map gives the distortion of its family")

    sp = cmd("quotient-verify", _run_quotient_verify, "Lipschitz quotient inclusions")
    sp.add_argument("--map", required=True)
    sp.add_argument("--a", type=_frac, required=True)
    sp.add_argument("--b", type=_frac, required=True)

    sp = cmd("quotient-lift", _run_quotient_lift, "greedy chain lifting")
    sp.add_argument("--map", required=True)
    sp.add_argument("--chain", required=True)
    sp.add_argument("--a", type=_frac, required=True)
    sp.add_argument("--b", type=_frac, required=True)

    sp = cmd("ramsey-toy", _run_ramsey_toy,
             "monochromatic binary subtree search", randomized=True)
    sp.add_argument("--k", type=_at_least(0), default=4)
    sp.add_argument("--m", type=_at_least(0), default=2)
    sp.add_argument("--r", type=_at_least(1), default=2)

    sp = cmd("extract-subtree", _run_extract_subtree,
             "vertically faithful subtree extraction pipeline")
    sp.add_argument("--n", type=_at_least(0), default=6)
    sp.add_argument("--t", type=_at_least(2), default=2)
    sp.add_argument("--delta", type=_frac, default=Fraction(1, 4))
    sp.add_argument("--xi", type=_frac, default=1)

    lp = sub.add_parser("list", help="experiment catalog")
    lp.set_defaults(runner=None, name="list")
    lp.set_defaults(catalog={name: help_text for name, (_, help_text) in specs.items()})

    rp = sub.add_parser("run", help="run an experiment by name")
    rp.add_argument("experiment")
    rp.add_argument("rest", nargs=argparse.REMAINDER)
    rp.set_defaults(runner="run", name="run")
    return parser


_NUMBER_START = set("0123456789.")


def _join_negative_values(argv):
    """`--opt -1e-3` as `--opt=-1e-3`.  argparse takes a separate token that
    starts with "-" for an option unless it looks like -1 or -1.5, so a value
    such as -1e-3 or -1/2 is joined to the option before it."""
    out = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token[:1] == "-" and token[1:2] in _NUMBER_START
                and prev.startswith("--") and prev != "--" and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = _build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        # number arguments are parsed here, so bad ones surface as BadInput
        args = parser.parse_args(argv)
        if args.name == "run":
            prefix = ["--out", args.out] if args.out else []
            return main(prefix + [args.experiment] + args.rest)
        if args.name == "list":
            print(_report({"experiments": args.catalog}), end="")
            return 0
        out_dir = args.out or os.environ.get("MCONVEX_OUTPUT_DIR", ".")
        artifacts = args.runner(args)
    except MconvexError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 1
    os.makedirs(out_dir, exist_ok=True)
    for suffix, text in artifacts.items():
        path = os.path.join(out_dir, args.name + suffix)
        with open(path, "w") as fh:
            fh.write(text)
    print(artifacts[".json"], end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
