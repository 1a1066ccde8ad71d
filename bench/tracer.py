"""Span tracing of the mconvex layers, installed from outside the package.

`install(tracer)` wraps the public functions of each traced mconvex module and
a fixed list of hot methods, rebinding every name in every loaded mconvex
module that refers to the original (modules that bind a name with
`from ... import` hold their own reference).  Nothing under `src/` changes.

Each wrapped call opens a span: (name, start, end, parent span, run id).
Self time is computed online, as the span's duration minus the durations of
its direct children; in one thread children never overlap and always lie
inside their parent, so that is the time the children cover.  The times of
one op are held apart until the op ends, when `end_op(factor)` adds them to
the totals scaled to reference seconds (calibration.py).  Per-name totals
are exact for every call.  The span records of the first KEEP_ROUNDS
traced rounds are kept in memory, in full, and written out when the run
ends; later spans are only counted (one b4-rigidity round alone makes some
200,000 spans).
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from fractions import Fraction

# layer name -> the mconvex modules whose public functions it owns
LAYER_MODULES = {
    "metric": ["mconvex.metric"],
    "trees": ["mconvex.trees"],
    "laakso": ["mconvex.laakso"],
    "markov": ["mconvex.markov"],
    "banach": ["mconvex.banach"],
    "embeddings": ["mconvex.embeddings.classify", "mconvex.embeddings.search",
                   "mconvex.embeddings.generators", "mconvex.embeddings.vertical"],
    "quotients": ["mconvex.quotients"],
}

# (module, class, method) -> span name; methods are wrapped on the class
METHOD_SPANS = {
    ("mconvex.metric", "FiniteMetricSpace", "dist_pow"): "metric.dist_pow",
    ("mconvex.metric", "FiniteMetricSpace", "distance_matrix"): "metric.distance_matrix",
    ("mconvex.trees", "HTreeSpace", "distance"): "trees.HTreeSpace.distance",
    ("mconvex.trees", "EpsilonSequence", "__init__"): "trees.EpsilonSequence.init",
    ("mconvex.laakso", "LaaksoGraph", "hop_distance"): "laakso.hop_distance",
    ("mconvex.markov", "ChainSpec", "law"): "markov.ChainSpec.law",
}

# methods so small that a span would mostly time its own wrapper: count only
METHOD_COUNTS = {
    ("mconvex.trees", "TreeVertex", "lca_depth"): "trees.TreeVertex.lca_depth",
}

# the CLI entry point is the root span of every CLI op
CLI_SPAN = ("mconvex.cli", "main", "cli")

# spans whose inclusive per-call durations are kept for percentiles
SAMPLED = {"embeddings.b4_bound_check", "embeddings.classify_midpoint",
           "embeddings.classify_fork", "embeddings.classify_3path"}

GENERATORS = {"embeddings.gen_midpoint", "embeddings.gen_fork", "embeddings.gen_3path"}

KEEP_ROUNDS = 1



class NameStats:
    __slots__ = ("calls", "self_time", "op_self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.self_time = 0.0         # reference seconds, over the ended ops
        self.op_self_time = 0.0      # measured seconds, in the current op
        self.raised = {}


class Tracer:
    """Span recorder with online self-time accounting (single thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.run_id = 0
        self.stack = []          # open frames: [name, start, child_time, span_id]
        self.next_id = 0
        self.spans = []          # (span_id, name, start, end, parent_id, run_id)
        self.dropped = 0
        self.stats = {}          # name -> NameStats
        self.samples = {}        # name -> inclusive durations of each call
        self.op_samples = []     # (name, measured duration) in the current op
        self.counters = {}       # name -> number
        self.graphs = []         # Laakso graphs built during the current op
        self.root_total = 0.0    # summed durations of spans without a parent
        self.op_root = 0.0       # the same in the current op, measured

    def open(self, name):
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([name, self.clock(), 0.0, span_id])

    def close(self, exc_type=None):
        end = self.clock()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = NameStats()
        st.calls += 1
        st.op_self_time += dur - child
        if exc_type is not None:
            st.raised[exc_type.__name__] = st.raised.get(exc_type.__name__, 0) + 1
        if name in SAMPLED:
            self.op_samples.append((name, dur))
        parent_id = None
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            self.op_root += dur
        if self.run_id < KEEP_ROUNDS:
            self.spans.append((span_id, name, start, end, parent_id, self.run_id))
        else:
            self.dropped += 1
        return dur

    def end_op(self, factor):
        """Add the current op's times to the totals, times `factor` (from
        measured to reference seconds)."""
        for st in self.stats.values():
            st.self_time += st.op_self_time * factor
            st.op_self_time = 0.0
        for name, dur in self.op_samples:
            self.samples.setdefault(name, []).append(dur * factor)
        self.op_samples.clear()
        self.root_total += self.op_root * factor
        self.op_root = 0.0

    def parent_name(self):
        return self.stack[-1][0] if self.stack else None

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def write_spans(self, path):
        """Write the kept span records as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"kept": len(self.spans), "kept_rounds": KEEP_ROUNDS,
                                 "dropped": self.dropped, "clock": "measured seconds",
                                 "fields": ["id", "name", "start", "end", "parent", "run"]})
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# result inspectors: counts read from a wrapped call's return value
# ---------------------------------------------------------------------------

def _den_bits(tracer, result):
    ratio = getattr(result, "ratio", None)
    if isinstance(ratio, Fraction):
        bits = ratio.denominator.bit_length()
        tracer.counters["markov.ratio_den_bits"] = max(
            tracer.counters.get("markov.ratio_den_bits", 0), bits)


def _keep_graph(tracer, result):
    tracer.graphs.append(result)


def _triples(tracer, result):
    tracer.count("metric.verify_metric.triples", result.triples_checked)


def _triangle_checks(tracer, result):
    n = result[0].shape[0]
    tracer.count("trees.triangle_checks", n ** 3)


INSPECT = {
    "markov.convexity_ratio": _den_bits,
    "laakso.build_laakso": _keep_graph,
    "metric.verify_metric": _triples,
    "trees.scaled_distance_matrix": _triangle_checks,
}


def _span_wrapper(tracer, name, orig):
    inspect_result = INSPECT.get(name)
    count_parent = name == "embeddings.make_space"

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if count_parent and tracer.parent_name() in GENERATORS:
            tracer.count("embeddings.make_space.in_generators")
        tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            tracer.close(type(exc))
            raise
        tracer.close()
        if inspect_result is not None:
            inspect_result(tracer, result)
        return result

    return wrapper


def _count_wrapper(tracer, name, orig):
    counters = tracer.counters
    counters.setdefault(name, 0)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        counters[name] += 1
        return orig(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# installing and removing the wrappers
# ---------------------------------------------------------------------------

def _public_functions(module):
    """Plain public functions defined in the module (generators excluded: a
    span around one would close before the caller consumes the work)."""
    return [attr for attr, obj in vars(module).items()
            if not attr.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__ and not inspect.isgeneratorfunction(obj)]


def wrap_targets():
    """[(span name, wrapper kind, holder, attribute)] for everything traced.

    A module holder's function is rebound in every mconvex module that
    refers to it; a class holder's method is rebound with its aliases.
    """
    targets = []
    for layer, modules in LAYER_MODULES.items():
        for modname in modules:
            mod = importlib.import_module(modname)
            for attr in _public_functions(mod):
                targets.append((f"{layer}.{attr}", _span_wrapper, mod, attr))
    for table, make in ((METHOD_SPANS, _span_wrapper), (METHOD_COUNTS, _count_wrapper)):
        for (modname, cls, meth), name in table.items():
            owner = getattr(importlib.import_module(modname), cls)
            targets.append((name, make, owner, meth))
    modname, attr, name = CLI_SPAN
    targets.append((name, _span_wrapper, importlib.import_module(modname), attr))
    return targets


class Installation:
    """The rebinding done by install(); undo() restores every original."""

    def __init__(self):
        self.patched = []        # (namespace object, attribute, original)

    def undo(self):
        for holder, attr, orig in reversed(self.patched):
            setattr(holder, attr, orig)
        self.patched.clear()


def install(tracer):
    """Wrap every traced function and rebind every reference to it."""
    inst = Installation()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "mconvex" or n.startswith("mconvex."))]
    for name, make, holder, attr in wrap_targets():
        orig = vars(holder)[attr]
        wrapper = make(tracer, name, orig)
        namespaces = [holder] if isinstance(holder, type) else modules
        for ns in namespaces:
            for alias, val in list(vars(ns).items()):
                if val is orig:
                    inst.patched.append((ns, alias, orig))
                    setattr(ns, alias, wrapper)
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics from a finished traced run
# ---------------------------------------------------------------------------

def layer_of(name):
    return name.split(".", 1)[0]


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


LAYERS = ("metric", "trees", "laakso", "markov", "banach", "embeddings", "quotients",
          "cli", "bench")

# the per-layer metrics a traced run reports, with their units
_SELF = ["markov.convexity_ratio", "markov.rhs_step_sum", "markov.laakso_walk",
         "laakso.build_laakso", "laakso.hop_distance", "metric.dist_pow",
         "metric.is_midpoint", "metric.verify_metric", "metric.distance_matrix",
         "trees.HTreeSpace.distance", "trees.EpsilonSequence.init",
         "trees.scaled_distance_matrix", "embeddings.b4_bound_check",
         "embeddings.vertical_report", "embeddings.generate_faithful_b4",
         "embeddings.b4_search", "embeddings.classify_midpoint", "embeddings.classify_fork",
         "embeddings.classify_3path", "embeddings.gen_midpoint", "embeddings.gen_fork",
         "embeddings.gen_3path", "embeddings.random_chain",
         "embeddings.htree_random_triple_violations", "banach.check_prop21",
         "quotients.verify_quotient", "quotients.trajectory_chain"]
_CALLS = ["markov.ChainSpec.law", "laakso.hop_distance", "metric.dist_pow",
          "metric.is_midpoint", "trees.HTreeSpace.distance", "trees.EpsilonSequence.init"]

PER_LAYER = (
    [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{n}.calls", "count") for n in _CALLS]
    + [("trees.TreeVertex.lca_depth.calls", "count"), ("markov.ratio_den_bits", "bits"),
       ("laakso.bfs_sources", "count"), ("metric.verify_metric.triples", "count"),
       ("trees.triangle_checks", "count"), ("trees.triangle_bytes_computed", "B"),
       ("cli.bytes_written", "B")]
    + [(f"{n}.{q}", "ms") for n in sorted(SAMPLED) for q in ("p50_ms", "p95_ms")]
    + [("embeddings.generator_accept_ratio", "ratio"), ("banach.degenerate_ratio", "ratio")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_pct", "%"),
       ("trace.spans", "count")]
)

# bytes an exhaustive triangle comparison moves per (i, j, k), computed from
# ((mat[:, j, None] + mat[None, j, :]) < mat).sum() over int64 matrices: the
# 8-byte sum is written and read, mat is read, the 1-byte mask written and read
TRIANGLE_BYTES_PER_CHECK = 8 + 8 + 8 + 1 + 1


def layer_metrics(tracer, rounds, untraced_wall):
    """Per-round values of every PER_LAYER metric from a traced run, with
    times in reference seconds."""
    stats = tracer.stats
    empty = NameStats()
    out = {}

    def per_round(x):
        return x / rounds

    for name in _SELF:
        out[f"{name}.self_s"] = per_round(stats.get(name, empty).self_time)
    for name in _CALLS:
        out[f"{name}.calls"] = per_round(stats.get(name, empty).calls)
    counters = tracer.counters
    out["trees.TreeVertex.lca_depth.calls"] = per_round(
        counters.get("trees.TreeVertex.lca_depth", 0))
    # a maximum over the run, not a per-round sum
    out["markov.ratio_den_bits"] = counters.get("markov.ratio_den_bits", 0)
    for name in ("laakso.bfs_sources", "metric.verify_metric.triples",
                 "trees.triangle_checks", "cli.bytes_written"):
        out[name] = per_round(counters.get(name, 0))
    out["trees.triangle_bytes_computed"] = (out["trees.triangle_checks"]
                                            * TRIANGLE_BYTES_PER_CHECK)
    for name in sorted(SAMPLED):
        samples = tracer.samples.get(name)
        for q, label in ((50, "p50_ms"), (95, "p95_ms")):
            out[f"{name}.{label}"] = 1000 * percentile(samples, q) if samples else 0.0
    accepted = sum(stats.get(g, empty).calls for g in GENERATORS)
    attempts = counters.get("embeddings.make_space.in_generators", 0)
    out["embeddings.generator_accept_ratio"] = accepted / attempts if attempts else 0.0
    prop21 = stats.get("banach.check_prop21", empty)
    out["banach.degenerate_ratio"] = (prop21.raised.get("DegenerateChain", 0) / prop21.calls
                                      if prop21.calls else 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_round(sum(st.self_time for n, st in stats.items()
                                               if layer_of(n) == layer))
    traced = per_round(tracer.root_total)
    out["trace.wall_s"] = traced
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_pct"] = 100 * (traced - untraced_wall) / untraced_wall
    out["trace.spans"] = per_round(tracer.next_id)
    return out
