"""Run ops through `mconvex.cli.main(argv)` in-process and check their outputs.

A round runs the workload's op list once, one op after another (a closed
loop with one client).  Every output is parsed and its certificate fields
checked; an op whose key has a frozen reference must also match it byte for
byte.  Times cover only the call into mconvex, not the checks.

Each op is timed by a calibration.Meter, and reported in reference seconds
as well as measured seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from pathlib import Path

import mconvex.cli
import mconvex.embeddings.generators
import mconvex.metric
import mconvex.trees

from calibration import Meter
from tracer import Tracer, install, layer_metrics
from workloads import VERIFY_HORIZON, check_output, op_key

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def load_references(workload):
    """{op key: frozen output text} for the workload (empty if none frozen)."""
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)["outputs"]


def write_inputs(ops, work):
    """Write every input file the ops read into `work`."""
    (work / "out").mkdir(parents=True, exist_ok=True)
    for op in ops:
        for name, text in op["inputs"].items():
            (work / name).write_text(text)


def _verify_metric_op(op):
    """verify_metric on HTreeSpace(random_valid_epsilon(...)) over B_depth,
    through module attributes so that traced wrappers are the ones called."""
    args = dict(zip(op["argv"][1::2], op["argv"][2::2]))
    depth, seed = int(args["--depth"]), int(args["--seed"])
    rng = random.Random(seed)
    eps = mconvex.embeddings.generators.random_valid_epsilon(rng, VERIFY_HORIZON)
    space = mconvex.trees.HTreeSpace(eps)
    rep = mconvex.metric.verify_metric(
        space.as_metric_space(mconvex.trees.enumerate_bn(depth)))
    return json.dumps({"experiment": "verify-metric", "depth": depth, "seed": seed,
                       "mode": rep.mode, "triples_checked": rep.triples_checked,
                       "violations": [[str(x) for x in v] for v in rep.violations]},
                      indent=2, sort_keys=True) + "\n"


def run_op(op, work, tracer=None):
    """Run one op.  Returns (Meter of the call, output text or None, error or
    None, bytes written to the output directory)."""
    out_dir = work / "out"
    for f in out_dir.iterdir():
        f.unlink()
    error = text = None
    meter = Meter()
    if op["kind"] == "cli":
        argv = ["--out", str(out_dir)] + [a.replace("{work}", str(work)) for a in op["argv"]]
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with meter:
            try:
                with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                    code = mconvex.cli.main(argv)
            except (Exception, SystemExit) as exc:  # an op that raises counts as failed
                code = f"{type(exc).__name__}: {exc}"
        if code != 0:
            error = f"exit {code} {sink_err.getvalue().strip()}"
        else:
            text = (out_dir / (op["argv"][0] + ".json")).read_text()
    else:
        with meter:
            if tracer is not None:
                tracer.open("bench.op")
            try:
                text = _verify_metric_op(op)
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.close()
    written = sum(f.stat().st_size for f in out_dir.iterdir())
    return meter, text, error, written


def judge(op, text, error, references):
    """Problems with one op's result; empty means it is certified."""
    if error is not None:
        return [error]
    try:
        data = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    problems = check_output(op, data)
    ref = references.get(op_key(op))
    if ref is not None and ref != text:
        problems.append("output differs from the frozen reference")
    return problems


class Run:
    """Per-op times and failures of a sequence of rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.times = {op["id"]: [] for op in ops}        # measured seconds
        self.ref_times = {op["id"]: [] for op in ops}    # reference seconds
        self.rounds = 0
        self.attempted = 0
        self.certified_instances = 0
        self.failures = []

    def round(self, work, references, tracer=None):
        start = time.perf_counter()
        for op in self.ops:
            meter, text, error, written = run_op(op, work, tracer)
            self.attempted += 1
            self.times[op["id"]].append(meter.seconds)
            self.ref_times[op["id"]].append(meter.seconds * meter.factor)
            problems = judge(op, text, error, references)
            if problems:
                self.failures.append({"op": op["id"], "round": self.rounds,
                                      "problems": problems[:5]})
            else:
                self.certified_instances += op["instances"]
            if tracer is not None:
                tracer.end_op(meter.factor)
                tracer.count("cli.bytes_written", written)
                tracer.count("laakso.bfs_sources",
                             sum(len(g._dist_cache) for g in tracer.graphs))
                tracer.graphs.clear()
        self.rounds += 1
        return time.perf_counter() - start

    @staticmethod
    def _round_time(times):
        """Time of one round: the sum over ops of each op's median time."""
        return sum(statistics.median(ts) for ts in times.values())

    def wall_s(self):
        return self._round_time(self.times)

    def summary(self):
        return {"rounds": self.rounds, "attempted": self.attempted,
                "failed": len(self.failures), "failures": self.failures[:20],
                "wall_s": self._round_time(self.ref_times), "measured_wall_s": self.wall_s(),
                "certified_instances_per_round": self.certified_instances / self.rounds,
                "op_times": self.times, "op_ref_times": self.ref_times}


def run_workload(ops, work, seconds, trace, references, budget_s):
    """Closed loop: rounds until `seconds` have passed (at least one).  No
    round starts that could end after `budget_s`.

    With `trace`, an untraced warm-up round runs first.  Then a traced and
    an untraced round alternate, so that both see the same phases of the
    host's speed: the per-layer metrics come from the traced rounds and
    trace.untraced_wall_s from the untraced ones.
    """
    start = time.perf_counter()
    run = Run(ops)
    tracer = untraced = warm_up = None
    if trace:
        warm_up, untraced, tracer = Run(ops), Run(ops), Tracer()
        warm_up.round(work, references)
    while True:
        if tracer is None:
            took = run.round(work, references)
        else:
            tracer.run_id = run.rounds
            installation = install(tracer)
            try:
                took = run.round(work, references, tracer)
            finally:
                installation.undo()
            took += untraced.round(work, references)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + took > budget_s:
            break
    result = run.summary()
    if trace:
        for r in (warm_up, untraced):
            result["attempted"] += r.attempted
            result["failed"] += len(r.failures)
        result["failures"] = (warm_up.failures + untraced.failures + result["failures"])[:20]
        untraced_wall = sum(map(sum, untraced.ref_times.values())) / untraced.rounds
        result["per_layer"] = layer_metrics(tracer, run.rounds, untraced_wall)
        result["tracer"] = tracer
    return result
