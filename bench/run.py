"""mconvex benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (no install needed: the worker
imports `src/mconvex`).  Set-up is measured in several fresh interpreters
and the workload itself runs in one more fresh interpreter, in a closed loop
with a single client for S seconds.  The last line of standard output is
the result object; a results file with the machine record is written under
bench/results/.  BENCHMARK.json at the repository root lists the workloads
and metrics; bench/README.md explains them.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10         # set-up-only interpreters; the run's own set-up is one more
TIME_LIMIT_S = 170        # the whole run must end well inside 180 s
EXIT_MARGIN_S = 15        # left after the last round for writing results and exiting


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _worker(argv, timeout):
    """Run worker.py with `argv`; return its last stdout line parsed as JSON."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + argv
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {timeout:.0f} s: {' '.join(argv)}")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("worker printed no result")
    return json.loads(lines[-1])


def machine_record(numpy_version):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(), "git_commit": commit}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mconvex" / "cli.py").is_file():
        fail(f"no mconvex sources under {ROOT / 'src'}; run from a source checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    started = time.monotonic()
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = BENCH / ".work" / tag
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [_worker(common + ["--setup-only", "--work", str(work / f"setup{i}")],
                          timeout=60)
                  for i in range(SETUP_PROBES)]
        remaining = TIME_LIMIT_S - (time.monotonic() - started)
        run_argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--budget", str(remaining - EXIT_MARGIN_S),
                             "--work", str(work / "run")]
        if args.trace:
            run_argv += ["--spans", str(results_dir / f"{tag}.spans.jsonl.gz")]
        res = _worker(run_argv, timeout=remaining)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (BENCH / ".work").is_dir() and not any((BENCH / ".work").iterdir()):
            (BENCH / ".work").rmdir()

    setups = [p["setup_s"] for p in probes + [res]]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = {name: _metric(res["per_layer"][name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(res["wall_s"], "s"),
            "instances_per_s": _metric(res["certified_instances_per_round"] / res["wall_s"],
                                       "1/s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "certified_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(res["numpy"]),
        "sizes": res["sizes"], "rounds": res["rounds"], "setup_samples_s": setups,
        "measured_setup_samples_s": [p["measured_setup_s"] for p in probes + [res]],
        "measured_wall_s": res["measured_wall_s"],
        "failure_ratio": failed / attempted, "failures": res["failures"],
        "op_times_s": res["op_times"], "op_reference_times_s": res["op_ref_times"],
        "spans_kept": res.get("spans_kept"), "spans_dropped": res.get("spans_dropped"),
        "metrics": metrics,
    }
    with open(results_dir / f"{tag}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
