"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py [--seeds 10] [--out FILE] [WORKLOAD ...]

Runs bench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json, then prints for every end-to-end metric the
median and the distance between the first and third quartiles (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
beside a third of the metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default=None, help="write the collected values here (JSON)")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    collected = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        collected[workload] = values
        for name, vals in values.items():
            med, share = spread(vals)
            flag = "" if share < bounds[name] / 3 else "  <-- not below a third of the bound"
            print(f"  {workload:16s} {name:16s} median {med:12.5g}  spread {share:7.4f}"
                  f"  (bound/3 {bounds[name] / 3:.4f}){flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(collected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
