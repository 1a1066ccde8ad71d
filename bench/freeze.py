"""Freeze the reference output of every op at the default seed.

    python3 bench/freeze.py [WORKLOAD ...]

Runs each op of each workload once, refuses to freeze an output whose
certificate fields fail, and writes bench/references/<workload>.json.
Re-freeze only when an output is meant to change; a performance change must
leave every reference byte-identical.
"""
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import runner  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_ops, check_output, op_key  # noqa: E402


def freeze(workload):
    ops = build_ops(workload, DEFAULT_SEED)
    work = BENCH / ".work" / f"freeze-{workload}-{os.getpid()}"
    runner.write_inputs(ops, work)
    outputs = {}
    try:
        for op in ops:
            _, text, error, _ = runner.run_op(op, work)
            if error is not None:
                sys.exit(f"{workload}/{op['id']}: {error}")
            problems = check_output(op, json.loads(text))
            if problems:
                sys.exit(f"{workload}/{op['id']}: {problems}")
            outputs[op_key(op)] = text
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    runner.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(runner.reference_path(workload), "w") as fh:
        json.dump({"workload": workload, "seed": DEFAULT_SEED, "outputs": outputs},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{workload}: {len(outputs)} references")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        freeze(name)
