"""One benchmark run in a fresh interpreter (started by run.py).

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --budget B --work DIR
    python3 bench/worker.py --setup-only --workload W --seed N --work DIR

Set-up is timed by calibration.Meter from before the first import of
numpy and mconvex to the end of those imports, and again while the
workload's inputs (op list, map/chain files) are prepared.  The benchmark's
own modules are imported outside those windows.  Prints one JSON object as
the last line of standard output.
"""
import os
import sys

_BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_BENCH), "src"), _BENCH]

import calibration  # noqa: E402

with calibration.Meter() as _IMPORTS:
    import numpy
    import mconvex.banach  # noqa: F401
    import mconvex.cli  # noqa: F401
    import mconvex.embeddings  # noqa: F401
    import mconvex.laakso  # noqa: F401
    import mconvex.markov  # noqa: F401
    import mconvex.metric  # noqa: F401
    import mconvex.quotients  # noqa: F401
    import mconvex.trees  # noqa: F401

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import runner  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--budget", type=float, default=0,
                    help="start no round that could end after this many seconds")
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args()

    work = Path(args.work)
    with calibration.Meter() as inputs:
        ops = workloads.build_ops(args.workload, args.seed)
        runner.write_inputs(ops, work)
    setup = {"setup_s": sum(m.seconds * m.factor for m in (_IMPORTS, inputs)),
             "measured_setup_s": _IMPORTS.seconds + inputs.seconds}
    if args.setup_only:
        print(json.dumps(setup))
        return

    references = runner.load_references(args.workload)
    result = runner.run_workload(ops, work, args.seconds, bool(args.trace), references,
                                 args.budget)
    tracer = result.pop("tracer", None)
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
        result["spans_kept"], result["spans_dropped"] = len(tracer.spans), tracer.dropped
    result.update({
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sizes": workloads.workload_sizes(ops),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main()
