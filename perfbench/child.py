"""One run of one workload in a fresh interpreter; started by run.py.

The first statement imports fintop's CLI module, which imports the package,
every fintop module and numpy: the set-up every `fintop` call pays.  Its end
is reported as a CLOCK_MONOTONIC reading, which run.py subtracts from the
time it started this process.  The last line on stdout is a JSON object.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \\
        --workdir DIR [--spans PATH]
"""

import time

import fintop.cli

SETUP_END = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--spans")
    args = ap.parse_args()
    out = {"setup_end": SETUP_END, "fintop_file": fintop.__file__,
           "numpy": numpy.__version__}
    if not args.setup_only:
        import workloads
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        compute = workloads.WORKLOADS[args.workload][0]
        t0, c0 = time.perf_counter(), time.process_time()
        res = compute(args.seed, args.workdir)
        out["time_to_answer_s"] = time.perf_counter() - t0
        out["cpu_s"] = time.process_time() - c0
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failures = workloads.check(args.workload, res)
        out.update(attempted=attempted, failed=len(failures),
                   failures=failures[:20])
        if tracer is not None:
            out["layers"] = tracer.metrics()
            out["units"] = tracing.PER_LAYER
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump_spans(), fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
