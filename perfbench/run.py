"""fintop benchmark: one command per workload, metrics as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fintop is imported from its ``src``.  Every
workload run is a fresh interpreter (perfbench/child.py): one caller, no
threads, sequential calls.  Before each workload run, a few interpreters
that only import fintop sample the set-up time.  Workload runs repeat for about
--seconds; each metric is the median over the runs.

--trace 0 reports the end-to-end metrics: setup_s, time_to_answer_s and
peak_rss_mb.  --trace 1 alternates traced and untraced runs and reports the
per-layer metrics of the traced ones (self times and counts, see
tracing.py) and trace.overhead_s, the traced minus the untraced median time
to answer.  Failed and attempted operations go into the result either way;
the fail ratio is failed / attempted.  A copy of the result, the machine it
ran on and each run's figures go to .perfbench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("circle4-induced", "squares5-certify", "squares3-integral")

# interpreters that only import fintop, started before each workload run
SETUP_PROBES = 2
# the whole invocation must end within 180 s; a child is stopped before that
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "time_to_answer_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_at_start": list(os.getloadavg())}


def spawn(args: list[str], env: dict, started: float) -> tuple[float, dict]:
    """Run child.py; returns its start time and its JSON line."""
    budget = DEADLINE_S - (time.monotonic() - started)
    if budget <= 0:
        raise BenchError("out of time before the last run could start")
    t_start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")]
                              + args, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run {args} did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"run {args} exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"run {args} printed nothing")
    data = json.loads(lines[-1])
    if os.path.dirname(os.path.abspath(data["fintop_file"])) != \
            os.path.join(SRC, "fintop"):
        raise BenchError(f"imported fintop from {data['fintop_file']}, "
                         f"not from {SRC}")
    return t_start, data


def measure(workload: str, seed: int, seconds: float, trace: int,
            workdir: str) -> dict:
    started = time.monotonic()
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    setups = []
    runs = []
    cycles = []
    # closed loop with one client: the next run starts when the last ended,
    # unless it would likely end more than half a run past --seconds
    while len(runs) < 1 + trace or (
            time.monotonic() - started
            + statistics.median(cycles) / 2 < seconds):
        t_cycle = time.monotonic()
        for _ in range(SETUP_PROBES):
            t_start, data = spawn(["--setup-only"], env, started)
            setups.append(data["setup_end"] - t_start)
        traced = bool(trace) and len(runs) % 2 == 0
        args = ["--workload", workload, "--seed", str(seed),
                "--trace", str(int(traced)), "--workdir", workdir]
        if traced:
            args += ["--spans", os.path.join(
                OUT, f"spans-{workload}-seed{seed}-run{len(runs)}.json")]
        t_start, data = spawn(args, env, started)
        setups.append(data["setup_end"] - t_start)
        data["traced"] = traced
        runs.append(data)
        cycles.append(time.monotonic() - t_cycle)
    return {"setups": setups, "runs": runs, "numpy": data["numpy"],
            "elapsed_s": time.monotonic() - started}


def summarize(m: dict, trace: int) -> tuple[dict, int, int]:
    runs = m["runs"]
    plain = [r for r in runs if not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if not trace:
        values = {
            "setup_s": statistics.median(m["setups"]),
            "time_to_answer_s": statistics.median(
                r["time_to_answer_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        traced = [r for r in runs if r["traced"]]
        units = traced[0]["units"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["time_to_answer_s"] for r in traced)
            - statistics.median(r["time_to_answer_s"] for r in plain))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return metrics, attempted, failed


def check_declared(metrics: dict, trace: int) -> None:
    """The reported names and units must be those BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        spec = json.load(fh)
    declared = {(m["name"], m["unit"])
                for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {(name, m["unit"]) for name, m in metrics.items()}
    if declared != reported:
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(declared ^ reported)}")


def report(workload: str, seed: int, trace: int, info: dict, m: dict,
           metrics: dict, attempted: int, failed: int) -> None:
    runs = m["runs"]
    print(f"fintop benchmark: workload {workload}, seed {seed}, "
          f"trace {trace}, {len(runs)} runs "
          f"({sum(r['traced'] for r in runs)} traced), "
          f"{len(m['setups'])} set-up samples, {m['elapsed_s']:.1f} s")
    print(f"machine: {info['nproc']} cpus ({info['usable_cpus']} usable), "
          f"{info['cpu_model']}, python {info['python']}, "
          f"numpy {m['numpy']}, load {info['loadavg_at_start']}")
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.6g}")
    for r in runs:
        for line in r["failures"]:
            print(f"FAIL {line}")
    print("time to answer per run (s, * traced): " + ", ".join(
        f"{r['time_to_answer_s']:.3f}{'*' if r['traced'] else ''}"
        for r in runs))
    for name, v in metrics.items():
        print(f"  {name:40s} {v['value']:.6g} {v['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fintop", "__init__.py")):
        print(f"error: no fintop sources under {SRC}", file=sys.stderr)
        return 2
    info = machine()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        m = measure(args.workload, args.seed, args.seconds, args.trace,
                    workdir)
        metrics, attempted, failed = summarize(m, args.trace)
        check_declared(metrics, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report(args.workload, args.seed, args.trace, info, m, metrics,
           attempted, failed)
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, machine=dict(info, numpy=m["numpy"]),
                  setups=m["setups"],
                  runs=[{k: v for k, v in r.items() if k != "units"}
                        for r in m["runs"]])
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
