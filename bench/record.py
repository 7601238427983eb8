"""Run every workload over several seeds and record the results.

    python3 bench/record.py [--runs 10] [--workloads A B ...] [--out bench/baseline.json]

Each seed runs every workload once untraced (``run.py --trace 0``) for the
``run_seconds`` of ``BENCHMARK.json``, the workloads interleaved so that
machine noise spreads over all of them; then each workload runs once traced
on the first seed. For every end-to-end
metric the output gives the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (Q3 - Q1) / median, against the metric's bound.
It also records the per-layer metrics, artifact hashes and exact counts of
the traced run, the machine, and the metric map from ``metrics.py``. Tracing
overhead is given two ways: traced minus untraced passes within the traced
run, and the traced run's median traced pass minus the untraced runs' median
``wall_s``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import BLAS_THREADS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NOISE_NOTE = (
    "On the shared 2-core machine this baseline was taken on, back-to-back "
    "5k-sample RFM estimates in one process ranged 0.87-1.56 s while CPU time "
    "tracked wall time: the noise is the machine, not the program, so timed "
    "sections of a second or two do not repeat within a tenth. The benchmark "
    "reports medians over passes and over five set-ups for that reason, and "
    "its timing bounds are 0.25.")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return json.loads(lines[-1]), record, elapsed


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def machine():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {w: BLAS_THREADS for w in WORKLOADS},
        "git_commit": _git_commit(),
        "note": NOISE_NOTE,
    }


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound, "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the record as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        args.seconds = json.load(fh)["run_seconds"]

    seeds = range(args.first_seed, args.first_seed + args.runs)
    e2e = {w: {name: [] for name, *_ in END_TO_END} for w in args.workloads}
    problems = []
    for seed in seeds:
        for w in args.workloads:
            result, _, elapsed = run_once(w, seed, args.seconds, 0)
            if not result["correct"]:
                problems.append(f"{w} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                e2e[w][name].append(metric["value"])
            print(f"{w} seed {seed}: {elapsed:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    out = {"machine": machine(), "seconds": args.seconds, "seeds": list(seeds),
           "workloads": {}, "problems": problems}
    for w in args.workloads:
        traced, record, _ = run_once(w, seeds[0], args.seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        summary = {name: summarize(e2e[w][name], bound) for name, _, _, bound, _ in END_TO_END}
        out["workloads"][w] = {
            "why": WORKLOADS[w],
            "end_to_end": summary,
            "per_layer": layers,
            "tracing_overhead_s": {
                "same_process": layers["trace.overhead_s"],
                "traced_minus_untraced_runs": statistics.median(record["traced_pass_walls"])
                - summary["wall_s"]["median"],
            },
            "record": record,
        }
        for name, s in summary.items():
            flag = "" if s["spread"] is None or s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{w:13s} {name:13s} median {s['median']:.5g}  spread "
                  f"{s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"  bound {s['bound']}{flag}")
    out["metric_map"] = {
        "end_to_end": {name: {"unit": unit, "better": better, "bound": bound, "what": what}
                       for name, unit, better, bound, what in END_TO_END},
        "per_layer": {name: {"unit": unit, "better": better, "module": module,
                             "moves": moves, "what": what}
                      for name, unit, better, module, moves, what in PER_LAYER},
    }
    for p in problems:
        print("problem:", p)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
