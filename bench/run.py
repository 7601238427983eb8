"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program under test is the checkout's
``src/meandim``; nothing needs building. The run

  1. starts ``workload.py`` five times in fresh interpreters, with
     PYTHONPATH set to ``src`` and the workload's BLAS thread count in the
     environment, and takes ``setup_s`` as the median time from process
     start to the child's ``ready`` (import meandim and generate inputs);
  2. lets the last child run passes for S seconds, checking outputs against
     their oracles;
  3. prints every metric by name and unit, one ``record:`` line with the
     artifact hashes and exact counts, and as the last line one JSON object
     with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from traced passes (``tracer.py``), and the
spans go to ``.bench_build/meandim/spans-<workload>-<seed>.jsonl``.
Workloads, metrics and bounds are listed in ``metrics.py``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import BLAS_THREADS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

SETUPS = 5
DEADLINE_S = 170.0   # a run must end within 180 s


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_child(args, work, extra, deadline):
    """Start workload.py; return (process, seconds from start to ``ready``)."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", work] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready" or time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not get ready (read {line!r})")
    return proc, ready


def finish_child(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return out


def measure(args, work, spans):
    deadline = time.perf_counter() + DEADLINE_S
    setups = []
    for k in range(SETUPS - 1):
        os.makedirs(os.path.join(work, f"setup{k}"))
        proc, ready = start_child(args, os.path.join(work, f"setup{k}"), ["--setup-only"],
                                  deadline)
        finish_child(proc, deadline)
        setups.append(ready)
    extra = ["--spans", spans] if args.trace else []
    proc, ready = start_child(args, work, extra, deadline)
    setups.append(ready)
    out = finish_child(proc, deadline)
    report = json.loads(out.strip().splitlines()[-1])
    report["setups"] = setups
    return report


def metrics_of(args, report):
    if args.trace:
        values = report["layers"]
        return {name: (values[name], unit) for name, unit, *_ in PER_LAYER}
    wall = statistics.median(report["walls"])
    values = {
        "setup_s": statistics.median(report["setups"]),
        "wall_s": wall,
        "items_per_s": report["items"] / wall,
        "success_rate": 1.0 - (len(report["failures"]) + report["known_defects"])
        / report["attempted"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return {name: (values[name], unit) for name, unit, *_ in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description="meandim benchmark: run one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "meandim", "__init__.py")):
        print(f"bench: no meandim package under {ROOT}/src", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".bench_build", "meandim")
    os.makedirs(base, exist_ok=True)
    spans = os.path.join(base, f"spans-{args.workload}-{args.seed}.jsonl")
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        report = measure(args, work, spans)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = metrics_of(args, report)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for failure in report["failures"]:
        print(f"failed: {failure}")
    print(f"known defects shown: {report['known_defects']} of {report['attempted']} operations")
    print(f"passes: {len(report['walls'])} untraced, {len(report.get('traced_walls', []))} traced;"
          f" blas threads {BLAS_THREADS}")
    counts = {k: report["layers"][k] for k in ("estimator.score_evals", "replica.solve.calls",
                                               "experiments.cells", "trainer.epochs")} \
        if args.trace else {}
    print("record: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "hashes": report["hashes"], "counts": counts,
                                   "probes": report["probes"],
                                   "pass_walls": report["walls"],
                                   "traced_pass_walls": report.get("traced_walls", []),
                                   "blas_threads": BLAS_THREADS},
                                  sort_keys=True))
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": len(report["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
