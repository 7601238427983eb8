"""Checks of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/test_bench.py -q

Takes a few minutes: every workload runs twice on one seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def run_bench(workload, seed, trace, root=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line[len("record: "):]) for line in lines
                  if line.startswith("record: "))
    return json.loads(lines[-1]), record


def test_benchmark_json_matches_metric_map():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == list(WORKLOADS.items())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == [row[:4] for row in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [row[:3] for row in PER_LAYER]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_counts_and_hashes(workload):
    first_result, first = parse(run_bench(workload, 7, trace=1))
    second_result, second = parse(run_bench(workload, 7, trace=1))
    assert first_result["correct"] and second_result["correct"]
    assert set(first_result["metrics"]) == {row[0] for row in PER_LAYER}
    assert first["hashes"] and first["hashes"] == second["hashes"]
    assert first["counts"] == second["counts"]


def test_rfm_sweep_hashes_do_not_depend_on_jobs(tmp_path):
    code = (
        "import json, sys, workload\n"
        "state = workload.setup_rfm_sweep(3, sys.argv[1])\n"
        "hashes = []\n"
        "for jobs in (1, 2):\n"
        "    log = workload.PassLog()\n"
        "    workload.run_rfm_sweep(state, log, jobs)\n"
        "    assert not log.failures, log.failures\n"
        "    hashes.append(log.hashes)\n"
        "print(json.dumps(hashes))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    at_one, at_two = json.loads(proc.stdout.strip().splitlines()[-1])
    assert at_one and at_one == at_two


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("md-estimate", 1, trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
