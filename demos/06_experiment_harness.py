#!/usr/bin/env python3
"""Scripted experiments: flat-text configs in, CSV sweeps and summaries out.

run_experiment drives every protocol in this package from a small
key = value config. Outputs are deterministic for a fixed seed (rerunning
a config at the same worker count reproduces every file byte for byte),
which makes sweeps diffable. Across worker counts the files are equal byte
for byte when OpenBLAS runs one thread (OPENBLAS_NUM_THREADS=1); with more,
the last digits of a large sweep can differ.
"""

import os
import tempfile
import time

from meandim.experiments import load_experiment_config, parse_experiment_config, run_experiment

CONFIG = """
# small double descent sweep, minutes of compute shrunk to seconds
kind = double-descent-rfm
seed = 0
reps = 3
jobs = 2
dim = 30
n_train = 120
n_test = 500
widths = 40 80 120 160 240 360
lam = 1e-4
label_noise_fraction = 0.1
"""

THEORY = """
kind = theory-curve
loss = mse
lam = 1e-4
alpha_t = 3.0
grid_min = 0.1
grid_max = 10.0
grid_points = 15
"""


def show(path, limit=20):
    print(f"--- {os.path.basename(path)}")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    for line in lines[:limit]:
        print("   ", line)
    if len(lines) > limit:
        print(f"    ... ({len(lines) - limit} more lines)")
    print()


start = time.time()

config = parse_experiment_config(CONFIG)
print(f"parsed config: kind = {config.kind}, reps = {config.reps}, jobs = {config.jobs}")

out = tempfile.mkdtemp(prefix="meandim_demo_")
paths = run_experiment(config, out_dir=out)
print(f"wrote {len(paths)} files under {out}:")
for p in paths:
    print("   ", os.path.basename(p))
print()

for p in paths:
    if p.endswith("summary.txt"):
        show(p, limit=30)

# theory curves run through the same front door
theory_paths = run_experiment(parse_experiment_config(THEORY), out_dir=os.path.join(out, "theory"))
show(theory_paths[0], limit=6)

# configs round trip through files, so everything here maps onto the CLI:
#   meandim run config.txt --out results/
cfg_path = os.path.join(out, "config.txt")
with open(cfg_path, "w", encoding="ascii") as fh:
    fh.write(CONFIG)
reloaded = load_experiment_config(cfg_path)
print(f"reloaded from file: kind = {reloaded.kind} (same object contract as the CLI)")
print(f"\n[{time.time() - start:.1f}s]")
