#!/usr/bin/env python3
"""Monte Carlo mean-dimension estimation for black-box score functions.

The exact engines need all 2^n values. The estimator only needs point
evaluations: sample a background, flip one coordinate at a time, and
average the squared response. Works for any input dimension and any
product sampler.
"""

import os
import tempfile
import time

import numpy as np

from meandim.boolfn import majority_table, parity_table, table_score_fn, walsh_hadamard, degree_profile
from meandim.estimator import (
    InputSampler,
    estimate_md,
    estimate_md_binary_fast,
    influence_heatmap,
    profile_summary,
)
from meandim.heatmap_svg import svg_lines
from meandim.textio import write_text


def exact_md(table):
    return degree_profile(walsh_hadamard(table)).mean_dimension


def main():
    n = 10
    rng = np.random.default_rng(3)
    table = rng.standard_normal(1 << n)
    f = table_score_fn(table)

    truth = exact_md(table)
    print(f"random 10-bit table, exact md = {truth:.6f}")
    print()
    print("samples      estimate    std err       z")
    for n_samples in (1_000, 10_000, 100_000):
        prof = estimate_md_binary_fast(f, n, n_samples=n_samples, seed=7)
        z = (prof.md - truth) / prof.std_err_md
        print(f"{n_samples:8d}   {prof.md:9.6f}  {prof.std_err_md:9.6f}  {z:+6.2f}")
    print()

    # the estimator is sampler-generic: same machinery, gaussian inputs
    smooth = lambda x: np.tanh(x @ np.linspace(1.0, 2.0, 6) / np.sqrt(6.0))
    prof_g = estimate_md(smooth, InputSampler("gaussian", 6), n_samples=20_000, seed=1)
    print("tanh of a weighted gaussian sum (6 inputs):")
    print(profile_summary(prof_g))
    print()

    # influence profiles localize structure: parity(3 bits) + weak majority
    mixed = parity_table(9, 0b111) + 0.3 * majority_table(9)
    prof = estimate_md_binary_fast(table_score_fn(mixed), 9, n_samples=40_000, seed=5)
    print("parity on bits 0..2 plus a small majority term, per-coordinate influence:")
    for i, tau_sq in enumerate(prof.tau_sq):
        print(f"  coord {i}: tau^2 = {tau_sq:.4f}")

    grid = influence_heatmap(prof, width=3, height=3)
    out = os.path.join(tempfile.mkdtemp(prefix="meandim_demo_"), "influence.svg")
    write_text(out, svg_lines(grid))
    print(f"wrote {out} (3x3 cells, bright = influential)")


if __name__ == "__main__":
    start = time.time()
    main()
    print(f"\n[{time.time() - start:.1f}s]")
