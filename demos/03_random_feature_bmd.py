#!/usr/bin/env python3
"""Random feature models and their closed-form interaction order.

f(x) = sum_j w_j sigma(F_j . x / sqrt(D)). For odd activations the mean
dimension reduces to a two-overlap formula built from gaussian moments of
sigma, so no sampling is needed. The formula is an asymptotic in D; at
D = 100 the Monte Carlo estimate sits within a couple of percent.
"""

import os
import tempfile
import time

import numpy as np

from meandim.estimator import estimate_md_binary_fast
from meandim.rfm import (
    Activation,
    analytic_bmd,
    compute_kappas,
    forward,
    load_rfm,
    random_rfm,
    save_rfm,
    score_fn,
)

start = time.time()

# gaussian moments of each activation: k1 = E[z sigma], k2 = E[sigma^2],
# kbar2 = E[(sigma')^2]. For odd sigma the heavily-sampled limit of the
# mean dimension is exactly kbar2/k2.
print("activation      k1         k2         kbar2      kbar2/k2")
for act in (Activation.tanh(), Activation("linear"), Activation("leaky-relu", 0.1)):
    ks = compute_kappas(act)
    print(f"{act.tag:14s}  {ks.k1:.6f}   {ks.k2:.6f}   {ks.kbar2:.6f}   {ks.kbar2 / ks.k2:.6f}")
print()

# sign has an exact k1 = sqrt(2/pi) but no finite kbar2 (the weak
# derivative is a point mass), so the closed form refuses it
ks_sign = compute_kappas(Activation("sign"))
print(f"sign            {ks_sign.k1:.6f} = sqrt(2/pi) to {abs(ks_sign.k1 - np.sqrt(2 / np.pi)):.1e}, kbar2 = {ks_sign.kbar2}")
print()

# closed form vs Monte Carlo on an actual model
D, N = 100, 200
model = random_rfm(D, N, Activation.tanh(), seed=12)
closed = analytic_bmd(model)

prof = estimate_md_binary_fast(score_fn(model), D, n_samples=30_000, seed=99)
print(f"tanh model, D = {D}, N = {N}, random readout")
print(f"  closed form     bmd = {closed:.5f}")
print(f"  monte carlo     bmd = {prof.md:.5f} +- {prof.std_err_md:.5f}")
print(f"  relative gap    {abs(prof.md - closed) / closed:.2%} (finite-D bias is O(1/D))")
print()

# a linear network is degree one no matter the weights
lin = random_rfm(D, N, Activation("linear"), seed=4)
print(f"linear activation: closed form bmd = {analytic_bmd(lin):.12f} (exactly 1)")
print()

# checkpoints round trip bit for bit
path = os.path.join(tempfile.mkdtemp(prefix="meandim_demo_"), "model.txt")
save_rfm(path, model)
clone = load_rfm(path)
x = np.random.default_rng(0).standard_normal((5, D))
print(f"checkpoint round trip, max output diff = {np.max(np.abs(forward(model, x) - forward(clone, x))):.1e}")

print(f"\n[{time.time() - start:.1f}s]")
