"""Acceptance gate: thirteen protocol-scale checks, one pass/fail line each.

Each test prints a single line naming the criterion, the verdict, the
measured quantity against its tolerance, and the elapsed time against the
runtime budget. The protocols (sizes, grids, seeds) are frozen so every
run measures the same thing.
"""

import dataclasses
import time

import numpy as np

from meandim.boolfn import (degree_profile, exact_md_via_anova, linear_table,
                            majority_table, parity_table, table_score_fn,
                            walsh_hadamard)
from meandim.estimator import InputSampler, estimate_md, estimate_md_binary_fast
from meandim.experiments import parse_experiment_config, run_experiment
from meandim.replica import (ReplicaInput, _FIELDS, free_energy, observables,
                             solve_saddle, sweep_curve)
from meandim.rfm import (Activation, analytic_bmd, compute_kappas, random_rfm,
                         score_fn)
from meandim.trainer import TeacherTask, gen_teacher_student, train_rfm_ridge

TANH = Activation.tanh()
KAPPAS = compute_kappas(TANH)


def check(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"criterion {num:2d}: {verdict} - {detail} "
            f"[{elapsed:.1f}s of {budget:.0f}s budget]")
    print(line)
    assert verdict == "PASS", line


def trained_rfm(D, N, P, lam, seed):
    task = TeacherTask.random(D, seed=seed, input_kind="binary")
    train, test = gen_teacher_student(D, P, 2000, task, seed=seed)
    model = random_rfm(D, N, TANH, seed=seed, kappas=KAPPAS)
    return train_rfm_ridge(model, train, lam, test_ds=test)


def summary_value(path, key):
    """The number after `key = ` on the line of summary.txt that starts so."""
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + " = "):
                return float(line[len(key) + 3:].split()[0])
    raise AssertionError(f"{key!r} not found in {path}")


def test_c01_mc_matches_exact_fourier_md():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    zs = []
    for k in range(20):
        values = rng.standard_normal(1 << 10)
        exact = degree_profile(walsh_hadamard(values)).mean_dimension
        prof = estimate_md_binary_fast(table_score_fn(values), 10,
                                       1_000_000, seed=k)
        zs.append(abs(prof.md - exact) / prof.std_err_md)
    worst = max(zs)
    check(1, worst <= 3.0,
          f"20 random n=10 functions, MC 1e6 vs exact Fourier: "
          f"worst |md_mc - md_exact| = {worst:.2f} std_err (need <= 3)",
          time.monotonic() - t0, 60)


def test_c02_exact_md_reference_values():
    t0 = time.monotonic()
    md_lin = degree_profile(walsh_hadamard(linear_table(10))).mean_dimension
    md_par = {k: degree_profile(walsh_hadamard(
        parity_table(10, (1 << k) - 1))).mean_dimension for k in (2, 5, 10)}
    md_maj = exact_md_via_anova(majority_table(3))
    ok = (md_lin == 1.0
          and all(md_par[k] == float(k) for k in md_par)
          and abs(md_maj - 1.5) <= 1e-9)
    check(2, ok,
          f"linear md = {md_lin}, parity-k md = {md_par}, "
          f"majority3 md = {md_maj!r} (need 1.5 +- 1e-9)",
          time.monotonic() - t0, 5)


def test_c03_closed_form_tracks_mc_bmd():
    t0 = time.monotonic()
    fit = trained_rfm(D=100, N=200, P=300, lam=1e-4, seed=5)
    closed = analytic_bmd(fit.model)
    prof = estimate_md_binary_fast(score_fn(fit.model), 100, 100_000, seed=55)
    rel = abs(closed - prof.md) / prof.md
    check(3, rel < 0.02,
          f"trained tanh RFM D=100 N=200 P=300: closed form {closed:.4f} vs "
          f"MC {prof.md:.4f}, relative gap {rel:.3%} (need < 2%)",
          time.monotonic() - t0, 120)


def test_c04_theory_bmd_asymptote():
    t0 = time.monotonic()
    inp = ReplicaInput(alpha=1e3, lam=1e-4, loss="mse", kappas=KAPPAS,
                       alpha_t=3.0)
    bmd = observables(solve_saddle(inp, tol=1e-11), inp).bmd
    check(4, abs(bmd - 1.1778) <= 1e-3,
          f"tanh theory at alpha=1e3: bmd = {bmd:.6f} (need 1.1778 +- 1e-3)",
          time.monotonic() - t0, 60)


def test_c05_error_and_bmd_peaks_coincide():
    t0 = time.monotonic()
    grid = np.logspace(-1, 1, 21)  # grid[10] == 1.0 exactly
    rows = sweep_curve(KAPPAS, "mse", 1e-4, 3.0, grid)
    i_eps = int(np.argmax([r.eps_g for r in rows]))
    i_bmd = int(np.argmax([r.bmd for r in rows]))
    check(5, i_eps == 10 and i_bmd == 10,
          f"alpha_T=3 lam=1e-4 MSE, 21-pt grid: argmax eps_g at "
          f"1/alpha={grid[i_eps]:.3g}, argmax bmd at 1/alpha={grid[i_bmd]:.3g} "
          f"(need both at 1)",
          time.monotonic() - t0, 600)


def test_c06_regularization_damps_bmd_peak(tmp_path):
    t0 = time.monotonic()
    lams = (1e-4, 1e-2, 1.0)
    cfg = parse_experiment_config(
        "kind = regularization-sweep\nseed = 0\nreps = 10\njobs = 2\n"
        "lams = 1e-4 1e-2 1\nloss = mse\nalpha_t = 4\n"
        "grid_min = 0.1\ngrid_max = 10\ngrid_points = 21\nempirical = true\n"
        "dim = 50\nn_train = 200\nlabel_noise_fraction = 0.1\n"
        "widths = 50 100 150 200 260 340 450 600")
    summary = run_experiment(cfg, out_dir=str(tmp_path / "c06"))[-1]
    theory = [summary_value(summary, f"theory lam={lam:g}: peak bmd") for lam in lams]
    empirical = [summary_value(summary, f"empirical lam={lam:g}: peak bmd")
                 for lam in lams]
    ok = (theory[0] > theory[1] > theory[2]
          and empirical[0] > empirical[1] > empirical[2])
    check(6, ok,
          f"peak bmd over lam {lams}: theory "
          f"{['%.3f' % p for p in theory]}, empirical D=50 P=200 x10 reps "
          f"{['%.3f' % p for p in empirical]} (need both strictly decreasing)",
          time.monotonic() - t0, 1200)


def interior_maxima(curve):
    return [i for i in range(1, len(curve) - 1)
            if curve[i] > curve[i - 1] and curve[i] > curve[i + 1]]


def test_c07_secondary_bmd_peak_at_n_equals_d():
    t0 = time.monotonic()
    # log grid hitting 1/alpha = 1/30 (N=D) at index 10 and 1 (P=N) at 30
    ratio = 30.0 ** (1.0 / 20.0)
    inv = (1.0 / 30.0) * ratio ** np.arange(-10.0, 25.0)
    inv[10], inv[30] = 1.0 / 30.0, 1.0
    peaks = {}
    for lam in (1e-4, 1e-2, 1.0):
        rows = sweep_curve(KAPPAS, "mse", lam, 30.0, inv)
        bmd_ix = interior_maxima([r.bmd for r in rows])
        eps_ix = interior_maxima([r.eps_g for r in rows])
        peaks[lam] = (bmd_ix, eps_ix)
    near = lambda ix, j: any(abs(i - j) <= 1 for i in ix)
    bmd4, eps4 = peaks[1e-4]
    bmd2, _ = peaks[1e-2]
    bmd0, _ = peaks[1.0]
    ok = (near(bmd4, 10) and not near(eps4, 10)  # secondary peak, bmd only
          and near(bmd4, 30)                     # both peaks at weak ridge
          and near(bmd2, 10) and not near(bmd2, 30)  # P=N peak dies first
          and not near(bmd0, 10))                # then the N=D peak
    check(7, ok,
          f"alpha_T=30 bmd interior maxima by lam: 1e-4 {bmd4}, 1e-2 {bmd2}, "
          f"1 {bmd0}; eps_g at 1e-4 {eps4} (N=D is index 10, P=N is 30)",
          time.monotonic() - t0, 900)


def test_c08_sampler_universality(tmp_path):
    t0 = time.monotonic()
    fit = trained_rfm(D=100, N=200, P=300, lam=1e-4, seed=5)
    f = score_fn(fit.model)
    pb = estimate_md_binary_fast(f, 100, 40_000, seed=11)
    pg = estimate_md(f, InputSampler("gaussian", 100), 40_000, seed=12)
    pu = estimate_md(f, InputSampler("uniform", 100), 40_000, seed=13)
    comb_bg = 3 * np.hypot(pb.std_err_md, pg.std_err_md)
    comb_bu = 3 * np.hypot(pb.std_err_md, pu.std_err_md)
    same_bg = abs(pb.md - pg.md) < comb_bg
    diff_bu = abs(pb.md - pu.md) > comb_bu
    # uniform moves the MD level but not the width profile's argmax
    cfg = parse_experiment_config(
        "kind = distribution-comparison\nseed = 2\nreps = 1\njobs = 2\n"
        "dim = 50\nn_train = 200\nlam = 1e-4\nlabel_noise_fraction = 0.1\n"
        "samples = 15000\nwidths = 50 100 150 200 300 450")
    summary = run_experiment(cfg, out_dir=str(tmp_path / "c08"))[-1]
    arg_b = summary_value(summary, "argmax md_binary: width")
    arg_u = summary_value(summary, "argmax md_uniform: width")
    check(8, same_bg and diff_bu and arg_b == arg_u,
          f"binary {pb.md:.3f} vs gaussian {pg.md:.3f} "
          f"(|diff| {abs(pb.md - pg.md):.3f} < {comb_bg:.3f}), uniform "
          f"{pu.md:.3f} differs (> {comb_bu:.3f}); width argmax binary "
          f"{arg_b:g} == uniform {arg_u:g}",
          time.monotonic() - t0, 900)


def test_c09_empirical_double_descent_peak(tmp_path):
    t0 = time.monotonic()
    cfg = parse_experiment_config(
        "kind = double-descent-rfm\nseed = 0\nreps = 10\njobs = 2\n"
        "dim = 100\nn_train = 300\nlam = 1e-4\nlabel_noise_fraction = 0.1\n"
        "widths = 30 60 100 150 200 250 300 350 420 600 900 1200")
    summary = run_experiment(cfg, out_dir=str(tmp_path / "c09"))[-1]
    w_te = summary_value(summary, "argmax test_err: width")
    w_bm = summary_value(summary, "argmax bmd: width")
    ok = 240 <= w_te <= 360 and 240 <= w_bm <= 360
    check(9, ok,
          f"D=100 P=300 10% noise x10 reps: test-error peak at width {w_te:g}, "
          f"bmd peak at {w_bm:g} (need both within 20% of N=P=300)",
          time.monotonic() - t0, 1800)


def test_c10_bmd_anticorrelates_with_flip_robustness(tmp_path):
    t0 = time.monotonic()
    cfg = parse_experiment_config(
        "kind = robustness-sweep\nseed = 0\nreps = 5\njobs = 4\n"
        "dim = 48\nn_train = 400\nwidths = 4 8 16 32 64 128 256")
    paths = run_experiment(cfg, out_dir=str(tmp_path / "c10"))
    corr = summary_value(paths[-1], "corr(bmd, flip_count)")
    check(10, corr < -0.5,
          f"MLP width sweep, 10-class, 5 reps: "
          f"corr(bmd, mean flip count) = {corr:.3f} (need < -0.5)",
          time.monotonic() - t0, 1800)


def test_c11_corrupted_pretraining_raises_bmd_and_error(tmp_path):
    t0 = time.monotonic()
    cfg = parse_experiment_config(
        "kind = adversarial-init\nseed = 0\nreps = 5\njobs = 4\n"
        "dim = 100\nn_train = 1000\nwidth = 1024")
    paths = run_experiment(cfg, out_dir=str(tmp_path / "c11"))
    rho_bmd = summary_value(paths[-1], "spearman(pretrain_epochs, bmd)")
    rho_err = summary_value(paths[-1], "spearman(pretrain_epochs, test_err)")
    check(11, rho_bmd > 0.5 and rho_err > 0.5,
          f"pretrain grid (0,5,20,50), 5 reps: spearman with bmd = "
          f"{rho_bmd:.2f}, with test error = {rho_err:.2f} (need both > 0.5)",
          time.monotonic() - t0, 1800)


def test_c12_self_averaging_variance_shrinks():
    t0 = time.monotonic()
    variances = []
    for D, N in ((64, 128), (128, 256), (256, 512)):
        vals = [analytic_bmd(random_rfm(D, N, TANH, seed=s, kappas=KAPPAS))
                for s in range(30)]
        variances.append(float(np.var(vals, ddof=1)))
    ok = variances[0] > variances[1] > variances[2]
    check(12, ok,
          f"var of analytic bmd over 30 draws: "
          f"{['%.2e' % v for v in variances]} for (D,N) doubling "
          f"(need strictly decreasing)",
          time.monotonic() - t0, 300)


def scaled_fd_gradients(inp, params, h=1e-6):
    """|v dF/dv| per field: centered FD along v -> v(1 + t)."""
    grads = {}
    for name in _FIELDS:
        v = getattr(params, name)
        step = h * abs(v) if abs(v) > 1e-12 else h
        up = dataclasses.replace(params, **{name: v + step})
        dn = dataclasses.replace(params, **{name: v - step})
        grads[name] = (free_energy(up, inp) - free_energy(dn, inp)) / (2 * h)
    return grads


def saddle_audit():
    """Criterion 13's audit: 50 random replica inputs drawn from rng 7, each
    solved at tol 1e-10. Returns the solutions and the worst scaled
    free-energy gradient over all of them (tests/artifact_oracle.py hashes
    both)."""
    rng = np.random.default_rng(7)
    solutions = []
    worst = 0.0
    for _ in range(50):
        alpha = 10 ** rng.uniform(-0.3, 2.0)
        alpha_t = 10 ** rng.uniform(0.0, 1.5)
        lam = 10 ** rng.uniform(-5.0, 0.0)
        loss = str(rng.choice(["mse", "ce"]))
        delta = float(rng.choice([0.0, 10 ** rng.uniform(-2.0, 0.5)]))
        inp = ReplicaInput(alpha=alpha, lam=lam, loss=loss, kappas=KAPPAS,
                           delta=delta, alpha_t=alpha_t)
        sol = solve_saddle(inp, tol=1e-10, max_iter=300_000)
        solutions.append(sol)
        grads = scaled_fd_gradients(inp, sol)
        worst = max(worst, max(abs(g) for g in grads.values()))
    return solutions, worst


def test_c13_saddle_stationarity_gate():
    t0 = time.monotonic()
    _, worst = saddle_audit()
    check(13, worst < 1e-5,
          f"50 random inputs (mse/ce, lam 1e-5..1, noise on/off): worst "
          f"free-energy gradient {worst:.2e} per parameter (need < 1e-5)",
          time.monotonic() - t0, 600)
