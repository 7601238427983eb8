"""One workload process of the meandim benchmark.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                              --work DIR [--setup-only]

``run.py`` starts this file in a fresh interpreter with PYTHONPATH pointing
at the checkout's ``src`` and the BLAS thread count set in the environment.
It builds the workload's inputs from the seed, prints ``ready``, and then
repeats passes over the workload's operations for about S seconds, each
pass checking its outputs against exact or closed-form oracles. With
``--trace 1`` passes alternate between untraced and traced (see
``tracer.py``) and the spans are written to ``--spans`` at the end. The last line of
stdout is a JSON report that ``run.py`` turns into metrics.

An operation fails when it raises or misses its oracle. Known-defect probes
(the ce stall probe, the affine-shift probe) never fail a run: the stall probe
that stalls counts as a known defect, which lowers ``success_rate`` but not
the result line's ``failed``, and the affine probe is a per-layer number.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Experiment worker threads; with one BLAS thread each, at most nproc = 2 in total.
JOBS = {"md-estimate": 1, "theory-curve": 1, "rfm-sweep": 2, "mlp-train": 1}

Z_MAX = 6.0           # Monte Carlo agreement, in std_err_md (10 batch means: t with 9 dof)
FINITE_D_GAP = 0.02   # closed form vs finite-D RFM, as in acceptance criterion 3


def _import_meandim():
    src = os.path.join(ROOT, "src")
    import meandim
    if os.path.dirname(os.path.abspath(meandim.__file__)) != os.path.join(src, "meandim"):
        raise SystemExit(f"meandim imported from {meandim.__file__}, not from {src}")
    from meandim import boolfn, cli, estimator, experiments, replica, rfm, trainer
    return boolfn, cli, estimator, experiments, replica, rfm, trainer


boolfn, cli, estimator, experiments, replica, rfm, trainer = _import_meandim()


class PassLog:
    """Operations, oracle verdicts, artifact hashes and work done in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.hashes = {}
        self.items = 0
        self.artifact_bytes = 0
        self.stdout_bytes = 0
        self.probes = {}
        self.known_defects = 0

    @contextlib.contextmanager
    def op(self, name):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # an operation's failure is a measured outcome
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def digest(self, name, data):
        self.hashes[name] = hashlib.sha256(data).hexdigest()

    def cli(self, argv):
        """Run ``meandim ARGV`` in process; return its stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        self.stdout_bytes += len(out.encode())
        if code != 0:
            raise RuntimeError(f"meandim {argv[0]} exited {code}")
        return out

    def artifacts(self, name, out_dir):
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            self.artifact_bytes += len(data)
            self.digest(f"{name}/{fname}", data)


def check(name, ok, detail):
    """Fail the current operation unless its oracle holds."""
    if not ok:
        raise AssertionError(f"oracle {name} failed: {detail}")


def _summary_field(text, key):
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep and name.strip() == key:
            return float(value)
    raise ValueError(f"{key!r} missing from output")


def _array_bytes(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


# -- md-estimate --------------------------------------------------------------

def setup_md_estimate(seed, work):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    table20 = rng.standard_normal(1 << 20)
    masks = rng.integers(1, 1 << 20, size=8)
    index = np.arange(1 << 20, dtype=np.int64)
    # coefficient oracle: fhat_u = mean of f * chi_u, chi_u = (-1)^popcount(v & u)
    mask_coeffs = np.array([np.mean(table20 * (1.0 - 2.0 * (np.bitwise_count(index & int(u)) & 1)))
                            for u in masks])
    table10 = rng.standard_normal(1 << 10)
    task = trainer.TeacherTask.random(100, seed=seed, input_kind="binary")
    train, _ = trainer.gen_teacher_student(100, 300, 10, task, seed=seed)
    model = rfm.random_rfm(100, 200, rfm.Activation.tanh(), seed=seed)
    fit = trainer.train_rfm_ridge(model, train, 1e-4)
    checkpoint = os.path.join(work, "rfm.ckpt")
    rfm.save_rfm(checkpoint, fit.model)
    return {
        "seed": seed,
        "table20": table20,
        "masks": masks,
        "mask_coeffs": mask_coeffs,
        "orders": np.bitwise_count(index),
        "mean_sq20": float(np.mean(table20 ** 2)),
        "table10": table10,
        "exact10": boolfn.degree_profile(boolfn.walsh_hadamard(table10)).mean_dimension,
        "checkpoint": checkpoint,
        "closed_form": rfm.analytic_bmd(fit.model),
        "mlp": trainer.init_mlp(100, 1024, 10, seed=seed),
    }


MC_TABLE_SAMPLES = 200_000
RFM_SAMPLES = 2_000
MLP_SAMPLES = 1_000


def pass_md_estimate(s, log):
    with log.op("wht"):
        spectrum = boolfn.walsh_hadamard(s["table20"])
        profile = boolfn.degree_profile(spectrum)
        c = spectrum.coeffs
        check("wht-coefficients",
              np.allclose(c[s["masks"]], s["mask_coeffs"], rtol=0, atol=1e-12),
              "coefficients differ from direct character averages")
        check("wht-parseval", abs(float(c @ c) - s["mean_sq20"]) <= 1e-9 * s["mean_sq20"],
              f"sum c^2 = {float(c @ c)!r}, mean f^2 = {s['mean_sq20']!r}")
        energy = c[1:] ** 2
        md = float(s["orders"][1:] @ energy / energy.sum())
        check("degree-profile", abs(profile.mean_dimension - md) <= 1e-9 * md,
              f"md {profile.mean_dimension!r} vs direct {md!r}")
        log.digest("wht", _array_bytes(profile.weights))

    with log.op("mc-table"):
        score = boolfn.table_score_fn(s["table10"])
        prof = estimator.estimate_md_binary_fast(score, 10, MC_TABLE_SAMPLES, s["seed"])
        log.items += MC_TABLE_SAMPLES * 11
        z = abs(prof.md - s["exact10"]) / prof.std_err_md
        check("mc-table-vs-exact", z <= Z_MAX,
              f"md {prof.md!r} vs exact {s['exact10']!r}: {z:.2f} std_err")
        log.digest("mc-table", _array_bytes(prof.tau_sq, [prof.md, prof.std_err_md]))

    for k, sampler in enumerate(("binary", "gaussian")):
        with log.op(f"md-{sampler}"):
            out = log.cli(["md", s["checkpoint"], "--sampler", sampler,
                           "--samples", str(RFM_SAMPLES), "--seed", str(s["seed"] + k)])
            log.items += RFM_SAMPLES * 101
            md, se = _summary_field(out, "md"), _summary_field(out, "std_err_md")
            gap = abs(md - s["closed_form"])
            check(f"md-{sampler}-vs-closed-form",
                  gap <= Z_MAX * se + FINITE_D_GAP * s["closed_form"],
                  f"md {md!r} vs closed form {s['closed_form']!r}, std_err {se!r}")
            log.digest(f"md-{sampler}", out.encode())

    with log.op("mlp-bmd"):
        bmd = trainer.multiclass_bmd(s["mlp"], estimator.InputSampler.binary(100),
                                     MLP_SAMPLES, s["seed"])
        log.items += MLP_SAMPLES * 101
        check("mlp-bmd-range", 0.0 < bmd < 100.0, f"bmd {bmd!r}")
        log.digest("mlp-bmd", repr(bmd).encode())


def probe_md_estimate(s):
    """Relative md gap between f and f + 1e8 on the n=10 table (exactly 0 in theory).

    A shift that leaves no md at all (variance estimate below the floor)
    reads as a gap of 1.
    """
    table = s["table10"]
    md, shifted = [estimator.estimate_md_binary_fast(boolfn.table_score_fn(t), 10, 20_000,
                                                     s["seed"]).md for t in (table, table + 1e8)]
    return {"estimator.affine_md_rel_err": abs((shifted or 0.0) - md) / md}


# -- theory-curve -------------------------------------------------------------

C7_RATIO = 30.0 ** (1.0 / 20.0)   # acceptance criterion 7: N=D at index 10, P=N at 30
PROBE_MAX_ITER = 500


def setup_theory_curve(seed, work):
    # The replica solver is deterministic: these inputs do not depend on the seed.
    kappas = rfm.compute_kappas(rfm.Activation.tanh())
    grid = np.logspace(-1, 1, 21)
    carry = None
    for inv_alpha in grid[:5]:   # warm start the way sweep_curve does
        inp = replica.ReplicaInput(alpha=1.0 / inv_alpha, lam=1e-4, loss="ce",
                                   kappas=kappas, alpha_t=3.0)
        carry = replica.solve_saddle(inp, init=carry)
    probe = replica.ReplicaInput(alpha=1.0 / grid[5], lam=1e-4, loss="ce",
                                 kappas=kappas, alpha_t=3.0)
    c7 = [repr((1.0 / 30.0) * C7_RATIO ** -10), repr((1.0 / 30.0) * C7_RATIO ** 24), "35"]
    curves = []
    for lam in ("1e-4", "1e-2", "1"):
        curves.append((f"mse-a3-{lam}", ["mse", "3", lam, "0.1", "10", "21"]))
    for lam in ("1e-4", "1e-2", "1"):
        curves.append((f"mse-a30-{lam}", ["mse", "30", lam] + c7))
    curves.append(("ce-a3-1e-2", ["ce", "3", "1e-2", "0.1", "10", "11"]))
    argvs = [(name, ["theory", "--loss", loss, "--alpha-t", at, "--lambda", lam,
                     "--grid", lo, hi, n]) for name, (loss, at, lam, lo, hi, n) in curves]
    return {"curves": argvs, "probe": probe, "carry": carry}


LEAK = 0.1


def _leaky_kappas_closed_form(a):
    g = 1.0 / np.sqrt(2.0 * np.pi)
    return {"k0": (1 - a) * g, "k1": (1 + a) / 2, "k2": (1 + a * a) / 2,
            "kbar0": (1 + a) / 2, "kbar1": (1 - a) * g, "kbar2": (1 + a * a) / 2}


def pass_theory_curve(s, log):
    for name, argv in s["curves"]:
        with log.op(name):
            out = log.cli(argv)
            log.digest(name, out.encode())
            rows = [line.split(",") for line in out.splitlines()[1:]]
            converged = [r[-1] == "1" for r in rows]
            log.items += sum(converged)
            check(f"{name}-converged", all(converged),
                  f"{converged.count(False)} of {len(rows)} points did not converge")
            if name == "mse-a3-1e-4":   # acceptance criterion 5
                eps = [float(r[4]) for r in rows]
                bmd = [float(r[7]) for r in rows]
                check("error-and-bmd-peak-at-1", np.argmax(eps) == 10 == np.argmax(bmd),
                      f"argmax eps_g {int(np.argmax(eps))}, bmd {int(np.argmax(bmd))}")

    with log.op("kappas-leaky-relu"):
        k = rfm.compute_kappas(rfm.Activation.from_tag(f"leaky-relu:{LEAK}"))
        want = _leaky_kappas_closed_form(LEAK)
        worst = max(abs(getattr(k, f) - v) for f, v in want.items())
        check("kappas-closed-form", worst <= 1e-8, f"worst moment error {worst:.3g}")
        log.digest("kappas-leaky-relu", _array_bytes([getattr(k, f) for f in want]))

    # Known defect: this point stalls today. The probe is bounded and reports
    # the residual it reached; not converging is its expected outcome.
    with log.op("ce-stall-probe"):
        try:
            replica.solve_saddle(s["probe"], init=s["carry"], max_iter=PROBE_MAX_ITER)
            log.probes["replica.probe_residual"] = 0.0
        except replica.ConvergenceError as exc:
            found = re.search(r"last residual ([^)\s]+)", str(exc))
            log.probes["replica.probe_residual"] = float(found.group(1))
            log.known_defects += 1


# -- rfm-sweep and mlp-train --------------------------------------------------

RFM_WIDTHS = (30, 60, 100, 150, 200, 250, 300, 350, 420, 600, 900, 1200)  # criterion 9
RFM_REPS = 8


def _write_config(work, name, text):
    path = os.path.join(work, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def setup_rfm_sweep(seed, work):
    config = _write_config(work, "double-descent-rfm.cfg", (
        f"kind = double-descent-rfm\nseed = {seed}\nreps = {RFM_REPS}\ndim = 100\n"
        f"n_train = 300\nwidths = {' '.join(map(str, RFM_WIDTHS))}\n"
        "label_noise_fraction = 0.1\nlam = 1e-4\n"))
    return {"config": config, "out": os.path.join(work, "out-rfm"), "jobs": JOBS["rfm-sweep"]}


def run_rfm_sweep(s, log, jobs):
    with log.op("double-descent-rfm"):
        log.cli(["run", s["config"], "--out", s["out"], "--jobs", str(jobs)])
        log.artifacts("double-descent-rfm", s["out"])
        with open(os.path.join(s["out"], "double-descent-rfm.csv"), encoding="ascii") as fh:
            rows = fh.read().splitlines()[1:]
        log.items += len(rows) * RFM_REPS
        with open(os.path.join(s["out"], "summary.txt"), encoding="ascii") as fh:
            summary = fh.read()
        peaks = [int(m) for m in re.findall(r"argmax (?:test_err|bmd): width = (\d+)", summary)]
        check("peaks-near-interpolation",   # acceptance criterion 9: within 20% of N=P=300
              len(peaks) == 2 and all(240 <= w <= 360 for w in peaks), f"peaks {peaks}")


def pass_rfm_sweep(s, log):
    run_rfm_sweep(s, log, s["jobs"])


PRETRAIN_GRID = (0, 2, 5, 10)
FLIP_WIDTHS = (8, 16, 32, 64)


def setup_mlp_train(seed, work):
    adv = _write_config(work, "adversarial-init.cfg", (
        f"kind = adversarial-init\nseed = {seed}\nreps = 1\ndim = 100\nn_train = 1000\n"
        f"width = 1024\npretrain_grid = {' '.join(map(str, PRETRAIN_GRID))}\n"
        "epochs = 5\nmd_samples = 500\n"))
    rob = _write_config(work, "robustness-sweep.cfg", (
        f"kind = robustness-sweep\nseed = {seed}\nreps = 1\ndim = 100\nn_train = 200\n"
        f"widths = {' '.join(map(str, FLIP_WIDTHS))}\nepochs = 40\nmd_samples = 200\n"
        "flip_points = 50\n"))
    return {"adv": adv, "rob": rob, "out": os.path.join(work, "out-mlp")}


def pass_mlp_train(s, log):
    out = s["out"] + "-adv"
    with log.op("adversarial-init"):
        log.cli(["run", s["adv"], "--out", out, "--jobs", "1"])
        log.artifacts("adversarial-init", out)
        log.items += len(PRETRAIN_GRID)
        with open(os.path.join(out, "summary.txt"), encoding="ascii") as fh:
            summary = fh.read()
        rhos = [float(v) for v in re.findall(r"spearman\([^)]*\) = (\S+)", summary)]
        check("spearman-finite", len(rhos) == 2 and all(np.isfinite(rhos)),
              f"spearman values {rhos}")
    out = s["out"] + "-rob"
    with log.op("robustness-sweep"):
        log.cli(["run", s["rob"], "--out", out, "--jobs", "1"])
        log.artifacts("robustness-sweep", out)
        log.items += len(FLIP_WIDTHS)
        with open(os.path.join(out, "robustness-sweep.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()
        col = lines[0].split(",").index("flip_count_mean")
        flips = [float(line.split(",")[col]) for line in lines[1:]]
        check("flip-counts", len(flips) == len(FLIP_WIDTHS)
              and all(1.0 <= f <= 100.0 for f in flips), f"mean flip counts {flips}")


WORKLOADS = {
    "md-estimate": (setup_md_estimate, pass_md_estimate, probe_md_estimate),
    "theory-curve": (setup_theory_curve, pass_theory_curve, None),
    "rfm-sweep": (setup_rfm_sweep, pass_rfm_sweep, None),
    "mlp-train": (setup_mlp_train, pass_mlp_train, None),
}


# -- pass loop ----------------------------------------------------------------

def run_passes(workload, state, seconds, trace, spans_path):
    """Repeat passes for about ``seconds``; with ``trace`` alternate untraced/traced."""
    _, run_pass, probe = WORKLOADS[workload]
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    walls, traced_walls, layer_rows, kept_spans = [], [], [], []
    attempted, known_defects, failures, first, hashes_agree = 0, 0, [], None, True
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(walls) > len(traced_walls)
        log = PassLog()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            run_pass(state, log)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += log.attempted
        known_defects += log.known_defects
        failures += log.failures
        if first is None:
            first = log
        elif log.hashes != first.hashes:
            hashes_agree = False
        if traced:
            traced_walls.append(wall)
            spans, counts, estimates = tracer.take()
            row = tracing.layer_metrics(spans, counts, estimates, JOBS[workload])
            row.update({"experiments.artifact_bytes": log.artifact_bytes,
                        "cli.stdout_bytes": log.stdout_bytes, **log.probes})
            layer_rows.append(row)
            kept_spans.append(spans)
        else:
            walls.append(wall)
        done = bool(walls) and (not trace or bool(traced_walls))
        if done and time.perf_counter() + statistics.median(walls + traced_walls) > deadline:
            break
    attempted += 1  # the cross-pass determinism check
    if not hashes_agree:
        failures.append("determinism: artifact hashes differ between passes")
    report = {
        "walls": walls,
        "items": first.items,
        "attempted": attempted,
        "known_defects": known_defects,
        "failures": failures,
        "hashes": first.hashes,
        "probes": first.probes,
    }
    if trace:
        layers = {k: statistics.median(r[k] for r in layer_rows) for k in layer_rows[0]}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        layers["estimator.affine_md_rel_err"] = 0.0
        if probe is not None:
            layers.update(probe(state))
        layers.setdefault("replica.probe_residual", 0.0)
        report["layers"] = layers
        report["traced_walls"] = traced_walls
        with open(spans_path, "w", encoding="ascii") as fh:
            for n, spans in enumerate(kept_spans):
                for idx, (name, start, end, parent) in enumerate(spans):
                    fh.write(json.dumps({"pass": n, "id": idx, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True, help="working directory for inputs and outputs")
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    state = WORKLOADS[args.workload][0](args.seed, args.work)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    report = run_passes(args.workload, state, args.seconds, args.trace, args.spans)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
