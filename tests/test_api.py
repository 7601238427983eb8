"""The public names and result fields the benchmark harness binds, and
what importing the layers costs.

bench/tracer.py wraps every function listed in the ``__all__`` of the seven
layers and reads a few result fields; bench/workload.py calls the entry
points below by name. A stale ``__all__`` entry or a renamed field would
break every traced run, so these checks are cheap and run with the suite.
The last tests run in fresh interpreters: no path of the package imports
scipy, which the test suite alone needs, and the pool's BLAS thread cap
keeps experiment outputs the same at any --jobs.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from tiny_configs import TINY

from meandim.trainer import (Dataset, TrainConfig, init_mlp, predict_labels,
                             robustness_flip_count, train_gd)

LAYERS = ("boolfn", "estimator", "rfm", "trainer", "replica", "experiments", "cli")

BOUND = {
    "boolfn": ("walsh_hadamard", "degree_profile", "table_score_fn"),
    "estimator": ("InputSampler", "estimate_md", "estimate_md_binary_fast"),
    "rfm": ("Activation", "random_rfm", "save_rfm", "analytic_bmd", "compute_kappas"),
    "trainer": ("TeacherTask", "gen_teacher_student", "train_rfm_ridge", "init_mlp",
                "multiclass_bmd", "train_gd", "robustness_flip_count"),
    "replica": ("ReplicaInput", "solve_saddle", "observables", "ConvergenceError"),
    "experiments": ("run_experiment", "_run_cells"),
    "cli": ("main",),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    module = importlib.import_module(f"meandim.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), f"meandim.{layer}.__all__ lists missing {name!r}"
    for name in BOUND[layer]:
        assert hasattr(module, name), f"meandim.{layer}.{name} is gone"


def test_bound_result_fields():
    rng = np.random.default_rng(0)
    X = rng.choice([-1.0, 1.0], size=(12, 4))
    ds = Dataset(X=X, y=np.where(X[:, 0] > 0, 1.0, -1.0))
    fit = train_gd(init_mlp(4, 3, 1, seed=0), ds, TrainConfig(epochs=2, lr=0.1))
    assert fit.history.shape == (2,) and isinstance(fit.converged, bool)
    flips = robustness_flip_count(lambda x: predict_labels(fit.model, x), ds, seed=0)
    assert flips.n_evaluated == np.sum(predict_labels(fit.model, X) == ds.y)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_fresh(script: str, tmp_path, env=None, **inputs) -> None:
    """Run script in a new interpreter on the package in src/, with the
    variables of env added to its environment and the keyword inputs bound
    as globals; fail with its stderr if it fails."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=SRC)
    code = "".join(f"{k} = {json.dumps(v)}\n" for k, v in inputs.items())
    proc = subprocess.run([sys.executable, "-c", code + textwrap.dedent(script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_no_path_imports_scipy(tmp_path):
    """With every scipy import made to fail, the seven layers import, every
    tiny config runs, the kappas of every activation and a ce saddle come
    out, `meandim md` runs each sampler on a ridge-trained checkpoint and
    `meandim theory` draws the mse and ce curves; no scipy import is even
    attempted."""
    run_fresh("""
        import contextlib, importlib.abc, io, sys
        import numpy as np

        attempts = []

        class NoScipy(importlib.abc.MetaPathFinder):
            def find_spec(self, name, path, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    attempts.append(name)
                    raise AssertionError(f"import of {name}")

        sys.meta_path.insert(0, NoScipy())
        from meandim import boolfn, cli, estimator, experiments, replica, rfm, trainer

        def meandim(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv

        for kind in configs:
            cfg = experiments.parse_experiment_config(configs[kind])
            experiments.run_experiment(cfg, out_dir=kind)
        for tag in ("sign", "leaky-relu:0.1", "linear", "tanh"):
            kappas = rfm.compute_kappas(rfm.Activation.from_tag(tag))
        assert 0.0 < kappas.k_star_sq < kappas.k2  # tanh's
        inp = replica.ReplicaInput(alpha=2.0, lam=1e-2, loss="ce", kappas=kappas, alpha_t=3.0)
        assert 0.0 < replica.observables(replica.solve_saddle(inp), inp).eps_g < 0.5

        task = trainer.TeacherTask.random(6, seed=0)
        train, _ = trainer.gen_teacher_student(6, 30, 10, task, seed=0)
        model = rfm.random_rfm(6, 12, rfm.Activation.tanh(), seed=0)
        fit = trainer.train_rfm_ridge(model, train, lam=1e-2)
        assert np.all(np.isfinite(fit.model.w)) and 0.0 <= fit.train_error <= 1.0
        rfm.save_rfm("model.rfm", fit.model)
        np.savetxt("rows.csv", np.random.default_rng(0).uniform(-1, 1, (30, 6)),
                   delimiter=",")
        for sampler in estimator.SAMPLER_KINDS:
            data = ["--data", "rows.csv"] if sampler == "empirical" else []
            meandim("md", "model.rfm", "--sampler", sampler, "--samples", "200",
                    "--seed", "0", *data)
        for loss in ("mse", "ce"):
            meandim("theory", "--loss", loss, "--alpha-t", "3", "--lambda", "1e-2",
                    "--grid", "0.5", "2", "3")
        assert attempts == [], attempts
        assert not any(k == "scipy" or k.startswith("scipy.") for k in sys.modules)
    """, tmp_path, configs=TINY)


def test_pool_caps_blas_threads_and_restores_them(tmp_path):
    """Inside a pool of 4 cells numpy's OpenBLAS runs max(1, cores // 4)
    threads, or fewer if it was set to fewer; the count comes back
    afterwards, and loading the library imports no scipy module."""
    run_fresh("""
        import os, sys
        import numpy
        from meandim import estimator

        controls = estimator._openblas_thread_controls()
        assert controls or not os.path.isdir(os.path.dirname(numpy.__file__) + ".libs")
        before = [get() for get, _ in controls]
        with estimator._blas_threads(1):
            assert [get() for get, _ in controls] == before
        with estimator._blas_threads(4):
            capped = [get() for get, _ in controls]
        assert capped == [min(b, max(1, os.cpu_count() // 4)) for b in before], capped
        assert [get() for get, _ in controls] == before
        assert not any(k == "scipy" or k.startswith("scipy.") for k in sys.modules)

        # where cores // jobs exceeds a count set lower, the count stays
        os.cpu_count = lambda: 64
        for _, put in controls:
            put(1)
        with estimator._blas_threads(2):
            assert [get() for get, _ in controls] == [1] * len(controls)
    """, tmp_path)


# a config run at --jobs 2 and then 1 in a fresh interpreter, whose ridge
# fits run in two pool threads at once; the two CSVs must hold the same bytes
JOBS_FREE = """
    import sys
    from meandim import experiments

    assert not any(k == "scipy" or k.startswith("scipy.") for k in sys.modules)
    csvs = []
    for jobs in (2, 1):
        cfg = experiments.parse_experiment_config(config)
        paths = experiments.run_experiment(cfg, out_dir=f"jobs{jobs}", jobs=jobs)
        with open(paths[0], "rb") as fh:
            csvs.append(fh.read())
    assert csvs[0] == csvs[1]
"""


def test_jobs_free_at_default_blas_threads(tmp_path):
    run_fresh(JOBS_FREE, tmp_path, config=TINY["double-descent-rfm"])


def test_jobs_free_at_one_blas_thread(tmp_path):
    """With OpenBLAS at one thread, which the pool keeps whatever the core
    count, a double-descent-rfm sweep large enough for multithreaded BLAS to
    sum in another order writes the same CSV bytes at --jobs 1 and 2."""
    run_fresh(JOBS_FREE + """
    from meandim import estimator
    controls = estimator._openblas_thread_controls()
    with estimator._blas_threads(2):
        assert [get() for get, _ in controls] == [1] * len(controls)
""", tmp_path, env={"OPENBLAS_NUM_THREADS": "1"},
              config="kind = double-descent-rfm\ndim = 100\nn_train = 300\n"
                     "widths = 30 100 300 600 1200\nreps = 2\nlabel_noise_fraction = 0.1")


def test_adversarial_init_jobs_free_at_one_blas_thread(tmp_path):
    """The cells of one repetition share its pretraining trajectory, which
    whichever of them comes first runs; at one OpenBLAS thread every file
    holds the same bytes at --jobs 1 and 2."""
    run_fresh("""
        from meandim import experiments

        outs = []
        for jobs in (2, 1):
            cfg = experiments.parse_experiment_config(config)
            paths = experiments.run_experiment(cfg, out_dir=f"jobs{jobs}", jobs=jobs)
            outs.append([open(path, "rb").read() for path in paths])
        assert outs[0] == outs[1]
    """, tmp_path, env={"OPENBLAS_NUM_THREADS": "1"},
              config="kind = adversarial-init\ndim = 6\nn_train = 40\nn_test = 40\n"
                     "width = 8\nn_classes = 3\npretrain_grid = 0 2 3 5\nepochs = 2\n"
                     "md_samples = 150\nreps = 3")
