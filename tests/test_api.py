"""The public names and result fields the benchmark harness binds.

bench/tracer.py wraps every function listed in the ``__all__`` of the seven
layers and reads a few result fields; bench/workload.py calls the entry
points below by name. A stale ``__all__`` entry or a renamed field would
break every traced run, so these checks are cheap and run with the suite.
"""

import importlib

import numpy as np
import pytest

from meandim.trainer import (Dataset, TrainConfig, init_mlp, predict_labels,
                             robustness_flip_count, train_gd)

LAYERS = ("boolfn", "estimator", "rfm", "trainer", "replica", "experiments", "cli")

BOUND = {
    "boolfn": ("walsh_hadamard", "degree_profile", "table_score_fn"),
    "estimator": ("InputSampler", "estimate_md", "estimate_md_binary_fast",
                  "estimate_md_multioutput"),
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
