"""Experiment harness: config parsing, sweep plumbing, SVG output, CLI."""

import os
import re
import signal
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_trainer import corrupt_run
from tiny_configs import TINY

from meandim import replica
from meandim.cli import build_parser, main
from meandim.experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    parse_experiment_config,
    load_experiment_config,
    run_experiment,
    summarize_peaks,
)
from meandim import experiments
from meandim.estimator import _openblas_thread_controls
from meandim.experiments import (_KINDS, _mean, _minmax_dataset, _pearson, _Pretraining,
                                 _run_cells, _shared_sets, _spearman, _std, _sweep_lines)
from meandim.heatmap_svg import CELL_PX, svg_lines
from meandim.replica import CURVE_HEADER
from meandim.rfm import Activation, load_rfm, random_rfm, save_rfm
from meandim.textio import write_text
from meandim.trainer import (Dataset, TeacherTask, TrainConfig, gen_multiclass_task,
                             gen_teacher_student, init_mlp)

# ---------------------------------------------------------------------------
# config parsing


RFM_CONFIG = """
# comment-only lines and blanks are skipped
kind = double-descent-rfm
seed = 7
reps = 2
dim = 8            # trailing comments too
n_train = 24
widths = 4, 8, 16
"""


def test_parse_basic_config():
    cfg = parse_experiment_config(RFM_CONFIG)
    assert cfg.kind == "double-descent-rfm"
    assert cfg.seed == 7 and cfg.reps == 2 and cfg.jobs == 1
    assert cfg.out_dir == "out"
    assert cfg.params["dim"] == 8
    assert cfg.params["widths"] == (4, 8, 16)
    # defaults fill the remaining schema slots
    assert cfg.params["lam"] == 1e-4
    assert cfg.params["input_kind"] == "binary"


def test_parse_rejects_missing_kind():
    with pytest.raises(ValueError, match="'kind' is required"):
        parse_experiment_config("dim = 4")


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown experiment kind"):
        parse_experiment_config("kind = frobnicate")


def test_parse_rejects_unknown_field():
    bad = RFM_CONFIG + "\nnope = 3"
    with pytest.raises(ValueError, match="unknown config field 'nope'"):
        parse_experiment_config(bad)


def test_parse_rejects_missing_required_field():
    with pytest.raises(ValueError, match="'widths' is required"):
        parse_experiment_config("kind = double-descent-rfm\ndim = 8\nn_train = 24")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValueError, match="given twice"):
        parse_experiment_config("kind = theory-curve\nseed = 1\nseed = 2")


def test_parse_rejects_bare_line():
    with pytest.raises(ValueError, match="config line 2"):
        parse_experiment_config("kind = theory-curve\njust words")


def test_parse_error_names_bad_field():
    bad = "kind = double-descent-rfm\ndim = 8\nn_train = 24\nwidths = a,b"
    with pytest.raises(ValueError, match="config field 'widths'"):
        parse_experiment_config(bad)


def test_parse_bool_and_ranges():
    cfg = parse_experiment_config(
        "kind = regularization-sweep\nlams = 1e-4 1e-2\nempirical = yes\n"
        "widths = 4 8")
    assert cfg.params["empirical"] is True
    with pytest.raises(ValueError, match="boolean"):
        parse_experiment_config(
            "kind = regularization-sweep\nlams = 1\nempirical = maybe")
    cfg = parse_experiment_config(
        "kind = normalization-comparison\ndim = 4\nn_train = 8\n"
        "widths = 4\nranges = -1:1 -2:2")
    assert cfg.params["ranges"] == ((-1.0, 1.0), (-2.0, 2.0))
    with pytest.raises(ValueError, match="lo < hi"):
        parse_experiment_config(
            "kind = normalization-comparison\ndim = 4\nn_train = 8\n"
            "widths = 4\nranges = 1:-1")
    with pytest.raises(ValueError, match="not lo:hi"):
        parse_experiment_config(
            "kind = normalization-comparison\ndim = 4\nn_train = 8\n"
            "widths = 4\nranges = 11")


def test_parse_validates_grid_fields():
    with pytest.raises(ValueError, match="grid_points"):
        parse_experiment_config("kind = theory-curve\ngrid_points = 1")
    with pytest.raises(ValueError, match="grid_min"):
        parse_experiment_config(
            "kind = theory-curve\ngrid_min = 5.0\ngrid_max = 2.0")


def test_parse_empirical_needs_widths():
    with pytest.raises(ValueError, match="'widths' is required when"):
        parse_experiment_config(
            "kind = regularization-sweep\nlams = 1e-4\nempirical = true")


def test_config_validates_reps_and_jobs():
    with pytest.raises(ValueError, match="reps"):
        parse_experiment_config("kind = theory-curve\nreps = 0")
    with pytest.raises(ValueError, match="jobs"):
        parse_experiment_config("kind = theory-curve\njobs = 0")
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(kind="nope", seed=0, reps=1, out_dir="out",
                         jobs=1, params={})


def test_load_experiment_config_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(RFM_CONFIG, encoding="ascii")
    cfg = load_experiment_config(path)
    assert cfg == parse_experiment_config(RFM_CONFIG)


def test_load_experiment_config_names_the_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(RFM_CONFIG.replace("dim = 8", "dim = eight"), encoding="ascii")
    with pytest.raises(ValueError, match=r"^.*exp\.cfg: config field 'dim': "):
        load_experiment_config(path)


def test_kinds_and_schemas_agree():
    for kind in EXPERIMENT_KINDS:
        minimal = {"double-descent-rfm": "dim = 4\nn_train = 8\nwidths = 4",
                   "double-descent-mlp": "dim = 4\nn_train = 8\nwidths = 4",
                   "theory-curve": "",
                   "regularization-sweep": "lams = 1e-4",
                   "trainset-size-sweep": "dim = 4\nwidth = 4\nn_trains = 8",
                   "adversarial-init": "dim = 4\nn_train = 8\nwidth = 4",
                   "robustness-sweep": "dim = 4\nn_train = 8\nwidths = 4",
                   "heatmap": "grid_height = 2\ngrid_width = 2\n"
                              "n_feat = 4\nn_train = 8",
                   "distribution-comparison": "dim = 4\nn_train = 8\nwidths = 4",
                   "normalization-comparison": "dim = 4\nn_train = 8\nwidths = 4"}
        cfg = parse_experiment_config(f"kind = {kind}\n" + minimal[kind])
        assert cfg.kind == kind
        # a kind overrides only the defaults of fields it has
        fields, defaults = _KINDS[kind][2:]
        assert set(defaults) <= set(fields.split()), kind


# ---------------------------------------------------------------------------
# metric blocks and peak summaries


def blocks_of(values):
    return {k: np.asarray(v, dtype=float) for k, v in values.items()}


def test_mean_and_std_skip_nan():
    block = np.array([[1.0, 3.0], [2.0, np.nan], [np.nan, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, std = _mean(block), _std(block)
    np.testing.assert_array_equal(mean, [2.0, 2.0, np.nan])
    assert std[0] == pytest.approx(np.std([1.0, 3.0], ddof=1))
    assert np.isnan(std[1]) and np.isnan(std[2])  # fewer than two values


def test_sweep_lines_columns():
    blocks = blocks_of({"test_err": [[0.5, 0.3], [0.2, 0.4]],
                        "bmd": [[1.0, 1.2], [1.1, 1.3]]})
    lines = _sweep_lines("width", (8, 16), blocks)
    assert lines[0] == "width,test_err_mean,test_err_std,bmd_mean,bmd_std"
    cells = lines[1].split(",")
    assert int(cells[0]) == 8
    assert float(cells[1]) == pytest.approx(0.4)
    # one repetition drops the std columns
    single = blocks_of({"bmd": [[1.0], [2.0]]})
    assert _sweep_lines("width", (8, 16), single) == ["width,bmd_mean", "8,1.0", "16,2.0"]


def test_minmax_dataset_maps_columns_onto_range():
    ds = Dataset(X=np.array([[0.0, 10.0], [2.0, 20.0]]), y=np.array([1.0, -1.0]))
    out = _minmax_dataset(ds, -1.0, 1.0)
    assert np.allclose(out.X, [[-1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(out.y, ds.y)


def test_minmax_dataset_constant_column_maps_to_midpoint():
    ds = Dataset(X=np.array([[5.0, 1.0], [5.0, 3.0]]), y=np.ones(2))
    assert np.allclose(_minmax_dataset(ds, -3.0, 3.0).X[:, 0], 0.0)


def test_summarize_peaks_needs_enough_points():
    # below 5 grid points there is no peak summary at all
    assert summarize_peaks("width", (0, 1, 2, 3), {"bmd": np.array([1.0, 2.0, 1.0, 0.0])}) == []


def test_summarize_peaks_rejects_all_nan():
    with pytest.raises(ValueError, match="all-NaN"):
        summarize_peaks("width", tuple(range(5)), {"bmd": np.full(5, np.nan)})


def test_summarize_peaks_locations_and_distance():
    lines = summarize_peaks("width", (4, 8, 16, 32, 64), {
        "test_err": np.array([0.1, 0.2, 0.9, 0.2, 0.1]),
        "bmd": np.array([1.0, 1.1, 1.9, 1.2, 1.0]),
    })
    assert lines[:3] == ["argmax test_err: width = 16 (interior peak)",
                         "argmax bmd: width = 16 (interior peak)",
                         "test_err/bmd peak distance: 0 grid steps"]
    assert len(lines) == 4 and lines[3].startswith("corr(test_err, bmd) = ")
    assert float(lines[3].split(" = ")[1]) == pytest.approx(1.0, abs=1e-2)


def test_summarize_peaks_flags_boundary():
    lines = summarize_peaks("width", tuple(range(5)),
                            {"bmd": np.array([5.0, 4.0, 3.0, 2.0, 1.0])})
    # no test_err metric: no peak distance and no default correlation
    assert lines == ["argmax bmd: width = 0 (boundary, no interior peak)"]


def test_summarize_peaks_nan_tail_is_no_interior_peak():
    # the argmax is the last finite point: nothing past it shows a descent
    lines = summarize_peaks("inv_alpha", tuple(range(5)), {
        "test_err": np.array([0.1, 0.2, 0.3, np.nan, np.nan]),
        "bmd": np.array([np.nan, 2.0, 3.0, 1.0, np.nan]),
    })
    assert lines[:2] == ["argmax test_err: inv_alpha = 2 (boundary, no interior peak)",
                         "argmax bmd: inv_alpha = 2 (interior peak)"]


def test_summarize_peaks_infinite_curve_has_boundary_argmax():
    # a curve that is +inf wherever it is known peaks at its first point
    lines = summarize_peaks("inv_alpha", tuple(range(5)), {
        "test_err": np.array([0.1, 0.3, 0.2, 0.1, 0.1]),
        "bmd": np.array([np.inf, np.inf, np.inf, np.nan, np.inf]),
    })
    assert lines == ["argmax test_err: inv_alpha = 1 (interior peak)",
                     "argmax bmd: inv_alpha = 0 (boundary, no interior peak)",
                     "test_err/bmd peak distance: 1 grid steps",
                     "corr(test_err, bmd) undefined: fewer than 3 finite points"]


def test_summarize_peaks_correlation_pairs():
    curves = {"bmd": np.array([1.0, 2.0, 3.0, 2.5, 2.0]),
              "flip_count": np.array([9.0, 8.0, 7.0, 7.5, 8.0])}
    lines = summarize_peaks("width", tuple(range(5)), curves,
                            pairs=(("bmd", "flip_count"),))
    assert lines[-1].startswith("corr(bmd, flip_count) = ")
    assert float(lines[-1].split(" = ")[1]) < -0.9
    with pytest.raises(ValueError, match="not in sweep metrics"):
        summarize_peaks("width", tuple(range(5)), curves, pairs=(("bmd", "nope"),))
    # two points finite in both curves: the peaks stand, the correlation is undefined
    sparse = {"a": np.array([np.nan] * 3 + [1.0, 2.0]), "b": np.array([1.0, 2.0, 3.0, 2.0, 1.0])}
    assert summarize_peaks("width", tuple(range(5)), sparse, pairs=(("a", "b"),)) == [
        "argmax a: width = 4 (boundary, no interior peak)",
        "argmax b: width = 2 (interior peak)",
        "corr(a, b) undefined: fewer than 3 finite points"]


def test_run_cells_wraps_failures():
    def cell(i, rep):
        if (i, rep) == (1, 0):
            raise ValueError("boom")
        return {"m": 0.0}

    with pytest.raises(RuntimeError, match=r"width=16, rep=0 failed: boom"):
        _run_cells(cell, (8, 16), ("m",), reps=1, jobs=1, coordinate="width")
    with pytest.raises(RuntimeError, match=r"width=16, rep=0 failed: boom"):
        _run_cells(cell, (8, 16), ("m",), reps=1, jobs=3, coordinate="width")
    # with a pool, the first failure cancels the queued cells
    calls = []

    def slow_cell(i, rep):
        calls.append(i)
        if i == 0:
            raise ValueError("boom")
        time.sleep(0.2)
        return {"m": 0.0}

    with pytest.raises(RuntimeError, match=r"width=0, rep=0 failed: boom"):
        _run_cells(slow_cell, tuple(range(20)), ("m",), reps=1, jobs=2, coordinate="width")
    assert len(calls) < 20


def test_run_cells_interrupt_cancels_queued_cells():
    """Ctrl-C while a pool runs: the queued cells never start, the
    KeyboardInterrupt reaches the caller and the BLAS caps are undone."""
    calls = []

    def slow_cell(i, rep):
        calls.append(i)
        time.sleep(0.2)
        return {"m": 0.0}

    before = [get() for get, _ in _openblas_thread_controls()]
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            _run_cells(slow_cell, tuple(range(20)), ("m",), reps=1, jobs=2, coordinate="width")
    finally:
        timer.cancel()
    assert len(calls) < 20  # the 20 cells take 2 s on two threads
    assert [get() for get, _ in _openblas_thread_controls()] == before


def test_run_cells_jobs_do_not_change_values():
    def cell(i, rep):
        return {"m": 100.0 * i + rep}

    a = _run_cells(cell, (1, 2, 3), ("m",), reps=2, jobs=1, coordinate="w")
    b = _run_cells(cell, (1, 2, 3), ("m",), reps=2, jobs=4, coordinate="w")
    np.testing.assert_array_equal(a["m"], [[0.0, 1.0], [100.0, 101.0], [200.0, 201.0]])
    np.testing.assert_array_equal(a["m"], b["m"])


# ---------------------------------------------------------------------------
# SVG rendering


def svg_text(grid, tmp_path):
    path = tmp_path / "grid.svg"
    write_text(path, svg_lines(grid))
    return path.read_text(encoding="ascii")


def test_svg_single_white_cell(tmp_path):
    doc = svg_text([[1.0]], tmp_path)
    assert doc == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="16" height="16" '
        'viewBox="0 0 16 16" shape-rendering="crispEdges">\n'
        '<rect x="0" y="0" width="16" height="16" fill="#ffffff"/>\n'
        "</svg>\n")


def test_svg_grid_layout_and_levels(tmp_path):
    doc = svg_text([[0.0, 0.5], [1.0, 0.25]], tmp_path)
    lines = doc.splitlines()
    assert 'width="32"' in lines[0] and 'height="32"' in lines[0]
    assert lines[1] == '<rect x="0" y="0" width="16" height="16" fill="#000000"/>'
    assert 'x="16" y="0"' in lines[2] and "#808080" in lines[2]  # rint(127.5)=128
    assert 'x="0" y="16"' in lines[3] and "#ffffff" in lines[3]
    assert "#404040" in lines[4]  # round(63.75) = 64
    assert lines[5] == "</svg>"


def test_svg_uniform_grid_single_color(tmp_path):
    doc = svg_text(np.full((3, 4), 0.2), tmp_path)
    rects = [l for l in doc.splitlines() if l.startswith("<rect")]
    assert len(rects) == 12
    fills = {r.split('fill="')[1][:7] for r in rects}
    assert len(fills) == 1


def test_svg_input_validation(tmp_path):
    with pytest.raises(ValueError, match="rectangular"):
        svg_text([[0.1, 0.2], [0.3]], tmp_path)
    with pytest.raises(ValueError, match="2-D"):
        svg_text([0.1, 0.2], tmp_path)
    with pytest.raises(ValueError, match="2-D"):
        svg_text(np.zeros((0, 3)), tmp_path)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        svg_text([[1.5]], tmp_path)
    with pytest.raises(ValueError, match="non-finite"):
        svg_text([[np.nan]], tmp_path)
    assert not (tmp_path / "grid.svg").exists()


def test_svg_lines_are_deterministic():
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    lines = svg_lines(grid)
    assert lines == svg_lines(grid.copy())
    assert len(lines) == 2 * 3 + 2 and lines[-1] == "</svg>"
    assert lines[-2] == f'<rect x="{2 * CELL_PX}" y="{CELL_PX}" width="16" height="16" fill="#ffffff"/>'
    assert CELL_PX == 16


# ---------------------------------------------------------------------------
# end-to-end experiment runs (tiny scale; correctness of shapes and files,
# not of the science, which the acceptance suite covers at real scale)


def read_lines(path):
    with open(path, "r", encoding="ascii") as fh:
        return fh.read().splitlines()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_tiny(kind, tmp_path):
    return run_experiment(parse_experiment_config(TINY[kind]), out_dir=str(tmp_path / "o"))


def test_run_double_descent_rfm(tmp_path):
    csv, summary = run_tiny("double-descent-rfm", tmp_path)
    lines = read_lines(csv)
    assert lines[0].startswith("width,train_err_mean")
    assert len(lines) == 6
    text = "\n".join(read_lines(summary))
    assert "experiment: double-descent-rfm" in text
    assert "argmax bmd" in text and "corr(test_err, bmd)" in text


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_rerun_is_byte_identical_and_jobs_free(kind, tmp_path):
    outs = []
    for name, jobs in (("a", 1), ("b", 4), ("c", 1)):
        cfg = parse_experiment_config(TINY[kind])
        paths = run_experiment(cfg, out_dir=str(tmp_path / name), jobs=jobs)
        outs.append([(os.path.basename(p), read_bytes(p)) for p in paths])
    assert outs[0] == outs[1] == outs[2]
    for name, data in outs[0]:  # ASCII, LF line ends, exactly one trailing newline
        data.decode("ascii")
        assert b"\r" not in data, name
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), name


def test_run_regularization_sweep_theory_and_empirical(tmp_path):
    paths = run_tiny("regularization-sweep", tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["empirical_lam_0.0001.csv", "empirical_lam_1.csv",
                     "summary.txt", "theory_lam_0.0001.csv", "theory_lam_1.csv"]
    text = "\n".join(read_lines(paths[-1]))
    assert "theory lam=0.0001: peak bmd" in text
    assert "empirical lam=1: peak bmd" in text


def test_run_trainset_size_sweep(tmp_path):
    csv, summary = run_tiny("trainset-size-sweep", tmp_path)
    lines = read_lines(csv)
    assert lines[0].startswith("n_train,")
    assert len(lines) == 4


def test_run_double_descent_mlp_binary(tmp_path):
    csv, summary = run_tiny("double-descent-mlp", tmp_path)
    lines = read_lines(csv)
    assert len(lines) == 3
    vals = [float(v) for v in lines[1].split(",")[1:]]
    assert all(np.isfinite(vals))


def test_pretraining_cells_past_a_divergence_fail_as_their_own_runs():
    """A trajectory that diverges at epoch 6 still serves the cells at 3
    and 6 epochs; the cells at 7 and 10 raise the error of their own runs."""
    net = init_mlp(6, 5, 1, seed=17)
    ds, _ = gen_teacher_student(6, 30, 10, TeacherTask.random(6, seed=18), seed=19)
    cfg = TrainConfig(lr=2.0, epochs=1)
    shared = _Pretraining((0, 3, 6, 7, 10))
    assert shared.take(0, net, ds, cfg) is net
    for k in (10, 3, 7, 6):  # the first cell to arrive runs past the divergence
        if k <= 6:
            start = shared.take(k, net, ds, cfg)
            alone = corrupt_run(net, ds, k, cfg)
            assert np.array_equal(start.W1, alone.model.W1)
            assert np.array_equal(start.b2, alone.model.b2)
            continue
        with pytest.raises(RuntimeError) as shared_exc:
            shared.take(k, net, ds, cfg)
        with pytest.raises(RuntimeError) as alone_exc:
            corrupt_run(net, ds, k, cfg)
        assert str(shared_exc.value) == str(alone_exc.value)
        assert str(alone_exc.value).startswith("training diverged at epoch 6 ")


def test_pretraining_runs_once_under_contending_threads(monkeypatch):
    """Eight threads, more than the cores, take the grid points of one rep
    at once under a short switch interval: the trajectory runs once and
    each thread gets its own epoch's network."""
    calls = []
    real = experiments._pretrain

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(experiments, "_pretrain", counted)
    ds, _ = gen_multiclass_task(4, 20, 5, 3, seed=1)
    net = init_mlp(4, 6, 3, seed=2)
    cfg = TrainConfig(loss="ce", optimizer="minibatch-gd", batch_size=8, lr=1e-2,
                      epochs=1, seed=3)
    grid = tuple(range(8))
    shared = _Pretraining(grid)
    got = {}

    def take(k):
        got[k] = shared.take(k, net, ds, cfg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take, args=(k,)) for k in grid]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1 and sorted(got) == list(grid)
    for k in grid:
        assert np.array_equal(got[k].W1, corrupt_run(net, ds, k, cfg).model.W1)


def test_shared_sets_draw_each_rep_once_and_read_only():
    """Each rep's sets are drawn once, from seed + rep, and their arrays are
    read-only: a cell that writes into shared data raises."""
    built = []

    def build(seed):
        built.append(seed)
        task = TeacherTask.random(4, seed=seed)
        return gen_teacher_student(4, 10, 5, task, seed=seed)

    cfg = replace(parse_experiment_config(TINY["double-descent-rfm"]), seed=10, reps=3)
    sets = _shared_sets(build, cfg)
    assert built == [10, 11, 12] and len(sets) == 3
    for train, test in sets:
        for a in (train.X, train.y, train.y_clean, test.X, test.y):
            assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        sets[0][0].X[0, 0] = 1.0


# data draws per repetition of each tiny sweep: one per run, except one per
# range (normalization-comparison) and one per cell where the swept n_train
# changes the data (trainset-size-sweep)
_DRAWS_PER_REP = {"double-descent-rfm": 1, "double-descent-mlp": 1, "regularization-sweep": 1,
                  "adversarial-init": 1, "robustness-sweep": 1, "distribution-comparison": 1,
                  "normalization-comparison": 2, "trainset-size-sweep": 3}


@pytest.mark.parametrize("kind", sorted(_DRAWS_PER_REP))
def test_sweep_cells_of_a_rep_share_its_data(kind, monkeypatch, tmp_path):
    """Counted at the generators the experiments module calls, at three
    reps: a rep's data are drawn once, from its own seed, however many
    cells use them, and at jobs 2, where two cells read the shared
    read-only data at once, the files equal those of jobs 1."""
    draws = []
    for name in ("gen_teacher_student", "gen_multiclass_task"):
        def counted(*args, _real=getattr(experiments, name), **kwargs):
            draws.append(kwargs["seed"])
            return _real(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    cfg = replace(parse_experiment_config(TINY[kind]), reps=3)
    outs = []
    for jobs in (1, 2):
        draws.clear()
        paths = run_experiment(cfg, out_dir=str(tmp_path / f"j{jobs}"), jobs=jobs)
        assert sorted(draws) == sorted(cfg.seed + rep for rep in range(3)
                                       for _ in range(_DRAWS_PER_REP[kind])), jobs
        outs.append([(os.path.basename(p), read_bytes(p)) for p in paths])
    assert outs[0] == outs[1]


def test_run_adversarial_init_tiny(tmp_path):
    csv, summary = run_tiny("adversarial-init", tmp_path)
    lines = read_lines(csv)
    assert lines[0].startswith("pretrain_epochs,")
    assert len(lines) == 3
    text = "\n".join(read_lines(summary))
    assert "spearman(pretrain_epochs, bmd)" in text
    assert "spearman(pretrain_epochs, test_err)" in text


def test_run_robustness_sweep_tiny(tmp_path):
    csv, summary = run_tiny("robustness-sweep", tmp_path)
    header = read_lines(csv)[0]
    assert "flip_count_mean" in header and "bmd_mean" in header


def test_run_heatmap(tmp_path):
    svg, csv, summary = run_tiny("heatmap", tmp_path)
    doc = read_bytes(svg).decode("ascii")
    assert doc.startswith("<svg ") and doc.count("<rect") == 16
    assert read_lines(csv)[0] == "i,tau_sq"
    text = "\n".join(read_lines(summary))
    assert "influence mass on the support" in text
    # teacher lives on a centered block; the trained student should put
    # most of its influence there even at this tiny scale
    mass = float(text.split("influence mass on the support: ")[1].split()[0])
    assert mass > 0.3


def test_run_distribution_comparison(tmp_path):
    csv, summary = run_tiny("distribution-comparison", tmp_path)
    header = read_lines(csv)[0]
    for col in ("md_binary_mean", "md_gaussian_mean", "md_uniform_mean"):
        assert col in header
    text = "\n".join(read_lines(summary))
    assert "argmax md_binary" in text


def test_run_normalization_comparison(tmp_path):
    paths = run_tiny("normalization-comparison", tmp_path)
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["range_-1_1.csv", "range_-3_3.csv", "summary.txt"]
    text = "\n".join(read_lines(paths[-1]))
    assert "range [-1, 1]: argmax bmd" in text


# ---------------------------------------------------------------------------
# command line


def test_parser_prog_and_subcommands():
    parser = build_parser()
    assert parser.prog == "meandim"
    args = parser.parse_args(["theory", "--loss", "mse", "--alpha-t", "3",
                              "--lambda", "0.1", "--grid", "0.5", "2", "5"])
    assert args.lam == 0.1 and args.alpha_t == 3.0


def test_cli_run_executes_config(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "kind = theory-curve\ngrid_min = 0.5\ngrid_max = 2.0\ngrid_points = 4\n",
        encoding="ascii")
    code = main(["run", str(cfg_file), "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert all(os.path.exists(p) for p in printed)


def test_cli_run_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "meandim run:" in capsys.readouterr().err


RANK_DEFICIENT = (r"failed: rank-deficient system at lam=0 \(condition number "
                  r"[0-9.e+]+\); add ridge regularization")


@pytest.mark.parametrize("config,cause", [
    (TINY["double-descent-rfm"] + "\nlam = 0\n", "width=24, rep=0 " + RANK_DEFICIENT),
    (TINY["double-descent-mlp"] + "\nlr = 1e6\n",
     r"width=4, rep=0 failed: training diverged at epoch 1 \(loss [0-9.]+\); "
     r"lower the learning rate"),
    # the theory curves and the lam = 1e-4 sweep succeed before the failing cell
    (TINY["regularization-sweep"].replace("lams = 1e-4 1", "lams = 1e-4 0")
     .replace("widths = 4 8", "widths = 4 32"), "width=32, rep=0 " + RANK_DEFICIENT),
], ids=["lam=0", "lr=1e6", "regularization-sweep-lam=0"])
def test_cli_run_failed_cell_exits_1_with_one_line(config, cause, tmp_path, capsys):
    """A config that parses but whose cell fails: one stderr line, exit 1,
    and no output directory."""
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(config, encoding="ascii")
    code = main(["run", str(cfg_file), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert re.fullmatch(f"meandim run: experiment cell {cause}\n", captured.err), captured.err
    assert not (tmp_path / "o").exists()


def test_cli_run_bad_config_exits_2(tmp_path, capsys):
    rfm = "kind = double-descent-rfm\ndim = 4\nn_train = 8\nwidths = 4\n"
    mlp = "kind = double-descent-mlp\ndim = 4\nn_train = 8\nwidths = 4\n"
    adv = "kind = adversarial-init\ndim = 4\nn_train = 8\nwidth = 4\n"
    rob = "kind = robustness-sweep\ndim = 4\nn_train = 8\nwidths = 4\n"
    cfg_file = tmp_path / "exp.cfg"
    cases = [
        ("kind = frobnicate\n", "unknown experiment kind"),
        (rfm + "input_kind = foo\n", "'input_kind': expected one of binary, gaussian"),
        (adv + "input_kind = foo\n", "'input_kind': expected one of binary, gaussian"),
        (mlp + "optimizer = sgdx\n", "'optimizer': expected one of"),
        (mlp + "optimizer = closed-form-ridge\n", "'optimizer': expected one of"),
        (mlp + "loss = hinge\n", "'loss': expected one of mse, ce"),
        (rfm + "activation = relu\n", "unknown activation tag 'relu'"),
        (rfm + "activation = sign\n", "closed-form BMD diverges for sign"),
        ("kind = trainset-size-sweep\ndim = 4\nwidth = 4\nn_trains = 8\n"
         "activation = sign\n", "closed-form BMD diverges for sign"),
        ("kind = regularization-sweep\nlams = 1\nempirical = true\nwidths = 4\n"
         "activation = sign\n", "closed-form BMD diverges for sign"),
        # multiclass MLPs always train with cross-entropy
        (adv + "loss = ce\n", "unknown config field 'loss'"),
        (rob + "loss = mse\n", "unknown config field 'loss'"),
        (mlp + "n_classes = 3\nloss = mse\n", "the loss must be ce"),
        (rfm + "# width in \u00b5units\n", f"{cfg_file}: not ASCII text"),
        # out-of-range values fail at parse time, before any cell runs
        (rfm.replace("dim = 4", "dim = 0"), "'dim': expected a finite value >= 1"),
        (rfm.replace("n_train = 8", "n_train = -5"), "'n_train': expected a finite value >= 1"),
        (rfm + "n_test = 0\n", "'n_test': expected a finite value >= 1"),
        (rfm.replace("widths = 4", "widths = 0 5"), "'widths': expected a finite value >= 1"),
        # sweep grids are strictly increasing: a repeated cell would run twice
        (rfm.replace("widths = 4", "widths = 4 8 8 24"),
         "'widths': expected a strictly increasing list, got '4 8 8 24'"),
        (mlp.replace("widths = 4", "widths = 8, 4"), "'widths': expected a strictly increasing"),
        ("kind = trainset-size-sweep\ndim = 4\nwidth = 4\nn_trains = 20 10\n",
         "'n_trains': expected a strictly increasing"),
        (adv + "pretrain_grid = 0 5 5\n", "'pretrain_grid': expected a strictly increasing"),
        (adv + "pretrain_grid = -3 0\n", "'pretrain_grid': expected a finite value >= 0"),
        # values that name files alike would write one file over the other
        ("kind = regularization-sweep\nlams = 1e-4 1 1.000001e-4\n",
         "'lams': '1e-4' and '1.000001e-4' both name their files by '0.0001'"),
        ("kind = regularization-sweep\nlams = 1, 1\n", "'1' and '1' both name their files"),
        ("kind = normalization-comparison\ndim = 4\nn_train = 8\nwidths = 4\n"
         "ranges = -1:1 -3:3 -1.0000001:1\n",
         "'ranges': '-1:1' and '-1.0000001:1' both name their files by '-1_1'"),
        (rfm + "lam = -1\n", "'lam': expected a finite value >= 0"),
        (rfm + "label_noise_fraction = 2\n",
         "'label_noise_fraction': expected a finite value in [0, 1]"),
        (mlp + "batch_size = 0\n", "'batch_size': expected a finite value >= 1"),
        (mlp + "md_samples = 99\n", "'md_samples': expected a finite value >= 100"),
        (adv + "n_classes = 1\n", "'n_classes': expected a finite value >= 2"),
        (rob + "lr = nan\n", "'lr': expected a finite value > 0"),
        ("kind = heatmap\ngrid_height = 2\ngrid_width = 2\nn_feat = 4\nn_train = 10\n"
         "support_fraction = -1\n", "'support_fraction': expected a finite value in (0, 1]"),
        ("kind = theory-curve\nalpha_t = 0\n", "'alpha_t': expected a finite value > 0"),
        ("kind = theory-curve\ndelta = nan\n", "'delta': expected a finite value >= 0"),
        # the replica input at the grid's ends checks the theory values together
        ("kind = theory-curve\nalpha_t = 1e150\n",
         "config fields 'activation', 'alpha_t', 'grid_min', 'grid_max': alpha ratios "
         "must be positive and finite, and alpha_t at most 1e+100"),
        ("kind = theory-curve\nalpha_t = 1e-320\n", "'grid_max': alpha ratios must be"),
        ("kind = regularization-sweep\nlams = 1\nactivation = linear\n",
         "'grid_max': replica equations need k_star_sq > 0"),
        ("kind = regularization-sweep\nlams = 1 -1\n", "'lams': expected a finite value >= 0"),
        (rfm + "seed = -1\n", "'seed': expected a finite value >= 0"),
        ("kind = normalization-comparison\ndim = 4\nn_train = 8\nwidths = 4\n"
         "ranges = -inf:1\n", "'ranges': expected a finite value, got '-inf'"),
    ]
    for text, message in cases:
        cfg_file.write_bytes(text.encode("utf-8"))
        assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith(f"meandim run: {cfg_file}: ") and message in err, err
    assert not (tmp_path / "o").exists()
    # the replica curve is defined for sign: its BMD is simply infinite
    parse_experiment_config("kind = regularization-sweep\nlams = 1\nactivation = sign")


def test_cli_run_theory_curve_for_sign(tmp_path, capsys):
    """The sign replica curve has an infinite BMD at every point: the run
    succeeds, and the BMD argmax is its first point, on the boundary."""
    cfg_file = tmp_path / "sign.cfg"
    cfg_file.write_text(TINY["theory-curve"] + "\nactivation = sign\n")
    assert main(["run", str(cfg_file), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    summary = read_lines(tmp_path / "o" / "summary.txt")
    assert "argmax bmd: inv_alpha = 0.5 (boundary, no interior peak)" in summary
    assert "corr(test_err, bmd) undefined: fewer than 3 finite points" in summary


def checkpoint(tmp_path, D=6, N=10):
    model = random_rfm(D, N, Activation.tanh(), seed=5)
    path = tmp_path / "model.rfm"
    save_rfm(path, model)
    return str(path)


def test_cli_md_binary(tmp_path, capsys):
    path = checkpoint(tmp_path)
    profile_out = tmp_path / "prof.csv"
    code = main(["md", path, "--sampler", "binary", "--samples", "400",
                 "--seed", "2", "--profile-out", str(profile_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("md = ")
    assert "std_err_md = " in out and "n_samples = 400" in out
    assert read_lines(profile_out)[0] == "i,tau_sq"


def test_cli_md_gaussian_sampler(tmp_path, capsys):
    code = main(["md", checkpoint(tmp_path), "--sampler", "gaussian",
                 "--samples", "300", "--seed", "4"])
    assert code == 0
    assert capsys.readouterr().out.startswith("md = ")


def test_cli_md_empirical_requires_data(tmp_path, capsys):
    code = main(["md", checkpoint(tmp_path), "--sampler", "empirical",
                 "--samples", "100", "--seed", "1"])
    assert code == 2
    assert "requires --data" in capsys.readouterr().err


def test_cli_md_empirical_checks_columns(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    np.savetxt(data, np.random.default_rng(0).uniform(-1, 1, (30, 4)),
               delimiter=",")
    code = main(["md", checkpoint(tmp_path, D=6), "--sampler", "empirical",
                 "--samples", "100", "--seed", "1", "--data", str(data)])
    assert code == 2
    assert "columns" in capsys.readouterr().err


def test_cli_md_empirical_runs(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    np.savetxt(data, np.random.default_rng(0).uniform(-1, 1, (30, 6)),
               delimiter=",")
    code = main(["md", checkpoint(tmp_path, D=6), "--sampler", "empirical",
                 "--samples", "200", "--seed", "1", "--data", str(data)])
    assert code == 0


def test_cli_md_bad_data_names_the_file(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    for content, message in ((b"1,2,3,4,5,6\n1,2,x,4,5,6\n", "could not convert string 'x'"),
                             (b"1,2,3,4,5,6\n\xff\n", "not ASCII text (byte 0xff"),
                             (b"", "no data rows"), (b"\n  \n", "no data rows"),
                             (b"# x0,x1,x2,x3,x4,x5\n", "no data rows")):
        data.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns on an empty file
            code = main(["md", checkpoint(tmp_path, D=6), "--sampler", "empirical",
                         "--samples", "100", "--seed", "1", "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"meandim md: {data}: ") and message in err, err


def test_cli_md_bad_checkpoint_exits_2(tmp_path, capsys):
    bad = tmp_path / "junk.rfm"
    bad.write_text("not a checkpoint\n", encoding="ascii")
    assert main(["md", str(bad), "--sampler", "binary", "--samples", "10",
                 "--seed", "0"]) == 2
    lines = read_lines(checkpoint(tmp_path))
    for keep in (3, 7):  # cut inside the header, then inside the F block
        bad.write_text("\n".join(lines[:keep]) + "\n", encoding="ascii")
        assert main(["md", str(bad), "--sampler", "binary", "--samples", "10",
                     "--seed", "0"]) == 2
        assert f"{bad}: malformed checkpoint" in capsys.readouterr().err
    # header keys are checked, not just their positions
    for header, key in (([lines[2], lines[1]], "'D = ...' on line 2"),
                        (["Q = 6", lines[2]], "'D = ...' on line 2"),
                        ([lines[1], "D = 10"], "'N = ...' on line 3")):
        bad.write_text("\n".join(lines[:1] + header + lines[3:]) + "\n", encoding="ascii")
        assert main(["md", str(bad), "--sampler", "binary", "--samples", "10",
                     "--seed", "0"]) == 2
        assert f"{bad}: malformed checkpoint, expected {key}" in capsys.readouterr().err
    # a checkpoint that is well formed but holds no features, or a NaN weight
    empty = lines[:2] + ["N = 0"] + lines[3:5] + [""] * 6 + ["w =", ""]
    nan_weight = lines[:-1] + [" ".join(["nan"] + lines[-1].split()[1:])]
    for text, message in ((empty, "D and N must be >= 1, got D = 6, N = 0"),
                          (nan_weight, "F and w must be finite")):
        bad.write_text("\n".join(text) + "\n", encoding="ascii")
        assert main(["md", str(bad), "--sampler", "binary", "--samples", "10",
                     "--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"meandim md: {bad}: malformed checkpoint, {message}\n", err
    data = read_bytes(checkpoint(tmp_path))
    bad.write_bytes(data[:15] + b"\xff" + data[16:])
    assert main(["md", str(bad), "--sampler", "binary", "--samples", "10",
                 "--seed", "0"]) == 2
    assert f"{bad}: not ASCII text" in capsys.readouterr().err


THEORY_ARGV = ["theory", "--loss", "mse", "--alpha-t", "3", "--lambda", "1e-4",
               "--grid", "0.5", "2", "3"]
# (command, flags, non-finite --data cell); a repeated flag overrides the
# one in the base command line, and empirical runs read a 30 x 6 --data file
BAD_FRONT_DOOR_INPUTS = [
    ("theory", ["--lambda", "nan"], None),
    ("theory", ["--lambda", "inf"], None),
    ("theory", ["--delta", "nan"], None),
    ("theory", ["--delta", "inf"], None),
    ("theory", ["--alpha-t", "1e-320"], None),  # alpha / alpha_t overflows
    ("theory", ["--alpha-t", "1e308"], None),  # 2 alpha_t overflows
    ("theory", ["--alpha-t", "1e150"], None),  # alpha_t^3 overflows in the proposal
    ("theory", ["--grid", "1e-320", "2", "3"], None),  # 1 / LO overflows
    ("theory", ["--grid", "0.5", "inf", "3"], None),
    ("md", ["--sampler", "uniform", "--hi", "inf"], None),
    ("md", ["--sampler", "uniform", "--lo=-inf"], None),
    ("md", ["--sampler", "uniform", "--lo=-1e308", "--hi=1e308"], None),
    ("md", ["--sampler", "empirical", "--hi", "inf"], None),
    ("md", ["--sampler", "empirical", "--lo=-inf"], None),
    ("md", ["--sampler", "empirical", "--lo=-1e308", "--hi=1e308"], None),
    ("md", ["--sampler", "empirical"], "nan"),
    ("md", ["--sampler", "empirical"], "inf"),
]


@pytest.mark.parametrize("command,flags,cell", BAD_FRONT_DOOR_INPUTS,
                         ids=[" ".join(flags) + (f" cell={cell}" if cell else "")
                              for _, flags, cell in BAD_FRONT_DOOR_INPUTS])
def test_cli_bad_values_exit_2_with_one_line(command, flags, cell, tmp_path, capsys):
    """Each value is checked by the type that owns it, so a bad one exits 2
    with one stderr line: no traceback, no NaN curve, nothing on stdout."""
    if command == "theory":
        argv = THEORY_ARGV + flags
    else:
        argv = ["md", checkpoint(tmp_path, D=6), "--samples", "200", "--seed", "1"] + flags
    if "empirical" in flags:
        rows = np.random.default_rng(0).uniform(-1, 1, (30, 6))
        if cell is not None:
            rows[4, 2] = float(cell)
        data = tmp_path / "rows.csv"
        np.savetxt(data, rows, delimiter=",")
        argv += ["--data", str(data)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a second line
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith(f"meandim {command}: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["md", "theory"])
@pytest.mark.parametrize("bad", ["directory", "missing-parent"])
def test_cli_unwritable_output_exits_2_with_nothing_on_stdout(command, bad, tmp_path,
                                                             capsys):
    """The output file is written before stdout, so a path that cannot be
    written leaves stdout empty."""
    path = tmp_path if bad == "directory" else tmp_path / "no-such-dir" / "out.csv"
    if command == "theory":
        argv = THEORY_ARGV + ["--out", str(path)]
    else:
        argv = ["md", checkpoint(tmp_path, D=6), "--sampler", "binary", "--samples", "200",
                "--seed", "1", "--profile-out", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith(f"meandim {command}: ") and str(path) in captured.err


def test_cli_theory_partial_curve_to_unwritable_path_exits_2_with_one_line(
        monkeypatch, tmp_path, capsys):
    """The --out file is written before the count of points that did not
    converge is reported, so a bad path gives its error line alone."""
    solve = replica.solve_saddle

    def stalls_at_2(inp, init=None):
        if 1.0 / inp.alpha == 2.0:
            raise replica.ConvergenceError("stalled")
        return solve(inp, init=init)

    monkeypatch.setattr(replica, "solve_saddle", stalls_at_2)
    code = main(THEORY_ARGV + ["--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith("meandim theory: ") and str(tmp_path) in captured.err


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789.-+e=#:, \n"))


def _loads_or_names_path(load, path, data: bytes) -> bool:
    """Write data to path and load it: True if it loads, False if the
    ValueError it raises starts with the path; anything else fails."""
    path.write_bytes(data)
    try:
        load(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
        return False
    return True


def _garble(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, byte in edits:
        out[pos % len(out)] = byte
    return bytes(out)


class TestReadersNameThePath:
    """A truncated or garbled checkpoint or config either still loads or
    raises ValueError naming the file, never another exception."""

    CONFIG = (TINY["adversarial-init"] + "\n").encode("ascii")

    @_FUZZ
    @given(data=st.data())
    def test_truncated_checkpoint(self, tmp_path, data):
        good = read_bytes(checkpoint(tmp_path))
        cut = data.draw(st.integers(0, len(good) - 1))
        loaded = _loads_or_names_path(load_rfm, tmp_path / "cut.rfm", good[:cut])
        # cut before the weight line starts: the file ends early
        assert not loaded or cut > good.rstrip(b"\n").rfind(b"\n")

    @_FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), _BYTE), min_size=1, max_size=4))
    def test_garbled_checkpoint(self, tmp_path, edits):
        good = read_bytes(checkpoint(tmp_path))
        _loads_or_names_path(load_rfm, tmp_path / "bad.rfm", _garble(good, edits))

    @_FUZZ
    @given(data=st.data())
    def test_truncated_config(self, tmp_path, data):
        cut = data.draw(st.integers(0, len(self.CONFIG) - 1))
        _loads_or_names_path(load_experiment_config, tmp_path / "cut.cfg", self.CONFIG[:cut])

    @_FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 10**6), _BYTE), min_size=1, max_size=4))
    def test_garbled_config(self, tmp_path, edits):
        _loads_or_names_path(load_experiment_config, tmp_path / "bad.cfg",
                             _garble(self.CONFIG, edits))


def test_cli_theory_prints_curve(tmp_path, capsys):
    out_csv = tmp_path / "curve.csv"
    code = main(["theory", "--loss", "mse", "--alpha-t", "3",
                 "--lambda", "1e-4", "--grid", "0.5", "2.0", "4",
                 "--out", str(out_csv)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == CURVE_HEADER
    assert len(printed) == 5
    # the file holds exactly what was printed
    assert read_lines(out_csv) == printed
    row = printed[1].split(",")
    assert row[3] == "mse" and row[-1] == "1"
    assert float(row[0]) == pytest.approx(0.5)


@pytest.mark.parametrize("failing,code", [({2.0}, 0), ({0.5, 1.0, 2.0}, 1)],
                         ids=["one-of-three", "all"])
def test_cli_theory_reports_points_that_did_not_converge(failing, code, monkeypatch,
                                                         tmp_path, capsys):
    solve = replica.solve_saddle

    def stalls_at(inp, init=None):
        if 1.0 / inp.alpha in failing:
            raise replica.ConvergenceError("stalled")
        return solve(inp, init=init)

    monkeypatch.setattr(replica, "solve_saddle", stalls_at)
    out_csv = tmp_path / "curve.csv"
    assert main(THEORY_ARGV + ["--out", str(out_csv)]) == code
    captured = capsys.readouterr()
    assert captured.err == f"meandim theory: {len(failing)} of 3 points did not converge\n"
    if code == 1:  # no point converged: nothing printed, no file
        assert captured.out == "" and not out_csv.exists()
    else:
        printed = captured.out.splitlines()
        assert [line[-1] for line in printed[1:]] == ["1", "1", "0"]
        assert read_lines(out_csv) == printed


def _run_stalling(kind, stalls, monkeypatch, tmp_path) -> int:
    """`meandim run` of the tiny config of a theory kind into tmp_path/o,
    with solve_saddle stalling wherever stalls(inp) holds; the exit code."""
    solve = replica.solve_saddle

    def stalls_at(inp, init=None):
        if stalls(inp):
            raise replica.ConvergenceError("stalled")
        return solve(inp, init=init)

    monkeypatch.setattr(replica, "solve_saddle", stalls_at)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY[kind], encoding="ascii")
    return main(["run", str(cfg_file), "--out", str(tmp_path / "o")])


def _last_point(inp):
    return 1.0 / inp.alpha > 1.5  # the grid's last point, 1/alpha = 2


@pytest.mark.parametrize("kind,stalls,code,report", [
    ("theory-curve", _last_point, 0, ["1 of 5 points did not converge"]),
    ("regularization-sweep", _last_point, 0,
     ["theory lam=0.0001: 1 of 4 points did not converge",
      "theory lam=1: 1 of 4 points did not converge"]),
    ("theory-curve", lambda inp: True, 1, ["theory lam=0.0001: 5 of 5 points did not converge"]),
    ("regularization-sweep", lambda inp: inp.lam == 1.0, 1,
     ["theory lam=1: 4 of 4 points did not converge"]),
], ids=["theory-curve-one", "regularization-sweep-one", "theory-curve-all",
        "regularization-sweep-all-at-one-lam"])
def test_cli_run_reports_theory_points_that_did_not_converge(kind, stalls, code, report,
                                                             monkeypatch, tmp_path, capsys):
    """A theory curve with failed points adds one summary line per curve;
    one that has no converged point fails the run like a failed cell."""
    assert _run_stalling(kind, stalls, monkeypatch, tmp_path) == code
    captured = capsys.readouterr()
    if code == 1:  # one stderr line, no output directory
        assert captured.out == "" and captured.err == f"meandim run: {report[0]}\n"
        assert not (tmp_path / "o").exists()
        return
    assert captured.err == ""
    summary = read_lines(tmp_path / "o" / "summary.txt")
    assert [line for line in summary if "did not converge" in line] == report
    curve = "theory-curve.csv" if kind == "theory-curve" else "theory_lam_1.csv"
    assert [line[-1] for line in read_lines(tmp_path / "o" / curve)[1:]][-2:] == ["1", "0"]


def test_cli_run_theory_curve_with_two_converged_points(monkeypatch, tmp_path, capsys):
    """Two converged points of five give peaks but no correlation; the run
    still succeeds and counts the failed points. Past the peak only NaNs
    lie, so it is no interior peak."""
    assert _run_stalling("theory-curve", lambda inp: 1.0 / inp.alpha > 0.9,
                         monkeypatch, tmp_path) == 0
    assert capsys.readouterr().err == ""
    summary = read_lines(tmp_path / "o" / "summary.txt")
    assert summary[4:] == [
        "argmax test_err: inv_alpha = 0.7071067811865476 (boundary, no interior peak)",
        "argmax bmd: inv_alpha = 0.7071067811865476 (boundary, no interior peak)",
        "test_err/bmd peak distance: 0 grid steps",
        "corr(test_err, bmd) undefined: fewer than 3 finite points",
        "test_err here is the replica eps_g",
        "3 of 5 points did not converge",
    ]


def test_cli_theory_rejects_bad_grid(capsys):
    code = main(["theory", "--loss", "mse", "--alpha-t", "3",
                 "--lambda", "1e-4", "--grid", "2.0", "0.5", "4"])
    assert code == 2
    assert "meandim theory:" in capsys.readouterr().err


def test_cli_theory_rejects_bad_alpha_t(capsys):
    for alpha_t in ("0", "-3", "nan", "inf"):
        code = main(["theory", "--loss", "mse", "--alpha-t", alpha_t,
                     "--lambda", "1e-4", "--grid", "0.5", "2.0", "4"])
        assert code == 2, alpha_t
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "meandim theory: alpha ratios must be positive and finite" in captured.err


class TestCorrelations:
    """numpy Pearson and Spearman, checked against hand-computed values."""

    def test_pearson_hand_value(self):
        # deviations (-1.5, -.5, .5, 1.5) and (-.5, .5, -.5, .5): r = 1 / sqrt(5)
        r = _pearson(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.0, 1.0]))
        assert abs(r - 1.0 / np.sqrt(5.0)) < 1e-15

    def test_spearman_averages_tied_ranks(self):
        # ranks (1, 2.5, 2.5, 4) and (1, 3, 2, 4): r = 4.5 / sqrt(4.5 * 5) = sqrt(0.9)
        r = _spearman(np.array([1.0, 2.0, 2.0, 3.0]), np.array([10.0, 30.0, 20.0, 40.0]))
        assert abs(r - np.sqrt(0.9)) < 1e-15
        # both sides tied: ranks (1.5, 1.5, 3, 4) and (1, 2, 3.5, 3.5), r = 4 / sqrt(4.5 * 4.5)
        r = _spearman(np.array([5.0, 5.0, 6.0, 7.0]), np.array([1.0, 2.0, 3.0, 3.0]))
        assert abs(r - 4.0 / 4.5) < 1e-15
        assert _spearman(np.array([1.0, 2.0, 3.0]), np.array([9.0, 4.0, 1.0])) == -1.0

    def test_constant_or_nan_input_gives_nan_without_warning(self):
        flat, ramp = np.full(4, 2.0), np.arange(4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for corr in (_pearson, _spearman):
                assert np.isnan(corr(flat, ramp)) and np.isnan(corr(ramp, flat))
                assert np.isnan(corr(np.array([0.0, np.nan, 1.0, 2.0]), ramp))
