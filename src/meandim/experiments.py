"""Config-driven experiment harness.

Each experiment kind reproduces one study from the underlying analysis at
desk scale: a sweep over a single coordinate (width, sample count, ridge
strength, pretraining length, ...) with repeated cells, emitting one CSV
per curve, one SVG per heatmap, and a text summary with peak locations
and correlations. Outputs are deterministic for a fixed config: rerunning
a config at the same jobs produces byte-identical files. Across jobs they
are byte-identical when OpenBLAS runs one thread (OPENBLAS_NUM_THREADS=1),
as jobs > 1 never raises its thread count; otherwise jobs > 1 lowers the
OpenBLAS thread count (below), whose sums run in another order, and the
last digits of a large sweep can differ.

The sweep kinds are presets of one engine. A cell trains and measures one
model at one grid point and repetition: `_rfm_cell` fits a random feature
model by closed-form ridge and is keyed by the swept field and the MD
method; `_mlp_cell` trains a two-layer network by gradient descent.
A cell's data depend only on its repetition unless the swept field
changes them (trainset-size-sweep's n_train), so a rep's cells share its
train and test sets: `_shared_sets` draws them once per rep and run,
read-only, before the cells start.
`_run_cells` runs a cell over the grid x repetition lattice, in a pool of
jobs threads with each OpenBLAS capped at cores // jobs threads, and
`_sweep` returns the means as CSV lines, so a kind only picks the swept
field, the fixed cell settings and its summary lines. A kind writes nothing: it
returns {file name: lines}, and `run_experiment` writes those and
summary.txt once every cell has succeeded, so a failed cell leaves no file.

Config files are flat key-value text, one `key = value` per line, with
`#` starting a comment. Repetition seeds are seed + rep_index, so any
single cell can be reproduced in isolation.
"""

import functools
import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import (InputSampler, _blas_threads, estimate_md, estimate_md_binary_fast,
                        influence_heatmap, profile_csv_lines)
from .heatmap_svg import svg_lines
from .replica import ReplicaInput, curve_lines, log_grid, sweep_curve
from .rfm import Activation, analytic_bmd, compute_kappas, random_rfm, score_fn
from .textio import csv_lines, read_text, write_text
from .trainer import (TeacherTask, TrainConfig, _pretrain, flip_labels,
                      gen_multiclass_task, gen_teacher_student, init_mlp,
                      mlp_score_fn, multiclass_bmd, predict_labels,
                      robustness_flip_count, train_gd, train_rfm_ridge)

__all__ = [
    "EXPERIMENT_KINDS",
    "CellError",
    "ExperimentConfig",
    "parse_experiment_config",
    "load_experiment_config",
    "run_experiment",
    "summarize_peaks",
]


class CellError(RuntimeError):
    """An experiment cell failed; the message names its coordinates and cause."""


# ---------------------------------------------------------------------------
# config schema and parsing


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_list(conv, increasing=False, tag=None):
    """Parser for a non-empty comma- or space-separated list of conv values,
    strictly increasing if increasing (a sweep grid). tag(value) is the
    part of a file name that a value gives its files; no two values of the
    list may share it, or one file would replace the other."""
    def parse(s: str) -> tuple:
        toks = s.replace(",", " ").split()
        if not toks:
            raise ValueError("empty list")
        values = tuple(conv(t) for t in toks)
        if increasing and any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError(f"expected a strictly increasing list, got {s!r}")
        if tag is not None:
            seen = {}
            for tok, value in zip(toks, values):
                name = tag(value)
                if name in seen:
                    raise ValueError(f"{seen[name]!r} and {tok!r} both name their "
                                     f"files by {name!r}")
                seen[name] = tok
        return values
    return parse


def _lam_tag(lam: float) -> str:
    return f"{lam:g}"


def _range_tag(lo_hi: tuple) -> str:
    return f"{lo_hi[0]:g}_{lo_hi[1]:g}"


def _parse_range(conv, lo=-math.inf, hi=math.inf, open_lo=False):
    """Parser for one finite conv value in [lo, hi], or in (lo, hi] if open_lo."""
    if hi < math.inf:
        want = f" in {'(' if open_lo else '['}{lo}, {hi}]"
    elif lo > -math.inf:
        want = f" {'>' if open_lo else '>='} {lo}"
    else:
        want = ""

    def parse(s: str):
        value = conv(s)
        above = lo < value if open_lo else lo <= value
        if not (math.isfinite(value) and above and value <= hi):
            raise ValueError(f"expected a finite value{want}, got {s!r}")
        return value
    return parse


def _parse_choice(*choices):
    def parse(s: str) -> str:
        if s not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {s!r}")
        return s
    return parse


def _parse_activation(s: str) -> str:
    Activation.from_tag(s)  # raises ValueError on an unknown tag
    return s


def _parse_lo_hi(tok: str) -> tuple:
    """One lo:hi pair of finite floats with lo < hi, e.g. '-1:1'."""
    lo, sep, hi = tok.partition(":")
    if not sep:
        raise ValueError(f"range {tok!r} is not lo:hi")
    lo, hi = _FINITE(lo), _FINITE(hi)
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"range {tok!r} must have lo < hi and a finite hi - lo")
    return lo, hi


_REQUIRED = object()
_FINITE = _parse_range(float)

_COUNT = _parse_range(int, 1)
_COUNTS = _parse_list(_COUNT, increasing=True)  # a sweep grid of counts
_SAMPLES = _parse_range(int, 100)
_NONNEG = _parse_range(float, 0)
_POSITIVE = _parse_range(float, 0, open_lo=True)

# field -> (parser, default); a kind's row in _KINDS names its fields and
# the defaults that differ from these
_FIELDS = {
    "seed": (_parse_range(int, 0), 0),
    "reps": (int, 1),
    "out": (str, "out"),
    "jobs": (int, 1),
    "dim": (_COUNT, _REQUIRED),
    "n_train": (_COUNT, _REQUIRED),
    "n_test": (_COUNT, 2000),
    "width": (_COUNT, _REQUIRED),
    "widths": (_COUNTS, _REQUIRED),
    "n_trains": (_COUNTS, _REQUIRED),
    "lam": (_NONNEG, 1e-4),
    "lams": (_parse_list(_NONNEG, tag=_lam_tag), _REQUIRED),
    "label_noise_fraction": (_parse_range(float, 0, 1), 0.0),
    "delta": (_NONNEG, 0.0),
    "input_kind": (_parse_choice("binary", "gaussian"), "binary"),
    "activation": (_parse_activation, "tanh"),
    "loss": (_parse_choice("mse", "ce"), "mse"),
    "alpha_t": (_POSITIVE, 3.0),
    "grid_min": (float, 0.1),
    "grid_max": (float, 10.0),
    "grid_points": (int, 21),  # log_grid checks the three grid fields
    "empirical": (_parse_bool, False),
    "n_classes": (_parse_range(int, 2), 10),
    "epochs": (_COUNT, 100),
    "lr": (_POSITIVE, 3e-3),
    "batch_size": (_COUNT, 64),
    "optimizer": (_parse_choice("full-batch-gd", "minibatch-gd"), "minibatch-gd"),
    "md_samples": (_SAMPLES, 2000),
    "samples": (_SAMPLES, 10000),
    "pretrain_grid": (_parse_list(_parse_range(int, 0), increasing=True), (0, 5, 20, 50)),
    "flip_points": (_COUNT, 200),
    "grid_height": (_COUNT, _REQUIRED),
    "grid_width": (_COUNT, _REQUIRED),
    "n_feat": (_COUNT, _REQUIRED),
    "support_fraction": (_parse_range(float, 0, 1, open_lo=True), 0.25),
    "ranges": (_parse_list(_parse_lo_hi, tag=_range_tag),
               ((-1.0, 1.0), (-3.0, 3.0), (-5.0, 5.0))),
}
_COMMON_FIELDS = ("seed", "reps", "out", "jobs")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    reps: int
    out_dir: str
    jobs: int
    params: dict = field(repr=False)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.reps < 1:
            raise ValueError("config field 'reps' must be >= 1")
        if self.jobs < 1:
            raise ValueError("config field 'jobs' must be >= 1")


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse flat key-value config text into a typed ExperimentConfig."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ValueError(f"config field {key!r} given twice")
        raw[key] = value
    if "kind" not in raw:
        raise ValueError("config field 'kind' is required")
    kind = raw.pop("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown experiment kind {kind!r} "
                         f"(expected one of {', '.join(EXPERIMENT_KINDS)})")
    fields, defaults = _KINDS[kind][2:]
    names = _COMMON_FIELDS + tuple(fields.split())
    params = {}
    for key, value in raw.items():
        if key not in names:
            raise ValueError(f"unknown config field {key!r} for kind {kind!r}")
        try:
            params[key] = _FIELDS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"config field {key!r}: {exc}") from exc
    for key in names:
        if key in params:
            continue
        default = defaults.get(key, _FIELDS[key][1])
        if default is _REQUIRED:
            raise ValueError(f"config field {key!r} is required for kind {kind!r}")
        params[key] = default
    _validate_params(kind, params)
    return ExperimentConfig(kind=kind, seed=params.pop("seed"),
                            reps=params.pop("reps"), out_dir=params.pop("out"),
                            jobs=params.pop("jobs"), params=params)


def _validate_params(kind: str, params: dict) -> None:
    if "grid_points" in params:  # a theory kind
        try:
            grid = log_grid(params["grid_min"], params["grid_max"], params["grid_points"])
        except ValueError as exc:
            raise ValueError("config fields 'grid_min', 'grid_max', 'grid_points': "
                             f"{exc}") from None
        # the replica input at both ends of the grid, as sweep_curve builds it
        kappas = compute_kappas(Activation.from_tag(params["activation"]))
        for lam in params.get("lams") or (params["lam"],):
            for inv_alpha in grid[[0, -1]]:
                try:
                    ReplicaInput(alpha=1.0 / float(inv_alpha), lam=lam, loss=params["loss"],
                                 kappas=kappas, alpha_t=params["alpha_t"],
                                 delta=params["delta"])
                except ValueError as exc:
                    raise ValueError("config fields 'activation', 'alpha_t', 'grid_min', "
                                     f"'grid_max': {exc}") from None
    if kind == "double-descent-mlp" and params["n_classes"] > 2 and params["loss"] != "ce":
        raise ValueError("config field 'loss': n_classes > 2 trains with cross-entropy, "
                         "so the loss must be ce")
    if kind == "regularization-sweep" and params["empirical"] and not params["widths"]:
        raise ValueError("config field 'widths' is required when 'empirical = true'")
    closed_form = kind in ("double-descent-rfm", "trainset-size-sweep") or (
        kind == "regularization-sweep" and params["empirical"])
    if closed_form and Activation.from_tag(params["activation"]).kind == "sign":
        raise ValueError("config field 'activation': the closed-form BMD diverges for "
                         "sign (its squared weak derivative is not Gaussian integrable)")


def load_experiment_config(path) -> ExperimentConfig:
    """Read and parse a config file; a ValueError names the path."""
    text = read_text(path)
    try:
        return parse_experiment_config(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# metric blocks, CSV emission, peak summaries


def _mean(block: np.ndarray) -> np.ndarray:
    """Row means of a (coords, reps) block, like nanmean over reps, but an
    all-NaN row gives NaN without warning."""
    counts = np.sum(~np.isnan(block), axis=1)
    totals = np.nansum(block, axis=1)
    return np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)


def _std(block: np.ndarray) -> np.ndarray:
    """Row sample std of a (coords, reps) block over its non-NaN values."""
    counts = np.sum(~np.isnan(block), axis=1)
    centered = block - _mean(block)[:, None]
    ss = np.nansum(centered ** 2, axis=1)
    return np.where(counts > 1, np.sqrt(ss / np.maximum(counts - 1, 1)), np.nan)


def _sweep_lines(coordinate: str, coords, blocks: dict) -> list:
    """The sweep CSV: the coordinate, then each metric's mean, and its std
    when the block holds more than one repetition."""
    header, columns = [coordinate], [coords]
    for name, block in blocks.items():
        header.append(f"{name}_mean")
        columns.append(_mean(block))
        if block.shape[1] > 1:
            header.append(f"{name}_std")
            columns.append(_std(block))
    return csv_lines(header, zip(*columns))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; NaN when either input is constant or holds a NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(a, b)[0, 1])


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n, tied values sharing the mean of their positions."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation with average ranks for ties; NaN as _pearson."""
    if np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    return _pearson(_average_ranks(a), _average_ranks(b))


def summarize_peaks(coordinate: str, coords, curves: dict, pairs=None) -> list:
    """Summary lines: the grid argmax of each curve {metric: mean curve},
    the test_err/bmd peak distance and the correlation of metric pairs.

    Peaks are reported on the discrete grid only (no interpolation); a
    metric whose maximum has no non-NaN point on one side of it (it sits on
    the grid boundary, or only NaNs lie past it) is flagged as having no
    interior peak. A grid of fewer than 5 points gives no lines, and a pair
    with fewer than 3 points finite in both curves has no correlation.
    """
    if len(coords) < 5:
        return []
    names = list(curves)
    lines, peaks = [], {}
    for name, curve in curves.items():
        if np.all(np.isnan(curve)):
            raise ValueError(f"metric {name!r} is all-NaN")
        idx = peaks[name] = int(np.nanargmax(curve))
        known = np.flatnonzero(~np.isnan(curve))
        interior = known[0] < idx < known[-1]
        note = "interior peak" if interior else "boundary, no interior peak"
        lines.append(f"argmax {name}: {coordinate} = {coords[idx]} ({note})")
    if "test_err" in peaks and "bmd" in peaks:
        lines.append(f"test_err/bmd peak distance: "
                     f"{abs(peaks['test_err'] - peaks['bmd'])} grid steps")
    if pairs is None:
        pairs = (("test_err", "bmd"),) if "test_err" in names and "bmd" in names else ()
    for a, b in pairs:
        if a not in names or b not in names:
            raise ValueError(f"correlation pair ({a}, {b}) not in sweep metrics {names}")
        keep = np.isfinite(curves[a]) & np.isfinite(curves[b])
        if keep.sum() < 3:
            lines.append(f"corr({a}, {b}) undefined: fewer than 3 finite points")
        else:
            lines.append(f"corr({a}, {b}) = {_pearson(curves[a][keep], curves[b][keep]):.4f}")
    return lines


# ---------------------------------------------------------------------------
# cell execution


def _run_cells(cell_fn, coords, metric_names, reps: int, jobs: int,
               coordinate: str) -> dict:
    """Run cell_fn(i_coord, rep) over the grid x repetition lattice and
    return {metric: (len(coords), reps) block}.

    Cells execute in a thread pool; assembly is keyed by (i, rep) so the
    result does not depend on completion order. Exceptions are re-raised
    with the failing coordinates attached; the first one, or a
    KeyboardInterrupt while the pool runs, cancels the cells still queued.
    """
    blocks = {name: np.full((len(coords), reps), np.nan) for name in metric_names}

    def wrapped(i, rep):
        try:
            return cell_fn(i, rep)
        except Exception as exc:
            raise CellError(
                f"experiment cell {coordinate}={coords[i]}, rep={rep} failed: {exc}"
            ) from exc

    lattice = [(i, rep) for i in range(len(coords)) for rep in range(reps)]
    if jobs == 1:
        outs = [wrapped(i, rep) for i, rep in lattice]
    else:
        with _blas_threads(jobs), ThreadPoolExecutor(max_workers=jobs) as pool:
            try:
                futures = [pool.submit(wrapped, i, rep) for i, rep in lattice]
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                pool.shutdown(cancel_futures=True)
        # a cancelled cell was queued behind the failed one, so its lattice
        # position comes later and the failure is raised first
        outs = [fut.result() for fut in futures]
    for (i, rep), out in zip(lattice, outs):
        for name in metric_names:
            blocks[name][i, rep] = out[name]
    return blocks


# ---------------------------------------------------------------------------
# the sweep engine: one ridge cell, one MLP cell, one sweep tail

_ERR_BMD = ("train_err", "test_err", "bmd")
_SAMPLERS = ("binary", "gaussian", "uniform")


def _kappas(p):
    act = Activation.from_tag(p["activation"])
    return act, compute_kappas(act)


def _minmax_dataset(ds, lo: float, hi: float):
    """Map each feature column onto [lo, hi] by its observed range.

    A constant column lands on the interval midpoint.
    """
    X = ds.X
    col_lo, col_hi = X.min(axis=0), X.max(axis=0)
    span = col_hi - col_lo
    flat = span == 0
    span[flat] = 1.0
    X = lo + (X - col_lo) * (hi - lo) / span
    X[:, flat] = 0.5 * (lo + hi)
    return replace(ds, X=X)


def _shared_sets(build, cfg: ExperimentConfig) -> list:
    """Each repetition's (train, test) sets, drawn once by build(seed + rep)
    and shared by the cells of that rep.

    Their arrays are made read-only, so a cell that writes into shared data
    raises instead of changing the other cells' data. The list lives for one
    runner call and holds every rep's sets at once: its memory is reps times
    one rep's data, (n_train + n_test) x dim floats each. The draws run
    before the cells start, so a failing draw raises as itself, not as a
    CellError.
    """
    sets = [build(cfg.seed + rep) for rep in range(cfg.reps)]
    for a in (arr for pair in sets for ds in pair for arr in (ds.X, ds.y, ds.y_clean)):
        if a is not None:
            a.flags.writeable = False
    return sets


def _cell_data(p, seed, *, multiclass=False, rescale=None, **fields):
    """A cell's (train, test) sets, drawn from seed alone.

    fields override the config params p: a swept n_train and a kind's fixed
    input_kind and delta. A multiclass task labels by the nearest of
    n_classes prototypes, otherwise a sign teacher labels. The inputs are
    min-max rescaled onto rescale = (lo, hi) when given, and the train set
    gets the config's label noise.
    """
    p = {**p, **fields}
    if multiclass:
        train, test = gen_multiclass_task(p["dim"], p["n_train"], p["n_test"],
                                          p["n_classes"], p["input_kind"], seed=seed)
    else:
        # the MLP kinds have no delta field
        task = TeacherTask.random(p["dim"], seed=seed, input_kind=p["input_kind"],
                                  delta=p.get("delta", _FIELDS["delta"][1]))
        train, test = gen_teacher_student(p["dim"], p["n_train"], p["n_test"], task,
                                          seed=seed)
    if rescale is not None:
        train, test = _minmax_dataset(train, *rescale), _minmax_dataset(test, *rescale)
    # adversarial-init has no label_noise_fraction field
    noise = p.get("label_noise_fraction", _FIELDS["label_noise_fraction"][1])
    return flip_labels(train, noise, seed=seed), test


def _rfm_cell(p, act, kappas, seed, md, data, **fields):
    """One (coordinate, rep) cell of an empirical ridge sweep.

    data is the cell's (train, test) pair from _cell_data, shared with the
    other cells of its rep unless the swept field changes it; fields
    override the config params p (the swept width or lam). The readout is
    fitted by closed-form ridge and its mean dimension measured by md:
    "analytic" (the closed form), "flip" (spin-flip Monte Carlo) or
    "samplers" (resampling under each law in _SAMPLERS, reported as
    md_<law>).
    """
    p = {**p, **fields}
    train, test = data
    model = random_rfm(p["dim"], p["width"], act, seed=seed, kappas=kappas)
    fit = train_rfm_ridge(model, train, p["lam"], test_ds=test)
    out = {"train_err": fit.train_error, "test_err": fit.test_error}
    if md == "analytic":
        out["bmd"] = analytic_bmd(fit.model)
        return out
    f = score_fn(fit.model)
    if md == "flip":
        out["bmd"] = estimate_md_binary_fast(f, p["dim"], p["samples"], seed).md
        return out
    for law in _SAMPLERS:
        out[f"md_{law}"] = estimate_md(f, InputSampler(law, p["dim"]), p["samples"],
                                       seed).md
    return out


def _mlp_cell(p, width, seed, data, start=None, flips=False):
    """One (coordinate, rep) cell of a two-layer tanh network sweep.

    data is the rep's (train, test) pair from _cell_data, shared by its cells.
    A multiclass train set (its n_classes is set) trains n_classes logits
    with cross-entropy; otherwise a scalar margin head learns a sign
    teacher. train_gd starts from the initial network, or from
    start(network, train set, config) when given: the adversarial-init
    pretrained network. flips adds the mean flip count on the test set.
    """
    dim = p["dim"]
    train, test = data
    multiclass = train.n_classes is not None
    n_out, loss = (train.n_classes, "ce") if multiclass else (1, p["loss"])
    # robustness-sweep and adversarial-init have no optimizer field
    config = TrainConfig(loss=loss, optimizer=p.get("optimizer", _FIELDS["optimizer"][1]),
                         batch_size=p["batch_size"], lr=p["lr"], epochs=p["epochs"],
                         seed=seed)
    net = init_mlp(dim, width, n_out, seed=seed)
    if start is not None:
        net = start(net, train, config)
    fit = train_gd(net, train, config, test_ds=test)
    net = fit.model
    if multiclass:
        bmd = multiclass_bmd(net, InputSampler.binary(dim), p["md_samples"], seed)
    else:
        bmd = estimate_md_binary_fast(mlp_score_fn(net), dim, p["md_samples"], seed).md
    out = {"train_err": fit.train_error, "test_err": fit.test_error, "bmd": bmd}
    if flips:
        out["flip_count"] = robustness_flip_count(lambda X: predict_labels(net, X), test,
                                                  seed=seed, max_points=p["flip_points"]).mean
    return out


def _sweep(cfg: ExperimentConfig, cell, coords, metrics=_ERR_BMD, coordinate="width"):
    """Run cell(i, rep) over coords x reps; return the CSV lines and the
    mean curves {metric: curve}."""
    blocks = _run_cells(cell, coords, metrics, cfg.reps, cfg.jobs, coordinate)
    return (_sweep_lines(coordinate, coords, blocks),
            {name: _mean(block) for name, block in blocks.items()})


def _argmax(coords, curve):
    return coords[int(np.nanargmax(curve))]


# ---------------------------------------------------------------------------
# experiment kinds: presets of the engine


def _run_rfm_sweep(cfg: ExperimentConfig) -> tuple:
    """double-descent-rfm sweeps the width, trainset-size-sweep n_train."""
    p = cfg.params
    axis = "width" if cfg.kind == "double-descent-rfm" else "n_train"
    coords = p[axis + "s"]
    act, kappas = _kappas(p)
    if axis == "width":
        sets = _shared_sets(functools.partial(_cell_data, p), cfg)
        data = lambda i, rep: sets[rep]
    else:
        # the swept n_train changes the data, so each cell draws its own
        data = lambda i, rep: _cell_data(p, cfg.seed + rep, n_train=coords[i])

    def cell(i, rep):
        return _rfm_cell(p, act, kappas, cfg.seed + rep, "analytic", data(i, rep),
                         **{axis: coords[i]})

    lines, curves = _sweep(cfg, cell, coords, coordinate=axis)
    return {f"{cfg.kind}.csv": lines}, summarize_peaks(axis, coords, curves)


def _run_mlp_sweep(cfg: ExperimentConfig) -> tuple:
    """double-descent-mlp; robustness-sweep adds the flip count."""
    p = cfg.params
    robust = cfg.kind == "robustness-sweep"
    multiclass = robust or p["n_classes"] > 2
    sets = _shared_sets(functools.partial(_cell_data, p, multiclass=multiclass), cfg)

    def cell(i, rep):
        return _mlp_cell(p, p["widths"][i], cfg.seed + rep, sets[rep], flips=robust)

    metrics = _ERR_BMD + (("flip_count",) if robust else ())
    lines, curves = _sweep(cfg, cell, p["widths"], metrics)
    return ({f"{cfg.kind}.csv": lines},
            summarize_peaks("width", p["widths"], curves,
                            (("bmd", "flip_count"),) if robust else None))


def _theory_sweep(p, kappas, lam) -> tuple:
    """The replica curve's rows at ridge strength lam on the config's log
    grid of 1/alpha, and a "k of n points did not converge" line when
    k > 0 did not; a CellError when none did."""
    grid = log_grid(p["grid_min"], p["grid_max"], p["grid_points"])
    rows = sweep_curve(kappas, p["loss"], lam, p["alpha_t"], grid, delta=p["delta"])
    failed = sum(not r.converged for r in rows)
    note = f"{failed} of {len(rows)} points did not converge"
    if failed == len(rows):
        raise CellError(f"theory lam={lam:g}: {note}")
    return rows, [note] if failed else []


def _run_theory_curve(cfg: ExperimentConfig) -> tuple:
    p = cfg.params
    _, kappas = _kappas(p)
    rows, failed = _theory_sweep(p, kappas, p["lam"])
    # eps_g plays the test_err role so the generic peak summary applies
    curves = {"test_err": np.array([r.eps_g for r in rows]),
              "bmd": np.array([r.bmd for r in rows])}
    peaks = summarize_peaks("inv_alpha", [r.inv_alpha for r in rows], curves)
    return {"theory-curve.csv": curve_lines(rows)}, (
        peaks + ["test_err here is the replica eps_g"] + failed)


def _run_regularization_sweep(cfg: ExperimentConfig) -> tuple:
    p = cfg.params
    act, kappas = _kappas(p)
    files = {}
    peak_lines = []
    for lam in p["lams"]:
        rows, failed = _theory_sweep(p, kappas, lam)
        files[f"theory_lam_{_lam_tag(lam)}.csv"] = curve_lines(rows)
        bmds = np.array([r.bmd for r in rows])
        peak_lines.append(
            f"theory lam={lam:g}: peak bmd = {float(np.nanmax(bmds))!r} "
            f"at inv_alpha = {rows[int(np.nanargmax(bmds))].inv_alpha!r}")
        peak_lines += [f"theory lam={lam:g}: {line}" for line in failed]
    if p["empirical"]:
        widths = p["widths"]
        # delta enters the theory only; the empirical teacher is noiseless
        sets = _shared_sets(functools.partial(_cell_data, p, delta=0.0), cfg)
        for lam in p["lams"]:
            def cell(i, rep, _lam=lam):
                return _rfm_cell(p, act, kappas, cfg.seed + rep, "analytic", sets[rep],
                                 width=widths[i], lam=_lam)

            files[f"empirical_lam_{_lam_tag(lam)}.csv"], curves = _sweep(cfg, cell, widths)
            peak_lines.append(
                f"empirical lam={lam:g}: peak bmd = {float(np.nanmax(curves['bmd']))!r} "
                f"at width = {_argmax(widths, curves['bmd'])}")
    return files, peak_lines


class _Pretraining:
    """One repetition's corrupt-label pretraining, shared by its cells.

    take(epochs, skeleton, train, config) returns the network after that
    many pretraining epochs. The first cell past 0 epochs runs the
    trajectory to the largest grid value (trainer._pretrain) under the
    lock; a 0-epoch cell takes the initial network without waiting, and
    each snapshot is dropped once taken. A cell past a divergence raises
    the RuntimeError that a run of its own length raises.
    """

    def __init__(self, grid):
        self._grid = grid
        self._lock = threading.Lock()
        self._snaps = None
        self._diverged = None

    def take(self, epochs, skeleton, train, config):
        if epochs == 0:
            return skeleton
        with self._lock:
            if self._snaps is None:
                self._snaps, self._diverged = _pretrain(skeleton, train, self._grid, config)
            snap = self._snaps.pop(epochs, None)
        if snap is None:
            raise RuntimeError(self._diverged)
        return snap


def _run_adversarial_init(cfg: ExperimentConfig) -> tuple:
    """Corrupt-label pretraining, then clean training, at each
    pretrain_epochs k of the grid.

    Cells of one repetition share the data, the initial network and so the
    corrupt-label trajectory: it runs once per rep (_Pretraining), to the
    largest grid value, and each cell trains its main phase through
    train_gd from the snapshot at its own value. The outputs equal, bit for
    bit, those of two separate runs per cell: train_gd(net,
    flip_labels(train, 1.0, seed=config.seed + 1000), replace(config,
    epochs=k, seed=config.seed + 1000)), then train_gd on the clean labels
    from that model (k = 0 skips the first).
    """
    p = cfg.params
    grid = p["pretrain_grid"]
    pretraining = [_Pretraining(grid) for _ in range(cfg.reps)]
    # a multiclass task is essential here: with binary labels a 100%
    # corrupted pretraining set is just the negated teacher, which is
    # perfectly structured and leaves no adversarial imprint
    sets = _shared_sets(functools.partial(_cell_data, p, multiclass=True), cfg)

    def cell(i, rep):
        return _mlp_cell(p, p["width"], cfg.seed + rep, sets[rep],
                         start=functools.partial(pretraining[rep].take, grid[i]))

    lines, curves = _sweep(cfg, cell, grid, coordinate="pretrain_epochs")
    pre = np.asarray(grid, dtype=float)
    extra = []
    for name in ("bmd", "test_err"):
        rho = _spearman(pre, curves[name])  # NaN on a flat curve
        extra.append(f"spearman(pretrain_epochs, {name}) = {rho:.4f}")
    return {f"{cfg.kind}.csv": lines}, extra


def _run_heatmap(cfg: ExperimentConfig) -> tuple:
    p = cfg.params
    height, width = p["grid_height"], p["grid_width"]
    dim = height * width
    act, kappas = _kappas(p)
    # teacher supported on a centered block of the pixel grid, so the
    # influence heatmap of the fitted student should recover the block
    mask2d = np.zeros((height, width), dtype=bool)
    bh = max(1, int(round(height * np.sqrt(p["support_fraction"]))))
    bw = max(1, int(round(width * np.sqrt(p["support_fraction"]))))
    r0, c0 = (height - bh) // 2, (width - bw) // 2
    mask2d[r0:r0 + bh, c0:c0 + bw] = True
    support = mask2d.ravel()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 41]))
    w_t = np.zeros(dim)
    w_t[support] = rng.standard_normal(int(support.sum()))
    w_t *= np.sqrt(dim) / np.linalg.norm(w_t)
    task = TeacherTask(w_T=w_t, input_kind="binary", delta=0.0)
    train, _ = gen_teacher_student(dim, p["n_train"], 100, task, seed=cfg.seed)
    train = flip_labels(train, p["label_noise_fraction"], seed=cfg.seed)
    model = random_rfm(dim, p["n_feat"], act, seed=cfg.seed, kappas=kappas)
    fit = train_rfm_ridge(model, train, p["lam"])
    profile = estimate_md_binary_fast(score_fn(fit.model), dim, p["samples"],
                                      seed=cfg.seed)
    files = {"heatmap.svg": svg_lines(influence_heatmap(profile, width, height)),
             "influence.csv": profile_csv_lines(profile)}
    inside = float(profile.tau_sq[support].sum() / profile.total_influence)
    return files, [
        f"teacher support cells: {int(support.sum())} of {dim}",
        f"influence mass on the support: {inside:.4f}",
        f"participation ratio: {profile.participation_ratio!r}",
        f"estimated md: {profile.md!r}",
    ]


def _run_distribution_comparison(cfg: ExperimentConfig) -> tuple:
    p = cfg.params
    act, kappas = _kappas(p)
    widths = p["widths"]
    sets = _shared_sets(functools.partial(_cell_data, p, input_kind="binary", delta=0.0), cfg)

    def cell(i, rep):
        return _rfm_cell(p, act, kappas, cfg.seed + rep, "samplers", sets[rep],
                         width=widths[i])

    names = tuple(f"md_{law}" for law in _SAMPLERS)
    lines, curves = _sweep(cfg, cell, widths, ("test_err",) + names)
    summary = [f"argmax {name}: width = {_argmax(widths, curves[name])}" for name in names]
    return {f"{cfg.kind}.csv": lines}, summary


def _run_normalization_comparison(cfg: ExperimentConfig) -> tuple:
    p = cfg.params
    act, kappas = _kappas(p)
    widths = p["widths"]
    files = {}
    extra = []
    for lo, hi in p["ranges"]:
        # the rescaled data are shared by the widths of one range only
        sets = _shared_sets(functools.partial(_cell_data, p, rescale=(lo, hi),
                                              input_kind="gaussian", delta=0.0), cfg)

        def cell(i, rep, _sets=sets):
            return _rfm_cell(p, act, kappas, cfg.seed + rep, "flip", _sets[rep],
                             width=widths[i])

        name = f"range_{_range_tag((lo, hi))}.csv"
        files[name], curves = _sweep(cfg, cell, widths, ("test_err", "bmd"))
        extra.append(f"range [{lo:g}, {hi:g}]: argmax bmd at width = "
                     f"{_argmax(widths, curves['bmd'])}")
    return files, extra


# kind -> (title, runner, its fields after _COMMON_FIELDS in config order,
# the defaults that differ from _FIELDS); a runner returns
# ({file name: lines}, summary lines) and writes nothing
_KINDS = {
    "double-descent-rfm": (
        "random feature model: error and BMD across width", _run_rfm_sweep,
        "dim n_train n_test widths lam label_noise_fraction delta input_kind activation", {}),
    "double-descent-mlp": (
        "two-layer MLP: error and BMD across width", _run_mlp_sweep,
        "dim n_train n_test widths n_classes epochs lr batch_size loss optimizer "
        "label_noise_fraction md_samples input_kind",
        {"n_test": 1000, "n_classes": 2, "epochs": 200, "lr": 1e-3, "loss": "ce",
         "md_samples": 4000, "input_kind": "gaussian"}),
    "theory-curve": (
        "replica theory curve along 1/alpha", _run_theory_curve,
        "loss lam alpha_t delta activation grid_min grid_max grid_points", {}),
    "regularization-sweep": (
        "ridge strength and the BMD peak", _run_regularization_sweep,
        "lams loss alpha_t delta activation grid_min grid_max grid_points empirical "
        "dim n_train n_test widths label_noise_fraction input_kind",
        {"dim": 50, "n_train": 200, "widths": (), "label_noise_fraction": 0.1}),
    "trainset-size-sweep": (
        "training set size sweep at fixed width", _run_rfm_sweep,
        "dim width n_trains n_test lam label_noise_fraction delta input_kind activation", {}),
    "adversarial-init": (
        "corrupted-label pretraining and final complexity", _run_adversarial_init,
        "dim n_train n_test width n_classes pretrain_grid epochs lr batch_size md_samples "
        "input_kind", {"n_test": 800, "epochs": 60, "input_kind": "gaussian"}),
    "robustness-sweep": (
        "BMD versus flip robustness across width", _run_mlp_sweep,
        "dim n_train n_test widths n_classes epochs lr batch_size md_samples flip_points "
        "label_noise_fraction input_kind",
        {"n_test": 500, "batch_size": 32, "input_kind": "gaussian"}),
    "heatmap": (
        "per-coordinate influence heatmap", _run_heatmap,
        "grid_height grid_width n_feat n_train lam samples support_fraction "
        "label_noise_fraction activation", {"samples": 20000}),
    "distribution-comparison": (
        "MD under different resampling distributions", _run_distribution_comparison,
        "dim n_train n_test widths lam samples label_noise_fraction activation",
        {"n_test": 1000}),
    "normalization-comparison": (
        "input normalization ranges and the BMD pattern", _run_normalization_comparison,
        "dim n_train n_test widths lam samples ranges label_noise_fraction activation",
        {"n_test": 1000}),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def run_experiment(config: ExperimentConfig, out_dir=None, jobs=None) -> list:
    """Run one experiment end to end; returns the list of written paths.

    out_dir and jobs override the config values (the CLI flags map here).
    The directory is made and written only once every cell has succeeded.
    """
    overrides = {"out_dir": out_dir, "jobs": jobs}
    config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    title, runner = _KINDS[config.kind][:2]
    files, body = runner(config)
    files["summary.txt"] = [f"experiment: {config.kind}", f"title: {title}",
                            f"seed: {config.seed}", f"repetitions: {config.reps}"] + body
    os.makedirs(config.out_dir, exist_ok=True)
    paths = [os.path.join(config.out_dir, name) for name in files]
    for path, lines in zip(paths, files.values()):
        write_text(path, lines)
    return paths
