"""Monte Carlo estimation of mean dimension for black-box score functions.

The estimator draws background inputs from a pluggable i.i.d. (or
empirical-resample) distribution, perturbs one coordinate at a time, and
averages squared output changes:

    tau_i^2 = 1/2 E[(f(x) - f(x with coordinate i resampled))^2]
    md      = sum_i tau_i^2 / Var[f]

Every sample probes all coordinates against a single shared background draw,
and Var[f] is estimated from the same stream of background evaluations, so
the ratio is invariant under affine rescaling of f up to rounding (Var[f]
is accumulated relative to the first background value, so an offset does
not cancel it away). Standard errors come from 10 batch means.

Score functions are batched: they receive an (m, n) array of inputs and must
return m finite reals (or an (m, k) block for the multi-output variant).
A score may also have a method ``probe(i, column)`` that returns f of the
batch it last evaluated in full, column i replaced by the length-m array
``column``; the estimator then calls f once per background (a new array
each time) and ``probe`` once per coordinate (``LinearFirstLayer`` and
``boolfn.table_score_fn`` answer a probe without redoing the unchanged
columns). A score without ``probe`` is called on the background with
column i swapped in place and restored afterwards, so it must keep a copy,
not a reference, of any batch it needs later; returning a view is fine. A
score may keep state between full evaluations, so use one score object per
thread; the experiment harness builds one per cell.

Between two full evaluations ``probe`` may be called from two threads at
once, so it must not write state that another probe reads or writes. That
pairing happens when the estimator is called from the main thread of a
process allowed on two CPUs or more, with a score that has ``probe``: the
calling thread probes coordinate i while a worker thread probes i + 1.
Everything the result depends on (draws, checks, sums) stays in the
calling thread in the sequential order, so the bits do not change, and
numpy's OpenBLAS is capped at cores // 2 threads for the whole estimate.
Any other call (from a pool thread, with a score without ``probe``, or on
one CPU) probes one coordinate at a time.

``LinearFirstLayer`` evaluates its head on row tiles of about 256 KiB
(``_tile_rows``: 2**15 floats over the width N, a multiple of 16 rows and
at least 128) that pass through a reused scratch block, one per concurrent
prober, so a probe never builds an m x N block. Its head may overwrite that
block: the package's heads apply their activation in place.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .textio import csv_lines, lines_text

__all__ = [
    "InputSampler",
    "SAMPLER_KINDS",
    "InfluenceProfile",
    "LinearFirstLayer",
    "ScoreEvaluationError",
    "estimate_md",
    "estimate_md_binary_fast",
    "estimate_md_best",
    "estimate_md_multioutput",
    "influence_heatmap",
    "profile_csv_lines",
    "profile_summary",
]

N_BATCHES = 10
SIGMA_SQ_FLOOR = 1e-12
SAMPLER_KINDS = ("binary", "gaussian", "uniform", "empirical")
TILE_FLOATS = 1 << 15  # float64s in a LinearFirstLayer head tile: 256 KiB
TILE_MIN_ROWS = 128
GATHER_FLOATS = 1 << 15  # float64s of h0 a probe gathers at once: 256 KiB


class ScoreEvaluationError(RuntimeError):
    """Raised when a score function returns a non-finite value."""


@dataclass(frozen=True)
class InputSampler:
    """Input distribution for backgrounds and single-coordinate resampling.

    Kinds:
      binary    i.i.d. uniform +-1 spins (mean 0, second moment 1)
      gaussian  i.i.d. standard normals (mean 0, second moment 1)
      uniform   i.i.d. uniform on [lo, hi]
      empirical backgrounds are whole rows of ``data``, a (rows, dim) array;
                a resampled coordinate is drawn uniformly from [lo, hi]

    Construction checks the kind, finite lo < hi with a finite hi - lo, and
    that empirical data is a nonempty, finite (rows, dim) array.
    """

    kind: str
    dim: int
    lo: float = -1.0
    hi: float = 1.0
    data: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if not (math.isfinite(float(self.hi) - float(self.lo)) and self.lo < self.hi):
            raise ValueError("sampler bounds need finite lo < hi with a finite hi - lo, "
                             f"got lo = {self.lo!r}, hi = {self.hi!r}")
        if self.kind == "empirical":
            if self.data is None:
                raise ValueError("empirical sampler requires --data rows")
            data = np.asarray(self.data, dtype=float)
            object.__setattr__(self, "data", data)
            if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != self.dim:
                raise ValueError(f"empirical data needs {self.dim} columns and a row, "
                                 f"got shape {data.shape}")
            bad = np.argwhere(~np.isfinite(data))
            if bad.size:
                raise ValueError(f"empirical data holds {float(data[tuple(bad[0])])!r} at "
                                 f"data row {bad[0, 0] + 1}, column {bad[0, 1] + 1}")

    @classmethod
    def binary(cls, dim: int) -> "InputSampler":
        return cls("binary", dim)

    @classmethod
    def gaussian(cls, dim: int) -> "InputSampler":
        return cls("gaussian", dim)

    @classmethod
    def uniform(cls, dim: int, lo: float = -1.0, hi: float = 1.0) -> "InputSampler":
        return cls("uniform", dim, lo, hi)

    @classmethod
    def empirical(cls, data: np.ndarray, lo: float = -1.0, hi: float = 1.0) -> "InputSampler":
        data = np.asarray(data, dtype=float)
        return cls("empirical", data.shape[-1] if data.ndim else 0, lo, hi, data)

    def _draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """i.i.d. coordinates of the given shape; empirical draws uniform ones."""
        if self.kind == "binary":
            return rng.integers(0, 2, size=size).astype(float) * 2.0 - 1.0
        if self.kind == "gaussian":
            return rng.standard_normal(size)
        return rng.uniform(self.lo, self.hi, size=size)  # uniform and empirical

    def sample_background(self, rng: np.random.Generator, m: int) -> np.ndarray:
        if self.kind == "empirical":
            rows = rng.integers(0, self.data.shape[0], size=m)
            return self.data[rows].copy()
        return self._draw(rng, (m, self.dim))

    def resample_coordinate(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return self._draw(rng, m)


def _tile_rows(width: int) -> int:
    """Rows of a ``LinearFirstLayer`` head tile: TILE_FLOATS // width rounded
    down to a multiple of 16, and at least TILE_MIN_ROWS."""
    return max(TILE_MIN_ROWS, TILE_FLOATS // max(width, 1) // 16 * 16)


class LinearFirstLayer:
    """Score f(x) = head(x @ W + b) that updates single-coordinate probes.

    W has shape (n, N); head maps a (t, N) preactivation block to t values
    (or a (t, k) block) row by row, and may overwrite the block it is given.
    A call evaluates its batch in full and caches a copy x0, h0 = x0 @ W + b
    and f0, unless the batch is the array object last evaluated in full,
    changed in place in at most one column i: then, as for
    ``probe(i, column)`` on x0, the rows whose coordinate i moved get
    head(h0 + (x_i - x0_i) W_i) and the others reuse f0. So a score behind
    a closure gives the bits of one probed directly, and a reused score
    those of a fresh one. The batch is held by weak reference.

    The head runs on row tiles, each loaded into a scratch block: a probe
    writes h0 + delta W_i of the tile's moved rows there, a full evaluation
    copies its rows of h0 there. So a probe's work stays in cache, and a
    head never sees the cache. Each concurrent prober takes a block of its
    own: the score allocates two, one per thread of a paired estimate, in
    the thread that builds it, and makes another only when a third prober
    runs at once. A probe that moves only some rows gathers their h0 in
    pieces of at most GATHER_FLOATS floats (32 rows at N = 1024), not as
    one temporary of the tile's size. A tile has
    ``_tile_rows(N)`` rows (160 at N = 200, 128 from N = 256 up), and a
    last stretch of fewer than TILE_MIN_ROWS rows joins the tile before
    it. At one OpenBLAS thread (0.3.31) a tile then gives the bits of one
    head call on all the rows for scalar heads, and for heads whose
    rows x k x N product stays above OpenBLAS's small-matrix gemm bound
    of 1e6 (the 100 -> 1024 -> 10 MLP); a narrower k-output head can move
    in the last bit.
    """

    def __init__(self, W: np.ndarray, b, head):
        self.W = np.asarray(W, dtype=float)
        self.b = b
        self.head = head
        self._tile = _tile_rows(self.W.shape[1])
        self._block_shape = (self._tile + TILE_MIN_ROWS - 1, self.W.shape[1])
        self._blocks = [np.empty(self._block_shape) for _ in range(2)]  # no prober holds them
        self._batch = lambda: None  # weak reference to the batch of x0
        self._x0 = self._h0 = self._f0 = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.W.shape[0]:
            raise ValueError(f"batch has {x.shape[1]} columns; the first layer takes "
                             f"{self.W.shape[0]}")
        if x is self._batch() and x.shape == self._x0.shape:
            cols = np.flatnonzero((x != self._x0).any(axis=0))
            if cols.size == 0:
                return self._f0.copy()
            if cols.size == 1:
                return self._rank1(cols[0], x[:, cols[0]])
        h = x @ self.W
        h += self.b
        out = None
        for rows, f in self._heads(x.shape[0], lambda block, rows: np.copyto(block, h[rows])):
            if out is None:
                out = np.empty(x.shape[:1] + np.shape(f)[1:])
            out[rows] = f
        self._batch = weakref.ref(x)
        self._x0, self._h0, self._f0 = x.copy(), h, out
        return out.copy()

    def probe(self, i: int, column: np.ndarray) -> np.ndarray:
        """f of the batch last evaluated in full, with column i set to ``column``."""
        if self._x0 is None:
            raise RuntimeError("probe needs a batch evaluated first")
        column = np.asarray(column, dtype=float)
        if column.shape != self._x0.shape[:1]:
            raise ValueError(f"probe column has shape {column.shape}, expected {self._x0.shape[:1]}")
        return self._rank1(i, column)

    def _heads(self, n: int, load):
        """(rows, head values) for each tile of range(n), a slice and the
        head of a scratch block after ``load(block, rows)`` filled it.
        A last stretch shorter than TILE_MIN_ROWS joins the tile before it.
        The block is this call's alone until the last tile is done."""
        try:
            scratch = self._blocks.pop()
        except IndexError:  # a third prober at once
            scratch = np.empty(self._block_shape)
        try:
            starts = list(range(0, n - TILE_MIN_ROWS + 1, self._tile)) or [0]
            for start, stop in zip(starts, starts[1:] + [n]):
                block = scratch[:stop - start]
                load(block, slice(start, stop))
                yield slice(start, stop), self.head(block)
        finally:
            self._blocks.append(scratch)

    def _rank1(self, i: int, column: np.ndarray) -> np.ndarray:
        """f of x0 with column i set to ``column``, from the cached h0 and f0."""
        x0_i = self._x0[:, i]
        out = self._f0.copy()
        moved = np.flatnonzero(column != x0_i)
        if moved.size == 0:
            return out
        every = moved.size == column.shape[0]  # then slices stand in for gathers
        delta = column - x0_i if every else column[moved] - x0_i[moved]
        W_i, h0 = self.W[i], self._h0
        piece = max(1, GATHER_FLOATS // h0.shape[1])

        def at(rows):  # the batch rows of the moved rows ``rows``
            return rows if every else moved[rows]

        def load(block, rows):  # h0 + delta W_i, bit for bit as np.multiply.outer
            np.einsum("i,j->ij", delta[rows], W_i, out=block)
            if every:
                block += h0[rows]
                return
            gathered = moved[rows]
            for k in range(0, gathered.size, piece):
                block[k:k + piece] += h0[gathered[k:k + piece]]

        for rows, f in self._heads(moved.size, load):
            out[at(rows)] = f
        return out


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and the mean dimension built from them.

    ``md`` and ``std_err_md`` are None when the variance estimate falls
    below 1e-12 (constant function on the sampled region);
    ``participation_ratio`` is None when the total influence is zero.
    """

    tau_sq: np.ndarray
    sigma_sq: float
    md: float | None
    participation_ratio: float | None
    n_samples: int
    std_err_md: float | None
    seed: int

    @property
    def dim(self) -> int:
        return self.tau_sq.shape[0]

    @property
    def total_influence(self) -> float:
        return float(self.tau_sq.sum())


def _participation_ratio(tau_sq: np.ndarray) -> float | None:
    total = float(tau_sq.sum())
    if total <= 0.0:
        return None
    tau = np.sqrt(np.maximum(tau_sq, 0.0))
    return float(tau_sq.shape[0] * total / tau.sum() ** 2)


def _check_finite(values: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(values)))[0])
        raise ScoreEvaluationError(f"score function returned a non-finite value ({where}, flat offset {bad})")


def _chunk_size(dim: int) -> int:
    return max(64, (1 << 21) // max(dim, 1))


def _openblas_thread_controls():
    """(get, set) of the thread count of the OpenBLAS that the numpy wheel
    ships in numpy.libs, loaded by path; the one BLAS that meandim calls."""
    controls = []
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        controls.append((get, put))
    return controls


@contextlib.contextmanager
def _blas_threads(jobs: int):
    """Run the body with numpy's OpenBLAS capped at max(1, cores // jobs)
    threads when jobs > 1, so that jobs threads calling BLAS at once (the
    cells of a pool, or the probers of a paired estimate) do not
    oversubscribe the cores; a library already set to fewer threads (say by
    OPENBLAS_NUM_THREADS) keeps its count. The count the getter read is
    restored afterwards. A library or symbol that is missing is left alone."""
    controls = _openblas_thread_controls() if jobs > 1 else []
    saved = [get() for get, _ in controls]
    for (_, put), count in zip(controls, saved):
        put(min(count, max(1, (os.cpu_count() or 1) // jobs)))
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def _paired(probe) -> bool:
    """Whether ``_accumulate`` probes on two threads: the score has a
    ``probe``, the caller is the main thread and the process may use two
    CPUs or more."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return (probe is not None and cpus >= 2
            and threading.current_thread() is threading.main_thread())


def _accumulate(f, sampler: InputSampler, n_samples: int, seed: int, mode: str,
                n_outputs: int):
    """Run the estimation stream, seeded by (seed, 0).

    Returns per-batch accumulators: tau sums (N_BATCHES, dim, n_outputs),
    sums and square sums of f minus the stream's first background value
    (N_BATCHES, n_outputs), and batch sizes; sample j belongs to batch
    j * N_BATCHES // n_samples. The shift keeps a large offset of f from
    cancelling the variance away.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    dim = sampler.dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    tau_sums = np.zeros((N_BATCHES, dim, n_outputs))
    f_sum = np.zeros((N_BATCHES, n_outputs))
    f_sq_sum = np.zeros((N_BATCHES, n_outputs))
    batch_count = np.zeros(N_BATCHES, dtype=np.int64)

    def checked(out, m: int, where: str) -> np.ndarray:
        out = np.asarray(out, dtype=float)
        expected = (m,) if n_outputs == 1 else (m, n_outputs)
        if out.shape != expected:
            raise ValueError(f"score function returned shape {out.shape}, expected {expected}")
        _check_finite(out, where)
        return out.reshape(m, n_outputs)

    probe = getattr(f, "probe", None)
    scale = 0.5 if mode == "resample" else 0.25
    step = 2 if _paired(probe) else 1

    def column(i: int) -> np.ndarray:
        if mode == "resample":
            return sampler.resample_coordinate(rng, m)
        return -x[:, i]  # flip: compare the two spin states of coordinate i

    def evaluate(i: int, col: np.ndarray):
        if probe is not None:
            return probe(i, col)
        saved = x[:, i].copy()
        x[:, i] = col
        other = np.array(f(x), dtype=float)  # a copy: f may return a view of x
        x[:, i] = saved
        return other

    def add_influences(coords: range) -> None:
        """Probe coords, the second one (if any) on the worker, and add
        their influences in coordinate order; the arrays die on return."""
        columns = [column(j) for j in coords]  # drawn in coordinate order
        pending = [worker.submit(probe, j, col) for j, col in zip(coords[1:], columns[1:])]
        try:
            outs = [evaluate(coords[0], columns[0])]
        finally:
            wait(pending)  # the worker's probe ends before anything is raised
        for j, other in zip(coords, outs + pending):
            if j != coords[0]:  # read only after the first coordinate passed its check
                other = other.result()
            other = checked(other, m, f"coordinate {j}, {samples}")
            np.add.at(tau_sums, (batches, j), scale * (base - other) ** 2)

    done = 0
    chunk = _chunk_size(dim)
    with contextlib.ExitStack() as stack:
        if step == 2:
            stack.enter_context(_blas_threads(2))
            worker = stack.enter_context(ThreadPoolExecutor(max_workers=1,
                                                         thread_name_prefix="meandim-probe"))
        while done < n_samples:
            m = min(chunk, n_samples - done)
            samples = f"samples {done}..{done + m - 1}"
            x = sampler.sample_background(rng, m)
            base = checked(f(x), m, f"background {samples}")
            if done == 0:
                origin = base[0].copy()
            batches = np.arange(done, done + m) * N_BATCHES // n_samples
            shifted = base - origin
            np.add.at(f_sum, batches, shifted)
            shifted *= shifted
            np.add.at(f_sq_sum, batches, shifted)
            np.add.at(batch_count, batches, np.ones(m, dtype=np.int64))
            for i in range(0, dim, step):
                add_influences(range(i, min(i + step, dim)))
            done += m
    return tau_sums, f_sum, f_sq_sum, batch_count


def _assemble(tau_sums, f_sum, f_sq_sum, batch_count, n_samples, seed, output: int) -> InfluenceProfile:
    counts = batch_count.astype(float)
    tau_sq = tau_sums[:, :, output].sum(axis=0) / n_samples
    mean = f_sum[:, output].sum() / n_samples
    sigma_sq = float(f_sq_sum[:, output].sum() / n_samples - mean**2)
    md = std_err = None
    if sigma_sq >= SIGMA_SQ_FLOOR:
        md = float(tau_sq.sum() / sigma_sq)
        batch_mean = f_sum[:, output] / counts
        batch_sigma = f_sq_sum[:, output] / counts - batch_mean**2
        batch_tau = tau_sums[:, :, output].sum(axis=1) / counts
        with np.errstate(divide="ignore", invalid="ignore"):
            batch_md = batch_tau / batch_sigma
        if np.all(np.isfinite(batch_md)):
            std_err = float(np.std(batch_md, ddof=1) / np.sqrt(N_BATCHES))
    return InfluenceProfile(
        tau_sq=tau_sq,
        sigma_sq=sigma_sq,
        md=md,
        participation_ratio=_participation_ratio(tau_sq),
        n_samples=n_samples,
        std_err_md=std_err,
        seed=seed,
    )


def estimate_md(f, sampler: InputSampler, n_samples: int, seed: int) -> InfluenceProfile:
    """Estimate influences and mean dimension by coordinate resampling.

    Parameters
    ----------
    f : callable
        Batched score function mapping an (m, n) input array to m reals.
    sampler : InputSampler
        Background and resampling distribution; its dim must match f.
    n_samples : int
        Number of background draws (>= 100). Each draw costs n+1
        evaluations of f because every coordinate is probed.
    seed : int
        Results are bit-identical for identical (f, sampler, n_samples,
        seed).
    """
    acc = _accumulate(f, sampler, n_samples, seed, mode="resample", n_outputs=1)
    return _assemble(*acc, n_samples, seed, output=0)


def estimate_md_binary_fast(f, n: int, n_samples: int, seed: int) -> InfluenceProfile:
    """Estimate mean dimension of f on the spin cube via discrete derivatives.

    For each background the two states of coordinate i are compared
    directly, tau_i^2 = mean of ((f(s_i -> +1) - f(s_i -> -1)) / 2)^2, which
    has the same expectation as ``estimate_md`` with the binary sampler but
    never wastes a draw on an unchanged coordinate. The shared-background
    evaluation makes this n+1 (not 2n) calls per sample.
    """
    acc = _accumulate(f, InputSampler.binary(n), n_samples, seed, mode="flip", n_outputs=1)
    return _assemble(*acc, n_samples, seed, output=0)


def estimate_md_best(f, sampler: InputSampler, n_samples: int, seed: int) -> InfluenceProfile:
    """``estimate_md`` under sampler, except that the binary sampler takes
    the lower-variance ``estimate_md_binary_fast``."""
    if sampler.kind == "binary":
        return estimate_md_binary_fast(f, sampler.dim, n_samples, seed)
    return estimate_md(f, sampler, n_samples, seed)


def estimate_md_multioutput(f, n_outputs: int, sampler: InputSampler, n_samples: int,
                            seed: int) -> list[InfluenceProfile]:
    """Profile several score functions that share one forward pass.

    ``f`` maps (m, n) inputs to an (m, n_outputs) block (for example the
    per-class log-probabilities of a classifier); one profile per column is
    returned, all computed by coordinate resampling from the same
    background stream.
    """
    acc = _accumulate(f, sampler, n_samples, seed, mode="resample", n_outputs=n_outputs)
    return [_assemble(*acc, n_samples, seed, output=k) for k in range(n_outputs)]


def influence_heatmap(profile: InfluenceProfile, width: int, height: int) -> np.ndarray:
    """Min-max normalize tau_i^2 onto a (height, width) grid, row-major.

    A flat profile (all influences equal) maps to a grid of ones.
    """
    if width * height != profile.dim:
        raise ValueError(f"grid {width}x{height} does not cover {profile.dim} coordinates")
    tau_sq = profile.tau_sq
    lo, hi = float(tau_sq.min()), float(tau_sq.max())
    if hi - lo < 1e-300:
        return np.ones((height, width))
    return ((tau_sq - lo) / (hi - lo)).reshape(height, width)


# ---------------------------------------------------------------------------
# text output: CSV for the influence vector, flat key-value summary text

def profile_csv_lines(profile: InfluenceProfile) -> list:
    """The influence CSV: header i,tau_sq, then one line per coordinate."""
    return csv_lines(("i", "tau_sq"), enumerate(profile.tau_sq.tolist()))


def _format_value(value: float | int | None) -> str:
    return "undefined" if value is None else repr(value)


def profile_summary(profile: InfluenceProfile) -> str:
    pairs = [
        ("md", profile.md),
        ("sigma_sq", profile.sigma_sq),
        ("participation_ratio", profile.participation_ratio),
        ("std_err_md", profile.std_err_md),
        ("n_samples", profile.n_samples),
        ("seed", profile.seed),
    ]
    return lines_text(f"{key} = {_format_value(value)}" for key, value in pairs)
