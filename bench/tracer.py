"""Span tracer for the benchmark's traced passes.

``Tracer.install`` wraps every public function of the seven meandim layers
by replacing module attributes wherever the package binds them (the defining
module and every module that imported the name), so calls between layers go
through the wrappers and ``src/`` is never edited. ``uninstall`` puts the
originals back. Each wrapper records a span (name, start, end, parent) and a
few counts in memory; ``take`` hands them over and starts afresh.

Spans opened in a worker thread with no open span of their own take the
main thread's innermost open span as parent, which is where experiment
cells are submitted from.
"""

import collections
import inspect
import statistics
import sys
import threading
import time

LAYERS = ("boolfn", "estimator", "rfm", "trainer", "replica", "experiments", "cli")
ESTIMATOR_ENTRIES = ("estimate_md", "estimate_md_binary_fast", "estimate_md_multioutput")
SCORE = "score"  # span around the score function handed to the estimator


def _std_errs(result):
    profiles = result if isinstance(result, list) else [result]
    return [p.std_err_md for p in profiles if p.std_err_md is not None]


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self._main_stack = []
        self._local = threading.local()
        self._patched = []
        self._reset()

    def _reset(self):
        self.spans = []           # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.estimates = []       # (span index, [std_err_md per output])

    def take(self):
        """Return (spans, counts, estimates) recorded so far and reset them."""
        out = self.spans, self.counts, self.estimates
        self._reset()
        return out

    # -- spans ------------------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(idx)
        return idx

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def _count(self, name, n):
        with self._lock:
            self.counts[name] += n

    # -- wrappers ---------------------------------------------------------

    def _traced(self, layer, attr, fn):
        name = f"{layer}.{attr}"
        after = getattr(self, f"_after_{layer}_{attr}", None)
        is_entry = layer == "estimator" and attr in ESTIMATOR_ENTRIES
        is_solve = name == "replica.solve_saddle"

        def traced(*args, **kwargs):
            if is_entry:
                args = (self._score(args[0]),) + args[1:]
            span_name = f"{name}.{args[0].loss}" if is_solve else name
            idx = self._begin(span_name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._end(idx)
                if is_solve:
                    self._count("replica.solve.failed", 1)
                raise
            self._end(idx)
            if is_entry:
                with self._lock:
                    self.estimates.append((idx, _std_errs(result)))
            elif after is not None:
                after(result)
            return result

        return traced

    def _score(self, f):
        def score(x):
            idx = self._begin(SCORE)
            try:
                return f(x)
            finally:
                self._end(idx)
                self._count("estimator.score_evals", len(x))
        return score

    def _after_boolfn_walsh_hadamard(self, spectrum):
        self._count("boolfn.wht.bytes_computed", 16 * (1 << spectrum.n) * (spectrum.n + 2))

    def _after_trainer_train_gd(self, fit):
        self._count("trainer.epochs", fit.history.shape[0])
        self._count("trainer.nonconverged", int(not fit.converged))

    def _after_trainer_robustness_flip_count(self, flips):
        self._count("trainer.flip_count.points", flips.n_evaluated)

    def _traced_run_cells(self, run_cells):
        def traced(cell_fn, *args, **kwargs):
            def cell(i, rep):
                idx = self._begin("experiments.cell")
                try:
                    return cell_fn(i, rep)
                finally:
                    self._end(idx)
            return run_cells(cell, *args, **kwargs)
        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"meandim.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[id(fn)] = (fn, self._traced(layer, attr, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "meandim" and not modname.startswith("meandim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        experiments = sys.modules["meandim.experiments"]
        self._patched.append((experiments, "_run_cells", experiments._run_cells))
        experiments._run_cells = self._traced_run_cells(experiments._run_cells)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []


# -- aggregation --------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, counts, estimates, jobs):
    """Per-layer metrics of one traced pass; ratios without a base read 0."""
    children = collections.defaultdict(list)
    for idx, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    by_name = collections.defaultdict(list)
    self_s = collections.Counter()
    for idx, (name, start, end, _) in enumerate(spans):
        by_name[name].append(end - start)
        kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children[idx]]
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - _covered([k for k in kids if k[1] > k[0]])

    def n(name):
        return len(by_name[name])

    def s(name):
        return sum(by_name[name])

    def ratio(a, b):
        return a / b if b else 0.0

    est_s = sum(s(f"estimator.{e}") for e in ESTIMATOR_ENTRIES)
    score_s = s(SCORE)
    solves = n("replica.solve_saddle.mse") + n("replica.solve_saddle.ce")
    solve_s = s("replica.solve_saddle.mse") + s("replica.solve_saddle.ce")
    gd_s = s("trainer.train_gd")
    run_s = s("experiments.run_experiment")
    errs = [statistics.median(e) for _, e in estimates if e]
    cost = sum((spans[i][2] - spans[i][1]) * statistics.fmean(x * x for x in e)
               for i, e in estimates if e)
    m = {
        "boolfn.wht.calls": n("boolfn.walsh_hadamard"),
        "boolfn.wht.s": s("boolfn.walsh_hadamard"),
        "boolfn.wht.bytes_computed": counts["boolfn.wht.bytes_computed"],
        "estimator.calls": sum(n(f"estimator.{e}") for e in ESTIMATOR_ENTRIES),
        "estimator.s": est_s,
        "estimator.score_evals": counts["estimator.score_evals"],
        "estimator.score_s": score_s,
        "estimator.self_s": est_s - score_s,
        "estimator.evals_per_s": ratio(counts["estimator.score_evals"], est_s),
        "estimator.std_err_md": statistics.median(errs) if errs else 0.0,
        "estimator.cost_s_se2": cost,
        "rfm.kappas.calls": n("rfm.compute_kappas"),
        "rfm.kappas.s": s("rfm.compute_kappas"),
        "rfm.analytic_bmd.calls": n("rfm.analytic_bmd"),
        "rfm.analytic_bmd.s": s("rfm.analytic_bmd"),
        "trainer.ridge.calls": n("trainer.train_rfm_ridge"),
        "trainer.ridge.s": s("trainer.train_rfm_ridge"),
        "trainer.train_gd.calls": n("trainer.train_gd"),
        "trainer.train_gd.s": gd_s,
        "trainer.epochs": counts["trainer.epochs"],
        "trainer.epoch_ms": 1000.0 * ratio(gd_s, counts["trainer.epochs"]),
        "trainer.nonconverged": counts["trainer.nonconverged"],
        "trainer.multiclass_bmd.s": s("trainer.multiclass_bmd"),
        "trainer.flip_count.s": s("trainer.robustness_flip_count"),
        "trainer.flip_count.points": counts["trainer.flip_count.points"],
        "replica.solve.calls": solves,
        "replica.solve_mse.s": s("replica.solve_saddle.mse"),
        "replica.solve_ce.s": s("replica.solve_saddle.ce"),
        "replica.s_per_point": ratio(solve_s, solves),
        "replica.observables.s": s("replica.observables"),
        "replica.converged_ratio": ratio(solves - counts["replica.solve.failed"], solves),
        "experiments.cells": n("experiments.cell"),
        "experiments.run.s": run_s,
        "experiments.pool_busy_ratio": ratio(s("experiments.cell"), run_s * jobs),
        "cli.calls": n("cli.main"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m.setdefault(f"{layer}.self_s", self_s[layer])
    return m
