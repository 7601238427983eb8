"""The benchmark's metric map: one row per metric, the single source of truth.

End-to-end rows carry the bound by which a later change may worsen the
median before it counts as a regression. Per-layer rows name the package
module they measure and the end-to-end metric and workload they should
move, so a later change can cite a pairing by name. ``BENCHMARK.json``
lists the same names, units and directions; ``test_bench.py`` checks that
they agree.
"""

WORKLOADS = {
    "md-estimate": (
        "Exact WHT, Monte Carlo on a lookup score, meandim md on a ridge-trained "
        "RFM and the multi-output estimator on an MLP: estimator and score do "
        "nearly all the work."),
    "theory-curve": (
        "meandim theory mse and ce curves, leaky-relu kappa quadrature and a "
        "bounded ce stall probe: only the replica solver and quadrature work."),
    "rfm-sweep": (
        "meandim run double-descent-rfm with widths up to 1200 at --jobs 2: "
        "closed-form ridge, analytic_bmd and the parallel cell pool, no Monte Carlo."),
    "mlp-train": (
        "meandim run adversarial-init plus a small robustness-sweep: minibatch "
        "Adam, per-epoch metrics, the multi-output estimator and the flip walk."),
}

# BLAS threads in every workload process, set in its environment. On the
# shared 2-core machine a second BLAS thread made md-estimate about a fifth
# faster but doubled its run-to-run spread; rfm-sweep's two cell threads are
# the only workload that uses both cores.
BLAS_THREADS = 1

# name, unit, better, bound, what it is
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "process start, import meandim and input generation; median of 5 set-ups"),
    ("wall_s", "s", "lower", 0.25,
     "median wall time of one pass over the workload's operations"),
    ("items_per_s", "1/s", "higher", 0.25,
     "work per second of pass wall time: score rows on md-estimate, converged "
     "saddle points on theory-curve, experiment cells on rfm-sweep and mlp-train"),
    ("success_rate", "ratio", "higher", 0.01,
     "1 - error_rate: operations that neither raised, missed an oracle nor showed a "
     "known defect (a stalled ce probe), over those attempted"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload process"),
)

# name, unit, better, module, moves (end-to-end metric on workload), what it is
PER_LAYER = (
    ("boolfn.wht.calls", "count", "lower", "boolfn", "wall_s on md-estimate",
     "walsh_hadamard calls per pass"),
    ("boolfn.wht.s", "s", "lower", "boolfn", "wall_s on md-estimate",
     "time inside walsh_hadamard per pass"),
    ("boolfn.wht.bytes_computed", "bytes", "lower", "boolfn", "wall_s on md-estimate",
     "computed from array sizes, not measured: 16 * 2^n * (n + 2) per transform"),
    ("boolfn.self_s", "s", "lower", "boolfn", "wall_s on md-estimate",
     "boolfn span time minus its child spans"),
    ("estimator.calls", "count", "lower", "estimator", "md-estimate items_per_s and wall_s",
     "estimate_md* calls per pass"),
    ("estimator.s", "s", "lower", "estimator", "md-estimate items_per_s and wall_s",
     "time inside estimate_md* per pass"),
    ("estimator.score_evals", "count", "lower", "estimator",
     "md-estimate items_per_s and wall_s", "score-function rows evaluated per pass (exact)"),
    ("estimator.score_s", "s", "lower", "estimator",
     "md-estimate items_per_s and wall_s; mlp-train items_per_s",
     "time inside the score function handed to the estimator"),
    ("estimator.self_s", "s", "lower", "estimator",
     "md-estimate items_per_s and wall_s; mlp-train items_per_s",
     "estimator.s minus estimator.score_s"),
    ("estimator.evals_per_s", "1/s", "higher", "estimator",
     "md-estimate items_per_s and wall_s", "score_evals over estimator.s"),
    ("estimator.std_err_md", "md", "lower", "estimator", "md-estimate wall_s",
     "median std_err_md over the pass's estimates (multi-output: median over outputs)"),
    ("estimator.cost_s_se2", "s", "lower", "estimator", "md-estimate wall_s",
     "sum over estimates of seconds * std_err_md^2: the cost of a unit of precision"),
    ("estimator.affine_md_rel_err", "ratio", "lower", "estimator",
     "none yet: the affine-invariance fix should bring it to 0",
     "known-defect probe: |md(f + 1e8) - md(f)| / md(f) on the n=10 table, a "
     "missing md reading 1; measured on md-estimate only, 0 elsewhere"),
    ("rfm.kappas.calls", "count", "lower", "rfm", "wall_s on theory-curve",
     "compute_kappas calls per pass"),
    ("rfm.kappas.s", "s", "lower", "rfm", "wall_s on theory-curve",
     "time inside compute_kappas per pass"),
    ("rfm.analytic_bmd.calls", "count", "lower", "rfm", "items_per_s on rfm-sweep",
     "analytic_bmd calls per pass"),
    ("rfm.analytic_bmd.s", "s", "lower", "rfm", "items_per_s on rfm-sweep",
     "time inside analytic_bmd per pass"),
    ("rfm.self_s", "s", "lower", "rfm", "items_per_s on rfm-sweep",
     "rfm span time minus its child spans"),
    ("trainer.ridge.calls", "count", "lower", "trainer", "items_per_s on rfm-sweep",
     "train_rfm_ridge calls per pass"),
    ("trainer.ridge.s", "s", "lower", "trainer", "items_per_s on rfm-sweep",
     "time inside train_rfm_ridge per pass"),
    ("trainer.train_gd.calls", "count", "lower", "trainer", "items_per_s on mlp-train",
     "train_gd calls per pass"),
    ("trainer.train_gd.s", "s", "lower", "trainer", "items_per_s on mlp-train",
     "time inside train_gd per pass"),
    ("trainer.epochs", "count", "lower", "trainer", "items_per_s on mlp-train",
     "epochs run by train_gd per pass (exact, from the returned history)"),
    ("trainer.epoch_ms", "ms", "lower", "trainer", "items_per_s on mlp-train",
     "train_gd time per epoch"),
    ("trainer.nonconverged", "count", "lower", "trainer", "items_per_s on mlp-train",
     "train_gd results with converged false, per pass"),
    ("trainer.multiclass_bmd.s", "s", "lower", "trainer", "items_per_s on mlp-train",
     "time inside multiclass_bmd per pass"),
    ("trainer.flip_count.s", "s", "lower", "trainer", "items_per_s on mlp-train",
     "time inside robustness_flip_count per pass"),
    ("trainer.flip_count.points", "count", "lower", "trainer", "items_per_s on mlp-train",
     "points walked by robustness_flip_count per pass"),
    ("trainer.self_s", "s", "lower", "trainer", "items_per_s on mlp-train",
     "trainer span time minus its child spans"),
    ("replica.solve.calls", "count", "lower", "replica", "items_per_s on theory-curve",
     "solve_saddle calls per pass (exact)"),
    ("replica.solve_mse.s", "s", "lower", "replica", "items_per_s on theory-curve",
     "time inside solve_saddle for mse inputs per pass"),
    ("replica.solve_ce.s", "s", "lower", "replica", "items_per_s on theory-curve",
     "time inside solve_saddle for ce inputs per pass"),
    ("replica.s_per_point", "s", "lower", "replica", "items_per_s on theory-curve",
     "solve_saddle time per call"),
    ("replica.observables.s", "s", "lower", "replica", "items_per_s on theory-curve",
     "time inside observables per pass"),
    ("replica.converged_ratio", "ratio", "higher", "replica", "success_rate on theory-curve",
     "solve_saddle calls that converged over calls, the stall probe included"),
    ("replica.probe_residual", "residual", "lower", "replica", "wall_s on theory-curve",
     "known-defect probe: last residual the ce stall probe reports (0 when it "
     "converges or is not run)"),
    ("replica.self_s", "s", "lower", "replica", "items_per_s on theory-curve",
     "replica span time minus its child spans"),
    ("experiments.cells", "count", "higher", "experiments", "items_per_s on rfm-sweep",
     "experiment cells run per pass (exact)"),
    ("experiments.run.s", "s", "lower", "experiments", "items_per_s on rfm-sweep",
     "time inside run_experiment per pass"),
    ("experiments.self_s", "s", "lower", "experiments", "items_per_s on rfm-sweep",
     "run_experiment and cell time minus the trainer, rfm and estimator spans "
     "under them, summed over threads"),
    ("experiments.pool_busy_ratio", "ratio", "higher", "experiments",
     "items_per_s on rfm-sweep", "cell-busy seconds / (run_experiment wall * jobs)"),
    ("experiments.artifact_bytes", "bytes", "lower", "experiments", "items_per_s on rfm-sweep",
     "bytes of artifacts meandim run wrote per pass"),
    ("cli.calls", "count", "lower", "cli", "wall_s on theory-curve and md-estimate",
     "cli.main calls per pass"),
    ("cli.self_s", "s", "lower", "cli", "wall_s on theory-curve and md-estimate",
     "cli span time minus its child spans: argument parsing and CSV formatting"),
    ("cli.stdout_bytes", "bytes", "lower", "cli", "wall_s on theory-curve and md-estimate",
     "bytes cli.main wrote to stdout per pass"),
    ("trace.overhead_s", "s", "lower", "bench", "none: the cost of tracing itself",
     "median traced pass wall minus median untraced pass wall, same process"),
    ("trace.spans", "count", "lower", "bench", "none: the cost of tracing itself",
     "spans recorded per traced pass"),
)
