"""Command line front end.

Three subcommands:

  meandim run <config> [--out DIR] [--jobs K]
      Run a config-driven experiment and list the written artifacts.

  meandim md <model-checkpoint> --sampler binary|gaussian|uniform|empirical
             --samples M --seed S [--data CSV] [--lo X --hi Y]
             [--profile-out CSV]
      Estimate the mean dimension of a saved RFM checkpoint.

  meandim theory --loss mse|ce --alpha-t X --lambda Y
                 --grid LO HI N [--delta D] [--activation TAG] [--out CSV]
      Solve the replica curve on a log-spaced 1/alpha grid.

Bad input exits with code 2 and a `meandim <command>: <reason>` line on
stderr: a missing file, a malformed or truncated checkpoint, a malformed
config or a config value out of its range (checked before any experiment
cell runs).
"""

import argparse
import sys

import numpy as np

from .estimator import (InputSampler, estimate_md, estimate_md_binary_fast,
                        profile_summary, write_profile_csv)
from .experiments import load_experiment_config, run_experiment
from .replica import _curve_lines, sweep_curve, write_curve_csv
from .rfm import Activation, compute_kappas, load_rfm, score_fn
from .textio import lines_text, read_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandim",
        description="mean dimension estimation and double descent analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a config-driven experiment")
    run_p.add_argument("config", help="flat key-value config file")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--jobs", type=int, default=None,
                       help="worker threads for experiment cells")

    md_p = sub.add_parser("md", help="estimate MD of a saved RFM checkpoint")
    md_p.add_argument("checkpoint", help="model file written by save_rfm")
    md_p.add_argument("--sampler", required=True,
                      choices=("binary", "gaussian", "uniform", "empirical"))
    md_p.add_argument("--samples", type=int, required=True,
                      help="number of Monte Carlo background draws")
    md_p.add_argument("--seed", type=int, required=True)
    md_p.add_argument("--data", default=None,
                      help="numeric CSV of rows (required for --sampler empirical)")
    md_p.add_argument("--lo", type=float, default=-1.0,
                      help="lower resampling bound (uniform/empirical)")
    md_p.add_argument("--hi", type=float, default=1.0,
                      help="upper resampling bound (uniform/empirical)")
    md_p.add_argument("--profile-out", default=None,
                      help="write the per-coordinate influence CSV here")

    th_p = sub.add_parser("theory", help="solve the replica curve on a grid")
    th_p.add_argument("--loss", required=True, choices=("mse", "ce"))
    th_p.add_argument("--alpha-t", type=float, required=True,
                      help="samples per input dimension P/D")
    th_p.add_argument("--lambda", dest="lam", type=float, required=True,
                      help="ridge strength")
    th_p.add_argument("--grid", nargs=3, metavar=("LO", "HI", "N"), required=True,
                      help="log-spaced 1/alpha grid: lower, upper, point count")
    th_p.add_argument("--delta", type=float, default=0.0,
                      help="teacher label noise variance")
    th_p.add_argument("--activation", default="tanh",
                      help="activation tag, e.g. tanh or leaky-relu:0.1")
    th_p.add_argument("--out", default=None, help="write the curve CSV here")
    return parser


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    paths = run_experiment(config, out_dir=args.out, jobs=args.jobs)
    for path in paths:
        print(path)
    return 0


def _make_sampler(args, dim: int) -> InputSampler:
    if args.sampler == "binary":
        return InputSampler.binary(dim)
    if args.sampler == "gaussian":
        return InputSampler.gaussian(dim)
    if args.sampler == "uniform":
        return InputSampler.uniform(dim, args.lo, args.hi)
    if args.data is None:
        raise ValueError("--sampler empirical requires --data CSV")
    lines = read_text(args.data).splitlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError(f"{args.data}: no data rows")
    try:
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None
    if rows.shape[1] != dim:
        raise ValueError(f"{args.data}: {rows.shape[1]} columns, model expects {dim}")
    return InputSampler.empirical(rows, args.lo, args.hi)


def _cmd_md(args) -> int:
    model = load_rfm(args.checkpoint)
    f = score_fn(model)
    if args.sampler == "binary":
        profile = estimate_md_binary_fast(f, model.D, args.samples, args.seed)
    else:
        sampler = _make_sampler(args, model.D)
        profile = estimate_md(f, sampler, args.samples, args.seed)
    sys.stdout.write(profile_summary(profile))
    if args.profile_out is not None:
        write_profile_csv(args.profile_out, profile)
        print(f"profile: {args.profile_out}")
    return 0


def _cmd_theory(args) -> int:
    lo, hi, n = float(args.grid[0]), float(args.grid[1]), int(args.grid[2])
    if not (0 < lo < hi) or n < 2:
        raise ValueError("--grid needs 0 < LO < HI and N >= 2")
    kappas = compute_kappas(Activation.from_tag(args.activation))
    grid = np.logspace(np.log10(lo), np.log10(hi), n)
    rows = sweep_curve(kappas, args.loss, args.lam, args.alpha_t, grid,
                       delta=args.delta)
    sys.stdout.write(lines_text(_curve_lines(rows)))
    if args.out is not None:
        write_curve_csv(args.out, rows)
    return 0


_COMMANDS = {"run": _cmd_run, "md": _cmd_md, "theory": _cmd_theory}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"meandim {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
