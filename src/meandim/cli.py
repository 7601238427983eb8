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

Bad input exits with code 2, nothing on stdout and one `meandim <command>:
<reason>` line on stderr: a missing file, a malformed or truncated
checkpoint (or one with D or N below 1 or a non-finite weight), a
malformed config, a config value out of its range or a sweep list that is
not strictly increasing (checked before any experiment cell runs), sampler
bounds that are not finite with --lo < --hi, a --data cell that is not a
finite number, or a theory value (--alpha-t, --lambda, --delta, --grid)
that is not finite and in range; a theory config is also checked as the
replica input at both ends of its grid. The layer type that owns a value
checks it; the commands only map flags. A config that parses but whose
experiment cell fails (say, lam = 0 past the interpolation threshold, or a
learning rate that diverges) exits 1 with one `meandim run: experiment cell
<coordinate>, rep=<r> failed: <cause>` line on stderr and writes no file.
When k of the n points of a theory curve do not converge, `meandim
theory` prints one `meandim theory: k of n points did not converge` line
on stderr; the curve, with those points as NaN rows, still goes to stdout
and --out unless no point converged, in which case it exits 1 with
nothing on stdout and writes no file. `meandim run` puts the same count in
the summary of a theory kind, and a curve with no converged point exits 1
with one `meandim run: theory lam=<lam>: n of n points did not converge`
line and writes no file.
An --out or --profile-out path that cannot be written is bad input
too: the command writes the file before it prints anything.
"""

import argparse
import sys

import numpy as np

from .estimator import (SAMPLER_KINDS, InputSampler, estimate_md, estimate_md_binary_fast,
                        profile_csv_lines, profile_summary)
from .experiments import CellError, load_experiment_config, run_experiment
from .replica import curve_lines, log_grid, sweep_curve
from .rfm import Activation, compute_kappas, load_rfm, score_fn
from .textio import lines_text, read_text, write_text

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
    md_p.add_argument("--sampler", required=True, choices=SAMPLER_KINDS)
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
    if args.data is None:
        return InputSampler(args.sampler, dim, args.lo, args.hi)
    lines = read_text(args.data).splitlines()
    try:
        if not any(line.split("#", 1)[0].strip() for line in lines):
            raise ValueError("no data rows")
        rows = np.loadtxt(lines, delimiter=",", ndmin=2)
        return InputSampler(args.sampler, dim, args.lo, args.hi, rows)
    except ValueError as exc:
        raise ValueError(f"{args.data}: {exc}") from None


def _cmd_md(args) -> int:
    model = load_rfm(args.checkpoint)
    sampler = _make_sampler(args, model.D)
    if sampler.kind == "binary":  # spin flips: the lower-variance route on the cube
        profile = estimate_md_binary_fast(score_fn(model), model.D, args.samples, args.seed)
    else:
        profile = estimate_md(score_fn(model), sampler, args.samples, args.seed)
    summary = profile_summary(profile)
    if args.profile_out is not None:
        write_text(args.profile_out, profile_csv_lines(profile))
        summary += f"profile: {args.profile_out}\n"
    sys.stdout.write(summary)
    return 0


def _cmd_theory(args) -> int:
    grid = log_grid(float(args.grid[0]), float(args.grid[1]), int(args.grid[2]))
    kappas = compute_kappas(Activation.from_tag(args.activation))
    rows = sweep_curve(kappas, args.loss, args.lam, args.alpha_t, grid,
                       delta=args.delta)
    failed = sum(not row.converged for row in rows)
    lines = curve_lines(rows)
    if args.out is not None and failed < len(rows):
        write_text(args.out, lines)
    if failed:
        print(f"meandim theory: {failed} of {len(rows)} points did not converge",
              file=sys.stderr)
        if failed == len(rows):
            return 1
    sys.stdout.write(lines_text(lines))
    return 0


_COMMANDS = {"run": _cmd_run, "md": _cmd_md, "theory": _cmd_theory}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, CellError) as exc:
        print(f"meandim {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CellError) else 2


if __name__ == "__main__":
    sys.exit(main())
