"""Artifact-hash oracle: the sha256 of every artifact of a fixed set of runs.

Experiment and CLI outputs are byte-deterministic, so a refactor that keeps
the numbers keeps every hash. Run the oracle on a copy of the parent commit
and on the change, and compare:

    git archive HEAD | tar -x -C ../parent
    python tests/artifact_oracle.py --src ../parent/src > parent.json
    python tests/artifact_oracle.py --src src --against parent.json

--src names the directory that holds the ``meandim`` package. The oracle
prints one JSON object {artifact name: sha256}; with --against FILE it
prints instead each name whose hash differs from FILE's, or that only one
side has, and exits 1 when there is any. The runs, all in a temporary
directory named by relative paths so that no output holds a path:

- each config of tests/tiny_configs.py parsed: its seed, reps, out_dir,
  jobs and params items in order; and the parse of a config that holds
  only its `kind` line (an error line, or the parsed fields for a kind
  with no required field);
- each config of tests/tiny_configs.py at --jobs 1 and 2: every file, and
  the file names in the order run_experiment returns them;
- the benchmark's double-descent-rfm (--jobs 2), adversarial-init and
  robustness-sweep configs at seed 0;
- `meandim md` stdout and --profile-out for each sampler, on a
  ridge-trained D = 12 and D = 1 checkpoint (each itself hashed) and a
  fixed data file of matching width;
- the benchmark's md-estimate shapes, whose coordinate probes span
  several head tiles of ``LinearFirstLayer``: `meandim md` stdout and
  --profile-out for the binary and gaussian samplers at 2,000 samples on
  a ridge-trained D = 100, N = 200 checkpoint (itself hashed), and the
  repr of ``multiclass_bmd`` for an untrained 100 -> 1024 -> 10 MLP at
  1,000 binary samples;
- `meandim theory` stdout and --out for mse and ce at lambda = 1e-4 and
  mse at lambda = 0;
- criterion 13's saddle audit (``saddle_audit`` of test_acceptance.py):
  the repr of each of its 50 solve_saddle solutions, and the repr of the
  worst finite-difference gradient.

A run that fails stops the oracle with its error. The file is not a test
module; pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

# bench/workload.py's setup_rfm_sweep and setup_mlp_train at seed 0
BENCH_CONFIGS = {
    "double-descent-rfm": (2, "kind = double-descent-rfm\nseed = 0\nreps = 8\ndim = 100\n"
                              "n_train = 300\nwidths = 30 60 100 150 200 250 300 350 420 "
                              "600 900 1200\nlabel_noise_fraction = 0.1\nlam = 1e-4\n"),
    "adversarial-init": (1, "kind = adversarial-init\nseed = 0\nreps = 1\ndim = 100\n"
                            "n_train = 1000\nwidth = 1024\npretrain_grid = 0 2 5 10\n"
                            "epochs = 5\nmd_samples = 500\n"),
    "robustness-sweep": (1, "kind = robustness-sweep\nseed = 0\nreps = 1\ndim = 100\n"
                            "n_train = 200\nwidths = 8 16 32 64\nepochs = 40\n"
                            "md_samples = 200\nflip_points = 50\n"),
}
THEORY = (("mse", "1e-4"), ("ce", "1e-4"), ("mse", "0"))
THEORY_GRID = ("0.25", "4", "6")  # no point within 5% of 1/alpha = 1, singular at lambda = 0


def _import_meandim(src):
    sys.path[:0] = [src, HERE]
    import meandim
    want = os.path.join(os.path.abspath(src), "meandim")
    if os.path.dirname(os.path.abspath(meandim.__file__)) != want:
        raise SystemExit(f"meandim imported from {meandim.__file__}, not from {want}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _cli(argv) -> str:
    from meandim.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"meandim {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _configs(hashes):
    from meandim.experiments import parse_experiment_config
    from tiny_configs import TINY

    def parsed(text):
        try:
            cfg = parse_experiment_config(text)
        except ValueError as exc:
            return str(exc)
        return repr((cfg.seed, cfg.reps, cfg.out_dir, cfg.jobs, tuple(cfg.params.items())))

    for kind, text in TINY.items():
        hashes[f"config/{kind}"] = _sha(parsed(text).encode())
        hashes[f"config/{kind}/kind-only"] = _sha(parsed(f"kind = {kind}").encode())


def _experiments(hashes):
    from meandim.experiments import parse_experiment_config, run_experiment
    from tiny_configs import TINY

    runs = [(f"tiny/{kind}/jobs{jobs}", text, jobs)
            for kind, text in TINY.items() for jobs in (1, 2)]
    runs += [(f"bench/{kind}", text, jobs) for kind, (jobs, text) in BENCH_CONFIGS.items()]
    for name, text, jobs in runs:
        paths = run_experiment(parse_experiment_config(text), out_dir=name, jobs=jobs)
        names = [os.path.basename(p) for p in paths]
        hashes[f"{name}/names"] = _sha("\n".join(names).encode())
        for path, fname in zip(paths, names):
            hashes[f"{name}/{fname}"] = _file_sha(path)


def _md(hashes):
    import numpy as np

    from meandim.estimator import SAMPLER_KINDS
    from meandim.rfm import Activation, random_rfm, save_rfm
    from meandim.trainer import TeacherTask, gen_teacher_student, train_rfm_ridge

    def md_runs(model, dim, samplers):
        """Hash the checkpoint d{dim}.rfm and the md runs on it."""
        name = f"md/d{dim}"
        save_rfm(f"d{dim}.rfm", model)
        hashes[f"{name}.rfm"] = _file_sha(f"d{dim}.rfm")
        for sampler in samplers:
            out = f"md-d{dim}-{sampler}.csv"
            argv = ["md", f"d{dim}.rfm", "--sampler", sampler, "--samples", "2000",
                    "--seed", "0", "--profile-out", out]
            if sampler == "empirical":
                argv += ["--data", f"rows{dim}.csv"]
            hashes[f"{name}/{sampler}/stdout"] = _sha(_cli(argv).encode())
            hashes[f"{name}/{sampler}/profile.csv"] = _file_sha(out)

    for dim in (12, 1):
        task = TeacherTask.random(dim, seed=0)
        train, _ = gen_teacher_student(dim, 40, 10, task, seed=0)
        fit = train_rfm_ridge(random_rfm(dim, 30, Activation.tanh(), seed=0), train, 1e-2)
        rows = np.random.default_rng(0).uniform(-1.0, 1.0, size=(50, dim))
        with open(f"rows{dim}.csv", "w", encoding="ascii") as fh:
            fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        md_runs(fit.model, dim, SAMPLER_KINDS)

    # bench/workload.py's setup_md_estimate at seed 0
    task = TeacherTask.random(100, seed=0, input_kind="binary")
    train, _ = gen_teacher_student(100, 300, 10, task, seed=0)
    fit = train_rfm_ridge(random_rfm(100, 200, Activation.tanh(), seed=0), train, 1e-4)
    md_runs(fit.model, 100, ("binary", "gaussian"))


def _mlp_bmd(hashes):
    from meandim.estimator import InputSampler
    from meandim.trainer import init_mlp, multiclass_bmd

    bmd = multiclass_bmd(init_mlp(100, 1024, 10, seed=0), InputSampler.binary(100), 1000, 0)
    hashes["mlp-bmd/d100-w1024-c10"] = _sha(repr(bmd).encode())


def _theory(hashes):
    for loss, lam in THEORY:
        name = f"theory/{loss}-lam{lam}"
        out = f"theory-{loss}-{lam}.csv"
        stdout = _cli(["theory", "--loss", loss, "--alpha-t", "3", "--lambda", lam,
                       "--grid", *THEORY_GRID, "--out", out])
        hashes[f"{name}/stdout"] = _sha(stdout.encode())
        hashes[f"{name}/out.csv"] = _file_sha(out)


def _saddle_audit(hashes):
    from test_acceptance import saddle_audit

    solutions, worst = saddle_audit()
    for i, sol in enumerate(solutions):
        hashes[f"c13/solution{i:02d}"] = _sha(repr(sol).encode())
    hashes["c13/worst-gradient"] = _sha(repr(worst).encode())


def artifact_hashes(src) -> dict:
    """{artifact name: sha256} of every run above on the meandim in src."""
    _import_meandim(src)
    hashes = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for runs in (_configs, _experiments, _md, _mlp_bmd, _theory, _saddle_audit):
                runs(hashes)
        finally:
            os.chdir(cwd)
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the meandim package")
    parser.add_argument("--against", default=None,
                        help="JSON map from an earlier run; list the names that differ")
    args = parser.parse_args(argv)
    hashes = artifact_hashes(os.path.abspath(args.src))
    if args.against is None:
        print(json.dumps(hashes, indent=1, sort_keys=True))
        return 0
    with open(args.against, encoding="ascii") as fh:
        before = json.load(fh)
    differ = sorted(name for name in before.keys() | hashes.keys()
                    if before.get(name) != hashes.get(name))
    for name in differ:
        print(name)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
