"""Monte Carlo mean dimension estimator against exact hypercube oracles."""

import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax

from meandim import boolfn
from meandim.estimator import (
    InfluenceProfile,
    InputSampler,
    LinearFirstLayer,
    ScoreEvaluationError,
    estimate_md,
    estimate_md_binary_fast,
    influence_heatmap,
    profile_csv_lines,
    profile_summary,
)
from meandim.estimator import _openblas_thread_controls
from meandim.rfm import Activation, forward, random_rfm, score_fn
from meandim.trainer import (TeacherTask, TrainConfig, forward_mlp, gen_multiclass_task,
                             gen_teacher_student, init_mlp, mlp_score_fn, multiclass_bmd,
                             train_gd, train_rfm_ridge)


def random_table(n, seed):
    return np.random.default_rng(seed).standard_normal(2**n)


def assert_same_bits(a, b):
    for p, q in zip(a, b, strict=True):
        assert np.array_equal(p.tau_sq, q.tau_sq)
        assert p.md == q.md and p.std_err_md == q.std_err_md


class TestExactCases:
    def test_dictator_influences_exact(self):
        # the discrete derivative of s -> s_3 is constant, so every sample
        # contributes tau_3^2 = 1 and tau_i^2 = 0 exactly
        f = boolfn.table_score_fn(boolfn.vertex_spins(5)[:, 3])
        prof = estimate_md_binary_fast(f, n=5, n_samples=2000, seed=0)
        expected = np.zeros(5)
        expected[3] = 1.0
        assert np.array_equal(prof.tau_sq, expected)
        assert prof.participation_ratio == 5.0
        # md = 1/sigma_hat^2 where sigma_hat^2 = 1 - mean(f)^2, so the md
        # itself carries O(1/m) noise through the variance estimate
        assert abs(prof.md - 1.0) < 1e-2

    def test_parity_influences_exact(self):
        n = 6
        f = boolfn.table_score_fn(boolfn.parity_table(n, mask=(1 << n) - 1))
        prof = estimate_md_binary_fast(f, n=n, n_samples=1000, seed=1)
        assert np.array_equal(prof.tau_sq, np.ones(n))
        assert prof.participation_ratio == 1.0

    def test_majority3(self):
        f = boolfn.table_score_fn(boolfn.majority_table(3))
        prof = estimate_md_binary_fast(f, n=3, n_samples=200_000, seed=2)
        assert abs(prof.md - 1.5) < 3 * prof.std_err_md

    def test_score_returning_a_view_of_its_input(self):
        # the generic route swaps columns of the background in place, so a
        # score that hands back a column of its input must still be exact
        f = lambda x: x[:, 1]
        prof = estimate_md_binary_fast(f, n=3, n_samples=500, seed=0)
        assert np.array_equal(prof.tau_sq, [0.0, 1.0, 0.0])

    def test_linear_md_one_gaussian_inputs(self):
        # f(x) = sum_i x_i / sqrt(n) has md = 1 under any product sampler
        n = 8
        f = lambda x: x.sum(axis=1) / np.sqrt(n)
        prof = estimate_md(f, InputSampler("gaussian", n), n_samples=100_000, seed=3)
        assert abs(prof.md - 1.0) < 3 * prof.std_err_md


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
    def test_random_tables_match_anova_oracle(self, seed):
        n = 8
        table = random_table(n, seed)
        exact = boolfn.exact_md_via_anova(table)
        f = boolfn.table_score_fn(table)
        prof = estimate_md_binary_fast(f, n=n, n_samples=100_000, seed=seed)
        assert prof.std_err_md > 0
        assert abs(prof.md - exact) < 3 * prof.std_err_md

    def test_resample_estimator_agrees_with_flip(self):
        n = 7
        table = random_table(n, 99)
        exact = boolfn.exact_md_via_anova(table)
        f = boolfn.table_score_fn(table)
        prof = estimate_md(f, InputSampler.binary(n), n_samples=200_000, seed=4)
        assert abs(prof.md - exact) < 3 * prof.std_err_md


class TestDeterminismAndScaling:
    def test_bit_identical_reruns(self):
        f = boolfn.table_score_fn(random_table(6, 0))
        a = estimate_md_binary_fast(f, n=6, n_samples=5000, seed=7)
        b = estimate_md_binary_fast(f, n=6, n_samples=5000, seed=7)
        assert np.array_equal(a.tau_sq, b.tau_sq)
        assert a.md == b.md and a.std_err_md == b.std_err_md

    def test_scale_invariance_power_of_two_is_bitwise(self):
        table = random_table(6, 1)
        f = boolfn.table_score_fn(table)
        g = boolfn.table_score_fn(4.0 * table)
        a = estimate_md_binary_fast(f, n=6, n_samples=3000, seed=8)
        b = estimate_md_binary_fast(g, n=6, n_samples=3000, seed=8)
        assert a.md == b.md
        assert np.array_equal(b.tau_sq, 16.0 * a.tau_sq)

    def test_affine_invariance(self):
        table = random_table(6, 2)
        f = boolfn.table_score_fn(table)
        g = boolfn.table_score_fn(-3.0 * table + 0.7)
        a = estimate_md(f, InputSampler.binary(6), n_samples=3000, seed=9)
        b = estimate_md(g, InputSampler.binary(6), n_samples=3000, seed=9)
        assert abs(a.md - b.md) < 1e-10 * abs(a.md)


    @pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
    def test_affine_invariance_under_large_offsets(self, a):
        table = random_table(10, 3)
        ref = estimate_md_binary_fast(boolfn.table_score_fn(table), 10, 5000, seed=10).md
        for ratio in (-1e8, -1e4, 0.5, 1e2, 1e6, 1e8):
            g = boolfn.table_score_fn(a * table + ratio * a)
            md = estimate_md_binary_fast(g, 10, 5000, seed=10).md
            assert md is not None and abs(md - ref) < 1e-9 * ref, (a, ratio)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), flip=st.booleans())
    def test_seed_determinism(self, n, seed, flip):
        values = random_table(n, seed)

        def run(f):
            if flip:
                return estimate_md_binary_fast(f, n, 300, seed)
            return estimate_md(f, InputSampler.binary(n), 300, seed)

        reused = boolfn.table_score_fn(values)
        first = run(reused)
        assert_same_bits([first], [run(reused)])
        assert_same_bits([first], [run(boolfn.table_score_fn(values))])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), log_a=st.floats(-3, 3),
           sign=st.sampled_from([-1.0, 1.0]), ratio=st.floats(-1e6, 1e6), flip=st.booleans())
    def test_affine_invariance_property(self, n, seed, log_a, sign, ratio, flip):
        # md(a f + c) = md(f); c = ratio * a, so rounding of the shifted
        # table costs about eps * |ratio| relative
        values = random_table(n, seed)
        a = sign * 10.0**log_a

        def md(table):
            f = boolfn.table_score_fn(table)
            if flip:
                return estimate_md_binary_fast(f, n, 300, seed).md
            return estimate_md(f, InputSampler.binary(n), 300, seed).md

        ref = md(values)
        assert abs(md(a * values + ratio * a) - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_table_probe_route_matches_closure_route(self, n):
        values = random_table(n, n)
        plain = lambda x: values[boolfn.spins_to_index(x)]
        runs = [lambda f: estimate_md_binary_fast(f, n, 700, seed=1),
                lambda f: estimate_md(f, InputSampler.binary(n), 700, seed=2)]
        for run in runs:
            assert_same_bits([run(boolfn.table_score_fn(values))], [run(plain)])


class TestSamplers:
    def test_binary_values_and_mean(self):
        rng = np.random.default_rng(0)
        x = InputSampler.binary(4).sample_background(rng, 20_000)
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert abs(x.mean()) < 0.02

    def test_gaussian_moments(self):
        rng = np.random.default_rng(0)
        x = InputSampler("gaussian", 3).sample_background(rng, 50_000)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02

    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        s = InputSampler("uniform", 2, lo=-2.0, hi=3.0)
        x = s.sample_background(rng, 10_000)
        assert x.min() >= -2.0 and x.max() <= 3.0
        assert abs(x.mean() - 0.5) < 0.05

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            InputSampler("uniform", 2, lo=1.0, hi=1.0)

    def test_empirical_backgrounds_are_dataset_rows(self):
        data = np.arange(12.0).reshape(4, 3)
        rng = np.random.default_rng(0)
        x = InputSampler("empirical", 3, data=data).sample_background(rng, 50)
        for row in x:
            assert any(np.array_equal(row, d) for d in data)

    def test_empirical_resample_is_uniform_not_marginal(self):
        # coordinate resampling draws fresh values from [lo, hi], not from
        # the dataset's own marginal
        data = np.zeros((5, 2))
        s = InputSampler("empirical", 2, lo=-1.0, hi=1.0, data=data)
        rng = np.random.default_rng(0)
        values = s.resample_coordinate(rng, 1000)
        assert np.unique(values).size == 1000
        assert values.min() >= -1.0 and values.max() <= 1.0

    @pytest.mark.parametrize("dim", [0, -1, 2.5, "3", None])
    def test_rejects_a_dim_that_is_not_an_integer_of_one_or_more(self, dim):
        with pytest.raises(ValueError, match="sampler dim needs an integer >= 1"):
            InputSampler("gaussian", dim)

    def test_takes_a_numpy_integer_dim(self):
        x = InputSampler("gaussian", np.int64(3)).sample_background(np.random.default_rng(0), 4)
        assert x.shape == (4, 3)

    def test_empirical_rejects_empty(self):
        with pytest.raises(ValueError):
            InputSampler("empirical", 3, data=np.zeros((0, 3)))


class TestDegenerateAndErrors:
    def test_constant_function_md_undefined(self):
        f = lambda x: np.full(x.shape[0], 3.0)
        prof = estimate_md(f, InputSampler.binary(4), n_samples=500, seed=0)
        assert prof.md is None and prof.std_err_md is None
        assert prof.participation_ratio is None
        assert np.array_equal(prof.tau_sq, np.zeros(4))

    def test_nonfinite_score_identifies_sample(self):
        def f(x):
            out = x.sum(axis=1)
            out[x[:, 2] > 0] = np.nan
            return out

        with pytest.raises(ScoreEvaluationError, match="non-finite"):
            estimate_md(f, InputSampler("gaussian", 4), n_samples=500, seed=0)

    def test_bad_output_shape(self):
        f = lambda x: x  # returns a matrix instead of a vector
        with pytest.raises(ValueError, match="shape"):
            estimate_md(f, InputSampler.binary(3), n_samples=500, seed=0)

    def test_sample_floor(self):
        f = lambda x: x.sum(axis=1)
        with pytest.raises(ValueError, match="100"):
            estimate_md(f, InputSampler.binary(3), n_samples=50, seed=0)


class TestMultiOutput:
    def test_first_output_matches_scalar_run(self):
        table = random_table(5, 6)
        g = boolfn.table_score_fn(table)
        f2 = lambda x: np.stack([g(x), 2.0 * g(x)], axis=1)
        profs = estimate_md(f2, InputSampler.binary(5), n_samples=3000, seed=12, n_outputs=2)
        solo = estimate_md(g, InputSampler.binary(5), n_samples=3000, seed=12)
        assert np.array_equal(profs[0].tau_sq, solo.tau_sq)
        assert profs[0].md == solo.md
        # the doubled copy shares the stream, so its md matches bitwise
        assert profs[1].md == profs[0].md
        assert np.array_equal(profs[1].tau_sq, 4.0 * profs[0].tau_sq)


class TestHeatmap:
    def test_single_hot_cell(self):
        f = boolfn.table_score_fn(boolfn.vertex_spins(6)[:, 3])
        prof = estimate_md_binary_fast(f, n=6, n_samples=500, seed=0)
        grid = influence_heatmap(prof, width=3, height=2)
        expected = np.zeros((2, 3))
        expected[1, 0] = 1.0  # coordinate 3 in row-major order
        assert np.array_equal(grid, expected)

    def test_flat_profile_maps_to_ones(self):
        f = boolfn.table_score_fn(boolfn.parity_table(4, mask=0b1111))
        prof = estimate_md_binary_fast(f, n=4, n_samples=500, seed=0)
        assert np.array_equal(influence_heatmap(prof, 2, 2), np.ones((2, 2)))

    def test_shape_mismatch(self):
        f = boolfn.table_score_fn(boolfn.parity_table(4, mask=0b1111))
        prof = estimate_md_binary_fast(f, n=4, n_samples=500, seed=0)
        with pytest.raises(ValueError):
            influence_heatmap(prof, 3, 2)


class TestSerialization:
    def test_csv_roundtrip_exact(self):
        f = boolfn.table_score_fn(random_table(5, 7))
        prof = estimate_md_binary_fast(f, n=5, n_samples=500, seed=0)
        lines = profile_csv_lines(prof)
        assert lines[0] == "i,tau_sq"
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        assert np.array_equal(table[:, 0], np.arange(5))
        assert np.array_equal(table[:, 1], prof.tau_sq)

    def test_summary_roundtrip(self):
        f = boolfn.table_score_fn(random_table(5, 8))
        prof = estimate_md_binary_fast(f, n=5, n_samples=500, seed=3)
        text = profile_summary(prof)
        assert text.endswith("\n") and not text.endswith("\n\n")
        back = {}
        for line in text.splitlines():
            key, sep, value = line.partition(" = ")
            assert sep, line
            back[key] = int(value) if key in ("n_samples", "seed") else float(value)
        assert list(back) == ["md", "sigma_sq", "participation_ratio", "std_err_md",
                              "n_samples", "seed"]
        assert back["md"] == prof.md
        assert back["sigma_sq"] == prof.sigma_sq
        assert back["participation_ratio"] == prof.participation_ratio
        assert back["std_err_md"] == prof.std_err_md
        assert back["n_samples"] == 500 and back["seed"] == 3

    def test_summary_marks_undefined(self):
        prof = InfluenceProfile(
            tau_sq=np.zeros(3), sigma_sq=0.0, md=None, participation_ratio=None,
            n_samples=500, std_err_md=None, seed=0)
        text = profile_summary(prof)
        assert "md = undefined" in text
        assert "participation_ratio = undefined" in text


def _tanh_head(a):
    return lambda h: np.tanh(h) @ a


def _softmax_head(A):
    return lambda h: log_softmax(np.tanh(h) @ A, axis=1)


class TestLinearFirstLayer:
    """The rank-1 probe path against the full head(x @ W + b)."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), width=st.integers(1, 9),
           m=st.integers(1, 12), n_probes=st.integers(1, 4),
           rows=st.sampled_from(["all", "some", "none"]), multi=st.booleans(),
           start=st.sampled_from(["cached", "one column moved", "resized"]))
    def test_matches_full_evaluation(self, seed, n, width, m, n_probes, rows, multi, start):
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((n, width))
        b = rng.standard_normal(width)
        head = _softmax_head(rng.standard_normal((width, 3))) if multi \
            else _tanh_head(rng.standard_normal(width))
        f = LinearFirstLayer(W, b, head)
        twin = LinearFirstLayer(W, b, head)  # takes the probed batches as in-place calls
        x0 = rng.standard_normal((m, n))
        assert np.array_equal(f(x0), head(x0 @ W + b))
        # the batch probed: a copy of x0, a copy with one column moved, or
        # one of another size; each is a new array, so a full evaluation
        x = rng.standard_normal((m + 1, n)) if start == "resized" else x0.copy()
        if start == "one column moved":
            x[:, rng.integers(n)] = rng.standard_normal(m)
        assert np.array_equal(f(x), head(x @ W + b))
        assert np.array_equal(twin(x), head(x @ W + b))
        for _ in range(n_probes):
            i = rng.integers(n)
            moved = {"all": np.ones(x.shape[0], dtype=bool), "none": np.zeros(x.shape[0], dtype=bool),
                     "some": rng.random(x.shape[0]) < 0.5}[rows]
            column = x[:, i].copy()
            column[moved] = rng.standard_normal(int(moved.sum()))
            x_mod = x.copy()
            x_mod[:, i] = column
            want = head(x_mod @ W + b)
            got = f.probe(i, column)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            # the estimator's in-place swap of a column gives the same bits
            saved = x[:, i].copy()
            x[:, i] = column
            assert np.array_equal(got, twin(x))
            x[:, i] = saved
        # probes answer for the last batch evaluated in full, whatever they did
        i = rng.integers(n)
        want = head(x @ W + b)
        assert np.max(np.abs(f.probe(i, x[:, i]) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [1, 4])
    def test_one_cache_rule(self, n):
        rng = np.random.default_rng(n)
        W, b = rng.standard_normal((n, 7)), rng.standard_normal(7)
        head = _tanh_head(rng.standard_normal(7))
        f = LinearFirstLayer(W, b, head)
        x = rng.standard_normal((9, n))
        f(x)
        # a new array one column away from the cached batch: a full evaluation
        y = x.copy()
        y[:, n - 1] = rng.standard_normal(9)
        assert np.array_equal(f(y), head(y @ W + b))
        # the same array changed in place in one column: the probe's bits
        column = rng.standard_normal(9)
        want = f.probe(0, column)
        y_full = y.copy()
        y[:, 0] = column
        assert np.array_equal(f(y), want)
        # that call left the cache alone: probes answer the last full evaluation
        column = rng.standard_normal(9)
        y_full[:, n - 1] = column
        want = head(y_full @ W + b)
        assert np.max(np.abs(f.probe(n - 1, column) - want)) <= 1e-12 * np.max(np.abs(want))
        # the score keeps no caller's batch alive
        batch = weakref.ref(y)
        del y
        assert batch() is None

    def test_probe_needs_a_batch_of_its_length(self):
        rng = np.random.default_rng(0)
        f = LinearFirstLayer(rng.standard_normal((3, 4)), 0.0, _tanh_head(np.ones(4)))
        with pytest.raises(RuntimeError):
            f.probe(0, np.ones(5))
        f(rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="shape"):
            f.probe(0, np.ones(4))

    @pytest.mark.parametrize("D", [1, 2, 7])
    def test_probe_route_matches_closure_route(self, D):
        # a closure hides probe, so the estimator swaps columns in place and
        # the call finds the one moved column: the bits must not change
        rng = np.random.default_rng(D)
        W, b = rng.standard_normal((D, 9)), rng.standard_normal(9)
        a, A = rng.standard_normal(9), rng.standard_normal((9, 3))
        runs = [
            (_tanh_head(a), lambda f: [estimate_md(f, InputSampler.binary(D), 700, seed=1)]),
            (_tanh_head(a), lambda f: [estimate_md(f, InputSampler("gaussian", D), 700, seed=2)]),
            (_tanh_head(a), lambda f: [estimate_md(f, InputSampler("uniform", D, -2.0, 3.0), 700,
                                                   seed=3)]),
            (_tanh_head(a), lambda f: [estimate_md_binary_fast(f, D, 700, seed=4)]),
            (_softmax_head(A), lambda f: estimate_md(f, InputSampler.binary(D), 700, seed=5,
                                                     n_outputs=3)),
        ]
        for head, run in runs:
            probed = LinearFirstLayer(W, b, head)
            hidden = LinearFirstLayer(W, b, head)
            assert_same_bits(run(probed), run(lambda x: hidden(x)))

    def test_one_dimensional_input_through_rfm_score(self):
        model = random_rfm(5, 7, Activation.tanh(), seed=5)
        f = score_fn(model)
        x = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        first = f(x)
        assert first.shape == (1,)
        assert abs(first[0] - forward(model, x)) <= 1e-12 * abs(forward(model, x))
        x[2] = -1.0  # one column of the cached 1-row batch moves
        assert abs(f(x)[0] - forward(model, x)) <= 1e-12 * abs(forward(model, x))

    def test_estimate_agrees_with_generic_path(self):
        rng = np.random.default_rng(3)
        W, b, a = rng.standard_normal((9, 20)), rng.standard_normal(20), rng.standard_normal(20)
        head = _tanh_head(a)
        for sampler in (InputSampler.binary(9), InputSampler("gaussian", 9)):
            fast = estimate_md(LinearFirstLayer(W, b, head), sampler, 3000, seed=4)
            ref = estimate_md(lambda x: head(x @ W + b), sampler, 3000, seed=4)
            assert np.allclose(fast.tau_sq, ref.tau_sq, rtol=1e-12, atol=0)
            assert abs(fast.md - ref.md) <= 1e-12 * ref.md

    @pytest.mark.parametrize("D", [1, 2, 7])
    def test_bit_identical_whatever_the_call_history(self, D):
        # every background is a new array, so each is evaluated in full
        # whatever the score saw before, D = 1 included
        model = random_rfm(D, 6, Activation.tanh(), seed=D)
        used = score_fn(model)
        runs = [
            lambda f: estimate_md(f, InputSampler.binary(D), 700, seed=2),
            lambda f: estimate_md_binary_fast(f, D, 700, seed=2),
            lambda f: estimate_md(f, InputSampler("gaussian", D), 700, seed=5),
        ]
        first = [run(used) for run in runs]
        again = [run(used) for run in reversed(runs)][::-1]
        fresh = [run(score_fn(model)) for run in runs]
        for a, b, c in zip(first, again, fresh):
            assert np.array_equal(a.tau_sq, b.tau_sq) and np.array_equal(a.tau_sq, c.tau_sq)
            assert a.md == b.md == c.md and a.std_err_md == b.std_err_md == c.std_err_md

    # width 300 gives 128-row tiles; 1,000 rows make 7 tiles, the last of 232
    @pytest.mark.parametrize("multi", [False, True], ids=["scalar", "multi"])
    @pytest.mark.parametrize("rows", ["all", "some", "none"])
    def test_probes_across_tiles(self, rows, multi):
        rng = np.random.default_rng(11)
        n, width, m = 4, 300, 1000
        W, b = rng.standard_normal((n, width)) / 2, rng.standard_normal(width)
        A = rng.standard_normal((width, 3))
        head = (lambda h: log_softmax(np.tanh(h, out=h) @ A, axis=1)) if multi \
            else (lambda h: np.tanh(h, out=h) @ A[:, 0])
        f, twin = LinearFirstLayer(W, b, head), LinearFirstLayer(W, b, head)
        x = rng.standard_normal((m, n))
        want = head(x @ W + b)
        assert np.max(np.abs(f(x) - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(twin(x), f(x.copy()))
        for i in range(n):
            moved = {"all": np.ones(m, dtype=bool), "none": np.zeros(m, dtype=bool),
                     "some": rng.random(m) < 0.6}[rows]
            column = x[:, i].copy()
            column[moved] = rng.standard_normal(int(moved.sum()))
            x_mod = x.copy()
            x_mod[:, i] = column
            want = head(x_mod @ W + b)
            got = f.probe(i, column)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            saved = x[:, i].copy()
            x[:, i] = column
            assert np.array_equal(got, twin(x))
            x[:, i] = saved

    def test_head_never_sees_the_cache(self):
        # a head that scribbles over its argument after reading it spoils
        # nothing: it only ever gets the scratch block
        rng = np.random.default_rng(12)
        n, width, m = 3, 256, 700
        W, b, a = rng.standard_normal((n, width)) / 2, rng.standard_normal(width), \
            rng.standard_normal(width)

        def scribbler(h):
            out = np.tanh(h) @ a
            h[...] = np.nan
            return out

        f = LinearFirstLayer(W, b, scribbler)
        clean = _tanh_head(a)

        def close(got, x):
            want = clean(x @ W + b)
            return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        x = rng.standard_normal((m, n))
        assert close(f(x), x) and close(f(x), x)
        for i in (0, 2, 1, 0):
            x_mod = x.copy()
            x_mod[:, i] = rng.standard_normal(m)
            assert close(f.probe(i, x_mod[:, i]), x_mod)
            saved = x[:, i].copy()
            x[:, i] = x_mod[:, i]
            assert close(f(x), x_mod)  # the in-place call route
            x[:, i] = saved
        y = rng.standard_normal((m, n))
        assert close(f(y), y)

    def test_batch_width_must_match_the_first_layer(self):
        rng = np.random.default_rng(13)
        f = LinearFirstLayer(rng.standard_normal((4, 6)), 0.0, _tanh_head(np.ones(6)))
        with pytest.raises(ValueError, match="batch has 5 columns; the first layer takes 4"):
            f(np.ones((3, 5)))
        model = random_rfm(4, 6, Activation.tanh(), seed=0)
        with pytest.raises(ValueError, match="batch has 5 columns; the first layer takes 4"):
            estimate_md(score_fn(model), InputSampler.binary(5), 200, seed=0)


class TestExactOracleThroughLinearFirstLayer:
    """Exact BMD from the full vertex table against the rank-1 estimator path."""

    @staticmethod
    def exact_md(table):
        return boolfn.degree_profile(boolfn.walsh_hadamard(table)).mean_dimension

    def test_ridge_trained_rfm(self):
        D = 12
        task = TeacherTask.random(D, seed=1)
        train, _ = gen_teacher_student(D, 30, 10, task, seed=1)
        fit = train_rfm_ridge(random_rfm(D, 24, Activation.tanh(), seed=1), train, 1e-3)
        exact = self.exact_md(forward(fit.model, boolfn.vertex_spins(D)))
        f = score_fn(fit.model)
        for prof in (estimate_md_binary_fast(f, D, 20_000, seed=6),
                     estimate_md(f, InputSampler.binary(D), 20_000, seed=7)):
            assert abs(prof.md - exact) <= 6 * prof.std_err_md, (prof.md, exact)

    def test_three_class_mlp_outputs(self):
        D = 10
        train, _ = gen_multiclass_task(D, 60, 10, 3, input_kind="binary", seed=2)
        net = train_gd(init_mlp(D, 12, 3, seed=2), train,
                       TrainConfig(loss="ce", optimizer="minibatch-gd", lr=1e-2,
                                   epochs=20, batch_size=16, seed=2)).model
        logp = log_softmax(forward_mlp(net, boolfn.vertex_spins(D)), axis=1)
        exact = [self.exact_md(logp[:, k]) for k in range(3)]
        score = LinearFirstLayer(net.W1, net.b1,
                                 lambda h: log_softmax(np.tanh(h) @ net.W2 + net.b2, axis=1))
        joint = estimate_md(score, InputSampler.binary(D), 20_000, seed=8, n_outputs=3)
        for k in range(3):
            head = lambda h, k=k: log_softmax(np.tanh(h) @ net.W2 + net.b2, axis=1)[:, k]
            flip = estimate_md_binary_fast(LinearFirstLayer(net.W1, net.b1, head), D,
                                           20_000, seed=9)
            for prof in (joint[k], flip):
                assert abs(prof.md - exact[k]) <= 6 * prof.std_err_md, (k, prof.md, exact[k])

    def test_scalar_mlp_score_matches_forward(self):
        net = init_mlp(6, 5, 1, seed=3)
        x = InputSampler.binary(6).sample_background(np.random.default_rng(0), 40)
        f = mlp_score_fn(net)
        assert np.array_equal(f(x), forward_mlp(net, x))
        x[:, 4] = -x[:, 4]
        assert np.allclose(f(x), forward_mlp(net, x), rtol=1e-12, atol=1e-15)


# Whether an estimate called from the main thread probes in pairs here.
PAIRED = len(os.sched_getaffinity(0)) >= 2


def off_main_thread(fn):
    """fn() in a fresh thread, where the estimator probes one coordinate at a
    time: its result, or the exception it raised."""
    box = []

    def run():
        try:
            box.append(fn())
        except Exception as exc:  # handed to the test, which checks it
            box.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(box) == 1
    return box[0]


class ProbingThreads:
    """A score that forwards to ``inner`` and notes the threads that probe it."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()

    def __call__(self, x):
        return self.inner(x)

    def probe(self, i, column):
        self.threads.add(threading.current_thread().name)
        return self.inner.probe(i, column)


class NanAt:
    """f(x) = row sums; a probe of a coordinate in ``nan`` puts NaN in row 5,
    and a probe of one in ``fail`` raises."""

    def __init__(self, nan=(), fail=()):
        self.nan, self.fail = set(nan), set(fail)

    def __call__(self, x):
        self.x = x.copy()
        return x.sum(axis=1)

    def probe(self, i, column):
        if i in self.fail:
            raise RuntimeError(f"probe {i} failed")
        x = self.x.copy()
        x[:, i] = column
        out = x.sum(axis=1)
        if i in self.nan:
            out[5] = np.nan
        return out


class TestPairedProbes:
    """From the main thread, probes of coordinates i and i + 1 run on two
    threads; every result has the bits of the sequential run that the same
    call makes from another thread."""

    @pytest.mark.parametrize("sampler", ["flip", "gaussian"])
    def test_rfm_score(self, sampler):
        # odd D, so the last coordinate has no partner; N = 300 gives tiles of 128 rows
        model = random_rfm(9, 300, Activation.tanh(), seed=4)

        def run(score):
            if sampler == "flip":
                return estimate_md_binary_fast(score, 9, 700, seed=5)
            return estimate_md(score, InputSampler("gaussian", 9), 700, seed=5)

        here, there = ProbingThreads(score_fn(model)), ProbingThreads(score_fn(model))
        assert_same_bits([run(here)], [off_main_thread(lambda: run(there))])
        assert len(here.threads) == (2 if PAIRED else 1) and len(there.threads) == 1

    def test_multiclass_bmd_across_tiles(self):
        net = init_mlp(100, 1024, 10, seed=6)
        run = lambda: multiclass_bmd(net, InputSampler.binary(100), 1000, seed=7)
        assert run() == off_main_thread(run)

    @pytest.mark.parametrize("flip", [True, False])
    def test_table_score(self, flip):
        values = random_table(7, seed=8)

        def run(score):
            if flip:
                return estimate_md_binary_fast(score, 7, 3000, seed=9)
            return estimate_md(score, InputSampler.binary(7), 3000, seed=9)

        here = ProbingThreads(boolfn.table_score_fn(values))
        there = ProbingThreads(boolfn.table_score_fn(values))
        assert_same_bits([run(here)], [off_main_thread(lambda: run(there))])
        assert len(here.threads) == (2 if PAIRED else 1) and len(there.threads) == 1

    def test_callable_without_probe(self):
        values = random_table(6, seed=10)
        f = lambda x: values[boolfn.spins_to_index(x)]
        run = lambda: estimate_md(f, InputSampler.binary(6), 1000, seed=11)
        assert_same_bits([run()], [off_main_thread(run)])

    def test_concurrent_estimates_keep_their_bits(self):
        """Two estimates at once in a 2-thread pool, each with its own score,
        while the main thread runs a paired third: four probers on two
        cores, with short thread switches, give the sequential bits."""
        def run(seed):
            model = random_rfm(9, 300, Activation.tanh(), seed=seed)
            return estimate_md(score_fn(model), InputSampler("gaussian", 9), 700, seed=seed)

        seeds = (12, 13, 14)
        expected = [off_main_thread(lambda seed=seed: run(seed)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(run, seed) for seed in seeds[:2]]
                here = run(seeds[2])
                got = [future.result(timeout=300) for future in futures] + [here]
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("nan,fail,coordinate", [((3, 4), (), 3), ((2, 3), (), 2),
                                                     ((2,), (3,), 2)])
    def test_failure_names_the_lower_coordinate(self, nan, fail, coordinate):
        """Pairs are (0, 1), (2, 3), ...: whichever probes fail, the error is
        the sequential one, about the lowest failing coordinate."""
        run = lambda: estimate_md(NanAt(nan, fail), InputSampler("gaussian", 6), 200, seed=0)
        with pytest.raises(ScoreEvaluationError, match=f"coordinate {coordinate}, ") as paired:
            run()
        sequential = off_main_thread(run)
        assert type(sequential) is ScoreEvaluationError and str(sequential) == str(paired.value)

    def test_blas_capped_while_paired(self):
        """A paired estimate runs numpy's OpenBLAS at max(1, cores // 2)
        threads or fewer, full evaluations included, and restores it."""
        controls = _openblas_thread_controls()
        before = [get() for get, _ in controls]
        seen = []

        class Counting(NanAt):
            def __call__(self, x):
                seen.append([get() for get, _ in controls])
                return super().__call__(x)

            def probe(self, i, column):
                seen.append([get() for get, _ in controls])
                return super().probe(i, column)

        estimate_md(Counting(), InputSampler("gaussian", 4), 200, seed=0)
        cap = max(1, (os.cpu_count() or 1) // 2)
        expected = [min(count, cap) for count in before] if PAIRED else before
        assert seen and all(counts == expected for counts in seen)
        assert [get() for get, _ in controls] == before
