"""Training paths: teacher data, ridge oracle, GD, MLP protocols."""

from dataclasses import replace

import numpy as np
import pytest

from meandim.estimator import InputSampler
from meandim.rfm import Activation, compute_kappas, design_matrix, forward, random_rfm
from meandim.trainer import (
    Dataset,
    Mlp,
    TeacherTask,
    TrainConfig,
    flip_labels,
    forward_mlp,
    gen_multiclass_task,
    gen_teacher_student,
    init_mlp,
    multiclass_bmd,
    predict_labels,
    robustness_flip_count,
    train_gd,
    train_rfm_ridge,
)
from meandim.trainer import _Adam, _Backprop, _descend, _pretrain

TANH = Activation.tanh()
TANH_KAPPAS = compute_kappas(TANH)


def make_model(D, N, seed):
    return random_rfm(D, N, TANH, seed, kappas=TANH_KAPPAS)


def loss_and_grads(net, X, y, loss):
    """The training step's loss and (gW1, gb1, gW2, gb2) on all of (X, y)."""
    step = _Backprop(net, X.shape[0], loss)
    return step(X, y), step.grads


class TestTeacher:
    def test_norm_constraint(self):
        with pytest.raises(ValueError, match="norm"):
            TeacherTask(w_T=np.ones(4) * 2.0)
        TeacherTask(w_T=np.ones(4))  # ||w||^2 = 4 = D

    def test_norm_constraint_is_relative_to_D(self):
        # |w.w - D| is about 5e-4 under any summation order: above an
        # absolute 1e-9, within 1e-9 D = 1e-3
        w_T = np.full(10**6, np.sqrt(1 + 5e-10))
        assert abs(w_T @ w_T - 10**6) > 1e-9
        TeacherTask(w_T=w_T)
        with pytest.raises(ValueError, match="norm"):
            TeacherTask(w_T=w_T * (1.0 + 1e-9))
        with pytest.raises(ValueError, match="norm"):
            TeacherTask(w_T=np.full(4, np.nan))

    def test_noiseless_labels_consistent(self):
        task = TeacherTask.random(D=12, seed=0)
        train, test = gen_teacher_student(12, 200, 100, task, seed=1)
        for ds in (train, test):
            assert np.all(ds.y * (ds.X @ task.w_T) > 0)
            assert np.array_equal(ds.y, ds.clean_labels)

    def test_hand_case(self):
        task = TeacherTask(w_T=np.array([np.sqrt(2.0), 0.0]) * np.sqrt(2.0) / np.sqrt(2.0))
        x = np.array([[1.0, -1.0]])
        pre = x @ task.w_T / np.sqrt(2.0)
        assert np.sign(pre[0]) == 1.0

    def test_huge_noise_decorrelates(self):
        task = TeacherTask.random(D=10, seed=2, delta=1e4)
        train, _ = gen_teacher_student(10, 10_000, 10, task, seed=3)
        corr = np.corrcoef(train.y, train.clean_labels)[0, 1]
        assert abs(corr) < 0.05
        assert np.any(train.y != train.clean_labels)

    def test_binary_inputs_are_spins(self):
        task = TeacherTask.random(D=6, seed=4, input_kind="binary")
        train, _ = gen_teacher_student(6, 50, 10, task, seed=5)
        assert set(np.unique(train.X)) == {-1.0, 1.0}


class TestMulticlassTask:
    def test_shapes_and_label_range(self):
        train, test = gen_multiclass_task(5, 40, 20, n_classes=4, seed=0)
        assert train.X.shape == (40, 5) and test.X.shape == (20, 5)
        assert set(np.unique(np.concatenate([train.y, test.y]))) <= set(range(4))
        assert np.array_equal(train.y, train.y_clean)
        assert train.y_clean is not train.y  # independent copy

    def test_deterministic_and_disjoint(self):
        a = gen_multiclass_task(5, 30, 10, 3, seed=9)
        b = gen_multiclass_task(5, 30, 10, 3, seed=9)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].y, b[1].y)
        c = gen_multiclass_task(5, 30, 10, 3, seed=10)
        assert not np.array_equal(a[0].X, c[0].X)

    def test_labels_follow_prototypes(self):
        # same function, so a fresh linear readout can separate a good chunk
        train, test = gen_multiclass_task(6, 400, 200, 3, seed=1)
        net = init_mlp(D=6, width=32, n_out=3, seed=2)
        out = train_gd(net, train, TrainConfig(
            loss="ce", optimizer="minibatch-gd", batch_size=32, lr=5e-3,
            epochs=120, seed=3), test_ds=test)
        assert out.test_error < 0.35  # chance is 2/3

    def test_binary_input_kind(self):
        train, _ = gen_multiclass_task(5, 30, 10, 3, input_kind="binary", seed=4)
        assert set(np.unique(train.X)) == {-1.0, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError, match="n_classes"):
            gen_multiclass_task(5, 10, 10, n_classes=1)
        with pytest.raises(ValueError, match=">= 1"):
            gen_multiclass_task(0, 10, 10, n_classes=3)


class TestFlipLabels:
    def base(self, P=100):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((P, 3))
        y = np.where(rng.standard_normal(P) > 0, 1.0, -1.0)
        return Dataset(X=X, y=y)

    def test_zero_fraction_is_identity(self):
        ds = self.base()
        assert flip_labels(ds, 0.0, seed=0) is ds

    def test_full_flip_binary(self):
        ds = self.base()
        flipped = flip_labels(ds, 1.0, seed=0)
        assert np.array_equal(flipped.y, -ds.y)
        assert np.array_equal(flipped.clean_labels, ds.y)

    def test_exact_count_multiclass(self):
        rng = np.random.default_rng(1)
        ds = Dataset(X=rng.standard_normal((1000, 2)),
                     y=rng.integers(0, 10, 1000).astype(float), n_classes=10)
        flipped = flip_labels(ds, 0.2, seed=2)
        changed = np.flatnonzero(flipped.y != ds.y)
        assert changed.size == 200
        assert np.array_equal(np.flatnonzero(flipped.y != flipped.clean_labels), changed)
        assert np.all(flipped.y[changed] != ds.y[changed])
        assert set(np.unique(flipped.y)) <= set(range(10))

    def test_class_count_comes_from_the_task(self):
        # class 9 of this 10-class task is absent from the 20 training labels,
        # yet a full corruption can move a label there
        train, _ = gen_multiclass_task(100, 20, 5, n_classes=10, seed=1)
        assert 9 not in train.y
        flipped = flip_labels(train, 1.0, seed=0)
        assert np.all(flipped.y != train.y)
        assert 9 in flipped.y and set(np.unique(flipped.y)) <= set(range(10))

    def test_all_ones_multiclass_labels_stay_class_indices(self):
        train, _ = gen_multiclass_task(6, 30, 5, n_classes=3, seed=0)
        flipped = flip_labels(replace(train, y=np.ones(30)), 1.0, seed=0)
        assert set(np.unique(flipped.y)) == {0.0, 2.0}


class TestRidge:
    def test_matches_hand_solve(self):
        # (D, N, P, lam): N <= P takes the primal route, N > P with lam > 0 the dual
        for D, N, P, lam in ((4, 3, 3, 0.5), (6, 12, 5, 1e-6), (6, 12, 5, 1e-4),
                             (6, 12, 5, 1.0)):
            model = make_model(D, N, seed=0)
            task = TeacherTask.random(D, seed=1)
            ds, _ = gen_teacher_student(D, P, 10, task, seed=2)
            fitted = train_rfm_ridge(model, ds, lam)
            Xp = design_matrix(model, ds.X)
            w_hand = np.linalg.solve(Xp.T @ Xp / N + lam * np.eye(N),
                                     Xp.T @ ds.y / np.sqrt(N))
            gap = np.max(np.abs(fitted.model.w - w_hand))
            assert gap <= 1e-10 * np.max(np.abs(w_hand)), (D, N, P, lam, gap)

    @pytest.mark.parametrize("N,lam", [(60, 1e-4), (300, 1e-4), (120, 1e-4), (60, 0.0)],
                             ids=["primal", "dual", "N=P", "lam0-primal"])
    def test_matches_scipy_cholesky_fit(self, N, lam):
        """The numpy solve gives the fit of scipy's cho_factor/cho_solve
        under the same refinement, at P = 120 on either side of N = P."""
        from scipy.linalg import cho_factor, cho_solve

        model = make_model(30, N, seed=0)
        ds, _ = gen_teacher_student(30, 120, 10, TeacherTask.random(30, seed=1), seed=2)
        Xp = design_matrix(model, ds.X)
        dual = lam > 0 and N > ds.P
        if dual:
            A, b = Xp @ Xp.T / N + lam * np.eye(ds.P), ds.y / np.sqrt(N)
        else:
            A, b = Xp.T @ Xp / N + lam * np.eye(N), Xp.T @ ds.y / np.sqrt(N)
        factor = cho_factor(A)
        x = cho_solve(factor, b)
        for _ in range(4):
            residual = b - A @ x
            if np.linalg.norm(Xp.T @ residual if dual else residual) < 1e-8:
                break
            x = x + cho_solve(factor, residual)
        want = Xp.T @ x if dual else x

        w = train_rfm_ridge(model, ds, lam).model.w
        assert np.max(np.abs(w - want)) <= 1e-9 * np.max(np.abs(want))
        grad = Xp.T @ (Xp @ w / N - ds.y / np.sqrt(N)) + lam * w
        assert np.linalg.norm(grad) < 1e-8

    def test_shrinkage_monotone(self):
        model = make_model(10, 12, seed=3)
        ds, _ = gen_teacher_student(10, 30, 10, TeacherTask.random(10, seed=4), seed=5)
        norms = [np.linalg.norm(train_rfm_ridge(model, ds, lam).model.w)
                 for lam in (1e-2, 1e-1, 1.0, 10.0, 100.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_interpolation_past_threshold(self):
        model = make_model(15, 80, seed=6)
        ds, _ = gen_teacher_student(15, 40, 10, TeacherTask.random(15, seed=7), seed=8)
        for lam in (1e-6, 1e-4):
            assert train_rfm_ridge(model, ds, lam).train_error == 0.0, lam

    def test_rank_deficient_at_zero_lambda(self):
        model = make_model(15, 80, seed=9)
        ds, _ = gen_teacher_student(15, 40, 10, TeacherTask.random(15, seed=10), seed=11)
        with pytest.raises(np.linalg.LinAlgError, match="rank"):
            train_rfm_ridge(model, ds, 0.0)

    def test_corrupted_rows_hurt_more_at_small_width(self):
        model = make_model(20, 10, seed=12)
        ds, _ = gen_teacher_student(20, 200, 10, TeacherTask.random(20, seed=13), seed=14)
        noisy = flip_labels(ds, 0.3, seed=15)
        fitted = train_rfm_ridge(model, noisy, 1e-3)
        pred = np.where(forward(fitted.model, noisy.X) >= 0, 1.0, -1.0)
        wrong = pred != noisy.y
        mask = noisy.y != noisy.clean_labels
        assert wrong[mask].mean() > wrong[~mask].mean()

    @pytest.mark.parametrize("N", [4, 12], ids=["primal", "dual"])
    def test_refinement_repairs_a_perturbed_solve(self, N, monkeypatch):
        model = make_model(6, N, seed=0)
        ds, _ = gen_teacher_student(6, 8, 10, TeacherTask.random(6, seed=1), seed=2)
        want = train_rfm_ridge(model, ds, 1e-3).model.w
        solve, calls = np.linalg.solve, []

        def first_solve_off(A, b):
            calls.append(b)
            return solve(A, b) + (1e-3 if len(calls) == 1 else 0.0)

        monkeypatch.setattr(np.linalg, "solve", first_solve_off)
        got = train_rfm_ridge(model, ds, 1e-3).model.w
        assert len(calls) > 1  # at least one refinement step ran
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("N", [4, 12], ids=["primal", "dual"])
    def test_solve_that_stays_wrong_fails_the_stationarity_check(self, N, monkeypatch):
        model = make_model(6, N, seed=0)
        ds, _ = gen_teacher_student(6, 8, 10, TeacherTask.random(6, seed=1), seed=2)
        solve, calls = np.linalg.solve, []

        def every_solve_off(A, b):
            calls.append(b)
            return solve(A, b) + 1e-3

        monkeypatch.setattr(np.linalg, "solve", every_solve_off)
        with pytest.raises(RuntimeError, match="stationarity check failed"):
            train_rfm_ridge(model, ds, 1e-3)
        assert len(calls) == 5  # the solve and four refinement steps

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_lam_must_be_finite_and_nonnegative(self, lam):
        model = make_model(4, 3, seed=0)
        ds, _ = gen_teacher_student(4, 6, 10, TeacherTask.random(4, seed=1), seed=2)
        with pytest.raises(ValueError, match=f"lam must be finite and >= 0, got lam = {lam!r}"):
            train_rfm_ridge(model, ds, lam)

    @pytest.mark.parametrize("act", [Activation.tanh(), Activation.sign(), Activation.linear(),
                                     Activation.leaky_relu(0.2), Activation.leaky_relu(-0.5)],
                             ids=lambda a: a.tag)
    def test_design_matrix_equals_the_value_expression_bit_for_bit(self, act):
        model = random_rfm(7, 11, act, seed=3, kappas=compute_kappas(Activation.tanh()))
        X = np.random.default_rng(4).standard_normal((13, 7))
        X[0] = 0.0  # a zero row puts signed zeros through the activation
        before = X.copy()
        got = design_matrix(model, X)
        want = act.value(X @ model.F / np.sqrt(model.D))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(X, before)

    def test_underparameterized_linear_error_monotone_in_samples(self):
        ks = compute_kappas(Activation.linear())
        model = random_rfm(30, 20, Activation.linear(), seed=16, kappas=ks)
        task = TeacherTask.random(30, seed=17, input_kind="gaussian")
        errs = []
        for P in (50, 100, 200, 400):
            ds, test = gen_teacher_student(30, P, 4000, task, seed=18)
            errs.append(train_rfm_ridge(model, ds, 1.0, test_ds=test).test_error)
        assert all(a > b for a, b in zip(errs, errs[1:]))


class TestGradientDescent:
    def test_zero_epochs_unchanged(self):
        net = init_mlp(D=6, width=5, n_out=1, seed=0)
        ds, _ = gen_teacher_student(6, 20, 10, TeacherTask.random(6, seed=1), seed=2)
        out = train_gd(net, ds, TrainConfig(epochs=0, lr=0.1))
        assert np.array_equal(out.model.W1, net.W1) and np.array_equal(out.model.W2, net.W2)
        assert out.history.shape == (0,)
        assert out.converged

    def test_separable_ce_drives_error_to_zero(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 2))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X[:, 0] += y  # widen the margin
        ds = Dataset(X=X, y=y)
        net = init_mlp(D=2, width=30, n_out=1, seed=7)
        out = train_gd(net, ds, TrainConfig(loss="ce", optimizer="minibatch-gd",
                                            batch_size=16, lr=1e-2, epochs=200, seed=8))
        assert out.train_error == 0.0

    def test_seed_determinism(self):
        net = init_mlp(D=6, width=5, n_out=1, seed=9)
        ds, _ = gen_teacher_student(6, 30, 10, TeacherTask.random(6, seed=10), seed=11)
        cfg = TrainConfig(loss="ce", optimizer="minibatch-gd", batch_size=8,
                          lr=1e-3, epochs=20, seed=12)
        a = train_gd(net, ds, cfg)
        b = train_gd(net, ds, cfg)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
        assert np.array_equal(a.history, b.history)

    def test_history_has_one_entry_per_epoch(self):
        net = init_mlp(D=6, width=5, n_out=1, seed=13)
        ds, _ = gen_teacher_student(6, 30, 10, TeacherTask.random(6, seed=14), seed=15)
        full = train_gd(net, ds, TrainConfig(lr=0.05, epochs=40))
        assert full.history.shape == (40,)
        # a full-batch epoch is one step, so its entry is the loss before it
        start, _ = loss_and_grads(net, ds.X, ds.y, "mse")
        assert full.history[0] == pytest.approx(start, rel=1e-12)
        assert full.history[-1] < full.history[0]
        mini = train_gd(net, ds, TrainConfig(optimizer="minibatch-gd", batch_size=7,
                                             lr=1e-3, epochs=9, seed=16))
        assert mini.history.shape == (9,) and np.all(np.isfinite(mini.history))

    def test_divergence_raises(self):
        net = init_mlp(D=6, width=5, n_out=1, seed=17)
        ds, _ = gen_teacher_student(6, 30, 10, TeacherTask.random(6, seed=18), seed=19)
        with pytest.raises(RuntimeError, match="learning rate"):
            train_gd(net, ds, TrainConfig(lr=10.0, epochs=400))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="optimizer 'closed-form-ridge'"):
            TrainConfig(loss="mse", optimizer="closed-form-ridge")
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(loss="hinge")

    def test_batch_size_below_one_is_refused(self):
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            TrainConfig(optimizer="minibatch-gd", batch_size=0)

    def test_negative_epochs_are_refused(self):
        with pytest.raises(ValueError, match="epochs must be >= 0, got -1"):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            TrainConfig(lr=lr)

    def test_training_leaves_the_skeleton_alone_and_returns_owned_arrays(self):
        net = init_mlp(D=6, width=5, n_out=3, seed=20)
        before = [a.copy() for a in (net.W1, net.b1, net.W2, net.b2)]
        ds, _ = gen_multiclass_task(6, 30, 10, 3, seed=21)
        out = train_gd(net, ds, TrainConfig(loss="ce", optimizer="minibatch-gd",
                                            batch_size=7, lr=1e-2, epochs=3, seed=22))
        after = (net.W1, net.b1, net.W2, net.b2)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        trained = (out.model.W1, out.model.b1, out.model.W2, out.model.b2)
        assert all(a.base is None for a in trained)


class TestAdam:
    def test_folded_update_matches_the_textbook_formula(self):
        """Kingma & Ba's Algorithm 1, written out, over 200 steps."""
        rng = np.random.default_rng(30)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        size = 500
        theta = rng.standard_normal(size)
        ref = theta.copy()
        m, v = np.zeros(size), np.zeros(size)
        adam = _Adam(size, lr)
        for t in range(1, 201):
            # gradients spanning many scales, some near epsilon
            g = rng.standard_normal(size) * 10.0 ** rng.uniform(-9, 2, size)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref = ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            adam.step(theta, g)
            assert np.array_equal(adam.m, m) and np.array_equal(adam.v, v)
        assert np.max(np.abs(theta - ref) / np.abs(ref)) < 1e-12


class TestBackprop:
    def test_short_batch_reuses_the_buffers(self):
        """A batch shorter than the buffers gives the gradient of its own rows."""
        rng = np.random.default_rng(31)
        X = rng.standard_normal((20, 4))
        y = rng.integers(0, 3, 20).astype(float)
        net = init_mlp(D=4, width=6, n_out=3, seed=32)
        step = _Backprop(net, 8, "ce")
        rows = np.array([3, 17, 5])
        other = rng.permutation(20)[:8]
        step(X[other], y[other])  # fill the buffers with another batch
        value = step(X[rows], y[rows])
        alone, grads = loss_and_grads(net, X[rows], y[rows], "ce")
        assert value == alone
        assert all(np.array_equal(a, b) for a, b in zip(step.grads, grads))


class TestMlp:
    def test_init_shapes_and_zero_biases(self):
        net = init_mlp(D=7, width=11, n_out=3, seed=0)
        assert net.W1.shape == (7, 11) and net.W2.shape == (11, 3)
        assert np.all(net.b1 == 0) and np.all(net.b2 == 0)

    def test_scalar_head_squeezes(self):
        net = init_mlp(D=4, width=6, n_out=1, seed=1)
        assert forward_mlp(net, np.ones((5, 4))).shape == (5,)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 3))
        spins = np.where(rng.standard_normal(6) > 0, 1.0, -1.0)
        classes = rng.integers(0, 3, 6).astype(float)
        for n_out, loss, y in ((3, "ce", classes), (1, "ce", spins), (1, "mse", spins)):
            net = init_mlp(D=3, width=4, n_out=n_out, seed=3)
            value, grads = loss_and_grads(net, X, y, loss)
            eps = 1e-6
            for name, grad in zip(("W1", "b1", "W2", "b2"), grads):
                arr = getattr(net, name)
                idx = tuple(0 for _ in arr.shape)
                bumped = arr.copy()
                bumped[idx] += eps
                plus, _ = loss_and_grads(Mlp(**{**net.__dict__, name: bumped}), X, y, loss)
                bumped[idx] -= 2 * eps
                minus, _ = loss_and_grads(Mlp(**{**net.__dict__, name: bumped}), X, y, loss)
                assert abs((plus - minus) / (2 * eps) - grad[idx]) < 1e-6, (n_out, loss, name)

    def test_multiclass_training_learns(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((150, 4))
        y = (X[:, 0] > 0).astype(float) + 2 * (X[:, 1] > 0).astype(float)  # 4 quadrant classes
        ds = Dataset(X=X, y=y)
        net = init_mlp(D=4, width=40, n_out=4, seed=5)
        out = train_gd(net, ds, TrainConfig(loss="ce", optimizer="minibatch-gd",
                                            batch_size=32, lr=5e-3, epochs=300, seed=6))
        assert out.train_error < 0.1

    def test_multiclass_bmd_is_positive(self):
        net = init_mlp(D=8, width=10, n_out=3, seed=7)
        md = multiclass_bmd(net, InputSampler.binary(8), n_samples=500, seed=8)
        assert md > 0

    def test_multiclass_bmd_of_constant_outputs_is_nan(self):
        net = init_mlp(6, 5, 3, seed=0)
        net.W2[:] = 0
        assert np.isnan(multiclass_bmd(net, InputSampler.binary(6), n_samples=200, seed=1))

    def test_multiclass_bmd_refuses_a_scalar_head(self):
        net = init_mlp(6, 5, 1, seed=0)
        with pytest.raises(ValueError, match="n_out = 1"):
            multiclass_bmd(net, InputSampler.binary(6), n_samples=200, seed=1)


def corrupt_run(net, ds, k, cfg):
    """k epochs of train_gd on fully corrupted labels, as adversarial-init
    pretrains: flip_labels and the batches both at seed cfg.seed + 1000."""
    return train_gd(net, flip_labels(ds, 1.0, seed=cfg.seed + 1000),
                    replace(cfg, epochs=k, seed=cfg.seed + 1000))


class TestAdversarialInit:
    def setup_problem(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1, 1, size=(80, 5))
        y = np.where(X @ np.array([1.0, -1.0, 0.5, 0.0, 0.2]) > 0, 1.0, -1.0)
        return Dataset(X=X, y=y), init_mlp(D=5, width=16, n_out=1, seed=10)

    def test_pretrain_memorizes_noise(self):
        ds, net = self.setup_problem()
        cfg = TrainConfig(loss="mse", optimizer="minibatch-gd", batch_size=16,
                          lr=5e-3, epochs=30, seed=12)
        phase1 = corrupt_run(net, ds, 150, cfg)
        assert phase1.history.shape == (150,)
        assert phase1.history[-1] < phase1.history[0]  # corrupted-label loss decreases
        snaps, diverged = _pretrain(net, ds, (150,), cfg)
        assert diverged is None
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(snaps[150], name), getattr(phase1.model, name))

    def test_requires_mlp(self):
        ds, _ = self.setup_problem()
        model = make_model(5, 8, seed=13)
        with pytest.raises(ValueError, match="train_gd trains two-layer MLPs"):
            train_gd(model, ds, TrainConfig())

    def test_one_trajectory_gives_each_grid_point(self):
        """Snapshots of one run to max(grid) start the same main phase as
        a separate corrupt run of each length, bit for bit."""
        ds, _ = gen_multiclass_task(5, 60, 10, 3, seed=14)
        net = init_mlp(D=5, width=16, n_out=3, seed=15)
        cfg = TrainConfig(loss="ce", optimizer="minibatch-gd", batch_size=16,
                          lr=5e-3, epochs=4, seed=16)
        grid = (2, 5, 10)
        snaps, diverged = _pretrain(net, ds, grid, cfg)
        assert diverged is None and sorted(snaps) == list(grid)
        for k in grid:
            shared = train_gd(snaps[k], ds, cfg)
            alone = train_gd(corrupt_run(net, ds, k, cfg).model, ds, cfg)
            for name in ("W1", "b1", "W2", "b2"):
                assert np.array_equal(getattr(shared.model, name), getattr(alone.model, name))
            assert np.array_equal(shared.history, alone.history)

    def test_diverged_trajectory_keeps_the_epochs_before_it(self):
        net = init_mlp(D=6, width=5, n_out=1, seed=17)
        ds, _ = gen_teacher_student(6, 30, 10, TeacherTask.random(6, seed=18), seed=19)
        cfg = TrainConfig(lr=2.0, epochs=1)  # the corrupt phase diverges at epoch 6
        snaps, diverged = _pretrain(net, ds, (3, 6, 7, 10), cfg)
        assert sorted(snaps) == [3, 6]
        assert diverged.startswith("training diverged at epoch 6 (loss ")
        corrupted = flip_labels(ds, 1.0, seed=cfg.seed + 1000)
        six, _ = _descend(net, corrupted, replace(cfg, epochs=6, seed=cfg.seed + 1000))
        assert np.array_equal(snaps[6].W1, six.W1) and np.array_equal(snaps[6].b2, six.b2)
        for k in (7, 10):
            with pytest.raises(RuntimeError) as exc:
                corrupt_run(net, ds, k, cfg)
            assert str(exc.value) == diverged


class TestRobustness:
    def test_dictator_expected_count(self):
        D, P = 21, 600
        rng = np.random.default_rng(14)
        X = rng.integers(0, 2, (P, D)).astype(float) * 2 - 1
        ds = Dataset(X=X, y=X[:, 7].copy())
        predict = lambda x: x[:, 7]  # sign read off directly
        res = robustness_flip_count(predict, ds, seed=15)
        assert res.n_evaluated == P and res.counts.shape == (P,)
        # the fooling coordinate sits at a uniform position in the permutation
        expected = (D + 1) / 2
        std_err = np.sqrt((D**2 - 1) / 12 / res.n_evaluated)
        assert abs(res.mean - expected) < 3 * std_err

    def test_constant_classifier_always_caps(self):
        rng = np.random.default_rng(16)
        X = rng.integers(0, 2, (40, 6)).astype(float) * 2 - 1
        ds = Dataset(X=X, y=np.ones(40))
        res = robustness_flip_count(lambda x: np.ones(x.shape[0]), ds, seed=17)
        assert res.mean == 6.0 and np.all(res.counts == 6) and res.n_evaluated == 40

    def test_walk_blocks_match_the_cumulative_flip_loop(self):
        """Each walk block equals the one built by negating the permuted
        coordinates one at a time, the reference loop."""
        D, P = 9, 12
        X = np.where(np.random.default_rng(24).standard_normal((P, D)) > 0, 1.0, -1.0)
        blocks = []

        def predict(x):
            blocks.append(x.copy())
            return np.ones(x.shape[0])

        robustness_flip_count(predict, Dataset(X=X, y=np.ones(P)), seed=25)
        walk_rng = np.random.default_rng(np.random.SeedSequence([25, 31]))
        assert len(blocks) == P + 1  # the labels of X, then one walk per point
        for row, block in enumerate(blocks[1:]):
            ref = np.tile(X[row], (D, 1))
            for k, coord in enumerate(walk_rng.permutation(D)):
                ref[k:, coord] = -ref[k:, coord]
            assert np.array_equal(block, ref)

    def test_no_correct_points_is_undefined(self):
        ds = Dataset(X=np.ones((5, 3)), y=np.full(5, -1.0))
        res = robustness_flip_count(lambda x: np.ones(x.shape[0]), ds, seed=18)
        assert res.n_evaluated == 0 and res.counts.size == 0 and np.isnan(res.mean)

    def test_works_on_trained_rfm(self):
        model = make_model(10, 30, seed=19)
        ds, _ = gen_teacher_student(10, 60, 10, TeacherTask.random(10, seed=20), seed=21)
        fitted = train_rfm_ridge(model, ds, 1e-2)
        res = robustness_flip_count(
            lambda X: np.where(forward(fitted.model, X) >= 0, 1.0, -1.0), ds, seed=22)
        assert res.n_evaluated > 0
        assert 1.0 <= res.mean <= 10.0


class TestPredictLabels:
    def test_scalar_and_multiclass_heads(self):
        X = np.random.default_rng(23).standard_normal((20, 4))
        scalar = init_mlp(4, 5, 1, seed=23)
        assert np.array_equal(predict_labels(scalar, X),
                              np.where(forward_mlp(scalar, X) >= 0, 1.0, -1.0))
        net = init_mlp(4, 5, 3, seed=24)
        out = predict_labels(net, X)
        assert out.shape == (20,) and np.array_equal(out, forward_mlp(net, X).argmax(axis=1))
