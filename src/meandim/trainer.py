"""Data generation and training for random feature models and small MLPs.

Supervised tasks come from a linear teacher: y = sign(w_T^T x / sqrt(D)),
optionally corrupted by pre-sign Gaussian noise of variance delta or by
flipping an exact fraction of labels. Students are either an RFM second
layer fitted by closed-form ridge or a dense two-layer tanh network
trained end to end by gradient descent.

Binary losses act on the margin h = y * y_hat:

    mse: 0.5 (1 - h)^2        ce: log(1 + exp(-h))

which equal the usual 0.5 (y - y_hat)^2 and log(1 + exp(-y y_hat)) for
labels in {-1, +1}. Multi-class training uses cross-entropy on log-softmax
outputs. Losses are per-sample means, as in the replica predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimator import InputSampler, LinearFirstLayer, estimate_md_multioutput
from .rfm import RfmModel, design_matrix, forward, with_weights

__all__ = [
    "Dataset",
    "TeacherTask",
    "TrainConfig",
    "TrainedModel",
    "Mlp",
    "FlipCountResult",
    "gen_teacher_student",
    "gen_multiclass_task",
    "flip_labels",
    "train_rfm_ridge",
    "train_gd",
    "init_mlp",
    "forward_mlp",
    "mlp_score_fn",
    "predict_labels",
    "robustness_flip_count",
    "multiclass_bmd",
]

ADAM_CHUNK = 1 << 15  # parameters an Adam step updates per slice: 256 KiB of each array


@dataclass(frozen=True)
class Dataset:
    """Inputs and observed labels.

    y holds the labels actually trained on; y_clean keeps the noiseless
    teacher labels so generalization can be scored against the clean rule.
    n_classes is None for +-1 sign labels, else the number of classes whose
    integer indices y holds (some may be absent from y).
    """

    X: np.ndarray
    y: np.ndarray
    y_clean: np.ndarray | None = None
    n_classes: int | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ValueError("X must be (P, D) with one label per row")

    @property
    def P(self) -> int:
        return self.X.shape[0]

    @property
    def D(self) -> int:
        return self.X.shape[1]

    @property
    def clean_labels(self) -> np.ndarray:
        return self.y if self.y_clean is None else self.y_clean


@dataclass(frozen=True)
class TeacherTask:
    """Linear sign teacher with ||w_T||^2 = D and label-noise variance delta."""

    w_T: np.ndarray
    input_kind: str = "binary"
    delta: float = 0.0

    def __post_init__(self):
        D = self.w_T.shape[0]
        if not abs(self.w_T @ self.w_T - D) <= 1e-9 * D:
            raise ValueError(f"teacher norm^2 must equal D = {D} (to 1e-9 D)")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.input_kind not in ("binary", "gaussian"):
            raise ValueError(f"unknown input kind {self.input_kind!r}")

    @classmethod
    def random(cls, D: int, seed: int, input_kind: str = "binary",
               delta: float = 0.0) -> "TeacherTask":
        w = np.random.default_rng(np.random.SeedSequence([seed, 17])).standard_normal(D)
        w *= np.sqrt(D) / np.linalg.norm(w)
        return cls(w_T=w, input_kind=input_kind, delta=delta)


def _teacher_labels(rng, X: np.ndarray, task: TeacherTask):
    pre = X @ task.w_T / np.sqrt(X.shape[1])
    clean = np.where(pre >= 0, 1.0, -1.0)
    if task.delta == 0.0:
        return clean, clean
    noisy_pre = pre + np.sqrt(task.delta) * rng.standard_normal(X.shape[0])
    return np.where(noisy_pre >= 0, 1.0, -1.0), clean


def gen_teacher_student(D: int, P_train: int, P_test: int, task: TeacherTask,
                        seed: int) -> tuple[Dataset, Dataset]:
    """Draw i.i.d. train and test sets labeled by the sign teacher.

    With delta > 0 the Gaussian noise sqrt(delta)*zeta enters before the
    sign on both splits; the pre-noise labels are kept in y_clean.
    """
    if D < 1 or P_train < 1 or P_test < 1:
        raise ValueError("D and both sample counts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    sets = []
    for P in (P_train, P_test):
        X = InputSampler(task.input_kind, D).sample_background(rng, P)
        y, clean = _teacher_labels(rng, X, task)
        sets.append(Dataset(X=X, y=y, y_clean=clean))
    return sets[0], sets[1]


def gen_multiclass_task(D: int, P_train: int, P_test: int, n_classes: int,
                        input_kind: str = "gaussian",
                        seed: int = 0) -> tuple[Dataset, Dataset]:
    """Draw train/test sets labeled by nearest of n_classes random prototypes.

    Each class c owns a fixed direction v_c; the label of x is
    argmax_c v_c . x / sqrt(D). Labels are integer class indices, so these
    sets feed the multiclass MLP path (flip_labels reshuffles within the
    other classes).
    """
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if D < 1 or P_train < 1 or P_test < 1:
        raise ValueError("D and both sample counts must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 37]))
    protos = rng.standard_normal((n_classes, D))
    sets = []
    for P in (P_train, P_test):
        X = InputSampler(input_kind, D).sample_background(rng, P)
        y = np.argmax(X @ protos.T / np.sqrt(D), axis=1).astype(float)
        sets.append(Dataset(X=X, y=y, y_clean=y.copy(), n_classes=n_classes))
    return sets[0], sets[1]


def flip_labels(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Corrupt exactly floor(fraction * P) labels, each to a wrong value.

    Sign labels flip; class indices move uniformly among the other
    ds.n_classes - 1 classes. y_clean keeps the labels from before the
    first corruption.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    n_flip = int(fraction * ds.P)
    if n_flip == 0:
        return ds
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    rows = rng.choice(ds.P, size=n_flip, replace=False)
    y = ds.y.copy()
    if ds.n_classes is None:
        y[rows] = -y[rows]
    else:
        shift = rng.integers(1, ds.n_classes, size=n_flip)
        y[rows] = (y[rows].astype(int) + shift) % ds.n_classes
    return replace(ds, y=y, y_clean=ds.y.copy() if ds.y_clean is None else ds.y_clean)


# ---------------------------------------------------------------------------
# losses and metrics

def _margin_loss(kind: str, h: np.ndarray) -> np.ndarray:
    if kind == "mse":
        return 0.5 * (1.0 - h) ** 2
    if kind == "ce":
        return np.logaddexp(0.0, -h)
    raise ValueError(f"unknown loss {kind!r}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x); below x = -709 e^-x overflows to inf, which gives the
    right limit 0, so that overflow is not reported."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _margin_loss_grad(kind: str, y: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    """d loss / d yhat for binary +-1 labels."""
    if kind == "mse":
        return yhat - y
    if kind == "ce":
        return -y * _sigmoid(-y * yhat)
    raise ValueError(f"unknown loss {kind!r}")


def _binary_error(yhat: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.where(yhat >= 0, 1.0, -1.0) != y))


@dataclass(frozen=True)
class TrainedModel:
    model: object
    train_error: float
    test_error: float
    history: np.ndarray
    converged: bool = True

    def __post_init__(self):
        if not 0.0 <= self.train_error <= 1.0:
            raise ValueError("train_error must lie in [0, 1]")
        if np.isfinite(self.test_error) and not 0.0 <= self.test_error <= 1.0:
            raise ValueError("test_error must lie in [0, 1]")


# ---------------------------------------------------------------------------
# RFM training

def train_rfm_ridge(model: RfmModel, ds: Dataset, lam: float,
                    test_ds: Dataset | None = None) -> TrainedModel:
    """Closed-form ridge fit of the second layer under MSE.

    Minimises the ridge objective 0.5 ||y - Xp w / sqrt(N)||^2 + lam ||w||^2 / 2
    with Xp the (P, N) design matrix, by one of two linear solves
    (np.linalg.solve) that give the same minimiser:

    - primal, when N <= P or lam = 0: solve (Xp^T Xp / N + lam I) w =
      Xp^T y / sqrt(N), an N x N system;
    - dual, when N > P and lam > 0: solve (Xp Xp^T / N + lam I) a =
      y / sqrt(N), a P x P system, and set w = Xp^T a (the push-through
      identity).

    The shape picks the route so that the smaller Gram is solved: past
    the interpolation threshold a fit costs O(N P^2 + P^3), linear in the
    width, instead of O(N^2 P + N^3). At lam = 0 past the threshold the
    minimiser is not unique, so lam = 0 always takes the primal route,
    which raises LinAlgError when its system is rank-deficient.

    Iterative refinement on the same system pushes the gradient of the
    objective, Xp^T (Xp w / N - y / sqrt(N)) + lam w, below 1e-8 even near
    interpolation; a larger final gradient raises RuntimeError.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"lam must be finite and >= 0, got lam = {lam!r}")
    Xp = design_matrix(model, ds.X)
    N = model.N
    dual = lam > 0.0 and N > ds.P
    if dual:
        A = Xp @ Xp.T / N + lam * np.eye(ds.P)
        b = ds.y / np.sqrt(N)
    else:
        A = Xp.T @ Xp / N + lam * np.eye(N)
        b = Xp.T @ ds.y / np.sqrt(N)
    if lam == 0.0:
        cond = np.linalg.cond(A)
        if cond > 1e12:
            raise np.linalg.LinAlgError(
                f"rank-deficient system at lam=0 (condition number {cond:.2e}); "
                "add ridge regularization")
    x = np.linalg.solve(A, b)
    for step in range(5):  # up to 4 refinement steps drive the residual down
        residual = b - A @ x
        # the objective's gradient is -residual (primal) or -Xp^T residual (dual)
        grad_norm = float(np.linalg.norm(Xp.T @ residual if dual else residual))
        if grad_norm < 1e-8 or step == 4:
            break
        x = x + np.linalg.solve(A, residual)
    if grad_norm >= 1e-8:
        raise RuntimeError(f"ridge stationarity check failed: |grad| = {grad_norm:.3e}")
    w = Xp.T @ x if dual else x
    fitted = with_weights(model, w)
    yhat = Xp @ w / np.sqrt(N)
    test_error = np.nan
    if test_ds is not None:
        test_error = _binary_error(forward(fitted, test_ds.X), test_ds.clean_labels)
    return TrainedModel(
        model=fitted,
        train_error=_binary_error(yhat, ds.y),
        test_error=test_error,
        history=np.zeros(0),
    )


# ---------------------------------------------------------------------------
# MLP training (full-batch GD, or minibatch Adam per the usual recipe)

@dataclass(frozen=True)
class TrainConfig:
    """Knobs for gradient training of a two-layer MLP.

    optimizer "full-batch-gd" takes one plain gradient step per epoch,
    theta -= lr * grad; "minibatch-gd" takes one Adam step per shuffled
    batch. Adam (Kingma & Ba, ICLR 2015) with betas 0.9/0.999 and epsilon
    1e-8 keeps m = 0.9 m + 0.1 g and v = 0.999 v + 0.001 g^2, and at step t
    moves theta by lr m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 -
    0.9^t) and v_hat = v / (1 - 0.999^t); the bias corrections are folded
    into the scalars lr sqrt(1 - 0.999^t) / (1 - 0.9^t) and eps sqrt(1 -
    0.999^t), which is the same update up to rounding. Defaults are batch
    128 and lr 1e-4. batch_size >= 1, epochs >= 0 and a finite lr > 0 are
    required.
    """

    loss: str = "mse"
    optimizer: str = "full-batch-gd"
    batch_size: int = 128
    lr: float = 1e-4
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.loss not in ("mse", "ce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.optimizer not in ("full-batch-gd", "minibatch-gd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs!r}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


@dataclass
class Mlp:
    """Dense two-layer tanh network; n_out = 1 gives a scalar margin head."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @property
    def n_out(self) -> int:
        return self.W2.shape[1]


def init_mlp(D: int, width: int, n_out: int, seed: int) -> Mlp:
    # Xavier scaling, normal variant, zero biases
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    return Mlp(
        W1=rng.standard_normal((D, width)) / np.sqrt(D),
        b1=np.zeros(width),
        W2=rng.standard_normal((width, n_out)) / np.sqrt(width),
        b2=np.zeros(n_out),
    )


def _logits(net: Mlp, hidden: np.ndarray) -> np.ndarray:
    """Logits from the hidden activations tanh(X W1 + b1)."""
    out = hidden @ net.W2 + net.b2
    return out[:, 0] if net.n_out == 1 else out


def forward_mlp(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Logits, shape (m, n_out); squeezed to (m,) when n_out = 1."""
    # h is fresh, so the bias and tanh go in place: one m x width block is
    # the peak memory of predict_labels on a large set
    h = X @ net.W1
    h += net.b1
    return _logits(net, np.tanh(h, out=h))


def mlp_score_fn(net: Mlp) -> LinearFirstLayer:
    """forward_mlp as a score for the MD estimator, with rank-1 coordinate probes."""
    return LinearFirstLayer(net.W1, net.b1, lambda h: _logits(net, np.tanh(h, out=h)))


def predict_labels(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Predicted labels: +-1 for a scalar head, the argmax class otherwise."""
    out = forward_mlp(net, X)
    if out.ndim == 1:
        return np.where(out >= 0, 1.0, -1.0)
    return out.argmax(axis=1).astype(float)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, the expression of scipy.special.log_softmax(z, axis=1).

    Written out because scipy's array-API wrapper costs more than the
    arithmetic on the small blocks of a minibatch step.
    """
    z_max = z.max(axis=1, keepdims=True)
    z_max[~np.isfinite(z_max)] = 0.0
    tmp = z - z_max
    with np.errstate(divide="ignore"):
        return tmp - np.log(np.exp(tmp).sum(axis=1, keepdims=True))


def _copy_mlp(net: Mlp) -> Mlp:
    return Mlp(net.W1.copy(), net.b1.copy(), net.W2.copy(), net.b2.copy())


class _Backprop:
    """Loss and gradient of a two-layer tanh network on batches of at most
    `rows` rows, with no per-call array of batch x width or parameter size.

    theta is a flat copy of the network's parameters and `net` views it;
    each call writes the gradient into the flat `grad`, which `grads` views
    in the same (W1, b1, W2, b2) layout. The hidden buffers are allocated
    once and sliced for a short batch; tanh and 1 - tanh^2 overwrite them.
    """

    def __init__(self, net: Mlp, rows: int, loss: str):
        arrays = (net.W1, net.b1, net.W2, net.b2)
        self.theta = np.concatenate([a.ravel() for a in arrays])
        self.grad = np.empty_like(self.theta)
        ends = np.cumsum([a.size for a in arrays])[:-1]

        def views(flat):
            return [part.reshape(a.shape) for part, a in zip(np.split(flat, ends), arrays)]

        self.net, self.grads = Mlp(*views(self.theta)), views(self.grad)
        self.loss = loss
        self._hidden = np.empty((rows, net.W1.shape[1]))
        self._d_hidden = np.empty_like(self._hidden)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """The mean loss on the batch (x, y); grad receives its gradient."""
        P = x.shape[0]
        hidden, d_hidden = self._hidden[:P], self._d_hidden[:P]
        net, (gW1, gb1, gW2, gb2) = self.net, self.grads
        np.matmul(x, net.W1, out=hidden)
        hidden += net.b1
        np.tanh(hidden, out=hidden)
        logits = hidden @ net.W2 + net.b2
        if net.n_out == 1:
            yhat = logits[:, 0]
            value = _margin_loss(self.loss, y * yhat).mean()
            d_logits = (_margin_loss_grad(self.loss, y, yhat) / P)[:, None]
        else:
            logp = _log_softmax(logits)
            idx = y.astype(int)
            value = -logp[np.arange(P), idx].mean()
            d_logits = np.exp(logp)
            d_logits[np.arange(P), idx] -= 1.0
            d_logits /= P
        np.matmul(hidden.T, d_logits, out=gW2)
        np.sum(d_logits, axis=0, out=gb2)
        np.matmul(d_logits, net.W2.T, out=d_hidden)
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        d_hidden *= hidden
        np.matmul(x.T, d_hidden, out=gW1)
        np.sum(d_hidden, axis=0, out=gb1)
        return value


class _Adam:
    """Adam over one flat parameter vector, both bias corrections folded
    into the step and epsilon scalars (TrainConfig states the update).
    A step runs on slices of ADAM_CHUNK elements, so its passes stay in
    cache; each element's arithmetic is that of one whole-array pass."""

    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._a = np.empty(min(size, ADAM_CHUNK))
        self._b = np.empty(min(size, ADAM_CHUNK))

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update the moments and theta in place, without temporaries."""
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        root = np.sqrt(1 - b2**self.t)
        rate = self.lr * root / (1 - b1**self.t)
        for start in range(0, theta.size, ADAM_CHUNK):
            part = slice(start, start + ADAM_CHUNK)
            m, v, g = self.m[part], self.v[part], grad[part]
            a, b = self._a[:m.size], self._b[:m.size]
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            v += np.multiply(1 - b2, np.multiply(g, g, out=b), out=b)
            np.sqrt(v, out=b)
            b += eps * root
            np.multiply(m, rate, out=a)
            a /= b
            theta[part] -= a


def _descend(skeleton: Mlp, ds: Dataset, config: TrainConfig,
             on_epoch=None) -> tuple[Mlp, np.ndarray]:
    """The trained network and the per-epoch loss history of train_gd.

    on_epoch(k, net), when given, sees the network after each epoch k =
    1, 2, ... that passed the divergence check; net is a view of the live
    parameters, which the next step overwrites.
    """
    if not isinstance(skeleton, Mlp):
        raise ValueError("train_gd trains two-layer MLPs")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    P = ds.P
    minibatch = config.optimizer == "minibatch-gd"
    step = min(config.batch_size, P) if minibatch else P
    backprop = _Backprop(skeleton, step, config.loss)
    theta, grad = backprop.theta, backprop.grad
    adam = _Adam(theta.size, config.lr) if minibatch else None
    history = np.zeros(config.epochs)
    initial_loss = None
    for epoch in range(config.epochs):
        order = rng.permutation(P) if minibatch else np.arange(P)
        for start in range(0, P, step):
            rows = order[start:start + step]
            value = backprop(ds.X[rows], ds.y[rows])
            if adam is None:
                theta -= config.lr * grad
            else:
                adam.step(theta, grad)
            history[epoch] += value * rows.size / P
        if initial_loss is None:
            initial_loss = abs(value) + 1e-12
        if not np.isfinite(value) or abs(value) > 1e3 * initial_loss:
            raise RuntimeError(
                f"training diverged at epoch {epoch} (loss {float(value)!r}); lower the learning rate")
        if on_epoch is not None:
            on_epoch(epoch + 1, backprop.net)
    return _copy_mlp(backprop.net), history


def train_gd(skeleton: Mlp, ds: Dataset, config: TrainConfig,
             test_ds: Dataset | None = None) -> TrainedModel:
    """Gradient training of a two-layer MLP.

    Deterministic for a fixed (skeleton, ds, config). history[k] is the
    mean loss of epoch k's steps, each step weighted by its rows and taken
    before its update; the converged flag records whether the last epoch's
    loss sits within 1e-6 of its minimum over the last 10% of epochs.
    Training runs on a flat copy of the skeleton's parameters with
    gradient and batch buffers allocated once, so an Adam step allocates
    no array of batch x width or parameter size; the returned network
    owns its arrays. A loss that is not finite, or above 1e3 times the
    first epoch's, raises RuntimeError naming the epoch.
    """
    model, history = _descend(skeleton, ds, config)
    train_err = float(np.mean(predict_labels(model, ds.X) != ds.y))
    test_err = np.nan
    if test_ds is not None:
        test_err = float(np.mean(predict_labels(model, test_ds.X) != test_ds.clean_labels))
    tail = history[-max(1, config.epochs // 10):]
    return TrainedModel(
        model=model,
        train_error=train_err,
        test_error=test_err,
        history=history,
        converged=bool(tail.size == 0 or history[-1] <= tail.min() + 1e-6),
    )


def _pretrain(skeleton: Mlp, ds: Dataset, grid, config: TrainConfig) -> tuple[dict, str | None]:
    """The corrupt-label pretraining trajectory of the adversarial-init
    experiment.

    Trains on fully corrupted labels (flip_labels at seed config.seed +
    1000, which also draws the batches) for max(grid) epochs and returns
    ({k: the network after k epochs} for each k > 0 in grid, None). Training
    is deterministic and its divergence check anchored at epoch 0, so the
    network after k epochs equals the model of the k-epoch run
    train_gd(skeleton, corrupted, replace(config, epochs=k, seed=config.seed
    + 1000)) bit for bit. When the trajectory diverges at epoch e the dict
    holds only the k <= e, and the second item is the message that a run of
    any longer k raises.
    """
    snaps = {}

    def keep(epochs, net):
        if epochs in grid:
            snaps[epochs] = _copy_mlp(net)

    corrupted = flip_labels(ds, 1.0, seed=config.seed + 1000)
    try:
        _descend(skeleton, corrupted,
                 replace(config, epochs=max(grid), seed=config.seed + 1000), keep)
    except RuntimeError as exc:
        return snaps, str(exc)
    return snaps, None


@dataclass(frozen=True)
class FlipCountResult:
    mean: float
    counts: np.ndarray
    n_evaluated: int


def robustness_flip_count(predict, ds: Dataset, seed: int,
                          max_points: int | None = None) -> FlipCountResult:
    """Average number of random coordinate negations that change the label.

    predict maps an (m, D) input block to m labels. For each correctly
    classified point, coordinates are visited in a uniformly random order
    and negated cumulatively until the prediction moves; counts cap at D.
    With no correctly classified points nothing is evaluated and the mean
    is NaN.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 31]))
    labels = predict(ds.X)
    correct = np.flatnonzero(labels == ds.y)
    if correct.size == 0:
        return FlipCountResult(np.nan, np.zeros(0), 0)
    if max_points is not None and correct.size > max_points:
        correct = rng.choice(correct, size=max_points, replace=False)
    D = ds.D
    steps = np.arange(D)
    rank = np.empty(D, dtype=int)
    counts = np.empty(correct.size, dtype=int)
    for out_idx, row in enumerate(correct):
        rank[rng.permutation(D)] = steps  # each coordinate's position in the walk
        # row k of the walk has the first k + 1 coordinates of the order negated
        x = np.where(steps[:, None] >= rank, -ds.X[row], ds.X[row])
        flipped_labels = predict(x)
        moved = np.flatnonzero(flipped_labels != labels[row])
        counts[out_idx] = moved[0] + 1 if moved.size else D
    return FlipCountResult(float(counts.mean()), counts, correct.size)


def multiclass_bmd(net: Mlp, sampler: InputSampler, n_samples: int, seed: int) -> float:
    """Mean of the per-class mean dimensions of the log-softmax outputs.

    NaN when any class's mean dimension is undefined (its output does not
    vary, say a network with constant outputs), as a scalar head's
    undefined md reads NaN in a sweep. A scalar head (n_out = 1) has no
    classes and raises ValueError.
    """
    if net.n_out < 2:
        raise ValueError(f"multiclass_bmd needs a head of 2 or more classes, "
                         f"got n_out = {net.n_out}")
    score = LinearFirstLayer(net.W1, net.b1,
                             lambda h: _log_softmax(_logits(net, np.tanh(h, out=h))))
    mds = [p.md for p in estimate_md_multioutput(score, net.n_out, sampler, n_samples, seed)]
    return np.nan if None in mds else float(np.mean(mds))

