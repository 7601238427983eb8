"""Random feature models and their Gaussian-equivalence description.

A model computes y_hat(x) = w^T sigma(F^T x / sqrt(D)) / sqrt(N) with i.i.d.
Gaussian features F. Averaging over binary (or any matching-two-moment)
inputs replaces the activation by its Gaussian moments

    k0 = E[sigma(z)]    k1 = E[z sigma(z)]      k2 = E[sigma(z)^2]
    kb0 = E[sigma'(z)]  kb1 = E[z sigma'(z)]    kb2 = E[sigma'(z)^2]

with z standard normal, plus the residuals k_star_sq = k2 - k1^2 - k0^2 and
kbar_star_sq = kb2 - kb1^2 - kb0^2. Those eight numbers and the feature
overlap Omega = F^T F / D give a closed form for the mean dimension of the
model as a ratio of quadratic forms in w (``analytic_bmd``).

Derivatives are weak derivatives: sign contributes a point mass 2*delta(0)
whose square is not integrable, so its kb2 is +inf and its mean dimension
diverges. Every activation is integrated on Gauss-Legendre panels split at
0, so that no quadrature node lands on the kink of sign or leaky-relu.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .estimator import LinearFirstLayer
from .textio import read_text, write_text

__all__ = [
    "Activation",
    "KappaSet",
    "RfmModel",
    "QuadratureError",
    "compute_kappas",
    "random_rfm",
    "with_weights",
    "design_matrix",
    "forward",
    "score_fn",
    "analytic_bmd",
    "bmd_from_overlaps",
    "save_rfm",
    "load_rfm",
]

DEFAULT_NODES = 201
TAIL_CUTOFF = 13.0  # Gaussian mass beyond |z| = 13 is ~ 1e-37


class QuadratureError(RuntimeError):
    """Raised when the node-doubling check fails to converge."""


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity with weak first derivative.

    kinds: tanh, sign, linear, leaky-relu (slope 1 for z > 0, ``leak``
    below; leak 0 is the plain relu). ``deriv`` returns the almost-
    everywhere pointwise derivative; point masses (sign's 2*delta at 0)
    are reported separately through ``deriv_atoms``. Any other kind
    raises ValueError when the activation is built.
    """

    kind: str
    leak: float = 0.0

    def __post_init__(self):
        if self.kind not in ("tanh", "sign", "linear", "leaky-relu"):
            raise ValueError(f"unknown activation kind {self.kind!r}")

    @classmethod
    def tanh(cls) -> "Activation":
        return cls(kind="tanh")

    @classmethod
    def sign(cls) -> "Activation":
        return cls(kind="sign")

    @classmethod
    def linear(cls) -> "Activation":
        return cls(kind="linear")

    @classmethod
    def leaky_relu(cls, leak: float = 0.0) -> "Activation":
        return cls(kind="leaky-relu", leak=float(leak))

    def value(self, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """sigma(z). out, when given, receives the result and may be z
        itself: the map then runs in place, allocates no second array and
        equals value(z) bit for bit."""
        if self.kind == "tanh":
            return np.tanh(z, out=out)
        if self.kind == "sign":
            return np.sign(z, out=out)
        if self.kind == "linear":
            if out is None:
                return np.asarray(z, dtype=float)
            if out is not z:
                out[...] = z
            return out
        if out is None:  # leaky-relu
            return np.where(z > 0, z, self.leak * z)
        negative = ~(z > 0)
        if out is not z:
            out[...] = z
        return np.multiply(out, self.leak, out=out, where=negative)

    def deriv(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "tanh":
            return 1.0 - np.tanh(z) ** 2
        if self.kind == "sign":
            return np.zeros_like(z)
        if self.kind == "linear":
            return np.ones_like(z)
        return np.where(z > 0, 1.0, self.leak)  # leaky-relu

    @property
    def deriv_atoms(self) -> tuple[tuple[float, float], ...]:
        """(location, mass) of delta components of the weak derivative."""
        return ((0.0, 2.0),) if self.kind == "sign" else ()

    @property
    def tag(self) -> str:
        if self.kind == "leaky-relu":
            return f"leaky-relu:{self.leak!r}"
        return self.kind

    @classmethod
    def from_tag(cls, tag: str) -> "Activation":
        name, _, param = tag.partition(":")
        if name == "leaky-relu":
            return cls.leaky_relu(float(param) if param else 0.0)
        if name in ("tanh", "sign", "linear"):
            return cls(kind=name)
        raise ValueError(f"unknown activation tag {tag!r}")


@dataclass(frozen=True)
class KappaSet:
    """Gaussian moments of an activation and its weak derivative."""

    k0: float
    k1: float
    k2: float
    k_star_sq: float
    kbar0: float
    kbar1: float
    kbar2: float
    kbar_star_sq: float


@functools.cache
def _gaussian_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against the standard normal density:
    n_nodes Gauss-Legendre nodes on each half-line panel [0, TAIL_CUTOFF],
    2 n_nodes in all. The open nodes never touch 0, where sign and
    leaky-relu have their kink. The arrays are cached per node count and
    read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (x + 1.0) * TAIL_CUTOFF
    hw = 0.5 * w * TAIL_CUTOFF
    nodes = np.concatenate([-half[::-1], half])
    weights = np.concatenate([hw[::-1], hw])
    weights = weights * np.exp(-(nodes**2) / 2.0) / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _kappas_at(activation: Activation, n_nodes: int) -> KappaSet:
    z, p = _gaussian_rule(n_nodes)
    s = activation.value(z)
    d = activation.deriv(z)
    k0 = float(p @ s)
    k1 = float(p @ (z * s))
    k2 = float(p @ s**2)
    kb0 = float(p @ d)
    kb1 = float(p @ (z * d))
    kb2 = float(p @ d**2)
    for loc, mass in activation.deriv_atoms:
        dens = np.exp(-(loc**2) / 2.0) / np.sqrt(2.0 * np.pi)
        kb0 += mass * dens
        kb1 += mass * loc * dens
        kb2 = np.inf  # the squared point mass is not integrable
    def residual(second, first, zeroth):
        r = second - first**2 - zeroth**2
        return 0.0 if -1e-12 < r < 0.0 else r
    return KappaSet(k0, k1, k2, residual(k2, k1, k0),
                    kb0, kb1, kb2, residual(kb2, kb1, kb0))


def compute_kappas(activation: Activation) -> KappaSet:
    """All eight Gaussian moments at DEFAULT_NODES quadrature nodes, with a
    node-doubling convergence check.

    Raises QuadratureError if any coefficient moves by more than 1e-8 when
    the node count doubles (infinite coefficients compare equal to
    themselves and are exempt).
    """
    if activation.kind == "linear":
        # standard normal moments, exact; keeps the identity map at BMD 1
        return KappaSet(0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    coarse = _kappas_at(activation, DEFAULT_NODES)
    fine = _kappas_at(activation, 2 * DEFAULT_NODES)
    for name in ("k0", "k1", "k2", "k_star_sq", "kbar0", "kbar1", "kbar2", "kbar_star_sq"):
        a, b = getattr(coarse, name), getattr(fine, name)
        if np.isinf(a) and np.isinf(b):
            continue
        if abs(a - b) > 1e-8:
            raise QuadratureError(
                f"{name} moved by {abs(a - b):.3g} when doubling nodes for {activation.tag}")
    return coarse


@dataclass(frozen=True)
class RfmModel:
    """Random feature model; F has shape (D, N) and w has shape (N,)."""

    D: int
    N: int
    F: np.ndarray
    w: np.ndarray
    activation: Activation
    kappas: KappaSet

    def __post_init__(self):
        if self.D < 1 or self.N < 1:
            raise ValueError(f"D and N must be >= 1, got D = {self.D}, N = {self.N}")
        if self.F.shape != (self.D, self.N):
            raise ValueError(f"F must be (D, N) = ({self.D}, {self.N}), got {self.F.shape}")
        if self.w.shape != (self.N,):
            raise ValueError(f"w must have shape ({self.N},), got {self.w.shape}")
        if not (np.isfinite(self.F).all() and np.isfinite(self.w).all()):
            raise ValueError("F and w must be finite")


def random_rfm(D: int, N: int, activation: Activation, seed: int,
               kappas: KappaSet | None = None) -> RfmModel:
    """Fresh model with i.i.d. standard normal features and weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    F = rng.standard_normal((D, N))
    w = rng.standard_normal(N)
    if kappas is None:
        kappas = compute_kappas(activation)
    return RfmModel(D=D, N=N, F=F, w=w, activation=activation, kappas=kappas)


def with_weights(model: RfmModel, w: np.ndarray) -> RfmModel:
    """Same features, new second-layer weights."""
    return dataclasses.replace(model, w=np.asarray(w, dtype=float))


def _readout(model: RfmModel, h: np.ndarray) -> np.ndarray:
    """w^T sigma(h) / sqrt(N) for the rows of the preactivation h = x F / sqrt(D).
    The activation runs in place, so h is overwritten."""
    return model.activation.value(h, out=h) @ model.w / np.sqrt(model.N)


def design_matrix(model: RfmModel, X: np.ndarray) -> np.ndarray:
    """Post-activation features sigma(X F / sqrt(D)) of the rows of X, shape
    (P, N). The product X F is one whole-block matmul; the scale and the
    activation then run in place on it, so the map holds one P x N array,
    equals sigma((X @ F) / sqrt(D)) bit for bit and leaves X unwritten."""
    h = X @ model.F
    h /= np.sqrt(model.D)
    return model.activation.value(h, out=h)


def forward(model: RfmModel, x: np.ndarray) -> np.ndarray | float:
    """y_hat = w^T sigma(F^T x / sqrt(D)) / sqrt(N), batched over rows.

    The features are computed in place (``design_matrix``); x is not written.
    """
    x = np.asarray(x, dtype=float)
    out = design_matrix(model, np.atleast_2d(x)) @ model.w / np.sqrt(model.N)
    return float(out[0]) if x.ndim == 1 else out


def score_fn(model: RfmModel) -> LinearFirstLayer:
    """Batched score of the model for the MD estimator.

    The feature scale is folded into the first layer, W = F / sqrt(D), so a
    coordinate probe updates the cached preactivation by one row of W; the
    values agree with ``forward`` up to rounding.
    """
    return LinearFirstLayer(model.F / np.sqrt(model.D), 0.0, lambda h: _readout(model, h))


def analytic_bmd(model: RfmModel) -> float:
    """Closed-form mean dimension w^T psi_bar w / w^T psi w.

    With the feature overlap omega = F^T F / D (N x N),

        psi     = k_star_sq I + k1^2 omega           (output variance kernel)
        psi_bar = kbar_star_sq diag(omega_ii) + kbar0^2 omega + kbar1^2 omega*omega
                  (flip-sensitivity kernel; omega*omega is elementwise)

    Exact in the wide limit for any input law matching the first two
    binary moments. Raises for sign activation (kbar2 diverges) and for
    zero weights.

    Neither N x N kernel is formed. With F_i the i-th feature column,

        w^T psi w     = k_star_sq |w|^2 + k1^2 |F w|^2 / D
        w^T psi_bar w = kbar_star_sq sum_i w_i^2 |F_i|^2 / D
                        + kbar0^2 |F w|^2 / D + kbar1^2 |F diag(w) F^T|_F^2 / D^2

    the last term because sum_ij w_i w_j (F_i . F_j)^2 is the squared
    Frobenius norm of the D x D matrix sum_i w_i F_i F_i^T. That costs
    O(D^2 N) time and D x D memory, against O(N^2 D) and N x N for the
    kernels themselves.
    """
    if not np.any(model.w):
        raise ValueError("mean dimension of the zero function is undefined")
    if not np.isfinite(model.kappas.kbar2):
        raise ValueError(
            f"mean dimension diverges for {model.activation.tag}: the squared weak "
            "derivative is not Gaussian integrable")
    k, F, w, D = model.kappas, model.F, model.w, model.D
    overlap = np.sum((F @ w) ** 2) / D  # w^T omega w
    diag = np.sum(F**2, axis=0) @ w**2 / D  # w^T diag(omega) w
    square = np.sum(((F * w) @ F.T) ** 2) / D**2  # w^T (omega * omega) w
    psi = k.k_star_sq * (w @ w) + k.k1**2 * overlap
    psi_bar = k.kbar_star_sq * diag + k.kbar0**2 * overlap + k.kbar1**2 * square
    return float(psi_bar / psi)


def bmd_from_overlaps(kappas: KappaSet, q_d: float, p_d: float) -> float:
    """Mean dimension from the overlap order parameters of an odd activation.

    Uses 1 + (kbar2 - k2) q_d / Q_d with Q_d = k_star_sq q_d + k1^2 p_d,
    the simplification of the quadratic-form ratio valid when omega_ii = 1
    (exact as D grows; see the matching test on column-normalized F).
    """
    if not np.isfinite(kappas.kbar2):
        raise ValueError("mean dimension diverges: kbar2 is not finite")
    big_q = kappas.k_star_sq * q_d + kappas.k1**2 * p_d
    return 1.0 + (kappas.kbar2 - kappas.k2) * q_d / big_q


# ---------------------------------------------------------------------------
# checkpoint format: versioned text, exact round-trip through float repr

CHECKPOINT_HEADER = "meandim-rfm-v1"


def save_rfm(path, model: RfmModel) -> None:
    lines = [CHECKPOINT_HEADER,
             f"D = {model.D}",
             f"N = {model.N}",
             f"activation = {model.activation.tag}",
             "F ="]
    lines += [" ".join(repr(v) for v in row) for row in model.F.tolist()]
    lines.append("w =")
    lines.append(" ".join(repr(v) for v in model.w.tolist()))
    write_text(path, lines)


def load_rfm(path) -> RfmModel:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise ValueError(f"{path}: not a {CHECKPOINT_HEADER} checkpoint")

    def header(i, key):
        name, _, value = lines[i].partition(" = ")
        if name != key:
            raise ValueError(f"expected '{key} = ...' on line {i + 1}, got {lines[i]!r}")
        return value

    try:
        D = int(header(1, "D"))
        N = int(header(2, "N"))
        activation = Activation.from_tag(header(3, "activation"))
        if lines[4] != "F =":
            raise ValueError("expected 'F =' on line 5")
        F = np.array([[float(v) for v in lines[5 + i].split()] for i in range(D)])
        if lines[5 + D] != "w =":
            raise ValueError("expected 'w =' after F block")
        w = np.array([float(v) for v in lines[6 + D].split()])
        model = RfmModel(D=D, N=N, F=F, w=w, activation=activation,
                         kappas=compute_kappas(activation))
    except IndexError:
        raise ValueError(f"{path}: malformed checkpoint, file ends early") from None
    except ValueError as exc:
        raise ValueError(f"{path}: malformed checkpoint, {exc}") from None
    return model
