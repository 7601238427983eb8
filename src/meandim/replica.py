"""Replica-symmetric zero-temperature theory of ridge-trained RFMs.

The typical-case behavior of the trained model is captured by ten order
parameters (overlaps and their conjugates). Their values extremize a
replica potential built from three pieces: an entropic term, a
student-feature term, and an energetic term

    G_E = 2 Int Dz0 H(-M z0 / sqrt(Q_d - M^2 + delta))
              max_z1 [ -z1^2/2 - loss(sqrt(Q_d) z0 + sqrt(dQ) z1) ]

where M = k1 r, Q_d = k_star_sq q_d + k1^2 p_d and dQ = k_star_sq dq +
k1^2 dp collapse the activation to its Gaussian moments. For the square
loss the inner max is closed-form, and so are G_E, its partials, the train
and the test loss: each is a Gaussian moment of a quadratic against the
H factor (as in Gerace et al., ICML 2020, and Mei & Montanari, 2019).
For cross-entropy the inner max is a safeguarded Newton solve at each node
of a Gauss-Legendre z0 grid. ``solve_saddle`` iterates the stationarity
conditions of the potential with safeguarded Anderson mixing;
``free_energy`` exposes the potential so converged solutions can be
audited by finite differences.

Observables: eps_g = arccos(M / sqrt(Q_d)) / pi against the clean teacher,
per-sample train and test losses, and the mean dimension
1 + (kbar2 - k2) q_d / Q_d.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .rfm import KappaSet, bmd_from_overlaps
from .textio import csv_lines
from .trainer import _margin_loss, _sigmoid

__all__ = [
    "ReplicaInput",
    "OrderParams",
    "Observables",
    "CurvePoint",
    "ConvergenceError",
    "solve_saddle",
    "free_energy",
    "observables",
    "generalization_error",
    "sweep_curve",
    "log_grid",
    "ce_inner_max",
    "curve_lines",
]

Z0_NODES = 400
Z0_CUTOFF = 8.0  # Gaussian tail mass beyond |z| = 8 is ~ 1e-15
ALPHA_T_MAX = 1e100  # see ReplicaInput


class ConvergenceError(RuntimeError):
    """Raised when the saddle-point iteration does not settle."""


@dataclass(frozen=True)
class ReplicaInput:
    """Problem definition in the proportional regime.

    alpha = P/N and alpha_t = P/D; the width ratio alpha_d = D/N follows
    as alpha/alpha_t. delta is the variance of the pre-sign Gaussian label
    noise. Each is checked finite, the ratios > 0 and lam, delta >= 0.

    alpha_t is also at most ALPHA_T_MAX = 1e100. The conjugates r_hat and
    delta_P_hat of _proposal grow as alpha_t, so its product hat_mix *
    delta_q * delta_P_hat (hat_mix ~ r_hat^2) grows as alpha_t^3 times a
    factor of the state: about 0.4 on the mse curve at lam = 1e-4,
    1/alpha = 0.5, where it overflows from alpha_t = 1e103. At 1e100,
    alpha_t^3 = 1e300 leaves eight decades below the float maximum for
    that factor.
    """

    alpha: float
    lam: float
    loss: str
    kappas: KappaSet
    alpha_t: float
    delta: float = 0.0

    def __post_init__(self):
        if not (0 < self.alpha_t <= ALPHA_T_MAX and 0 < self.alpha < math.inf
                and 0 < self.alpha_d < math.inf):
            raise ValueError("alpha ratios must be positive and finite, "
                             f"and alpha_t at most {ALPHA_T_MAX:g}")
        for name in ("lam", "delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.loss not in ("mse", "ce"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.kappas.k_star_sq <= 0:
            raise ValueError("replica equations need k_star_sq > 0 (nonlinear activation)")

    @property
    def alpha_d(self) -> float:
        return self.alpha / self.alpha_t


@dataclass(frozen=True)
class OrderParams:
    """The ten order parameters of the zero-temperature RS ansatz."""

    q_d: float
    delta_q: float
    delta_q_hat: float
    delta_Q_hat: float
    p_d: float
    delta_p: float
    delta_p_hat: float
    delta_P_hat: float
    r: float
    r_hat: float

    def overlaps(self, kappas: KappaSet) -> tuple[float, float, float]:
        """(M, Q_d, dQ): teacher overlap, output scale, output fluctuation."""
        return _overlaps(kappas, self.q_d, self.delta_q, self.p_d, self.delta_p, self.r)

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in _FIELDS])


_FIELDS = tuple(f.name for f in fields(OrderParams))


def _overlaps(kappas: KappaSet, q_d, delta_q, p_d, delta_p, r):
    """(M, Q_d, dQ) of OrderParams.overlaps, from the fields it reads."""
    M = kappas.k1 * r
    Q_d = kappas.k_star_sq * q_d + kappas.k1**2 * p_d
    dQ = kappas.k_star_sq * delta_q + kappas.k1**2 * delta_p
    return M, Q_d, dQ


@dataclass(frozen=True)
class Observables:
    eps_g: float
    train_loss: float
    test_loss: float
    bmd: float


# ---------------------------------------------------------------------------
# quadrature and the inner maximization of the energetic term

@functools.cache
def _z0_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-Z0_CUTOFF, Z0_CUTOFF] with the standard
    normal density folded into the weights; cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(Z0_NODES)
    z = x * Z0_CUTOFF
    weight = w * Z0_CUTOFF * np.exp(-z * z / 2.0) / np.sqrt(2.0 * np.pi)
    z.flags.writeable = weight.flags.writeable = False
    return z, weight


_erfc = np.frompyfunc(math.erfc, 1, 1)


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x / sqrt(2)) elementwise."""
    return 0.5 * _erfc(-x * math.sqrt(0.5)).astype(float)


def ce_inner_max(h0: np.ndarray, dQ: float):
    """argmax_z1 and max of -z1^2/2 - log(1+e^-(h0+sqrt(dQ) z1)).

    In terms of x = h0 + sqrt(dQ) z1 the stationarity condition is
    (x - h0)/dQ + sigmoid(x) - 1 = 0, strictly monotone with the root
    bracketed in [h0, h0 + dQ]; solved by Newton, vectorized over h0, to a
    move below 1e-13 or 80 steps. A Newton step of 1e-13 or more becomes a
    bisection when it leaves the bracket or exceeds half the move before
    last (the rtsafe test, Numerical Recipes 9.4).
    """
    lo = np.asarray(h0, dtype=float).copy()
    hi = lo + dQ
    x = lo + dQ * (1.0 - _sigmoid(lo))  # one fixed-point pass as the start
    older = last = np.inf  # the moves of the two previous steps
    for _ in range(80):
        sig = _sigmoid(x)
        g = (x - h0) / dQ + sig - 1.0
        lo = np.where(g < 0, x, lo)
        hi = np.where(g > 0, x, hi)
        step = g / (1.0 / dQ + sig * (1.0 - sig))
        nxt = x - step
        unsafe = (nxt <= lo) | (nxt >= hi) | (np.abs(step) > 0.5 * np.abs(older))
        nxt = np.where(unsafe & (np.abs(step) >= 1e-13), 0.5 * (lo + hi), nxt)
        older, last, x = last, nxt - x, nxt
        if np.max(np.abs(last)) < 1e-13:
            break
    z1 = (x - h0) / np.sqrt(dQ)
    value = -0.5 * z1**2 - _margin_loss("ce", x)
    return z1, value


def _mse_terms(M: float, Q_d: float, delta: float):
    """a, i1, j2/s^3 and A of the square-loss energetic term, closed form.

    The teacher label given z0 has probability Phi(c z0), c = M/s, with
    s^2 = Q_d - M^2 + delta. With a = sqrt(Q_d) and t = s^2 + M^2 (so
    that c/sqrt(1+c^2) = M/sqrt(t), free of overflow), the Gaussian moments
    are i1 = Int Dz z Phi(cz) = M/sqrt(2 pi t) and j2/s^3 = Int Dz z^2
    phi(cz) / s^3 = (2 pi)^(-1/2) t^(-3/2); A = 2 Int Dz Phi(cz)
    (1 - a z)^2/2 = 1/2 - 2 a i1 + a^2/2 is the expected square loss of
    the output sqrt(Q_d) z.
    """
    s_sq = max(Q_d - M * M + delta, 1e-300)
    a, t = math.sqrt(Q_d), s_sq + M * M
    i1 = M / math.sqrt(2.0 * math.pi * t)
    j2_s3 = 1.0 / (math.sqrt(2.0 * math.pi) * t * math.sqrt(t))
    return a, i1, j2_s3, 0.5 - 2.0 * a * i1 + 0.5 * a * a


def _partials(loss: str, M: float, Q_d: float, dQ: float, delta: float):
    """(g_Q, g_M, g_dQ), the partials of G_E w.r.t. (Q_d, M, dQ): all that a
    pass of the stationarity conditions needs, as floats.

    For the square loss the inner max is -(1 - h0)^2 / (2u), u = 1 + dQ,
    so with the terms of _mse_terms G_E = -A/u and the dQ partial is A/u^2.
    Cross-entropy works on the z0 grid of _ce_terms.
    """
    if loss == "mse":
        a, i1, j2_s3, A = _mse_terms(M, Q_d, delta)
        u = 1.0 + dQ
        g_Q = (i1 - 0.5 * a) / (a * u) - M * a * j2_s3 / u
        g_M = 2.0 * (Q_d + delta) * a * j2_s3 / u
        return g_Q, g_M, A / u**2
    # in M's type: floats on a pass, numpy floats where a pass reruns on them
    return tuple(map(type(M), _ce_terms(M, Q_d, dQ, delta)[0]))


def _ce_terms(M: float, Q_d: float, dQ: float, delta: float):
    """The cross-entropy G_E on the shared z0 grid with the Newton inner max.

    Returns (g_Q, g_M, g_dQ) and the node arrays (wts, Hfac, E, h0, z1)
    that its value, the train loss and the test loss integrate. The H
    factor is the probability of the teacher label given z0; its own
    (Q_d, M) dependence enters the partials through the normal pdf at the
    H argument.
    """
    z0, wts = _z0_rule()
    s_sq = max(Q_d - M * M + delta, 1e-300)
    s = np.sqrt(s_sq)
    arg = -M * z0 / s
    Hfac = _ndtr(-arg)  # H(x) = 1 - Phi(x) = Phi(-x)
    pdf = np.exp(-arg * arg / 2.0) / np.sqrt(2.0 * np.pi)
    h0 = np.sqrt(Q_d) * z0
    z1, E = ce_inner_max(h0, dQ)
    # envelope theorem: d E / d h0 = -loss'(x*) = z1 / sqrt(dQ)
    dE_dQd = (z1 / np.sqrt(dQ)) * z0 / (2.0 * np.sqrt(Q_d))
    dH_dQd = -pdf * M * z0 / (2.0 * s_sq * s)
    dH_dM = -pdf * (-z0 * (Q_d - M * M + delta + M * M) / (s_sq * s))
    g_Q = 2.0 * wts @ (Hfac * dE_dQd + dH_dQd * E)
    g_M = 2.0 * wts @ (dH_dM * E)
    g_dQ = 2.0 * wts @ (Hfac * (z1**2) / (2.0 * dQ))
    return (g_Q, g_M, g_dQ), (wts, Hfac, E, h0, z1)


def _losses(loss: str, M: float, Q_d: float, dQ: float, delta: float):
    """G_E's value, the train loss and the test loss at (M, Q_d, dQ).

    For the square loss these are -A/u (see _partials), A/u^2 and A; for
    cross-entropy all three integrate the node arrays of _ce_terms, the test
    loss at the output h0 = sqrt(Q_d) z0 itself.
    """
    if loss == "mse":
        A = _mse_terms(M, Q_d, delta)[3]
        u = 1.0 + dQ
        return -A / u, A / u**2, A
    wts, Hfac, E, h0, z1 = _ce_terms(M, Q_d, dQ, delta)[1]
    value = 2.0 * wts @ (Hfac * E)
    train_loss = 2.0 * wts @ (Hfac * _margin_loss(loss, h0 + np.sqrt(dQ) * z1))
    return value, train_loss, float(2.0 * wts @ (_margin_loss(loss, h0) * Hfac))


# ---------------------------------------------------------------------------
# the replica potential and its stationarity conditions

def free_energy(params: OrderParams, inp: ReplicaInput) -> float:
    """The extremized potential; its partials vanish at a saddle solution."""
    k = inp.kappas
    a, ad = inp.alpha, inp.alpha_d
    p = params
    M, Q_d, dQ = p.overlaps(k)
    hat_mix = p.delta_p_hat + p.r_hat**2
    denom = 1.0 + p.delta_P_hat * p.delta_q
    g_se = -p.q_d / (2.0 * p.delta_q) \
        + 0.5 * (hat_mix * p.delta_q + p.q_d / p.delta_q) / denom
    g_e = _losses(inp.loss, M, Q_d, dQ, inp.delta)[0]
    return (0.5 * (p.q_d * p.delta_Q_hat - p.delta_q * p.delta_q_hat)
            + 0.5 * ad * (p.p_d * p.delta_P_hat - p.delta_p * p.delta_p_hat)
            - ad * p.r * p.r_hat
            + p.delta_q_hat / (2.0 * (p.delta_Q_hat + inp.lam))
            + ad * g_se + a * g_e)


def _proposal(p, inp: ReplicaInput) -> tuple:
    """One full pass of the stationarity conditions: hats, then overlaps.
    p holds the ten order parameters in _FIELDS order, and so does the
    returned tuple; both as floats (see solve_saddle)."""
    k = inp.kappas
    a, ad, lam = inp.alpha, inp.alpha_d, inp.lam
    q_d, delta_q, _, _, p_d, delta_p, _, _, r, _ = p
    g_Q, g_M, g_dQ = _partials(inp.loss, *_overlaps(k, q_d, delta_q, p_d, delta_p, r),
                               inp.delta)

    delta_P_hat = -(2.0 * a / ad) * k.k1**2 * g_Q
    delta_p_hat = (2.0 * a / ad) * k.k1**2 * g_dQ
    r_hat = (a / ad) * k.k1 * g_M
    denom = 1.0 + delta_P_hat * delta_q
    delta_Q_hat = ad * delta_P_hat / denom - 2.0 * a * k.k_star_sq * g_Q
    hat_mix = delta_p_hat + r_hat**2
    delta_q_hat = 2.0 * ad * (
        q_d / (2.0 * delta_q**2)
        + 0.5 * (hat_mix - q_d / delta_q**2) / denom
        - 0.5 * (hat_mix * delta_q + q_d / delta_q) * delta_P_hat / denom**2
    ) + 2.0 * a * k.k_star_sq * g_dQ

    delta_q = 1.0 / max(delta_Q_hat + lam, 1e-12)
    q_d = max(delta_q_hat * delta_q**2, 1e-300)
    shrink = 1.0 + delta_P_hat * delta_q
    delta_p = delta_q / shrink
    p_d = max((hat_mix * delta_q**2 + q_d) / shrink**2, 1e-300)
    r = r_hat * delta_q / shrink
    return (q_d, delta_q, delta_q_hat, delta_Q_hat, p_d, delta_p, delta_p_hat, delta_P_hat,
            r, r_hat)


_DEFAULT_INIT = OrderParams(q_d=0.5, delta_q=1.0, delta_q_hat=0.5, delta_Q_hat=1.0,
                            p_d=0.5, delta_p=1.0, delta_p_hat=0.5, delta_P_hat=0.5,
                            r=0.3, r_hat=0.3)


def _admissible(x, inp: ReplicaInput) -> bool:
    """Whether a candidate or a proposal (ten floats in _FIELDS order) lies
    where _proposal is defined."""
    if not all(map(math.isfinite, x)):
        return False
    q_d, delta_q, _, _, p_d, delta_p, _, _, r, _ = x
    M, Q_d, dQ = _overlaps(inp.kappas, q_d, delta_q, p_d, delta_p, r)
    return min(q_d, p_d, delta_q, dQ, Q_d - M * M + inp.delta) > 0.0


def solve_saddle(inp: ReplicaInput, init: OrderParams | None = None,
                 tol: float = 1e-9, max_iter: int = 100_000) -> OrderParams:
    """Safeguarded Anderson mixing of the stationarity conditions.

    The residual f = proposal - p is the change a full update pass would
    make; at most max_iter passes run, and iteration stops when the largest
    of |f_k| / max(1, |p_k|) drops below tol. The test is relative for
    parameters above 1 because at lam = 0 past the threshold delta_p grows
    to about 3.5e10, whose float spacing exceeds any absolute tol near 1e-9.
    The default 1e-9 leaves finite-difference gradients at the 1e-6 scale
    or better; use 1e-12 for a sharper audit.

    Each step is type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
    49(4), 2011) over the last 6 iterates: with dX, dF the differences of
    the iterates and of their residuals and gamma the least-squares solution
    of dF gamma = f, the candidate is the damped step p + f/2 minus
    (dX + dF/2) gamma. The damped step is taken instead, and the history
    cleared, when the candidate or its proposal is not finite or leaves the
    domain (q_d, p_d, delta_q, dQ and Q_d - M^2 + delta positive); a
    proposal outside the domain from any other iterate raises
    ConvergenceError. Between two points of the domain the damped step
    stays in it: the first four bounds are linear and Q_d - M^2 + delta is
    concave. When a candidate's residual is more than twice the one before,
    the history restarts from the iterate it was extrapolated from.

    A pass maps ten floats to ten floats (numpy floats from the first pass
    that overflows or divides by zero on Python floats). The history keeps
    the rows of dF and of dX + dF/2, newest last, so lstsq and the candidate
    product see the (10, k) transposes of C-ordered difference blocks, as
    numpy's diff of the stacked iterates gives them.
    """
    if inp.lam == 0.0 and abs(1.0 / inp.alpha - 1.0) < 0.05:
        warnings.warn("lam = 0 at the interpolation point N = P: "
                      "the saddle is singular there", RuntimeWarning, stacklevel=2)
    p = (init if init is not None else _DEFAULT_INIT).as_array().tolist()
    last = None  # (iterate, residual) of the newest history entry
    dF_rows, mix_rows = [], []
    damped = None  # the damped step p replaced, while p is a candidate
    resid = math.inf
    for _ in range(max_iter):
        try:
            prop = _proposal(p, inp)
        except (ZeroDivisionError, OverflowError):
            # a Python float raises where IEEE arithmetic gives inf or nan;
            # numpy floats do not, so the pass runs on them as it always did
            prop = _proposal(np.array(p), inp)
        if not _admissible(prop, inp):
            if damped is None:
                raise ConvergenceError(f"iteration left the domain at {inp}")
            p, damped, last, dF_rows, mix_rows = damped, None, None, [], []
            continue
        f = [y - x for y, x in zip(prop, p)]
        norm = max([abs(d) / max(1.0, abs(x)) for d, x in zip(f, p)])
        if norm < tol:
            return OrderParams(*np.array(prop))  # np.float64 fields for either loss
        if damped is not None and norm > 2.0 * resid:
            dF_rows, mix_rows = [], []
        if last is not None:
            dF = [y - x for y, x in zip(f, last[1])]
            dF_rows = dF_rows[-4:] + [dF]
            mix_rows = mix_rows[-4:] + [[y - x + 0.5 * g
                                         for y, x, g in zip(p, last[0], dF)]]
        last = p, f
        resid = norm
        p, damped = [x + 0.5 * d for x, d in zip(p, f)], None
        if dF_rows:
            gamma = np.linalg.lstsq(np.array(dF_rows).T, f, rcond=None)[0]
            step = (np.array(mix_rows).T @ gamma).tolist()
            candidate = [x - c for x, c in zip(p, step)]
            if _admissible(candidate, inp):
                p, damped = candidate, p
            else:
                last, dF_rows, mix_rows = None, [], []
    raise ConvergenceError(
        f"no convergence after {max_iter} iterations (last residual {resid:.3e}) at {inp}")


def generalization_error(M: float, Q_d: float) -> float:
    """Probability of disagreeing with the clean teacher, arccos(M/sqrt(Q_d))/pi."""
    ratio = M / np.sqrt(Q_d)
    if abs(ratio) > 1.0 + 1e-9:
        raise FloatingPointError(f"overlap invariant violated: M^2/Q_d = {ratio**2:.6f} > 1")
    return float(np.arccos(np.clip(ratio, -1.0, 1.0)) / np.pi)


def observables(params: OrderParams, inp: ReplicaInput) -> Observables:
    """Theory curves evaluated at a converged saddle.

    bmd is +inf when kbar2 diverges (sign activation); eps_g is always
    measured against the noiseless teacher.
    """
    k = inp.kappas
    M, Q_d, dQ = params.overlaps(k)
    eps = generalization_error(M, Q_d)
    train, test = _losses(inp.loss, M, Q_d, dQ, inp.delta)[1:]
    if np.isfinite(k.kbar2):
        bmd = bmd_from_overlaps(k, params.q_d, params.p_d)
    else:
        bmd = np.inf
    return Observables(eps_g=eps, train_loss=train, test_loss=test, bmd=bmd)


# ---------------------------------------------------------------------------
# sweeps and continuation

@dataclass(frozen=True)
class CurvePoint:
    inv_alpha: float
    alpha_t: float
    lam: float
    loss: str
    eps_g: float
    train_loss: float
    test_loss: float
    bmd: float
    q_d: float
    p_d: float
    Q_d: float
    converged: bool


def sweep_curve(kappas: KappaSet, loss: str, lam: float, alpha_t: float,
                inv_alphas, delta: float = 0.0) -> list[CurvePoint]:
    """Solve along a monotone 1/alpha grid with warm-start continuation.

    A point that fails to converge is kept as a NaN row (converged False)
    and the continuation resumes from the last good solution.
    """
    inv_alphas = np.asarray(inv_alphas, dtype=float)
    if inv_alphas.size == 0:
        raise ValueError("empty 1/alpha grid")
    if not (np.all(np.diff(inv_alphas) > 0) or np.all(np.diff(inv_alphas) < 0)):
        raise ValueError("1/alpha grid must be strictly monotone")
    alpha_t, lam = float(alpha_t), float(lam)  # the curve CSV writes floats
    rows = []
    carry = None
    for inv_alpha in inv_alphas:
        # float division overflows to inf without a warning; ReplicaInput rejects it
        inp = ReplicaInput(alpha=1.0 / float(inv_alpha), lam=lam, loss=loss,
                           kappas=kappas, delta=delta, alpha_t=alpha_t)
        try:
            carry = solve_saddle(inp, init=carry)
            obs = observables(carry, inp)
            point = (obs.eps_g, obs.train_loss, obs.test_loss, obs.bmd,
                     carry.q_d, carry.p_d, carry.overlaps(kappas)[1], True)
        except ConvergenceError:
            point = (np.nan,) * 7 + (False,)
        rows.append(CurvePoint(float(inv_alpha), alpha_t, lam, loss, *point))
    return rows


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n values of 1/alpha from lo to hi, evenly spaced in log; the one
    check of a grid's bounds: finite 0 < lo < hi and n >= 2."""
    if not (0 < lo < hi < math.inf and n >= 2):
        raise ValueError("1/alpha grid needs finite 0 < lo < hi and n >= 2, "
                         f"got lo = {lo!r}, hi = {hi!r}, n = {n!r}")
    return np.logspace(np.log10(lo), np.log10(hi), n)


# ---------------------------------------------------------------------------
# curve serialization

CURVE_HEADER = "inv_alpha,alpha_T,lambda,loss,eps_g,train_loss,test_loss,bmd,q_d,p_d,Q_d,converged"


def curve_lines(rows: list[CurvePoint]) -> list:
    """The curve CSV: CURVE_HEADER, then one line per point."""
    return csv_lines(CURVE_HEADER.split(","), (
        (r.inv_alpha, r.alpha_t, r.lam, r.loss, r.eps_g, r.train_loss, r.test_loss,
         r.bmd, r.q_d, r.p_d, r.Q_d, int(r.converged)) for r in rows))
