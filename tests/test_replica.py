"""Tests for the saddle-point solver, checked against a spectral ridge oracle.

The stationarity checks are the load-bearing ones: every update rule in
_proposal was derived by hand from free_energy, and a finite-difference
audit of the converged point is what certifies the transcription.
spectral_ols below is the independent eigenvalue-trace route to (q_d, Q_d)
for the ridge student, from a sampled feature spectrum or from the
Marchenko-Pastur law, which isolates the secondary mean-dimension peak at
N = D. _damped_saddle is the plain fixed-0.5 damped iteration that
solve_saddle's Anderson mixing must agree with, and _mse_quadrature is the
z0-grid route that the closed-form square-loss energetic term must match.
"""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit, ndtr

from meandim import replica
from meandim.replica import (
    CURVE_HEADER,
    ConvergenceError,
    CurvePoint,
    OrderParams,
    ReplicaInput,
    _DEFAULT_INIT,
    _FIELDS,
    _admissible,
    _ce_terms,
    _losses,
    _ndtr,
    _partials,
    _proposal,
    _z0_rule,
    ce_inner_max,
    curve_lines,
    free_energy,
    generalization_error,
    observables,
    solve_saddle,
    sweep_curve,
)
from meandim.rfm import Activation, bmd_from_overlaps, compute_kappas
from meandim.trainer import _sigmoid

KAPPAS = compute_kappas(Activation.tanh())

# frozen quadrature oracle for kbar2/k2 of tanh (see test_rfm.py)
TANH_BMD_ASYMPTOTE = 1.1778072323041795


def _fd_gradients(params, inp, step=1e-6):
    grads = []
    for field in _FIELDS:
        v = getattr(params, field)
        plus = dataclasses.replace(params, **{field: v + step})
        minus = dataclasses.replace(params, **{field: v - step})
        grads.append((free_energy(plus, inp) - free_energy(minus, inp)) / (2 * step))
    return np.array(grads)


# ---------------------------------------------------------------------------
# stationarity: the fixed point must zero every partial of the free energy


def test_fd_stationarity_mse():
    inp = ReplicaInput(alpha=3.0, lam=1e-4, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    params = solve_saddle(inp, tol=1e-12)
    assert np.max(np.abs(_fd_gradients(params, inp))) < 1e-5


def test_fd_stationarity_ce():
    inp = ReplicaInput(alpha=2.0, lam=1e-2, loss="ce", kappas=KAPPAS, alpha_t=3.0)
    params = solve_saddle(inp, tol=1e-12)
    assert np.max(np.abs(_fd_gradients(params, inp))) < 1e-5


def test_fd_stationarity_with_label_noise():
    inp = ReplicaInput(alpha=1.5, lam=1e-3, loss="mse", kappas=KAPPAS,
                       alpha_t=2.0, delta=5.0)
    params = solve_saddle(inp, tol=1e-12)
    assert np.max(np.abs(_fd_gradients(params, inp))) < 1e-5


# ---------------------------------------------------------------------------
# the mixing scheme: agreement with plain damping, and its proposal budget


def _damped_saddle(inp, init=None, tol=1e-9, max_iter=100_000):
    """Reference solver: every step moves halfway to the proposal."""
    p = (init if init is not None else _DEFAULT_INIT).as_array()
    resid = np.inf
    for _ in range(max_iter):
        prop = np.array(_proposal(p.tolist(), inp))
        resid = float(np.max(np.abs(prop - p)))
        if resid < tol:
            return OrderParams(*prop)
        p = p + 0.5 * (prop - p)
    raise ConvergenceError(f"no convergence (last residual {resid:.3e})")


@pytest.fixture
def proposals(monkeypatch):
    """The number of _proposal passes made since the fixture was set up."""
    count = [0]

    def counted(p, inp):
        count[0] += 1
        return _proposal(p, inp)

    monkeypatch.setattr(replica, "_proposal", counted)
    return count


def _numpy_anderson(inp, init=None, tol=1e-9, max_iter=100_000):
    """Reference solver: solve_saddle's loop with every pass on numpy floats
    and the history as stacked arrays; solve_saddle must give its bits."""
    p = (init if init is not None else _DEFAULT_INIT).as_array()
    xs, fs = [], []
    damped = None
    resid = np.inf
    for _ in range(max_iter):
        prop = np.array(_proposal(p, inp))
        if not _admissible(prop.tolist(), inp):
            if damped is None:
                raise ConvergenceError("iteration left the domain")
            p, damped, xs, fs = damped, None, [], []
            continue
        f = prop - p
        norm = float(np.max(np.abs(f) / np.maximum(1.0, np.abs(p))))
        if norm < tol:
            return OrderParams(*prop)
        if damped is not None and norm > 2.0 * resid:
            xs, fs = xs[-1:], fs[-1:]
        xs, fs = xs[-5:] + [p], fs[-5:] + [f]
        resid = norm
        p, damped = p + 0.5 * f, None
        if len(xs) > 1:
            dX, dF = np.diff(xs, axis=0).T, np.diff(fs, axis=0).T
            gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
            candidate = p - (dX + 0.5 * dF) @ gamma
            if _admissible(candidate.tolist(), inp):
                p, damped = candidate, p
            else:
                xs, fs = [], []
    raise ConvergenceError(f"no convergence (last residual {resid:.3e})")


def _anderson_cases():
    leaky = compute_kappas(Activation.from_tag("leaky-relu:0.1"))
    cases = [dict(alpha=3.0, lam=1e-4, loss="mse", kappas=KAPPAS, alpha_t=3.0),
             dict(alpha=1 / 0.9, lam=1e-4, loss="mse", kappas=KAPPAS, alpha_t=3.0),
             dict(alpha=2.0, lam=1e-2, loss="ce", kappas=KAPPAS, alpha_t=3.0),
             dict(alpha=1.5, lam=1e-3, loss="mse", kappas=KAPPAS, alpha_t=2.0, delta=5.0),
             dict(alpha=0.5, lam=1e-2, loss="ce", kappas=KAPPAS, alpha_t=3.0, delta=0.3),
             dict(alpha=2.0, lam=1e-3, loss="mse", kappas=leaky, alpha_t=3.0),
             dict(alpha=0.7, lam=1e-2, loss="ce", kappas=leaky, alpha_t=3.0)]
    return [ReplicaInput(**case) for case in cases]


def test_anderson_matches_damped_oracle():
    for inp in _anderson_cases():
        ref, got = _damped_saddle(inp, tol=1e-12), solve_saddle(inp, tol=1e-12)
        obs_ref, obs_got = observables(ref, inp), observables(got, inp)
        for name in ("bmd", "eps_g", "test_loss"):
            want = getattr(obs_ref, name)
            assert abs(getattr(obs_got, name) - want) <= 1e-9 * abs(want), (name, inp)
        assert abs(got.q_d - ref.q_d) <= 1e-9 * ref.q_d, inp


def test_float_passes_give_the_numpy_loop_bits():
    # the ridgeless mse point past the threshold grows delta_p to ~3.5e10;
    # the warm-started ce points up to its threshold restart the history
    inputs = _anderson_cases() + [
        ReplicaInput(alpha=0.5, lam=0.0, loss="mse", kappas=KAPPAS, alpha_t=3.0)]
    for inp in inputs:
        assert repr(solve_saddle(inp)) == repr(_numpy_anderson(inp)), inp
    carry = None
    for inv_alpha in np.logspace(-1, 1, 21)[:6]:
        inp = ReplicaInput(alpha=1.0 / inv_alpha, lam=1e-4, loss="ce", kappas=KAPPAS,
                           alpha_t=3.0)
        got = solve_saddle(inp, init=carry)
        assert repr(got) == repr(_numpy_anderson(inp, init=carry)), inp
        carry = got


@pytest.mark.parametrize("warm_start", [_damped_saddle, solve_saddle],
                         ids=["damped", "anderson"])
def test_ce_threshold_point_within_500_proposals(proposals, warm_start):
    # ce at weak ridge, at its interpolation threshold 1/alpha = 10^-0.5 and
    # warm-started over the grid points before it: the fixed 0.5 damping
    # needs 1,432 proposals here
    grid = np.logspace(-1, 1, 21)

    def inp(inv_alpha):
        return ReplicaInput(alpha=1.0 / inv_alpha, lam=1e-4, loss="ce",
                            kappas=KAPPAS, alpha_t=3.0)

    carry = None
    for inv_alpha in grid[:5]:
        carry = warm_start(inp(inv_alpha), init=carry)
    proposals[0] = 0
    params = solve_saddle(inp(grid[5]), init=carry, max_iter=500)
    assert 0 < proposals[0] <= 500
    assert params.q_d > 1e3


def test_mse_sweep_proposal_budget(proposals):
    # the fixed 0.5 damping spends 3,127 proposals on this curve
    rows = sweep_curve(KAPPAS, "mse", 1e-4, 3.0, np.logspace(-1, 1, 21))
    assert all(r.converged for r in rows)
    assert 0 < proposals[0] <= 1000  # 0 would mean the solver went round the hook


def test_mse_ridgeless_sweep_converges(proposals):
    # past the threshold at lam = 0, delta_p reaches about 3.5e10, whose float
    # spacing (7.6e-6) is far above tol = 1e-9: only a stop relative to the
    # size of each parameter can be met there
    rows = sweep_curve(KAPPAS, "mse", 0.0, 3.0, np.logspace(-1, 1, 20))
    assert all(r.converged for r in rows)
    assert 0 < proposals[0] <= 1000  # 0 would mean the solver went round the hook


# ---------------------------------------------------------------------------
# inner single-sample maximizers, and the square-loss quadrature oracle


def mse_inner_max(h0: np.ndarray, dQ: float):
    """argmax_z1 and max of -z1^2/2 - (1-h0-sqrt(dQ) z1)^2/2, closed form."""
    z1 = np.sqrt(dQ) * (1.0 - h0) / (1.0 + dQ)
    value = -0.5 * (1.0 - h0) ** 2 / (1.0 + dQ)
    return z1, value


def _mse_quadrature(M, Q_d, dQ, delta):
    """G_E's value, its three partials, the train and the test loss for mse,
    on the z0 grid."""
    z0, wts = _z0_rule()
    s_sq = Q_d - M * M + delta
    s = np.sqrt(s_sq)
    Hfac = ndtr(M * z0 / s)
    pdf = np.exp(-(M * z0 / s) ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    h0 = np.sqrt(Q_d) * z0
    z1, E = mse_inner_max(h0, dQ)
    # 1 - x* = z1 / sqrt(dQ) = dE/dh0 at the inner max; 1 - (h0 + sqrt(dQ) z1)
    # would cancel to nothing at large dQ
    residual = z1 / np.sqrt(dQ)
    dE_dQd = residual * z0 / (2.0 * np.sqrt(Q_d))
    dH_dQd = -pdf * M * z0 / (2.0 * s_sq * s)
    dH_dM = pdf * z0 * (Q_d + delta) / (s_sq * s)
    return (2.0 * wts @ (Hfac * E),
            2.0 * wts @ (Hfac * dE_dQd + dH_dQd * E),
            2.0 * wts @ (dH_dM * E),
            2.0 * wts @ (Hfac * z1**2 / (2.0 * dQ)),
            2.0 * wts @ (Hfac * 0.5 * residual**2),
            2.0 * wts @ (0.5 * (1.0 - h0) ** 2 * Hfac))


def test_mse_closed_form_matches_quadrature():
    rng = np.random.default_rng(16)
    for i in range(200):
        Q_d = 10.0 ** rng.uniform(-2, 2)
        delta = 0.0 if i % 2 else 10.0 ** rng.uniform(-3, 1)
        M = rng.uniform(-0.9, 0.9) * np.sqrt(Q_d + delta)  # M^2 < Q_d + delta
        dQ = 10.0 ** rng.uniform(-3, 10)
        value, train, test = _losses("mse", M, Q_d, dQ, delta)
        got = (value,) + _partials("mse", M, Q_d, dQ, delta) + (train, test)
        want = _mse_quadrature(M, Q_d, dQ, delta)
        for name, g, w in zip(("value", "g_Q", "g_M", "g_dQ", "train", "test"), got, want):
            assert abs(g - w) <= 1e-12 * abs(w), (name, M, Q_d, dQ, delta, g, w)


@pytest.mark.parametrize("loss", ["mse", "ce"])
@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("dQ", [1e-3, 0.6, 30.0])
def test_partials_match_energetic_bit_for_bit(loss, delta, dQ):
    # each solver pass asks _partials alone: for ce it must give the bits of
    # _ce_terms' partials, and for mse its dQ partial those of the train
    # loss of _losses, both A/u^2
    M, Q_d = 0.45, 0.8
    got = _partials(loss, M, Q_d, dQ, delta)
    if loss == "ce":
        want = _ce_terms(M, Q_d, dQ, delta)[0]
    else:
        want = got[:2] + _losses(loss, M, Q_d, dQ, delta)[1:2]
    assert [float(g).hex() for g in got] == [float(w).hex() for w in want]


def test_mse_inner_matches_scalar_minimizer():
    rng = np.random.default_rng(7)
    for _ in range(30):
        h0 = 2.0 * rng.normal()
        dq = 10.0 ** rng.uniform(-3, 1)

        def neg(z):
            return z * z / 2 + 0.5 * (1.0 - (h0 + np.sqrt(dq) * z)) ** 2

        ref = minimize_scalar(neg, bounds=(-50, 50), method="bounded",
                              options={"xatol": 1e-12})
        _, val = mse_inner_max(np.array([h0]), dq)
        assert abs(val[0] + ref.fun) < 1e-10


def test_ce_inner_matches_scalar_minimizer():
    rng = np.random.default_rng(8)
    for _ in range(30):
        h0 = 2.0 * rng.normal()
        dq = 10.0 ** rng.uniform(-3, 1)

        def neg(z):
            return z * z / 2 + np.logaddexp(0.0, -(h0 + np.sqrt(dq) * z))

        ref = minimize_scalar(neg, bounds=(-60, 60), method="bounded",
                              options={"xatol": 1e-12})
        _, val = ce_inner_max(np.array([h0]), dq)
        assert abs(val[0] + ref.fun) < 1e-10


def test_ce_inner_stationary_at_every_node():
    # dQ >= 30 puts nodes near the sigmoid's inflection, where plain Newton
    # ping-pongs inside its bracket
    z0, _ = _z0_rule()
    for q_d in np.logspace(-1, 3, 9):
        h0 = np.sqrt(q_d) * z0
        for dq in np.logspace(-3, 5, 17):
            z1, _ = ce_inner_max(h0, dq)
            x = h0 + np.sqrt(dq) * z1
            assert np.max(np.abs((x - h0) / dq + expit(x) - 1.0)) < 1e-10


def test_sigmoid_matches_expit_without_warnings():
    x = np.linspace(-800.0, 800.0, 160_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _sigmoid(x)
    want = expit(x)
    # three ulps: at x = -37.03 expit is itself two ulps off the exact value
    assert np.all(np.abs(got - want) <= 3 * np.spacing(want))


@pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
def test_ndtr_matches_scipy(scale):
    # both take erfc of the same rounded x / sqrt(2); in the left tail
    # scipy's erfc rounds z^2 inside exp(-z^2), which costs about x^2 ulps
    x = _z0_rule()[0] * scale
    got, want = _ndtr(x), ndtr(x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, x * x) * want
                  + np.finfo(float).tiny)


def test_ce_inner_vectorized_matches_elementwise():
    rng = np.random.default_rng(9)
    h0 = rng.normal(size=40) * 3.0
    z_vec, v_vec = ce_inner_max(h0, 0.7)
    for i in range(h0.size):
        z_i, v_i = ce_inner_max(h0[i:i + 1], 0.7)
        # the batched solve shares a stopping test, so allow Newton-step jitter
        assert abs(z_vec[i] - z_i[0]) < 1e-10
        assert abs(v_vec[i] - v_i[0]) < 1e-12


# ---------------------------------------------------------------------------
# problem definition plumbing


def test_gauge_equivalence():
    # the width ratio D/N is tied to the two sample ratios, P/N over P/D
    for a, at in ((2.5, 3.0), (200.0, 100.0), (0.1, 30.0)):
        inp = ReplicaInput(alpha=a, lam=1e-3, loss="mse", kappas=KAPPAS, alpha_t=at)
        assert inp.alpha_d == a / at


def test_input_validation():
    with pytest.raises(TypeError, match="alpha_t"):
        ReplicaInput(alpha=1.0, lam=0.1, loss="mse", kappas=KAPPAS)
    with pytest.raises(ValueError, match="lam"):
        ReplicaInput(alpha=1.0, lam=-0.1, loss="mse", kappas=KAPPAS, alpha_t=1.0)
    with pytest.raises(ValueError, match="loss"):
        ReplicaInput(alpha=1.0, lam=0.1, loss="hinge", kappas=KAPPAS, alpha_t=1.0)
    with pytest.raises(ValueError, match="delta"):
        ReplicaInput(alpha=1.0, lam=0.1, loss="mse", kappas=KAPPAS,
                     alpha_t=1.0, delta=-1.0)
    for alpha, alpha_t in ((1.0, 0.0), (1.0, np.inf), (1.0, -1.0), (1.0, np.nan),
                           (0.0, 1.0), (-2.0, 1.0), (1.0, np.nextafter(1e100, np.inf))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # checked before any division
            with pytest.raises(ValueError, match="positive and finite"):
                ReplicaInput(alpha=np.float64(alpha), lam=0.1, loss="mse", kappas=KAPPAS,
                             alpha_t=np.float64(alpha_t))
    linear = compute_kappas(Activation("linear"))
    with pytest.raises(ValueError, match="k_star_sq"):
        ReplicaInput(alpha=1.0, lam=0.1, loss="mse", kappas=linear, alpha_t=1.0)


def test_largest_alpha_t_converges_without_overflow():
    # the bound of ReplicaInput: at alpha_t = 1e100 the proposal's alpha_t^3
    # product stays finite on both sides of the interpolation peak
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = sweep_curve(KAPPAS, "mse", 1e-4, 1e100, [0.5, 1.0, 2.0])
    assert all(r.converged for r in rows)


def test_proposal_outside_the_domain_raises_without_warning():
    # ce at alpha_t = 1e10: a finite proposal reaches delta_p < 0, so dQ < 0;
    # evaluating it would take sqrt(dQ) inside the next proposal
    inp = ReplicaInput(alpha=1.0, lam=1e-4, loss="ce", kappas=KAPPAS, alpha_t=1e10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="left the domain"):
            solve_saddle(inp)


def _bad_proposal_at(calls, delta_p, monkeypatch):
    """Make the proposals of the given (1-based) passes carry this delta_p,
    outside the domain or not finite; returns the pass counter."""
    count = [0]
    at = _FIELDS.index("delta_p")

    def proposal(p, inp):
        count[0] += 1
        prop = _proposal(p, inp)
        return prop[:at] + (delta_p,) + prop[at + 1:] if count[0] in calls else prop

    monkeypatch.setattr(replica, "_proposal", proposal)
    return count


def _check_fallback_to_the_damped_step(delta_p, monkeypatch):
    inp = ReplicaInput(alpha=2.0, lam=1e-3, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    want = solve_saddle(inp, tol=1e-12)
    # the third pass evaluates the first Anderson candidate: the solver goes
    # back to the damped step it replaced and converges to the same saddle
    count = _bad_proposal_at({3}, delta_p, monkeypatch)
    got = solve_saddle(inp, tol=1e-12)
    assert count[0] > 3
    np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=1e-9)
    # from the damped iterate itself there is no step to go back to
    count = _bad_proposal_at({1}, delta_p, monkeypatch)
    with pytest.raises(ConvergenceError, match="left the domain"):
        solve_saddle(inp)
    assert count[0] == 1


def test_out_of_domain_proposal_falls_back_to_the_damped_step(monkeypatch):
    _check_fallback_to_the_damped_step(-1.0, monkeypatch)


def test_non_finite_proposal_falls_back_to_the_damped_step(monkeypatch):
    _check_fallback_to_the_damped_step(np.nan, monkeypatch)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_a_pass_that_overflows_python_floats_runs_on_numpy_floats(loss):
    # at delta_q = 1e200 a pass on Python floats raises OverflowError; on
    # numpy floats it overflows to inf, as IEEE arithmetic gives it. The mse
    # proposal is then admissible and the solve reaches the saddle; the ce
    # one is not, and the solve leaves the domain
    inp = ReplicaInput(alpha=2.0, lam=1e-3, loss=loss, kappas=KAPPAS, alpha_t=3.0)
    start = dataclasses.replace(_DEFAULT_INIT, delta_q=1e200)
    with pytest.raises(OverflowError):
        _proposal(start.as_array().tolist(), inp)
    with pytest.warns(RuntimeWarning):
        admissible = _admissible(_proposal(start.as_array(), inp), inp)
    assert admissible == (loss == "mse")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if loss == "ce":
            with pytest.raises(ConvergenceError, match="left the domain"):
                solve_saddle(inp, init=start)
            return
        got = solve_saddle(inp, init=start, tol=1e-12)
        assert repr(got) == repr(_numpy_anderson(inp, init=start, tol=1e-12))
    want = solve_saddle(inp, tol=1e-12)
    np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=1e-9)


def test_interpolation_warning_at_zero_lambda():
    inp = ReplicaInput(alpha=1.0, lam=0.0, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    with pytest.warns(RuntimeWarning, match="interpolation"):
        with contextlib.suppress(ConvergenceError):
            solve_saddle(inp, max_iter=2000)


def test_convergence_error_reports_residual():
    inp = ReplicaInput(alpha=2.0, lam=1e-3, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    with pytest.raises(ConvergenceError, match="residual"):
        solve_saddle(inp, max_iter=5)


# ---------------------------------------------------------------------------
# limits with known behavior


def test_heavy_ridge_limit():
    inp = ReplicaInput(alpha=2.0, lam=1e3, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    params = solve_saddle(inp)
    obs = observables(params, inp)
    # weights are crushed to zero, so every margin sits at the loss of a
    # silent student: l(0) = 1/2 for both train and test
    assert params.q_d < 1e-4
    assert abs(obs.train_loss - 0.5) < 1e-2
    assert abs(obs.test_loss - 0.5) < 1e-2


def test_bmd_asymptote_matches_kappa_ratio():
    inp = ReplicaInput(alpha=1e3, lam=1e-4, loss="mse", kappas=KAPPAS, alpha_t=3.0)
    obs = observables(solve_saddle(inp), inp)
    assert abs(obs.bmd - TANH_BMD_ASYMPTOTE) < 1e-3


def test_generalization_error_edges():
    assert generalization_error(0.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert generalization_error(2.0, 4.0) == pytest.approx(0.0, abs=1e-15)
    eps_mid = generalization_error(1.0, 4.0)
    assert 0.0 < eps_mid < 0.5
    assert generalization_error(1.5, 4.0) < eps_mid
    with pytest.raises(FloatingPointError):
        generalization_error(2.0 * (1.0 + 1e-8), 4.0)


def test_sign_activation_bmd_diverges():
    ks_sign = compute_kappas(Activation("sign"))
    inp = ReplicaInput(alpha=3.0, lam=1e-3, loss="mse", kappas=ks_sign, alpha_t=3.0)
    obs = observables(solve_saddle(inp), inp)
    assert np.isinf(obs.bmd)
    assert 0.0 < obs.eps_g < 0.5
    assert np.isfinite(obs.train_loss)


# ---------------------------------------------------------------------------
# curve sweeps


def test_sweep_peaks_at_interpolation():
    grid = np.linspace(0.2, 3.0, 15)
    rows = sweep_curve(KAPPAS, "mse", 1e-4, 3.0, grid)
    assert all(r.converged for r in rows)
    eps = np.array([r.eps_g for r in rows])
    bmd = np.array([r.bmd for r in rows])
    inv_alpha = np.array([r.inv_alpha for r in rows])
    assert np.all((eps >= 0.0) & (eps <= 0.5))
    assert np.all(bmd >= 1.0 - 1e-12)
    assert inv_alpha[np.argmax(eps)] == pytest.approx(1.0)
    assert inv_alpha[np.argmax(bmd)] == pytest.approx(1.0)


def test_sweep_ce_converges():
    rows = sweep_curve(KAPPAS, "ce", 1e-2, 3.0, np.linspace(0.5, 1.5, 3))
    assert all(r.converged for r in rows)
    assert all(0.0 < r.eps_g < 0.5 for r in rows)


def test_sweep_ce_peaks_at_interpolation():
    # cross-entropy at weak ridge: bmd, test loss and the weight norm q_d
    # (about 0.2 / lam) all peak at the same grid point, the threshold
    # 1/alpha = 10^-0.5 where ce first fits the training set
    rows = sweep_curve(KAPPAS, "ce", 1e-4, 3.0, np.logspace(-1, 1, 21))
    assert all(r.converged for r in rows)
    peaks = {int(np.argmax([getattr(r, name) for r in rows]))
             for name in ("bmd", "test_loss", "q_d")}
    assert peaks == {5}
    assert rows[5].inv_alpha == pytest.approx(10 ** -0.5)
    assert 1.0 < rows[5].bmd < 2.0 and rows[5].q_d > 1e3


def test_sweep_requires_monotone_grid():
    with pytest.raises(ValueError, match="monotone"):
        sweep_curve(KAPPAS, "mse", 1e-2, 3.0, np.array([0.5, 1.5, 1.0]))
    with pytest.raises(ValueError, match="empty"):
        sweep_curve(KAPPAS, "mse", 1e-2, 3.0, np.array([]))
    # decreasing grids are fine, continuation just runs the other way
    rows = sweep_curve(KAPPAS, "mse", 1e-2, 3.0, np.array([1.5, 1.0, 0.5]))
    assert [r.inv_alpha for r in rows] == [1.5, 1.0, 0.5]


def test_curve_csv_round_trip():
    rows = sweep_curve(KAPPAS, "mse", 1e-2, 3.0, np.linspace(0.5, 1.5, 5))
    rows.append(CurvePoint(inv_alpha=2.0, alpha_t=3.0, lam=1e-2, loss="mse",
                           eps_g=np.nan, train_loss=np.nan, test_loss=np.nan,
                           bmd=np.nan, q_d=np.nan, p_d=np.nan, Q_d=np.nan,
                           converged=False))
    lines = curve_lines(rows)
    assert lines[0] == CURVE_HEADER
    assert len(lines) == len(rows) + 1
    for row, line in zip(rows, lines[1:]):
        cells = line.split(",")
        assert len(cells) == 12
        assert cells[3] == row.loss and cells[11] == str(int(row.converged))
        values = [row.inv_alpha, row.alpha_t, row.lam, row.eps_g, row.train_loss,
                  row.test_loss, row.bmd, row.q_d, row.p_d, row.Q_d]
        for value, cell in zip(values, cells[:3] + cells[4:11]):
            assert float(cell) == value or (np.isnan(value) and cell == "nan")
    assert lines[1].endswith(",1") and lines[-1].endswith(",0")


# ---------------------------------------------------------------------------
# spectral oracle for the ridge student


def _mp_rule(alpha_d: float):
    """Marchenko-Pastur quadrature for the spectrum of F^T F / D.

    The aspect ratio of the overlap matrix is gamma = N/D = 1/alpha_d;
    below alpha_d = 1 an atom of mass 1 - alpha_d sits at zero. The
    continuous part uses 400 Gauss-Legendre nodes.
    """
    gamma = 1.0 / alpha_d
    lo = (1.0 - np.sqrt(gamma)) ** 2
    hi = (1.0 + np.sqrt(gamma)) ** 2
    x, w = np.polynomial.legendre.leggauss(400)
    rho = 0.5 * (x + 1.0) * (hi - lo) + lo
    dens = np.sqrt(np.maximum((hi - rho) * (rho - lo), 0.0)) / (2.0 * np.pi * gamma * rho)
    weights = w * 0.5 * (hi - lo) * dens
    atom = max(1.0 - alpha_d, 0.0)
    return rho, weights, atom


def spectral_ols(alpha_d: float, lam: float, kappas, spectrum="mp",
                 alpha: float | None = None):
    """Ridge overlaps of the sign teacher as traces over the feature spectrum.

    With alpha given, q_d and Q_d are the finite-sample traces

        q_d = (1/N) sum_i num_i / (alpha (k1^2 rho_i + k_star_sq) + lam)^2
        Q_d = same with an extra (k1^2 rho_i + k_star_sq) in the numerator

    where num_i = (2/pi)(k1^2 (alpha^2/alpha_d) rho_i + alpha k_star_sq)
    + (1 - 2/pi) alpha (k1^2 rho_i + k_star_sq).
    alpha=None takes the infinite-sample limit where lam counts per sample.
    spectrum is either "mp" (Marchenko-Pastur quadrature) or an eigenvalue
    sample of F^T F / D. Returns (q_d, Q_d, bmd).
    """
    if lam == 0.0 and abs(alpha_d - 1.0) < 0.05:
        warnings.warn("lam = 0 with alpha_d near 1: the spectrum touches the "
                      "origin and the traces diverge", RuntimeWarning, stacklevel=2)
    if isinstance(spectrum, str):
        rho, wts, atom = _mp_rule(alpha_d)
    else:
        rho = np.asarray(spectrum, dtype=float)
        wts = np.full(rho.size, 1.0 / rho.size)
        atom = 0.0
    k1sq, ksq = kappas.k1**2, kappas.k_star_sq
    overlap = k1sq * rho + ksq
    teach = 2.0 / np.pi
    if alpha is None:
        num = teach * k1sq * rho / alpha_d
        den = (overlap + lam) ** 2
        atom_num, atom_den = 0.0, (ksq + lam) ** 2
    else:
        num = (teach * (k1sq * (alpha**2 / alpha_d) * rho + alpha * ksq)
               + (1.0 - teach) * alpha * overlap)
        den = (alpha * overlap + lam) ** 2
        atom_num = alpha * ksq  # num at rho = 0
        atom_den = (alpha * ksq + lam) ** 2
    q_d = float(wts @ (num / den) + atom * atom_num / atom_den)
    big_q = float(wts @ (num * overlap / den) + atom * atom_num * ksq / atom_den)
    if np.isfinite(kappas.kbar2):
        bmd = 1.0 + (kappas.kbar2 - kappas.k2) * q_d / big_q
    else:
        bmd = np.inf
    return q_d, big_q, bmd


def test_mp_rule_mass_and_mean():
    for alpha_d in (0.5, 2.0):
        rho, weights, atom = _mp_rule(alpha_d)
        assert np.all(rho > 0.0)
        assert weights.sum() + atom == pytest.approx(1.0, abs=1e-6)
        assert atom == pytest.approx(max(1.0 - alpha_d, 0.0))
        # trace identity: the mean of the full law is tr(F^T F / D) / N = 1,
        # and the zero atom contributes nothing to it
        assert np.sum(weights * rho) == pytest.approx(1.0, abs=1e-6)


def test_spectral_mp_matches_sampled_spectrum():
    rng = np.random.default_rng(0)
    n_feat, alpha_d = 2000, 2.0
    f = rng.standard_normal((int(alpha_d * n_feat), n_feat))
    evs = np.linalg.eigvalsh(f.T @ f / (alpha_d * n_feat))
    q_e, _, b_e = spectral_ols(alpha_d, 1e-3, KAPPAS, spectrum=evs, alpha=200.0)
    q_m, _, b_m = spectral_ols(alpha_d, 1e-3, KAPPAS, spectrum="mp", alpha=200.0)
    assert abs(q_e - q_m) / q_m < 1e-2
    assert abs(b_e - b_m) / b_m < 5e-3


def test_spectral_matches_saddle_at_large_alpha():
    inp = ReplicaInput(alpha=200.0, lam=1e-3, loss="mse", kappas=KAPPAS, alpha_t=100.0)
    assert inp.alpha_d == 2.0
    params = solve_saddle(inp)
    obs = observables(params, inp)
    q_sp, _, b_sp = spectral_ols(2.0, 1e-3, KAPPAS, alpha=200.0)
    assert abs(q_sp - params.q_d) / params.q_d < 1e-2
    assert abs(b_sp - obs.bmd) / obs.bmd < 1e-3


def test_spectral_infinite_sample_limit():
    lam = 0.3
    big = 1e6
    q1, _, b1 = spectral_ols(2.0, lam, KAPPAS, alpha=None)
    q2, _, b2 = spectral_ols(2.0, lam * big, KAPPAS, alpha=big)
    assert abs(q1 - q2) / q1 < 1e-4
    assert abs(b1 - b2) / b1 < 1e-4


def test_spectral_peak_at_matched_width():
    grid = (0.5, 0.8, 1.0, 1.25, 2.0)
    bmds = [spectral_ols(ad, 1e-6, KAPPAS, alpha=None)[2] for ad in grid]
    assert grid[int(np.argmax(bmds))] == 1.0


def test_spectral_zero_lambda_warns_near_square():
    with pytest.warns(RuntimeWarning, match="origin"):
        spectral_ols(1.0, 0.0, KAPPAS, alpha=None)


def test_spectral_matches_ridge_simulation():
    # direct simulation of the trained ridge student at large sample count,
    # where the annealed resolvent used by spectral_ols becomes exact
    dim, n_feat, n_samp, lam = 400, 200, 20000, 1e-2
    alpha_d, alpha = dim / n_feat, n_samp / n_feat
    rng = np.random.default_rng(11)
    rel_q, rel_b = [], []
    for _ in range(4):
        feat = rng.standard_normal((dim, n_feat))
        omega = feat.T @ feat / dim
        w_t = rng.standard_normal(dim)
        w_t *= np.sqrt(dim) / np.linalg.norm(w_t)
        x = rng.standard_normal((n_samp, dim))
        y = np.sign(x @ w_t / np.sqrt(dim))
        phi = np.tanh(x @ feat / np.sqrt(dim))
        w = np.linalg.solve(phi.T @ phi / n_feat + lam * np.eye(n_feat),
                            phi.T @ y / np.sqrt(n_feat))
        q_sim = w @ w / n_feat
        b_sim = bmd_from_overlaps(KAPPAS, q_sim, w @ omega @ w / n_feat)
        q_sp, _, b_sp = spectral_ols(alpha_d, lam, KAPPAS,
                                     spectrum=np.linalg.eigvalsh(omega), alpha=alpha)
        rel_q.append((q_sim - q_sp) / q_sp)
        rel_b.append((b_sim - b_sp) / b_sp)
    # per-draw scatter is a few percent at this size; gate the mean
    assert abs(np.mean(rel_q)) < 0.05
    assert abs(np.mean(rel_b)) < 0.025


# ---------------------------------------------------------------------------
# order parameter container


def test_overlaps_composition():
    p = OrderParams(q_d=0.7, delta_q=0.2, delta_q_hat=1.0, delta_Q_hat=1.0,
                    p_d=0.9, delta_p=0.1, delta_p_hat=1.0, delta_P_hat=1.0,
                    r=0.5, r_hat=1.0)
    m, big_q, dq = p.overlaps(KAPPAS)
    k = KAPPAS
    assert m == pytest.approx(k.k1 * 0.5)
    assert big_q == pytest.approx(k.k_star_sq * 0.7 + k.k1 ** 2 * 0.9)
    assert dq == pytest.approx(k.k_star_sq * 0.2 + k.k1 ** 2 * 0.1)
