"""Random feature model: kappa quadrature, the Psi kernels, closed-form BMD.

_analytic_bmd_dense builds the N x N kernels psi and psi_bar explicitly; it
is the reference that analytic_bmd's D x D evaluation must agree with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim.estimator import InputSampler, estimate_md, estimate_md_binary_fast
from meandim.rfm import (
    Activation,
    KappaSet,
    RfmModel,
    analytic_bmd,
    bmd_from_overlaps,
    compute_kappas,
    forward,
    load_rfm,
    random_rfm,
    save_rfm,
    score_fn,
    with_weights,
)
from meandim import rfm
from meandim.rfm import DEFAULT_NODES, QuadratureError, _kappas_at

# oracle values from adaptive quadrature of the defining integrals,
# independent of the Gauss-Legendre rule used by compute_kappas
TANH_K1 = 0.605705509602159
TANH_K2 = 0.39429449039784126
TANH_KBAR2 = 0.4644029024482683
TANH_RATIO = 1.1778072323041795


class TestKappas:
    def test_linear_moments(self):
        ks = compute_kappas(Activation.linear())
        assert abs(ks.k0) < 1e-12 and abs(ks.k1 - 1.0) < 1e-12
        assert abs(ks.k2 - 1.0) < 1e-12 and abs(ks.k_star_sq) < 1e-12
        assert abs(ks.kbar0 - 1.0) < 1e-12 and abs(ks.kbar1) < 1e-12
        assert abs(ks.kbar2 - 1.0) < 1e-12 and abs(ks.kbar_star_sq) < 1e-12

    def test_sign_moments(self):
        ks = compute_kappas(Activation.sign())
        assert abs(ks.k1 - np.sqrt(2.0 / np.pi)) < 1e-12
        assert abs(ks.k2 - 1.0) < 1e-12
        assert abs(ks.k_star_sq - (1.0 - 2.0 / np.pi)) < 1e-12
        # the weak derivative 2*delta(0) integrates to 2*phi(0) = k1 and its
        # square is not integrable
        assert abs(ks.kbar0 - np.sqrt(2.0 / np.pi)) < 1e-12
        assert ks.kbar1 == 0.0
        assert np.isinf(ks.kbar2) and np.isinf(ks.kbar_star_sq)

    def test_leaky_relu_closed_forms(self):
        a = 0.3
        ks = compute_kappas(Activation.leaky_relu(a))
        phi0 = 1.0 / np.sqrt(2.0 * np.pi)
        assert abs(ks.k0 - (1 - a) * phi0) < 1e-12
        assert abs(ks.k1 - (1 + a) / 2) < 1e-12
        assert abs(ks.k2 - (1 + a * a) / 2) < 1e-12
        assert abs(ks.kbar0 - (1 + a) / 2) < 1e-12
        assert abs(ks.kbar1 - (1 - a) * phi0) < 1e-12
        assert abs(ks.kbar2 - (1 + a * a) / 2) < 1e-12

    def test_tanh_frozen_oracle(self):
        ks = compute_kappas(Activation.tanh())
        assert abs(ks.k0) < 1e-12 and abs(ks.kbar1) < 1e-12  # odd
        assert abs(ks.k1 - TANH_K1) < 1e-12
        assert abs(ks.k2 - TANH_K2) < 1e-12
        assert abs(ks.kbar2 - TANH_KBAR2) < 1e-12
        assert abs(ks.kbar2 / ks.k2 - TANH_RATIO) < 1e-12
        assert abs(ks.kbar2 / ks.k2 - 1.1778) < 1e-3
        assert abs(ks.kbar0 - ks.k1) < 1e-12  # Stein identity

    @pytest.mark.parametrize("act", [Activation.tanh(), Activation.leaky_relu(0.1),
                                     Activation.sign(), Activation.linear()])
    def test_quadruple_node_reference(self, act):
        base = compute_kappas(act)
        ref = _kappas_at(act, 4 * DEFAULT_NODES)
        for name in ("k0", "k1", "k2", "k_star_sq", "kbar0", "kbar1", "kbar2", "kbar_star_sq"):
            a, b = getattr(base, name), getattr(ref, name)
            if np.isinf(a):
                assert np.isinf(b)
            else:
                assert abs(a - b) < 1e-10

    def test_tanh_matches_gauss_hermite(self, monkeypatch):
        from scipy.special import roots_hermite

        def hermite_rule(n_nodes):
            x, w = roots_hermite(n_nodes)
            return x * np.sqrt(2.0), w / np.sqrt(np.pi)

        base = compute_kappas(Activation.tanh())
        monkeypatch.setattr(rfm, "_gaussian_rule", hermite_rule)
        ref = _kappas_at(Activation.tanh(), DEFAULT_NODES)
        for name in ("k0", "k1", "k2", "k_star_sq", "kbar0", "kbar1", "kbar2", "kbar_star_sq"):
            assert abs(getattr(base, name) - getattr(ref, name)) < 1e-13, name

    def test_too_few_nodes_fail_the_doubling_check(self, monkeypatch):
        monkeypatch.setattr(rfm, "DEFAULT_NODES", 3)
        rfm._gaussian_rule.cache_clear()
        try:
            with pytest.raises(QuadratureError, match="when doubling nodes for tanh"):
                compute_kappas(Activation.tanh())
        finally:
            rfm._gaussian_rule.cache_clear()

    def test_residuals_nonnegative(self):
        for act in (Activation.tanh(), Activation.leaky_relu(0.2), Activation.linear()):
            ks = compute_kappas(act)
            assert ks.k_star_sq >= 0.0 and ks.kbar_star_sq >= 0.0


class TestForward:
    def test_zero_weights(self):
        model = random_rfm(4, 6, Activation.tanh(), seed=0)
        model = with_weights(model, np.zeros(6))
        assert forward(model, np.ones(4)) == 0.0

    def test_single_unit_linear(self):
        ks = compute_kappas(Activation.linear())
        model = RfmModel(D=1, N=1, F=np.array([[1.0]]), w=np.array([1.0]),
                         activation=Activation.linear(), kappas=ks)
        assert forward(model, np.array([2.0])) == 2.0

    def test_odd_symmetry(self):
        model = random_rfm(6, 10, Activation.tanh(), seed=1)
        x = np.random.default_rng(2).standard_normal(6)
        assert abs(forward(model, x) + forward(model, -x)) < 1e-14

    def test_batched_matches_loop(self):
        model = random_rfm(5, 7, Activation.leaky_relu(0.2), seed=3)
        xs = np.random.default_rng(4).standard_normal((9, 5))
        batched = forward(model, xs)
        assert np.allclose(batched, [forward(model, x) for x in xs], atol=1e-14)

    @pytest.mark.parametrize("act", [Activation.tanh(), Activation.sign(), Activation.linear(),
                                     Activation.leaky_relu(0.2), Activation.leaky_relu(-0.5)],
                             ids=lambda a: a.tag)
    def test_in_place_features_equal_the_value_expression(self, act):
        """forward scales and activates X F in place, bit-identical to the
        expression through Activation.value, and leaves x alone; value
        writes the same bits into a separate out."""
        model = random_rfm(7, 11, act, seed=6, kappas=compute_kappas(Activation.tanh()))
        xs = np.random.default_rng(7).standard_normal((13, 7))
        xs[0] = 0.0
        before = xs.copy()
        def want(x):
            return act.value(x @ model.F / np.sqrt(model.D)) @ model.w / np.sqrt(model.N)

        assert forward(model, xs).tobytes() == want(xs).tobytes()
        assert forward(model, xs[3]) == want(xs[3:4])[0]
        assert np.array_equal(xs, before)
        out = np.full_like(xs, np.inf)
        assert act.value(xs, out=out) is out
        assert out.tobytes() == act.value(xs).tobytes()
        assert np.array_equal(xs, before)

    def test_unknown_activation_kind_raises(self):
        with pytest.raises(ValueError, match="unknown activation kind 'cubic'"):
            Activation(kind="cubic")

    def test_score_fn_shape(self):
        model = random_rfm(5, 7, Activation.tanh(), seed=5)
        out = score_fn(model)(np.ones((3, 5)))
        assert out.shape == (3,)


def _analytic_bmd_dense(model):
    """Reference: the ratio w^T psi_bar w / w^T psi w from the N x N kernels."""
    k = model.kappas
    omega = model.F.T @ model.F / model.D
    psi = k.k_star_sq * np.eye(model.N) + k.k1**2 * omega
    psi_bar = (k.kbar_star_sq * np.diag(np.diag(omega))
               + k.kbar0**2 * omega + k.kbar1**2 * omega**2)
    return float((model.w @ psi_bar @ model.w) / (model.w @ psi @ model.w))


ORACLE_KAPPAS = {tag: compute_kappas(Activation.from_tag(tag))
                 for tag in ("tanh", "linear", "leaky-relu:0.0", "leaky-relu:0.1")}


class TestPsiMatrices:
    """The kernels inside analytic_bmd, checked through its value."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), D=st.integers(2, 24), step=st.integers(1, 40),
           shape=st.sampled_from(["N<D", "N=D", "N>D"]),
           tag=st.sampled_from(sorted(ORACLE_KAPPAS)),
           scale=st.sampled_from([1e-3, 1.0, -2.5, 1e3]))
    def test_matches_dense_kernels(self, seed, D, step, shape, tag, scale):
        N = {"N<D": max(1, D - step), "N=D": D, "N>D": D + step}[shape]
        rng = np.random.default_rng(seed)
        model = RfmModel(D=D, N=N, F=rng.standard_normal((D, N)),
                         w=scale * rng.standard_normal(N),
                         activation=Activation.from_tag(tag), kappas=ORACLE_KAPPAS[tag])
        want = _analytic_bmd_dense(model)
        assert abs(analytic_bmd(model) - want) <= 1e-12 * want

    def test_orthonormal_features_give_identity_overlap(self):
        # omega = I makes psi = k2 I and psi_bar = kbar2 I for an odd
        # activation, so every weight vector has md kbar2 / k2
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        F = q * np.sqrt(8.0)
        assert np.allclose(F.T @ F / 8.0, np.eye(4), atol=1e-12)
        ks = compute_kappas(Activation.tanh())
        for w in (np.ones(4), rng.standard_normal(4)):
            model = RfmModel(D=8, N=4, F=F, w=w, activation=Activation.tanh(), kappas=ks)
            assert abs(analytic_bmd(model) - ks.kbar2 / ks.k2) < 1e-12

    def test_diagonal_concentration(self):
        # random_rfm draws unit-variance features, so omega_ii -> 1
        model = random_rfm(4000, 8, Activation.tanh(), seed=6)
        omega_diag = np.sum(model.F**2, axis=0) / 4000
        assert abs(omega_diag.mean() - 1.0) < 3.0 / np.sqrt(4000)

    def test_hand_computed_two_by_two(self):
        F = np.array([[1.0, 2.0], [3.0, 4.0]])
        ks = KappaSet(k0=0.5, k1=2.0, k2=7.5, k_star_sq=3.0,
                      kbar0=1.5, kbar1=0.5, kbar2=7.5, kbar_star_sq=5.0)
        model = RfmModel(D=2, N=2, F=F, w=np.array([1.0, 1.0]),
                         activation=Activation.tanh(), kappas=ks)
        # omega = [[5, 7], [7, 10]]
        # psi = 3 I + 2^2 omega = [[23, 28], [28, 43]], entry sum 122
        # psi_bar = 5 diag(5, 10) + 1.5^2 omega + 0.5^2 omega^2 (elementwise)
        #         = [[42.5, 28], [28, 97.5]], entry sum 196
        assert abs(analytic_bmd(model) - 196.0 / 122.0) < 1e-14


class TestAnalyticBmd:
    def test_linear_activation_is_exactly_one(self):
        model = random_rfm(12, 8, Activation.linear(), seed=8)
        assert analytic_bmd(model) == 1.0

    def test_weight_scale_invariance(self):
        model = random_rfm(12, 8, Activation.tanh(), seed=9)
        base = analytic_bmd(model)
        assert analytic_bmd(with_weights(model, 2.0 * model.w)) == base
        assert abs(analytic_bmd(with_weights(model, -1.7 * model.w)) - base) < 1e-12

    def test_sign_activation_raises(self):
        model = random_rfm(12, 8, Activation.sign(), seed=10)
        with pytest.raises(ValueError, match="diverges"):
            analytic_bmd(model)

    def test_zero_weights_raise(self):
        model = random_rfm(12, 8, Activation.tanh(), seed=11)
        with pytest.raises(ValueError, match="zero"):
            analytic_bmd(with_weights(model, np.zeros(8)))

    def test_overlap_form_matches_on_normalized_columns(self):
        # with omega_ii = 1 exactly, the odd-activation simplification
        # agrees with the general quadratic-form ratio
        rng = np.random.default_rng(12)
        D, N = 40, 24
        F = rng.standard_normal((D, N))
        F *= np.sqrt(D) / np.linalg.norm(F, axis=0)
        ks = compute_kappas(Activation.tanh())
        model = RfmModel(D=D, N=N, F=F, w=rng.standard_normal(N),
                         activation=Activation.tanh(), kappas=ks)
        omega = F.T @ F / D
        q_d = model.w @ model.w / N
        p_d = model.w @ omega @ model.w / N
        assert abs(analytic_bmd(model) - bmd_from_overlaps(ks, q_d, p_d)) < 1e-10

    def test_equal_overlaps_give_asymptotic_ratio(self):
        ks = compute_kappas(Activation.tanh())
        assert abs(bmd_from_overlaps(ks, 0.7, 0.7) - 1.1778) < 1e-3

    def test_monte_carlo_cross_check(self):
        model = random_rfm(100, 40, Activation.tanh(), seed=13)
        exact = analytic_bmd(model)
        prof = estimate_md_binary_fast(score_fn(model), n=100, n_samples=20_000, seed=13)
        assert abs(prof.md - exact) / exact < 0.02

    def test_binary_gaussian_universality(self):
        model = random_rfm(100, 40, Activation.tanh(), seed=14)
        f = score_fn(model)
        pb = estimate_md(f, InputSampler.binary(100), n_samples=10_000, seed=14)
        pg = estimate_md(f, InputSampler("gaussian", 100), n_samples=10_000, seed=15)
        combined = np.hypot(pb.std_err_md, pg.std_err_md)
        assert abs(pb.md - pg.md) < 3 * combined


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        model = random_rfm(6, 9, Activation.leaky_relu(0.25), seed=15)
        path = tmp_path / "model.txt"
        save_rfm(path, model)
        back = load_rfm(path)
        assert back.D == 6 and back.N == 9
        assert back.activation == Activation.leaky_relu(0.25)
        assert np.array_equal(back.F, model.F)
        assert np.array_equal(back.w, model.w)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("some-other-format\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_rfm(path)

    def test_activation_tags(self):
        for act in (Activation.tanh(), Activation.sign(), Activation.linear(),
                    Activation.leaky_relu(0.1)):
            assert Activation.from_tag(act.tag) == act
        with pytest.raises(ValueError):
            Activation.from_tag("softplus")
