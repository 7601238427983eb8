import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meandim import boolfn


def projection_oracle(values):
    # independent spectrum: explicit projection onto every parity character
    n = values.shape[0].bit_length() - 1
    spins = boolfn.vertex_spins(n)
    coeffs = np.empty(1 << n)
    for mask in range(1 << n):
        coords = [i for i in range(n) if mask >> i & 1]
        chi = np.prod(spins[:, coords], axis=1) if coords else np.ones(1 << n)
        coeffs[mask] = np.mean(values * chi)
    return coeffs


def butterfly_reference(values):
    # the transform with fresh copies of both halves at every level
    table = np.array(values, dtype=float)
    half = 1
    while half < table.shape[0]:
        view = table.reshape(-1, 2 * half)
        top = view[:, :half].copy()
        bot = view[:, half:].copy()
        view[:, :half] = top + bot
        view[:, half:] = top - bot
        half *= 2
    return table


def _conditional_mean(values, n, mask, assignment):
    # mean of f over all vertices consistent with the pinned coordinates
    idx = np.arange(values.shape[0])
    keep = np.ones(values.shape[0], dtype=bool)
    for i in range(n):
        if mask >> i & 1:
            bit = 1 if assignment[i] < 0 else 0
            keep &= ((idx >> i) & 1) == bit
    return float(values[keep].mean())


def anova_component(values, u, x_u):
    """ANOVA component f_u at a partial spin assignment: the test oracle.

    ``u`` is a coordinate bit mask and ``x_u`` maps each coordinate in u to
    a spin in {-1, +1}. The components are defined recursively under the
    uniform measure: f_0 is the global mean, and

        f_u(x_u) = E[f | x_u] - sum_{v strictly contained in u} f_v(x_v).

    Each component is centered and components are mutually orthogonal, which
    is what makes the variance split of ``degree_profile`` well defined.
    """
    values, n = boolfn._check_table(values)
    if not 0 <= u < (1 << n):
        raise ValueError(f"subset mask {u} out of range for n={n}")
    coords = [i for i in range(n) if u >> i & 1]
    if set(x_u) != set(coords):
        raise ValueError("partial assignment must cover exactly the coordinates in u")
    for i, s in x_u.items():
        if s not in (-1, 1):
            raise ValueError(f"spin for coordinate {i} must be -1 or +1, got {s}")
    memo = {}

    def component(v):
        if v in memo:
            return memo[v]
        sub_assignment = {i: x_u[i] for i in x_u if v >> i & 1}
        total = _conditional_mean(values, n, v, sub_assignment)
        if v:
            w = (v - 1) & v
            while True:
                total -= component(w)
                if w == 0:
                    break
                w = (w - 1) & v
        memo[v] = total
        return total

    return component(u)


class TestWalshHadamard:
    def test_matches_projection_oracle_on_random_tables(self):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3, 5):
            values = rng.standard_normal(1 << n)
            spec = boolfn.walsh_hadamard(values)
            np.testing.assert_allclose(spec.coeffs, projection_oracle(values), atol=1e-12)

    def test_majority3_spectrum_frozen_values(self):
        spec = boolfn.walsh_hadamard(boolfn.majority_table(3))
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 0.5
        expected[7] = -0.5
        np.testing.assert_allclose(spec.coeffs, expected, atol=1e-15)

    def test_dictator_spectrum(self):
        spec = boolfn.walsh_hadamard(boolfn.vertex_spins(2)[:, 0])
        np.testing.assert_allclose(spec.coeffs, [0.0, 1.0, 0.0, 0.0], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_synthesize_inverts_transform(self, n, seed, scale):
        values = scale * np.random.default_rng(seed).standard_normal(1 << n)
        spec = boolfn.walsh_hadamard(values)
        # the in-place butterfly does the reference's arithmetic: same bits
        assert np.array_equal(spec.coeffs * (1 << n), butterfly_reference(values))
        round_trip = boolfn.synthesize(spec)
        eps = np.finfo(float).eps
        assert np.max(np.abs(round_trip - values)) <= 8 * n * eps * np.max(np.abs(values))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_parseval(self, n, seed, scale):
        values = scale * np.random.default_rng(seed).standard_normal(1 << n)
        spec = boolfn.walsh_hadamard(values)
        np.testing.assert_allclose(np.sum(spec.coeffs**2), np.mean(values**2), rtol=1e-12)

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            boolfn.walsh_hadamard(np.ones(3))
        with pytest.raises(ValueError):
            boolfn.walsh_hadamard(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            boolfn.walsh_hadamard(np.ones((2, 2)))


class TestDegreeProfile:
    def test_majority3(self):
        profile = boolfn.degree_profile(boolfn.walsh_hadamard(boolfn.majority_table(3)))
        np.testing.assert_allclose(profile.variance, 1.0, atol=1e-12)
        np.testing.assert_allclose(profile.weights[1], 0.75, atol=1e-12)
        np.testing.assert_allclose(profile.weights[3], 0.25, atol=1e-12)
        np.testing.assert_allclose(profile.mean_dimension, 1.5, atol=1e-12)

    def test_weights_sum_to_one_and_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            values = rng.standard_normal(1 << 6)
            profile = boolfn.degree_profile(boolfn.walsh_hadamard(values))
            np.testing.assert_allclose(profile.weights.sum(), 1.0, rtol=1e-12)
            assert 1.0 - 1e-12 <= profile.mean_dimension <= 6.0 + 1e-12

    def test_constant_function_flagged_undefined(self):
        profile = boolfn.degree_profile(boolfn.walsh_hadamard(np.full(8, 2.5)))
        assert profile.mean_dimension is None
        assert profile.variance == 0.0


class TestAnovaComponent:
    def test_majority3_singleton_conditional_mean(self):
        # conditioning majority on s_0 = +1 leaves mean 1/2, and f_empty = 0
        values = boolfn.majority_table(3)
        assert anova_component(values, 0, {}) == pytest.approx(0.0, abs=1e-15)
        assert anova_component(values, 1, {0: +1}) == pytest.approx(0.5, abs=1e-15)
        assert anova_component(values, 1, {0: -1}) == pytest.approx(-0.5, abs=1e-15)

    def test_components_reconstruct_function(self):
        rng = np.random.default_rng(3)
        n = 4
        values = rng.standard_normal(1 << n)
        spins = boolfn.vertex_spins(n)
        for vertex in range(0, 1 << n, 5):
            total = 0.0
            for u in range(1 << n):
                x_u = {i: int(spins[vertex, i]) for i in range(n) if u >> i & 1}
                total += anova_component(values, u, x_u)
            assert total == pytest.approx(values[vertex], abs=1e-10)

    def test_components_have_zero_mean(self):
        rng = np.random.default_rng(5)
        n = 4
        values = rng.standard_normal(1 << n)
        for u in (1, 3, 7, 13):
            coords = [i for i in range(n) if u >> i & 1]
            assignments = boolfn.vertex_spins(len(coords))
            mean = np.mean(
                [
                    anova_component(values, u, dict(zip(coords, map(int, row))))
                    for row in assignments
                ]
            )
            assert mean == pytest.approx(0.0, abs=1e-12)

    def test_components_are_orthogonal(self):
        rng = np.random.default_rng(9)
        n = 3
        values = rng.standard_normal(1 << n)
        spins = boolfn.vertex_spins(n)

        def evaluate(u):
            out = np.empty(1 << n)
            for vertex in range(1 << n):
                x_u = {i: int(spins[vertex, i]) for i in range(n) if u >> i & 1}
                out[vertex] = anova_component(values, u, x_u)
            return out

        components = [evaluate(u) for u in range(1 << n)]
        for u in range(1 << n):
            for v in range(u):
                assert np.mean(components[u] * components[v]) == pytest.approx(0.0, abs=1e-12)

    def test_order_variances_match_spectrum(self):
        rng = np.random.default_rng(13)
        n = 3
        values = rng.standard_normal(1 << n)
        spec = boolfn.walsh_hadamard(values)
        spins = boolfn.vertex_spins(n)
        for u in range(1, 1 << n):
            coords = [i for i in range(n) if u >> i & 1]
            comp = [
                anova_component(values, u, {i: int(spins[vertex, i]) for i in coords})
                for vertex in range(1 << n)
            ]
            np.testing.assert_allclose(np.mean(np.square(comp)), spec.coeffs[u] ** 2, atol=1e-12)

    def test_input_validation(self):
        values = boolfn.majority_table(3)
        with pytest.raises(ValueError):
            anova_component(values, 9, {0: 1, 3: 1})
        with pytest.raises(ValueError):
            anova_component(values, 3, {0: 1})
        with pytest.raises(ValueError):
            anova_component(values, 1, {0: 0})


class TestExactMd:
    def test_cross_oracle_identity_random_table(self):
        rng = np.random.default_rng(42)
        values = rng.standard_normal(1 << 8)
        via_flips = boolfn.exact_md_via_anova(values)
        via_fourier = boolfn.degree_profile(boolfn.walsh_hadamard(values)).mean_dimension
        assert abs(via_flips - via_fourier) < 1e-9

    def test_linear_is_exactly_one(self):
        assert boolfn.exact_md_via_anova(boolfn.vertex_spins(6)[:, 0]) == 1.0
        assert boolfn.exact_md_via_anova(boolfn.linear_table(6)) == 1.0

    def test_parity_is_exactly_k(self):
        for n, mask, k in ((5, 0b10110, 3), (6, 0b111111, 6), (4, 0b0010, 1)):
            assert boolfn.exact_md_via_anova(boolfn.parity_table(n, mask)) == float(k)

    def test_majority3_is_three_halves(self):
        assert boolfn.exact_md_via_anova(boolfn.majority_table(3)) == pytest.approx(1.5, abs=1e-9)

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            boolfn.exact_md_via_anova(np.zeros(8))

    def test_invariant_under_scale_and_shift(self):
        rng = np.random.default_rng(77)
        values = rng.standard_normal(1 << 5)
        base = boolfn.exact_md_via_anova(values)
        assert boolfn.exact_md_via_anova(3.7 * values - 11.0) == pytest.approx(base, rel=1e-12)


class TestHelpers:
    def test_spins_round_trip(self):
        spins = boolfn.vertex_spins(5)
        np.testing.assert_array_equal(boolfn.spins_to_index(spins), np.arange(32))

    def test_table_score_fn_matches_table(self):
        values = boolfn.majority_table(3)
        score = boolfn.table_score_fn(values)
        np.testing.assert_array_equal(score(boolfn.vertex_spins(3)), values)

    @pytest.mark.parametrize("width", [3, 7])
    def test_table_score_rejects_a_batch_of_the_wrong_width(self, width):
        # too few columns would index a sub-function, too many past the table
        score = boolfn.table_score_fn(np.arange(32.0))
        spins = 1.0 - 2.0 * np.random.default_rng(0).integers(0, 2, size=(8, width))
        with pytest.raises(ValueError, match=f"batch has {width} columns; the table takes 5"):
            score(spins)

    def test_table_score_probe_matches_lookup(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal(1 << 6)
        score = boolfn.table_score_fn(values)
        with pytest.raises(RuntimeError):
            score.probe(0, np.ones(3))
        x = 1.0 - 2.0 * rng.integers(0, 2, size=(40, 6))
        score(x)
        for i in range(6):
            for column in (-x[:, i], 1.0 - 2.0 * rng.integers(0, 2, size=40), x[:, i]):
                x_mod = x.copy()
                x_mod[:, i] = column
                np.testing.assert_array_equal(score.probe(i, column),
                                              values[boolfn.spins_to_index(x_mod)])

    def test_interaction_orders_count_set_bits(self):
        for n in range(13):
            expected = [bin(u).count("1") for u in range(1 << n)]
            np.testing.assert_array_equal(boolfn._interaction_orders(n), expected)
