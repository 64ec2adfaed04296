"""Tests for multiparty GHZ-diagonal hashing yields."""

import numpy as np
import pytest

from quditpure.hashing import asymptotic_yield
from quditpure.multipartite import (
    GhzCoeffs,
    ghz_from_json,
    ghz_isotropic,
    ghz_to_json,
    index_correlation,
    index_entropies,
    isotropic_yield_formula,
    multipartite_yield,
)
from quditpure.states import StatePreset, make_preset


class TestGhzCoeffs:
    def test_structure_d2_n3(self):
        state = ghz_isotropic(2, 3, 0.9)
        assert state.d == 2 and state.N == 3
        assert state.fidelity == pytest.approx(0.9, abs=1e-15)
        np.testing.assert_allclose(state.alpha[1:], np.full(7, 0.1 / 7), atol=1e-15)

    def test_tensor_layout_phase_slowest(self):
        state = ghz_isotropic(3, 2, 0.5)
        t = state.tensor()
        assert t.shape == (3, 3)
        assert t[0, 0] == state.alpha[0]
        # flat index m * d + l for N=2
        assert t[2, 1] == state.alpha[2 * 3 + 1]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            GhzCoeffs(2, 3, np.full(7, 1 / 7))

    def test_rejects_negative_and_bad_sum(self):
        bad = np.full(8, 1 / 8)
        bad[3] = -0.2
        with pytest.raises(ValueError):
            GhzCoeffs(2, 3, bad)
        with pytest.raises(ValueError):
            GhzCoeffs(2, 3, np.full(8, 0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        weights = np.full(4, 0.25)
        weights[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            GhzCoeffs(2, 2, weights)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            GhzCoeffs(2, 1, [1.0, 0.0])

    @pytest.mark.parametrize("build", [
        lambda: GhzCoeffs(2, 63, [1.0]),
        lambda: ghz_isotropic(2, 63, 0.9),
        lambda: ghz_isotropic(3, 40, 0.9),
        lambda: ghz_from_json({"d": 2, "N": 10**300, "alpha": [1.0]}),
    ], ids=["coeffs", "isotropic_2", "isotropic_3", "json_huge_N"])
    def test_vector_beyond_array_size_rejected_before_build(self, build):
        with pytest.raises(ValueError, match=r"d\*\*\d+ must be at most 9.22337e\+18"):
            build()

    def test_isotropic_fidelity_bounds(self):
        with pytest.raises(ValueError):
            ghz_isotropic(2, 3, 1.0 / 16)  # below 1/d**N


class TestIndexEntropies:
    def test_pure_state_zero(self):
        h_phase, h_amp = index_entropies(ghz_isotropic(3, 3, 1.0))
        assert h_phase == 0.0
        assert h_amp == 0.0

    def test_isotropic_marginals_d2_n3(self):
        h_phase, h_amp = index_entropies(ghz_isotropic(2, 3, 0.9))
        assert h_phase == pytest.approx(0.3159971329784248, abs=1e-12)
        assert h_amp == pytest.approx(h_phase, abs=1e-12)

    def test_isotropic_marginal_probabilities(self):
        """Each marginal is (p_a, p_b, ..., p_b) with the documented
        closed-form values."""
        d, N, F = 3, 3, 0.8
        state = ghz_isotropic(d, N, F)
        t = state.tensor()
        phase_marginal = t.sum(axis=(1, 2))
        p_a = F + (1 - F) * (d ** (N - 1) - 1) / (d**N - 1)
        p_b = (1 - F) * d ** (N - 1) / (d**N - 1)
        assert phase_marginal[0] == pytest.approx(p_a, abs=1e-12)
        np.testing.assert_allclose(phase_marginal[1:], p_b, atol=1e-12)


class TestMultipartiteYield:
    def test_formula_matches_entropy_route(self):
        worst = 0.0
        for d in (2, 3, 5):
            for N in (2, 3, 4):
                for F in (0.85, 0.9, 0.95, 1.0):
                    direct = multipartite_yield(ghz_isotropic(d, N, F))
                    closed = isotropic_yield_formula(d, N, F)
                    worst = max(worst, abs(direct - closed))
        assert worst < 1e-10

    def test_pure_yield_one(self):
        assert isotropic_yield_formula(2, 3, 1.0) == 1.0
        assert multipartite_yield(ghz_isotropic(2, 3, 1.0)) == 1.0

    def test_anchor_d2_n3(self):
        assert isotropic_yield_formula(2, 3, 0.9) == pytest.approx(
            0.368005734043, abs=1e-10
        )

    def test_increasing_in_party_count_at_d2(self):
        values = [isotropic_yield_formula(2, N, 0.9) for N in (2, 3, 4, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_increasing_in_dimension_at_n3(self):
        values = [isotropic_yield_formula(d, 3, 0.9) for d in (2, 3, 5, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_two_party_case_charges_marginals(self):
        """For N=2 the marginal-entropy accounting is more conservative
        than pair hashing, which charges the joint index entropy: the
        isotropic state's two indices are correlated, so the marginals
        overcount."""
        y_marginal = isotropic_yield_formula(2, 2, 0.9)
        y_joint = asymptotic_yield(make_preset(StatePreset("isotropic", 0.9), 2))
        assert y_marginal == pytest.approx(0.2932813299571573, abs=1e-10)
        assert y_marginal < y_joint

    def test_clamped_at_zero(self):
        assert isotropic_yield_formula(2, 3, 0.55) == 0.0

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            multipartite_yield(ghz_isotropic(4, 3, 0.9))
        with pytest.raises(ValueError):
            isotropic_yield_formula(6, 3, 0.9)

    @pytest.mark.parametrize("d, N, value", [
        (11, 20, 0.571322383655),
        (7, 23, 0.541512385075),
        (2, 100, 0.427206085768),
        (2, 1023, 0.427206085768),
    ])
    def test_formula_takes_d_to_the_N_beyond_array_size(self, d, N, value):
        """The formula builds no array, so only the float range bounds d**N."""
        assert isotropic_yield_formula(d, N, 0.9) == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("d, N", [(2, 1024), (2, 2000), (3, 10**300)])
    def test_formula_rejects_d_to_the_N_beyond_float_range(self, d, N):
        with pytest.raises(ValueError, match=r"must be at most 1.79769e\+308"):
            isotropic_yield_formula(d, N, 0.9)


class TestIndexCorrelation:
    def test_product_distribution_uncorrelated(self):
        p = np.array([0.7, 0.3])
        joint = np.einsum("i,j,k->ijk", p, p, p).reshape(-1)
        assert index_correlation(GhzCoeffs(2, 3, joint)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfectly_correlated_indices(self):
        weights = np.zeros(8)
        weights[0] = 0.5
        weights[7] = 0.5  # indices (1, 1, 1)
        assert index_correlation(GhzCoeffs(2, 3, weights)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_isotropic_carries_correlation(self):
        assert index_correlation(ghz_isotropic(2, 3, 0.9)) > 0.1


class TestSerialization:
    def test_round_trip(self):
        state = ghz_isotropic(2, 3, 0.9)
        back = ghz_from_json(ghz_to_json(state))
        assert (back.d, back.N) == (2, 3)
        np.testing.assert_allclose(back.alpha, state.alpha, atol=1e-15)

    def test_isotropic_shorthand(self):
        state = ghz_from_json({"d": 2, "N": 3, "preset": "ghz_isotropic", "F": 0.9})
        np.testing.assert_allclose(
            state.alpha, ghz_isotropic(2, 3, 0.9).alpha, atol=1e-15
        )

    def test_validates(self):
        with pytest.raises(ValueError):
            ghz_from_json({"d": 2})
        with pytest.raises(ValueError):
            ghz_from_json({"d": 2, "N": 3})
        with pytest.raises(ValueError):
            ghz_from_json({"d": 2, "N": 3, "preset": "bogus"})
