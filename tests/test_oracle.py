"""Tests for the dense density-matrix oracle.

These pin the coefficient-level machinery in the rest of the package to
literal quantum mechanics on explicit (small) Hilbert spaces.
"""

import math

import numpy as np
import pytest

from quditpure import oracle
from quditpure.states import CoeffMatrix, StatePreset, make_preset, random_state


def preset(kind, d, F):
    return make_preset(StatePreset(kind, F), d)


def loop_bell_basis(d):
    """The Bell basis as built before it became ``ghz_basis(d, 2)``: column
    phase * d + amplitude from its own loop, kept as the byte reference."""
    w = np.exp(2j * math.pi / d)
    B = np.empty((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            v = np.zeros(d * d, dtype=complex)
            for r in range(d):
                v[r * d + (r - n) % d] = w ** (m * r)
            B[:, m * d + n] = v / math.sqrt(d)
    return B


class TestBasisConstruction:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bell_basis_orthonormal(self, d):
        B = oracle.bell_basis(d)
        assert np.abs(B.conj().T @ B - np.eye(d * d)).max() < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bell_basis_matches_per_column_build(self, d):
        assert oracle.bell_basis(d).tobytes() == loop_bell_basis(d).tobytes()

    def test_bell_vector_normalized(self):
        v = oracle.bell_vector(3, 2, 1)
        assert abs(np.vdot(v, v) - 1.0) < 1e-12

    def test_ghz_basis_orthonormal(self):
        G = oracle.ghz_basis(2, 3)
        assert np.abs(G.conj().T @ G - np.eye(8)).max() < 1e-12

    def test_ghz_reduces_to_bell_at_two_parties(self):
        for m in range(3):
            for n in range(3):
                a = oracle.ghz_vector(3, m, (n,))
                b = oracle.bell_vector(3, m, n)
                assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12

    def test_pauli_matrices_unitary_and_complete(self):
        d = 3
        seen = set()
        for k in range(d):
            for j in range(d):
                M = oracle.pauli_matrix(d, k, j)
                assert np.abs(M @ M.conj().T - np.eye(d)).max() < 1e-12
                seen.add(tuple(np.round(M.reshape(-1), 9)))
        assert len(seen) == d * d  # all distinct

    def test_qft_unitary(self):
        Q = oracle.qft_matrix(5)
        assert np.abs(Q @ Q.conj().T - np.eye(5)).max() < 1e-12


class TestDenseStates:
    def test_build_bell_pairs_is_valid_density_matrix(self):
        dense = oracle.build_bell_pairs(preset("isotropic", 3, 0.8), 2)
        rho = dense.rho
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_diagonal_in_bell_basis(self):
        state = preset("xz_mixture", 2, 0.6)
        rho = oracle.bell_diagonal_density(state)
        B = oracle.bell_basis(2)
        C = B.conj().T @ rho @ B
        np.testing.assert_allclose(
            np.diag(C).real, state.alpha.reshape(-1), atol=1e-12
        )
        assert np.abs(C - np.diag(np.diag(C))).max() < 1e-12

    def test_pair_limits_enforced(self):
        with pytest.raises(ValueError):
            oracle.build_bell_pairs(preset("isotropic", 7, 0.9), 2)
        with pytest.raises(ValueError):
            oracle.build_bell_pairs(preset("isotropic", 5, 0.9), 3)
        with pytest.raises(ValueError):
            oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 4)


class TestPairLimits:
    """Every entry point one step above its size limit fails with the same
    message, naming the limit from ``PAIR_LIMITS``."""

    @pytest.mark.parametrize(
        "call, d, pairs",
        [
            (lambda: oracle.build_bell_pairs(preset("isotropic", 6, 0.9), 2), 6, 2),
            (lambda: oracle.build_bell_pairs(preset("isotropic", 4, 0.9), 3), 4, 3),
            (lambda: oracle.verify_bell_index_maps(6), 6, 2),
            (lambda: oracle.verify_depolarization_identity(6), 6, 2),
            (lambda: oracle.verify_mgxor_index_map(4), 4, 3),
            (lambda: oracle.recurrence_map_deviation(6, "P1"), 6, 2),
            (lambda: oracle.recurrence_map_deviation(4, "THREE_COPY"), 4, 3),
            (
                lambda: oracle.outcome_class_probabilities(
                    oracle.DenseState(6, 2, np.zeros((1, 1))), "P1"
                ),
                6,
                2,
            ),
        ],
        ids=["bell_pairs_2", "bell_pairs_3", "index_maps", "twirl", "mgxor",
             "deviation_P1", "deviation_three_copy", "outcome_classes"],
    )
    def test_one_above_limit_raises(self, call, d, pairs):
        limit = oracle.PAIR_LIMITS[pairs]
        assert d == limit + 1
        message = f"dense simulation limited to d <= {limit} for {pairs} pairs, got d={d}"
        with pytest.raises(ValueError, match=message):
            call()


class TestRunChecks:
    def test_integral_d_values_become_plain_ints(self):
        """The report's d list and check names use the validated ints."""
        report = oracle.run_checks([2.0, np.int64(3)], trials=1, seed=0)
        assert report["d"] == [2, 3] and all(type(d) is int for d in report["d"])
        assert {name.rsplit("_d", 1)[1] for name in report["checks"]} == {"2", "3"}


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(eigenvalues, rng):
    """Density-like matrix with the given spectrum in a random eigenbasis."""
    U = random_unitary(len(eigenvalues), rng)
    return (U * np.asarray(eigenvalues)) @ U.conj().T


class TestDenseStateCheck:
    """``DenseState.check`` tolerances: trace and Hermiticity to 1e-10,
    eigenvalues down to -1e-9 accepted."""

    @pytest.mark.parametrize("d, pairs", [(2, 2), (3, 2)])
    def test_eigenvalue_tolerance(self, d, pairs):
        rng = np.random.default_rng(17)
        n = d ** (2 * pairs)
        for negative, accepted in ((-5e-10, True), (-2e-9, False)):
            spectrum = np.full(n, (1.0 - negative) / (n - 1))
            spectrum[n // 2] = negative
            state = oracle.DenseState(d, pairs, with_spectrum(spectrum, rng))
            if accepted:
                assert state.check() is state
            else:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    state.check()

    def test_rejects_trace_off_by_1e_9(self):
        rng = np.random.default_rng(3)
        rho = with_spectrum(np.full(16, (1.0 + 1e-9) / 16), rng)
        with pytest.raises(ValueError, match="trace"):
            oracle.DenseState(2, 2, rho).check()

    def test_rejects_non_hermitian(self):
        rho = np.eye(16, dtype=complex) / 16
        rho[0, 1] = 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            oracle.DenseState(2, 2, rho).check()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        rho = oracle.build_bell_pairs(preset("isotropic", 2, 0.8), 2).rho.copy()
        rho[3, 5] = value
        with pytest.raises(ValueError, match="non-finite"):
            oracle.DenseState(2, 2, rho).check()

    @pytest.mark.parametrize("side", [8, 64])
    def test_rejects_wrong_shape(self, side):
        rho = np.eye(side, dtype=complex) / side
        with pytest.raises(ValueError, match="shape"):
            oracle.DenseState(2, 2, rho).check()
        with pytest.raises(ValueError, match="shape"):
            oracle.outcome_class_probabilities(oracle.DenseState(2, 2, rho), "P1")


def loop_gxor_permutation(d, pairs):
    """Reference GXOR permutation: the per-index loop that the array
    construction replaced."""
    n = 2 * pairs
    dims = (d,) * n
    size = d**n
    perm = np.empty(size, dtype=np.intp)
    for x in range(size):
        digits = list(np.unravel_index(x, dims))
        a1, b1 = digits[0], digits[1]
        for copy in range(1, pairs):
            digits[2 * copy] = (a1 - digits[2 * copy]) % d
            digits[2 * copy + 1] = (b1 - digits[2 * copy + 1]) % d
        perm[x] = np.ravel_multi_index(digits, dims)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(size)
    return inv


def inline_mgxor_permutation(d):
    """Reference trilateral gate permutation: the construction that
    ``verify_mgxor_index_map`` inlined before ``_gxor_permutation`` took
    a party count."""
    N = 3
    reg_dims = (d,) * (2 * N)
    digits = np.indices(reg_dims).reshape(2 * N, -1)
    digits[N:] = (digits[:N] - digits[N:]) % d
    return np.ravel_multi_index(digits, reg_dims)


class TestGateKernels:
    @pytest.mark.parametrize(
        "d, copies, parties",
        [(2, 2, 2), (3, 2, 2), (5, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3), (3, 2, 3)],
    )
    def test_gxor_permutation_is_involution(self, d, copies, parties):
        perm = oracle._gxor_permutation(d, copies, parties)
        np.testing.assert_array_equal(perm[perm], np.arange(d ** (copies * parties)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_trilateral_permutation_matches_inline_build(self, d):
        np.testing.assert_array_equal(
            oracle._gxor_permutation(d, 2, 3), inline_mgxor_permutation(d)
        )

    @pytest.mark.parametrize("d, pairs", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3)])
    def test_gxor_permutation_matches_loop(self, d, pairs):
        np.testing.assert_array_equal(
            oracle._gxor_permutation(d, pairs), loop_gxor_permutation(d, pairs)
        )

    @pytest.mark.parametrize("d, pairs", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_fourier_conjugation_matches_dense_product(self, d, pairs):
        """Per-copy conjugation equals B rho B^dagger with the full
        bilateral Fourier matrix, on a matrix with no structure."""
        rng = np.random.default_rng(d * 10 + pairs)
        n = d ** (2 * pairs)
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = oracle._bilateral_qft(d, pairs)
        np.testing.assert_allclose(
            oracle._fourier_conjugate(rho, d, pairs), B @ rho @ B.conj().T,
            rtol=0, atol=1e-13,
        )


class TestIndexMapValidation:
    @pytest.mark.parametrize("d", [2, 3])
    def test_label_maps_match_unitaries(self, d):
        devs = oracle.verify_bell_index_maps(d)
        assert set(devs) == {"bgxor", "bqft", "pauli"}
        for name, dev in devs.items():
            assert dev < 1e-10, f"{name} deviates by {dev}"

    def test_fourier_action_carries_negation_beyond_d2(self):
        """The local Fourier pair sends (m, n) to (n, -m); the bare swap
        (m, n) -> (n, m) only matches at d=2, where -m = m mod 2.  No
        local gate can realize the bare swap for d > 2: relabelings of
        this basis act linearly on the index pair with determinant +1,
        and the bare swap has determinant -1."""
        for d, swap_works in ((2, True), (3, False)):
            BQ = oracle._bilateral_qft(d, 1)
            worst_plain = 0.0
            worst_negated = 0.0
            for m in range(d):
                for n in range(d):
                    vout = BQ @ oracle.bell_vector(d, m, n)
                    plain = oracle.bell_vector(d, n, m)
                    negated = oracle.bell_vector(d, n, (-m) % d)
                    worst_plain = max(
                        worst_plain, abs(abs(np.vdot(plain, vout)) - 1.0)
                    )
                    worst_negated = max(
                        worst_negated, abs(abs(np.vdot(negated, vout)) - 1.0)
                    )
            assert worst_negated < 1e-12
            assert (worst_plain < 1e-12) == swap_works

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            oracle.verify_bell_index_maps(7)

    def test_wrong_gxor_map_is_detected(self, monkeypatch):
        """A label map that disagrees with the gate shows as a deviation."""

        def swapped(control, target, d):
            return target, control

        monkeypatch.setattr(oracle, "bgxor_index_map", swapped)
        assert oracle.verify_bell_index_maps(2)["bgxor"] > 0.5

    @pytest.mark.parametrize("d", [2, 3])
    def test_wrong_pauli_map_is_detected(self, monkeypatch, d):
        """Exchanging the phase and shift powers sends some basis state to
        an orthogonal one: an overlap of 0, a deviation of 1."""

        def exchanged(a, b, index, d):
            return (index[0] + b) % d, (index[1] + a) % d

        monkeypatch.setattr(oracle, "pauli_on_bell", exchanged)
        devs = oracle.verify_bell_index_maps(d)
        assert devs["pauli"] == pytest.approx(1.0, abs=1e-12)
        assert devs["bgxor"] < 1e-12


class TestRecurrenceSimulation:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("variant", ["P1", "P2", "THREE_COPY"])
    def test_coefficient_maps_match_dense_route(self, d, variant):
        state_dev, prob_dev = oracle.recurrence_map_deviation(
            d, variant, trials=10, seed=12345
        )
        assert state_dev < 1e-10
        assert prob_dev < 1e-10

    def test_pure_input_unchanged(self):
        dense = oracle.build_bell_pairs(preset("isotropic", 2, 1.0), 2)
        out, prob = oracle.simulate_recurrence_step(dense, "P1")
        np.testing.assert_allclose(out.alpha, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_outcome_classes_partition_probability(self):
        state = preset("xz_mixture", 3, 0.6)
        two = oracle.outcome_class_probabilities(
            oracle.build_bell_pairs(state, 2), "P1"
        )
        assert two.shape == (3,)
        assert two.sum() == pytest.approx(1.0, abs=1e-10)
        three = oracle.outcome_class_probabilities(
            oracle.build_bell_pairs(state, 3), "THREE_COPY"
        )
        assert three.shape == (3, 3)
        assert three.sum() == pytest.approx(1.0, abs=1e-10)

    def test_success_class_matches_step_probability(self):
        state = preset("isotropic", 2, 0.7)
        dense = oracle.build_bell_pairs(state, 2)
        probs = oracle.outcome_class_probabilities(dense, "P1")
        _, prob = oracle.simulate_recurrence_step(dense, "P1")
        assert probs[0] == pytest.approx(prob, abs=1e-12)

    def test_variant_validation(self):
        dense = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 2)
        with pytest.raises(ValueError):
            oracle.simulate_recurrence_step(dense, "BOGUS")
        with pytest.raises(ValueError):
            oracle.simulate_recurrence_step(dense, "THREE_COPY")
        with pytest.raises(ValueError):
            oracle.recurrence_map_deviation(5, "THREE_COPY", trials=1)

    def test_outcome_classes_validate_variant(self):
        two = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 2)
        three = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 3)
        with pytest.raises(ValueError, match="unknown variant"):
            oracle.outcome_class_probabilities(two, "BOGUS")
        with pytest.raises(ValueError, match="needs 3 pairs"):
            oracle.outcome_class_probabilities(two, "THREE_COPY")
        with pytest.raises(ValueError, match="needs 2 pairs"):
            oracle.outcome_class_probabilities(three, "P2")
        with pytest.raises(ValueError, match="limited to d <= 5"):
            oracle.outcome_class_probabilities(
                oracle.DenseState(7, 2, np.zeros((1, 1))), "P1"
            )

    def test_rejects_zero_trials(self):
        """A check that compares nothing must not report a deviation of 0."""
        with pytest.raises(ValueError, match="trials"):
            oracle.recurrence_map_deviation(2, "P1", trials=0)

    def test_deviation_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'BOGUS'"):
            oracle.recurrence_map_deviation(2, "BOGUS")


class TestDepolarization:
    def test_kraus_route_matches_coefficient_route(self):
        from quditpure.states import depolarize_channel

        rng = np.random.default_rng(4)
        for d in (2, 3):
            for retention in (0.0, 0.35, 0.8, 1.0):
                state = random_state(d, rng)
                a = oracle.depolarize_oracle(state, retention).alpha
                b = depolarize_channel(state, retention).alpha
                np.testing.assert_allclose(a, b, atol=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_correlated_twirl_kills_coherences(self, d):
        worst_off = oracle.verify_depolarization_identity(d, trials=3, seed=0)
        assert worst_off < 1e-10

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_no_trials(self, trials):
        """A twirl check that draws no state must not report 0.0."""
        with pytest.raises(ValueError, match="trials"):
            oracle.verify_depolarization_identity(2, trials=trials)


class TestGhzGate:
    def test_worked_example_d2(self):
        control = (1, (0, 1))
        target = (1, (1, 0))
        new_control, new_target = oracle.ghz_pair_index_map(control, target, 2)
        assert new_control == (0, (0, 1))
        assert new_target == (1, (1, 1))

    def test_control_amplitudes_unchanged(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            c = (int(rng.integers(d)), tuple(int(x) for x in rng.integers(d, size=2)))
            t = (int(rng.integers(d)), tuple(int(x) for x in rng.integers(d, size=2)))
            (mc, ac), (mt, at) = oracle.ghz_pair_index_map(c, t, d)
            assert ac == c[1]
            assert mc == (c[0] + t[0]) % d
            assert mt == (-t[0]) % d
            assert at == tuple((a + b) % d for a, b in zip(c[1], t[1]))

    def test_rejects_mismatched_party_count(self):
        with pytest.raises(ValueError):
            oracle.ghz_pair_index_map((0, (0, 1)), (0, (1,)), 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_gate_realizes_map(self, d):
        assert oracle.verify_mgxor_index_map(d)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            oracle.verify_mgxor_index_map(5)

    def test_wrong_map_is_detected(self, monkeypatch):
        def swapped(control, target, d):
            return target, control

        monkeypatch.setattr(oracle, "ghz_pair_index_map", swapped)
        assert not oracle.verify_mgxor_index_map(2)
