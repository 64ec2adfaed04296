"""Tests for the dense density-matrix oracle.

These pin the coefficient-level machinery in the rest of the package to
literal quantum mechanics on explicit (small) Hilbert spaces.
"""

import functools
import itertools
import math
import re
import tracemalloc
from pathlib import Path

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


def swap_copies(control, target, d):
    return target, control


def wrong_on_last_pair(pair_map, last):
    """``pair_map``, except that the label pair ``last`` gets its control's
    next phase: an orthogonal output for that pair alone."""

    def wrong(control, target, d):
        (phase, rest), new_target = pair_map(control, target, d)
        if (control, target) == last:
            phase = (phase + 1) % d
        return (phase, rest), new_target

    return wrong


def traced_peak(call):
    """Peak traced memory, in bytes, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
                lambda: oracle.simulate_recurrence_step(
                    oracle.DenseState(6, 2, np.zeros((1, 1))), "P1"
                ),
                6,
                2,
            ),
        ],
        ids=["bell_pairs_2", "bell_pairs_3", "index_maps", "twirl", "mgxor",
             "deviation_P1", "deviation_three_copy", "simulate_step"],
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

    def test_rejects_repeated_d_before_any_check(self, monkeypatch):
        """2 and 2.0 validate to the same d, whose checks would share names."""
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran before the repeat was rejected")

        monkeypatch.setattr(oracle, "verify_bell_index_maps", no_checks)
        with pytest.raises(ValueError, match=r"d values must be distinct, got \[2, 3, 2\]"):
            oracle.run_checks([2, 3, 2.0], trials=1, seed=0)

    def test_rejects_empty_d_list_before_any_check(self, monkeypatch):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran on an empty d list")

        monkeypatch.setattr(oracle, "verify_bell_index_maps", no_checks)
        with pytest.raises(ValueError, match="need at least one d value"):
            oracle.run_checks([], trials=1, seed=0)

    def test_rejects_negative_seed_before_any_check(self, monkeypatch):
        def no_checks(*args, **kwargs):
            raise AssertionError("a check ran with a negative seed")

        monkeypatch.setattr(oracle, "verify_bell_index_maps", no_checks)
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            oracle.run_checks([2], trials=1, seed=-1)


class TestLabelMapMemory:
    """The label-map checks build their products one control label at a
    time, so none holds an n**2 x n**2 matrix: 625 x 625 complex at d = 5
    (6.0 MiB) and 729 x 729 at d = 3 with three parties (8.1 MiB).  One
    untraced call first keeps one-time set-up, such as lazy imports, out of
    the peak; the cleared cache makes the traced call build the transfer
    tensors again."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: oracle.verify_bell_index_maps(5),
            lambda: oracle.verify_mgxor_index_map(3),
            lambda: oracle.run_checks([2, 3, 5], 5, 0),
        ],
        ids=["bell_d5", "mgxor_d3", "run_checks"],
    )
    def test_peak_memory_below_4_mib(self, call):
        call()
        oracle._transfer.cache_clear()
        assert traced_peak(call) < 4 * 2**20


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(eigenvalues, rng):
    """Density-like matrix with the given spectrum in a random eigenbasis."""
    U = random_unitary(len(eigenvalues), rng)
    return (U * np.asarray(eigenvalues)) @ U.conj().T


def difference_groups(d, pairs):
    """Basis indices grouped by per-copy (a - b) mod d."""
    groups = {}
    for x, digits in enumerate(np.ndindex((d,) * (2 * pairs))):
        key = tuple((a - b) % d for a, b in zip(digits[::2], digits[1::2]))
        groups.setdefault(key, []).append(x)
    return [groups[key] for key in sorted(groups)]


def with_block_spectrum(eigenvalues, d, pairs, rng):
    """Like :func:`with_spectrum`, with a random unitary on each difference
    group only, so the matrix is zero outside the groups' diagonal blocks."""
    n = len(eigenvalues)
    U = np.zeros((n, n), dtype=complex)
    for group in difference_groups(d, pairs):
        U[np.ix_(group, group)] = random_unitary(len(group), rng)
    return (U * np.asarray(eigenvalues)) @ U.conj().T


class TestDenseStateCheck:
    """``DenseState.check`` tolerances: trace and Hermiticity to 1e-10,
    eigenvalues down to -1e-9 accepted, all on the whole matrix."""

    @pytest.mark.parametrize("d, pairs", [(2, 2), (3, 2)])
    def test_eigenvalue_tolerance(self, d, pairs):
        """In a random eigenbasis, and in one that is block-diagonal over the
        difference groups, where one block carries the negative eigenvalue."""
        rng = np.random.default_rng(17)
        n = d ** (2 * pairs)
        for blocked, (negative, accepted) in itertools.product(
            (False, True), ((-5e-10, True), (-2e-9, False))
        ):
            spectrum = np.full(n, (1.0 - negative) / (n - 1))
            spectrum[n // 2] = negative
            if blocked:
                rho = with_block_spectrum(spectrum, d, pairs, rng)
            else:
                rho = with_spectrum(spectrum, rng)
            state = oracle.DenseState(d, pairs, rho)
            if accepted:
                assert state.check() is state
            else:
                with pytest.raises(ValueError, match="negative eigenvalue"):
                    state.check()

    def test_rejects_coupling_between_psd_blocks(self):
        """Every difference block is PSD, but a Hermitian coupling between
        two blocks gives the whole matrix the eigenvalue 1/16 - 0.1."""
        n = 16
        rho = np.eye(n, dtype=complex) / n
        groups = difference_groups(2, 2)
        i, j = groups[0][0], groups[1][0]
        rho[i, j] = rho[j, i] = 0.1
        for group in groups:
            assert np.linalg.eigvalsh(rho[np.ix_(group, group)]).min() > 0
        with pytest.raises(ValueError, match="negative eigenvalue"):
            oracle.DenseState(2, 2, rho).check()

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
            oracle.simulate_recurrence_step(oracle.DenseState(2, 2, rho), "P1")


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

    @pytest.mark.parametrize(
        "a, b",
        [
            (random_state(3, np.random.default_rng(4)).alpha.reshape(-1),) * 2,
            (oracle.pauli_matrix(3, 1, 2), oracle.pauli_matrix(3, 1, 2).conj()),
            (np.eye(5), oracle.pauli_matrix(5, 2, 3)),
        ],
        ids=["weights", "pauli_conj", "eye_pauli"],
    )
    def test_kron_matches_numpy_bit_for_bit(self, a, b):
        expected = np.kron(a, b)
        got = oracle._kron(a, b)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()


class TestPackaging:
    def test_numpy_floor_has_vecdot(self):
        """_overlap_error calls np.vecdot, which numpy added in 2.0, so the
        declared floor must be at least that."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        (floor,) = [m[1] for m in map(re.compile(r"numpy>=([\d.]+)").fullmatch, deps) if m]
        assert tuple(int(part) for part in floor.split(".")) >= (2, 0)
        assert hasattr(np, "vecdot")


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
            BQ = oracle._bilateral_qft(d)
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
        """A label map that disagrees with the gate shows as a deviation:
        one that swaps the copies at d = 2, and one wrong only for the last
        label pair at d = 3, which falls in the last of nine blocks (one per
        control label)."""
        exact = oracle.bgxor_index_map
        monkeypatch.setattr(oracle, "bgxor_index_map", swap_copies)
        assert oracle.verify_bell_index_maps(2)["bgxor"] > 0.5
        last = wrong_on_last_pair(exact, ((2, 2), (2, 2)))
        monkeypatch.setattr(oracle, "bgxor_index_map", last)
        assert oracle.verify_bell_index_maps(3)["bgxor"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_blocks_score_as_full_kron(self, monkeypatch, d):
        """Block by block, the bgxor check scores every column bit for bit as
        the full Kronecker products of the basis do."""
        B = oracle.bell_basis(d)
        labels = list(np.ndindex(d, d))
        cols = oracle._mapped_columns(labels, lambda c, t: oracle.bgxor_index_map(c, t, d))
        perm = oracle._gxor_permutation(d, 2)
        full = oracle._overlap_error(np.kron(B, B)[:, cols], np.kron(B, B)[perm])
        blocks = []
        score = oracle._overlap_error
        monkeypatch.setattr(
            oracle, "_overlap_error", lambda e, a: blocks.append(score(e, a)) or blocks[-1]
        )
        assert oracle._pair_map_error(B, B, perm, cols) == full.max()
        assert np.concatenate(blocks).tobytes() == full.tobytes()

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

    def test_variant_validation(self):
        dense = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 2)
        with pytest.raises(ValueError):
            oracle.simulate_recurrence_step(dense, "BOGUS")
        with pytest.raises(ValueError):
            oracle.simulate_recurrence_step(dense, "THREE_COPY")
        with pytest.raises(ValueError):
            oracle.recurrence_map_deviation(5, "THREE_COPY", trials=1)

    def test_outcome_classes_validate_variant(self):
        """The dense step names what is wrong with a variant before it simulates."""
        two = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 2)
        three = oracle.build_bell_pairs(preset("isotropic", 2, 0.9), 3)
        with pytest.raises(ValueError, match="unknown variant"):
            oracle.simulate_recurrence_step(two, "BOGUS")
        with pytest.raises(ValueError, match="needs 3 pairs"):
            oracle.simulate_recurrence_step(two, "THREE_COPY")
        with pytest.raises(ValueError, match="needs 2 pairs"):
            oracle.simulate_recurrence_step(three, "P2")
        with pytest.raises(ValueError, match="limited to d <= 5"):
            oracle.simulate_recurrence_step(oracle.DenseState(7, 2, np.zeros((1, 1))), "P1")

    def test_rejects_zero_trials(self):
        """A check that compares nothing must not report a deviation of 0."""
        with pytest.raises(ValueError, match="trials"):
            oracle.recurrence_map_deviation(2, "P1", trials=0)

    def test_deviation_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'BOGUS'"):
            oracle.recurrence_map_deviation(2, "BOGUS")

    def test_deviation_rejects_fractional_trials(self):
        """1.5 trials used to run one trial silently."""
        with pytest.raises(ValueError, match="trials must be an integer, got 1.5"):
            oracle.recurrence_map_deviation(2, "P1", trials=1.5)
        assert oracle.recurrence_map_deviation(2, "P1", trials=2.0) == (
            oracle.recurrence_map_deviation(2, "P1", trials=2)
        )


@pytest.fixture
def fresh_transfer():
    """Empty the transfer cache around a test that patches what it calls."""
    oracle._transfer.cache_clear()
    yield
    oracle._transfer.cache_clear()


# The (d, variant) pairs the transfer tensor is checked at against the dense route.
TRANSFER_CASES = [
    (d, variant) for d in (2, 3) for variant in ("P1", "P2", "THREE_COPY")
] + [(5, "P1"), (5, "P2")]


class TestTransfer:
    """``_transfer`` runs pure Bell-product inputs through the literal round;
    the dense route stays its reference."""

    @pytest.mark.parametrize("d, variant", TRANSFER_CASES)
    def test_matches_dense_route(self, d, variant):
        T, offdiag = oracle._transfer(d, variant)
        pairs = oracle.VARIANT_PAIRS[variant]
        assert T.shape == (d ** (2 * pairs), d * d)
        assert offdiag < 1e-14
        rng = np.random.default_rng(100 * d + pairs)
        for _ in range(3):
            state = random_state(d, rng)
            weights = functools.reduce(np.kron, [state.alpha.reshape(-1)] * pairs)
            out = weights @ T
            dense = oracle.build_bell_pairs(state, pairs)
            ref_state, ref_prob = oracle.simulate_recurrence_step(dense, variant)
            assert abs(out.sum() - ref_prob) < 1e-13
            np.testing.assert_allclose(
                out.reshape(d, d) / out.sum(), ref_state.alpha, rtol=0, atol=1e-13
            )

    def test_cached_and_read_only(self):
        T, _ = oracle._transfer(3, "P1")
        assert oracle._transfer(3, "P1")[0] is T
        assert not T.flags.writeable

    @pytest.mark.parametrize("d, variant", TRANSFER_CASES)
    def test_bell_inputs_keep_all_or_nothing(self, d, variant):
        """The gates map a Bell product to a Bell product, so each input
        keeps one Bell label with probability 1 or fails outright."""
        T, _ = oracle._transfer(d, variant)
        kept = T.sum(axis=1)
        assert np.all((np.abs(kept) < 1e-14) | (np.abs(kept - 1.0) < 1e-14))
        assert np.all((T < 1e-14) | (np.abs(T - 1.0) < 1e-14))

    def test_limit_enforced(self):
        with pytest.raises(ValueError, match="limited to d <= 3 for 3 pairs"):
            oracle._transfer(4, "THREE_COPY")

    def test_run_checks_builds_no_density_matrix(self, monkeypatch, fresh_transfer):
        def dense(*args, **kwargs):
            raise AssertionError("run_checks built a dense state")

        monkeypatch.setattr(oracle, "build_bell_pairs", dense)
        monkeypatch.setattr(oracle, "simulate_recurrence_step", dense)
        assert oracle.run_checks([2, 3], trials=2, seed=0)["pass"] is True

    def test_run_checks_reports_offdiagonal_terms(self):
        checks = oracle.run_checks([2, 4], trials=1, seed=0)["checks"]
        names = {
            name for name in checks if name.split("_offdiag_")[0] in oracle.VARIANT_PAIRS
        }
        assert names == {
            "P1_offdiag_d2", "P2_offdiag_d2", "THREE_COPY_offdiag_d2",
            "P1_offdiag_d4", "P2_offdiag_d4",
        }
        assert max(checks[name] for name in names) < 1e-14

    def test_computational_projection_fails_offdiagonal_check(
        self, monkeypatch, fresh_transfer
    ):
        """Reading the kept copy in the computational basis instead of the
        Bell basis leaves coherences of 1/d between the d components of each
        Bell vector, and run_checks must fail on them."""
        monkeypatch.setattr(oracle, "_bell_amplitudes", lambda kept, d: kept)
        report = oracle.run_checks([2], trials=1, seed=0)
        for variant in ("P1", "P2", "THREE_COPY"):
            assert report["checks"][f"{variant}_offdiag_d2"] > oracle.CHECK_TOL
        assert report["max_abs_deviation"] >= report["checks"]["P1_offdiag_d2"]
        assert report["pass"] is False

    def test_rejects_kept_probability_above_one(self, monkeypatch, fresh_transfer):
        monkeypatch.setattr(
            oracle, "_bell_amplitudes", lambda kept, d: 2.0 * oracle.bell_basis(d).conj().T @ kept
        )
        with pytest.raises(ValueError, match="more than probability 1"):
            oracle._transfer(2, "P1")

    def test_rejects_non_finite_weight(self, monkeypatch, fresh_transfer):
        monkeypatch.setattr(oracle, "_bell_amplitudes", lambda kept, d: np.full_like(kept, np.nan))
        with pytest.raises(ValueError, match="negative or non-finite weight"):
            oracle._transfer(2, "P1")


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

    def test_rejects_fractional_trials(self):
        """1.5 trials used to run one trial silently."""
        with pytest.raises(ValueError, match="trials must be an integer, got 1.5"):
            oracle.verify_depolarization_identity(2, trials=1.5)
        assert oracle.verify_depolarization_identity(2, trials=2.0) == (
            oracle.verify_depolarization_identity(2, trials=2)
        )


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
        """Swapped copies at d = 2, and a map wrong only for the last label
        pair at d = 3, which falls in the last of 27 blocks (one per control
        label)."""
        exact = oracle.ghz_pair_index_map
        monkeypatch.setattr(oracle, "ghz_pair_index_map", swap_copies)
        assert not oracle.verify_mgxor_index_map(2)
        last = wrong_on_last_pair(exact, ((2, (2, 2)), (2, (2, 2))))
        monkeypatch.setattr(oracle, "ghz_pair_index_map", last)
        assert not oracle.verify_mgxor_index_map(3)
