"""Dense density-matrix ground truth for small systems.

Everything here works with explicit complex matrices and literal
basis-state definitions: maximally entangled pairs are built as state
vectors, gates as permutation or Fourier matrices, measurements as
projector sums.  A Bell pair is the N = 2 GHZ state, so one vector
builder serves both bases.  The coefficient-level shortcuts used
elsewhere in the package are validated against this module.  Only
:func:`recurrence_map_deviation` imports from :mod:`quditpure.recurrence`,
and only the maps it checks.

Sizes are deliberately tiny: ``PAIR_LIMITS`` gives the largest d for
each number of copies.  :func:`run_checks` is the whole validation suite
that ``quditpure oracle-check`` prints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .indices import (
    bgxor_index_map, bqft_index_map, check_dimension, check_unit_interval, pauli_on_bell,
)
from .states import CoeffMatrix

__all__ = [
    "DenseState",
    "PAIR_LIMITS",
    "VARIANT_PAIRS",
    "bell_basis",
    "bell_vector",
    "build_bell_pairs",
    "depolarize_oracle",
    "ghz_basis",
    "ghz_pair_index_map",
    "ghz_vector",
    "outcome_class_probabilities",
    "pauli_matrix",
    "qft_matrix",
    "recurrence_map_deviation",
    "run_checks",
    "simulate_recurrence_step",
    "verify_bell_index_maps",
    "verify_depolarization_identity",
    "verify_mgxor_index_map",
]

# Largest d a dense simulation allows, per number of two-qudit copies.
PAIR_LIMITS = {2: 5, 3: 3}
VARIANT_PAIRS = {"P1": 2, "P2": 2, "THREE_COPY": 3}

CHECK_TOL = 1e-10
TRACE_TOL = 1e-10
HERM_TOL = 1e-10
PSD_TOL = -1e-9


def _omega(d: int) -> complex:
    return np.exp(2j * math.pi / d)


def bell_vector(d: int, phase: int, amplitude: int) -> np.ndarray:
    """State vector (1/sqrt(d)) sum_r w**(phase*r) |r>|r - amplitude>.

    Qudit order is (A, B); the computational index is a*d + b.
    """
    return ghz_vector(d, phase, (amplitude,))


def bell_basis(d: int) -> np.ndarray:
    """Unitary whose column phase*d + amplitude is the matching bell_vector."""
    return ghz_basis(d, 2)


def ghz_vector(d: int, phase: int, amplitudes: tuple[int, ...]) -> np.ndarray:
    """N-party generalization: (1/sqrt(d)) sum_r w**(phase*r) |r>|r-l_1>...|r-l_{N-1}>."""
    d = check_dimension(d)
    N = len(amplitudes) + 1
    w = _omega(d)
    v = np.zeros(d**N, dtype=complex)
    for r in range(d):
        flat = r
        for l in amplitudes:
            flat = flat * d + (r - l) % d
        v[flat] = w ** (phase * r)
    return v / math.sqrt(d)


def ghz_basis(d: int, N: int) -> np.ndarray:
    """Columns are GHZ vectors in mixed-radix order, phase index slowest."""
    size = d**N
    G = np.empty((size, size), dtype=complex)
    for flat, digits in enumerate(np.ndindex((d,) * N)):
        G[:, flat] = ghz_vector(d, digits[0], digits[1:])
    return G


def pauli_matrix(d: int, k: int, j: int) -> np.ndarray:
    """Generalized Pauli with phase power k and shift power j.

    Acts as |r> -> w**(k r) |r - j>; (k, j) ranging over [0, d)**2 gives
    the full error basis.
    """
    d = check_dimension(d)
    w = _omega(d)
    M = np.zeros((d, d), dtype=complex)
    for r in range(d):
        M[(r - j) % d, r] = w ** (k * r)
    return M


def qft_matrix(d: int) -> np.ndarray:
    """Fourier matrix Q[n, m] = w**(n m) / sqrt(d)."""
    d = check_dimension(d)
    w = _omega(d)
    idx = np.arange(d)
    return w ** np.outer(idx, idx) / math.sqrt(d)


@dataclass(frozen=True)
class DenseState:
    """Explicit density matrix over ``pairs`` two-qudit copies.

    Qudit order is (A1, B1, A2, B2[, A3, B3]): copy-major, with each
    copy's A qudit before its B qudit.
    """

    d: int
    pairs: int
    rho: np.ndarray

    def check(self) -> "DenseState":
        """Validate shape, finiteness, trace, Hermiticity and positivity.

        Positivity is tested on the full matrix: the Hermitian part minus
        ``PSD_TOL`` times the identity must admit a Cholesky factor, which
        holds exactly when every eigenvalue lies above ``PSD_TOL``.
        """
        self._check_shape()
        rho = self.rho
        if not np.isfinite(rho).all():
            raise ValueError("density matrix has non-finite entries")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
            raise ValueError(f"density matrix trace {np.trace(rho):.12g} is not 1")
        rho_h = rho.conj().T
        if np.abs(rho - rho_h).max() > HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        shifted = rho + rho_h
        del rho_h
        shifted *= 0.5
        shifted.flat[:: shifted.shape[0] + 1] -= PSD_TOL
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise ValueError(
                "density matrix has a significantly negative eigenvalue"
            ) from None
        return self

    def _check_shape(self) -> None:
        """Raise unless ``rho`` is square of side d**(2*pairs)."""
        size = self.d ** (2 * self.pairs)
        if self.rho.shape != (size, size):
            raise ValueError(
                f"density matrix shape {self.rho.shape} does not match "
                f"d={self.d}, pairs={self.pairs}: expected {(size, size)}"
            )


def _check_pair_limit(d, pairs: int) -> int:
    """Validate d for a dense simulation over ``pairs`` copies; return it."""
    d = check_dimension(d)
    limit = PAIR_LIMITS.get(pairs)
    if limit is None:
        raise ValueError(f"pair count must be one of {list(PAIR_LIMITS)}, got {pairs}")
    if d > limit:
        raise ValueError(
            f"dense simulation limited to d <= {limit} for {pairs} pairs, got d={d}"
        )
    return d


def bell_diagonal_density(state: CoeffMatrix) -> np.ndarray:
    """Density matrix sum_{m,n} alpha[m, n] |psi_mn><psi_mn|."""
    B = bell_basis(state.d)
    return (B * state.alpha.reshape(-1)) @ B.conj().T


def build_bell_pairs(coeffs: CoeffMatrix, pairs: int) -> DenseState:
    """Tensor product of identical Bell-diagonal copies."""
    d = coeffs.d
    _check_pair_limit(d, pairs)
    rho_pair = bell_diagonal_density(coeffs)
    rho = rho_pair
    for _ in range(pairs - 1):
        rho = np.kron(rho, rho_pair)
    return DenseState(d=d, pairs=pairs, rho=rho).check()


def _gxor_permutation(d: int, copies: int, parties: int = 2) -> np.ndarray:
    """Index array of the controlled-difference gates from copy 1.

    Qudit order is copy-major, ``parties`` qudits per copy.  Each party's
    copy-1 qudit controls its qudit in every other copy: target digits
    become (control - target) mod d.  The gate is its own inverse, so
    conjugation acts as rho[np.ix_(perm, perm)] and maps the rows of a
    matrix X to X[perm].
    """
    dims = (d,) * (parties * copies)
    digits = np.indices(dims).reshape(copies, parties, -1)
    digits[1:] = (digits[0] - digits[1:]) % d
    return np.ravel_multi_index(digits.reshape(len(dims), -1), dims)


def _bilateral_qft(d: int, copies: int) -> np.ndarray:
    """kron of (QFT on A, conjugate QFT on B) over the given copies."""
    Q = qft_matrix(d)
    single = np.kron(Q, Q.conj())
    out = single
    for _ in range(copies - 1):
        out = np.kron(out, single)
    return out


def _fourier_conjugate(rho: np.ndarray, d: int, pairs: int) -> np.ndarray:
    """B rho B^dagger for B = _bilateral_qft(d, pairs), one copy at a time.

    Each pass multiplies the leading copy axis (size d**2) by kron(Q, Q*)
    on the row side or its conjugate on the column side, then rotates that
    axis to the back; after 2 * pairs passes the axis order is restored.
    That costs d**(4 * pairs + 2) operations instead of d**(6 * pairs).
    """
    single = _bilateral_qft(d, 1)
    size = d * d
    out = rho
    for M in (single,) * pairs + (single.conj(),) * pairs:
        out = (M @ out.reshape(size, -1)).T
    return out.reshape(rho.shape)


def _gated(state: DenseState, variant: str) -> np.ndarray:
    """Validate a round's variant against the state; return rho after its gates.

    The gates are the forward bilateral Fourier transform on every copy
    (P2 only), then the bilateral controlled-difference gates from copy 1.
    """
    d, pairs = state.d, state.pairs
    _check_pair_limit(d, pairs)
    if variant not in VARIANT_PAIRS:
        raise ValueError(f"unknown variant {variant!r}")
    needed = VARIANT_PAIRS[variant]
    if pairs != needed:
        raise ValueError(f"variant {variant} needs {needed} pairs, got {pairs}")
    state._check_shape()
    rho = state.rho
    if variant == "P2":
        rho = _fourier_conjugate(rho, d, pairs)
    perm = _gxor_permutation(d, pairs)
    return rho[np.ix_(perm, perm)]


def _postselect_even(
    rho: np.ndarray, d: int, pairs: int, classes: tuple[int, ...]
) -> tuple[np.ndarray, float]:
    """Project measured copies onto outcome-difference classes and trace them out.

    ``classes`` gives, per target copy (copies 2..pairs), the required
    value of (A outcome - B outcome) mod d.  Returns the unnormalized
    kept-pair density matrix and its trace (the branch probability).
    """
    n = 2 * pairs
    T = rho.reshape((d,) * (2 * n))
    kept = np.zeros((d, d, d, d), dtype=complex)
    # Sum over all A-side outcomes of the measured copies.
    for outcome in np.ndindex(*((d,) * (pairs - 1))):
        sl = [slice(None)] * (2 * n)
        for copy, (z, c) in enumerate(zip(outcome, classes), start=1):
            zb = (z - c) % d
            sl[2 * copy] = z
            sl[2 * copy + 1] = zb
            sl[n + 2 * copy] = z
            sl[n + 2 * copy + 1] = zb
        kept += T[tuple(sl)]
    sigma = kept.reshape(d * d, d * d)
    prob = float(np.trace(sigma).real)
    return sigma, prob


def _extract_coefficients(sigma: np.ndarray, d: int) -> np.ndarray:
    """Diagonal of sigma in the maximally entangled basis, as a d x d matrix."""
    B = bell_basis(d)
    diag = np.einsum("ij,jk,ki->i", B.conj().T, sigma, B).real
    return diag.reshape(d, d)


def simulate_recurrence_step(
    state: DenseState, variant: str
) -> tuple[CoeffMatrix, float]:
    """Run one purification round as explicit quantum mechanics.

    variant "P1": bilateral controlled-difference gates from copy 1 onto
    the other copies, computational-basis measurement of the target
    copies, postselection on equal outcomes within each copy.
    variant "P2": the same circuit sandwiched between bilateral Fourier
    transforms — the forward transform on every copy going in, and the
    inverse transform on the kept copy coming out.  (The forward
    transform carries a negation of the outgoing amplitude index along
    with the index swap; undoing it with the inverse on the way out is
    what makes the round act as an exact transpose conjugation of the
    two-copy map.)  variant "THREE_COPY": the P1 circuit on three copies.

    Returns the kept copy's weight matrix and the branch probability.
    """
    d, pairs = state.d, state.pairs
    rho = _gated(state, variant)
    sigma, prob = _postselect_even(rho, d, pairs, (0,) * (pairs - 1))
    if prob <= 0.0:
        raise ValueError("postselected branch has zero probability")
    if variant == "P2":
        bq1 = _bilateral_qft(d, 1)
        sigma = bq1.conj().T @ sigma @ bq1
    return CoeffMatrix(_extract_coefficients(sigma, d) / prob), prob


def outcome_class_probabilities(state: DenseState, variant: str) -> np.ndarray:
    """Branch probabilities over all outcome-difference classes.

    Shape (d,) for two-pair variants, (d, d) for the three-copy one; the
    entries sum to 1.
    """
    d, pairs = state.d, state.pairs
    rho = _gated(state, variant)
    shape = (d,) * (pairs - 1)
    probs = np.empty(shape)
    for classes in np.ndindex(*shape):
        probs[classes] = _postselect_even(rho, d, pairs, classes)[1]
    return probs


def _pauli_sum(rho: np.ndarray, d: int, gate) -> np.ndarray:
    """Sum of g rho g^dagger over the d**2 Paulis P, with g = gate(P)."""
    acc = np.zeros_like(rho)
    for k in range(d):
        for j in range(d):
            g = gate(pauli_matrix(d, k, j))
            acc += g @ rho @ g.conj().T
    return acc


def depolarize_oracle(state: CoeffMatrix, retention: float) -> CoeffMatrix:
    """One-sided uniform Pauli noise as an explicit Kraus sum.

    Applies sum over the d**2 Pauli branches on qudit B of a single pair
    and re-extracts the diagonal weights.  Matches the coefficient-level
    :func:`quditpure.states.depolarize_channel` exactly.
    """
    check_unit_interval(retention, "retention")
    d = state.d
    rho = bell_diagonal_density(state)
    eye = np.eye(d)
    acc = _pauli_sum(rho, d, lambda P: np.kron(eye, P))
    mixed = retention * rho + (1.0 - retention) / (d * d) * acc
    return CoeffMatrix(_extract_coefficients(mixed, d))


def verify_depolarization_identity(d: int, trials: int = 5, seed: int = 0) -> float:
    """Check that the correlated-Pauli twirl removes all coherences.

    Draws random two-qudit density matrices, averages the conjugation by
    (Pauli on A) tensor (conjugate Pauli on B) over all d**2 Pauli
    labels, and transforms to the maximally entangled basis.  Raises if
    any diagonal entry moved by more than 1e-10; returns the largest
    off-diagonal magnitude after the twirl (should be ~0).
    """
    d = _check_pair_limit(d, 2)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    B = bell_basis(d)
    size = d * d
    worst_off = 0.0
    for _ in range(int(trials)):
        G = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        rho = G @ G.conj().T
        rho /= np.trace(rho).real
        before = _extract_coefficients(rho, d).reshape(-1)
        acc = _pauli_sum(rho, d, lambda P: np.kron(P, P.conj()))
        acc /= d * d
        C = B.conj().T @ acc @ B
        after = np.diag(C).real
        if np.abs(after - before).max() > 1e-10:
            raise ValueError("twirl moved a diagonal weight; conventions are broken")
        off = np.abs(C - np.diag(np.diag(C))).max()
        worst_off = max(worst_off, float(off))
    return worst_off


def ghz_pair_index_map(
    control: tuple[int, tuple[int, ...]],
    target: tuple[int, tuple[int, ...]],
    d: int,
) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
    """Label action of the amplitude-accumulating trilateral gate.

    (m, ls), (k, is) -> (m + k, ls), (-k, ls + is)   componentwise mod d.

    The plain trilateral controlled-difference gate produces amplitude
    differences instead of sums; flipping the sign of the incoming target
    amplitudes (a basis permutation on the target copy) turns the
    differences into the sums above.
    """
    d = check_dimension(d)
    m, c_amps = control
    k, t_amps = target
    if len(c_amps) != len(t_amps):
        raise ValueError("control and target must have the same party count")
    new_control = ((m + k) % d, tuple(int(a) % d for a in c_amps))
    new_target = (
        (-k) % d,
        tuple((int(a) + int(b)) % d for a, b in zip(c_amps, t_amps)),
    )
    return new_control, new_target


def verify_mgxor_index_map(d: int, atol: float = 1e-10) -> bool:
    """Exhaustively validate :func:`ghz_pair_index_map` for three parties.

    Builds the modified gate as (trilateral controlled-difference) after
    (amplitude-sign flip on the target copy), applies it to every pair of
    three-party GHZ basis states, and compares against the predicted
    labels by projector overlap (global phases discarded).  The sign flip
    must act only on the incoming side: flipping on both sides of the
    gate would negate the outgoing amplitude sums as well, which is not
    the accumulation behaviour the map promises.
    """
    d = _check_pair_limit(d, 3)
    N = 3
    size = d**N
    G = ghz_basis(d, N)

    # Amplitude-sign flip on one copy, as a GHZ-basis permutation.
    W = np.zeros((size, size), dtype=complex)
    dims = (d,) * N
    for flat, digits in enumerate(np.ndindex(dims)):
        flipped = (digits[0],) + tuple((-a) % d for a in digits[1:])
        W[:, flat] = G[:, np.ravel_multi_index(flipped, dims)]
    W = W @ G.conj().T

    # Column c * size + t of a product holds the input pair (c, t); the
    # trilateral gate acts on copy-major qudits A1, B1, C1, A2, B2, C2.
    vout = np.kron(G, W @ G)[_gxor_permutation(d, 2, N)]
    labels = [(label[0], label[1:]) for label in np.ndindex(dims)]
    cols = _mapped_columns(labels, lambda c, t: ghz_pair_index_map(c, t, d))
    return bool((_overlap_error(np.kron(G, G)[:, cols], vout) <= atol).all())


def _mapped_columns(labels: list, pair_map) -> np.ndarray:
    """Where ``pair_map`` sends each column of kron(basis, basis).

    ``labels[i]`` names basis column i, so product column i * n + j holds
    the pair (labels[i], labels[j]).  Returns the product column of each
    mapped pair.
    """
    flat = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    return np.array(
        [
            flat[c] * n + flat[t]
            for c, t in itertools.starmap(pair_map, itertools.product(labels, repeat=2))
        ],
        dtype=np.intp,
    )


def _overlap_error(expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per column, | |<expected|actual>| - 1 |: 0 when the states agree up to phase."""
    return np.abs(np.abs(np.vecdot(expected, actual, axis=0)) - 1.0)


def verify_bell_index_maps(d: int) -> dict[str, float]:
    """Max projector deviation of the label maps from unitary conjugation.

    Checks the bilateral controlled-difference gate, the bilateral
    Fourier transform, and one-sided Pauli errors on every basis state
    (pair) for the given dimension.  Values should be ~1e-15.

    The Fourier check targets the map the local unitary actually
    realizes: (phase, amplitude) -> (amplitude, -phase).  A bare index
    swap is impossible for any local gate once d > 2 — local relabelings
    of this basis act as determinant-one maps on the index pair, while a
    bare swap has determinant minus one — so the exact action carries a
    negation of the outgoing amplitude index.  ``bqft_index_map`` keeps
    the plain swap: the negation cancels over a full phase-purifying
    round (forward transform in, inverse transform out) and no protocol
    quantity distinguishes a weight matrix from its index-negated twin.
    For d = 2 the two maps coincide.
    """
    d = _check_pair_limit(d, 2)
    devs = {"bgxor": 0.0, "bqft": 0.0, "pauli": 0.0}

    # Column c * d**2 + t of a product holds the input pair (c, t).
    B = bell_basis(d)
    BB = np.kron(B, B)
    vout = BB[_gxor_permutation(d, 2)]
    labels = list(np.ndindex(d, d))
    cols = _mapped_columns(labels, lambda c, t: bgxor_index_map(c, t, d))
    devs["bgxor"] = float(_overlap_error(BB[:, cols], vout).max())

    BQ = _bilateral_qft(d, 1)
    for m in range(d):
        for n in range(d):
            vout = BQ @ bell_vector(d, m, n)
            swapped = bqft_index_map((m, n))
            expected = bell_vector(d, swapped[0], (-swapped[1]) % d)
            devs["bqft"] = max(devs["bqft"], abs(abs(np.vdot(expected, vout)) - 1.0))

    eye = np.eye(d)
    for a, b in labels:
        vout = np.kron(eye, pauli_matrix(d, a, b)) @ B
        cols = [m * d + n for m, n in (pauli_on_bell(a, b, label, d) for label in labels)]
        devs["pauli"] = max(devs["pauli"], float(_overlap_error(B[:, cols], vout).max()))
    return devs


def recurrence_map_deviation(
    d: int, variant: str, trials: int = 20, seed: int | np.random.SeedSequence = 12345
) -> tuple[float, float]:
    """Compare a coefficient-level map against the dense simulation.

    Runs ``trials`` random Bell-diagonal states through both routes and
    returns (largest weight deviation, largest probability deviation).
    """
    from .recurrence import p1_map, p2_map, three_copy_map
    from .states import random_state

    if variant not in VARIANT_PAIRS:
        raise ValueError(f"unknown variant {variant!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    fast_map = {"P1": p1_map, "P2": p2_map, "THREE_COPY": three_copy_map}[variant]
    pairs = VARIANT_PAIRS[variant]
    _check_pair_limit(d, pairs)
    rng = np.random.default_rng(seed)
    worst_state = 0.0
    worst_prob = 0.0
    for _ in range(int(trials)):
        state = random_state(d, rng)
        dense = build_bell_pairs(state, pairs)
        ref_state, ref_prob = simulate_recurrence_step(dense, variant)
        fast_state, fast_prob = fast_map(state)
        worst_state = max(
            worst_state, float(np.abs(ref_state.alpha - fast_state.alpha).max())
        )
        worst_prob = max(worst_prob, abs(ref_prob - fast_prob))
    return worst_state, worst_prob


def run_checks(d_values: list[int], trials: int, seed: int) -> dict:
    """Every check the limits allow at each d; the k-th variant is seeded by
    SeedSequence([seed, k]), so no two variants see the same states.
    The report opens with the validated d list, the seed and the trials.
    ``mgxor_index_map_ok`` is None if no d allows the GHZ gate check, and
    ``pass`` covers only the checks that ran."""
    d_values = [_check_pair_limit(d, 2) for d in d_values]
    checks: dict[str, float] = {}
    mgxor_ok = None
    for d in d_values:
        for name, dev in verify_bell_index_maps(d).items():
            checks[f"{name}_index_map_d{d}"] = dev
        for k, (variant, pairs) in enumerate(VARIANT_PAIRS.items()):
            if d <= PAIR_LIMITS[pairs]:
                state_dev, prob_dev = recurrence_map_deviation(
                    d, variant, trials=trials, seed=np.random.SeedSequence([seed, k])
                )
                checks[f"{variant}_state_d{d}"] = state_dev
                checks[f"{variant}_prob_d{d}"] = prob_dev
        checks[f"twirl_offdiag_d{d}"] = verify_depolarization_identity(d, trials=3, seed=seed)
        if d <= PAIR_LIMITS[3]:
            mgxor_ok = mgxor_ok is not False and verify_mgxor_index_map(d)
    worst = max(checks.values())
    return {
        "d": d_values,
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "mgxor_index_map_ok": mgxor_ok,
        "max_abs_deviation": worst,
        "tolerance": CHECK_TOL,
        "pass": bool(mgxor_ok is not False and worst < CHECK_TOL),
    }
