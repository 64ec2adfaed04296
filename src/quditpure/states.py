"""Bell-diagonal two-qudit states and coefficient-level noise channels.

States are stored as the d x d matrix of weights over the maximally
entangled basis: entry ``[k, j]`` multiplies the projector of the basis
state with phase index k and amplitude index j, and entry ``[0, 0]`` is
the fidelity.  Off-diagonal density-matrix elements are never
represented.  A randomized correlated-Pauli twirl removes them from any
physical input without touching these weights, so working with the
diagonal alone loses nothing; :func:`quditpure.oracle.verify_depolarization_identity`
demonstrates this on explicit density matrices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .indices import check_dimension, check_unit_interval, checked_power

__all__ = [
    "CoeffMatrix",
    "PRESET_KINDS",
    "StatePreset",
    "depolarize_channel",
    "make_preset",
    "random_state",
    "read_state_file",
    "state_from_json",
    "state_to_json",
    "twirl_isotropic",
]

# Weight-sum bookkeeping policy: sums within SUM_TOL of 1 are accepted
# verbatim, drift up to RENORM_TOL is silently renormalized, anything
# beyond that is treated as a corrupted state.
SUM_TOL = 1e-12
RENORM_TOL = 1e-9
NEG_TOL = -1e-12

PRESET_KINDS = ("isotropic", "x_only", "z_only", "xz_mixture")


def checked_weights(a: np.ndarray, kind: str) -> np.ndarray:
    """Apply the policy above to the fresh float array ``a`` of a state
    ``kind`` ("matrix" or "vector"), clamping negatives down to NEG_TOL
    to 0; returns the weights read-only.  No weight it returns is -0.0."""
    least = float(np.minimum.reduce(a, axis=None))
    if least < NEG_TOL:
        raise ValueError(f"negative weight {least:g} in state {kind}")
    if least <= 0.0:  # a zero may be -0.0, which the clamp makes +0.0
        np.maximum(a, 0.0, out=a)
    drift = abs(float(np.add.reduce(a, axis=None)) - 1.0)
    # Written so that a NaN or infinite sum fails too: NaN compares
    # False both ways, and ``least`` above is NaN when any weight is.
    if not drift <= RENORM_TOL:
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite weight in state {kind}")
        raise ValueError(
            f"weights sum to {a.sum():.12g}, beyond renormalization tolerance"
        )
    if drift > SUM_TOL:
        a = a / a.sum()
    a.setflags(write=False)
    return a


class CoeffMatrix:
    """Immutable Bell-diagonal state given by its basis-weight matrix."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        a = np.array(alpha, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {a.shape}")
        check_dimension(a.shape[0])
        self.alpha = checked_weights(a, "matrix")

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "CoeffMatrix":
        """The state of a round's fresh d x d float output ``a``, which owns its
        data: no shape check and no copy; the weights get :func:`checked_weights`.
        A P2 round and DEJMPS store the transpose of the kernel's C-ordered result,
        which the normalizing division writes Fortran-ordered; kernels read either."""
        state = cls.__new__(cls)
        state.alpha = checked_weights(a, "matrix")
        return state

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    @property
    def fidelity(self) -> float:
        return float(self.alpha[0, 0])

    def transpose(self) -> "CoeffMatrix":
        """Exchange phase and amplitude indices (bilateral Fourier transform)."""
        return CoeffMatrix(self.alpha.T)

    def __repr__(self) -> str:
        return f"CoeffMatrix(d={self.d}, F={self.fidelity:.6g})"


@dataclass(frozen=True)
class StatePreset:
    """Named family of Bell-diagonal states used as protocol inputs.

    kind:
        "isotropic"   target weight F, every other weight equal
        "x_only"      amplitude errors only (weights spread along row 0)
        "z_only"      phase errors only (weights spread along column 0)
        "xz_mixture"  both kinds, x_weight of the error mass on amplitudes
    """

    kind: str
    F: float
    x_weight: float = 0.25

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise ValueError(f"unknown preset kind {self.kind!r}")
        check_unit_interval(self.F, "preset fidelity")
        check_unit_interval(self.x_weight, "x_weight")


def make_preset(preset: StatePreset, d: int) -> CoeffMatrix:
    """Build the coefficient matrix for a preset at dimension d."""
    d = check_dimension(d)
    checked_power(d, 2)  # the d x d matrix must be an array size
    block = preset_block(preset.kind, d, preset.F, preset.x_weight)
    return CoeffMatrix(block.repeat((1, d - 1), axis=0).repeat((1, d - 1), axis=1))


def preset_block(kind: str, d: int, F, x_weight: float) -> np.ndarray:
    """The 2 x 2 block ``[[F, x], [z, w]]`` of a preset at fidelity F, a
    float or an array (lanes on a trailing axis): x on the rest of row 0,
    z on the rest of column 0, w elsewhere.  The matrix's top-left corner."""
    rest = 1.0 - F
    if kind == "isotropic":
        x = rest / (d * d - 1)
        return np.array(((F, x), (x, x)))
    share = {"x_only": 1.0, "z_only": 0.0}.get(kind, x_weight)
    x, z = share * rest / (d - 1), (1.0 - share) * rest / (d - 1)
    return np.array(((F, x), (z, 0.0 * rest)))


def depolarize_channel(state: CoeffMatrix, retention: float) -> CoeffMatrix:
    """Mix a state with the maximally mixed one.

    With probability ``retention`` the state is untouched, otherwise it is
    replaced by the uniform weight matrix.  Acting with independent
    single-qudit depolarizing noise of parameter q on each qudit of the
    pair is exactly this channel with retention q**2, because the
    non-identity Pauli branches shift the basis labels uniformly.
    """
    check_unit_interval(retention, "retention")
    return CoeffMatrix(depolarized(state.alpha, retention, state.d))


def depolarized(alpha: np.ndarray, r: float, d: int) -> np.ndarray:
    """Bare weights after depolarizing of pair retention r (q**2 for local
    noise q on both qudits), for a d x d matrix or a preset block.  The
    caller checks r."""
    return r * alpha + (1.0 - r) / (d * d)


def twirl_isotropic(state: CoeffMatrix) -> CoeffMatrix:
    """Symmetrize all error weights, keeping the fidelity fixed.

    The result is the isotropic state with the same entry [0, 0]; the
    other d**2 - 1 weights are averaged into a single value.
    """
    return CoeffMatrix(twirled(state.alpha, state.d * state.d - 1))


def twirled(alpha: np.ndarray, errors) -> np.ndarray:
    """Bare weights of the isotropic state with alpha's fidelity, in alpha's
    layout: a d x d matrix or a preset block, ``errors`` = d**2 - 1 (or lanes of it)."""
    a = np.full(alpha.shape, (1.0 - alpha[0, 0]) / errors)
    a[0, 0] = alpha[0, 0]
    return a


def random_state(d: int, rng: np.random.Generator) -> CoeffMatrix:
    """Sample a weight matrix uniformly from the probability simplex."""
    d = check_dimension(d)
    return CoeffMatrix(rng.dirichlet(np.ones(d * d)).reshape(d, d))


def state_to_json(state: CoeffMatrix) -> dict:
    """JSON-ready description of a state, row-major weight matrix."""
    return {"d": state.d, "alpha": state.alpha.tolist()}


def state_from_json(obj: dict) -> CoeffMatrix:
    """Parse a state description.

    Accepts either an explicit matrix ``{"d": 2, "alpha": [[...], ...]}``
    or preset shorthand ``{"d": 2, "preset": "isotropic", "F": 0.8}`` with
    an optional ``"x_weight"``.
    """
    if not isinstance(obj, dict):
        raise ValueError("state description must be a JSON object")
    if "d" not in obj:
        raise ValueError("state description is missing 'd'")
    d = check_dimension(obj["d"])
    if "alpha" in obj:
        a = json_weights(obj["alpha"])
        if a.shape != (d, d):
            raise ValueError(
                f"alpha has shape {a.shape}, expected ({d}, {d}) for d={d}"
            )
        return CoeffMatrix(a)
    if "preset" in obj:
        x_weight = obj.get("x_weight", StatePreset.x_weight)
        preset = StatePreset(obj["preset"], obj.get("F", 1.0), x_weight)
        return make_preset(preset, d)
    raise ValueError("state description needs either 'alpha' or 'preset'")


def json_weights(value) -> np.ndarray:
    """The ``"alpha"`` of a state description as a float array."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise ValueError("'alpha' must be an array of numbers")
    return a.astype(float)


def read_json_file(path: str):
    """Parse a JSON state file; invalid JSON raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in state file {path}: {exc}") from exc


def read_state_file(path: str) -> CoeffMatrix:
    """Load a state from a JSON file (see :func:`state_from_json`)."""
    return state_from_json(read_json_file(path))
