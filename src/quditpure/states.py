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

from .indices import check_dimension, check_unit_interval

__all__ = [
    "CoeffMatrix",
    "PRESET_KINDS",
    "StatePreset",
    "depolarize_channel",
    "fidelity",
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
    to 0; returns the weights read-only."""
    if a.min() < NEG_TOL:
        raise ValueError(f"negative weight {a.min():g} in state {kind}")
    a = np.maximum(a, 0.0)
    drift = abs(a.sum() - 1.0)
    # Written so that a NaN or infinite sum fails too: NaN compares
    # False both ways, and a.min() above is NaN when any weight is.
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
    x, z, w = preset_weights(preset.kind, d, preset.F, preset.x_weight)
    a = np.full((d, d), w)
    a[0, 1:] = x
    a[1:, 0] = z
    a[0, 0] = preset.F
    return CoeffMatrix(a)


def preset_weights(kind: str, d: int, F, x_weight: float):
    """Weights (x, z, w) of a preset at fidelity F, a float or an array:
    x on the rest of row 0, z on the rest of column 0, w elsewhere."""
    rest = 1.0 - F
    if kind == "isotropic":
        x = rest / (d * d - 1)
        return x, x, x
    share = {"x_only": 1.0, "z_only": 0.0}.get(kind, x_weight)
    return share * rest / (d - 1), (1.0 - share) * rest / (d - 1), 0.0 * rest


def fidelity(state: CoeffMatrix) -> float:
    """Weight of the target basis state, entry [0, 0]."""
    return state.fidelity


def depolarize_channel(state: CoeffMatrix, retention: float) -> CoeffMatrix:
    """Mix a state with the maximally mixed one.

    With probability ``retention`` the state is untouched, otherwise it is
    replaced by the uniform weight matrix.  Acting with independent
    single-qudit depolarizing noise of parameter q on each qudit of the
    pair is exactly this channel with retention q**2, because the
    non-identity Pauli branches shift the basis labels uniformly.
    """
    return CoeffMatrix(depolarized(state.alpha, retention))


def depolarized(alpha: np.ndarray, q: float, qudits: int = 1) -> np.ndarray:
    """Bare weights after local noise of retention q on 1 or 2 qudits of the pair."""
    check_unit_interval(q, "retention")
    r = q * q if qudits == 2 else q
    return r * alpha + (1.0 - r) / alpha.size


def twirl_isotropic(state: CoeffMatrix) -> CoeffMatrix:
    """Symmetrize all error weights, keeping the fidelity fixed.

    The result is the isotropic state with the same entry [0, 0]; the
    other d**2 - 1 weights are averaged into a single value.
    """
    return CoeffMatrix(isotropic(state.d, state.fidelity))


def isotropic(d: int, F: float) -> np.ndarray:
    """Weight array of the isotropic state of fidelity F."""
    a = np.full((d, d), (1.0 - F) / (d * d - 1))
    a[0, 0] = F
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
        preset = StatePreset(obj["preset"], obj.get("F", 1.0), obj.get("x_weight", 0.25))
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
