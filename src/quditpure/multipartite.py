"""Hashing of N-party GHZ-diagonal states.

An N-party GHZ-basis state is labelled by one phase index and N - 1
amplitude indices, all in [0, d).  The multipartite hashing protocol
pins down each index string separately: random-parity rounds for the
phase string and for every amplitude string, paid for out of the block.
The yield per input copy is therefore

    Y = 1 - H(phase index) - max_i H(amplitude index i)

in base-d entropy of the single-copy index marginals (the amplitude
strings are measured jointly, so only the worst one is charged).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .hashing import base_d_entropy
from .indices import (
    MAX_INDEX, check_count, check_dimension, check_unit_interval, checked_power,
    require_prime,
)
from .states import checked_weights, json_weights

__all__ = [
    "GhzCoeffs",
    "ghz_from_json",
    "ghz_isotropic",
    "ghz_to_json",
    "index_correlation",
    "index_entropies",
    "isotropic_yield_formula",
    "multipartite_yield",
]

class GhzCoeffs:
    """Diagonal N-party GHZ-basis state as a flat weight vector.

    The flat index is mixed-radix with the phase slowest:
    ``flat = m * d**(N-1) + l_1 * d**(N-2) + ... + l_{N-1}``.
    Entry 0 (all indices zero) is the fidelity.
    """

    __slots__ = ("alpha", "d", "N")

    def __init__(self, d: int, N: int, alpha):
        d = check_dimension(d)
        N = _check_parties(N)
        size = checked_power(d, N)
        a = np.array(alpha, dtype=float).reshape(-1)
        if a.size != size:
            raise ValueError(
                f"weight vector has {a.size} entries, expected d**N = {size}"
            )
        self.alpha = checked_weights(a, "vector")
        self.d = d
        self.N = N

    @property
    def fidelity(self) -> float:
        return float(self.alpha[0])

    def tensor(self) -> np.ndarray:
        """Weights reshaped to one axis per index, phase axis first."""
        return self.alpha.reshape((self.d,) * self.N)

    def __repr__(self) -> str:
        return f"GhzCoeffs(d={self.d}, N={self.N}, F={self.fidelity:.6g})"


# Largest d**N the closed-form yield can hold as a float.
MAX_FLOAT_SIZE = int(sys.float_info.max)


def _check_parties(N) -> int:
    return check_count(N, "party count N", 2)


def _isotropic_size(d: int, N, F: float, limit: int) -> int:
    """d**N, once N, d**N <= limit and the isotropic fidelity range
    [1/d**N, 1] are checked."""
    size = checked_power(d, _check_parties(N), limit)
    if not 1.0 / size <= F <= 1.0:
        raise ValueError(f"fidelity must be in [1/d**N, 1], got {F}")
    return size


def ghz_isotropic(d: int, N: int, F: float) -> GhzCoeffs:
    """GHZ-diagonal state with weight F on the target and a uniform tail."""
    d = check_dimension(d)
    size = _isotropic_size(d, N, F, MAX_INDEX)
    a = np.full(size, (1.0 - F) / (size - 1))
    a[0] = F
    return GhzCoeffs(d, N, a)


def index_entropies(state: GhzCoeffs) -> tuple[float, float]:
    """Base-d entropies of the single-copy index marginals.

    Returns (phase entropy, largest amplitude entropy).
    """
    h = _marginal_entropies(state)
    return h[0], max(h[1:])


def _marginal_entropies(state: GhzCoeffs) -> list[float]:
    """Base-d entropy of each index's marginal, phase index first."""
    t = state.tensor()
    axes = range(state.N)
    return [
        base_d_entropy(t.sum(axis=tuple(ax for ax in axes if ax != i)), state.d)
        for i in axes
    ]


def index_correlation(state: GhzCoeffs) -> float:
    """Total correlation between the index marginals, in base-d units.

    Zero exactly when the joint weight distribution factorizes over the
    indices.  The yield accounting charges marginal entropies only, so a
    positive value here flags inputs whose indices carry correlations the
    protocol does not exploit.
    """
    joint = base_d_entropy(state.alpha, state.d)
    return max(0.0, sum(_marginal_entropies(state)) - joint)


def multipartite_yield(state: GhzCoeffs) -> float:
    """Asymptotic hashing yield per GHZ-diagonal input copy.

    max(0, 1 - H_phase - max_i H_amp_i), entropies of the single-copy
    index marginals in base d.
    """
    require_prime(state.d)
    h_phase, h_amp = index_entropies(state)
    return max(0.0, 1.0 - h_phase - h_amp)


def isotropic_yield_formula(d: int, N: int, F: float) -> float:
    """Closed-form yield for the isotropic GHZ family.

    Every index marginal of the isotropic state is the same two-valued
    distribution: the index is 0 with probability

        p_a = F + (1 - F) (d**(N-1) - 1) / (d**N - 1)

    and each nonzero value has probability
    p_b = (1 - F) d**(N-1) / (d**N - 1), giving

        Y = 1 + 2 (p_a log_d p_a + (d - 1) p_b log_d p_b)

    clamped at 0.  Matches :func:`multipartite_yield` on
    :func:`ghz_isotropic` inputs.
    """
    d = require_prime(d)
    size = _isotropic_size(d, N, F, MAX_FLOAT_SIZE)
    p_a = F + (1.0 - F) * (d ** (N - 1) - 1.0) / (size - 1.0)
    p_b = (1.0 - F) * d ** (N - 1) / (size - 1.0)
    log_d = math.log(d)
    total = p_a * math.log(p_a) / log_d if p_a > 0.0 else 0.0
    if p_b > 0.0:
        total += (d - 1.0) * p_b * math.log(p_b) / log_d
    return max(0.0, 1.0 + 2.0 * total)


def ghz_to_json(state: GhzCoeffs) -> dict:
    return {"d": state.d, "N": state.N, "alpha": state.alpha.tolist()}


def ghz_from_json(obj: dict) -> GhzCoeffs:
    """Parse a GHZ-diagonal state description.

    Accepts an explicit flat vector ``{"d": 2, "N": 3, "alpha": [...]}``
    (mixed-radix layout, phase index slowest) or isotropic shorthand
    ``{"d": 2, "N": 3, "preset": "ghz_isotropic", "F": 0.9}``.
    """
    if not isinstance(obj, dict):
        raise ValueError("state description must be a JSON object")
    for key in ("d", "N"):
        if key not in obj:
            raise ValueError(f"state description is missing {key!r}")
    d = check_dimension(obj["d"])
    N = _check_parties(obj["N"])
    if "alpha" in obj:
        return GhzCoeffs(d, N, json_weights(obj["alpha"]))
    if obj.get("preset") == "ghz_isotropic":
        return ghz_isotropic(d, N, check_unit_interval(obj.get("F", 1.0), "fidelity"))
    raise ValueError("state description needs 'alpha' or preset 'ghz_isotropic'")
