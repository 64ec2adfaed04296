"""Modular index arithmetic for maximally entangled qudit basis states.

A maximally entangled basis state of two d-level systems is labelled by a
pair of integers ``(phase, amplitude)``, each in ``[0, d)``.  The local
Clifford operations used by purification circuits permute these labels
(global phases drop out for the diagonal ensembles handled by this
package), so whole protocols can be tracked exactly on index data.  The
dense simulator in :mod:`quditpure.oracle` pins every map defined here
against literal unitary conjugation.
"""

from __future__ import annotations

import math
import numbers

BellIndex = tuple[int, int]

__all__ = [
    "BellIndex",
    "bgxor_index_map",
    "bqft_index_map",
    "as_integer",
    "check_bell_index",
    "check_dimension",
    "check_unit_interval",
    "is_prime",
    "pauli_on_bell",
    "primes_in",
    "require_prime",
]


def check_dimension(d: int) -> int:
    """Validate a qudit dimension and return it as a plain int."""
    if type(d) is not int:
        d = as_integer(d, "qudit dimension")
    if d < 2:
        raise ValueError(f"qudit dimension must be at least 2, got {d}")
    return d


def as_integer(value, name: str) -> int:
    """``value`` as a plain int; anything but an integral number raises ValueError."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == int(value):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_unit_interval(value, name: str):
    """Return ``value`` if it is a number in [0, 1]; NaN, bools and other
    non-numbers raise ValueError."""
    try:
        if type(value) is not bool and 0.0 <= value <= 1.0:
            return value
    except TypeError:
        pass
    raise ValueError(f"{name} must be in [0, 1], got {value}")


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    n = int(n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def require_prime(d: int) -> int:
    """Validate a dimension that must additionally be prime.

    Hashing-style protocols rely on index strings living in a finite
    field, so composite dimensions (prime powers included) are rejected.
    """
    d = check_dimension(d)
    if not is_prime(d):
        raise ValueError(f"dimension must be prime for this operation, got {d}")
    return d


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in the inclusive range [lo, hi]."""
    return [n for n in range(max(2, lo), hi + 1) if is_prime(n)]


def check_bell_index(index: BellIndex, d: int) -> BellIndex:
    """Validate that both components of a basis label lie in [0, d)."""
    phase, amplitude = index
    if not (0 <= phase < d and 0 <= amplitude < d):
        raise ValueError(f"basis index {index!r} out of range for dimension {d}")
    return int(phase), int(amplitude)


def bgxor_index_map(
    control: BellIndex, target: BellIndex, d: int
) -> tuple[BellIndex, BellIndex]:
    """Index action of the bilateral controlled-difference (GXOR) gate.

    Both parties apply the controlled gate from their control-pair qudit
    onto their target-pair qudit.  The control pair picks up the target's
    phase index while the target pair keeps the difference of amplitude
    indices::

        (k1, j1), (k2, j2) -> (k1 + k2, j1), (-k2, j1 - j2)     (mod d)

    The map is a bijection on pairs of labels, which is what lets the
    recurrence protocols infer the control pair's amplitude error from a
    measurement of the target pair alone.
    """
    d = check_dimension(d)
    k1, j1 = check_bell_index(control, d)
    k2, j2 = check_bell_index(target, d)
    return ((k1 + k2) % d, j1), ((-k2) % d, (j1 - j2) % d)


def bqft_index_map(index: BellIndex) -> BellIndex:
    """Swap phase and amplitude labels.

    Applying the Fourier transform on one side of the pair and its
    conjugate on the other exchanges the roles of phase and amplitude
    errors, turning an amplitude-purifying circuit into a phase-purifying
    one.
    """
    phase, amplitude = index
    return amplitude, phase


def pauli_on_bell(a: int, b: int, index: BellIndex, d: int) -> BellIndex:
    """Shift a basis label by a one-sided generalized Pauli error.

    A Pauli operator with phase power ``a`` and cyclic-shift power ``b``
    acting on one qudit of the pair sends the label ``(m, n)`` to
    ``(m + a, n + b)`` modulo d.  Ranging over all (a, b) reaches every
    label exactly once; uniform Pauli noise is therefore exactly
    depolarizing at the coefficient level.
    """
    d = check_dimension(d)
    m, n = index
    return (int(m) + int(a)) % d, (int(n) + int(b)) % d
