"""Modular index arithmetic for maximally entangled qudit basis states.

A maximally entangled basis state of two d-level systems is labelled by a
pair of integers ``(phase, amplitude)``, each in ``[0, d)``.  The local
Clifford operations used by purification circuits permute these labels
(global phases drop out for the diagonal ensembles handled by this
package), so whole protocols can be tracked exactly on index data.  The
dense simulator in :mod:`quditpure.oracle` pins every map defined here
against literal unitary conjugation.  The argument checks that the
other modules share live here too, and the two-CPU runner of the Lemma 1
Monte Carlo.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
import threading

BellIndex = tuple[int, int]

__all__ = [
    "BellIndex",
    "MAX_INDEX",
    "PRIMALITY_BOUND",
    "bgxor_index_map",
    "bqft_index_map",
    "as_integer",
    "check_bell_index",
    "check_count",
    "check_dimension",
    "checked_power",
    "check_unit_interval",
    "is_prime",
    "pauli_on_bell",
    "primes_in",
    "require_prime",
]


# Largest array size (numpy's intp is Py_ssize_t).  Routes that build an
# array from d bound its size by this; scalar routes take any d.
MAX_INDEX = sys.maxsize


def checked_power(d: int, n: int, limit: int = MAX_INDEX) -> int:
    """d**n for a checked dimension d and n >= 1, once it is at most limit.
    As d >= 2, an n at or past limit's bit length fails before d**n is
    computed."""
    if n >= limit.bit_length() or d**n > limit:
        raise ValueError(f"d**{n} must be at most {limit:.6g}, got d={d}")
    return d**n


def check_dimension(d: int) -> int:
    """Validate a qudit dimension and return it as a plain int."""
    if type(d) is int and d >= 2:
        return d
    return check_count(d, "qudit dimension", 2)


def check_count(value, name: str, least: int) -> int:
    """``value`` as a plain int (see :func:`as_integer`), once it is at least ``least``."""
    if type(value) is not int:
        value = as_integer(value, name)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _on_two_cpus(first, second, name: str) -> bool:
    """Run ``first()`` on a helper thread called ``name`` while the caller
    runs ``second()``, when the process may run on two CPUs or more, and
    return True; on one CPU run neither and return False.  The helper is
    joined before the call returns, also when ``second`` raises, and its
    own exception, if any, is raised here after the join.  A helper that
    cannot start (``RuntimeError``) leaves both to the caller, in order.
    """
    if _cpu_count() < 2:
        return False
    failure = []

    def helper():
        try:
            first()
        except BaseException as exc:  # raised in the caller, after the join
            failure.append(exc)

    worker = threading.Thread(target=helper, name=name)
    try:
        worker.start()
    except RuntimeError:  # no thread to be had: the caller runs both
        first()
        second()
        return True
    try:
        second()
    finally:
        worker.join()
    if failure:
        raise failure[0]
    return True


# Miller-Rabin with the prime bases up to 41 is exact below this bound:
# it is the least composite that passes all thirteen (Sorenson and Webster,
# 2015).  is_prime decides nothing at or above it.
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)
# Below 43**2, the numbers with no prime factor up to 41 are the primes.
_PRIMES_BELOW_1849 = frozenset(_SMALL_PRIMES).union(
    n for n in range(43, 43 * 43) if math.gcd(n, _SMALL_PRIMORIAL) == 1
)


def is_prime(n: int) -> bool:
    """Deterministic primality check for n < PRIMALITY_BOUND: trial
    division by the primes up to 41, then Miller-Rabin with those primes
    as bases.  Larger n and non-integral n raise ValueError."""
    if type(n) is not int:
        n = as_integer(n, "n")
    if n < 43 * 43:
        return n in _PRIMES_BELOW_1849
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality is decided only below {PRIMALITY_BOUND}, got {n}")
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    # n - 1 = odd * 2**s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """All primes in the inclusive range [lo, hi]; non-integral bounds raise ValueError."""
    lo, hi = as_integer(lo, "lower bound"), as_integer(hi, "upper bound")
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
    m, n = check_bell_index(index, d)
    return (m + int(a)) % d, (n + int(b)) % d
