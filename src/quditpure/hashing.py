"""Hashing purification: yields, finite-size bounds, thresholds.

Hashing consumes a large block of n Bell-diagonal pairs, measures random
subset-sum parities of the block's index strings to pin down the error
pattern, and keeps the rest.  Asymptotically the yield per input pair is
1 - S, where S is the base-d von Neumann entropy of the weight matrix.
The finite-size accounting here follows the classic recipe: spend
r = ceil(n (S + 2 delta)) pairs on parity rounds, bound the probability
of an atypical block with a Bennett-type concentration inequality, and
bound the probability that two index strings collide on every parity by
d**(-n delta).  Everything requires prime d so that index strings live
in a finite field and random parities are uniform (see
:func:`lemma1_montecarlo` for a direct Monte Carlo check of that fact).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .indices import (
    _on_two_cpus, as_integer, check_count, check_dimension, check_unit_interval, require_prime,
)
from .states import CoeffMatrix

__all__ = [
    "asymptotic_yield",
    "base_d_entropy",
    "entropy_based",
    "finite_size_columns",
    "finite_size_report",
    "isotropic_entropy",
    "lemma1_montecarlo",
    "min_fidelity",
    "noisy_thresholds",
    "universal_threshold",
]


def entropy_based(state: CoeffMatrix) -> float:
    """Base-d von Neumann entropy of a Bell-diagonal state.

    For diagonal states this is the Shannon entropy of the weight matrix;
    it ranges from 0 (a basis state) to 2 (the maximally mixed state).
    """
    return base_d_entropy(state.alpha, state.d)


def base_d_entropy(p: np.ndarray, d: int) -> float:
    """Shannon entropy of the weights ``p``, in base d."""
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum() / math.log(d))


def isotropic_entropy(d: int, F: float) -> float:
    """Base-d entropy of the isotropic state with fidelity F.

    Scalar route that avoids materializing the weight matrix, so it works
    for very large d.
    """
    d = check_dimension(d)
    check_unit_interval(F, "fidelity")
    tail = (1.0 - F) / (d * d - 1.0)
    s = 0.0
    if F > 0.0:
        s -= F * math.log(F)
    if tail > 0.0:
        s -= (d * d - 1.0) * tail * math.log(tail)
    return s / math.log(d)


def asymptotic_yield(state: CoeffMatrix) -> float:
    """Large-block hashing yield per input pair, max(0, 1 - S)."""
    require_prime(state.d)
    return max(0.0, 1.0 - entropy_based(state))


# hashing --threshold asks for min_fidelity(d) and then noisy_thresholds(d),
# so the last result is kept and d is bisected once.
@functools.lru_cache(maxsize=1)
def min_fidelity(d: int) -> float:
    """Smallest isotropic fidelity with a positive hashing yield.

    Root of 1 - S(F) = 0 on (1/d**2, 1), found by bisection to 1e-9.
    Decreases towards 1/2 as d grows, though only logarithmically.
    """
    d = require_prime(d)
    lo = 1.0 / (d * d) + 1e-15
    hi = 1.0
    # S is 2 at the mixed state and 0 at F = 1, and crosses 1 exactly once.
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if isotropic_entropy(d, mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noisy_thresholds(d: int) -> tuple[float, float]:
    """Worst tolerable source-noise parameters for hashing.

    A pair whose two particles each pass a depolarizing channel with
    per-particle retention p arrives isotropic with fidelity
    F = p**2 + (1 - p**2) / d**2, and a per-particle measurement
    retention q contributes p = q**2.  Inverting at F = min_fidelity(d)
    yields the per-particle thresholds (p_min, q_min = sqrt(p_min)).
    """
    d = require_prime(d)
    F_min = min_fidelity(d)
    pair_retention = (F_min - 1.0 / d**2) / (1.0 - 1.0 / d**2)
    p_min = math.sqrt(pair_retention)
    return p_min, math.sqrt(p_min)


def universal_threshold(d: int) -> float:
    """Per-particle retention below which no protocol can purify.

    An isotropic state of parameter p = q**2 stays entangled only while
    p exceeds 1 / (d + 1); the corresponding retention is

        q_th = ((d - 1) / (d**2 - 1)) ** (1/4) = (d + 1) ** (-1/4),

    which decreases without bound as d grows.
    """
    d = check_dimension(d)
    return ((d - 1.0) / (d * d - 1.0)) ** 0.25


def _libm(fn, *args) -> np.ndarray:
    """``fn`` from :mod:`math`, row by row over the float64 column in
    ``args``; every other argument is a float passed to each call."""
    (column,) = (a for a in args if isinstance(a, np.ndarray))
    rows = (a.tolist() if a is column else itertools.repeat(a) for a in args)
    return np.fromiter(map(fn, *rows), float, column.size)


def _delta_rule(policy, S: float):
    """Parse a delta policy once into a function of the block-size column."""
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        delta = float(policy)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ValueError(f"fixed delta must be finite and positive, got {delta}")
        return lambda n: np.full_like(n, delta)
    if not isinstance(policy, str):
        raise ValueError(f"unrecognized delta policy {policy!r}")
    if policy == "n_to_1":
        return lambda n: 0.5 * ((n - 1.0) / n - S)
    if policy.startswith("fixed:"):
        return _delta_rule(float(policy[len("fixed:"):]), S)
    if policy.startswith("npow:"):
        power = float(policy[len("npow:"):])
        if not (math.isfinite(power) and power < 0.0):
            raise ValueError(f"npow exponent must be finite and negative, got {power}")
        return lambda n: _libm(math.pow, n, power)
    raise ValueError(f"unrecognized delta policy {policy!r}")


def finite_size_report(d: int, n: int, F: float, delta_policy="npow:-0.25") -> dict:
    """One block size of :func:`finite_size_columns`, as a dict of its values."""
    columns = finite_size_columns(d, [n], F, delta_policy)
    return {name: column[0] for name, column in columns.items()}


def finite_size_columns(d: int, ns, F: float, delta_policy="npow:-0.25") -> dict[str, list]:
    """Finite-block accounting for hashing isotropic states, per block size n.

    Uses r = ceil(n (S + 2 delta)) parity rounds, the collision bound
    p2 = d**(-n delta), and a Bennett-type concentration bound

        p1 <= 2 exp(-(n / a) * ((g + delta) ln(1 + delta / g) - delta))

    where a = |log_d((1 - F)/(d**2 - 1))| + S bounds the per-pair
    log-weight and g = Var[log_d weight] / a.  The distillable fraction
    is 1 - S - 2 delta of the block.  Every input is validated, and the
    terms that do not depend on n are computed, before the first row.

    ``delta_policy`` sets the typicality margin delta per block size: a
    finite positive float, "fixed:x", "npow:p" for n**p with finite p < 0,
    or "n_to_1", which solves r = n - 1 (spend all but one pair):
    delta = ((n - 1)/n - S) / 2, non-positive when the entropy is too
    large for that to be feasible (the row is then not feasible).

    Returns one list of Python values per column, one entry per block
    size; ``r`` stays an exact int at any n.  yield, p1_bound and
    F_out_bound are clamped to [0, 1]; yield_raw and F_out_raw =
    1 - p1 - p2 use the unclamped values (p1's bound exceeds 1 on short
    blocks).  p1_bound bounds the probability that the block is atypical,
    p2 the probability that parity rounds fail to isolate the error
    pattern; 1 - p1_bound - p2 lower-bounds the output fidelity.
    feasible is False when the policy gives a non-positive delta (then
    nothing is distilled and yield is 0).

    The arithmetic, ceil and clamps run on float64 arrays of n, which
    round exactly as Python floats do, and pow, log1p and exp go through
    :mod:`math` on the feasible rows only.  numpy's own transcendentals
    may differ from the platform libm by an ulp on some inputs, which
    would change printed digits; on an infeasible row (delta <= 0)
    log1p(delta / g) can leave its domain.
    """
    d = require_prime(d)
    ns = [n if type(n) is int else as_integer(n, "block size n") for n in ns]
    if ns:
        check_count(min(ns), "block size n", 2)
    if not 1.0 / d**2 < F <= 1.0:
        raise ValueError(f"fidelity must be in (1/d**2, 1], got {F}")

    S = isotropic_entropy(d, F)
    delta_of = _delta_rule(delta_policy, S)

    if F >= 1.0:
        # Pure input: the index string is deterministic, nothing atypical.
        a = g = 0.0
    else:
        log_d = math.log(d)
        tail = (1.0 - F) / (d * d - 1.0)
        a = abs(math.log(tail) / log_d) + S
        lF = math.log(F) / log_d
        lt = math.log(tail) / log_d
        variance = F * lF * lF + (1.0 - F) * lt * lt - S * S
        g = max(variance, 0.0) / a
    return _columns(d, ns, F, S, delta_of, a, g)


def _columns(d: int, ns: list[int], F: float, S: float, delta_of, a: float, g: float) -> dict:
    """Every column of :func:`finite_size_columns` from its validated inputs."""
    n = np.array(ns, dtype=float)
    delta = delta_of(n)
    yield_raw = 1.0 - S - 2.0 * delta
    r = np.maximum(np.ceil(n * (S + 2.0 * delta) - 1e-12), 0.0)
    # A row whose policy gives delta <= 0 distils nothing: p1 = p2 = 1.
    feasible = delta > 0.0
    n_ok, delta_ok = n[feasible], delta[feasible]
    p1 = np.ones_like(n)
    p2 = np.ones_like(n)
    p2[feasible] = _libm(math.pow, float(d), -n_ok * delta_ok)
    if g <= 0.0:
        p1[feasible] = 0.0
    else:
        bennett = (g + delta_ok) * _libm(math.log1p, delta_ok / g) - delta_ok
        p1[feasible] = 2.0 * _libm(math.exp, -(n_ok / a) * bennett)
    F_out_raw = 1.0 - p1 - p2  # -1 on the infeasible rows
    # The clamps keep the bound unless the value passes it strictly, as
    # Python's max(0.0, x) and min(1.0, x) do.
    yield_ = np.where(feasible & (yield_raw > 0.0), yield_raw, 0.0)
    F_out = np.where(F_out_raw > 0.0, F_out_raw, 0.0)
    k = len(ns)
    return {
        "d": [d] * k,
        "n": ns,
        "F": [F] * k,
        "delta": delta.tolist(),
        "S": [S] * k,
        "r": list(map(int, r.tolist())),
        "yield": yield_.tolist(),
        "p1_bound": np.where(p1 < 1.0, p1, 1.0).tolist(),
        "p2": p2.tolist(),
        "F_out_bound": np.where(F_out < 1.0, F_out, 1.0).tolist(),
        "yield_raw": yield_raw.tolist(),
        "F_out_raw": F_out_raw.tolist(),
        "feasible": feasible.tolist(),
    }


def lemma1_montecarlo(
    d: int, n: int, trials: int = 100_000, seed: int = 0
) -> float:
    """Empirical collision rate of random parities over index strings.

    Samples uniform nonzero difference strings delta in [0, d)**(2n) and
    uniform coefficient strings s, and returns the fraction of trials
    with s . delta = 0 (mod d).  This is the rate at which a parity fails
    to tell two distinct strings x != y apart: for uniform x != y,
    delta = x - y mod d is uniform on the d**(2n) - 1 nonzero strings, and
    s . x = s . y exactly when s . delta = 0.  For prime d the exact rate
    is 1/d whatever delta is (Lemma 1), which is what makes each parity
    round reveal one base-d symbol of information.

    ``SeedSequence(seed).spawn(2)`` gives each half of the trials its own
    stream: rows [0, trials // 2) draw from the first, the rest from the
    second.  Each half runs blocks of _BLOCK = 2,000 rows; each block
    draws delta, then the redraws of its all-zero rows, then s, in the
    narrowest unsigned type that holds d - 1 (uint8 up to d = 256, uint16
    up to d = 65,536, uint32 above).  numpy's 8- and 16-bit bounded draws
    discard the unused bytes of their buffer at the end of each call, so
    the values drawn depend on the call size: _BLOCK is part of the
    stream, and changing it changes every rate.  No array outlives its
    block: 200,000 trials at d = 5, n = 20 peak at about 0.31 MB of
    traced memory on one CPU and 0.62 MB on two.
    The parity is summed in int64, which is exact only while
    2n (d - 1)**2 < 2**63; a larger d or n raises ValueError before any
    draw.  That bound keeps d below 2**31, so uint32 holds every draw.
    A negative or non-integral seed raises ValueError too.

    With two CPUs or more, the first half runs on one helper thread and
    the second on the caller; numpy's draws release the GIL, so the two
    run at once.  On one CPU the caller runs both halves in order.  So the
    rate depends only on the seed, on any number of CPUs.
    """
    d = require_prime(d)
    n = check_count(n, "string half-length n", 1)
    trials = check_count(trials, "trials", 10_000)
    seed = check_count(seed, "seed", 0)
    width = 2 * n
    if width * (d - 1) ** 2 >= 2**63:
        raise ValueError(
            f"the parity sum is exact in int64 only while 2n (d - 1)**2 < 2**63,"
            f" got d={d}, n={n}"
        )

    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if d - 1 <= np.iinfo(t).max)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    sizes = (trials // 2, trials - trials // 2)
    hits = [0, 0]

    def run(half: int):
        size = sizes[half]
        for start in range(0, size, _BLOCK):
            rows = min(_BLOCK, size - start)
            hits[half] += _block_hits(streams[half], d, (rows, width), dtype)

    if not _on_two_cpus(lambda: run(0), lambda: run(1), "quditpure-lemma1"):
        run(0)
        run(1)
    return sum(hits) / trials


# Rows of a lemma1_montecarlo block; part of its stream (see there).
_BLOCK = 2_000


def _parity_hits(s: np.ndarray, delta: np.ndarray, d: int) -> int:
    """Rows whose parity s . delta is 0 mod d.  Each term is at most
    (d - 1)**2, so the int64 sum of 2n of them is exact under the bound
    lemma1_montecarlo checks."""
    parity = np.einsum("ij,ij->i", s, delta, dtype=np.int64) % d
    return int(np.count_nonzero(parity == 0))


def _block_hits(rng: np.random.Generator, d: int, shape: tuple, dtype) -> int:
    """Colliding parities among one block of fresh trials of
    :func:`lemma1_montecarlo`, ``shape`` = (rows, 2n), drawn from ``rng``:
    delta, then the redraws of its all-zero rows, then s."""
    delta = rng.integers(0, d, shape, dtype=dtype)
    zero = np.flatnonzero(~delta.any(axis=1))
    while zero.size:
        delta[zero] = rng.integers(0, d, (zero.size, shape[1]), dtype=dtype)
        zero = zero[~delta[zero].any(axis=1)]
    return _parity_hits(rng.integers(0, d, shape, dtype=dtype), delta, d)
