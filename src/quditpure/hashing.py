"""Hashing and breeding purification: yields, finite-size bounds, thresholds.

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

import math
from typing import NamedTuple

import numpy as np

from .indices import check_dimension, check_unit_interval, require_prime
from .states import CoeffMatrix

__all__ = [
    "HashingReport",
    "asymptotic_yield",
    "base_d_entropy",
    "entropy_based",
    "finite_size_report",
    "finite_size_sweep",
    "isotropic_entropy",
    "lemma1_montecarlo",
    "min_fidelity",
    "noisy_thresholds",
    "resolve_delta",
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


def resolve_delta(policy, n: int, S: float) -> float:
    """Turn a block-size policy into a concrete typicality margin delta.

    Accepted forms: a positive float, "fixed:x", "npow:p" for n**p with
    p < 0, and "n_to_1" which solves r = n - 1 (spend all but one pair):
    delta = ((n - 1)/n - S) / 2, possibly non-positive when the entropy
    is too large for that to be feasible.
    """
    return _delta_rule(policy, S)(n)


def _delta_rule(policy, S: float):
    """Parse a delta policy once into a function of the block size n."""
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        delta = float(policy)
        if delta <= 0.0:
            raise ValueError(f"fixed delta must be positive, got {delta}")
        return lambda n: delta
    if not isinstance(policy, str):
        raise ValueError(f"unrecognized delta policy {policy!r}")
    if policy == "n_to_1":
        return lambda n: 0.5 * ((n - 1.0) / n - S)
    if policy.startswith("fixed:"):
        return _delta_rule(float(policy[len("fixed:"):]), S)
    if policy.startswith("npow:"):
        power = float(policy[len("npow:"):])
        if power >= 0.0:
            raise ValueError(f"npow exponent must be negative, got {power}")
        return lambda n: float(n) ** power
    raise ValueError(f"unrecognized delta policy {policy!r}")


class HashingReport(NamedTuple):
    """Finite-size hashing figures for one (d, n, F, delta) choice.

    yield_ and F_out_bound are clamped to [0, 1]; the raw values are kept
    alongside for diagnostics.  p1_bound bounds the probability that the
    block is atypical, p2 the probability that parity rounds fail to
    isolate the error pattern; 1 - p1_bound - p2 lower-bounds the output
    fidelity.  feasible is False when the requested policy produces a
    non-positive delta (then nothing is distilled and yield_ is 0).
    """

    d: int
    n: int
    F: float
    delta: float
    S: float
    r: int
    yield_: float
    p1_bound: float
    p2: float
    F_out_bound: float
    yield_raw: float
    F_out_raw: float
    feasible: bool


def finite_size_report(d: int, n: int, F: float, delta_policy="npow:-0.25") -> HashingReport:
    """One block size of :func:`finite_size_sweep`."""
    return finite_size_sweep(d, [n], F, delta_policy)[0]


def finite_size_sweep(d: int, ns, F: float, delta_policy="npow:-0.25") -> list[HashingReport]:
    """Finite-block accounting for hashing isotropic states, per block size n.

    Uses r = ceil(n (S + 2 delta)) parity rounds, the collision bound
    p2 = d**(-n delta), and a Bennett-type concentration bound

        p1 <= 2 exp(-(n / a) * ((g + delta) ln(1 + delta / g) - delta))

    where a = |log_d((1 - F)/(d**2 - 1))| + S bounds the per-pair
    log-weight and g = Var[log_d weight] / a.  The distillable fraction
    is 1 - S - 2 delta of the block.  Every input is validated, and the
    terms that do not depend on n are computed, before the first report.
    """
    d = require_prime(d)
    ns = [int(n) for n in ns]
    for n in ns:
        if n < 2:
            raise ValueError(f"block size n must be at least 2, got {n}")
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

    reports = []
    for n in ns:
        delta = delta_of(n)
        yield_raw = 1.0 - S - 2.0 * delta
        r = max(0, math.ceil(n * (S + 2.0 * delta) - 1e-12))
        if not delta > 0.0:
            reports.append(HashingReport(
                d, n, F, delta, S, r, 0.0, 1.0, 1.0, 0.0, yield_raw, -1.0, False
            ))
            continue
        p2 = float(d) ** (-n * delta)
        if g <= 0.0:
            p1 = 0.0
        else:
            exponent = -(n / a) * ((g + delta) * math.log1p(delta / g) - delta)
            p1 = 2.0 * math.exp(exponent)
        F_out_raw = 1.0 - p1 - p2
        reports.append(HashingReport(
            d, n, F, delta, S, r, max(0.0, yield_raw), p1, p2,
            min(1.0, max(0.0, F_out_raw)), yield_raw, F_out_raw, True,
        ))
    return reports


def lemma1_montecarlo(
    d: int, n: int, trials: int = 100_000, seed: int = 0
) -> float:
    """Empirical collision rate of random parities over index strings.

    Samples pairs of distinct strings x != y in [0, d)**(2n) and uniform
    coefficient strings s, and returns the fraction of trials with
    s . x = s . y (mod d).  For prime d the exact rate is 1/d regardless
    of how x and y differ, which is what makes each parity round reveal
    one base-d symbol of information.
    """
    d = require_prime(d)
    if n < 1:
        raise ValueError(f"string half-length n must be positive, got {n}")
    trials = int(trials)
    if trials < 10_000:
        raise ValueError(f"need at least 10000 trials, got {trials}")

    rng = np.random.default_rng(seed)
    width = 2 * n
    hits = 0
    remaining = trials
    chunk = 100_000
    while remaining > 0:
        size = min(chunk, remaining)
        x = rng.integers(0, d, size=(size, width))
        y = rng.integers(0, d, size=(size, width))
        collide = (x == y).all(axis=1)
        while collide.any():
            y[collide] = rng.integers(0, d, size=(int(collide.sum()), width))
            collide = (x == y).all(axis=1)
        s = rng.integers(0, d, size=(size, width))
        # s.(x - y) mod d, summed exactly: every term is below d**2 in size.
        parity = np.einsum("ij,ij->i", s, np.subtract(x, y, out=x)) % d
        hits += int((parity == 0).sum())
        remaining -= size
    return hits / trials
