"""Recurrence-style purification of Bell-diagonal qudit pairs.

The two-copy subroutine that purifies amplitude errors convolves each
amplitude column of the weight matrix with itself over the phase index;
conjugating it by the bilateral Fourier transform gives the
phase-purifying twin.  On top of these sit:

* an adaptive protocol that picks the better subroutine each round,
* the fixed-swap variant in the style of the DEJMPS qubit protocol,
* the twirl-after-every-step variant in the style of BBPSSW, which stays
  inside the isotropic family and admits closed-form fidelity dynamics,
* a three-copy generalization that consumes two target copies per round.

Gate imperfections are modelled by sandwiching each round with local
depolarizing noise of retention Q per qudit (Q**2 per pair).  Q models
gate noise only: a noisy measurement gives a round that is no
depolarizing mix (ROADMAP item 14).  Numeric scans locate the
purification regime in initial fidelity and the worst tolerable Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .indices import check_count, check_dimension, check_unit_interval
# make_preset and depolarize_channel stay bound here although nothing here
# calls them: bench/tracer.py wraps them in every module that imports them.
from .states import (
    CoeffMatrix, StatePreset, depolarize_channel, depolarized, make_preset, preset_block,
    twirled,
)

__all__ = [
    "BBPSSW",
    "DEJMPS",
    "NOISELESS",
    "NoiseParams",
    "P1",
    "P1P2",
    "P2",
    "PROTOCOLS",
    "PurificationRegime",
    "THREE_COPY",
    "Trajectory",
    "TrajectoryStep",
    "bbpssw_fixed_points",
    "bbpssw_step",
    "bbpssw_threshold",
    "bbpssw_threshold_asymptote",
    "choose_subroutine",
    "dejmps_map",
    "noise_threshold",
    "noisy_step",
    "p1_map",
    "p2_map",
    "regime_scan",
    "run_protocol",
    "three_copy_map",
    "threshold_table",
    "yield_run",
]

# Subroutine labels (also used as trajectory step names).
P1 = "P1"
P2 = "P2"

# Protocol names.
P1P2 = "P1P2"
DEJMPS = "DEJMPS"
BBPSSW = "BBPSSW"
THREE_COPY = "THREE_COPY"
PROTOCOLS = (P1P2, DEJMPS, BBPSSW, THREE_COPY)

# A fidelity gain below STALL_TOL for STALL_RUNS consecutive rounds stops
# an iteration early; the trajectory is then reported as not converged.
STALL_TOL = 1e-12
STALL_RUNS = 3

# Minimal long-run fidelity gain that counts as "purifies" in scans.
IMPROVE_TOL = 1e-9
REFINE_TOL = 1e-8  # width to which regime_scan bisects each regime edge


def _stall_count(stall, new_F, F):
    """Consecutive stalled rounds after one that took F to new_F; works
    on floats and, lane by lane, on arrays."""
    return (stall + 1) * (new_F - F < STALL_TOL)


@dataclass(frozen=True)
class NoiseParams:
    """Error parameters of the apparatus.

    Q is the per-qudit depolarizing retention of the two-qudit gates used
    inside each purification round; it defaults to the noiseless value 1.
    """

    Q: float = 1.0

    def __post_init__(self):
        check_unit_interval(self.Q, "noise parameter Q")


NOISELESS = NoiseParams()


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    step: str
    state: CoeffMatrix
    success_prob: float
    cumulative_yield: float


@dataclass
class Trajectory:
    """Record of one protocol run.

    ``cumulative_yield`` in each step is the product of success
    probabilities so far divided by the copies consumed (2 per round for
    two-copy subroutines, 3 for the three-copy one); failed rounds
    discard every copy involved.
    """

    protocol: str
    initial: CoeffMatrix
    target_fidelity: float
    steps: list[TrajectoryStep]
    stop_reason: str  # "target", else "max_iters", else "stall"

    @property
    def reached_target(self) -> bool:
        return self.stop_reason == "target"

    @property
    def final_state(self) -> CoeffMatrix:
        return self.steps[-1].state if self.steps else self.initial

    @property
    def final_fidelity(self) -> float:
        return self.final_state.fidelity

    @property
    def cumulative_yield(self) -> float:
        return self.steps[-1].cumulative_yield if self.steps else 1.0

    @property
    def iterations(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class PurificationRegime:
    """Interval of initial fidelities that a protocol can purify."""

    F_min: float
    F_max: float
    purifiable: bool


def _no_regime(d: int) -> PurificationRegime:
    """Nothing purifies: both bounds on the midpoint (d + 1) / (2 d), in (1/2, 3/4]."""
    center = (d + 1.0) / (2.0 * d)
    return PurificationRegime(F_min=center, F_max=center, purifiable=False)


# Largest d whose phase convolution runs as an index gather.  The gather
# builds a d**3 temporary, and the padded FFT overtakes it from about
# d = 33 (three copies) to 35-37 (two copies) on a 2-CPU x86 VM: at d = 37,
# 90 against 84 us for two copies and 130 against 112 us for three.
GATHER_MAX_D = 31

# Columns per FFT block, each one rfft and one irfft for two copies or
# three.  On a 2-CPU x86 VM, 32 and 64 columns ran equally fast at d = 211
# and 401, 64 ran 10-15% faster at d = 101, 16 lost time to the loop, and
# 128 or all columns at once ran 5-35% slower.  The bits do not depend on
# the width (see _phase_power).
_FFT_BLOCK = 64


@functools.cache
def _gather_index(d: int) -> np.ndarray:
    """``idx[k, m] = (k - m) mod d``, shared read-only (only d <= GATHER_MAX_D)."""
    k = np.arange(d)
    idx = (k[:, None] - k[None, :]) % d
    idx.setflags(write=False)
    return idx


@functools.cache
def _smooth_length(m: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= m: an FFT length that pocketfft
    factors into radix-2, 3 and 5 passes, with no Bluestein fallback."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _phase_power(a: np.ndarray, copies: int) -> np.ndarray:
    """Cyclic convolution power of every column over the row (phase)
    index, for c = ``copies`` in {2, 3}::

        out[k, j] = sum_{m1 + ... + mc = k (mod d)} a[m1, j] * ... * a[mc, j]

    Small d gathers the shifted copies of ``a`` once for all c - 1
    contractions.  Large d splits ``a = a0 e0 + r`` into row 0, which
    holds a purifying state's dominant fidelity, and the rest.  It adds
    ``a0**c e0 + c a0**(c-1) r`` exactly and the other terms by FFT, whose
    rounding then scales with the other weights only: ``R**2`` for two
    copies and ``R**2 (3 a0 + R)`` for three, R the real FFT of r.  That
    is one rfft and one irfft per ``_FFT_BLOCK`` columns, zero-padded to
    the smooth length n >= c (d - 1) + 1 of the linear convolution, whose
    rows from d on fold back modulo d.  Exact zeros can round slightly
    negative; :class:`CoeffMatrix` clamps them once per round.

    A block works on the rows of its transposed copy, which are
    contiguous, and stores its columns of ``out`` once.  Sums and products
    keep the order of the whole-matrix form ``out = c a0**(c-1) a;
    out[0] = a0**c; out += lin[s:s + d]``, so the bits do not depend on
    the block; the three-copy product is taken as written, ``spec * (spec
    + 3 a0)``, which numpy's temporary elision would reverse on arrays of
    256 KiB or more.
    """
    d = a.shape[0]
    if d <= GATHER_MAX_D:
        out, shifted = a, a.take(_gather_index(d), axis=0)
        for _ in range(copies - 1):
            out = np.einsum("mj,kmj->kj", out, shifted)
        return out
    length = copies * (d - 1) + 1
    n = _smooth_length(length)
    a0 = a[0]
    scale, head = copies * a0 ** (copies - 1), a0 ** copies
    # Every block writes its columns whole.  C order whatever a's layout
    # (a P2 round stores a Fortran-ordered state), so the round's sum adds
    # in one order.
    out = np.empty((d, d))
    width = _FFT_BLOCK
    for j in range(0, d, width):
        cols = slice(j, j + width)
        r = a[:, cols].T.copy()
        r[:, 0] = 0.0
        spec = np.fft.rfft(r, n)
        r *= scale[cols, None]  # the exact terms
        r[:, 0] = head[cols]
        if copies == 3:
            factor = spec + 3.0 * a0[cols, None]
            np.multiply(spec, factor, out=factor)
            spec *= factor
            del factor
        else:
            spec *= spec
        lin = np.fft.irfft(spec, n)
        del spec
        acc = lin[:, :d]
        acc += r
        for s in range(d, length, d):
            rows = min(d, length - s)
            acc[:, :rows] += lin[:, s:s + rows]
        out[:, cols] = acc.T
        del r, acc, lin  # before the next block allocates
    return out


def _conv_round(a: np.ndarray, dims, copies: int, adaptive: bool):
    """Raw weights, success probability and ``rows`` of a round on ``copies`` copies
    of ``a``, which it does not write: ``adaptive`` with phase errors dominating runs
    it along rows (the Fourier-conjugated round, stored transposed).  ``dims`` is unused."""
    rows = adaptive and _phase_dominates(a)
    if rows:
        # The FFT blocks read either layout; the gather's sums keep C order.
        a = a.T if a.shape[0] > GATHER_MAX_D else np.ascontiguousarray(a.T)
    raw = _phase_power(a, copies)
    prob = float(np.add.reduce(raw, axis=None))
    if prob <= 0.0:
        raise ValueError("no surviving branch; state weights are degenerate")
    return raw, prob, rows


def p1_map(state: CoeffMatrix) -> tuple[CoeffMatrix, float]:
    """Two-copy subroutine that purifies amplitude errors.

    Both copies pass through the bilateral controlled-difference gate and
    the target copy is measured; the round succeeds when the two local
    outcomes agree, which happens exactly when the copies carry the same
    amplitude index.  Surviving weights are the cyclic self-convolution of
    each amplitude column over the phase index::

        out[k, j]  propto  sum_{k1 + k2 = k (mod d)} a[k1, j] * a[k2, j]

    Returns the normalized output state and the success probability
    (the sum of squared column sums).
    """
    raw, prob, _ = _conv_round(state.alpha, state.d, 2, False)
    return CoeffMatrix(np.divide(raw, prob, out=raw)), prob


def p2_map(state: CoeffMatrix) -> tuple[CoeffMatrix, float]:
    """Two-copy subroutine that purifies phase errors.

    Identical to :func:`p1_map` conjugated by the bilateral Fourier
    transform, i.e. the same convolution running along rows instead of
    columns.
    """
    mapped, prob = p1_map(state.transpose())
    return mapped.transpose(), prob


def three_copy_map(state: CoeffMatrix) -> tuple[CoeffMatrix, float]:
    """Amplitude-purifying subroutine acting on three copies at once.

    One control copy is checked against two target copies; the round
    succeeds when all three amplitude indices agree.  The surviving
    weights are the cyclic triple self-convolution of each amplitude
    column, and the success probability is the sum of cubed column sums.
    """
    raw, prob, _ = _conv_round(state.alpha, state.d, 3, False)
    return CoeffMatrix(np.divide(raw, prob, out=raw)), prob


def choose_subroutine(state: CoeffMatrix) -> str:
    """Pick the subroutine that attacks the dominant error type.

    Compares the total weight of pure phase errors (column 0) against
    pure amplitude errors (row 0) and returns ``P2`` when phase errors
    dominate, ``P1`` otherwise (ties go to ``P1``).
    """
    return P2 if _phase_dominates(state.alpha) else P1


def _phase_dominates(a: np.ndarray) -> bool:
    """The choice rule of :func:`choose_subroutine` on a weight array."""
    return np.add.reduce(a[:, 0]) > np.add.reduce(a[0])


def noisy_step(state: CoeffMatrix, Q: float) -> CoeffMatrix:
    """Account for gate noise on one copy entering a purification round.

    Each qudit of the pair passes through a local depolarizing channel of
    retention Q, which at the coefficient level is a single depolarizing
    mix with retention Q**2.
    """
    check_unit_interval(Q, "retention Q")
    return CoeffMatrix(depolarized(state.alpha, Q * Q, state.d))


def dejmps_map(state: CoeffMatrix, Q: float = 1.0) -> tuple[CoeffMatrix, float]:
    """One round of the fixed-swap protocol.

    Applies gate noise, the amplitude-purifying subroutine, and then the
    bilateral Fourier swap so that phase and amplitude errors trade
    places between rounds, as in the DEJMPS qubit protocol.
    """
    advance, k = _round(DEJMPS, state.d, Q, _conv_round)
    _, mapped, prob = advance(state.alpha, k)
    return CoeffMatrix(mapped), prob


def bbpssw_step(F: float, d: int, Q: float = 1.0) -> tuple[float, float]:
    """Closed-form fidelity map and success probability of the
    twirl-after-every-step protocol on isotropic states.

    Gate noise turns the weight of the target state into
    ``a1 = F Q**2 + (1 - Q**2) / d**2`` and each of the other d**2 - 1
    weights into ``a2 = (1 - F) Q**2 / (d**2 - 1) + (1 - Q**2) / d**2``;
    the two-copy round then gives

        F' = (a1**2 + (d - 1) a2**2) / (a1**2 + 2(d-1) a1 a2 + (d**3 - 2d + 1) a2**2)

    with the denominator equal to the round's success probability.
    """
    d = check_dimension(d)
    check_unit_interval(F, "fidelity")
    advance, k = _round(BBPSSW, d, Q, _sector_conv)
    _, s, prob = advance(preset_block("isotropic", d, F, 0.0), k)
    return float(s[0, 0]), float(prob)


def bbpssw_fixed_points(d: int, Q: float = 1.0) -> PurificationRegime:
    """Fixed points of the twirl-protocol fidelity map.

    Solving F' = F gives two nontrivial fixed points

        F(+-) = (d + 1) / (2 d) +- sqrt(d - 1) * sqrt(disc) / (2 d**2 Q**2)
        disc  = 8 Q**2 (d + 1) - 4 (d + 1)**2 + Q**4 (d - 1) (d + 2)**2

    The lower one is repulsive and bounds the purification regime from
    below, the upper one is the attractor that limits the reachable
    fidelity.  When the discriminant is not positive the map has no real
    crossing and nothing purifies; both bounds then collapse onto the
    midpoint (d + 1) / (2 d).
    """
    d = check_dimension(d)
    check_unit_interval(Q, "retention Q")
    q2 = Q * Q
    disc = 8.0 * q2 * (d + 1.0) - 4.0 * (d + 1.0) ** 2 + q2 * q2 * (d - 1.0) * (d + 2.0) ** 2
    if disc <= 0.0 or Q == 0.0:
        return _no_regime(d)
    center = (d + 1.0) / (2.0 * d)
    half = math.sqrt(d - 1.0) * math.sqrt(disc) / (2.0 * d * d * q2)
    # The roots lie in [1/d, 1]; rounding at huge d or at Q = 1 can push one out.
    f_lo = max(center - half, 1.0 / d**2)
    f_hi = min(center + half, 1.0)
    return PurificationRegime(F_min=f_lo, F_max=f_hi, purifiable=True)


def bbpssw_threshold(d: int) -> float:
    """Worst gate retention Q at which the twirl protocol still purifies.

    Root of the fixed-point discriminant in Q:

        Q_th = sqrt(2) * sqrt((-2 - 2 d + sqrt(d**2 (d + 1)**2 (d + 3)))
                              / (d**3 + 3 d**2 - 4))
    """
    d = check_dimension(d)
    num = -2.0 - 2.0 * d + math.sqrt(d * d * (d + 1.0) ** 2 * (d + 3.0))
    den = d**3 + 3.0 * d**2 - 4.0
    return math.sqrt(2.0) * math.sqrt(num / den)


def bbpssw_threshold_asymptote(d: int) -> float:
    """Large-d scaling of the twirl-protocol threshold, sqrt(2) / d**0.25."""
    d = check_dimension(d)
    return math.sqrt(2.0) * d ** (-0.25)


def _constants(d, Q):
    """A round's r = Q**2, (1 - r) / d**2, d**2 - 1, d - 1.0 and d - 2.0.  d * d
    is exact for an int d and integer lane arrays: lanes get a scalar's floats."""
    r = Q * Q
    return r, (1.0 - r) / (d * d), d * d - 1, d - 1.0, d - 2.0


def _round(protocol: str, d: int, Q: float, conv):
    """Check a run's protocol and retention Q once; return its noisy round on bare
    weights, ``advance(a, k) -> (label, weights, prob)``, and its constants k: on
    the d x d matrix with ``conv=_conv_round``, on the sector block with ``_sector_conv``."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    check_unit_interval(Q, "retention Q")
    return _noisy_round(protocol, conv), _constants(d, Q)


def _noisy_round(protocol: str, conv):
    """:func:`_round`'s ``advance``, on the :func:`_constants` ``k``: scalars,
    or lane arrays for sector lanes."""
    copies = 3 if protocol == THREE_COPY else 2
    adaptive = protocol in (P1P2, THREE_COPY)
    matrix = conv is _conv_round

    def advance(a, k):
        r, mix, errors, dm1, dm2 = k
        if protocol == BBPSSW:
            # The twirl protocol lives on isotropic states; twirling the input
            # is a no-op once the iteration is underway.
            a = twirled(a, errors)
        # At r = 1 the matrix round skips the mix 1.0 * a + 0.0, which keeps a's
        # bits: no stored state holds -0.0, and _conv_round does not write a.
        raw, prob, rows = conv(a if matrix and r == 1.0 else r * a + mix,  # depolarized
                               (dm1, dm2), copies, adaptive)
        if rows or protocol == DEJMPS:  # the transpose, written once the mix is freed
            a = np.empty_like(raw.swapaxes(0, 1))
            np.divide(raw, prob, out=a.swapaxes(0, 1))
        else:
            a = np.divide(raw, prob, out=raw)
        if protocol == BBPSSW:
            a = twirled(a, errors)
        return (P2 if rows else P1) if protocol == P1P2 else protocol, a, prob

    return advance


def run_protocol(
    protocol: str,
    state: CoeffMatrix,
    noise: NoiseParams = NOISELESS,
    *,
    epsilon: float = 1e-4,
    max_iters: int = 200,
) -> Trajectory:
    """Iterate a protocol until the fidelity reaches 1 - epsilon.

    Stops early after ``max_iters`` rounds or once the fidelity gain
    stays below STALL_TOL for STALL_RUNS consecutive rounds, in which
    case ``reached_target`` is False; ``stop_reason`` says which.  The
    adaptive P1P2 protocol re-picks its subroutine every round, on the
    state as it enters the gates, after the round's noise.
    """
    advance, k = _round(protocol, state.d, noise.Q, _conv_round)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    max_iters = check_count(max_iters, "max_iters", 1)
    target = 1.0 - epsilon
    copies = 3.0 if protocol == THREE_COPY else 2.0
    steps = []
    current = state
    F = state.fidelity
    cum_yield = 1.0
    stall = 0
    while F < target and len(steps) < max_iters:
        label, mapped, prob = advance(current.alpha, k)
        current = CoeffMatrix._adopt(mapped)
        del mapped  # renormalized weights leave the raw ones to die now
        cum_yield *= prob / copies
        steps.append(TrajectoryStep(label, current, prob, cum_yield))
        new_F = current.fidelity
        stall = _stall_count(stall, new_F, F)
        F = new_F
        if stall >= STALL_RUNS:
            break
    stop = "target" if F >= target else "max_iters" if len(steps) >= max_iters else "stall"
    return Trajectory(protocol, state, target, steps, stop)


def yield_run(
    protocol: str,
    state: CoeffMatrix,
    noise: NoiseParams = NOISELESS,
    F_target: float = 0.999,
) -> float:
    """Expected surviving-pairs-per-input ratio to reach F_target.

    Runs the protocol and multiplies success probability over copies
    consumed for every round; returns 0.0 when the target is unreachable
    and 1.0 when the input already meets it.
    """
    if not 0.0 < F_target < 1.0:
        raise ValueError(f"F_target must be in (0, 1), got {F_target}")
    traj = run_protocol(
        protocol, state, noise, epsilon=1.0 - F_target, max_iters=10_000
    )
    return traj.cumulative_yield if traj.reached_target else 0.0


def _sector_conv(s: np.ndarray, dims, copies: int, adaptive: bool):
    """The convolution of :func:`_round` on the preset sector, at one cost for every d.

    A sector matrix has x on the rest of row 0, z on the rest of column 0
    and w elsewhere, so its top-left block ``s = [[F, x], [z, w]]`` holds
    it (lanes on a trailing axis).  The sector holds the presets and is
    closed under depolarizing, P1 on two or three copies, the swap of P2
    and DEJMPS, and the twirl.  The adaptive round picks P2 exactly when
    z > x, a swap F cannot see, so ``adaptive`` keeps z <= x instead.  Each
    lane is bit-identical to a one-lane run, so powers are plain products
    (``**`` rounds differently on a lane array); ``dims`` is (d - 1.0, d - 2.0),
    floats or lane arrays.  Returns the raw block, prob and False.
    """
    dm1, dm2 = dims
    if adaptive:
        s[0, 1], s[1, 0] = np.maximum(s[0, 1], s[1, 0]), np.minimum(s[0, 1], s[1, 0])
    # P1 on both column classes: column 0 is (F, z), the others (x, w).  A
    # column [a, b, ..., b] keeps that form under convolution, so its power
    # is the pair (u, v), and prob sums each column's sum to the copies.
    top, rest = s
    wide = dm1 * rest
    c = top + wide
    u, v = top, rest
    for _ in range(copies - 1):
        u, v = u * top + v * wide, u * rest + v * top + dm2 * v * rest
    cpow = c
    for _ in range(copies - 2):
        cpow = cpow * c
    prob = c[0] * cpow[0] + dm1 * c[1] * cpow[1]
    return np.array((u, v)), prob, False


def _lanes_improve(
    protocol: str, d: np.ndarray, Q: np.ndarray, preset_kind: str, F0: np.ndarray, iterations: int,
) -> np.ndarray:
    """Whether iterating the protocol from each initial fidelity in F0 gains
    ground, each lane at its own integer d and retention Q (arrays aligned
    with F0).  Each lane starts on the preset as :func:`make_preset` builds
    it, with the preset's default x_weight, and follows the stall rule of
    :func:`run_protocol`; a stalled lane leaves the block with its constants.
    """
    s = np.asarray(preset_block(preset_kind, d, F0, StatePreset.x_weight), float)
    # Constants every lane shares stay scalars: a block of one d and one Q then
    # runs at the cost of scalar constants (lane arrays made it 17% slower).
    table = np.array(_constants(d, Q), float)
    k = [c if varies else c[0] for c, varies in zip(table, table.min(1) < table.max(1))]
    final = F0.copy()
    lanes = np.arange(F0.size)
    stall = np.zeros(F0.size, dtype=int)
    advance = _noisy_round(protocol, _sector_conv)
    for _ in range(iterations):
        F = s[0, 0]
        _, s, _ = advance(s, k)
        stall = _stall_count(stall, s[0, 0], F)
        done = stall >= STALL_RUNS
        if np.count_nonzero(done):
            final[lanes[done]] = s[0, 0, done]
            keep = ~done
            s, lanes, stall = s[..., keep], lanes[keep], stall[keep]
            k = [c[keep] if isinstance(c, np.ndarray) else c for c in k]
            if not lanes.size:
                break
    final[lanes] = s[0, 0]
    return final > F0 + IMPROVE_TOL


# Lanes per _lanes_improve block of _lockstep.  A block's numpy calls, more
# than its lanes, set its time: in three interleaved sessions on a 2-CPU VM the
# benchmark's scan tables took 0.49-0.50 of their one-call-at-a-time time at
# 1900 (three Q levels of 128 lanes), 0.39-0.65 at 1400, 0.72-0.78 at 900 and
# 0.70-0.71 at 2600 (four levels).
_LANE_BUDGET = 1900


def _lockstep(scans: list, protocol: str, preset_kind: str, iterations: int) -> list:
    """Run step-form scans, which yield lane requests ``(d, Q, F0)`` (Q like F0)
    and are sent the verdicts, and return their results.  Each round, one
    :func:`_lanes_improve` block takes the pending requests in scan order up
    to ``_LANE_BUDGET`` lanes, or the first alone; a lane's verdict does not
    depend on its block.  This module's scans raise only on first verdicts,
    which come in scan order, so the error is the one sequential runs raise."""
    results, pending, sends = [None] * len(scans), {}, dict.fromkeys(range(len(scans)))
    while sends:
        for i, verdicts in sends.items():
            try:
                pending[i] = scans[i].send(verdicts)
            except StopIteration as stop:
                results[i] = stop.value
        order = sorted(pending)
        ends = np.cumsum([pending[i][1].size for i in order], dtype=int)
        block = order[:max(1, np.searchsorted(ends, _LANE_BUDGET, side="right"))]
        if not block:
            break
        ds, Qs, F0s = zip(*(pending.pop(i) for i in block))
        # int64 d keeps d * d exact up to d = 3_037_000_499; Python ints beyond.
        d = np.repeat(np.array(ds, int if max(ds) ** 2 < 2**63 else object), [Q.size for Q in Qs])
        ok = _lanes_improve(protocol, d, np.concatenate(Qs), preset_kind, np.concatenate(F0s),
                            iterations)
        sends = dict(zip(block, np.split(ok, ends[:len(block) - 1])))
    return results


def _bisect(improves, bad: float, good: float, tol: float, levels: int):
    """Bisect the edge between a failing and an improving value, in step form.

    ``improves``, in step form too, maps an array of values to one verdict
    each.  It gets the midpoints of the next ``levels`` sequential steps at
    once, as a tree in level order (node i has children 2i + 1 if its
    midpoint fails, 2i + 2 if it improves), computed as the sequential steps
    compute them; the walk follows the verdicts, so the result is sequential
    bisection's.
    """
    n = 2**levels - 1
    while abs(good - bad) > tol:
        lo, hi = [bad], [good]
        for i in range(n // 2):
            mid = 0.5 * (lo[i] + hi[i])
            lo += [mid, lo[i]]
            hi += [hi[i], mid]
        mids = 0.5 * (np.array(lo) + np.array(hi))
        ok = yield from improves(mids)
        i = 0
        while i < n and abs(good - bad) > tol:
            if ok[i]:
                good, i = mids[i], 2 * i + 2
            else:
                bad, i = mids[i], 2 * i + 1
    return 0.5 * (bad + good)


def _regime_steps(d: int, Q: float, Fs: np.ndarray):
    """Step form of :func:`regime_scan` on its checked arguments."""

    def improves(F0):
        return (yield d, np.full(F0.size, Q), F0)

    ok = yield from improves(Fs)
    hits = np.flatnonzero(ok)
    if not hits.size:
        return _no_regime(d)

    hit = hits[np.argmin(np.abs(hits - Fs.size // 2))]
    fails = np.flatnonzero(~ok)
    i = np.searchsorted(fails, hit)

    # One 31-lane request holds every midpoint of an edge's next five steps.
    edge = functools.partial(_bisect, improves, tol=REFINE_TOL, levels=5)
    F_min = (yield from edge(Fs[fails[i - 1]], Fs[fails[i - 1] + 1])) if i else Fs[0]
    F_max = (yield from edge(Fs[fails[i]], Fs[fails[i] - 1])) if i < fails.size else 1.0
    return PurificationRegime(F_min=F_min, F_max=F_max, purifiable=True)


def regime_scan(
    protocol: str,
    d: int,
    Q: float = 1.0,
    preset_kind: str = "isotropic",
    *,
    grid: int = 192,
    iterations: int = 200,
) -> PurificationRegime:
    """Numerically locate the interval of purifiable initial fidelities.

    Initial states are drawn from the given preset family parameterized
    by F.  The whole F-grid is iterated at once.  Regimes sit around
    mid-range fidelities, so the purifiable point nearest the middle
    (the lower one on ties) picks the interval; the nearest failing point
    on each side brackets its edge, and bisection sharpens each edge to
    ``REFINE_TOL``, five steps per lane block.  The convergence test
    iterates the noisy protocol up to ``iterations`` rounds with the stall
    rule of :func:`run_protocol`, on the preset sector (see
    :func:`_sector_conv`), so it costs the same at any d.
    For the twirl protocol the edges agree with
    :func:`bbpssw_fixed_points`, which :func:`threshold_table` takes, to
    bisection accuracy.  The arguments are checked as a one-row table's.
    """
    return _scan_table(protocol, [d], Q, preset_kind, grid, iterations, None,
                       lambda d, Fs: [_regime_steps(d, Q, Fs)])[0][0]


def _threshold_steps(protocol: str, d: int, preset_kind: str, Fs: np.ndarray, q_tol: float):
    """Step form of :func:`noise_threshold` on its checked arguments."""
    # As many bisection levels as (2**levels - 1) grids fit into the lane budget.
    levels = max(1, (_LANE_BUDGET // Fs.size + 1).bit_length() - 1)

    def purifiable(Qs):
        ok = yield d, np.repeat(Qs, Fs.size), np.tile(Fs, np.size(Qs))
        return ok.reshape(-1, Fs.size).any(axis=1)

    if not (yield from purifiable(1.0))[0]:
        raise ValueError(f"protocol {protocol} does not purify {preset_kind} states at Q=1.0")
    q_lo, q_hi = 0.7, 1.0
    while q_lo > 0.0 and (yield from purifiable(q_lo))[0]:
        q_hi, q_lo = q_lo, max(q_lo - 0.1, 0.0)
    return float((yield from _bisect(purifiable, q_lo, q_hi, q_tol, levels)))


def noise_threshold(
    protocol: str,
    d: int,
    preset_kind: str = "isotropic",
    *,
    q_tol: float = 1e-3,
    grid: int = 128,
    iterations: int = 160,
) -> float:
    """Smallest gate retention Q at which any initial fidelity purifies.

    Bisects Q on the predicate "the purification regime is non-empty",
    each evaluation iterating the fidelity grid of :func:`regime_scan`.
    The bracket walks down from Q = 0.7 in steps of 0.1; at Q = 0 nothing
    purifies.  The bisection evaluates as many levels of Q per lane block as
    the lane budget holds grids (at least one), with the one-level result.
    For the twirl protocol prefer the closed form
    :func:`bbpssw_threshold`, which :func:`threshold_table` takes; the
    numeric route exists to cross-check it and to handle the adaptive,
    fixed-swap and three-copy protocols.  The arguments are checked as a
    one-row table's.
    """
    return _scan_table(protocol, [d], 1.0, preset_kind, grid, iterations, q_tol,
                       lambda d, Fs: [_threshold_steps(protocol, d, preset_kind, Fs, q_tol)])[0][0]


def threshold_table(
    protocol: str, ds, Q: float = 1.0, preset_kind: str = "isotropic", *,
    q_tol: float = 1e-3, grid: int = 128, iterations: int = 160,
) -> list[tuple[float, PurificationRegime]]:
    """``(Q_th, regime)`` at each d of ``ds``, with every argument checked
    before any row.  BBPSSW's rows are its closed forms, ``(bbpssw_threshold(d),
    bbpssw_fixed_points(d, Q))``, for any preset, since its first twirl makes
    every preset isotropic.  The other protocols' rows are ``(noise_threshold,
    regime_scan)`` on one grid, all the rows' scans run in lockstep."""
    steps = None if protocol == BBPSSW else lambda d, Fs: (
        _threshold_steps(protocol, d, preset_kind, Fs, q_tol), _regime_steps(d, Q, Fs))
    return _scan_table(protocol, ds, Q, preset_kind, grid, iterations, q_tol, steps)


def _scan_table(protocol, ds, Q, preset_kind, grid, iterations, q_tol, steps):
    """The one checked entry of the scans.  Checks grid, iterations, q_tol
    (unless None), the preset, the protocol, Q and every d of ``ds``, before
    any row runs.  A row holds the results of the step-form scans
    ``steps(d, Fs)`` on the fidelity grid Fs, from just above 1/d**2 to just
    below 1, and every row's scans run in lockstep; ``steps=None`` gives
    BBPSSW's closed-form rows instead."""
    grid = check_count(grid, "fidelity grid", 2)
    iterations = check_count(iterations, "iterations", 1)
    # The spacing of doubles in [0.5, 1): a finer bracket stops shrinking.
    if q_tol is not None and not (math.isfinite(q_tol) and q_tol >= 2.0**-53):
        raise ValueError(f"bisection tolerance must be finite and at least 2**-53, got {q_tol}")
    StatePreset(preset_kind, 1.0)  # the preset's own validation
    _round(protocol, 2, Q, _sector_conv)  # the round's checks of protocol and Q
    ds = [check_dimension(d) for d in ds]
    if steps is None:
        return [(bbpssw_threshold(d), bbpssw_fixed_points(d, Q)) for d in ds]
    rows = [steps(d, np.linspace(1.0 / (d * d) + 1e-9, 1.0 - 1e-6, grid)) for d in ds]
    out = iter(_lockstep([s for row in rows for s in row], protocol, preset_kind, iterations))
    return [tuple(next(out) for _ in row) for row in rows]
