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
depolarizing noise of retention Q per qudit (Q**2 per pair); measurement
noise can be absorbed into the same parameter.  Numeric scans locate the
purification regime in initial fidelity and the worst tolerable Q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .indices import check_dimension, check_unit_interval
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
    "bbpssw_map",
    "bbpssw_step",
    "bbpssw_threshold",
    "bbpssw_threshold_asymptote",
    "choose_subroutine",
    "dejmps_map",
    "noise_threshold",
    "noisy_step",
    "p1_map",
    "p1p2_run",
    "p2_map",
    "regime_scan",
    "run_protocol",
    "three_copy_map",
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


@dataclass(frozen=True)
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
    steps: list[TrajectoryStep] = field(default_factory=list)
    reached_target: bool = False
    stop_reason: str | None = None  # "target", else "max_iters", else "stall"

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


# Largest d whose phase convolution runs as an index gather.  The gather
# builds a d**3 temporary, and the padded FFT overtakes it from about
# d = 33 (three copies) to 35-37 (two copies) on a 2-CPU x86 VM: at d = 37,
# 90 against 84 us for two copies and 130 against 112 us for three.
GATHER_MAX_D = 31

# Columns per FFT block, each one rfft and one irfft for two copies or
# three; the padded temporaries stay O(n * _FFT_BLOCK).  On the same VM,
# 32 and 64 columns ran equally fast at d = 211 and 401; 16 lost time to
# the loop, and 128 or all columns at once ran 5-35% slower there.
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
    """
    d = a.shape[0]
    if d <= GATHER_MAX_D:
        out, shifted = a, a[_gather_index(d)]
        for _ in range(copies - 1):
            out = np.einsum("mj,kmj->kj", out, shifted)
        return out
    length = copies * (d - 1) + 1
    n = _smooth_length(length)
    a0 = a[0]
    # C order whatever a's layout, so the round's sum adds in one order.
    out = np.multiply(copies * a0 ** (copies - 1), a, order="C")
    out[0] = a0 ** copies
    for j in range(0, d, _FFT_BLOCK):
        cols = slice(j, j + _FFT_BLOCK)
        r = a[:, cols].copy()
        r[0] = 0.0
        spec = np.fft.rfft(r, n, axis=0)
        spec *= spec * (spec + 3.0 * a0[cols]) if copies == 3 else spec
        lin = np.fft.irfft(spec, n, axis=0)[:length]
        for s in range(0, length, d):
            out[:min(d, length - s), cols] += lin[s:s + d]
    return out


def _conv_round(a: np.ndarray, d: int, copies: int, adaptive: bool):
    """Normalized weights, success probability and ``rows`` of a round on
    ``copies`` copies of ``a``: ``adaptive`` with phase errors dominating runs it
    along rows (the Fourier-conjugated round).  ``d`` is unused (one conv signature)."""
    rows = adaptive and _phase_dominates(a)
    if rows:
        a = np.ascontiguousarray(a.T)
    raw = _phase_power(a, copies)
    prob = raw.sum()
    if prob <= 0.0:
        raise ValueError("no surviving branch; state weights are degenerate")
    raw /= prob
    return (raw.T if rows else raw), float(prob), rows


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
    mapped, prob, _ = _conv_round(state.alpha, state.d, 2, False)
    return CoeffMatrix(mapped), prob


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
    mapped, prob, _ = _conv_round(state.alpha, state.d, 3, False)
    return CoeffMatrix(mapped), prob


def choose_subroutine(state: CoeffMatrix) -> str:
    """Pick the subroutine that attacks the dominant error type.

    Compares the total weight of pure phase errors (column 0) against
    pure amplitude errors (row 0) and returns ``P2`` when phase errors
    dominate, ``P1`` otherwise (ties go to ``P1``).
    """
    return P2 if _phase_dominates(state.alpha) else P1


def _phase_dominates(a: np.ndarray) -> bool:
    """The choice rule of :func:`choose_subroutine` on a weight array."""
    return float(a[:, 0].sum()) > float(a[0, :].sum())


def noisy_step(state: CoeffMatrix, Q: float) -> CoeffMatrix:
    """Account for gate noise on one copy entering a purification round.

    Each qudit of the pair passes through a local depolarizing channel of
    retention Q, which at the coefficient level is a single depolarizing
    mix with retention Q**2.
    """
    return CoeffMatrix(depolarized(state.alpha, Q, state.d, 2))


def dejmps_map(state: CoeffMatrix, Q: float = 1.0) -> tuple[CoeffMatrix, float]:
    """One round of the fixed-swap protocol.

    Applies gate noise, the amplitude-purifying subroutine, and then the
    bilateral Fourier swap so that phase and amplitude errors trade
    places between rounds, as in the DEJMPS qubit protocol.
    """
    _, mapped, prob = _advance(DEJMPS, state.alpha, state.d, Q, _conv_round)
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
    check_unit_interval(Q, "retention Q")
    _, s, prob = _advance(BBPSSW, preset_block("isotropic", d, F, 0.0), d, Q, _sector_conv)
    return float(s[0, 0]), float(prob)


def bbpssw_map(F: float, d: int, Q: float = 1.0) -> float:
    """Fidelity after one twirl-protocol round (see :func:`bbpssw_step`)."""
    return bbpssw_step(F, d, Q)[0]


def bbpssw_fixed_points(d: int, Q: float = 1.0) -> PurificationRegime:
    """Fixed points of the twirl-protocol fidelity map.

    Solving F' = F gives two nontrivial fixed points

        F(+-) = (d + 1) / (2 d) +- sqrt(d - 1) * sqrt(disc) / (2 d**2 Q**2)
        disc  = 8 Q**2 (d + 1) - 4 (d + 1)**2 + Q**4 (d - 1) (d + 2)**2

    The lower one is repulsive and bounds the purification regime from
    below, the upper one is the attractor that limits the reachable
    fidelity.  When the discriminant is not positive the map has no real
    crossing and nothing purifies; both bounds then collapse onto the
    midpoint (d + 1) / (2 d), clamped into the physical range.
    """
    d = check_dimension(d)
    check_unit_interval(Q, "retention Q")
    lo_phys, hi_phys = 1.0 / d**2, 1.0
    center = (d + 1.0) / (2.0 * d)
    q2 = Q * Q
    disc = 8.0 * q2 * (d + 1.0) - 4.0 * (d + 1.0) ** 2 + q2 * q2 * (d - 1.0) * (d + 2.0) ** 2
    if disc <= 0.0 or Q == 0.0:
        F = min(max(center, lo_phys), hi_phys)
        return PurificationRegime(F_min=F, F_max=F, purifiable=False)
    half = math.sqrt(d - 1.0) * math.sqrt(disc) / (2.0 * d * d * q2)
    f_lo = min(max(center - half, lo_phys), hi_phys)
    f_hi = min(max(center + half, lo_phys), hi_phys)
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


def _advance(protocol: str, a: np.ndarray, d: int, Q: float, conv):
    """One noisy round on bare weights: the d x d matrix with ``conv=_conv_round``,
    the sector block with ``_sector_conv``.  Returns (label, weights, prob)."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if protocol == BBPSSW:
        # The twirl protocol lives on isotropic states; twirling the input
        # is a no-op once the iteration is underway.
        a = twirled(a, d)
    a = depolarized(a, Q, d, 2)
    copies = 3 if protocol == THREE_COPY else 2
    a, prob, rows = conv(a, d, copies, protocol in (P1P2, THREE_COPY))
    if protocol == DEJMPS:
        a = a.swapaxes(0, 1)
    elif protocol == BBPSSW:
        a = twirled(a, d)
    return (P2 if rows else P1) if protocol == P1P2 else protocol, a, prob


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
    case ``reached_target`` is False; ``stop_reason`` says which.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    target = 1.0 - epsilon
    copies = 3.0 if protocol == THREE_COPY else 2.0
    traj = Trajectory(protocol=protocol, initial=state, target_fidelity=target)
    current = state
    F = state.fidelity
    cum_yield = 1.0
    stall = 0
    while F < target and len(traj.steps) < max_iters:
        label, mapped, prob = _advance(protocol, current.alpha, current.d, noise.Q, _conv_round)
        current = CoeffMatrix(mapped)
        del mapped  # a copy lives on in current; free the raw weights now
        cum_yield *= prob / copies
        traj.steps.append(TrajectoryStep(label, current, prob, cum_yield))
        new_F = current.fidelity
        stall = _stall_count(stall, new_F, F)
        F = new_F
        if stall >= STALL_RUNS:
            break
    traj.reached_target = F >= target
    traj.stop_reason = ("target" if traj.reached_target else
                        "max_iters" if len(traj.steps) >= max_iters else "stall")
    return traj


def p1p2_run(
    state: CoeffMatrix,
    noise: NoiseParams = NOISELESS,
    epsilon: float = 1e-4,
    max_iters: int = 200,
) -> Trajectory:
    """Adaptive two-copy protocol: re-pick the subroutine every round.

    The choice is made on the state as it enters the gates, i.e. after
    the noise of the round has been accounted for.
    """
    return run_protocol(P1P2, state, noise, epsilon=epsilon, max_iters=max_iters)


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
    if state.fidelity >= F_target:
        return 1.0
    traj = run_protocol(
        protocol, state, noise, epsilon=1.0 - F_target, max_iters=10_000
    )
    return traj.cumulative_yield if traj.reached_target else 0.0


def _sector_conv(s: np.ndarray, d: int, copies: int, adaptive: bool):
    """The convolution of :func:`_advance` on the preset sector, at one cost for every d.

    A sector matrix has x on the rest of row 0, z on the rest of column 0
    and w elsewhere, so its top-left block ``s = [[F, x], [z, w]]`` holds
    it (lanes on a trailing axis).  The sector holds the presets and is
    closed under depolarizing, P1, the swap of P2 and DEJMPS, and the
    twirl.  The adaptive round picks P2 exactly when z > x, a swap F
    cannot see, so ``adaptive`` keeps z <= x instead.  Two copies only:
    :func:`_scan_grid` keeps THREE_COPY out of the scans.  Each lane is
    bit-identical to a one-lane run; returns ``(s, prob, False)``.
    """
    if adaptive:
        s[0, 1], s[1, 0] = np.maximum(s[0, 1], s[1, 0]), np.minimum(s[0, 1], s[1, 0])
    # P1 on both column classes: column 0 is (F, z), the others (x, w).
    top, rest = s
    wide = (d - 1.0) * rest
    c = top + wide
    prob = c[0] * c[0] + (d - 1.0) * c[1] * c[1]
    s = np.array((
        (top * top + wide * rest) / prob,
        (2.0 * top * rest + (d - 2.0) * rest * rest) / prob,
    ))
    return s, prob, False


def _lanes_improve(
    protocol: str, d: int, Q: float, preset_kind: str, x_weight: float,
    F0: np.ndarray, iterations: int,
) -> np.ndarray:
    """Whether iterating the protocol from each initial fidelity in F0
    gains ground.  Each lane starts on the preset as :func:`make_preset`
    builds it and follows the stall rule of :func:`run_protocol`; a lane
    leaves the block once it stalls.
    """
    StatePreset(preset_kind, 1.0, x_weight)  # the preset's own validation
    s = preset_block(preset_kind, d, F0, x_weight)
    final = F0.copy()
    lanes = np.arange(F0.size)
    stall = np.zeros(F0.size, dtype=int)
    for _ in range(iterations):
        F = s[0, 0]
        _, s, _ = _advance(protocol, s, d, Q, _sector_conv)
        stall = _stall_count(stall, s[0, 0], F)
        done = stall >= STALL_RUNS
        if np.count_nonzero(done):
            final[lanes[done]] = s[0, 0, done]
            keep = ~done
            s, lanes, stall = s[..., keep], lanes[keep], stall[keep]
            if not lanes.size:
                break
    final[lanes] = s[0, 0]
    return final > F0 + IMPROVE_TOL


def _bisect(improves, bad: float, good: float, tol: float, levels: int) -> float:
    """Bisect the edge between a failing and an improving value.

    ``improves`` maps an array of values to one verdict each.  It gets the
    midpoints of the next ``levels`` sequential steps at once, as a tree
    in level order (node i has children 2i + 1 if its midpoint fails,
    2i + 2 if it improves), computed as the sequential steps compute them;
    the walk follows the verdicts, so the result is sequential bisection's.
    """
    n = 2**levels - 1
    while abs(good - bad) > tol:
        lo, hi = [bad], [good]
        for i in range(n // 2):
            mid = 0.5 * (lo[i] + hi[i])
            lo += [mid, lo[i]]
            hi += [hi[i], mid]
        mids = 0.5 * (np.array(lo) + np.array(hi))
        ok = improves(mids)
        i = 0
        while i < n and abs(good - bad) > tol:
            if ok[i]:
                good, i = mids[i], 2 * i + 2
            else:
                bad, i = mids[i], 2 * i + 1
    return 0.5 * (bad + good)


def _scan_grid(protocol: str, d, grid: int, iterations: int, tol: float):
    """Check a scan's arguments; return d and the initial fidelities,
    from just above 1/d**2 to just below 1."""
    if protocol not in (P1P2, DEJMPS, BBPSSW):
        raise ValueError(f"scans support two-copy protocols, got {protocol!r}")
    d = check_dimension(d)
    if grid < 2:
        raise ValueError(f"fidelity grid needs at least 2 points, got {grid}")
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection tolerance must be finite and positive, got {tol}")
    return d, np.linspace(1.0 / (d * d) + 1e-9, 1.0 - 1e-6, grid)


def regime_scan(
    protocol: str,
    d: int,
    Q: float = 1.0,
    preset_kind: str = "isotropic",
    *,
    x_weight: float = 0.25,
    grid: int = 192,
    iterations: int = 200,
    refine_tol: float = 1e-8,
) -> PurificationRegime:
    """Numerically locate the interval of purifiable initial fidelities.

    Initial states are drawn from the given preset family parameterized
    by F.  The whole F-grid is iterated at once.  Regimes sit around
    mid-range fidelities, so the purifiable point nearest the middle
    (the lower one on ties) picks the interval; the nearest failing point
    on each side brackets its edge, and bisection sharpens each edge to
    ``refine_tol``.  The convergence test iterates the noisy protocol up
    to ``iterations`` rounds with the stall rule of :func:`run_protocol`,
    on the preset sector (see :func:`_sector_conv`), so it costs the
    same at any d.
    For the twirl protocol the edges agree with
    :func:`bbpssw_fixed_points` to bisection accuracy.
    """
    d, Fs = _scan_grid(protocol, d, grid, iterations, refine_tol)
    check_unit_interval(Q, "retention Q")

    def improves(Fs: np.ndarray) -> np.ndarray:
        return _lanes_improve(protocol, d, Q, preset_kind, x_weight, Fs, iterations)

    ok = improves(Fs)
    hits = np.flatnonzero(ok)
    if not hits.size:
        center = min(max((d + 1.0) / (2.0 * d), float(Fs[0])), float(Fs[-1]))
        return PurificationRegime(F_min=center, F_max=center, purifiable=False)

    hit = hits[np.argmin(np.abs(hits - grid // 2))]
    fails = np.flatnonzero(~ok)
    i = np.searchsorted(fails, hit)

    # One 31-lane call holds every midpoint of an edge's next five steps.
    edge = functools.partial(_bisect, improves, tol=refine_tol, levels=5)
    F_min = edge(Fs[fails[i - 1]], Fs[fails[i - 1] + 1]) if i else Fs[0]
    F_max = edge(Fs[fails[i]], Fs[fails[i] - 1]) if i < fails.size else 1.0
    return PurificationRegime(F_min=F_min, F_max=F_max, purifiable=True)


def noise_threshold(
    protocol: str,
    d: int,
    preset_kind: str = "isotropic",
    *,
    x_weight: float = 0.25,
    q_lo: float = 0.7,
    q_hi: float = 1.0,
    q_tol: float = 1e-3,
    grid: int = 128,
    iterations: int = 160,
) -> float:
    """Smallest gate retention Q at which any initial fidelity purifies.

    Bisects Q on the predicate "the purification regime is non-empty",
    each evaluation iterating the fidelity grid of :func:`regime_scan`.
    For the twirl protocol prefer the closed form
    :func:`bbpssw_threshold`; the numeric route exists to cross-check it
    and to handle the adaptive and fixed-swap protocols.
    """
    d, Fs = _scan_grid(protocol, d, grid, iterations, q_tol)
    check_unit_interval(q_lo, "retention q_lo")
    check_unit_interval(q_hi, "retention q_hi")

    def purifiable(Q: float) -> bool:
        ok = _lanes_improve(protocol, d, Q, preset_kind, x_weight, Fs, iterations)
        return bool(ok.any())

    if not purifiable(q_hi):
        raise ValueError(
            f"protocol {protocol} does not purify {preset_kind} states at Q={q_hi}"
        )
    while purifiable(q_lo):
        q_hi = q_lo
        q_lo -= 0.1
        if q_lo <= 0.0:
            return 0.0
    # One level per call: a Q evaluation is already a whole grid of lanes.
    return float(_bisect(lambda Qs: [purifiable(Q) for Q in Qs], q_lo, q_hi, q_tol, 1))
