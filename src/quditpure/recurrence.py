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
    CoeffMatrix, StatePreset, depolarize_channel, depolarized, isotropic, make_preset,
    preset_weights,
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
# builds a d**3 temporary, and from about d = 32 to 37 on a 2-CPU x86 VM
# a real FFT overtakes it.  Both are exact up to rounding.
GATHER_MAX_D = 31


@functools.cache
def _gather_index(d: int) -> np.ndarray:
    """``idx[k, m] = (k - m) mod d``, shared read-only (only d <= GATHER_MAX_D)."""
    k = np.arange(d)
    idx = (k[:, None] - k[None, :]) % d
    idx.setflags(write=False)
    return idx


def _phase_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cyclic convolution of every column over the row (phase) index::

        out[k, j] = sum_m a[m, j] * b[(k - m) mod d, j]

    Small d gathers the shifted copies of ``b`` and contracts them in one
    call.  Large d multiplies real FFTs along the phase axis, after taking
    out row 0: with ``a = a0 + ra`` and ``b = b0 + rb`` split into row 0
    and the rest, ``conv(a, b) = a[0] * b + b[0] * ra + conv(ra, rb)``.
    Row 0 holds the fidelity, which dominates a purifying state, so the
    FFT's rounding scales with the other weights only.  It can still
    leave exact zeros slightly negative; they are clamped once per round,
    when :class:`CoeffMatrix` validates the state the round returns.
    """
    d = a.shape[0]
    if d <= GATHER_MAX_D:
        return np.einsum("mj,kmj->kj", a, b[_gather_index(d)])
    ra = a.copy()
    ra[0] = 0.0
    fa = np.fft.rfft(ra, axis=0)
    if b is a:
        fb = fa
    else:
        rb = b.copy()
        rb[0] = 0.0
        fb = np.fft.rfft(rb, axis=0)
    return np.fft.irfft(fa * fb, n=d, axis=0) + a[0] * b + b[0] * ra


def _conv_round(a: np.ndarray, copies: int, rows: bool) -> tuple[np.ndarray, float]:
    """Normalized output weights and success probability of a round on
    ``copies`` copies of ``a``; with ``rows`` the convolution runs along
    rows (the Fourier-conjugated round)."""
    if rows:
        a = np.ascontiguousarray(a.T)
    raw = _phase_conv(a, a) if copies == 2 else _phase_conv(_phase_conv(a, a), a)
    prob = raw.sum()
    if prob <= 0.0:
        raise ValueError("no surviving branch; state weights are degenerate")
    raw /= prob
    return (raw.T if rows else raw), float(prob)


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
    mapped, prob = _conv_round(state.alpha, 2, False)
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
    mapped, prob = _conv_round(state.alpha, 3, False)
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
    return CoeffMatrix(depolarized(state.alpha, Q, 2))


def dejmps_map(state: CoeffMatrix, Q: float = 1.0) -> tuple[CoeffMatrix, float]:
    """One round of the fixed-swap protocol.

    Applies gate noise, the amplitude-purifying subroutine, and then the
    bilateral Fourier swap so that phase and amplitude errors trade
    places between rounds, as in the DEJMPS qubit protocol.
    """
    mapped, prob = _conv_round(depolarized(state.alpha, Q, 2), 2, False)
    return CoeffMatrix(mapped.T), prob


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
    F, _, _, _, prob = _sector_round(BBPSSW, F, 0.0, 0.0, 0.0, d, Q)
    return F, prob


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


def _advance(
    protocol: str, state: CoeffMatrix, Q: float
) -> tuple[str, CoeffMatrix, float]:
    """One noisy round of a protocol: returns (label, new state, success prob).
    It runs on bare arrays and validates one state, the one it returns."""
    if protocol == DEJMPS:
        mapped, prob = dejmps_map(state, Q)
        return DEJMPS, mapped, prob
    if protocol == BBPSSW:
        # The twirl protocol lives on isotropic states; twirling the input
        # is a no-op once the iteration is underway.
        noisy = depolarized(isotropic(state.d, state.fidelity), Q, 2)
        mapped, prob = _conv_round(noisy, 2, False)
        return BBPSSW, CoeffMatrix(isotropic(state.d, mapped[0, 0])), prob
    if protocol not in (P1P2, THREE_COPY):
        raise ValueError(f"unknown protocol {protocol!r}")
    a = depolarized(state.alpha, Q, 2)
    rows = _phase_dominates(a)
    copies = 3 if protocol == THREE_COPY else 2
    mapped, prob = _conv_round(a, copies, rows)
    label = protocol if copies == 3 else P2 if rows else P1
    return label, CoeffMatrix(mapped), prob


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
        label, current, prob = _advance(protocol, current, noise.Q)
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


def _sector_round(protocol: str, F, x, z, w, d: int, Q: float):
    """One noisy round on the preset sector, at a cost independent of d.

    The sector ``[[F, x...], [z..., w...]]`` (x on row 0, z on column 0,
    w elsewhere) holds the presets and is closed under depolarizing, P1,
    the x <-> z swap of P2 and DEJMPS, and the twirl (x = z = w).  P1P2
    picks P2 exactly when z > x, a swap F cannot see, so its state is
    kept ordered with z <= x instead.  Takes floats or equal-length
    arrays, each lane bit-identical to a one-lane run; returns
    ``(F, x, z, w, success_prob)``.
    """
    if protocol == BBPSSW:
        x = z = w = (1.0 - F) / (d * d - 1)
    r = Q * Q
    mix = (1.0 - r) / (d * d)
    F, x, z, w = r * F + mix, r * x + mix, r * z + mix, r * w + mix
    if protocol == P1P2:
        x, z = np.maximum(x, z), np.minimum(x, z)
    c0 = F + (d - 1.0) * z
    c1 = x + (d - 1.0) * w
    prob = c0 * c0 + (d - 1.0) * c1 * c1
    F, x, z, w = (
        (F * F + (d - 1.0) * z * z) / prob,
        (x * x + (d - 1.0) * w * w) / prob,
        (2.0 * F * z + (d - 2.0) * z * z) / prob,
        (2.0 * x * w + (d - 2.0) * w * w) / prob,
    )
    if protocol == DEJMPS:
        x, z = z, x
    elif protocol == BBPSSW:
        x = z = w = (1.0 - F) / (d * d - 1)
    return F, x, z, w, prob


def _lanes_improve(
    protocol: str, d: int, Q: float, preset_kind: str, x_weight: float,
    F0: np.ndarray, iterations: int,
) -> np.ndarray:
    """Whether iterating the protocol from each initial fidelity in F0
    gains ground.  Each lane starts on the preset as :func:`make_preset`
    builds it and follows the stall rule of :func:`run_protocol`; a lane
    leaves the arrays once it stalls.
    """
    StatePreset(preset_kind, 1.0, x_weight)  # the preset's own validation
    x, z, w = preset_weights(preset_kind, d, F0, x_weight)
    final = F0.copy()
    lanes = np.arange(F0.size)
    F = F0
    stall = np.zeros(F0.size, dtype=int)
    for _ in range(iterations):
        new_F, x, z, w, _ = _sector_round(protocol, F, x, z, w, d, Q)
        stall = _stall_count(stall, new_F, F)
        F = new_F
        done = stall >= STALL_RUNS
        if np.count_nonzero(done):
            final[lanes[done]] = F[done]
            keep = ~done
            lanes, F, x, z, w, stall = (v[keep] for v in (lanes, F, x, z, w, stall))
            if not lanes.size:
                break
    final[lanes] = F
    return final > F0 + IMPROVE_TOL


def _middle_out(n: int) -> list[int]:
    """Indices 0..n-1 ordered from the middle outward.

    Purification regimes sit around mid-range fidelities, so a hit found
    from the middle outward is the common-case regime.
    """
    mid = n // 2
    order = [mid]
    for step in range(1, n):
        for idx in (mid - step, mid + step):
            if 0 <= idx < n:
                order.append(idx)
    return order


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
    by F.  The whole F-grid is iterated at once; the first purifiable
    point from the middle outward is walked to both grid edges of its
    interval, and bisection sharpens each edge to ``refine_tol``.  The
    convergence test iterates the noisy protocol up to ``iterations``
    rounds with the stall rule of :func:`run_protocol`, on the preset
    sector (see :func:`_sector_round`), so it costs the same at any d.
    For the twirl protocol the edges agree with
    :func:`bbpssw_fixed_points` to bisection accuracy.
    """
    d, Fs = _scan_grid(protocol, d, grid, iterations, refine_tol)
    check_unit_interval(Q, "retention Q")

    def improves(Fs: np.ndarray) -> np.ndarray:
        return _lanes_improve(protocol, d, Q, preset_kind, x_weight, Fs, iterations)

    ok = improves(Fs)
    hit = next((i for i in _middle_out(grid) if ok[i]), None)
    if hit is None:
        center = min(max((d + 1.0) / (2.0 * d), float(Fs[0])), float(Fs[-1]))
        return PurificationRegime(F_min=center, F_max=center, purifiable=False)

    # Walk outward from the hit to bracket both edges on the grid.
    left = hit
    while left > 0 and ok[left - 1]:
        left -= 1
    right = hit
    while right < grid - 1 and ok[right + 1]:
        right += 1

    # One 31-lane call holds every midpoint of an edge's next five steps.
    edge = functools.partial(_bisect, improves, tol=refine_tol, levels=5)
    F_min = edge(Fs[left - 1], Fs[left]) if left > 0 else Fs[0]
    F_max = 1.0 if right == grid - 1 else edge(Fs[right + 1], Fs[right])
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
