"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``[acceptance NN] <name>: PASS/FAIL`` line
(visible with ``pytest -s``) and then asserts, so the suite both
documents and enforces the package's headline numbers.

One criterion fails by design and is expected to stay red; it carries
an explanation in its docstring and failure message:

* 06: the d=7 mostly-phase mixture does not purify from F = 1/7 + 0.02
  under the shipped subroutine choice rule (that rule's threshold for
  the mixture sits near 0.1684).  The P1/P2 family itself does purify
  the cell under a suitable schedule, so the rule, not the family, is
  what falls short.
"""

import math
import time

import numpy as np
import pytest

from quditpure import hashing, multipartite, oracle, recurrence
from quditpure.indices import primes_in
from quditpure.states import StatePreset, make_preset, twirl_isotropic


def preset(kind, d, F):
    return make_preset(StatePreset(kind, F), d)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    return ok


def test_01_twirl_threshold_value():
    """Closed-form twirl-protocol threshold at d=5, evaluated in < 1 ms."""
    recurrence.bbpssw_threshold(5)  # warm-up outside the timed window
    start = time.perf_counter()
    value = recurrence.bbpssw_threshold(5)
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.8622) < 1e-4 and elapsed < 1e-3
    assert report(1, "twirl threshold d=5", ok, f"value {value:.6f}, {elapsed*1e6:.0f} us")


def test_02_twirl_fixed_point_consistency():
    """Fixed points are fixed to 1e-9 and the numeric regime scan
    reproduces them to 1e-6, for d in 2..8 and Q in 0.87..1.00."""
    start = time.perf_counter()
    worst_fix = 0.0
    worst_scan = 0.0
    agree = True
    for d in range(2, 9):
        for Q in np.arange(0.87, 1.0 + 1e-9, 0.01):
            Q = float(Q)
            roots = recurrence.bbpssw_fixed_points(d, Q)
            scan = recurrence.regime_scan(recurrence.BBPSSW, d, Q)
            agree = agree and (scan.purifiable == roots.purifiable)
            if roots.purifiable:
                worst_fix = max(
                    worst_fix,
                    abs(recurrence.bbpssw_step(roots.F_min, d, Q)[0] - roots.F_min),
                    abs(recurrence.bbpssw_step(roots.F_max, d, Q)[0] - roots.F_max),
                )
                worst_scan = max(
                    worst_scan,
                    abs(scan.F_min - roots.F_min),
                    abs(scan.F_max - roots.F_max),
                )
    elapsed = time.perf_counter() - start
    ok = agree and worst_fix < 1e-9 and worst_scan < 1e-6 and elapsed < 5.0
    assert report(
        2,
        "twirl fixed-point consistency",
        ok,
        f"fix {worst_fix:.1e}, scan {worst_scan:.1e}, {elapsed:.1f}s",
    )


def test_03_twirl_threshold_scaling():
    """Threshold approaches sqrt(2) * d**(-1/4) within 1% by d = 10**6."""
    d = 10**6
    ratio = recurrence.bbpssw_threshold(d) / recurrence.bbpssw_threshold_asymptote(d)
    ok = abs(ratio - 1.0) < 0.01
    assert report(3, "twirl threshold scaling", ok, f"ratio {ratio:.8f}")


def test_04_adaptive_noise_tolerance():
    """Adaptive protocol tolerates ~6% gate noise at d=2 and ~17% at d=6."""
    start = time.perf_counter()
    q2 = recurrence.noise_threshold(recurrence.P1P2, 2)
    q6 = recurrence.noise_threshold(recurrence.P1P2, 6)
    elapsed = time.perf_counter() - start
    ok = 0.93 <= q2 <= 0.95 and 0.81 <= q6 <= 0.85 and elapsed < 60.0
    assert report(
        4,
        "adaptive noise tolerance",
        ok,
        f"Q(d=2) {q2:.4f}, Q(d=6) {q6:.4f}, {elapsed:.1f}s",
    )


def test_05_oracle_equivalence():
    """Coefficient-level maps match dense quantum mechanics to 1e-10 on
    50 random states per dimension and variant."""
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        for variant in ("P1", "P2", "THREE_COPY"):
            state_dev, prob_dev = oracle.recurrence_map_deviation(
                d, variant, trials=50, seed=12345
            )
            worst = max(worst, state_dev, prob_dev)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 120.0
    assert report(5, "oracle equivalence", ok, f"worst {worst:.1e}, {elapsed:.1f}s")


def test_06_noiseless_purifiability():
    """Every preset with F = 1/d + 0.02 purifies without noise, and
    isotropic F = 1/d - 0.02 stalls.

    EXPECTED FAIL: the d=7 mostly-phase mixture (xz_mixture, a quarter
    of the error weight on amplitudes) does not purify from
    F = 1/7 + 0.02 ~ 0.1629 under the shipped choice rule
    (``recurrence.choose_subroutine``, which compares pure-phase against
    pure-amplitude weight).  Its trajectory enters a slowly decaying
    quasi-cycle towards F = 1/7; bisection places that rule's threshold
    for the mixture near F = 0.1684.  Greedy max-F and strict P1/P2
    alternation also decay to 1/7 over 2000 rounds.  The P1/P2 family
    itself is not at fault: the fixed schedule
    ``P1 P2 P2 P1 P2*8 P1 P2 P2 P2 P1 P1 P2 P2 P1 P2 P1 P2`` takes the
    cell to F = 0.99925, after which the shipped rule reaches 1 - 1e-7
    in two rounds.  Nor are the maps: at d = 7 they match the label
    action of the bilateral GXOR and Fourier gates exactly
    (``test_recurrence.TestLabelAction``); the dense oracle stops at
    d = 5 and does not reach this cell.  The remaining 15 preset cells
    and all four converse cells behave as stated.  Mending the cell
    needs a different choice rule; the test stays red until one ships.
    """
    failures = []
    for d in (2, 3, 5, 7):
        for kind in ("isotropic", "x_only", "z_only", "xz_mixture"):
            traj = recurrence.run_protocol(
                recurrence.P1P2, preset(kind, d, 1 / d + 0.02), epsilon=1e-4, max_iters=200
            )
            if not traj.reached_target:
                failures.append(f"{kind} d={d} stalled at {traj.final_fidelity:.4f}")
    for d in (2, 3, 5, 7):
        traj = recurrence.run_protocol(
            recurrence.P1P2, preset("isotropic", d, 1 / d - 0.02), epsilon=1e-4, max_iters=200
        )
        if traj.reached_target:
            failures.append(f"isotropic d={d} purified from below 1/d")
    ok = not failures
    assert report(6, "noiseless purifiability", ok, "; ".join(failures)), (
        "purifiability claim fails for: "
        + "; ".join(failures)
        + " — under the shipped choice rule the mostly-phase d=7 mixture"
        " needs F ~0.1684 > 1/7 + 0.02"
    )


def test_07_hashing_minimal_fidelity():
    """min_fidelity(2) ~ 0.811, decreasing over primes, always > 1/2."""
    values = [hashing.min_fidelity(d) for d in primes_in(2, 101)]
    ok = (
        0.8097 <= values[0] <= 0.8117
        and all(b < a for a, b in zip(values, values[1:]))
        and all(v > 0.5 for v in values)
    )
    assert report(7, "hashing minimal fidelity", ok, f"F_min(2) {values[0]:.6f}")


def first_order_q_min(d):
    """Hashing threshold q_min(d) to first order in 1/ln d.

    For the isotropic state, S_d(F) = 1 reads
    h(F) + (1 - F) ln(d**2 - 1) = ln d, with h the binary entropy in
    nats.  Taking ln(d**2 - 1) ~ 2 ln d and h(F) ~ h(1/2) = ln 2 gives
    F_min(d) = 1/2 + ln 2 / (2 ln d) + ..., and since F ~ p**2 = q**4
    up to O(1/d**2), q_min(d) ~ F_min(d)**(1/4).
    """
    return (0.5 + math.log(2.0) / (2.0 * math.log(d))) ** 0.25


def test_08_noisy_hashing_thresholds():
    """Per-particle noise thresholds for hashing: the small-d values at
    d = 2 and 11, the 1/ln d approach at d = 9973, and the large-d
    limit 2**(-1/4) ~ 0.8409 to within 0.01.

    ``first_order_q_min`` shows that q_min(d) - 2**(-1/4) decays only
    like 1/ln d.  The formula gives 0.856294 at d = 9973, 0.0154 from
    the limit, so no correct program meets the 0.01 tolerance there; it
    enters that band only near d ~ 1.6e6.  The limit clause is therefore
    evaluated at d = 10_000_019, the first prime above 10**7, where the
    formula predicts 0.84980 (gap 0.0089).  d = 9973 checks the rate
    instead: q_min(9973) must match the formula to 1e-3.  The sequence
    must also fall strictly towards the limit.
    """
    d_mid, d_big = 9973, 10_000_019
    _, q2 = hashing.noisy_thresholds(2)
    _, q11 = hashing.noisy_thresholds(11)
    _, q_mid = hashing.noisy_thresholds(d_mid)
    _, q_big = hashing.noisy_thresholds(d_big)
    gap = abs(q_big - 0.8409)
    rate_dev = abs(q_mid - first_order_q_min(d_mid))
    ok = (
        0.925 <= q2 <= 0.935
        and 0.885 <= q11 <= 0.90
        and gap < 0.01
        and rate_dev < 1e-3
        and 2.0**-0.25 < q_big < q_mid < q11 < q2
    )
    assert report(
        8,
        "noisy hashing thresholds",
        ok,
        f"q(2) {q2:.4f}, q(11) {q11:.4f}, q({d_mid}) {q_mid:.6f} "
        f"(first-order dev {rate_dev:.1e}), q({d_big}) {q_big:.6f} (gap {gap:.4f})",
    ), (
        f"q_min(2) = {q2:.6f}, q_min(11) = {q11:.6f}, "
        f"q_min({d_mid}) = {q_mid:.6f} against first order "
        f"{first_order_q_min(d_mid):.6f}, q_min({d_big}) = {q_big:.6f} "
        f"sits {gap:.4f} from the 0.8409 limit"
    )


def test_09_universal_threshold():
    """Entanglement limit: exactly 3**(-1/4) at d=2, approaching
    d**(-1/4) within 1% by d = 10**6."""
    exact = abs(hashing.universal_threshold(2) - 3.0 ** -0.25)
    d = 10**6
    ratio = hashing.universal_threshold(d) / d**-0.25
    ok = exact < 1e-12 and abs(ratio - 1.0) < 0.01
    assert report(
        9, "universal threshold", ok, f"|q(2)-3^-1/4| {exact:.1e}, ratio {ratio:.8f}"
    )


def test_10_finite_size_hashing():
    """d=5, F=0.99, delta = n**(-1/5): yield turns positive at n ~ 40,
    the output-fidelity bound is monotone in n, and the collision
    bound hits 2**(-10) on the spot check."""
    crossing = next(
        n
        for n in range(2, 200)
        if hashing.finite_size_report(5, n, 0.99, "npow:-0.2")["yield"] > 0.0
    )
    bounds = [
        hashing.finite_size_report(5, n, 0.99, "npow:-0.2")["F_out_bound"]
        for n in (50, 100, 200, 400, 800, 1600)
    ]
    monotone = all(b >= a for a, b in zip(bounds, bounds[1:]))
    spot = hashing.finite_size_report(2, 100, 0.95, 0.1)["p2"]
    ok = abs(crossing - 40) <= 5 and monotone and spot == 2.0**-10
    assert report(
        10,
        "finite-size hashing",
        ok,
        f"crossing n={crossing}, monotone {monotone}, p2 {spot:.6g}",
    )


def test_11_parity_collision_montecarlo():
    """Random-parity collision rate matches 1/d within 4 sigma at 10**5
    trials for each prime d."""
    start = time.perf_counter()
    worst_sigmas = 0.0
    trials = 100_000
    for d in (2, 3, 5, 7):
        rate = hashing.lemma1_montecarlo(d, 8, trials=trials, seed=0)
        sigma = math.sqrt((1 / d) * (1 - 1 / d) / trials)
        worst_sigmas = max(worst_sigmas, abs(rate - 1 / d) / sigma)
    elapsed = time.perf_counter() - start
    ok = worst_sigmas < 4.0 and elapsed < 30.0
    assert report(
        11,
        "parity collision Monte Carlo",
        ok,
        f"worst {worst_sigmas:.2f} sigma, {elapsed:.1f}s",
    )


def test_12_multipartite_yields():
    """Closed-form multiparty yield equals the entropy route to 1e-10,
    is 1 at F=1, and shows the documented orderings at F=0.9."""
    worst = 0.0
    for d in (2, 3, 5):
        for N in (2, 3, 4):
            for F in (0.85, 0.9, 0.95, 1.0):
                direct = multipartite.multipartite_yield(
                    multipartite.ghz_isotropic(d, N, F)
                )
                closed = multipartite.isotropic_yield_formula(d, N, F)
                worst = max(worst, abs(direct - closed))
    unit = multipartite.isotropic_yield_formula(2, 3, 1.0) == 1.0
    in_N = [multipartite.isotropic_yield_formula(2, N, 0.9) for N in (2, 3, 4, 5)]
    in_d = [multipartite.isotropic_yield_formula(d, 3, 0.9) for d in (2, 3, 5, 7)]
    orderings = all(b > a for a, b in zip(in_N, in_N[1:])) and all(
        b > a for a, b in zip(in_d, in_d[1:])
    )
    ok = worst < 1e-10 and unit and orderings
    assert report(12, "multipartite yields", ok, f"worst dev {worst:.1e}")


def test_13_yield_comparisons():
    """At d=5 with target 1 - 1e-4: keeping diagonal x_only structure
    beats twirling to isotropic at every F in {0.5, 0.6, 0.7, 0.8}, and
    the adaptive protocol beats the twirl-every-round protocol on the
    isotropic inputs."""
    target = 1 - 1e-4
    ok = True
    detail = []
    for F in (0.5, 0.6, 0.7, 0.8):
        diagonal = preset("x_only", 5, F)
        isotropic = twirl_isotropic(diagonal)
        y_diag = recurrence.yield_run(recurrence.P1P2, diagonal, F_target=target)
        y_iso = recurrence.yield_run(recurrence.P1P2, isotropic, F_target=target)
        y_twirl = recurrence.yield_run(recurrence.BBPSSW, isotropic, F_target=target)
        ok = ok and (y_diag > y_iso >= y_twirl)
        detail.append(f"F={F}: {y_diag:.2e} > {y_iso:.2e} >= {y_twirl:.2e}")
    assert report(13, "yield comparisons", ok, detail[0])
