"""Tests for hashing yields, thresholds, and finite-size bounds."""

import itertools
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from quditpure import hashing, indices
from quditpure.hashing import (
    asymptotic_yield,
    entropy_based,
    finite_size_columns,
    finite_size_report,
    isotropic_entropy,
    lemma1_montecarlo,
    min_fidelity,
    noisy_thresholds,
    universal_threshold,
)
from quditpure.indices import primes_in
from quditpure.states import StatePreset, make_preset


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count the two-CPU runner sees."""
    return lambda count: monkeypatch.setattr(indices, "_cpu_count", lambda: count)


@pytest.fixture
def blocks(monkeypatch):
    """Records the thread and the row count of every Lemma 1 block drawn."""
    calls, real = [], hashing._block_hits

    def counted(rng, d, shape, dtype):
        calls.append((threading.current_thread(), shape[0]))
        return real(rng, d, shape, dtype)

    monkeypatch.setattr(hashing, "_block_hits", counted)
    return calls


def iso(d, F):
    return make_preset(StatePreset("isotropic", F), d)


class TestEntropy:
    def test_isotropic_anchor(self):
        assert isotropic_entropy(2, 0.81) == pytest.approx(
            1.002614335020917, abs=1e-14
        )

    def test_pure_state_zero(self):
        assert isotropic_entropy(3, 1.0) == 0.0
        assert entropy_based(iso(3, 1.0)) == 0.0

    def test_maximally_mixed_two(self):
        for d in (2, 3, 5):
            assert isotropic_entropy(d, 1 / d**2) == pytest.approx(2.0, abs=1e-12)

    def test_matrix_and_scalar_routes_agree(self):
        for d in (2, 5, 11):
            for F in (0.3, 0.77, 0.99):
                assert entropy_based(iso(d, F)) == pytest.approx(
                    isotropic_entropy(d, F), abs=1e-13
                )

    def test_scalar_route_handles_huge_d(self):
        assert 0.0 < isotropic_entropy(9973, 0.9) < 2.0

    def test_rejects_bad_fidelity(self):
        with pytest.raises(ValueError):
            isotropic_entropy(3, 1.5)


class TestAsymptoticYield:
    def test_anchor_d2(self):
        assert asymptotic_yield(iso(2, 0.9)) == pytest.approx(
            0.37250815633860324, abs=1e-12
        )

    def test_increasing_in_d_at_fixed_fidelity(self):
        values = [asymptotic_yield(iso(d, 0.9)) for d in (2, 3, 5, 7, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_clamped_at_zero(self):
        assert asymptotic_yield(iso(2, 0.6)) == 0.0

    def test_pure_yield_one(self):
        assert asymptotic_yield(iso(5, 1.0)) == 1.0

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            asymptotic_yield(iso(4, 0.9))


class TestMinFidelity:
    def test_anchor_d2(self):
        assert min_fidelity(2) == pytest.approx(0.8107103753136473, abs=1e-8)

    def test_entropy_is_one_at_root(self):
        for d in (2, 3, 13):
            assert isotropic_entropy(d, min_fidelity(d)) == pytest.approx(
                1.0, abs=1e-7
            )

    def test_monotone_decreasing_over_primes(self):
        values = [min_fidelity(d) for d in primes_in(2, 101)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_all_above_one_half(self):
        for d in primes_in(2, 101):
            assert min_fidelity(d) > 0.5
        assert min_fidelity(1009) == pytest.approx(0.5497482375880016, abs=1e-8)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            min_fidelity(9)


class TestNoisyThresholds:
    def test_anchor_d2(self):
        p_min, q_min = noisy_thresholds(2)
        assert p_min == pytest.approx(0.8646466525416783, abs=1e-8)
        assert q_min == pytest.approx(0.9298637817130412, abs=1e-8)

    def test_anchor_d11(self):
        p_min, q_min = noisy_thresholds(11)
        assert p_min == pytest.approx(0.7956437900009842, abs=1e-8)
        assert q_min == pytest.approx(0.8919886714532781, abs=1e-8)

    def test_anchor_d9973(self):
        _, q_min = noisy_thresholds(9973)
        assert q_min == pytest.approx(0.8562330693877767, abs=1e-8)

    def test_consistency_identity(self):
        """p_min must reproduce min_fidelity through the channel formula
        F = p**2 + (1 - p**2)/d**2, and q_min**2 must equal p_min."""
        for d in (2, 3, 11, 101):
            F_min = min_fidelity(d)
            p_min, q_min = noisy_thresholds(d)
            assert p_min**2 + (1 - p_min**2) / d**2 == pytest.approx(F_min, abs=1e-12)
            assert q_min**2 == pytest.approx(p_min, abs=1e-12)

    def test_above_universal_threshold(self):
        """Hashing tolerates less noise than the entanglement limit."""
        for d in (2, 5, 23):
            _, q_min = noisy_thresholds(d)
            assert q_min > universal_threshold(d)

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            noisy_thresholds(6)


class TestUniversalThreshold:
    def test_exact_d2(self):
        assert universal_threshold(2) == 3.0**-0.25

    def test_closed_form(self):
        for d in (3, 7, 100):
            assert universal_threshold(d) == pytest.approx(
                (d + 1.0) ** -0.25, abs=1e-14
            )

    def test_approaches_d_power_law(self):
        d = 10**6
        ratio = universal_threshold(d) / d**-0.25
        assert abs(ratio - 1.0) < 0.01

    def test_decreasing_in_d(self):
        values = [universal_threshold(d) for d in range(2, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))


def resolved_delta(policy, n=10):
    """The margin delta that finite_size_columns takes from ``policy`` at block size n."""
    return finite_size_columns(3, [n], 0.9, policy)["delta"][0]


class TestResolveDelta:
    def test_fixed_number_and_string(self):
        assert resolved_delta(0.05, 100) == 0.05
        assert resolved_delta("fixed:0.05", 100) == 0.05

    def test_npow(self):
        assert resolved_delta("npow:-0.25", 16) == pytest.approx(0.5, abs=1e-15)

    def test_n_to_1(self):
        report = finite_size_report(3, 10, 0.9, "n_to_1")
        assert report["delta"] == pytest.approx(0.5 * (0.9 - report["S"]), abs=1e-15)

    def test_rejects_bad_policies(self):
        with pytest.raises(ValueError):
            resolved_delta(-0.1)
        with pytest.raises(ValueError):
            resolved_delta("npow:0.5")
        with pytest.raises(ValueError):
            resolved_delta("bogus")
        with pytest.raises(ValueError):
            resolved_delta(None)

    @pytest.mark.parametrize(
        "policy, message",
        [
            (math.nan, "fixed delta"),
            (math.inf, "fixed delta"),
            ("fixed:nan", "fixed delta"),
            ("fixed:inf", "fixed delta"),
            ("npow:nan", "npow exponent"),
            ("npow:-inf", "npow exponent"),
        ],
    )
    def test_rejects_non_finite_policies(self, policy, message):
        """NaN fails both of the sign tests, and an infinite margin or
        exponent gives delta inf or 0 for every n."""
        with pytest.raises(ValueError, match=f"{message} must be finite"):
            resolved_delta(policy)


class TestFiniteSizeReport:
    def test_yield_crossing_near_n_43(self):
        """d=5, F=0.99, delta = n**(-1/5): the first block size with a
        positive distillable fraction is n = 43."""
        assert finite_size_report(5, 42, 0.99, "npow:-0.2")["yield"] == 0.0
        report = finite_size_report(5, 43, 0.99, "npow:-0.2")
        assert report["yield"] > 0.0
        assert report["yield"] == pytest.approx(0.00283868173688151, abs=1e-10)

    def test_structural_identities(self):
        report = finite_size_report(3, 500, 0.97, 0.02)
        assert report["r"] == math.ceil(500 * (report["S"] + 2 * 0.02) - 1e-12)
        assert report["p2"] == pytest.approx(3.0 ** (-500 * 0.02), abs=1e-15)
        assert report["yield_raw"] == pytest.approx(1 - report["S"] - 2 * 0.02, abs=1e-14)
        # The raw concentration bound is about 1.76 at this n: p1_bound
        # reports it clamped to 1, and F_out_raw keeps the raw value.
        assert report["p1_bound"] == 1.0
        assert report["F_out_raw"] == pytest.approx(-0.7589165867560562, abs=1e-14)
        assert report["F_out_bound"] == 0.0
        longer = finite_size_report(3, 5000, 0.97, 0.02)
        assert 0.0 < longer["p1_bound"] < 1.0
        assert longer["F_out_raw"] == pytest.approx(
            1 - longer["p1_bound"] - longer["p2"], abs=1e-14
        )

    def test_p2_spot_check(self):
        assert finite_size_report(2, 100, 0.95, 0.1)["p2"] == 2.0**-10

    def test_pure_input_edge(self):
        """At F=1 the block is never atypical, so only collisions hurt."""
        report = finite_size_report(3, 50, 1.0, 0.05)
        assert report["p1_bound"] == 0.0
        assert report["F_out_bound"] == pytest.approx(1.0 - report["p2"], abs=1e-14)

    def test_n_to_1_feasible(self):
        report = finite_size_report(2, 10, 0.95, "n_to_1")
        assert report["feasible"]
        assert report["delta"] == pytest.approx(0.2671774589239929, abs=1e-12)
        assert report["yield"] == pytest.approx(0.1, abs=1e-12)
        assert report["r"] == 9

    def test_n_to_1_infeasible(self):
        report = finite_size_report(2, 10, 0.7, "n_to_1")
        assert not report["feasible"]
        assert report["delta"] < 0.0
        assert report["yield"] == 0.0
        assert report["p1_bound"] == 1.0 and report["p2"] == 1.0

    def test_f_out_monotone_in_n(self):
        bounds = [
            finite_size_report(5, n, 0.99, "npow:-0.2")["F_out_bound"]
            for n in (50, 100, 200, 400, 800)
        ]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))

    def test_finite_yield_approaches_asymptote(self):
        """The finite-size yield sits exactly 2*delta below the
        asymptotic one while positive, so the gap closes as n grows."""
        F = 0.99
        target = asymptotic_yield(iso(5, F))
        for n in (10**4, 10**6):
            report = finite_size_report(5, n, F, "npow:-0.25")
            assert target - report["yield"] == pytest.approx(
                2 * report["delta"], abs=1e-12
            )

    def test_minimal_usable_fidelity_decreases_with_d(self):
        """Smallest F with positive yield at n=10**4, found by scanning:
        larger alphabets tolerate lower fidelity."""

        def minimal_F(d):
            for F in np.arange(1 / d**2 + 0.01, 1.0, 0.002):
                if finite_size_report(d, 10**4, float(F), "npow:-0.25")["yield"] > 0:
                    return float(F)
            return 1.0

        values = [minimal_F(d) for d in (2, 3, 7)]
        assert values[0] > values[1] > values[2]
        assert values[0] == pytest.approx(0.862, abs=2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_size_report(4, 100, 0.9)  # composite d
        with pytest.raises(ValueError):
            finite_size_report(2, 1, 0.9)  # block too small
        with pytest.raises(ValueError):
            finite_size_report(2, 100, 0.2)  # at or below 1/d**2
        with pytest.raises(ValueError):
            finite_size_report(2, 100, 1.1)


class TestFiniteSizeSweep:
    """The columns are the one finite-size code path; a report is one of their rows."""

    @pytest.mark.parametrize(
        "d, F, policy",
        [
            (5, 0.9, "npow:-0.25"),
            (5, 0.99, "npow:-0.2"),
            (3, 0.95, "fixed:0.05"),
            (3, 0.97, 0.02),
            (2, 0.85, "n_to_1"),  # infeasible below n = 7
            (2, 0.7, "n_to_1"),  # infeasible everywhere
            (7, 1.0, "n_to_1"),  # pure input
            (11, 1.0, "npow:-0.25"),
        ],
    )
    def test_rows_equal_single_reports(self, d, F, policy):
        ns = [2, 3, 7, 10, 43, 99, 1000, 12345, 10**6]
        columns = finite_size_columns(d, ns, F, policy)
        rows = list(zip(*columns.values()))
        assert len(rows) == len(ns)
        for n, row in zip(ns, rows):
            single = finite_size_report(d, n, F, policy)
            assert list(single) == list(columns)
            for field, a, b in zip(columns, row, single.values()):
                assert type(a) is type(b) and a == b, (n, field, a, b)
        assert (not all(columns["feasible"])) == (policy == "n_to_1" and F < 0.9)

    def test_empty_sweep(self):
        columns = finite_size_columns(5, [], 0.9)
        assert len(columns) == 13 and all(column == [] for column in columns.values())

    def test_rejects_fractional_block_size(self):
        """10.5 is not a block size; it used to be truncated to n = 10."""
        with pytest.raises(ValueError, match="block size n must be an integer, got 10.5"):
            finite_size_report(5, 10.5, 0.9)
        with pytest.raises(ValueError, match="got 10.5"):
            finite_size_columns(5, [10, 10.5], 0.9)

    @pytest.mark.parametrize("n", [10.0, np.int64(10)])
    def test_accepts_integral_block_size(self, n):
        report = finite_size_report(5, n, 0.9)
        assert report == finite_size_report(5, 10, 0.9)
        assert type(report["n"]) is int

    @pytest.mark.parametrize(
        "d, ns, F, policy, message",
        [
            (5, [10, 20, 1], 0.9, "npow:-0.25", "block size"),
            (5, [0, 20], 0.9, "npow:-0.25", "block size"),
            (4, [10, 20], 0.9, "npow:-0.25", "prime"),
            (5, [10, 20], 0.04, "npow:-0.25", "fidelity"),
            (5, [10, 20], 1.1, "npow:-0.25", "fidelity"),
            (5, [10, 20], 0.9, "npow:0.5", "exponent"),
            (5, [10, 20], 0.9, "fixed:-0.1", "positive"),
            (5, [10, 20], 0.9, -0.1, "positive"),
            (5, [10, 20], 0.9, "bogus", "unrecognized"),
            (5, [10, 20], 0.9, None, "unrecognized"),
        ],
    )
    def test_rejects_bad_input_before_any_row(self, monkeypatch, d, ns, F, policy, message):
        def no_rows(*args):
            raise AssertionError("a row was built before the input was checked")

        monkeypatch.setattr(hashing, "_columns", no_rows)
        with pytest.raises(ValueError, match=message):
            finite_size_columns(d, ns, F, policy)
        if min(ns) >= 2:
            with pytest.raises(ValueError, match=message):
                finite_size_report(d, ns[0], F, policy)


def reference_delta(policy, S, n):
    """The margin delta of a valid policy at one block size n."""
    if not isinstance(policy, str):
        return float(policy)
    if policy == "n_to_1":
        return 0.5 * ((n - 1.0) / n - S)
    kind, value = policy.split(":")
    return float(value) if kind == "fixed" else float(n) ** float(value)


def reference_sweep(d, ns, F, policy):
    """The rows of finite_size_columns one at a time, as they were computed
    before they were worked out by columns: Python floats and the math
    module throughout."""
    S = isotropic_entropy(d, F)
    if F >= 1.0:
        a = g = 0.0
    else:
        log_d = math.log(d)
        tail = (1.0 - F) / (d * d - 1.0)
        a = abs(math.log(tail) / log_d) + S
        lF = math.log(F) / log_d
        lt = math.log(tail) / log_d
        g = max(F * lF * lF + (1.0 - F) * lt * lt - S * S, 0.0) / a
    rows = []
    for n in ns:
        delta = reference_delta(policy, S, n)
        yield_raw = 1.0 - S - 2.0 * delta
        r = max(0, math.ceil(n * (S + 2.0 * delta) - 1e-12))
        if not delta > 0.0:
            rows.append((d, n, F, delta, S, r, 0.0, 1.0, 1.0, 0.0, yield_raw, -1.0, False))
            continue
        p2 = float(d) ** (-n * delta)
        if g <= 0.0:
            p1 = 0.0
        else:
            exponent = -(n / a) * ((g + delta) * math.log1p(delta / g) - delta)
            p1 = 2.0 * math.exp(exponent)
        F_out_raw = 1.0 - p1 - p2
        rows.append((
            d, n, F, delta, S, r, max(0.0, yield_raw), min(1.0, p1), p2,
            min(1.0, max(0.0, F_out_raw)), yield_raw, F_out_raw, True,
        ))
    return rows


# Short and long blocks, the n = 43 yield crossing, a float64 tie
# (2**53 + 1 rounds to 2**53) and r past int64 (10**20).
REFERENCE_NS = (
    [2, 3, 43, 10**6, 2**53 + 1, 10**20]
    + list(range(4, 3000, 7))
    + [int(10 ** (k / 8)) for k in range(24, 160)]
)


class TestColumnsMatchScalarReference:
    """The columns give the scalar loop's values bit for bit: same type,
    same value, same sign of zero, for every field of every row."""

    @pytest.mark.parametrize(
        "d, F, policy",
        [
            (5, 0.9, "npow:-0.25"),
            (5, 0.99, "npow:-0.2"),
            (3, 0.95, "fixed:0.05"),
            (3, 0.97, 0.02),
            (7, 0.93, "n_to_1"),  # feasible from n = 2
            (2, 0.85, "n_to_1"),  # infeasible below n = 7
            (2, 0.7, "n_to_1"),  # infeasible everywhere
            (7, 1.0, "n_to_1"),  # pure input
            (11, 1.0, "npow:-0.25"),
            (2, 0.999999, 0.3),
            (9973, 0.6, "npow:-0.1"),
        ],
    )
    def test_rows_match_reference(self, d, F, policy):
        ns = REFERENCE_NS
        columns = finite_size_columns(d, ns, F, policy)
        # The order of `hashing --n --format csv`'s columns.
        assert list(columns) == [
            "d", "n", "F", "delta", "S", "r", "yield", "p1_bound", "p2",
            "F_out_bound", "yield_raw", "F_out_raw", "feasible",
        ]
        rows = zip(*columns.values())
        for n, row, ref in zip(ns, rows, reference_sweep(d, ns, F, policy), strict=True):
            for field, a, b in zip(columns, row, ref, strict=True):
                assert type(a) is type(b) and a == b, (n, field, a, b)
                if type(a) is float:
                    assert math.copysign(1.0, a) == math.copysign(1.0, b), (n, field, a, b)

    def test_infeasible_rows_occur(self):
        feasible = finite_size_columns(2, REFERENCE_NS, 0.85, "n_to_1")["feasible"]
        assert not all(feasible) and any(feasible)
        assert not any(finite_size_columns(2, REFERENCE_NS, 0.7, "n_to_1")["feasible"])

    def test_r_stays_exact_past_int64(self):
        (r,) = finite_size_columns(5, [10**20], 0.9)["r"]
        assert type(r) is int and r > 2**63
        delta = float(10**20) ** -0.25
        assert r == math.ceil(10**20 * (isotropic_entropy(5, 0.9) + 2 * delta) - 1e-12)


class TestLemma1MonteCarlo:
    @pytest.mark.parametrize(
        "d, n, trials, seed, rate",
        [
            (2, 8, 10_000, 0, 0.4954),
            (2, 1, 10_007, 42, 0.5031477965424203),
            (3, 5, 250_000, 7, 0.33324),
            (5, 20, 130_001, 11, 0.19873693279282467),
            (7, 3, 100_000, 3, 0.14317),
            (2, 1, 250_000, 5, 0.499924),
            (251, 3, 10_000, 4, 0.0035),
            (257, 20, 10_000, 1, 0.0028),
            (65_521, 1, 100_000, 3, 0.0),
            (65_537, 1, 200_000, 2, 1.5e-05),
            (1_431_655_777, 1, 150_000, 3, 0.0),
        ],
    )
    def test_pinned_rates(self, cpus, d, n, trials, seed, rate):
        """Exact floats, so any change to the draws or to the parity
        arithmetic shows; 130,001 and 250,000 trials end each half on a
        partial 2,000-row block, and 10,007 splits into unequal halves.
        At d = 2, n = 1 a quarter of the rows redraw delta, in every
        block; d = 251, 257, 65,521 and 65,537 sit on either side of the
        uint8 and uint16 limits of the draws; d = 1,431,655,777 is just
        above 2**32 / 3, so numpy's bounded draw rejects about a third of
        its 32-bit words.  The same on one CPU and on two, where the
        halves run at once."""
        for count in (1, 2):
            cpus(count)
            assert lemma1_montecarlo(d, n, trials=trials, seed=seed) == rate

    @pytest.mark.parametrize(
        "d, n, trials, seed",
        [(2, 1, 10_007, 42), (7, 3, 120_001, 3), (257, 2, 10_001, 1), (65_537, 1, 10_000, 5)],
    )
    def test_matches_whole_array_reference(self, d, n, trials, seed):
        """Each half draws its 2,000-row blocks from its own spawned
        stream: delta, then the redraws of its all-zero rows, then s, in
        the narrowest unsigned type that holds d - 1."""
        dtype = np.uint8 if d <= 256 else np.uint16 if d <= 65_536 else np.uint32
        hits = 0
        halves = (trials // 2, trials - trials // 2)
        for size, stream in zip(halves, np.random.SeedSequence(seed).spawn(2)):
            rng = np.random.default_rng(stream)
            for start in range(0, size, 2_000):
                rows = min(2_000, size - start)
                delta = rng.integers(0, d, (rows, 2 * n), dtype=dtype)
                zero = [i for i in range(rows) if not delta[i].any()]
                while zero:
                    delta[zero] = rng.integers(0, d, (len(zero), 2 * n), dtype=dtype)
                    zero = [i for i in zero if not delta[i].any()]
                s = rng.integers(0, d, (rows, 2 * n), dtype=dtype)
                parity = (s.astype(np.int64) * delta.astype(np.int64)).sum(axis=1) % d
                hits += int(np.count_nonzero(parity == 0))
        assert lemma1_montecarlo(d, n, trials=trials, seed=seed) == hits / trials

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_collision_rate_matches_1_over_d(self, d):
        trials = 100_000
        rate = lemma1_montecarlo(d, 8, trials=trials, seed=0)
        sigma = math.sqrt((1 / d) * (1 - 1 / d) / trials)
        assert abs(rate - 1 / d) < 4 * sigma

    def test_deterministic_under_seed(self):
        a = lemma1_montecarlo(3, 8, trials=10_000, seed=7)
        b = lemma1_montecarlo(3, 8, trials=10_000, seed=7)
        assert a == b

    def test_rejects_small_trial_counts(self):
        with pytest.raises(ValueError, match="^trials must be at least 10000, got 100$"):
            lemma1_montecarlo(2, 8, trials=100)

    def test_rejects_composite_d(self):
        with pytest.raises(ValueError):
            lemma1_montecarlo(4, 8)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="^string half-length n must be at least 1, got 0$"):
            lemma1_montecarlo(2, 0)

    @pytest.mark.parametrize(
        "n, trials, message",
        [(2.5, 10_000, "half-length n must be an integer"),
         (8, 10_000.9, "trials must be an integer")],
    )
    def test_rejects_non_integer_sizes(self, n, trials, message):
        with pytest.raises(ValueError, match=message):
            lemma1_montecarlo(5, n, trials=trials)

    def test_accepts_integral_floats(self):
        assert lemma1_montecarlo(2, 8.0, trials=10_000.0) == lemma1_montecarlo(2, 8, trials=10_000)

    @pytest.mark.parametrize(
        "seed, message",
        [(1.5, r"^seed must be an integer, got 1\.5$"), (-1, "^seed must be at least 0, got -1$")],
    )
    def test_rejects_bad_seed_before_any_draw(self, seed, message, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a block was drawn before the seed was checked")

        monkeypatch.setattr(hashing, "_block_hits", no_draws)
        with pytest.raises(ValueError, match=message):
            lemma1_montecarlo(5, 20, trials=10_000, seed=seed)

    # 2n (d - 1)**2 < 2**63 at n = 20 holds for d = 480_191_923, the largest
    # prime below the bound, and fails for the next prime, 480_191_951.
    @pytest.mark.parametrize("d", [480_191_951, 2_000_000_011])
    def test_rejects_inexact_parity_sum_before_any_draw(self, d, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a block was drawn before the bound was checked")

        monkeypatch.setattr(hashing, "_block_hits", no_draws)
        with pytest.raises(ValueError, match=r"2n \(d - 1\)\*\*2 < 2\*\*63"):
            lemma1_montecarlo(d, 20, trials=10_000)

    def test_runs_just_inside_exactness_bound(self):
        d = 480_191_923
        assert 40 * (d - 1) ** 2 < 2**63 <= 40 * (480_191_951 - 1) ** 2
        rate = lemma1_montecarlo(d, 20, trials=10_000, seed=0)
        assert 0.0 <= rate < 1e-3

    @staticmethod
    def traced_peaks(cpus, counts=(1, 2)):
        """Traced peak of a 200,000-trial run at n = 20, per CPU count
        (tracemalloc sees both threads' arrays).  A first untraced call
        imports numpy.random, which the trace would otherwise count."""
        lemma1_montecarlo(5, 20, trials=10_000)
        peaks = []
        for count in counts:
            cpus(count)
            tracemalloc.start()
            try:
                lemma1_montecarlo(5, 20, trials=200_000, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    def test_peak_memory_below_three_chunk_arrays(self, cpus):
        """On one CPU and on two, the run stays below three int32 arrays
        of both halves' 50,000-row chunks (3 x 100,000 x 40 x 4 B), the
        bound of the x - y design; the block draws sit far below it."""
        assert max(self.traced_peaks(cpus)) < 3 * 100_000 * 40 * 4

    def test_peak_memory_below_six_bytes_per_chunk_entry(self, cpus):
        """On one CPU and on two, below 6 bytes per entry of both halves'
        chunks (100,000 x 40), the bound that held x - y whole per chunk;
        whole int32 y and x took 35 MB."""
        assert max(self.traced_peaks(cpus)) < 100_000 * 40 * 6

    def test_one_cpu_peak_is_x_minus_y_and_half_a_megabyte(self, cpus):
        """No array outlives its block: one block's x - y (delta) and s,
        uint8 at d = 5, and its parity sums.  Holding x - y for
        50,000-row chunks peaked at 4.23 MB."""
        (peak,) = self.traced_peaks(cpus, counts=(1,))
        assert peak < 500_000

    def test_two_cpu_peak_is_below_a_megabyte(self, cpus):
        """One block per half, the two halves at once (4.47 MB with
        50,000-row chunks)."""
        (peak,) = self.traced_peaks(cpus, counts=(2,))
        assert peak < 1_000_000


class TestParitySum:
    """_parity_hits sums each row in uint16 when it holds 2n (d - 1)**2,
    else in int64.  At width 2n = 2d a row of d - 1 sums to 2d (d - 1)**2,
    a multiple of d, which d = 32 and 33 put on either side of 2**16: a
    sum that wrapped would miss those rows."""

    @pytest.mark.parametrize("d, below", [(32, True), (33, False)])
    def test_matches_int64_sum_at_type_limits(self, d, below):
        width = 2 * d
        assert (width * (d - 1) ** 2 < 2**16) == below
        s = np.full((3, width), d - 1, dtype=np.uint8)  # as lemma1_montecarlo draws
        delta = s.copy()
        delta[2, 0] = 0  # this row sums to -1 mod d
        reference = np.einsum("ij,ij->i", s.astype(np.int64), delta.astype(np.int64)) % d
        assert reference.tolist() == [0, 0, d - 1]
        assert hashing._parity_hits(s, delta, d) == 2


class TestLemma1Exact:
    """Lemma 1 counted over every string, with no randomness: for prime d
    and any nonzero delta in [0, d)**m, exactly d**(m - 1) of the d**m
    strings s have s . delta = 0 (mod d)."""

    @pytest.mark.parametrize("d, m", [(2, 2), (3, 2), (5, 2), (7, 2), (2, 3), (3, 3), (5, 3)])
    def test_every_nonzero_delta_has_d_to_the_m_minus_1_zero_parities(self, d, m):
        strings = np.array(list(itertools.product(range(d), repeat=m)))
        assert not strings[0].any() and strings[1:].any(axis=1).all()
        zeros = np.count_nonzero(strings[1:] @ strings.T % d == 0, axis=1)
        assert zeros.tolist() == [d ** (m - 1)] * (d**m - 1)

    def test_composite_d_breaks_it(self):
        """At d = 4, delta = (2, 0) has a zero parity for half of all s,
        not a quarter: the reason require_prime guards the Monte Carlo."""
        strings = np.array(list(itertools.product(range(4), repeat=2)))
        assert np.count_nonzero(strings @ [2, 0] % 4 == 0) / len(strings) == 0.5


class TestLemma1Split:
    """On two CPUs the first half of the trials runs on one helper thread
    and the second on the caller; on one CPU the caller runs both."""

    def test_helper_failure_reaches_caller_after_join(self, cpus, monkeypatch):
        cpus(2)
        caller, real, helpers = threading.current_thread(), hashing._block_hits, []

        def block_hits(*args):
            if threading.current_thread() is not caller:
                helpers.append(threading.current_thread())
                time.sleep(0.05)  # the caller's rows end first, so it waits in the join
                raise MemoryError("helper rows")
            return real(*args)

        monkeypatch.setattr(hashing, "_block_hits", block_hits)
        with pytest.raises(MemoryError, match="helper rows"):
            lemma1_montecarlo(5, 20, trials=10_000)
        assert len(helpers) == 1 and not helpers[0].is_alive()

    def test_caller_failure_joins_helper(self, cpus, monkeypatch):
        cpus(2)
        caller, real, helpers, helper_rows = threading.current_thread(), hashing._block_hits, [], []

        def block_hits(*args):
            if threading.current_thread() is caller:
                raise MemoryError("caller rows")
            helpers.append(threading.current_thread())
            time.sleep(0.05)  # the caller fails first, while the helper draws
            hits = real(*args)
            helper_rows.append(args[2][0])
            return hits

        monkeypatch.setattr(hashing, "_block_hits", block_hits)
        with pytest.raises(MemoryError, match="caller rows"):
            lemma1_montecarlo(5, 20, trials=10_000)
        assert helper_rows == [2_000, 2_000, 1_000] and not helpers[0].is_alive()
        assert not [t for t in threading.enumerate() if t.name.startswith("quditpure-")]

    # The blocks of 130,001 trials: each half ends on a partial block.
    HALVES = ([2_000] * 32 + [1_000], [2_000] * 32 + [1_001])

    def test_unstartable_helper_leaves_the_caller_every_row(self, cpus, monkeypatch, blocks):
        cpus(2)

        def start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert lemma1_montecarlo(5, 20, trials=130_001, seed=11) == 0.19873693279282467
        caller = threading.current_thread()
        assert blocks == [(caller, rows) for rows in self.HALVES[0] + self.HALVES[1]]

    def test_one_cpu_runs_serial_chunks_only(self, cpus, blocks):
        cpus(1)
        lemma1_montecarlo(5, 20, trials=130_001, seed=11)
        caller = threading.current_thread()
        assert blocks == [(caller, rows) for rows in self.HALVES[0] + self.HALVES[1]]

    def test_halves_run_on_helper_and_caller(self, cpus, blocks):
        cpus(2)
        lemma1_montecarlo(5, 20, trials=130_001, seed=11)
        caller = threading.current_thread()
        assert [rows for thread, rows in blocks if thread is not caller] == self.HALVES[0]
        assert [rows for thread, rows in blocks if thread is caller] == self.HALVES[1]

    @pytest.mark.parametrize("count", [1, 2])
    def test_starts_at_most_one_thread_per_call(self, cpus, monkeypatch, count):
        cpus(count)
        real, starts = threading.Thread.start, []

        def start(thread):
            starts.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        lemma1_montecarlo(5, 20, trials=500_000, seed=0)
        assert starts == ["quditpure-lemma1"] * (count - 1)
