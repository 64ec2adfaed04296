"""Tests for modular index arithmetic and basis-label maps."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quditpure.indices import (
    MAX_INDEX,
    PRIMALITY_BOUND,
    bgxor_index_map,
    bqft_index_map,
    check_bell_index,
    check_count,
    check_dimension,
    check_unit_interval,
    checked_power,
    is_prime,
    pauli_on_bell,
    primes_in,
    require_prime,
)


class TestDimensionChecks:
    def test_valid_dimensions(self):
        assert check_dimension(2) == 2
        assert check_dimension(9973) == 9973

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_invalid_dimensions(self, bad):
        with pytest.raises(ValueError):
            check_dimension(bad)

    @pytest.mark.parametrize("bad", [2.7, None, [2], "3", math.inf, math.nan, 1e400])
    def test_rejects_non_integral(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            check_dimension(bad)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_values_become_plain_int(self, value):
        d = check_dimension(value)
        assert d == 3 and type(d) is int

    def test_count_settings_share_one_check(self):
        assert check_count(np.float64(7.0), "trials", 1) == 7
        with pytest.raises(ValueError, match="^trials must be at least 1, got 0$"):
            check_count(0, "trials", 1)
        with pytest.raises(ValueError, match="^trials must be an integer, got 1.5$"):
            check_count(1.5, "trials", 1)

    def test_dimension_has_no_upper_bound(self):
        """Scalar routes take any d; only array builders bound it."""
        assert check_dimension(10**300) == 10**300

    def test_power_bound_is_largest_array_size(self):
        """d**n must be an array size: 3,037,000,499**2 and 2**62 pass, one
        more fails; n past the limit's bit length fails before d**n."""
        assert MAX_INDEX == np.iinfo(np.intp).max
        assert checked_power(3037000499, 2) <= MAX_INDEX
        assert checked_power(2, 62) == 2**62
        for d, n in ((3037000500, 2), (2, 63), (10**300, 2), (2, 10**300)):
            with pytest.raises(ValueError, match=rf"d\*\*{n} must be at most 9.22337e\+18"):
                checked_power(d, n)

    def test_power_bound_takes_a_limit(self):
        limit = int(sys.float_info.max)
        assert checked_power(2, 1023, limit) == 2**1023
        with pytest.raises(ValueError, match=r"at most 1.79769e\+308, got d=2"):
            checked_power(2, 1024, limit)

    def test_is_prime_small(self):
        primes = [n for n in range(2, 60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_is_prime_large(self):
        assert is_prime(9973)
        assert not is_prime(9975)

    def test_is_prime_matches_sieve_below_1e5(self):
        limit = 10**5
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        assert [is_prime(n) for n in range(limit)] == sieve.tolist()

    def test_is_prime_beyond_trial_division(self):
        """2**61 - 1 is a Mersenne prime; 3215031751 is the least strong
        pseudoprime to bases 2, 3, 5 and 7, and 318665857834031151167461
        one to every prime base up to 37."""
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 + 1)
        assert not is_prime(3215031751)
        assert not is_prime(318665857834031151167461)

    @pytest.mark.parametrize("n", [PRIMALITY_BOUND, PRIMALITY_BOUND + 2, 2**89 - 1])
    def test_is_prime_raises_at_and_above_bound(self, n):
        with pytest.raises(ValueError, match=f"only below {PRIMALITY_BOUND}, got {n}"):
            is_prime(n)

    @pytest.mark.parametrize("n", [7.9, 4.5, math.nan, "7"])
    def test_is_prime_rejects_non_integers(self, n):
        """7.9 used to be truncated to the prime 7, and 4.5 to 4."""
        with pytest.raises(ValueError, match="n must be an integer"):
            is_prime(n)

    def test_is_prime_accepts_integral_numbers(self):
        assert is_prime(7.0) and is_prime(np.int64(7))
        assert not is_prime(4.0) and not is_prime(np.int64(4))

    def test_require_prime(self):
        assert require_prime(7) == 7
        with pytest.raises(ValueError):
            require_prime(6)

    def test_primes_in(self):
        assert primes_in(2, 13) == [2, 3, 5, 7, 11, 13]
        assert primes_in(8, 10) == []
        assert primes_in(2, 10.0) == primes_in(2.0, np.int64(10)) == [2, 3, 5, 7]

    @pytest.mark.parametrize(
        "lo, hi, message",
        [(2.5, 10, "lower bound must be an integer, got 2.5"),
         (2, 10.5, "upper bound must be an integer, got 10.5"),
         (math.nan, 10, "lower bound must be an integer, got nan"),
         (2, math.nan, "upper bound must be an integer, got nan")],
    )
    def test_primes_in_rejects_non_integral_bounds(self, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            primes_in(lo, hi)


class TestUnitInterval:
    @pytest.mark.parametrize("value", [0, 0.0, 0.5, 1, 1.0, np.float64(0.25)])
    def test_returns_value_inside(self, value):
        assert check_unit_interval(value, "x") is value

    @pytest.mark.parametrize(
        "bad", [-0.1, 1.0000001, math.nan, math.inf, None, True, "0.5", [0.5]]
    )
    def test_rejects_outside_nan_and_non_numbers(self, bad):
        with pytest.raises(ValueError, match=r"^retention q must be in \[0, 1\], got "):
            check_unit_interval(bad, "retention q")


class TestBellIndexValidation:
    def test_in_range(self):
        assert check_bell_index((0, 0), 2) == (0, 0)
        assert check_bell_index((4, 3), 5) == (4, 3)

    @pytest.mark.parametrize("idx", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_out_of_range(self, idx):
        with pytest.raises(ValueError):
            check_bell_index(idx, 2)


class TestBgxorIndexMap:
    def test_zero_indices_fixed(self):
        assert bgxor_index_map((0, 0), (0, 0), 5) == ((0, 0), (0, 0))

    def test_worked_example_d5(self):
        # control (k1,j1)=(1,2), target (k2,j2)=(3,4):
        # control -> (1+3, 2) = (4, 2); target -> (-3 mod 5, 2-4 mod 5) = (2, 3)
        assert bgxor_index_map((1, 2), (3, 4), 5) == ((4, 2), (2, 3))

    def test_d2_example(self):
        assert bgxor_index_map((1, 1), (1, 0), 2) == ((0, 1), (1, 1))

    def test_control_amplitude_unchanged(self):
        for d in (2, 3, 5):
            for k1 in range(d):
                for j1 in range(d):
                    for k2 in range(d):
                        for j2 in range(d):
                            (kc, jc), _ = bgxor_index_map((k1, j1), (k2, j2), d)
                            assert jc == j1
                            assert kc == (k1 + k2) % d

    def test_bijection_on_pairs(self):
        """The joint map on ((k1,j1),(k2,j2)) permutes all d**4 tuples."""
        for d in (2, 3, 5, 7):
            seen = set()
            for k1 in range(d):
                for j1 in range(d):
                    for k2 in range(d):
                        for j2 in range(d):
                            seen.add(bgxor_index_map((k1, j1), (k2, j2), d))
            assert len(seen) == d**4

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            bgxor_index_map((2, 0), (0, 0), 2)

    @given(st.integers(2, 11), st.data())
    def test_self_inverse_when_target_unmeasured(self, d, data):
        """Applying the gate twice restores both labels.

        The second application sees control (k1', j1') and target (k2', j2')
        produced by the first; the digit action is an involution on kets, so
        the label action must be too.
        """
        k1 = data.draw(st.integers(0, d - 1))
        j1 = data.draw(st.integers(0, d - 1))
        k2 = data.draw(st.integers(0, d - 1))
        j2 = data.draw(st.integers(0, d - 1))
        once = bgxor_index_map((k1, j1), (k2, j2), d)
        twice = bgxor_index_map(once[0], once[1], d)
        assert twice == ((k1, j1), (k2, j2))


class TestBqftIndexMap:
    def test_swap(self):
        assert bqft_index_map((3, 1)) == (1, 3)
        assert bqft_index_map((0, 0)) == (0, 0)

    def test_involution_exhaustive(self):
        for d in range(2, 8):
            for k in range(d):
                for j in range(d):
                    assert bqft_index_map(bqft_index_map((k, j))) == (k, j)


class TestPauliOnBell:
    def test_identity_error(self):
        assert pauli_on_bell(0, 0, (1, 2), 5) == (1, 2)

    def test_shifts(self):
        assert pauli_on_bell(2, 3, (1, 2), 5) == (3, 0)
        assert pauli_on_bell(1, 1, (1, 1), 2) == (0, 0)

    @pytest.mark.parametrize("index", [(7, 9), (0, 3), (-1, 0), (2, -2)])
    def test_rejects_label_outside_dimension(self, index):
        """Like bgxor_index_map: a label outside [0, d) is an error, not
        a value to wrap."""
        with pytest.raises(ValueError, match="out of range for dimension 3"):
            pauli_on_bell(0, 0, index, 3)

    def test_bijection_over_errors(self):
        """With the state index fixed, the d**2 error labels hit every index."""
        for d in (2, 3, 5):
            for idx in ((0, 0), (1, d - 1)):
                images = {pauli_on_bell(a, b, idx, d) for a in range(d) for b in range(d)}
                assert len(images) == d * d

    @given(st.integers(2, 9), st.data())
    def test_group_action_composes(self, d, data):
        """Applying (a1,b1) then (a2,b2) equals applying the sums mod d."""
        a1, b1, a2, b2 = (data.draw(st.integers(0, d - 1)) for _ in range(4))
        m = data.draw(st.integers(0, d - 1))
        n = data.draw(st.integers(0, d - 1))
        step = pauli_on_bell(a2, b2, pauli_on_bell(a1, b1, (m, n), d), d)
        joint = pauli_on_bell((a1 + a2) % d, (b1 + b2) % d, (m, n), d)
        assert step == joint
