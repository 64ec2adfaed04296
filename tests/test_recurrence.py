"""Tests for the recurrence purification protocols and their scans."""

import dataclasses
import functools
import hashlib
import itertools
import math
import re
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from quditpure import indices, recurrence
from quditpure.indices import bgxor_index_map, bqft_index_map
from quditpure.recurrence import (
    BBPSSW,
    DEJMPS,
    NOISELESS,
    NoiseParams,
    P1,
    P1P2,
    P2,
    PROTOCOLS,
    THREE_COPY,
    bbpssw_fixed_points,
    bbpssw_step,
    bbpssw_threshold,
    bbpssw_threshold_asymptote,
    choose_subroutine,
    dejmps_map,
    noise_threshold,
    noisy_step,
    p1_map,
    p2_map,
    regime_scan,
    run_protocol,
    three_copy_map,
    yield_run,
)
from quditpure.states import (
    PRESET_KINDS,
    CoeffMatrix,
    StatePreset,
    make_preset,
    preset_block,
    random_state,
    twirl_isotropic,
)


def preset(kind, d, F, x_weight=0.25):
    return make_preset(StatePreset(kind, F, x_weight), d)


class TestP1Map:
    def test_x_only_d2_anchor(self):
        out, prob = p1_map(preset("x_only", 2, 0.6))
        assert out.fidelity == pytest.approx(9 / 13, abs=1e-12)
        assert prob == pytest.approx(0.52, abs=1e-12)

    def test_pure_fixed_point(self):
        out, prob = p1_map(preset("isotropic", 3, 1.0))
        assert out.fidelity == pytest.approx(1.0, abs=1e-15)
        assert prob == pytest.approx(1.0, abs=1e-15)

    def test_x_only_is_squaring(self):
        """On amplitude-error-only inputs the map squares each weight."""
        for d in (2, 3, 5):
            state = preset("x_only", d, 0.55)
            out, prob = p1_map(state)
            squares = state.alpha**2
            np.testing.assert_allclose(out.alpha, squares / squares.sum(), atol=1e-13)
            assert prob == pytest.approx(squares.sum(), abs=1e-13)

    def test_success_prob_in_range(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            _, prob = p1_map(random_state(3, rng))
            assert 0.0 < prob <= 1.0


class TestP2Map:
    def test_z_only_d2_anchor(self):
        out, prob = p2_map(preset("z_only", 2, 0.6))
        assert out.fidelity == pytest.approx(9 / 13, abs=1e-12)
        assert prob == pytest.approx(0.52, abs=1e-12)

    def test_pure_fixed_point(self):
        out, prob = p2_map(preset("isotropic", 2, 1.0))
        assert out.fidelity == pytest.approx(1.0, abs=1e-15)
        assert prob == pytest.approx(1.0, abs=1e-15)

    def test_transpose_conjugation_of_p1(self):
        """p2 = transpose after p1 after transpose, on random states."""
        rng = np.random.default_rng(7)
        for d in (2, 3, 5):
            for _ in range(100):
                state = random_state(d, rng)
                via_p2, prob2 = p2_map(state)
                mapped, prob1 = p1_map(state.transpose())
                np.testing.assert_allclose(
                    via_p2.alpha, mapped.transpose().alpha, atol=1e-14
                )
                assert prob2 == pytest.approx(prob1, abs=1e-14)


def label_action_round(state, fourier):
    """One two-copy round computed label by label from the index maps.

    Every pair of basis labels (control, target) goes through
    ``bgxor_index_map`` (conjugated by ``bqft_index_map`` on both copies
    when ``fourier`` is set) and survives when the target's amplitude
    label is 0, i.e. when both parties' measurement outcomes agree.
    """
    d = state.d
    a = state.alpha
    out = np.zeros((d, d))
    for control in np.ndindex(d, d):
        for target in np.ndindex(d, d):
            c, t = control, target
            if fourier:
                c, t = bqft_index_map(c), bqft_index_map(t)
            c, (_, t_amplitude) = bgxor_index_map(c, t, d)
            if t_amplitude == 0:
                out[bqft_index_map(c) if fourier else c] += a[control] * a[target]
    prob = out.sum()
    return out / prob, prob


class TestLabelAction:
    """At d = 7, beyond the dense oracle's reach, the coefficient maps
    equal the label action of the bilateral gates on a random state."""

    @pytest.mark.parametrize("kernel, fourier", [(p1_map, False), (p2_map, True)])
    def test_d7_random_state(self, kernel, fourier):
        state = random_state(7, np.random.default_rng(77))
        expected, expected_prob = label_action_round(state, fourier)
        out, prob = kernel(state)
        assert np.abs(out.alpha - expected).max() <= 1e-15
        assert abs(prob - expected_prob) <= 1e-15


def roll_phase_conv(a, b):
    """Reference phase convolution: the loop of shifted copies that the
    kernel replaced, ``out[k, j] = sum_m a[m, j] * b[(k - m) mod d, j]``.
    The running sum is compensated (Kahan): a plain one adding d small
    terms to a fidelity near 0.36 drifts by 25-30 ulp at d >= 65."""
    out = np.zeros_like(a)
    carry = np.zeros_like(a)
    for shift in range(a.shape[0]):
        term = a[shift] * np.roll(b, shift, axis=0) - carry
        total = out + term
        carry = (total - out) - term
        out = total
    return out


def serial_phase_power(a, copies):
    """Reference large-d kernel: the single-thread form that the split
    kernel replaced, 64-column blocks transformed down the strided columns
    of ``a``, the three-copy product written as one expression."""
    d = a.shape[0]
    length = copies * (d - 1) + 1
    n = recurrence._smooth_length(length)
    a0 = a[0]
    out = np.multiply(copies * a0 ** (copies - 1), a, order="C")
    out[0] = a0 ** copies
    for j in range(0, d, 64):
        cols = slice(j, j + 64)
        r = a[:, cols].copy()
        r[0] = 0.0
        spec = np.fft.rfft(r, n, axis=0)
        spec *= spec * (spec + 3.0 * a0[cols]) if copies == 3 else spec
        lin = np.fft.irfft(spec, n, axis=0)[:length]
        for s in range(0, length, d):
            out[:min(d, length - s), cols] += lin[s:s + d]
    return out


class TestPhaseKernel:
    """The maps equal the roll-loop reference on both sides of the kernel's
    size split (index gather up to d = 31, padded FFT above).  d = 38 pads
    to 2d - 1 = 75 itself, d = 65 leaves a one-column last block and
    d = 128 fills its last block exactly.  The x_only and z_only presets
    have exact zeros, where FFT rounding lands on either side of 0.  A
    near-pure isotropic state at d = 37 and 211 has a row 0 that dwarfs
    the rest: there FFT rounding must scale with the small weights, which
    the relative check on every positive weight sees (an FFT of the whole
    column misses it by 1e-11 to 1e-9)."""

    @pytest.mark.parametrize("d", [2, 7, 31, 32, 37, 38, 65, 101, 128, 211])
    def test_maps_match_roll_loop(self, d):
        rng = np.random.default_rng(d)
        near_pure = [preset("isotropic", d, 0.999)] if d in (37, 211) else []
        for state in (
            random_state(d, rng),
            preset("x_only", d, 0.6),
            preset("z_only", d, 0.6),
            *near_pure,
        ):
            for kernel, copies, transposed in (
                (p1_map, 2, False),
                (p2_map, 2, True),
                (three_copy_map, 3, False),
            ):
                a = state.alpha.T if transposed else state.alpha
                raw = a
                for _ in range(copies - 1):
                    raw = roll_phase_conv(raw, a)
                expected = raw / raw.sum()
                out, prob = kernel(state)
                got = out.alpha.T if transposed else out.alpha
                assert np.abs(got - expected).max() <= 1e-15
                positive = expected > 0.0
                assert (np.abs(got - expected) <= 1e-14 * expected)[positive].all()
                assert got.min() >= 0.0
                assert abs(prob - (a.sum(axis=0) ** copies).sum()) <= 1e-12

    def test_block_edges(self):
        """The d values above sit where they claim to on the block grid."""
        assert recurrence._smooth_length(2 * 38 - 1) == 75
        assert 65 % recurrence._FFT_BLOCK == 1 and 128 % recurrence._FFT_BLOCK == 0

    def test_smooth_length_is_least_5_smooth_at_least_m(self):
        def is_5_smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        expected, n = [], 1
        for m in range(1, 5001):
            n = max(n, m)
            while not is_5_smooth(n):
                n += 1
            expected.append(n)
        assert [recurrence._smooth_length(m) for m in range(1, 5001)] == expected

    @pytest.mark.parametrize("d", [101, 211, 401])
    @pytest.mark.parametrize("kernel", [p1_map, three_copy_map])
    def test_one_transform_pair_per_block(self, monkeypatch, d, kernel):
        """Two and three copies each take one rfft and one irfft per
        column block: the three-copy round is one convolution power, not
        nested convolutions (which take 3 rffts and 2 irffts a block).
        From d = 160 on two threads split blocks half as wide, and both
        count, so the count takes a lock."""
        monkeypatch.setattr(indices, "_cpu_count", lambda: 2)
        calls = {"rfft": 0, "irfft": 0}
        lock = threading.Lock()

        def spy(name):
            real = getattr(np.fft, name)

            def counted(*args, **kwargs):
                with lock:
                    calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(np.fft, name, spy(name))
        kernel(random_state(d, np.random.default_rng(d)))
        threaded = d >= recurrence._THREAD_MIN_D
        width = recurrence._FFT_BLOCK // 2 if threaded else recurrence._FFT_BLOCK
        blocks = -(-d // width)
        assert calls == {"rfft": blocks, "irfft": blocks}

    @pytest.mark.parametrize("d", [401, 1009])
    @pytest.mark.parametrize("kernel, bound", [(p1_map, 2.5), (three_copy_map, 3.0)])
    def test_memory_peak(self, monkeypatch, d, kernel, bound):
        """The padded FFT runs on column blocks and the state's weight
        policy clamps in place, so one round's peak allocation stays a few
        d x d arrays (numpy reports to tracemalloc).  Two threads each
        hold a half-width block, and both are traced.  Measured at d = 401
        and 1009: p1_map 2.0 and 2.0, three_copy_map 2.24-2.34 and 2.0;
        two full-width blocks in flight took them to 2.6 and 3.4, and a
        clamp into a new array took both maps to 3.0 or more."""
        monkeypatch.setattr(indices, "_cpu_count", lambda: 2)
        state = random_state(d, np.random.default_rng(d))
        tracemalloc.start()
        try:
            kernel(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * d * d * 8

    @pytest.mark.parametrize("d, bound", [(401, 2.95), (1009, 2.5)])
    @pytest.mark.parametrize("protocol, kind", [(P1P2, "z_only"), (DEJMPS, "isotropic")])
    @pytest.mark.parametrize("Q", [1.0, 0.98])
    def test_stored_round_memory_peak(self, monkeypatch, d, bound, protocol, kind, Q):
        """A P2 round and a DEJMPS round store the transpose of the
        kernel's result, written by the normalizing division once the
        round's depolarized copy is gone.  Measured through one
        ``run_protocol`` round before that store existed (a view copied
        into the state): 2.82-2.92 d x d arrays at d = 401 and 2.32 at
        1009.  Dividing while the depolarized copy lived took both to 3.0
        at Q = 0.98; at Q = 1, which makes no copy, the store peaks at 2.0-2.1."""
        monkeypatch.setattr(indices, "_cpu_count", lambda: 2)
        state = preset(kind, d, 0.6)
        tracemalloc.start()
        try:
            traj = run_protocol(protocol, state, NoiseParams(Q=Q), max_iters=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps[0].step == (P2 if protocol == P1P2 else DEJMPS)
        assert peak < bound * d * d * 8


@pytest.fixture
def two_cpus(monkeypatch):
    """The kernel sees two CPUs, so from d = 160 on it splits its blocks
    between the caller and a helper thread on any machine."""
    monkeypatch.setattr(indices, "_cpu_count", lambda: 2)


@pytest.mark.usefixtures("two_cpus")
class TestFftWorkers:
    """Above ``_THREAD_MIN_D`` the FFT blocks run on two threads.  Two
    copies match the serial reference bit for bit; three copies take their
    complex product in the written order, which numpy's temporary elision
    reversed on the reference's blocks of 256 KiB or more, so they match
    within 4 ulp of the largest entry (2 ulp measured at d = 211 and 401).
    A P2 round stores a Fortran-ordered state, so both layouts are fed."""

    @staticmethod
    def weights(d, order):
        a = random_state(d, np.random.default_rng(d)).alpha
        return np.asfortranarray(a) if order == "F" else np.ascontiguousarray(a)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("copies", [2, 3])
    @pytest.mark.parametrize("d", [129, 211, 401])
    def test_matches_serial_reference(self, d, copies, order):
        a = self.weights(d, order)
        got, expected = recurrence._phase_power(a, copies), serial_phase_power(a, copies)
        assert got.flags.c_contiguous
        if copies == 2:
            np.testing.assert_array_equal(got, expected)
        else:
            assert np.abs(got - expected).max() <= 4 * np.spacing(np.abs(expected).max())

    @pytest.mark.parametrize("copies", [2, 3])
    def test_repeated_calls_are_identical(self, copies):
        a = self.weights(401, "C")
        first = recurrence._phase_power(a, copies)
        for _ in range(20):
            np.testing.assert_array_equal(recurrence._phase_power(a, copies), first)

    @pytest.mark.parametrize("copies", [2, 3])
    @pytest.mark.parametrize("d", [129, 211])
    def test_bits_do_not_depend_on_width_or_threads(self, monkeypatch, d, copies):
        a = self.weights(d, "F")
        expected = recurrence._phase_power(a, copies)
        for width in (8, 16, 32, 64, 128):
            monkeypatch.setattr(recurrence, "_FFT_BLOCK", width)
            np.testing.assert_array_equal(recurrence._phase_power(a, copies), expected)
        monkeypatch.setattr(indices, "_cpu_count", lambda: 1)
        np.testing.assert_array_equal(recurrence._phase_power(a, copies), expected)

    def test_concurrent_callers_get_the_serial_bits(self, monkeypatch):
        """Four callers at once, each with its helper, on a 1 us switch
        interval: a block that wrote another call's columns, or state
        shared between calls, would show as a changed bit."""
        inputs = [(self.weights(d, order), copies)
                  for d, order, copies in [(211, "C", 2), (211, "F", 3), (401, "F", 2), (401, "C", 3)]]
        with monkeypatch.context() as m:
            m.setattr(indices, "_cpu_count", lambda: 1)
            serial = [recurrence._phase_power(a, copies) for a, copies in inputs]
        results = [[] for _ in inputs]

        def call(i):
            a, copies = inputs[i]
            for _ in range(5):
                results[i].append(recurrence._phase_power(a, copies))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(inputs))]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        for expected, got in zip(serial, results):
            assert len(got) == 5
            for out in got:
                np.testing.assert_array_equal(out, expected)

    def test_helper_failure_reaches_caller_after_join(self, monkeypatch):
        caller, real = threading.current_thread(), np.fft.irfft

        def irfft(*args, **kwargs):
            if threading.current_thread() is not caller:
                time.sleep(0.05)  # the caller's blocks end first, so it waits in the join
                raise MemoryError("helper block")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", irfft)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="helper block"):
            recurrence._phase_power(self.weights(211, "C"), 2)
        assert threading.active_count() == before

    def test_caller_failure_joins_helper(self, monkeypatch):
        caller, real = threading.current_thread(), np.fft.rfft
        helper_done = threading.Event()

        def rfft(*args, **kwargs):
            if threading.current_thread() is caller:
                raise MemoryError("caller block")
            out = real(*args, **kwargs)
            time.sleep(0.05)
            helper_done.set()
            return out

        monkeypatch.setattr(np.fft, "rfft", rfft)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="caller block"):
            recurrence._phase_power(self.weights(211, "C"), 3)
        assert helper_done.is_set() and threading.active_count() == before

    @staticmethod
    def count_starts(monkeypatch):
        starts, real = [], threading.Thread.start

        def start(thread):
            starts.append(thread.name)
            real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return starts

    @pytest.mark.parametrize("d, per_round", [(101, 0), (211, 1)])
    def test_threads_only_from_threshold(self, monkeypatch, d, per_round):
        starts = self.count_starts(monkeypatch)
        traj = run_protocol(P1P2, random_state(d, np.random.default_rng(d)), max_iters=3)
        assert len(starts) == per_round * traj.iterations

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        starts = self.count_starts(monkeypatch)
        monkeypatch.setattr(indices, "_cpu_count", lambda: 1)
        recurrence._phase_power(self.weights(401, "C"), 2)
        assert starts == []

    def test_unstartable_helper_leaves_the_caller_every_block(self, monkeypatch):
        a = self.weights(211, "C")
        expected = recurrence._phase_power(a, 2)

        def start(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        np.testing.assert_array_equal(recurrence._phase_power(a, 2), expected)


class TestThreeCopyMap:
    def test_x_only_d2_anchor(self):
        out, prob = three_copy_map(preset("x_only", 2, 0.6))
        assert out.fidelity == pytest.approx(0.216 / 0.28, abs=1e-12)
        assert prob == pytest.approx(0.28, abs=1e-12)

    def test_pure_fixed_point(self):
        out, prob = three_copy_map(preset("isotropic", 3, 1.0))
        assert out.fidelity == pytest.approx(1.0, abs=1e-15)
        assert prob == pytest.approx(1.0, abs=1e-15)

    def test_beats_one_round_of_p1_on_x_only(self):
        """Consuming two extra copies purifies amplitude errors harder."""
        state = preset("x_only", 3, 0.6)
        f3 = three_copy_map(state)[0].fidelity
        f2 = p1_map(state)[0].fidelity
        assert f3 > f2


class TestChooseSubroutine:
    def test_x_only_picks_p1(self):
        assert choose_subroutine(preset("x_only", 3, 0.7)) == P1

    def test_z_only_picks_p2(self):
        assert choose_subroutine(preset("z_only", 3, 0.7)) == P2

    def test_isotropic_tie_goes_to_p1(self):
        assert choose_subroutine(preset("isotropic", 5, 0.4)) == P1


class TestNoisyStep:
    def test_identity_at_q1(self):
        state = random_state(3, np.random.default_rng(2))
        np.testing.assert_allclose(noisy_step(state, 1.0).alpha, state.alpha, atol=1e-15)

    def test_isotropic_follows_scalar_rule(self):
        d, F, Q = 4, 0.8, 0.9
        out = noisy_step(preset("isotropic", d, F), Q)
        assert out.fidelity == pytest.approx(F * Q**2 + (1 - Q**2) / d**2, abs=1e-14)

    def test_q0_gives_uniform(self):
        out = noisy_step(preset("x_only", 3, 0.9), 0.0)
        np.testing.assert_allclose(out.alpha, np.full((3, 3), 1 / 9), atol=1e-14)


class TestP1P2Run:
    def test_isotropic_d5_purifies(self):
        traj = run_protocol(P1P2, preset("isotropic", 5, 0.5), NOISELESS, epsilon=1e-4)
        assert traj.reached_target
        assert traj.final_fidelity >= 1 - 1e-4
        assert traj.cumulative_yield > 0.0

    def test_already_pure_needs_no_iterations(self):
        traj = run_protocol(P1P2, preset("isotropic", 2, 1.0), NOISELESS, epsilon=1e-4)
        assert traj.reached_target
        assert traj.iterations == 0
        assert traj.cumulative_yield == 1.0

    def test_below_threshold_stalls(self):
        traj = run_protocol(P1P2, preset("isotropic", 2, 0.45), NOISELESS, epsilon=1e-4)
        assert not traj.reached_target
        assert traj.final_fidelity == pytest.approx(0.4079252103829514, abs=1e-9)
        assert traj.iterations == 3  # the stall rule cuts the run short

    def test_trajectory_bookkeeping(self):
        traj = run_protocol(P1P2, preset("isotropic", 3, 0.6), NOISELESS, epsilon=1e-4)
        product = 1.0
        for step in traj.steps:
            assert step.step in (P1, P2)
            product *= step.success_prob / 2.0
            assert step.cumulative_yield == pytest.approx(product, abs=1e-14)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            run_protocol(P1P2, preset("isotropic", 2, 0.8), NOISELESS, epsilon=0.0)
        with pytest.raises(ValueError):
            run_protocol(P1P2, preset("isotropic", 2, 0.8), NOISELESS, epsilon=1e-4, max_iters=0)


class TestNoiseParams:
    def test_defaults_noiseless(self):
        assert NOISELESS.Q == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseParams(Q=1.2)


class TestBbpssw:
    def test_map_anchor_d2(self):
        assert bbpssw_step(0.75, 2, 1.0)[0] == pytest.approx(41 / 52, abs=1e-14)

    def test_mixed_state_fixed_point(self):
        for d in (2, 3, 5):
            assert bbpssw_step(1 / d**2, d, 1.0)[0] == pytest.approx(1 / d**2, abs=1e-12)

    def test_pure_fixed_point(self):
        for d in (2, 3, 5):
            assert bbpssw_step(1.0, d, 1.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_step_matches_coefficient_route(self):
        """The closed form equals twirl -> noise -> two-copy map -> twirl."""
        from quditpure.states import twirl_isotropic

        for d, F, Q in ((2, 0.7, 1.0), (3, 0.6, 0.95), (5, 0.5, 0.9)):
            state = noisy_step(preset("isotropic", d, F), Q)
            mapped, prob = p1_map(state)
            F_scalar, prob_scalar = bbpssw_step(F, d, Q)
            assert twirl_isotropic(mapped).fidelity == pytest.approx(F_scalar, abs=1e-12)
            assert prob == pytest.approx(prob_scalar, abs=1e-12)

    def test_fixed_points_noiseless(self):
        for d in (2, 3, 5, 8):
            regime = bbpssw_fixed_points(d, 1.0)
            assert regime.purifiable
            assert regime.F_min == pytest.approx(1 / d, abs=1e-12)
            assert regime.F_max == pytest.approx(1.0, abs=1e-12)

    def test_fixed_points_are_fixed(self):
        for d in (2, 4, 7):
            for Q in (0.97, 1.0):
                regime = bbpssw_fixed_points(d, Q)
                assert bbpssw_step(regime.F_min, d, Q)[0] == pytest.approx(
                    regime.F_min, abs=1e-9
                )
                assert bbpssw_step(regime.F_max, d, Q)[0] == pytest.approx(
                    regime.F_max, abs=1e-9
                )

    def test_not_purifiable_below_threshold(self):
        regime = bbpssw_fixed_points(2, 0.9)
        assert not regime.purifiable
        assert regime.F_min == regime.F_max

    def test_threshold_values(self):
        assert bbpssw_threshold(5) == pytest.approx(0.8622041861390912, abs=1e-12)
        assert bbpssw_threshold(2) == pytest.approx(0.9628348680458361, abs=1e-12)

    def test_threshold_is_regime_boundary(self):
        for d in (2, 5):
            q_th = bbpssw_threshold(d)
            assert not bbpssw_fixed_points(d, q_th - 1e-6).purifiable
            assert bbpssw_fixed_points(d, q_th + 1e-6).purifiable

    def test_threshold_monotone_in_d(self):
        values = [bbpssw_threshold(d) for d in range(2, 101)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_threshold_asymptote(self):
        d = 10**6
        ratio = bbpssw_threshold(d) / bbpssw_threshold_asymptote(d)
        assert abs(ratio - 1.0) < 0.01

    def test_iteration_converges_to_upper_fixed_point(self):
        for d in (2, 5, 8):
            for Q in (0.97, 1.0):
                regime = bbpssw_fixed_points(d, Q)
                F = 0.5 * (regime.F_min + regime.F_max)
                previous = F
                for _ in range(400):
                    F = bbpssw_step(F, d, Q)[0]
                    assert F >= previous - 1e-12
                    previous = F
                assert F == pytest.approx(regime.F_max, abs=1e-6)


class TestDejmps:
    def test_pure_fixed_point(self):
        out, prob = dejmps_map(preset("isotropic", 3, 1.0), 1.0)
        assert out.fidelity == pytest.approx(1.0, abs=1e-14)
        assert prob == pytest.approx(1.0, abs=1e-14)

    def test_one_round_is_p1_then_swap(self):
        state = preset("isotropic", 3, 0.6)
        out, prob = dejmps_map(state, 0.9)
        mapped, prob_ref = p1_map(noisy_step(state, 0.9))
        np.testing.assert_allclose(out.alpha, mapped.transpose().alpha, atol=1e-14)
        assert prob == pytest.approx(prob_ref, abs=1e-14)

    def test_matches_adaptive_when_subroutines_alternate(self):
        """While the adaptive rule alternates P1, P2, P1, ... the two
        protocols produce identical fidelity sequences: their round
        compositions differ only by a trailing index swap, which the
        fidelity cannot see."""
        cases = [("isotropic", 3, 0.6, 0.95), ("isotropic", 5, 0.5, 1.0)]
        for kind, d, F, Q in cases:
            state = preset(kind, d, F)
            noise = NoiseParams(Q=Q)
            adaptive = run_protocol(P1P2, state, noise, epsilon=1e-6, max_iters=10)
            fixed = run_protocol(DEJMPS, state, noise, epsilon=1e-6, max_iters=10)
            labels = [s.step for s in adaptive.steps]
            assert all(
                label == (P1 if i % 2 == 0 else P2) for i, label in enumerate(labels)
            )
            n = min(adaptive.iterations, fixed.iterations)
            for a, b in zip(adaptive.steps[:n], fixed.steps[:n]):
                assert a.state.fidelity == pytest.approx(b.state.fidelity, abs=1e-13)

    def test_adaptive_departs_and_wins_when_alternation_breaks(self):
        """At d=2, F=0.6, Q=1 the adaptive rule repeats a subroutine at
        round 3; from the first repeat onward its fidelity is strictly
        ahead of the fixed-swap sequence."""
        state = preset("isotropic", 2, 0.6)
        adaptive = run_protocol(P1P2, state, NOISELESS, epsilon=1e-6, max_iters=12)
        fixed = run_protocol(DEJMPS, state, NOISELESS, epsilon=1e-6, max_iters=12)
        labels = [s.step for s in adaptive.steps]
        assert labels[:4] == [P1, P2, P2, P1]  # alternation breaks at round 3
        fa = [s.state.fidelity for s in adaptive.steps]
        fb = [s.state.fidelity for s in fixed.steps]
        n = min(len(fa), len(fb))
        devs = [abs(a - b) for a, b in zip(fa[:n], fb[:n])]
        assert max(devs[:4]) < 1e-13
        assert devs[4] > 1e-3
        assert max(devs) == pytest.approx(0.06788418088930892, abs=1e-9)
        assert all(a >= b - 1e-15 for a, b in zip(fa[:n], fb[:n]))

    def test_adaptive_needs_fewer_rounds_on_x_only_d6(self):
        state = preset("x_only", 6, 0.4)
        adaptive = run_protocol(P1P2, state, NOISELESS, epsilon=1e-5, max_iters=50)
        fixed = run_protocol(DEJMPS, state, NOISELESS, epsilon=1e-5, max_iters=50)
        assert adaptive.reached_target and fixed.reached_target
        assert adaptive.iterations == 4
        assert fixed.iterations == 9

    def test_same_noise_threshold_as_adaptive(self):
        for d in (2, 6):
            q_adaptive = noise_threshold(P1P2, d)
            q_fixed = noise_threshold(DEJMPS, d)
            assert q_fixed == pytest.approx(q_adaptive, abs=1e-12)

    def test_narrower_regime_on_lopsided_noise(self):
        """With mostly-phase errors at d=7, Q=0.88 the adaptive protocol
        purifies from far lower fidelities than the fixed swap; both top
        out at the same maximum."""
        adaptive = regime_scan(P1P2, 7, 0.88, "xz_mixture")
        fixed = regime_scan(DEJMPS, 7, 0.88, "xz_mixture")
        assert adaptive.purifiable and fixed.purifiable
        assert adaptive.F_min == pytest.approx(0.330989, abs=1e-4)
        assert fixed.F_min == pytest.approx(0.495401, abs=1e-4)
        assert adaptive.F_max == pytest.approx(fixed.F_max, abs=1e-6)


def matrix_round(protocol, state, Q):
    """``run_protocol``'s round: ``_round`` on the weight matrix, the
    result stored as one validated state."""
    advance, k = recurrence._round(protocol, state.d, Q, recurrence._conv_round)
    label, mapped, prob = advance(state.alpha, k)
    return label, CoeffMatrix(mapped), prob


def sector_round(protocol, s, d, Q):
    """``_lanes_improve``'s round: ``_round`` on the sector block."""
    advance, k = recurrence._round(protocol, d, Q, recurrence._sector_conv)
    _, s, prob = advance(s, k)
    return s, prob


def composed_round(protocol, state, Q):
    """One round of ``protocol`` through the public maps."""
    if protocol == BBPSSW:
        mapped, prob = p1_map(noisy_step(twirl_isotropic(state), Q))
        return BBPSSW, twirl_isotropic(mapped), prob
    noisy = noisy_step(state, Q)
    if protocol == DEJMPS:
        mapped, prob = p1_map(noisy)
        return DEJMPS, mapped.transpose(), prob
    sub = choose_subroutine(noisy)
    if protocol == P1P2:
        return (sub, *(p1_map(noisy) if sub == P1 else p2_map(noisy)))
    if sub == P1:
        return (THREE_COPY, *three_copy_map(noisy))
    mapped, prob = three_copy_map(noisy.transpose())
    return THREE_COPY, mapped.transpose(), prob


class TestAdvance:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 31, 32, 37, 38, 65, 101, 128])
    def test_matches_public_maps_bit_for_bit(self, protocol, d):
        """20 rounds of ``_round`` give the label, weight bytes and
        success probability of the public maps composed, on both sides of
        GATHER_MAX_D, and every stored state is clamped non-negative."""
        rng = np.random.default_rng(d)
        starts = [random_state(d, rng), preset("x_only", d, 0.5), preset("z_only", d, 0.5)]
        orientations = set()
        for Q in (1.0, 0.95):
            for state in starts:
                for _ in range(20):
                    label, mapped, prob = matrix_round(protocol, state, Q)
                    ref_label, ref_mapped, ref_prob = composed_round(protocol, state, Q)
                    assert (label, prob) == (ref_label, ref_prob)
                    assert mapped.alpha.tobytes() == ref_mapped.alpha.tobytes()
                    assert mapped.alpha.min() >= 0.0
                    orientations.add(choose_subroutine(noisy_step(state, Q)))
                    state = mapped
        if protocol in (P1P2, THREE_COPY):
            # Both orientations ran at this d: P2 and the transposed
            # three-copy round are covered on the gather and the FFT kernel.
            assert orientations == {P1, P2}

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            matrix_round("bogus", preset("isotropic", 2, 0.8), 1.0)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("d", [3, 37])
    def test_q1_round_from_signed_zeros(self, protocol, d):
        """At Q = 1 the round skips the depolarizing mix ``1.0 * a + 0.0``,
        which would turn a -0.0 weight into +0.0.  Inputs written with -0.0
        in place of every zero, and tiny negatives, are stored without
        them, so the skipped round still gives the composed public maps'
        bytes, with phase errors dominating (P2) and not."""
        for kind in ("x_only", "z_only"):
            a = preset(kind, d, 0.5).alpha.copy()
            a[a == 0.0] = -0.0
            a[-1, -1] = -1e-13
            state = CoeffMatrix(a)
            assert not np.signbit(state.alpha).any()
            for _ in range(3):
                label, mapped, prob = matrix_round(protocol, state, 1.0)
                ref_label, ref_mapped, ref_prob = composed_round(protocol, state, 1.0)
                assert (label, prob) == (ref_label, ref_prob)
                assert mapped.alpha.tobytes() == ref_mapped.alpha.tobytes()
                state = mapped


def bad_retention(Q):
    """``pytest.raises`` for the one message every entry gives a bad Q."""
    return pytest.raises(ValueError, match=re.escape(f"retention Q must be in [0, 1], got {Q}"))


class TestRetentionRange:
    """Gate retention outside [0, 1] is rejected, not squared into range."""

    @pytest.mark.parametrize("Q", [-0.5, -1.0, -0.9, 1.01, math.nan])
    def test_noisy_step(self, Q):
        with bad_retention(Q):
            noisy_step(preset("isotropic", 3, 0.8), Q)

    @pytest.mark.parametrize("Q", [-0.5, -1.0, -0.9, 1.01, math.nan])
    def test_dejmps_map(self, Q):
        with bad_retention(Q):
            dejmps_map(preset("isotropic", 3, 0.8), Q)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("Q", [-0.5, -1.0, -0.9, 1.01, math.nan])
    def test_advance(self, protocol, Q):
        with bad_retention(Q):
            matrix_round(protocol, preset("isotropic", 3, 0.8), Q)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("Q", [-0.5, 1.01, math.nan])
    def test_scans(self, monkeypatch, protocol, Q):
        """The scans and the table, BBPSSW's closed forms included, say what
        the rounds and the CLI say, before any lane runs."""
        monkeypatch.setattr(recurrence, "_lanes_improve", _no_lanes)
        with bad_retention(Q):
            regime_scan(protocol, 3, Q)
        with bad_retention(Q):
            recurrence.threshold_table(protocol, [2, 3], Q)


class TestSectorRetention:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("Q", [-0.5, 1.01, math.nan])
    def test_advance(self, protocol, Q):
        with bad_retention(Q):
            sector_round(protocol, preset_block("isotropic", 3, 0.8, 0.25), 3, Q)


class TestStoredSteps:
    """``run_protocol`` keeps each round's own output array as the next state."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 31, 37, 101])
    def test_steps_match_replayed_rounds(self, protocol, d):
        """Every step's label, success probability and weight bytes match a
        replay of ``matrix_round``, which stores through ``CoeffMatrix``;
        each stored array is read-only, owns its data and has no negative
        weight, and the caller's input is untouched."""
        rng = np.random.default_rng(d)
        starts = [random_state(d, rng), preset("x_only", d, 0.5), preset("z_only", d, 0.5)]
        for Q in (1.0, 0.95):
            for state in starts:
                before = state.alpha.tobytes()
                traj = run_protocol(protocol, state, NoiseParams(Q=Q), epsilon=1e-12,
                                    max_iters=12)
                assert traj.steps
                replay = state
                for step in traj.steps:
                    label, replay, prob = matrix_round(protocol, replay, Q)
                    assert (step.step, step.success_prob) == (label, prob)
                    alpha = step.state.alpha
                    assert alpha.tobytes() == replay.alpha.tobytes()
                    assert not alpha.flags.writeable and alpha.base is None
                    assert alpha.min() >= 0.0
                assert state.alpha.tobytes() == before

    def test_step_is_frozen_and_slotted(self):
        step = run_protocol(P1P2, preset("isotropic", 3, 0.8)).steps[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.success_prob = 0.5
        assert not hasattr(step, "__dict__")


# SHA-256 of every step of steps_digest(protocol), pinned on numpy
# STEP_DIGEST_NUMPY, whose FFT and einsum give these bits.
STEP_DIGEST_NUMPY = "2.4.6"
STEP_DIGESTS = {
    P1P2: "6ac6c5b089ec54565916840033d3b475726f880b33b665a56bfaafb5a192b720",
    DEJMPS: "444f2e947a99d4205d367ee750eceeaf102f75eeca2c777b8b5fe629f553a89c",
    BBPSSW: "a98a417fe81fd5470a8e0e86f59375c74281b2a26c07a1c88a5ec4faa87dad8a",
    THREE_COPY: "b8968db640b84f383f149684d5707e969a198bbdc2734b677c8fadbf80c5e79a",
}


def steps_digest(protocol):
    """SHA-256 over the label, success probability, cumulative yield and
    weight bytes of every ``run_protocol`` step, up to 12 rounds from a
    random, an x_only and a z_only start at each d and Q."""
    digest = hashlib.sha256()
    for d in (2, 3, 5, 7, 31, 37, 101):
        rng = np.random.default_rng(d)
        starts = [random_state(d, rng), preset("x_only", d, 0.5), preset("z_only", d, 0.5)]
        for Q in (1.0, 0.98):
            for state in starts:
                traj = run_protocol(protocol, state, NoiseParams(Q=Q), epsilon=1e-12,
                                    max_iters=12)
                for step in traj.steps:
                    digest.update(step.step.encode())
                    digest.update(struct.pack("<2d", step.success_prob, step.cumulative_yield))
                    digest.update(step.state.alpha.tobytes())
    return digest.hexdigest()


class TestStepDigest:
    """``run_protocol``'s bits, pinned.  TestAdvance and TestStoredSteps
    compare rounds with public maps that run the same kernel, so a change
    that moves the bits of every round at once passes them; the digests,
    computed before the matrix round dropped its Q = 1 mix and its copy of
    a transposed store, catch it."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_steps_match_pinned_digest(self, protocol):
        if np.__version__ != STEP_DIGEST_NUMPY:
            pytest.skip(f"digests pinned on numpy {STEP_DIGEST_NUMPY}")
        assert steps_digest(protocol) == STEP_DIGESTS[protocol]


class TestStopReason:
    def test_target(self):
        traj = run_protocol(P1P2, preset("isotropic", 5, 0.5))
        assert traj.reached_target and traj.stop_reason == "target"

    def test_input_already_at_target(self):
        traj = run_protocol(P1P2, preset("isotropic", 2, 1.0))
        assert traj.iterations == 0 and traj.stop_reason == "target"

    def test_stall(self):
        traj = run_protocol(P1P2, preset("isotropic", 2, 0.45))
        assert traj.iterations == 3 and traj.stop_reason == "stall"

    def test_max_iters(self):
        for max_iters in (2, 2.0, np.int64(2)):
            traj = run_protocol(P1P2, preset("isotropic", 5, 0.5), max_iters=max_iters)
            assert traj.iterations == 2 and traj.stop_reason == "max_iters"

    @pytest.mark.parametrize("reason, d, F, max_iters", [
        ("target", 5, 0.5, 200), ("stall", 2, 0.45, 200), ("max_iters", 5, 0.5, 2),
    ])
    def test_reached_target_is_the_stop_reason(self, reason, d, F, max_iters):
        """``reached_target`` is read off ``stop_reason``, never stored."""
        traj = run_protocol(P1P2, preset("isotropic", d, F), max_iters=max_iters)
        assert traj.stop_reason == reason
        assert traj.reached_target == (traj.stop_reason == "target")
        with pytest.raises(AttributeError):
            traj.reached_target = not traj.reached_target

    def test_stall_on_last_round_counts_as_max_iters(self):
        """A stall on the max_iters-th round reports max_iters; one round
        more of budget reports the stall."""
        state = preset("isotropic", 2, 0.45)
        assert run_protocol(P1P2, state, max_iters=3).stop_reason == "max_iters"
        assert run_protocol(P1P2, state, max_iters=4).stop_reason == "stall"

    @pytest.mark.parametrize("max_iters", [2.5, math.nan, math.inf, "3"])
    def test_rejects_non_integral_max_iters(self, max_iters):
        """2.5 used to run 3 rounds and report max_iters, and NaN ran no
        round and reported a stall."""
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            run_protocol(P1P2, preset("isotropic", 5, 0.5), max_iters=max_iters)

    def test_rejects_max_iters_below_one(self):
        with pytest.raises(ValueError, match="^max_iters must be at least 1, got 0$"):
            run_protocol(P1P2, preset("isotropic", 5, 0.5), max_iters=0)


class TestRunProtocol:
    def test_protocol_names(self):
        assert set(PROTOCOLS) == {P1P2, DEJMPS, BBPSSW, THREE_COPY}
        with pytest.raises(ValueError):
            run_protocol("bogus", preset("isotropic", 2, 0.8))

    def test_bbpssw_trajectory_matches_scalar_map(self):
        state = preset("isotropic", 3, 0.6)
        traj = run_protocol(BBPSSW, state, NoiseParams(Q=0.97), epsilon=1e-4)
        F = 0.6
        for step in traj.steps:
            F = bbpssw_step(F, 3, 0.97)[0]
            assert step.state.fidelity == pytest.approx(F, abs=1e-12)

    def test_three_copy_yield_accounting(self):
        traj = run_protocol(THREE_COPY, preset("x_only", 2, 0.7), epsilon=1e-3)
        product = 1.0
        for step in traj.steps:
            product *= step.success_prob / 3.0
        assert traj.cumulative_yield == pytest.approx(product, abs=1e-14)

    def test_three_copy_handles_phase_errors_via_transpose(self):
        traj = run_protocol(THREE_COPY, preset("z_only", 2, 0.7), epsilon=1e-3)
        assert traj.reached_target


class TestYieldRun:
    def test_input_at_target_yields_one(self):
        assert yield_run(P1P2, preset("isotropic", 5, 0.9995), F_target=0.999) == 1.0

    def test_unreachable_target_yields_zero(self):
        assert yield_run(P1P2, preset("isotropic", 2, 0.45), F_target=0.999) == 0.0

    def test_diagonal_beats_twirled_isotropic(self):
        """Keeping the error structure beats symmetrizing it first."""
        from quditpure.states import twirl_isotropic

        for F in (0.5, 0.6, 0.7, 0.8):
            diagonal = preset("x_only", 5, F)
            isotropic = twirl_isotropic(diagonal)
            y_diag = yield_run(P1P2, diagonal, F_target=1 - 1e-4)
            y_iso = yield_run(P1P2, isotropic, F_target=1 - 1e-4)
            assert y_diag > y_iso > 0.0

    def test_three_copy_window_on_x_only_d4(self):
        """The three-copy route wins only in a high-fidelity window."""
        lo = preset("x_only", 4, 0.90)
        assert yield_run(THREE_COPY, lo, F_target=1 - 1e-4) < yield_run(
            P1P2, lo, F_target=1 - 1e-4
        )
        mid = preset("x_only", 4, 0.93)
        y3 = yield_run(THREE_COPY, mid, F_target=1 - 1e-4)
        y2 = yield_run(P1P2, mid, F_target=1 - 1e-4)
        assert y3 == pytest.approx(0.268132, abs=1e-4)
        assert y2 == pytest.approx(0.215818, abs=1e-4)
        hi = preset("x_only", 4, 0.983)
        assert yield_run(THREE_COPY, hi, F_target=1 - 1e-4) < yield_run(
            P1P2, hi, F_target=1 - 1e-4
        )

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            yield_run(P1P2, preset("isotropic", 2, 0.8), F_target=1.0)

    def test_rejects_unknown_protocol_at_target(self):
        """The protocol is checked even when no round needs to run."""
        with pytest.raises(ValueError, match="unknown protocol 'nope'"):
            yield_run("nope", preset("isotropic", 3, 0.9999))

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_every_protocol_yields_one_at_target(self, protocol):
        assert yield_run(protocol, preset("isotropic", 3, 0.9999)) == 1.0
        assert yield_run(protocol, preset("isotropic", 3, 0.999)) == 1.0


class TestPurifiability:
    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    @pytest.mark.parametrize("kind", ["isotropic", "x_only", "z_only", "xz_mixture"])
    def test_noiseless_above_one_over_d(self, d, kind):
        """Every preset barely above F = 1/d purifies without noise —
        except the mostly-phase mixture at d=7, for which the shipped
        choice rule needs F near 0.1684, above 1/7 + 0.02; that cell has
        its own test."""
        if (d, kind) == (7, "xz_mixture"):
            pytest.skip("covered by test_xz_mixture_d7_threshold_sits_higher")
        traj = run_protocol(P1P2, preset(kind, d, 1 / d + 0.02), NOISELESS, epsilon=1e-4)
        assert traj.reached_target

    def test_xz_mixture_d7_threshold_sits_higher(self):
        """The shipped choice rule does NOT purify the d=7 mostly-phase
        mixture from F = 1/7 + 0.02: its trajectory drifts down in a
        quasi-cycle.  The rule's threshold for this mixture is ~0.16837
        (bisected).  That is a property of ``choose_subroutine``, not of
        the P1/P2 family, which purifies the cell under a suitable fixed
        schedule.  Pinning both facts guards the documented exception."""
        state = preset("xz_mixture", 7, 1 / 7 + 0.02)
        traj = run_protocol(P1P2, state, NOISELESS, epsilon=1e-4, max_iters=200)
        assert not traj.reached_target
        assert traj.final_fidelity < 1 / 7 + 0.02
        above = run_protocol(P1P2, preset("xz_mixture", 7, 0.170), NOISELESS, epsilon=1e-4)
        assert above.reached_target

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_isotropic_below_one_over_d_stalls(self, d):
        traj = run_protocol(P1P2, preset("isotropic", d, 1 / d - 0.02), NOISELESS, epsilon=1e-4)
        assert not traj.reached_target


class TestScans:
    def test_regime_scan_matches_fixed_points(self):
        scan = regime_scan(BBPSSW, 3, 0.95)
        roots = bbpssw_fixed_points(3, 0.95)
        assert scan.purifiable
        assert scan.F_min == pytest.approx(roots.F_min, abs=1e-6)
        assert scan.F_max == pytest.approx(roots.F_max, abs=1e-6)

    def test_noise_threshold_d2(self):
        assert noise_threshold(P1P2, 2) == pytest.approx(0.937, abs=2e-3)

    def test_noise_threshold_d6(self):
        assert noise_threshold(P1P2, 6) == pytest.approx(0.824, abs=2e-3)

    def test_noise_threshold_rejects_protocol_that_does_not_purify_at_q1(self, monkeypatch):
        def no_lane_improves(protocol, d, Q, kind, F0, iterations):
            return np.zeros(F0.size, dtype=bool)

        monkeypatch.setattr(recurrence, "_lanes_improve", no_lane_improves)
        with pytest.raises(ValueError, match=r"does not purify isotropic states at Q=1\.0"):
            noise_threshold(P1P2, 2)

    @pytest.mark.parametrize("edge", [1e-6, 0.0])
    def test_noise_threshold_walks_down_to_zero(self, monkeypatch, edge):
        """A predicate that purifies at every Q > edge sends the walk down
        every 0.1 step to the bracket at 0, which it never passes."""
        seen = []

        def improves_above_edge(protocol, d, Q, kind, F0, iterations):
            seen.extend(dict.fromkeys(Q.tolist()))  # a block's Q levels, in order
            return Q > edge

        monkeypatch.setattr(recurrence, "_lanes_improve", improves_above_edge)
        q_th = noise_threshold(P1P2, 2, q_tol=1e-3)
        walk = [1.0, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0]
        assert seen[:len(walk)] == pytest.approx(walk, abs=1e-12)
        assert min(seen) >= 0.0
        assert edge <= q_th < 1e-3

    def test_scans_take_three_copy(self):
        """Both scans run the three-copy protocol on the preset sector; an
        unknown protocol is still rejected, by the round itself."""
        regime = regime_scan(THREE_COPY, 2)
        assert regime.purifiable and regime.F_min < 0.51 and regime.F_max == 1.0
        assert 0.5 < noise_threshold(THREE_COPY, 2) < 1.0
        for scan in (regime_scan, noise_threshold):
            with pytest.raises(ValueError, match="unknown protocol"):
                scan("bogus", 2)

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_three_copy_threshold_below_p1p2(self, d):
        """Three copies tolerate more gate noise than the adaptive two-copy
        protocol on isotropic states.  Only the order is pinned."""
        assert noise_threshold(THREE_COPY, d) < noise_threshold(P1P2, d)

    @pytest.mark.parametrize("grid", [0, 1])
    def test_scans_reject_grid_below_two(self, grid):
        with pytest.raises(ValueError, match="grid"):
            regime_scan(P1P2, 2, grid=grid)
        with pytest.raises(ValueError, match="grid"):
            noise_threshold(P1P2, 2, grid=grid)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_scans_reject_iterations_below_one(self, monkeypatch, iterations):
        monkeypatch.setattr(recurrence, "_lanes_improve", _no_lanes)
        with pytest.raises(ValueError, match="iterations"):
            regime_scan(P1P2, 2, iterations=iterations)
        with pytest.raises(ValueError, match="iterations"):
            noise_threshold(P1P2, 2, iterations=iterations)

    def test_scans_accept_integral_float_counts(self):
        """grid=10.0 and iterations=20.0 used to raise TypeError."""
        counts = dict(grid=10, iterations=20)
        as_floats = {name: float(value) for name, value in counts.items()}
        assert regime_scan(BBPSSW, 3, **as_floats) == regime_scan(BBPSSW, 3, **counts)
        assert noise_threshold(BBPSSW, 3, **as_floats) == noise_threshold(BBPSSW, 3, **counts)

    @pytest.mark.parametrize("value", [10.5, math.nan])
    @pytest.mark.parametrize("name", ["grid", "iterations"])
    def test_scans_reject_non_integral_counts(self, monkeypatch, name, value):
        monkeypatch.setattr(recurrence, "_lanes_improve", _no_lanes)
        for scan in (regime_scan, noise_threshold):
            with pytest.raises(ValueError, match=f"must be an integer, got {value}"):
                scan(P1P2, 2, **{name: value})

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_scans_reject_bad_tolerance(self, monkeypatch, tol):
        """0 used to bisect forever once the float bracket stopped
        shrinking; NaN skipped the bisection and returned the midpoint."""
        monkeypatch.setattr(recurrence, "_lanes_improve", _no_lanes)
        with pytest.raises(ValueError, match="tolerance"):
            noise_threshold(P1P2, 2, q_tol=tol)

    @pytest.mark.parametrize("tol", [2.0**-53, 1e-16, 1e-17])
    def test_threshold_bisection_ends_or_is_refused(self, monkeypatch, tol):
        """Adjacent doubles in [0.5, 1) lie 2**-53 apart, so a finer
        tolerance never closed the Q bracket: it is refused at once, and
        2**-53 itself ends.  A call budget fails the test in place of a hang."""
        calls = []

        def budgeted(protocol, d, Q, kind, F0, iterations):
            calls.append(Q)
            assert len(calls) <= 200, "bisection did not end"
            return np.full(F0.size, Q > 0.8123456789)

        monkeypatch.setattr(recurrence, "_lanes_improve", budgeted)
        if tol < 2.0**-53:
            with pytest.raises(ValueError, match="tolerance"):
                noise_threshold(P1P2, 2, q_tol=tol)
            assert not calls
        else:
            assert noise_threshold(P1P2, 2, q_tol=tol) == pytest.approx(0.8123456789, abs=tol)

    @pytest.mark.parametrize("d", [1000, 10**6])
    def test_adaptive_threshold_follows_twirl_asymptote(self, d):
        """At large d the adaptive threshold approaches the twirl
        protocol's sqrt(2) * d**(-1/4).  No d x d matrix fits at
        d = 10**6, so the scan runs on the preset sector."""
        assert abs(noise_threshold(P1P2, d) - bbpssw_threshold_asymptote(d)) < 2e-3


def _no_lanes(*args):
    raise AssertionError("scan ran before its arguments were checked")


def assert_on_sector(state, F, x, z, w, unordered_xz, atol=1e-13):
    """Every entry of the matrix matches its sector value: row 0 is x,
    column 0 is z and the interior is w."""
    expected = np.full(state.alpha.shape, w)
    expected[0, 0] = F
    expected[0, 1:], expected[1:, 0] = x, z
    deviation = np.abs(state.alpha - expected).max()
    if unordered_xz:
        deviation = min(deviation, np.abs(state.alpha - expected.T).max())
    assert deviation <= atol


# How far 30 sector rounds may drift from the matrix path.  Two copies
# stay within 1e-13.  The three-copy map from the noiseless F = 1/2 start
# at d = 2 keeps F at 1/2 and sends x and z round a chaotic orbit, which
# doubles a rounding difference every round or two: 3.1e-12 by round 30
# from xz_mixture and 2.6e-12 from isotropic (every other cell below
# 4e-15), so three copies get 1e-11.
SECTOR_TOL = {P1P2: 1e-13, DEJMPS: 1e-13, BBPSSW: 1e-13, THREE_COPY: 1e-11}


class TestSector:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_rounds_match_matrix_path(self, protocol, d):
        """30 noisy rounds from each preset: fidelity, success probability
        and the three error weights agree with the matrix path.  The
        adaptive sectors keep z <= x, so their x and z are compared as a pair."""
        tol = SECTOR_TOL[protocol]
        for kind in PRESET_KINDS:
            for Q in (1.0, 0.95):
                state = preset(kind, d, 0.5)
                sector = state.alpha[:2, :2]
                for _ in range(30):
                    _, state, prob = matrix_round(protocol, state, Q)
                    sector, sector_prob = sector_round(protocol, sector, d, Q)
                    assert abs(sector_prob - prob) <= tol
                    assert_on_sector(state, *sector.ravel(), protocol in (P1P2, THREE_COPY), tol)

    def test_lanes_match_one_lane_runs(self):
        """A lane vector gives, bit for bit, what each lane gives alone."""
        d, Q = 5, 0.97
        F = np.linspace(0.15, 0.95, 9)
        rest = 1.0 - F
        start = np.array((
            (F, 0.2 * rest / (d - 1)), (0.5 * rest / (d - 1), 0.3 * rest / (d - 1)**2)
        ))
        for protocol in PROTOCOLS:
            lanes = start
            singles = [start[..., i].copy() for i in range(F.size)]
            for _ in range(30):
                lanes, prob = sector_round(protocol, lanes, d, Q)
                for i, single in enumerate(singles):
                    single, single_prob = sector_round(protocol, single, d, Q)
                    assert [*lanes[..., i].ravel(), prob[i]] == [*single.ravel(), single_prob]
                    singles[i] = single
        for protocol, kind in itertools.product(PROTOCOLS, PRESET_KINDS):
            Fs = np.linspace(0.05, 0.99, 16)
            together = lanes_improve(protocol, 7, 0.9, kind, Fs, 200)
            alone = [lanes_improve(protocol, 7, 0.9, kind, Fs[i : i + 1], 200)[0]
                     for i in range(Fs.size)]
            assert together.tolist() == alone

    def test_mixed_block_matches_separate_blocks(self):
        """One block of lanes at d in {2, 7, 1000, 10**6} and several Q gives,
        lane for lane, what a block of each (d, Q) alone gives; the lane
        constants are the floats of a scalar round, huge d included."""
        Fs = np.linspace(0.0, 0.6, 40) ** 2 + 1e-6
        cells = list(itertools.product([2, 7, 1000, 10**6], [1.0, 0.97, 0.9, 0.8]))
        for protocol, kind in itertools.product(PROTOCOLS, PRESET_KINDS):
            d = np.repeat([cell[0] for cell in cells], Fs.size)
            Q = np.repeat([cell[1] for cell in cells], Fs.size)
            F0 = np.tile(Fs, len(cells))
            together = recurrence._lanes_improve(protocol, d, Q, kind, F0, 120)
            alone = [lanes_improve(protocol, dc, Qc, kind, Fs, 120) for dc, Qc in cells]
            assert together.tolist() == np.concatenate(alone).tolist()
            assert 0 < together.sum() < together.size
        for d in (2, 7, 10**6, 3_037_000_499, 10**10, 10**30):
            for Q in (1.0, 0.97, 0.1):
                lanes = np.array([d, d], dtype=object if d**2 >= 2**63 else int)
                table = np.array(recurrence._constants(lanes, np.array([Q, Q])), float)
                scalar = [float(c) for c in recurrence._constants(d, Q)]
                assert table[:, 0].tolist() == table[:, 1].tolist() == scalar

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_three_copy_round_is_the_column_cube(self, d):
        """The noiseless three-copy sector round is the roll-loop cube of
        each column of the full matrix, normalized by the sum of cubed
        column sums."""
        F, x, z, w = 0.55, 0.3 / (d - 1), 0.1 / (d - 1), 0.05 / (d - 1) ** 2
        block = np.array(((F, x), (z, w)))
        full = np.full((d, d), w)
        full[0, 0], full[0, 1:], full[1:, 0] = F, x, z
        cube = roll_phase_conv(roll_phase_conv(full, full), full)
        prob = cube.sum()
        three, k = recurrence._round(THREE_COPY, d, 1.0, recurrence._sector_conv)
        _, s, sector_prob = three(block.copy(), k)
        assert sector_prob == pytest.approx(prob, rel=1e-14)
        assert_on_sector(CoeffMatrix(cube / prob), *s.ravel(), unordered_xz=False)

    def test_batched_bisection_matches_sequential(self):
        """Evaluating five levels per call returns the float that one
        midpoint per call returns."""

        def improves(Fs):
            return lanes_improve(P1P2, 3, 1.0, "xz_mixture", Fs, 200)

        edge = regime_scan(P1P2, 3, 1.0, "xz_mixture").F_min
        bad, good = edge - 0.01, edge + 0.01
        assert improves(np.array([bad, good])).tolist() == [False, True]
        expected = sequential_bisection(improves, bad, good, 1e-8)
        for levels in (1, 2, 5):
            assert run_bisect(improves, bad, good, 1e-8, levels) == expected

        # An edge approached from above, as regime_scan's upper edge is.
        def below_third(xs):
            return xs < 1 / 3

        assert run_bisect(below_third, 1.0, 0.0, 1e-12, 5) == (
            sequential_bisection(below_third, 1.0, 0.0, 1e-12)
        )


def lanes_improve(protocol, d, Q, kind, F0, iterations):
    """``_lanes_improve`` with one d and one Q for every lane."""
    lanes = np.ones(F0.size, dtype=int)
    return recurrence._lanes_improve(protocol, d * lanes, Q * lanes, kind, F0, iterations)


def run_bisect(improves, bad, good, tol, levels):
    """``_bisect`` in step form, driven by a plain predicate."""

    def ask(values):
        return (yield values)

    steps, verdicts = recurrence._bisect(ask, bad, good, tol, levels), None
    try:
        while True:
            verdicts = improves(steps.send(verdicts))
    except StopIteration as stop:
        return stop.value


def sequential_bisection(improves, bad, good, tol):
    """Reference: one midpoint per call, as the scans bisected before."""
    while abs(good - bad) > tol:
        mid = 0.5 * (bad + good)
        if improves(np.array([mid]))[0]:
            good = mid
        else:
            bad = mid
    return 0.5 * (bad + good)


def loop_walk(ok):
    """Reference: the walk regime_scan made before it used numpy lookups,
    from the middle outward to the first hit, then to both ends of its
    run of hits.  Returns (left, right), or None for no hit."""
    n = len(ok)
    mid = n // 2
    order = [mid]
    for step in range(1, n):
        for idx in (mid - step, mid + step):
            if 0 <= idx < n:
                order.append(idx)
    hit = next((i for i in order if ok[i]), None)
    if hit is None:
        return None
    left = hit
    while left > 0 and ok[left - 1]:
        left -= 1
    right = hit
    while right < n - 1 and ok[right + 1]:
        right += 1
    return left, right


class TestRegimeWalk:
    def test_numpy_walk_matches_loop_walk(self, monkeypatch):
        """regime_scan's grid brackets, read off its bisection calls,
        equal the loop walk's on random verdict arrays and on no hit, all
        hits, a tie around the middle and hits at the edges."""
        rng = np.random.default_rng(12)
        cases = [rng.random(n) < p for n in range(2, 41) for p in (0.1, 0.4, 0.7, 0.95)
                 for _ in range(6)]
        for n in (2, 3, 8, 9):
            cases += [np.zeros(n, bool), np.ones(n, bool)]
            hit_sets = [[0], [n - 1], [0, n - 1]]
            if n > 2:
                hit_sets.append([n // 2 - 1, n // 2 + 1])  # a tie: the lower one wins
            for hits in hit_sets:
                ok = np.zeros(n, bool)
                ok[hits] = True
                cases.append(ok)
        verdicts = {}
        monkeypatch.setattr(recurrence, "_lanes_improve", lambda *args: verdicts["ok"])

        def brackets(improves, bad, good, tol, levels):
            return bad, good
            yield  # a step form that asks for nothing

        monkeypatch.setattr(recurrence, "_bisect", brackets)
        for ok in cases:
            verdicts["ok"] = ok
            n = ok.size
            Fs = np.linspace(1.0 / 9 + 1e-9, 1.0 - 1e-6, n)
            regime = regime_scan(P1P2, 3, grid=n)
            walk = loop_walk(ok.tolist())
            assert regime.purifiable == (walk is not None), ok
            if walk is None:
                continue
            left, right = walk
            F_min = (Fs[left - 1], Fs[left]) if left > 0 else Fs[0]
            F_max = (Fs[right + 1], Fs[right]) if right < n - 1 else 1.0
            assert (regime.F_min, regime.F_max) == (F_min, F_max), ok


def tree_bisect(improves, bad, good, tol, levels):
    """Reference: level-tree bisection with a plain predicate, one call per tree."""
    n = 2**levels - 1
    while abs(good - bad) > tol:
        lo, hi = [bad], [good]
        for i in range(n // 2):
            mid = 0.5 * (lo[i] + hi[i])
            lo += [mid, lo[i]]
            hi += [hi[i], mid]
        mids = 0.5 * (np.array(lo) + np.array(hi))
        ok, i = improves(mids), 0
        while i < n and abs(good - bad) > tol:
            good, bad, i = (mids[i], bad, 2 * i + 2) if ok[i] else (good, mids[i], 2 * i + 1)
    return 0.5 * (bad + good)


def threshold_one_at_a_time(protocol, d, kind, grid, iterations, q_tol=1e-3):
    """Reference for noise_threshold: one predicate call per Q, in order."""
    Fs = np.linspace(1.0 / (d * d) + 1e-9, 1.0 - 1e-6, grid)

    def purifiable(q):
        return lanes_improve(protocol, d, q, kind, Fs, iterations).any()

    assert purifiable(1.0)
    q_lo, q_hi = 0.7, 1.0
    while q_lo > 0.0 and purifiable(q_lo):
        q_hi, q_lo = q_lo, max(q_lo - 0.1, 0.0)
    return float(tree_bisect(lambda qs: [purifiable(q) for q in qs], q_lo, q_hi, q_tol, 1))


def regime_one_at_a_time(protocol, d, Q, kind, grid, iterations):
    """Reference for regime_scan: one predicate call per F tree, in order."""
    Fs = np.linspace(1.0 / (d * d) + 1e-9, 1.0 - 1e-6, grid)

    def improves(F0):
        return lanes_improve(protocol, d, Q, kind, F0, iterations)

    ok = improves(Fs)
    if not ok.any():
        return recurrence._no_regime(d)
    hits, fails = np.flatnonzero(ok), np.flatnonzero(~ok)
    i = np.searchsorted(fails, hits[np.argmin(np.abs(hits - grid // 2))])
    edge = functools.partial(tree_bisect, improves, tol=recurrence.REFINE_TOL, levels=5)
    F_min = edge(Fs[fails[i - 1]], Fs[fails[i - 1] + 1]) if i else Fs[0]
    F_max = edge(Fs[fails[i]], Fs[fails[i] - 1]) if i < fails.size else 1.0
    return recurrence.PurificationRegime(F_min, F_max, True)


class TestLockstep:
    @pytest.mark.parametrize("kind", PRESET_KINDS)
    @pytest.mark.parametrize("protocol", [P1P2, DEJMPS, THREE_COPY])
    def test_matches_one_scan_at_a_time(self, protocol, kind):
        """A table's scans in lockstep, and each scan run alone, return the
        floats of one predicate call per Q and per F tree."""
        ds, scan = [2, 3, 4, 7], dict(grid=128, iterations=160)
        q_ths = [threshold_one_at_a_time(protocol, d, kind, **scan) for d in ds]
        assert [noise_threshold(protocol, d, kind, **scan) for d in ds] == q_ths
        for Q in (1.0, 0.97):
            regimes = [regime_one_at_a_time(protocol, d, Q, kind, **scan) for d in ds]
            assert [regime_scan(protocol, d, Q, kind, **scan) for d in ds] == regimes
            table = recurrence.threshold_table(protocol, ds, Q, kind, **scan)
            assert table == list(zip(q_ths, regimes))

    def test_table_checks_every_row_first(self, monkeypatch):
        """Each bad argument, a later row's d included, raises before any
        row runs, whether its rows are scans (P1P2) or closed forms (BBPSSW)."""
        for name in ("_lanes_improve", "bbpssw_threshold", "bbpssw_fixed_points"):
            monkeypatch.setattr(recurrence, name, _no_lanes)
        faults = [
            ({"grid": 1}, "fidelity grid must be at least 2, got 1"),
            ({"iterations": 0}, "iterations must be at least 1, got 0"),
            ({"q_tol": 0.0}, "bisection tolerance must be finite and at least 2**-53, got 0.0"),
            ({"Q": 1.5}, "retention Q must be in [0, 1], got 1.5"),
            ({"preset_kind": "bogus"}, "unknown preset kind 'bogus'"),
            ({"ds": [2, 1]}, "qudit dimension must be at least 2, got 1"),
            ({"ds": [2, 3, 7.5]}, "qudit dimension must be an integer, got 7.5"),
        ]
        for protocol, (fault, message) in itertools.product([P1P2, BBPSSW], faults):
            with pytest.raises(ValueError, match=re.escape(message)):
                recurrence.threshold_table(protocol, **{"ds": [2, 3, 7], **fault})
        assert recurrence.threshold_table(P1P2, []) == recurrence.threshold_table(BBPSSW, []) == []

    @pytest.mark.parametrize("Q", [1.0, 0.95])
    def test_bbpssw_rows_are_closed_forms(self, monkeypatch, Q):
        """BBPSSW's table is its closed forms, as the CLI prints them, and
        runs no lane."""
        monkeypatch.setattr(recurrence, "_lanes_improve", _no_lanes)
        ds = [2, 3, 7]
        rows = [(bbpssw_threshold(d), bbpssw_fixed_points(d, Q)) for d in ds]
        assert recurrence.threshold_table(BBPSSW, ds, Q) == rows
