"""Tests for the recurrence purification protocols and their scans."""

import numpy as np
import pytest

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
    bbpssw_map,
    bbpssw_step,
    bbpssw_threshold,
    bbpssw_threshold_asymptote,
    choose_subroutine,
    dejmps_map,
    noise_threshold,
    noisy_step,
    p1_map,
    p1p2_run,
    p2_map,
    regime_scan,
    run_protocol,
    three_copy_map,
    yield_run,
)
from quditpure.states import CoeffMatrix, StatePreset, make_preset, random_state


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
    kernel replaced, ``out[k, j] = sum_m a[m, j] * b[(k - m) mod d, j]``."""
    out = np.zeros_like(a)
    for shift in range(a.shape[0]):
        out += a[shift] * np.roll(b, shift, axis=0)
    return out


class TestPhaseKernel:
    """The maps equal the roll-loop reference on both sides of the kernel's
    size split (index gather up to d = 31, FFT above).  The x_only and
    z_only presets have exact zeros, where FFT rounding lands on either
    side of 0."""

    @pytest.mark.parametrize("d", [2, 7, 31, 32, 37, 101])
    def test_maps_match_roll_loop(self, d):
        rng = np.random.default_rng(d)
        for state in (
            random_state(d, rng),
            preset("x_only", d, 0.6),
            preset("z_only", d, 0.6),
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
                assert got.min() >= 0.0
                assert abs(prob - (a.sum(axis=0) ** copies).sum()) <= 1e-12


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
        traj = p1p2_run(preset("isotropic", 5, 0.5), NOISELESS, epsilon=1e-4)
        assert traj.reached_target
        assert traj.final_fidelity >= 1 - 1e-4
        assert traj.cumulative_yield > 0.0

    def test_already_pure_needs_no_iterations(self):
        traj = p1p2_run(preset("isotropic", 2, 1.0), NOISELESS, epsilon=1e-4)
        assert traj.reached_target
        assert traj.iterations == 0
        assert traj.cumulative_yield == 1.0

    def test_below_threshold_stalls(self):
        traj = p1p2_run(preset("isotropic", 2, 0.45), NOISELESS, epsilon=1e-4)
        assert not traj.reached_target
        assert traj.final_fidelity == pytest.approx(0.4079252103829514, abs=1e-9)
        assert traj.iterations == 3  # the stall rule cuts the run short

    def test_trajectory_bookkeeping(self):
        traj = p1p2_run(preset("isotropic", 3, 0.6), NOISELESS, epsilon=1e-4)
        product = 1.0
        for step in traj.steps:
            assert step.step in (P1, P2)
            product *= step.success_prob / 2.0
            assert step.cumulative_yield == pytest.approx(product, abs=1e-14)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            p1p2_run(preset("isotropic", 2, 0.8), NOISELESS, epsilon=0.0)
        with pytest.raises(ValueError):
            p1p2_run(preset("isotropic", 2, 0.8), NOISELESS, epsilon=1e-4, max_iters=0)


class TestNoiseParams:
    def test_defaults_noiseless(self):
        assert NOISELESS.Q == 1.0 and NOISELESS.p == 1.0 and NOISELESS.q == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseParams(Q=1.2)
        with pytest.raises(ValueError):
            NoiseParams(q=-0.1)


class TestBbpssw:
    def test_map_anchor_d2(self):
        assert bbpssw_map(0.75, 2, 1.0) == pytest.approx(41 / 52, abs=1e-14)

    def test_mixed_state_fixed_point(self):
        for d in (2, 3, 5):
            assert bbpssw_map(1 / d**2, d, 1.0) == pytest.approx(1 / d**2, abs=1e-12)

    def test_pure_fixed_point(self):
        for d in (2, 3, 5):
            assert bbpssw_map(1.0, d, 1.0) == pytest.approx(1.0, abs=1e-12)

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
                assert bbpssw_map(regime.F_min, d, Q) == pytest.approx(
                    regime.F_min, abs=1e-9
                )
                assert bbpssw_map(regime.F_max, d, Q) == pytest.approx(
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
                    F = bbpssw_map(F, d, Q)
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
            F = bbpssw_map(F, 3, 0.97)
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
        traj = p1p2_run(preset(kind, d, 1 / d + 0.02), NOISELESS, epsilon=1e-4)
        assert traj.reached_target

    def test_xz_mixture_d7_threshold_sits_higher(self):
        """The shipped choice rule does NOT purify the d=7 mostly-phase
        mixture from F = 1/7 + 0.02: its trajectory drifts down in a
        quasi-cycle.  The rule's threshold for this mixture is ~0.16837
        (bisected).  That is a property of ``choose_subroutine``, not of
        the P1/P2 family, which purifies the cell under a suitable fixed
        schedule.  Pinning both facts guards the documented exception."""
        state = preset("xz_mixture", 7, 1 / 7 + 0.02)
        traj = p1p2_run(state, NOISELESS, epsilon=1e-4, max_iters=200)
        assert not traj.reached_target
        assert traj.final_fidelity < 1 / 7 + 0.02
        above = p1p2_run(preset("xz_mixture", 7, 0.170), NOISELESS, epsilon=1e-4)
        assert above.reached_target

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_isotropic_below_one_over_d_stalls(self, d):
        traj = p1p2_run(preset("isotropic", d, 1 / d - 0.02), NOISELESS, epsilon=1e-4)
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

    def test_scans_reject_three_copy(self):
        with pytest.raises(ValueError):
            regime_scan(THREE_COPY, 2)
        with pytest.raises(ValueError):
            noise_threshold(THREE_COPY, 2)

    @pytest.mark.parametrize("grid", [0, 1])
    def test_scans_reject_grid_below_two(self, grid):
        with pytest.raises(ValueError, match="grid"):
            regime_scan(P1P2, 2, grid=grid)
        with pytest.raises(ValueError, match="grid"):
            noise_threshold(P1P2, 2, grid=grid)
