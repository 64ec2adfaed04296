"""Tests for weight-matrix states, presets, channels, and serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditpure.multipartite import GhzCoeffs
from quditpure.states import (
    NEG_TOL,
    PRESET_KINDS,
    RENORM_TOL,
    SUM_TOL,
    CoeffMatrix,
    StatePreset,
    depolarize_channel,
    depolarized,
    make_preset,
    preset_block,
    random_state,
    read_state_file,
    state_from_json,
    state_to_json,
    twirl_isotropic,
    twirled,
)


class TestCoeffMatrix:
    def test_valid_construction(self):
        m = CoeffMatrix([[0.7, 0.1], [0.1, 0.1]])
        assert m.d == 2
        assert m.fidelity == pytest.approx(0.7, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CoeffMatrix([[1.1, -0.1], [0.0, 0.0]])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            CoeffMatrix([[0.5, 0.1], [0.1, 0.1]])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            CoeffMatrix(np.ones((2, 3)) / 6.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            CoeffMatrix([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            CoeffMatrix([[0.5, bad], [0.0, 0.5]])

    def test_renormalizes_tiny_drift(self):
        m = CoeffMatrix(np.full((2, 2), 0.25) * (1.0 + 2e-10))
        assert m.alpha.sum() == pytest.approx(1.0, abs=1e-14)

    def test_fidelity_is_corner_entry(self):
        assert CoeffMatrix([[0.4, 0.3], [0.2, 0.1]]).fidelity == 0.4

    def test_transpose(self):
        m = CoeffMatrix([[0.4, 0.3], [0.2, 0.1]])
        np.testing.assert_allclose(m.transpose().alpha, [[0.4, 0.2], [0.3, 0.1]])

    def test_immutable(self):
        m = CoeffMatrix([[0.5, 0.2], [0.2, 0.1]])
        with pytest.raises(ValueError):
            m.alpha[0, 0] = 0.9


def loop_make_preset(kind, F, x_weight, d):
    """The preset weight matrix as built before ``preset_block``: one
    branch per kind, kept as the byte-for-byte reference."""
    if kind == "isotropic":
        a = np.full((d, d), (1.0 - F) / (d * d - 1))
        a[0, 0] = F
        return a
    a = np.zeros((d, d))
    a[0, 0] = F
    rest = 1.0 - F
    if kind == "x_only":
        a[0, 1:] = rest / (d - 1)
    elif kind == "z_only":
        a[1:, 0] = rest / (d - 1)
    else:
        a[0, 1:] = x_weight * rest / (d - 1)
        a[1:, 0] = (1.0 - x_weight) * rest / (d - 1)
    return a


class TestPresets:
    @pytest.mark.parametrize("d", [2, 3, 7, 31])
    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_matches_branch_per_kind_construction(self, kind, d):
        """Byte for byte, and each lane of a block built from a vector of F
        equals the one-F block, as the preset-sector scans need.  x_weight
        0.1 is inexact in binary, so it also pins the order of the products."""
        Fs = [0.0, 1.0 / d**2, 0.37, 1.0]
        for x_weight in (0.0, 0.25, 1.0, 0.1):
            for F in Fs:
                got = make_preset(StatePreset(kind, F, x_weight), d).alpha
                want = CoeffMatrix(loop_make_preset(kind, F, x_weight, d)).alpha
                assert got.tobytes() == want.tobytes(), (F, x_weight)
            lanes = preset_block(kind, d, np.array(Fs), x_weight)
            ones = [preset_block(kind, d, F, x_weight) for F in Fs]
            for lane, one in zip(np.moveaxis(lanes, -1, 0), ones):
                assert lane.tobytes() == one.tobytes()

    def test_kinds_tuple(self):
        assert PRESET_KINDS == ("isotropic", "x_only", "z_only", "xz_mixture")

    @pytest.mark.parametrize("d", [3037000500, 10**300])
    def test_matrix_beyond_array_size_rejected_before_build(self, d):
        """d x d must be an array size, so d = 3,037,000,500 is one too many."""
        with pytest.raises(ValueError, match=r"d\*\*2 must be at most 9.22337e\+18"):
            make_preset(StatePreset("isotropic", 0.8), d)

    def test_isotropic_perfect(self):
        m = make_preset(StatePreset("isotropic", 1.0), 2)
        np.testing.assert_allclose(m.alpha, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_isotropic_d5_low(self):
        m = make_preset(StatePreset("isotropic", 0.2), 5)
        expected = np.full((5, 5), 0.8 / 24.0)
        expected[0, 0] = 0.2
        np.testing.assert_allclose(m.alpha, expected, atol=1e-15)

    def test_x_only_d4(self):
        m = make_preset(StatePreset("x_only", 0.40), 4)
        expected = np.zeros((4, 4))
        expected[0] = [0.40, 0.20, 0.20, 0.20]
        np.testing.assert_allclose(m.alpha, expected, atol=1e-15)

    def test_z_only_is_x_only_transpose(self):
        x = make_preset(StatePreset("x_only", 0.3), 5)
        z = make_preset(StatePreset("z_only", 0.3), 5)
        np.testing.assert_allclose(z.alpha, x.alpha.T, atol=1e-15)

    def test_xz_mixture_weight_split(self):
        m = make_preset(StatePreset("xz_mixture", 0.4, x_weight=0.25), 3)
        a = m.alpha
        assert a[0, 0] == pytest.approx(0.4)
        assert a[0, 1:].sum() == pytest.approx(0.6 * 0.25, abs=1e-12)
        assert a[1:, 0].sum() == pytest.approx(0.6 * 0.75, abs=1e-12)
        assert a[1:, 1:].sum() == pytest.approx(0.0, abs=1e-15)

    def test_fidelity_bounds_enforced(self):
        with pytest.raises(ValueError):
            StatePreset("isotropic", 1.01)
        with pytest.raises(ValueError):
            StatePreset("isotropic", -0.01)
        with pytest.raises(ValueError):
            StatePreset("xz_mixture", 0.5, x_weight=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            StatePreset("bogus", 0.9)


class TestDepolarizeChannel:
    def test_d2_retention_09(self):
        m = make_preset(StatePreset("isotropic", 1.0), 2)
        out = depolarize_channel(m, 0.9)
        np.testing.assert_allclose(
            out.alpha, [[0.925, 0.025], [0.025, 0.025]], atol=1e-12
        )

    def test_identity_at_unit_retention(self):
        m = random_state(3, np.random.default_rng(7))
        out = depolarize_channel(m, 1.0)
        np.testing.assert_allclose(out.alpha, m.alpha, atol=1e-15)

    def test_full_depolarization(self):
        m = random_state(4, np.random.default_rng(3))
        out = depolarize_channel(m, 0.0)
        np.testing.assert_allclose(out.alpha, np.full((4, 4), 1 / 16), atol=1e-12)

    def test_composition_law(self):
        m = random_state(5, np.random.default_rng(11))
        a = depolarize_channel(depolarize_channel(m, 0.8), 0.7)
        b = depolarize_channel(m, 0.8 * 0.7)
        np.testing.assert_allclose(a.alpha, b.alpha, atol=1e-12)

    def test_rejects_out_of_range(self):
        m = make_preset(StatePreset("isotropic", 0.9), 2)
        with pytest.raises(ValueError):
            depolarize_channel(m, 1.2)
        with pytest.raises(ValueError):
            depolarize_channel(m, -0.1)
        with pytest.raises(ValueError, match="retention"):
            depolarize_channel(m, math.nan)


class TestTwirl:
    def test_preserves_fidelity(self):
        m = random_state(5, np.random.default_rng(23))
        assert twirl_isotropic(m).fidelity == pytest.approx(m.fidelity, abs=1e-15)

    def test_uniform_off_corner(self):
        m = make_preset(StatePreset("x_only", 0.7), 3)
        out = twirl_isotropic(m)
        expected = np.full((3, 3), 0.3 / 8.0)
        expected[0, 0] = 0.7
        np.testing.assert_allclose(out.alpha, expected, atol=1e-14)

    def test_idempotent(self):
        once = twirl_isotropic(random_state(4, np.random.default_rng(5)))
        twice = twirl_isotropic(once)
        np.testing.assert_allclose(once.alpha, twice.alpha, atol=1e-15)


def unfold(block, d):
    """The d x d matrix whose top-left 2 x 2 corner is ``block``."""
    return block.repeat((1, d - 1), axis=0).repeat((1, d - 1), axis=1)


class TestFoldedLayout:
    """A preset-sector matrix folds into its top-left 2 x 2 block, and the
    noise steps give the same bits on the block as on the matrix."""

    @pytest.mark.parametrize("d", [2, 3, 7, 31])
    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_block_is_the_matrix_corner(self, kind, d):
        for F in (0.0, 1.0 / d**2, 0.37, 1.0):
            for x_weight in (0.0, 0.1, 1.0):
                matrix = make_preset(StatePreset(kind, F, x_weight), d).alpha
                block = preset_block(kind, d, F, x_weight)
                assert block.tobytes() == matrix[:2, :2].tobytes()
                assert unfold(block, d).tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("d", [2, 3, 7, 31])
    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_noise_steps_agree_on_block_and_matrix(self, kind, d):
        for F in (1.0 / d**2, 0.37, 0.9):
            matrix = make_preset(StatePreset(kind, F, 0.1), d).alpha
            block = matrix[:2, :2]
            errors = d * d - 1
            assert unfold(twirled(block, errors), d).tobytes() == twirled(matrix, errors).tobytes()
            for q in (1.0, 0.97, 0.5):
                for r in (q, q * q):
                    on_block = unfold(depolarized(block, r, d), d)
                    assert on_block.tobytes() == depolarized(matrix, r, d).tobytes()


class TestRandomState:
    def test_deterministic_under_seed(self):
        a = random_state(3, np.random.default_rng(42))
        b = random_state(3, np.random.default_rng(42))
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_valid_distribution(self):
        m = random_state(7, np.random.default_rng(0))
        assert m.alpha.min() >= 0.0
        assert m.alpha.sum() == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip(self):
        m = random_state(4, np.random.default_rng(17))
        back = state_from_json(state_to_json(m))
        assert back.d == 4
        np.testing.assert_allclose(back.alpha, m.alpha, atol=1e-15)

    def test_json_document_shape(self):
        doc = state_to_json(make_preset(StatePreset("isotropic", 0.8), 2))
        assert doc["d"] == 2
        assert isinstance(doc["alpha"], list)
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_preset_shorthand(self):
        m = state_from_json({"d": 2, "preset": "x_only", "F": 0.6})
        np.testing.assert_allclose(m.alpha, [[0.6, 0.4], [0.0, 0.0]], atol=1e-15)

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            state_from_json({"d": 2, "alpha": [[0.5, 0.1], [0.1, 0.1]]})
        with pytest.raises(ValueError):
            state_from_json({"d": 2})
        with pytest.raises(ValueError):
            state_from_json({"alpha": [[1.0, 0.0], [0.0, 0.0]]})
        with pytest.raises(ValueError):
            state_from_json({"d": 3, "alpha": [[1.0, 0.0], [0.0, 0.0]]})

    def test_read_state_file(self, tmp_path):
        m = make_preset(StatePreset("x_only", 0.5), 3)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_json(m)))
        np.testing.assert_allclose(read_state_file(str(path)).alpha, m.alpha, atol=1e-15)

    def test_read_state_file_missing(self, tmp_path):
        with pytest.raises(OSError):
            read_state_file(str(tmp_path / "nope.json"))

    def test_read_state_file_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            read_state_file(str(path))


# The two state types share one weight policy; "matrix" is a CoeffMatrix
# of side d, "vector" a GhzCoeffs of d**N entries.
SHAPES = st.one_of(
    st.tuples(st.just("matrix"), st.integers(2, 5), st.just(2)),
    st.tuples(st.just("vector"), st.integers(2, 3), st.integers(2, 3)),
)


def build(kind, d, N, flat, wrong_shape=False):
    if kind == "matrix":
        a = np.reshape(flat, (d, d))
        return CoeffMatrix(a[:, 1:] if wrong_shape else a)
    return GhzCoeffs(d, N, flat[1:] if wrong_shape else flat)


@st.composite
def distributions(draw):
    """A state shape and a normalized weight vector for it."""
    kind, d, N = draw(SHAPES)
    raw = draw(
        st.lists(st.floats(0.0, 1.0), min_size=d**N, max_size=d**N).filter(
            lambda v: sum(v) > 0.01
        )
    )
    w = np.array(raw)
    return kind, d, N, w / w.sum()


class TestWeightPolicyProperties:
    @settings(deadline=None)
    @given(distributions(), st.data())
    def test_rejects_corrupt_weights(self, case, data):
        kind, d, N, w = case
        i = data.draw(st.integers(0, w.size - 1))
        defect = data.draw(st.sampled_from(["non_finite", "negative", "drift", "shape"]))
        if defect == "non_finite":
            w[i] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        elif defect == "negative":
            w[i] = data.draw(st.floats(-1e6, NEG_TOL, exclude_max=True))
        elif defect == "drift":
            w *= 1.0 + data.draw(
                st.floats(-0.99, -2 * RENORM_TOL) | st.floats(2 * RENORM_TOL, 10.0)
            )
        with pytest.raises(ValueError):
            build(kind, d, N, w, wrong_shape=defect == "shape")

    @settings(deadline=None)
    @given(distributions(), st.data())
    def test_accepted_weights_are_a_read_only_distribution(self, case, data):
        """Drift up to RENORM_TOL is renormalized and rounding negatives
        down to NEG_TOL are clamped to 0."""
        kind, d, N, w = case
        w *= 1.0 + data.draw(st.floats(-RENORM_TOL / 2, RENORM_TOL / 2))
        w[data.draw(st.integers(0, w.size - 1))] -= data.draw(st.floats(0.0, -NEG_TOL))
        a = build(kind, d, N, w).alpha
        assert not a.flags.writeable
        assert a.min() >= 0.0
        assert abs(a.sum() - 1.0) <= SUM_TOL
