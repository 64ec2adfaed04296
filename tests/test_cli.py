"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quditpure import cli, hashing, indices, oracle, recurrence
from quditpure.states import (
    PRESET_KINDS, StatePreset, make_preset, random_state, state_from_json,
)
from quditpure.cli import main
from quditpure.indices import PRIMALITY_BOUND


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecurrenceRun:
    def test_csv_trajectory(self, capsys):
        code, out, err = run_cli(
            capsys, ["recurrence-run", "--d", "3", "--F", "0.6", "--epsilon", "1e-4"]
        )
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert lines[0] == "iter,step,F,success_prob,cum_yield"
        assert lines[1].startswith("0,INIT,0.6,")
        fidelities = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b > a for a, b in zip(fidelities, fidelities[1:]))
        assert fidelities[-1] >= 1 - 1e-4

    def test_pure_input_single_row(self, capsys):
        code, out, _ = run_cli(capsys, ["recurrence-run", "--d", "2", "--F", "1.0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,INIT,1,1,1"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["recurrence-run", "--d", "2", "--F", "0.8", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["protocol"] == "P1P2"
        assert doc["reached_target"] is True
        assert doc["steps"][0] == {
            "iter": 0,
            "step": "INIT",
            "F": 0.8,
            "success_prob": 1.0,
            "cum_yield": 1.0,
        }

    def test_json_stop_reason(self, capsys):
        """JSON says why the run stopped; the default CSV is unchanged."""
        argv = ["recurrence-run", "--d", "2", "--F", "0.45"]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["reached_target"] is False and doc["stop_reason"] == "stall"
        code, out, _ = run_cli(capsys, argv + ["--max-iters", "3", "--format", "json"])
        assert json.loads(out)["stop_reason"] == "max_iters"
        code, out, _ = run_cli(capsys, argv)
        assert out.splitlines()[0] == "iter,step,F,success_prob,cum_yield"
        assert "stall" not in out

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"d": 2, "preset": "x_only", "F": 0.6}))
        code, out, _ = run_cli(capsys, ["recurrence-run", "--state-file", str(path)])
        assert code == 0
        assert out.splitlines()[1].startswith("0,INIT,0.6,")

    def test_xz_mixture_default_x_weight(self):
        """A JSON preset without x_weight, the flag's default and StatePreset
        give the same weights."""
        expected = make_preset(StatePreset("xz_mixture", 0.6), 3).alpha
        from_json = state_from_json({"d": 3, "preset": "xz_mixture", "F": 0.6})
        args = cli._build_parser().parse_args(
            ["recurrence-run", "--preset", "xz_mixture", "--d", "3", "--F", "0.6"]
        )
        np.testing.assert_array_equal(from_json.alpha, expected)
        np.testing.assert_array_equal(cli._load_initial_state(args).alpha, expected)

    def test_non_finite_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('{"d": 2, "alpha": [[NaN, 0], [0, 1]]}')
        code, out, err = run_cli(capsys, ["recurrence-run", "--state-file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" in err

    def test_output_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            ["recurrence-run", "--d", "2", "--F", "0.8", "--output", str(out_path)],
        )
        assert code == 0 and out == ""
        content = out_path.read_text()
        assert content.startswith("iter,step,F,success_prob,cum_yield")

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, ["recurrence-run", "--d", "2"])
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_output_path(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "recurrence-run",
                "--d",
                "2",
                "--F",
                "0.8",
                "--output",
                "/nonexistent/dir/run.csv",
            ],
        )
        assert code == 1
        assert err.startswith("i/o error:")


class TestThresholds:
    def test_bbpssw_table(self, capsys):
        code, out, _ = run_cli(
            capsys, ["thresholds", "--protocol", "bbpssw", "--d-range", "2..5"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,protocol,Q,Q_th,F_min,F_max,purifiable"
        assert len(lines) == 5
        d5 = lines[4].split(",")
        assert d5[0] == "5"
        assert float(d5[3]) == pytest.approx(0.862204186139, abs=1e-10)
        assert "0.862204186139" in out  # 12 significant digits
        assert d5[6] == "true"

    @pytest.mark.parametrize("grid", ["0", "1"])
    def test_rejects_grid_below_two(self, capsys, grid):
        """BBPSSW's closed forms run no scan, but the flag is checked alike."""
        for protocol in ("p1p2", "bbpssw"):
            code, out, err = run_cli(
                capsys,
                ["thresholds", "--protocol", protocol, "--d-range", "2", "--grid", grid],
            )
            assert code == 2 and out == ""
            assert err == f"error: fidelity grid must be at least 2, got {grid}\n"

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--q-tol", "0"], "tolerance"),
            (["--q-tol", "-1"], "tolerance"),
            (["--q-tol", "nan"], "tolerance"),
            (["--iterations", "0"], "iterations"),
            (["--iterations", "-5"], "iterations"),
            (["--q-tol", "1e-16"], "tolerance"),
            (["--q-tol", "1e-17"], "tolerance"),
        ],
    )
    def test_rejects_bad_tolerance_or_iterations(
        self, capsys, monkeypatch, flags, word
    ):
        """Rejected before any lane runs: a tolerance of 0, or any below the
        2**-53 spacing of doubles under 1, used to bisect forever, NaN
        skipped the bisection, and 0 iterations was reported as "does not
        purify".  BBPSSW, whose closed forms ignore these flags, used to
        print a row for them."""

        def no_lanes(*args):
            raise AssertionError("scan ran before its arguments were checked")

        for name in ("_lanes_improve", "bbpssw_threshold", "bbpssw_fixed_points"):
            monkeypatch.setattr(recurrence, name, no_lanes)
        errors = set()
        for protocol in ("dejmps", "bbpssw"):
            code, out, err = run_cli(
                capsys,
                ["thresholds", "--protocol", protocol, "--d-range", "2", "--grid", "4"]
                + flags,
            )
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert word in err
            errors.add(err)
        assert len(errors) == 1  # one message, from the scans' own check

    @pytest.mark.parametrize("protocol", ["p1p2", "dejmps", "bbpssw"])
    @pytest.mark.parametrize("Q", ["1.5", "nan"])
    def test_rejects_bad_retention_before_any_lane(self, capsys, monkeypatch, protocol, Q):
        """--Q is checked before the threshold scan, with the library's message."""

        def no_lanes(*args):
            raise AssertionError("scan ran before --Q was checked")

        monkeypatch.setattr(recurrence, "_lanes_improve", no_lanes)
        code, out, err = run_cli(
            capsys, ["thresholds", "--protocol", protocol, "--d-range", "2", "--Q", Q]
        )
        assert (code, out, err) == (2, "", f"error: retention Q must be in [0, 1], got {Q}\n")

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (
                ["--protocol", "p1p2", "--d-range", "2,6"],
                "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
                "2,P1P2,1,0.93701171875,0.500000000556,1,true\n"
                "6,P1P2,1,0.82392578125,0.166666670158,1,true\n",
            ),
            (
                ["--protocol", "dejmps", "--d-range", "2..3", "--preset", "xz_mixture"],
                "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
                "2,DEJMPS,1,0.366015625,0.717283415642,1,true\n"
                "3,DEJMPS,1,0.374609375,0.599989711135,1,true\n",
            ),
            (  # both regime edges bisected
                ["--protocol", "p1p2", "--d-range", "2..4", "--Q", "0.97", "--preset", "z_only"],
                "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
                "2,P1P2,0.97,0.93349609375,0.550730780784,0.957981636572,true\n"
                "3,P1P2,0.97,0.90361328125,0.372253809065,0.966987197717,true\n"
                "4,P1P2,0.97,0.87373046875,0.280251581012,0.973418030807,true\n",
            ),
            (  # nothing purifies: no regime
                ["--protocol", "p1p2", "--d-range", "2,3", "--Q", "0.5"],
                "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
                "2,P1P2,0.5,0.93701171875,0.75,0.75,false\n"
                "3,P1P2,0.5,0.90361328125,0.666666666667,0.666666666667,false\n",
            ),
            (  # large-d lane constants
                ["--protocol", "p1p2", "--d-range", "1000,1000000"],
                "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
                "1000,P1P2,1,0.251171875,0.00100000288442,1,true\n"
                "1000000,P1P2,1,0.044921875,1.00348441573e-06,1,true\n",
            ),
        ],
        ids=["p1p2", "dejmps_xz", "p1p2_z_only_q097", "p1p2_no_regime", "p1p2_large_d"],
    )
    def test_scan_tables_golden_bytes(self, capsys, argv, golden):
        """Byte for byte the output of the matrix-path scans."""
        code, out, err = run_cli(capsys, ["thresholds", *argv])
        assert code == 0 and err == ""
        assert out == golden

    def test_rejects_grid_over_range_limit(self, capsys, monkeypatch):
        """--grid is one lane per point; it is checked before any scan."""

        def no_lanes(*args):
            raise AssertionError("scan ran before --grid was checked")

        for name in ("_lanes_improve", "bbpssw_threshold", "bbpssw_fixed_points"):
            monkeypatch.setattr(recurrence, name, no_lanes)
        for protocol in ("p1p2", "bbpssw"):
            code, out, err = run_cli(
                capsys,
                ["thresholds", "--protocol", protocol, "--d-range", "2", "--grid", "1000001"],
            )
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "1000001 values" in err

    def test_lane_blocks_keep_to_the_budget(self, capsys, monkeypatch):
        """A grid too large for two Q levels per block: every block holds at
        most max(grid, budget) lanes, and the Q bisection asks for one level
        at a time."""
        grid, blocks = 100_000, []

        def stub(protocol, d, Q, kind, F0, iterations):
            blocks.append((F0.size, Q.copy()))
            return Q > 0.8123456789

        monkeypatch.setattr(recurrence, "_lanes_improve", stub)
        code, out, err = run_cli(
            capsys, ["thresholds", "--protocol", "p1p2", "--d-range", "2..4", "--grid", str(grid)]
        )
        assert code == 0 and err == ""
        assert [row.split(",")[3] for row in out.splitlines()[1:]] == ["0.81220703125"] * 3
        assert max(size for size, _ in blocks) <= max(grid, recurrence._LANE_BUDGET)
        # Each block is one grid of one scan: the regime scans' at Q = 1, or a
        # noise scan's at a single Q level.
        assert all(size == grid and np.unique(Q).size == 1 for size, Q in blocks)
        assert len(blocks) == 3 * 11 + 3

    def test_later_row_error_leaves_stdout_empty(self, capsys, monkeypatch):
        """A row after good ones fails the Q = 1 check: one error line, exit 2,
        no table, as when the rows ran one after another."""

        def stub(protocol, d, Q, kind, F0, iterations):
            return np.broadcast_to((d != 4) & (Q > 0.8), F0.shape)

        monkeypatch.setattr(recurrence, "_lanes_improve", stub)
        code, out, err = run_cli(capsys, ["thresholds", "--protocol", "p1p2", "--d-range", "2..5"])
        assert (code, out) == (2, "")
        assert err == "error: protocol P1P2 does not purify isotropic states at Q=1.0\n"

    def test_three_copy_scans_every_preset(self, capsys):
        """thresholds takes every --protocol that recurrence-run takes."""
        for kind in PRESET_KINDS:
            code, out, err = run_cli(
                capsys,
                ["thresholds", "--protocol", "three-copy", "--d-range", "2..7", "--preset", kind],
            )
            assert code == 0 and err == ""
            rows = [row.split(",")[:2] for row in out.splitlines()[1:]]
            assert rows == [[str(d), "THREE_COPY"] for d in range(2, 8)]


class TestHashing:
    def test_fmin_json(self, capsys):
        code, out, _ = run_cli(capsys, ["hashing", "--fmin", "--d", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 2
        assert doc["F_min"] == pytest.approx(0.8107103753136473, abs=1e-8)

    def test_threshold_table(self, capsys):
        code, out, _ = run_cli(capsys, ["hashing", "--threshold", "--d", "11"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,F_min,p_min,q_min,universal_q_th"
        row = lines[1].split(",")
        assert float(row[3]) == pytest.approx(0.891988671453, abs=1e-10)
        assert float(row[4]) < float(row[3])

    def test_threshold_bisects_once_per_d(self, capsys, monkeypatch):
        """F_min and the retentions of a row share one bisection of min_fidelity."""
        entropy, calls = hashing.isotropic_entropy, []
        monkeypatch.setattr(
            hashing, "isotropic_entropy", lambda d, F: calls.append(d) or entropy(d, F)
        )
        one_bisection = {}
        for d in (2, 3, 5):
            hashing.min_fidelity(11)  # so that d is not the last result
            calls.clear()
            hashing.min_fidelity(d)
            one_bisection[d] = len(calls)
        hashing.min_fidelity(11)
        calls.clear()
        code, _, _ = run_cli(capsys, ["hashing", "--threshold", "--d-range", "primes:2..5"])
        assert code == 0
        assert {d: calls.count(d) for d in (2, 3, 5)} == one_bisection

    def test_finite_size_single_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "hashing",
                "--d",
                "2",
                "--F",
                "0.95",
                "--n",
                "10",
                "--delta",
                "n_to_1",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["delta"] == pytest.approx(0.2671774589239929, abs=1e-12)
        assert doc["yield"] == pytest.approx(0.1, abs=1e-12)
        assert doc["r"] == 9

    @pytest.mark.parametrize(
        "d, F, policy, n",
        [
            (5, 0.99, "npow:-0.2", 43),  # the first positive yield
            (2, 0.7, "n_to_1", 10),  # infeasible
            (7, 1.0, "n_to_1", 10),  # pure input
        ],
    )
    def test_single_report_is_the_sweeps_row(self, capsys, d, F, policy, n):
        argv = ["hashing", "--d", str(d), "--F", str(F), "--delta", policy, "--format", "json"]
        code, out, _ = run_cli(capsys, argv + ["--n", str(n)])
        assert code == 0
        report = json.loads(out)
        code, out, _ = run_cli(capsys, argv + ["--n-sweep", f"{n}:{n}"])
        assert code == 0
        (row,) = json.loads(out)
        assert len(row) == 8 and row == {name: report[name] for name in row}

    def test_block_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "hashing",
                "--d",
                "5",
                "--F",
                "0.99",
                "--n-sweep",
                "20:60:20",
                "--delta",
                "npow:-0.2",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,delta,S,r,yield,p1_bound,p2,F_out_bound"
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "40", "60"]
        # yield first turns positive at n = 60 in this sweep
        yields = [float(line.split(",")[4]) for line in lines[1:]]
        assert yields[0] == 0.0 and yields[1] == 0.0 and yields[2] > 0.0

    def test_p1_bound_is_at_most_one(self, capsys):
        """Short blocks make the concentration bound vacuous; the column
        says 1 there, not the raw 2 exp(...) (up to 1.995 at n = 2)."""
        code, out, _ = run_cli(capsys, ["hashing", "--d", "3", "--F", "0.95",
                                        "--n-sweep", "2:3000:41", "--delta", "fixed:0.05"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        p1 = [float(row["p1_bound"]) for row in rows]
        assert len(p1) == 74 and max(p1) == 1.0 and min(p1) < 1.0

    @pytest.mark.parametrize("policy", ["npow:nan", "fixed:nan", "npow:-inf", "fixed:inf"])
    def test_rejects_non_finite_delta(self, capsys, policy):
        """NaN used to end in "cannot convert float NaN to integer", and
        npow:-inf printed rows with delta 0."""
        for mode in (["--n", "100"], ["--n-sweep", "10:30:10"]):
            code, out, err = run_cli(
                capsys, ["hashing", "--d", "5", "--F", "0.99", "--delta", policy, *mode]
            )
            assert code == 2 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert policy.split(":")[0] in err and "finite" in err

    def test_composite_dimension_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["hashing", "--fmin", "--d", "4"])
        assert code == 2
        assert "prime" in err

    def test_requires_exactly_one_mode(self, capsys):
        code, _, err = run_cli(capsys, ["hashing", "--d", "2"])
        assert code == 2
        code, _, err = run_cli(
            capsys, ["hashing", "--fmin", "--threshold", "--d", "2"]
        )
        assert code == 2


class TestTableGoldens:
    """SHA-256 of stdout, byte for byte, for the hashing sweep, GHZ and
    BBPSSW tables: every delta policy, infeasible rows, a pure input, both
    formats."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["hashing", "--d", "5", "--F", "0.9", "--n-sweep", "2:5000:61"],
                "24baa0c7a35dcadc97a83a070dd6b0fc008f88a376376c1ea7d04fb0bc690f37",
            ),
            (
                ["hashing", "--d", "3", "--F", "0.95", "--n-sweep", "2:3000:41",
                 "--delta", "fixed:0.05"],
                "6a9cabdd386a386a4a2d033bb764fd512e1d3de2f9e8b3c2ada13b4a3eedaa61",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.85", "--n-sweep", "2:400:3",
                 "--delta", "n_to_1"],
                "e748a13cee6db826b77c72da417e6d2cf45b360e7bf2f19d668688010622a263",
            ),
            (
                ["hashing", "--d", "7", "--F", "1", "--n-sweep", "2:200:9",
                 "--delta", "n_to_1"],
                "339d529d0c72cd338240260909000aa3001773582183082cdf8367f0698324bd",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.85", "--n-sweep", "2:400:3",
                 "--delta", "n_to_1", "--format", "json"],
                "eb4885bb4535a522018ab053f5a2fbb1fa353548c80b605e39e6bdeae01379ea",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.95", "--n", "10", "--delta", "n_to_1",
                 "--format", "csv"],
                "3c53d7057437b0f26a2a062c963ceae95c983edc486a6186d1c89fbafc9c113d",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.95", "--n", "10", "--delta", "n_to_1"],
                "4126a43b4b85ae0e0a3019c45e3e44c8cd8286365910bdd7837a9ee8dc863b10",
            ),
            (
                ["ghz", "--d-list", "primes:2..13", "--N-list", "2..4",
                 "--F-grid", "0.5:1:11"],
                "b855beaa9b567b7f75180e8e60387b3c5c9ef9adc25b344474fa1a83b3544683",
            ),
            (
                ["ghz", "--d-list", "primes:2..13", "--N-list", "2..4",
                 "--F-grid", "0.5:1:11", "--format", "json"],
                "86c4cf7deb9892bcbae29db14fc92be5ec3b45e30090a390f5474ac149014639",
            ),
            (
                ["thresholds", "--protocol", "bbpssw", "--d-range", "2..50"],
                "6e3e73292ea6135555d047bbc54e02dac2254b17abb0568cf8a7e49d57d3886f",
            ),
            # The benchmark's sweep at full size (50,000 rows).  The JSON prints
            # every float in full, so an ulp change in pow, log1p or exp shows.
            (
                ["hashing", "--d", "5", "--F", "0.9", "--n-sweep", "10:1000000:20"],
                "71101dce13572b4a6145784dbe9966669ecc73112f41d0ced3b673e4acb5e923",
            ),
            (
                ["hashing", "--d", "5", "--F", "0.9", "--n-sweep", "10:1000000:20",
                 "--format", "json"],
                "965b2fa30bfb91d6c04ad093959512826d7a30d701da9876ed4f0582fcc46255",
            ),
            (
                ["hashing", "--threshold", "--d-range", "primes:2..200"],
                "b35b3c0c627b3953039c80c72ab9df2bb29ef3aaab397f9ad4c8a22d7e8619d5",
            ),
        ],
        ids=["npow", "fixed", "n_to_1", "pure", "n_to_1_json", "single_csv",
             "single_json", "ghz", "ghz_json", "bbpssw", "bench_sweep",
             "bench_sweep_json", "hashing_threshold"],
    )
    def test_golden_sha256(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def traced_peak(capsys, argv):
    """stdout of ``quditpure <argv>`` and the traced memory peak of main()."""
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out, peak


class TestSweepMemory:
    """A sweep builds its columns and its text in blocks of rows, so its
    traced peak follows the text, not the row count.  Building every
    row's values, lines or records at once peaked at 26.4 MiB (CSV) and
    10.2 MiB (the JSON below)."""

    SWEEP = ["hashing", "--d", "5", "--F", "0.9", "--n-sweep"]

    def test_csv_sweep_peak(self, capsys):
        out, peak = traced_peak(capsys, self.SWEEP + ["10:1000000:20"])
        assert out.count("\n") == 50_001
        assert peak < 16 * 2**20

    def test_json_sweep_across_blocks(self, capsys):
        assert len(cli._parse_sweep("10:100000:20")) > 2 * cli._ROW_BLOCK
        out, peak = traced_peak(capsys, self.SWEEP + ["10:100000:20", "--format", "json"])
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "c0373f4adcc15c07f1d57d3e8bf78cbea7fd6d8ae1ca45318723f502531ba12b")
        assert peak < 6 * 2**20


class TestCommandGoldens:
    """SHA-256 of stdout for the commands TestTableGoldens leaves out, so
    that every subcommand has a byte golden: trajectories of all four
    protocols, the dense oracle at every dimension it allows, and a GHZ
    report on an explicit weight vector."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["recurrence-run", "--protocol", "p1p2", "--d", "7", "--preset",
                 "xz_mixture", "--F", "0.6", "--Q", "0.98"],
                "1f3e89013cdbe57030a1d4376ba9035d29ee434702d58d6caac2a5798f4ecc71",
            ),
            (
                ["recurrence-run", "--protocol", "three-copy", "--d", "5", "--F", "0.7",
                 "--format", "json"],
                "a2879b8a18967bbe853959923f2358b83a046d32a7d15a5fca116f52a78f62a3",
            ),
            (
                ["recurrence-run", "--protocol", "dejmps", "--d", "3", "--preset",
                 "x_only", "--F", "0.6"],
                "bc4a28cde856cfcd5727c5cb673850b3f1608c7eea8c721cdb5a8e984f30f707",
            ),
            (
                ["recurrence-run", "--protocol", "bbpssw", "--d", "4", "--F", "0.7",
                 "--Q", "0.99"],
                "d96ff7948e5a9527b4e45fe030f1d5756b6a3825564a3a214d9b4ed44a2becbe",
            ),
            (
                ["oracle-check", "--d", "2,3,4,5", "--trials", "3", "--seed", "1"],
                "7a751e0d14ee8c8d0cdd4f3d60f61024a26171a480e913e5b62877506ff863cb",
            ),
            (
                ["oracle-check", "--d", "2,3,4,5", "--trials", "3", "--seed", "7"],
                "ca6bc45f2cbc526c584872904132bd8ad569aa82feff93f304417138d76df1ca",
            ),
            (
                ["oracle-check", "--d", "2,3,4,5", "--trials", "3", "--seed", "99"],
                "4189b8bcb4d461b3f6df984f48a3a5e413f779ad605d36fe975c391664412787",
            ),
        ],
        ids=["p1p2_xz_d7", "three_copy_json", "dejmps", "bbpssw", "oracle",
             "oracle_seed7", "oracle_seed99"],
    )
    def test_golden_sha256(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ghz_state_file_golden_sha256(self, capsys, tmp_path):
        # Weights 2**-1, ..., 2**-26, 2**-26: exact binary fractions summing to 1.
        alpha = [2.0 ** -(k + 1) for k in range(26)] + [2.0**-26]
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps({"d": 3, "N": 3, "alpha": alpha}))
        code, out, err = run_cli(capsys, ["ghz", "--state-file", str(path)])
        assert code == 0 and err == ""
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "9f746b5828456560b366d264eda631256e55dfbce959348f7c40b18d948b8c48"
        )


class TestDefaultFormat:
    """Without --format, tables print as CSV and single reports as JSON:
    the bytes equal those of the documented default, not the other format."""

    @pytest.mark.parametrize(
        "argv, default",
        [
            (["recurrence-run", "--d", "3", "--F", "0.6"], "csv"),
            (["thresholds", "--d-range", "2..4"], "csv"),
            (["hashing", "--threshold", "--d-range", "primes:2..7"], "csv"),
            (["hashing", "--d", "3", "--F", "0.9", "--n-sweep", "2:40:7"], "csv"),
            (["ghz", "--d-list", "2,3", "--N-list", "3", "--F-grid", "0.8,0.9"], "csv"),
            (["hashing", "--fmin", "--d", "3"], "json"),
            (["hashing", "--d", "3", "--F", "0.9", "--n", "20"], "json"),
            (["ghz", "--state-file", "{ghz_file}"], "json"),
            (["oracle-check", "--d", "2", "--trials", "1"], "json"),
        ],
        ids=["recurrence_run", "thresholds", "hashing_threshold", "hashing_n_sweep",
             "ghz_grid", "hashing_fmin", "hashing_n", "ghz_state_file", "oracle_check"],
    )
    def test_matches_documented_default(self, capsys, tmp_path, argv, default):
        ghz_file = tmp_path / "ghz.json"
        ghz_file.write_text(json.dumps({"d": 2, "N": 3, "alpha": [0.7] + [0.3 / 7] * 7}))
        argv = [a.format(ghz_file=ghz_file) for a in argv]
        other = {"csv": "json", "json": "csv"}[default]
        code, implicit, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert (0, implicit, "") == run_cli(capsys, argv + ["--format", default])
        assert implicit != run_cli(capsys, argv + ["--format", other])[1]


class TestCsvFormatting:
    @staticmethod
    def join_fmt(header, rows):
        lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_matches_per_value_formatting(self):
        rows = [
            (True, False, np.float64(0.1), np.int64(-7), float("nan"), float("inf"),
             float("-inf"), -0.0, "P1P2", 10**30, -(10**20), 1 / 3, 1e-300, 2.5e17),
            (1, 0.0, np.float32(0.1), np.bool_(True), None, 5e-324, -1.0, 0.1 + 0.2,
             "", 2**63, 7, 123456789012.5, 1e16, np.int32(3)),
            (0.5, "x", 3),
            (),
        ]
        header = [f"c{i}" for i in range(14)]
        assert cli._csv(header, rows) == self.join_fmt(header, rows)
        for row in rows:
            types = tuple(map(type, row))
            assert cli._csv(header, [row, row], types) == self.join_fmt(header, [row, row])

    def test_float_grid_is_python_floats(self):
        assert all(type(v) is float for v in cli._parse_float_grid("0.5:1:11"))


def linspace_bits(values):
    return np.array(list(values), dtype=float).tobytes()


class TestFloatGrid:
    """A lo:hi:count grid is made a block at a time, with linspace's bits."""

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e300, 1e300), hi=st.floats(-1e300, 1e300),
           count=st.integers(1, 3 * cli._ROW_BLOCK))
    @example(lo=0.0, hi=5e-324, count=3)  # the step underflows to 0
    @example(lo=0.0, hi=1e-320, count=2500)
    @example(lo=-5e-324, hi=5e-324, count=4)
    @example(lo=0.5, hi=0.5, count=7)
    @example(lo=1.0, hi=0.0, count=2)
    @example(lo=0.9, hi=0.2, count=1)
    @example(lo=-0.0, hi=1.0, count=1)
    @example(lo=0.5, hi=1.0, count=2 * cli._ROW_BLOCK + 1)
    def test_matches_linspace(self, lo, hi, count):
        grid = cli._FloatGrid(lo, hi, count)
        expected = np.linspace(lo, hi, count).tolist()
        assert len(grid) == count
        assert linspace_bits(grid) == linspace_bits(expected)
        assert linspace_bits(grid) == linspace_bits(grid)  # it iterates again
        for i in {0, count // 2, count - 1, -1, -count}:
            assert linspace_bits([grid[i]]) == linspace_bits([expected[i]])
        assert all(type(v) is float for v in grid)
        with pytest.raises(IndexError):
            grid[count]

    def test_range_is_not_held_as_a_list(self):
        """A million-point grid held 32 MB of floats as a list."""
        tracemalloc.start()
        try:
            grid = cli._parse_float_grid("0.5:1:1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(grid) == 1_000_000 and grid[-1] == 1.0
        assert peak < 100_000


class TestGhz:
    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["ghz", "--d-list", "2,3", "--N-list", "2,3", "--F-grid", "0.9"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,N,F,yield"
        assert len(lines) == 5
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert row["d"] == "2" and row["N"] == "3"
        assert float(row["yield"]) == pytest.approx(0.368005734043, abs=1e-10)

    def test_long_grid_peak_follows_its_text(self, capsys):
        """The grid's rows are made as _table formats them, a block at a
        time.  One list of every row peaked at 7.1 times the text here."""
        out, peak = traced_peak(
            capsys, ["ghz", "--d-list", "2", "--N-list", "2", "--F-grid", "0.5:1:20000"]
        )
        assert out.count("\n") == 20_001
        assert peak < 5 * len(out)

    def test_state_file_report(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        path.write_text(
            json.dumps({"d": 2, "N": 3, "preset": "ghz_isotropic", "F": 0.9})
        )
        code, out, _ = run_cli(capsys, ["ghz", "--state-file", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["yield"] == pytest.approx(0.368005734043, abs=1e-10)
        assert doc["H_phase"] == pytest.approx(0.3159971329784248, abs=1e-10)
        assert doc["index_correlation"] > 0.0

    def test_non_finite_state_file(self, capsys, tmp_path):
        path = tmp_path / "ghz.json"
        path.write_text('{"d": 2, "N": 2, "alpha": [NaN, 0, 0, 1]}')
        code, out, err = run_cli(capsys, ["ghz", "--state-file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" in err


class TestLargePrimeDimension:
    """Prime-only routes decide primality by Miller-Rabin, so a 61-bit
    prime d passes at once; at or above PRIMALITY_BOUND, where the test's
    bases stop being exact, they exit 2."""

    def test_ghz_mersenne_prime_d(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["ghz", "--d-list", "2305843009213693951", "--N-list", "2", "--F-grid", "0.9"],
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["d,N,F,yield", "2305843009213693951,2,0.9,0.784623095292"]

    def test_d_above_primality_bound_exits_2(self, capsys):
        d = str(PRIMALITY_BOUND + 2)
        code, out, err = run_cli(capsys, ["ghz", "--d-list", d, "--N-list", "2", "--F-grid", "0.9"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(PRIMALITY_BOUND) in err


def run_quietly(argv):
    """main() with stdout and stderr captured, for use inside @given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@st.composite
def corrupt_state_files(draw):
    """A state file for recurrence-run or ghz whose weights hold one
    non-finite value, a negative below NEG_TOL, a sum off by more than
    RENORM_TOL, or the wrong count."""
    command = draw(st.sampled_from(["recurrence-run", "ghz"]))
    d = draw(st.integers(2, 3))
    N = 2 if command == "recurrence-run" else draw(st.integers(2, 3))
    w = [1.0] + [0.0] * (d**N - 1)
    if draw(st.booleans()):
        bad = st.sampled_from([math.nan, math.inf, -math.inf])
        w[draw(st.integers(0, d**N - 1))] = draw(
            bad | st.floats(-1e6, -2e-12) | st.floats(1.0 + 2e-9, 1e6)
        )
    else:
        del w[draw(st.integers(1, d**N - 1)):]
    doc = {"d": d, "alpha": w}
    if command == "ghz":
        doc["N"] = N
    elif len(w) == d * d:
        doc["alpha"] = np.reshape(w, (d, d)).tolist()
    return command, json.dumps(doc)


class TestMalformedStateFiles:
    """Wrongly typed or non-integral fields exit 2 with a one-line error,
    never a traceback or a silently truncated value."""

    @pytest.mark.parametrize(
        "command, text",
        [
            ("recurrence-run", '{"d": null, "preset": "isotropic", "F": 0.8}'),
            ("recurrence-run", '{"d": [2], "preset": "isotropic", "F": 0.8}'),
            ("recurrence-run", '{"d": 2, "preset": "isotropic", "F": null}'),
            ("recurrence-run", '{"d": 2, "preset": "xz_mixture", "F": 0.8, "x_weight": null}'),
            ("recurrence-run", '{"d": Infinity, "preset": "isotropic", "F": 0.8}'),
            ("recurrence-run", '{"d": 1e400, "preset": "isotropic", "F": 0.8}'),
            ("recurrence-run", '{"d": 2.7, "preset": "isotropic", "F": 0.8}'),
            ("recurrence-run", '{"d": 2, "alpha": {"a": 1}}'),
            ("recurrence-run", '{"d": 2, "alpha": [["0.7", "0.1"], ["0.1", "0.1"]]}'),
            ("recurrence-run", '{"d": 2, "preset": "isotropic", "F": true}'),
            ("ghz", '{"d": 2, "N": null, "alpha": [1, 0, 0, 0]}'),
            ("ghz", '{"d": 2, "N": 2, "alpha": {"a": 1}}'),
            ("ghz", '{"d": 2, "N": 2.5, "preset": "ghz_isotropic", "F": 0.9}'),
            ("ghz", '{"d": 2, "N": 2, "preset": "ghz_isotropic", "F": null}'),
            ("recurrence-run", "[2, 0.5]"),
            ("ghz", "[2, 3, 0.9]"),
        ],
        ids=["d_null", "d_list", "F_null", "x_weight_null", "d_inf", "d_1e400",
             "d_2.7", "alpha_object", "alpha_strings", "F_true", "N_null",
             "ghz_alpha_object", "N_2.5", "ghz_F_null", "list", "ghz_list"],
    )
    def test_exits_2_with_one_line_error(self, capsys, tmp_path, command, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, [command, "--state-file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @settings(deadline=None, max_examples=60)
    @given(corrupt_state_files())
    def test_corrupt_weights_exit_2(self, case):
        command, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.json"
            path.write_text(text)
            code, out, err = run_quietly([command, "--state-file", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestOracleCheck:
    def test_d2_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--d", "2", "--trials", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["mgxor_index_map_ok"] is True
        assert doc["max_abs_deviation"] < 1e-10
        assert doc["tolerance"] == 1e-10
        assert "P1_state_d2" in doc["checks"]

    def test_variants_draw_different_states(self, capsys, monkeypatch):
        seeds = {}
        checked = oracle.recurrence_map_deviation

        def spy(d, variant, trials, seed):
            seeds[variant] = seed
            return checked(d, variant, trials=trials, seed=seed)

        monkeypatch.setattr(oracle, "recurrence_map_deviation", spy)
        code, out, _ = run_cli(capsys, ["oracle-check", "--d", "2", "--trials", "2"])
        assert code == 0 and json.loads(out)["pass"] is True
        assert sorted(seeds) == ["P1", "P2", "THREE_COPY"]
        first = {v: random_state(2, np.random.default_rng(s)).alpha for v, s in seeds.items()}
        assert not np.array_equal(first["P1"], first["P2"])
        assert not np.array_equal(first["P1"], first["THREE_COPY"])
        assert not np.array_equal(first["P2"], first["THREE_COPY"])

    def test_csv_rejected_before_any_check(self, capsys, monkeypatch):
        def no_checks(*args):
            raise AssertionError("a check ran before --format was rejected")

        monkeypatch.setattr(oracle, "run_checks", no_checks)
        code, out, err = run_cli(capsys, ["oracle-check", "--format", "csv"])
        assert code == 2 and out == ""
        assert err == "error: oracle-check writes only JSON, not --format csv\n"

    def test_repeated_d_runs_once(self, capsys):
        """The --d list is deduplicated as it is parsed, so a repeated d
        reaches run_checks once and prints what the single d prints."""
        _, once, _ = run_cli(capsys, ["oracle-check", "--d", "2", "--trials", "2"])
        code, twice, _ = run_cli(capsys, ["oracle-check", "--d", "2,2", "--trials", "2"])
        assert code == 0 and twice == once
        assert json.loads(twice)["d"] == [2]

    def test_dimension_limit(self, capsys):
        code, _, err = run_cli(capsys, ["oracle-check", "--d", "7"])
        assert code == 2
        assert "limited to d <= 5" in err

    def test_rejects_zero_trials(self, capsys):
        code, out, err = run_cli(capsys, ["oracle-check", "--d", "2", "--trials", "0"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "trials" in err

    def test_one_above_limit_names_it(self, capsys):
        code, out, err = run_cli(capsys, ["oracle-check", "--d", "6"])
        assert code == 2 and out == ""
        assert err == (
            "error: dense simulation limited to d <= 5 for 2 pairs, got d=6\n"
        )

    def test_gate_check_reported_null_when_no_d_allows_it(self, capsys):
        """The GHZ gate check runs only at d <= 3: at d = 4 it is not run,
        so it is not reported as passed, and ``pass`` rests on the rest."""
        code, out, _ = run_cli(capsys, ["oracle-check", "--d", "4", "--trials", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mgxor_index_map_ok"] is None
        assert doc["pass"] is True

    def test_gate_check_reported_when_one_d_allows_it(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle-check", "--d", "2,4", "--trials", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mgxor_index_map_ok"] is True
        assert doc["pass"] is True
        assert "THREE_COPY_state_d2" in doc["checks"]
        assert "THREE_COPY_state_d4" not in doc["checks"]


class TestOversizedInputs:
    """A d or N too large for what a route builds or computes exits 2 with a
    one-line error: d**2 or d**N beyond the largest array size where an
    array is built, float overflow on scalar routes."""

    @pytest.mark.parametrize(
        "argv, state, phrase",
        [
            (["recurrence-run"], {"d": 1e300, "preset": "isotropic", "F": 0.8},
             "d**2 must be at most 9.22337e+18"),
            (["recurrence-run", "--d", str(10**300), "--F", "0.8"], None,
             "d**2 must be at most 9.22337e+18"),
            (["thresholds", "--protocol", "bbpssw", "--d-range", str(10**200)], None,
             "input beyond float range"),
            (["ghz"], {"d": 2, "N": 2000, "preset": "ghz_isotropic", "F": 0.9},
             "d**2000 must be at most 9.22337e+18"),
            (["ghz", "--d-list", "2", "--N-list", "2000"], None,
             "d**2000 must be at most 1.79769e+308"),
        ],
        ids=["state_file_d", "flag_d", "d_range", "state_file_N", "N_list"],
    )
    def test_exits_2_with_one_line_error(self, capsys, tmp_path, argv, state, phrase):
        if state is not None:
            path = tmp_path / "state.json"
            path.write_text(json.dumps(state))
            argv = argv + ["--state-file", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert phrase in err

    def test_memory_error_exits_2_with_one_line_error(self, capsys, monkeypatch):
        """A d whose d x d arrays cannot be allocated reports it, not a traceback."""
        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "make_preset", no_memory)
        code, out, err = run_cli(capsys, ["recurrence-run", "--d", "100000", "--F", "0.9"])
        assert code == 2 and out == ""
        assert err == f"error: out of memory: {message}\n"

    def test_fft_helper_memory_error_exits_2(self, capsys, monkeypatch):
        """A MemoryError on the FFT helper thread of a d = 211 round reaches
        the command as its own: one line, exit 2, and no thread left over."""
        caller, real = threading.current_thread(), np.fft.irfft

        def irfft(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise MemoryError("helper block")
            return real(*args, **kwargs)

        monkeypatch.setattr(indices, "_cpu_count", lambda: 2)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        before = threading.active_count()
        code, out, err = run_cli(capsys, ["recurrence-run", "--d", "211", "--F", "0.6"])
        assert code == 2 and out == ""
        assert err == "error: out of memory: helper block\n"
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["ghz", "--d-list", "11", "--N-list", "20", "--F-grid", "0.9"],
             "d,N,F,yield\n11,20,0.9,0.571322383655\n"),
            (["ghz", "--d-list", "2", "--N-list", "100,1023", "--F-grid", "0.9"],
             "d,N,F,yield\n2,100,0.9,0.427206085768\n2,1023,0.9,0.427206085768\n"),
            (["thresholds", "--protocol", "bbpssw", "--d-range", "10000000000"],
             "d,protocol,Q,Q_th,F_min,F_max,purifiable\n"
             "10000000000,BBPSSW,1,0.00447213595489,9.99999527629e-11,1,true\n"),
        ],
        ids=["ghz_d11_N20", "ghz_d2_N100_N1023", "bbpssw_d1e10"],
    )
    def test_scalar_routes_take_sizes_no_array_holds(self, capsys, argv, expected):
        """The yield formula and the twirl thresholds build no array, so
        d**N and d**2 beyond the largest array size still give a row."""
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (0, expected, "")


class TestInputErrors:
    """Malformed ranges, grids and sweeps and missing flags exit 2 with one
    error line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, phrase",
        [
            (["thresholds", "--d-range", "5..2"], "empty range '5..2'"),
            (["ghz", "--N-list", ","], "no values in ','"),
            (["ghz", "--F-grid", ","], "no values in ','"),
            (["ghz", "--F-grid", ""], "no values in ''"),
            (["thresholds", "--d-range", "primes:5"],
             "primes range must look like primes:a..b"),
            (["thresholds", "--d-range", "primes:24..28"],
             "no primes in range 'primes:24..28'"),
            (["ghz", "--F-grid", "0:1"], "grid must look like lo:hi:count"),
            (["ghz", "--F-grid", "0:1:0"], "grid count must be positive, got 0"),
            (["hashing", "--d", "5", "--F", "0.95", "--n-sweep", "5"],
             "sweep must look like lo:hi[:step]"),
            (["hashing", "--d", "5", "--F", "0.95", "--n-sweep", "10:5"],
             "invalid sweep '10:5'"),
            (["hashing", "--fmin"], "--fmin needs --d"),
            (["hashing", "--threshold"], "--threshold needs --d or --d-range"),
            (["hashing", "--threshold", "--d-range", "2..5"],
             "hashing thresholds need prime d, got 4"),
            (["hashing", "--n", "100", "--d", "5"], "finite-size hashing needs --d and --F"),
            (["oracle-check", "--d", "2", "--format", "csv"],
             "oracle-check writes only JSON, not --format csv"),
            (["oracle-check", "--d", "2", "--seed", "-1"],
             "seed must be a non-negative integer, got -1"),
            (["hashing", "--d", "5", "--F", "0.95", "--n-sweep", "a:b"],
             "sweep must look like lo:hi[:step] with integers, got 'a:b'"),
            (["ghz", "--F-grid", "0.5:x:3"],
             "grid must look like lo:hi:count with an integer count, got '0.5:x:3'"),
            (["ghz", "--F-grid", "0.5,x"],
             "grid must look like x,y,z or lo:hi:count with numbers, got '0.5,x'"),
            (["thresholds", "--d-range", "2..x"],
             "integer list must look like 2,3,5 or a..b, got '2..x'"),
            (["hashing", "--threshold", "--d-range", "primes:2..x"],
             "primes range must look like primes:a..b with integers a and b, got 'primes:2..x'"),
        ],
        ids=["d_range_reversed", "N_list_empty", "F_grid_empty", "F_grid_blank",
             "primes_no_range", "primes_none",
             "F_grid_two_parts", "F_grid_count_0", "n_sweep_one_part", "n_sweep_reversed",
             "fmin_no_d", "threshold_no_d", "threshold_composite", "n_no_F",
             "oracle_csv", "oracle_negative_seed", "n_sweep_not_integer",
             "F_grid_count_not_integer", "F_grid_not_number", "d_range_not_integer",
             "primes_not_integer"],
    )
    def test_exits_2_with_one_line_error(self, capsys, argv, phrase):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert phrase in err


class TestRangeLimit:
    """Ranges in flags are checked from their bounds before being built.

    Each command below also carries an input that fails right after
    parsing, so without the check it would fail fast with another
    message instead of working through two million values."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["thresholds", "--protocol", "bbpssw", "--d-range", "2..2000001",
             "--Q", "2"],
            ["thresholds", "--protocol", "bbpssw", "--d-range", "primes:2..2000001"],
            ["hashing", "--d", "5", "--F", "1.5", "--n-sweep", "2:2000001"],
            ["ghz", "--d-list", "1", "--F-grid", "0.5:1:2000000"],
            ["oracle-check", "--d", "2..2000001"],
        ],
    )
    def test_rejects_more_than_a_million_values(self, capsys, monkeypatch, argv):
        def no_primes(lo, hi):
            raise AssertionError("primes listed before the range was checked")

        monkeypatch.setattr(cli, "primes_in", no_primes)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "2000000 values" in err

    def test_rejects_ghz_grid_over_a_million_rows(self, capsys, monkeypatch):
        """Each flag is within the limit, but 168 x 2 x 1,000,000 rows are not."""
        def no_rows(d, N, F):
            raise AssertionError("a row was computed before the grid size was checked")

        monkeypatch.setattr(cli.multipartite, "isotropic_yield_formula", no_rows)
        code, out, err = run_cli(capsys, ["ghz", "--d-list", "primes:2..1000", "--N-list", "2..3",
                                          "--F-grid", "0.5:1:1000000"])
        assert code == 2 and out == ""
        assert err == "error: ghz grid has 168 x 2 x 1000000 = 336000000 rows, over 1000000\n"

    def test_limit_is_inclusive(self):
        cli._check_range_size(cli.MAX_RANGE_VALUES, "a..b")
        with pytest.raises(ValueError, match="values"):
            cli._check_range_size(cli.MAX_RANGE_VALUES + 1, "a..b")

    def test_stepped_sweep_counts_its_values(self):
        assert len(cli._parse_sweep("10:1000000:20")) == 50000
        with pytest.raises(ValueError, match="1000001 values"):
            cli._parse_sweep("0:2000000:2")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks():
    """(language, text) of every fenced block in the README, in order."""
    return re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.S | re.M)


class TestReadme:
    def test_examples_run(self, capsys):
        """Every quditpure command in the README's sh blocks exits 0 with
        output, except the illustration that needs the user's own state
        file, and the recurrence-run sample rows are the real ones."""
        blocks = readme_blocks()
        commands = [
            (i, shlex.split(line, comments=True)[1:])
            for i, (lang, text) in enumerate(blocks) if lang == "sh"
            for line in text.splitlines()
            if line.startswith("quditpure ") and "my_ghz.json" not in line
        ]
        assert len(commands) >= 9
        for i, argv in commands:
            code, out, err = run_cli(capsys, argv)
            assert code == 0 and out, (argv, err)
            if argv[0] == "recurrence-run":
                sample = [line for line in blocks[i + 1][1].splitlines() if line != "..."]
                assert out.splitlines()[: len(sample)] == sample


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, capsys):
        argv = ["recurrence-run", "--d", "3", "--F", "0.6"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, ["hashing", "--threshold", "--d", "2"])
        row = out.strip().splitlines()[1].split(",")
        # q_min printed with 12 significant digits
        assert row[3] == "0.929863781713"


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(argv):
    """``python -m quditpure.cli <argv>`` as a separate process, ``src`` on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "quditpure.cli", *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


class TestSubprocess:
    def test_output_matches_in_process_main(self, capsys):
        argv = ["thresholds", "--protocol", "bbpssw", "--d-range", "2..3"]
        proc = run_process(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(capsys, argv)[1]

    def test_bad_input_is_one_error_line(self):
        proc = run_process(["recurrence-run", "--d", "1", "--F", "0.5"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_unknown_flag_exits_2(self):
        proc = run_process(["thresholds", "--no-such-flag"])
        assert proc.returncode == 2 and "unrecognized arguments" in proc.stderr


class TestParserReuse:
    """``main`` builds its parser once per process, and a parse that
    fails leaves it as it was."""

    COMMANDS = [
        ["ghz", "--d-list", "2,3", "--N-list", "2", "--F-grid", "0.5:1:3"],
        ["thresholds", "--no-such-flag"],
        ["recurrence-run", "--d", "1", "--F", "0.5"],
        ["recurrence-run", "--d", "3", "--F", "0.6", "--protocol", "dejmps"],
    ]

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_commands_in_one_process_match_alone(self, capsys):
        """Good, bad (a flag argparse rejects, then input a handler
        rejects) and good again, in one process, give each command's
        stdout, stderr and exit code as a process of its own."""
        for argv in self.COMMANDS:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            proc = run_process(argv)
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout,
                                                          proc.stderr)
