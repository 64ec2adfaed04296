"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditpure import cli, oracle, recurrence
from quditpure.states import random_state
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
        code, out, err = run_cli(
            capsys,
            ["thresholds", "--protocol", "p1p2", "--d-range", "2", "--grid", grid],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "grid" in err

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--q-tol", "0"], "tolerance"),
            (["--q-tol", "-1"], "tolerance"),
            (["--q-tol", "nan"], "tolerance"),
            (["--iterations", "0"], "iterations"),
            (["--iterations", "-5"], "iterations"),
        ],
    )
    def test_rejects_bad_tolerance_or_iterations(
        self, capsys, monkeypatch, flags, word
    ):
        """Rejected before any lane runs: a tolerance of 0 used to bisect
        forever, NaN skipped the bisection, and 0 iterations was reported
        as "does not purify"."""

        def no_lanes(*args):
            raise AssertionError("scan ran before its arguments were checked")

        monkeypatch.setattr(recurrence, "_lanes_improve", no_lanes)
        code, out, err = run_cli(
            capsys,
            ["thresholds", "--protocol", "dejmps", "--d-range", "2", "--grid", "4"]
            + flags,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert word in err

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
        ],
        ids=["p1p2", "dejmps_xz"],
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

        monkeypatch.setattr(recurrence, "_lanes_improve", no_lanes)
        code, out, err = run_cli(
            capsys, ["thresholds", "--protocol", "p1p2", "--d-range", "2", "--grid", "1000001"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1000001 values" in err

    def test_rejects_three_copy(self, capsys):
        # argparse restricts --protocol to two-copy names and exits with 2
        with pytest.raises(SystemExit) as exc_info:
            main(["thresholds", "--protocol", "three-copy"])
        assert exc_info.value.code == 2
        capsys.readouterr()


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
        ],
        ids=["npow", "fixed", "n_to_1", "pure", "n_to_1_json", "single_csv",
             "single_json", "ghz", "ghz_json", "bbpssw"],
    )
    def test_golden_sha256(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
                "0b9ed0f4003dcdd5300e578622e3e6c3296a48c9ef3e2dab58c45cb4cd3ea12d",
            ),
            (
                ["oracle-check", "--d", "2,3,4,5", "--trials", "3", "--seed", "7"],
                "7e787803b240a4021de01e142d4e421978d52781998fa0c63bb83ae9dabcd645",
            ),
            (
                ["oracle-check", "--d", "2,3,4,5", "--trials", "3", "--seed", "99"],
                "d569ab7d59b756f888b11e1b82d21b0b7a4d89a9e6ce36ae17d1b5c200c957db",
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

    def test_float_grid_is_python_floats(self):
        assert all(type(v) is float for v in cli._parse_float_grid("0.5:1:11"))


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
        ],
        ids=["d_range_reversed", "N_list_empty", "primes_no_range", "primes_none",
             "F_grid_two_parts", "F_grid_count_0", "n_sweep_one_part", "n_sweep_reversed",
             "fmin_no_d", "threshold_no_d", "threshold_composite", "n_no_F"],
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
