"""End-to-end tests for the command-line interface."""

import hashlib
import json

import numpy as np
import pytest

from quditpure import cli, oracle, recurrence
from quditpure.states import random_state
from quditpure.cli import main


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
                "b56998c440642bea926d1ba47207ad5635fa2214614ba24e82438f6296c09a04",
            ),
            (
                ["hashing", "--d", "3", "--F", "0.95", "--n-sweep", "2:3000:41",
                 "--delta", "fixed:0.05"],
                "1093c46242a6d237c3279f26ebee9c067af059a17df9d1ebb496070c7c5430d8",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.85", "--n-sweep", "2:400:3",
                 "--delta", "n_to_1"],
                "48800f8d1723c94853eed2d0d36f7ebb7d3769b404f0abf0410dcb95da0bf156",
            ),
            (
                ["hashing", "--d", "7", "--F", "1", "--n-sweep", "2:200:9",
                 "--delta", "n_to_1"],
                "339d529d0c72cd338240260909000aa3001773582183082cdf8367f0698324bd",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.85", "--n-sweep", "2:400:3",
                 "--delta", "n_to_1", "--format", "json"],
                "52c02395b6d5075efeadf383fdeaba03ebb1992c37cc874598fcee6aa84dbf36",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.95", "--n", "10", "--delta", "n_to_1",
                 "--format", "csv"],
                "7bacf319bc0e966805bea07897fba2ab0c93cd303ee6b19e72f65ab5ad6af61b",
            ),
            (
                ["hashing", "--d", "2", "--F", "0.95", "--n", "10", "--delta", "n_to_1"],
                "981d358f5b6ec6fee568da7353a075c7e170a893c2abd25b4d2ccdd68c1fb5be",
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
