"""The benchmark's workloads: seeded inputs, the timed operations, checks.

Each workload is a fixed list of operations built from the seed before
timing starts.  ``run`` executes one operation; ``check`` runs after the
timed region and returns one message per failed operation.  Reference
values in ``refs/seed_commit.json`` are the program's outputs at the
commit that introduced the benchmark (see ``make_refs.py``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from quditpure import cli, hashing, recurrence, states

from layers import LARGE_DIMENSIONS, SMALL_DIMENSIONS

DEFAULT_SEED = 0
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs",
                         "seed_commit.json")

# Tolerances of the checks.
PROB_TOL = 1e-12         # success probability against its closed form
NORM_TOL = 1e-12         # weight sum of every state along a trajectory
FINAL_F_TOL = 1e-9       # final fidelity against the seed commit
SCAN_Q_TOL = 1e-3        # the thresholds command's default --q-tol
SCAN_F_TOL = 2e-8        # twice regime_scan's default bisection refine_tol
ORACLE_TOL = 1e-10       # oracle-check's own tolerance
LEMMA1_SIGMAS = 5.0

# Test 04's adaptive-protocol thresholds, quoted to four digits.
SCAN_ANCHORS = {("p1p2", 2): 0.9370, ("p1p2", 6): 0.8239}
ANCHOR_ROUNDING = 5e-5


class CliResult(NamedTuple):
    code: int
    stdout: str


class Failed(NamedTuple):
    error: str


def attempt(run: Callable, op) -> Any:
    """Run one operation; an exception makes it a failed operation."""
    try:
        return run(op)
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        return Failed(f"{type(exc).__name__}: {exc}")


def run_cli(argv: list[str]) -> CliResult:
    """``quditpure <argv>`` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliResult(code, buf.getvalue())


def output_bytes(outputs: list) -> int:
    return sum(len(o.stdout.encode()) for o in outputs if isinstance(o, CliResult))


def stop_reason(traj: recurrence.Trajectory, max_iters: int) -> str:
    """Why ``run_protocol`` returned: target, stall or max_iters."""
    if traj.reached_target:
        return "target"
    return "max_iters" if traj.iterations >= max_iters else "stall"


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[list, list, int, dict], list[str]]
    # Reference-shaped summary of the outputs at DEFAULT_SEED, or None
    # when the checks need no stored reference.
    summarize: Callable[[list, list], Any] | None


def _cli_failure(i: int, out) -> str | None:
    if isinstance(out, Failed):
        return f"op {i}: {out.error}"
    if out.code != 0:
        return f"op {i}: exit code {out.code}"
    return None


# -- scan -------------------------------------------------------------------

# Cut from --d-range 2..8 so that a pass takes about 2 s and a run holds
# enough passes for a steady median; d = 2 and d = 6 carry test 04's P1P2
# thresholds.
SCAN_COMMANDS = {
    "p1p2": ["thresholds", "--protocol", "p1p2", "--d-range", "2,6"],
    "dejmps_xz": ["thresholds", "--protocol", "dejmps", "--d-range", "2..3",
                  "--preset", "xz_mixture"],
}


def _scan_inputs(seed: int) -> list:
    return list(SCAN_COMMANDS.items())


def _scan_rows(text: str) -> list[list]:
    rows = []
    for r in csv.DictReader(io.StringIO(text)):
        rows.append([int(r["d"]), r["protocol"], float(r["Q"]), float(r["Q_th"]),
                     float(r["F_min"]), float(r["F_max"]), r["purifiable"]])
    return rows


def _scan_summary(ops: list, outputs: list) -> dict:
    return {key: _scan_rows(out.stdout) for (key, _), out in zip(ops, outputs)}


def _scan_check(ops: list, outputs: list, seed: int, refs: dict) -> list[str]:
    problems = []
    for i, ((key, _), out) in enumerate(zip(ops, outputs)):
        bad = _cli_failure(i, out)
        if bad is None:
            bad = _scan_row_problem(key, _scan_rows(out.stdout), refs["scan"][key])
        if bad is not None:
            problems.append(f"scan {key}: {bad}")
    return problems


def _scan_row_problem(key: str, rows: list, ref_rows: list) -> str | None:
    if [r[0] for r in rows] != [r[0] for r in ref_rows]:
        return f"dimensions {[r[0] for r in rows]} != {[r[0] for r in ref_rows]}"
    for row, ref in zip(rows, ref_rows):
        d, protocol, Q, q_th, f_min, f_max, purifiable = row
        if (protocol, Q, purifiable) != (ref[1], ref[2], ref[6]):
            return f"d={d}: columns {row} != {ref}"
        if abs(q_th - ref[3]) > SCAN_Q_TOL:
            return f"d={d}: Q_th {q_th} vs {ref[3]}"
        if abs(f_min - ref[4]) > SCAN_F_TOL or abs(f_max - ref[5]) > SCAN_F_TOL:
            return f"d={d}: F range [{f_min}, {f_max}] vs [{ref[4]}, {ref[5]}]"
        anchor = SCAN_ANCHORS.get((key, d))
        if anchor is not None and abs(q_th - anchor) > SCAN_Q_TOL + ANCHOR_ROUNDING:
            return f"d={d}: Q_th {q_th} vs test 04's {anchor}"
    return None


# -- trajectories -----------------------------------------------------------

TRAJ_PROTOCOLS = (recurrence.P1P2, recurrence.DEJMPS, recurrence.THREE_COPY)
SMALL_Q = (1.0, 0.995, 0.98)
SMALL_PER_CELL = 6
# Oscillating DEJMPS runs at small d never stall; a cap of 50 rounds
# keeps the seed's share of them from dominating the pass time.
SMALL_MAX_ITERS = 50
LARGE_MAX_ITERS = 200
LARGE_F = 0.5
LARGE_Q = 0.995


def _perturbed(kind: str, F: float, x_weight: float, d: int, rng) -> states.CoeffMatrix:
    """0.9 * preset + 0.1 * Dirichlet noise: off the preset families."""
    base = states.make_preset(states.StatePreset(kind, F, x_weight), d).alpha
    noise = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    return states.CoeffMatrix(0.9 * base + 0.1 * noise)


def _small_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    cells = itertools.product(SMALL_DIMENSIONS, TRAJ_PROTOCOLS, SMALL_Q,
                              states.PRESET_KINDS)
    for d, protocol, Q, kind in cells:
        for i in range(SMALL_PER_CELL):
            F = 0.55 + 0.35 * (i + rng.random()) / SMALL_PER_CELL
            state = _perturbed(kind, F, rng.uniform(0.1, 0.9), d, rng)
            ops.append((protocol, state, recurrence.NoiseParams(Q=Q), SMALL_MAX_ITERS))
    return ops


def _large_inputs(seed: int) -> list:
    rng = np.random.default_rng(seed)
    spec = [(p, d) for d in LARGE_DIMENSIONS[:3] for p in TRAJ_PROTOCOLS]
    spec.append((recurrence.P1P2, LARGE_DIMENSIONS[3]))
    noise = recurrence.NoiseParams(Q=LARGE_Q)
    return [(protocol, _perturbed(kind, LARGE_F, 0.25, d, rng), noise, LARGE_MAX_ITERS)
            for protocol, d in spec for kind in ("isotropic", "xz_mixture")]


def _run_traj(op) -> recurrence.Trajectory:
    protocol, state, noise, max_iters = op
    return recurrence.run_protocol(protocol, state, noise, max_iters=max_iters)


def _traj_summary(ops: list, outputs: list) -> list:
    return [[stop_reason(t, op[3]), t.final_fidelity] for op, t in zip(ops, outputs)]


def trajectory_problem(op, traj: recurrence.Trajectory) -> str | None:
    """Check every round's success probability and normalization.

    The probability is checked against its closed form on the round's
    depolarized input ``a``.  P1 (and DEJMPS, which runs P1): sum of
    squared column sums.  P2: sum of squared row sums.  Three-copy: sum
    of cubed column sums, or of row sums when phase errors dominate and
    the round runs transposed.
    """
    protocol, state, noise, max_iters = op
    if traj.iterations > max_iters:
        return f"{traj.iterations} rounds exceed max_iters={max_iters}"
    if not traj.steps:
        return None
    alphas = np.stack([state.alpha] + [s.state.alpha for s in traj.steps])
    retention = noise.Q * noise.Q
    a = retention * alphas[:-1] + (1.0 - retention) / state.alpha.size
    if protocol == recurrence.THREE_COPY:
        use_rows = a[:, :, 0].sum(axis=1) > a[:, 0, :].sum(axis=1)
        power = 3
    else:
        use_rows = np.array([s.step == recurrence.P2 for s in traj.steps])
        power = 2
    sums = np.where(use_rows[:, None], a.sum(axis=2), a.sum(axis=1))
    expected = (sums**power).sum(axis=1)
    probs = np.array([s.success_prob for s in traj.steps])
    for n in np.flatnonzero(np.abs(probs - expected) > PROB_TOL)[:1]:
        return f"round {n + 1}: success prob {probs[n]!r} vs {expected[n]!r}"
    totals, lows = alphas[1:].sum(axis=(1, 2)), alphas[1:].min(axis=(1, 2))
    for n in np.flatnonzero((np.abs(totals - 1.0) > NORM_TOL) | (lows < 0.0))[:1]:
        return f"round {n + 1}: weights sum to {totals[n]!r}, min {lows[n]!r}"
    return None


def _traj_check(name: str):
    def check(ops: list, outputs: list, seed: int, refs: dict) -> list[str]:
        ref = refs[name] if seed == DEFAULT_SEED else None
        problems = []
        for i, (op, out) in enumerate(zip(ops, outputs)):
            if isinstance(out, Failed):
                problems.append(f"op {i}: {out.error}")
                continue
            bad = trajectory_problem(op, out)
            if bad is None and ref is not None:
                stop, final_F = stop_reason(out, op[3]), out.final_fidelity
                if stop != ref[i][0] or abs(final_F - ref[i][1]) > FINAL_F_TOL:
                    bad = f"stop {stop}, F {final_F!r} vs seed commit {ref[i]}"
            if bad is not None:
                problems.append(f"{name} op {i} ({op[0]}, d={op[1].d}): {bad}")
        return problems

    return check


# -- oracle -----------------------------------------------------------------

# Five trials instead of the command's default ten, so that a pass takes
# about 2.5 s.
ORACLE_ARGV = ["oracle-check", "--d", "2,3,5", "--trials", "5"]


def _oracle_inputs(seed: int) -> list:
    return [ORACLE_ARGV + ["--seed", str(seed)]]


def _oracle_check(ops: list, outputs: list, seed: int, refs: dict) -> list[str]:
    problems = []
    for i, out in enumerate(outputs):
        bad = _cli_failure(i, out)
        if bad is None:
            report = json.loads(out.stdout)
            worst = max(report["checks"].values(), default=math.inf)
            if not (report["pass"] is True and report["mgxor_index_map_ok"] is True
                    and worst < ORACLE_TOL and report["tolerance"] == ORACLE_TOL):
                bad = f"op {i}: pass={report['pass']}, worst deviation {worst!r}"
        if bad is not None:
            problems.append(f"oracle {bad}")
    return problems


# -- tables -----------------------------------------------------------------

# The block-size sweep (step 20, not 10) and the Monte Carlo (5e5 trials,
# not 1e6) are halved so that a pass takes about 2 s.
TABLE_COMMANDS = [
    ["thresholds", "--protocol", "bbpssw", "--d-range", "2..2000"],
    ["hashing", "--threshold", "--d-range", "primes:2..2000"],
    ["hashing", "--d", "5", "--F", "0.9", "--n-sweep", "10:1000000:20"],
    ["ghz", "--d-list", "primes:2..50", "--N-list", "2..6", "--F-grid", "0.5:1:101"],
]
LEMMA1_ARGS = (5, 20, 5 * 10**5)  # d, n, trials


def _tables_inputs(seed: int) -> list:
    return [("cli", argv) for argv in TABLE_COMMANDS] + [("lemma1", LEMMA1_ARGS + (seed,))]


def _run_table(op):
    kind, args = op
    if kind == "cli":
        return run_cli(args)
    d, n, trials, seed = args
    return hashing.lemma1_montecarlo(d, n, trials=trials, seed=seed)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tables_summary(ops: list, outputs: list) -> list:
    return [_sha256(out.stdout) for (kind, _), out in zip(ops, outputs) if kind == "cli"]


def _tables_check(ops: list, outputs: list, seed: int, refs: dict) -> list[str]:
    problems = []
    ref_hashes = iter(refs["tables"])
    for i, ((kind, args), out) in enumerate(zip(ops, outputs)):
        if kind == "cli":
            expected = next(ref_hashes)
            bad = _cli_failure(i, out)
            if bad is None and _sha256(out.stdout) != expected:
                bad = f"op {i}: stdout sha256 {_sha256(out.stdout)} != {expected}"
        elif isinstance(out, Failed):
            bad = f"op {i}: {out.error}"
        else:
            d, _, trials, _ = args
            sigma = math.sqrt((1.0 / d) * (1.0 - 1.0 / d) / trials)
            bad = (None if abs(out - 1.0 / d) <= LEMMA1_SIGMAS * sigma
                   else f"op {i}: collision rate {out!r} vs 1/{d}")
        if bad is not None:
            problems.append(f"tables {bad}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", _scan_inputs, lambda op: run_cli(op[1]), _scan_check,
                 _scan_summary),
        Workload("traj_small_d", _small_inputs, _run_traj, _traj_check("traj_small_d"),
                 _traj_summary),
        Workload("traj_large_d", _large_inputs, _run_traj, _traj_check("traj_large_d"),
                 _traj_summary),
        Workload("oracle", _oracle_inputs, run_cli, _oracle_check, None),
        Workload("tables", _tables_inputs, _run_table, _tables_check, _tables_summary),
    )
}
