"""Tests of the benchmark itself (not part of the package's Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import tracer as tracing
import workloads
from quditpure import cli, hashing, multipartite, oracle, recurrence, states

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
MODULES = (states, recurrence, oracle, hashing, multipartite, cli)


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    own = tracing.self_times(end - start, parent)
    np.testing.assert_allclose(own, [3.0, 3.0, 3.0, 1.0])


def test_tracer_records_nesting_and_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = states.make_preset(states.StatePreset("isotropic", 0.8), 3)
        recurrence.p2_map(state)
    finally:
        tracer.remove()
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[:2] == ["states.make_preset", "states.CoeffMatrix"]
    p2 = names.index("recurrence.p2_map")
    p1 = names.index("recurrence.p1_map")
    assert spans["parent"][p1] == p2
    metrics = tracer.metrics()
    assert metrics["recurrence.p2_map.calls"] == 1
    assert metrics["recurrence.p1_map.calls"] == 1
    assert metrics["recurrence.p1_map.mean_us.d3"] > 0.0
    # make_preset, transpose into p1_map, p1_map's output, transpose back.
    assert metrics["states.CoeffMatrix.calls"] == 4
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))
    assert set(metrics) == set(layers.PASS_METRICS)


def _bindings():
    snapshot = {}
    for module in MODULES:
        for attr, value in vars(module).items():
            snapshot[(module.__name__, attr)] = value
            if isinstance(value, type) and "__init__" in vars(value):
                snapshot[(module.__name__, attr, "__init__")] = vars(value)["__init__"]
    return snapshot


def _current(key):
    module = sys.modules[key[0]]
    value = vars(module)[key[1]]
    return vars(value)["__init__"] if len(key) == 3 else value


def test_install_patches_every_binding_and_remove_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        changed = {k for k, v in before.items() if _current(k) is not v}
        # Every module that imported a traced name sees the wrapper.
        for module in (states, recurrence, cli):
            assert ((module.__name__, "make_preset") in changed)
        assert (recurrence.__name__, "depolarize_channel") in changed
        assert (states.__name__, "CoeffMatrix", "__init__") in changed
        assert recurrence.make_preset is cli.make_preset is states.make_preset
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("mutate", ["stop", "final_F"])
def test_wrong_reference_fails_trajectories(mutate):
    workload = workloads.WORKLOADS["traj_small_d"]
    ops = workload.make_inputs(workloads.DEFAULT_SEED)[:12]
    outputs = [workloads.attempt(workload.run, op) for op in ops]
    refs = {"traj_small_d": [list(r) for r in workloads.load_refs()["traj_small_d"][:12]]}
    assert workload.check(ops, outputs, workloads.DEFAULT_SEED, refs) == []
    if mutate == "stop":
        refs["traj_small_d"][3][0] = "max_iters"
    else:
        refs["traj_small_d"][3][1] += 1e-6
    problems = workload.check(ops, outputs, workloads.DEFAULT_SEED, refs)
    assert len(problems) == 1 and "op 3" in problems[0]


def test_closed_form_check_catches_a_wrong_probability():
    op = workloads.WORKLOADS["traj_small_d"].make_inputs(5)[0]
    traj = workloads.WORKLOADS["traj_small_d"].run(op)
    assert workloads.trajectory_problem(op, traj) is None
    step = traj.steps[0]
    traj.steps[0] = recurrence.TrajectoryStep(step.step, step.state,
                                              step.success_prob + 1e-9,
                                              step.cumulative_yield)
    assert "round 1" in workloads.trajectory_problem(op, traj)


def _scan_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["d", "protocol", "Q", "Q_th", "F_min", "F_max", "purifiable"])
    writer.writerows(rows)
    return buf.getvalue()


def test_wrong_reference_fails_scan_tables_and_oracle():
    refs = workloads.load_refs()
    scan = workloads.WORKLOADS["scan"]
    ops = scan.make_inputs(1)
    outputs = [workloads.CliResult(0, _scan_text(refs["scan"][key])) for key, _ in ops]
    assert scan.check(ops, outputs, 1, refs) == []
    bad = json.loads(json.dumps(refs))
    bad["scan"]["p1p2"][-1][3] += 2e-3
    assert len(scan.check(ops, outputs, 1, bad)) == 1

    tables = workloads.WORKLOADS["tables"]
    ops = tables.make_inputs(1)
    fake = [workloads.CliResult(0, "x")] * 4 + [0.2]
    assert len(tables.check(ops, fake, 1, {"tables": [workloads._sha256("x")] * 4})) == 0
    assert len(tables.check(ops, fake, 1, refs)) == 4
    assert len(tables.check(ops, fake[:4] + [0.25], 1,
                            {"tables": [workloads._sha256("x")] * 4})) == 1

    report = {"checks": {"P1_state_d2": 1e-9}, "pass": True, "mgxor_index_map_ok": True,
              "tolerance": 1e-10}
    check = workloads.WORKLOADS["oracle"].check
    out = [workloads.CliResult(0, json.dumps(report))]
    assert len(check([None], out, 1, refs)) == 1
    report["checks"]["P1_state_d2"] = 1e-15
    assert check([None], [workloads.CliResult(0, json.dumps(report))], 1, refs) == []


def _worker(mode, workload="scan", seed=1):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--launched-ns", "0"],
        env=env, capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_scan_call_counts_repeat_exactly():
    first, second = _worker("traced")["layers"], _worker("traced")["layers"]
    counted = [k for k in layers.PASS_METRICS
               if layers.per_layer_unit(k) in ("count", "ratio")]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    assert first["recurrence.scan.predicate_evals"] > 0
    assert first["recurrence.noise_threshold.p1p2_d6.total_s"] > 0


def test_benchmark_json_matches_the_driver():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(layers.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == layers.PER_LAYER
    assert all(m["unit"] == layers.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_driver_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env={"PATH": os.environ.get("PATH", "")},
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
