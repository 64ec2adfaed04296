"""Benchmark driver for quditpure.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh Python process started by
this driver, one at a time, for ``--seconds`` seconds.  With ``--trace 0``
every pass runs untraced and the result holds the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the result
holds the per-layer metrics.  Times are rescaled to a reference host
speed (see ``at_reference_speed``).  The line before the last holds the
environment record and sample statistics, which give the times as
measured too; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits 1 without a result when a pass cannot run (for instance when the
package source is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from layers import END_TO_END_UNITS, PASS_METRICS, PER_LAYER, WORKLOAD_NAMES, per_layer_unit

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")

PASS_TIMEOUT_S = 170
REFERENCE_S = 0.012  # seconds of worker.reference_s on an unloaded host
MIN_PASSES = 3      # untraced passes per run
TAIL_BEYOND = 10    # samples a reported tail percentile must leave above it


class PassError(RuntimeError):
    pass


def launch(workload: str, seed: int, mode: str, spans: str | None = None) -> dict:
    """Start one worker process, wait for it, and return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    extra = ["--spans", spans] if spans else []
    launched = time.monotonic_ns()
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--launched-ns", str(launched)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassError(f"{mode} pass exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference task took ``ref_s``,
    rescaled to a host on which it takes REFERENCE_S.

    The host is shared, and the load of other tenants slows every process
    on it by up to 70% for minutes at a time.  The reference task, timed
    in the pass's process just before and after the pass, slows with it.
    It does not use quditpure, so a change to the program moves the
    rescaled time as much as the measured one.
    """
    return seconds * REFERENCE_S / ref_s


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles, max and the samples themselves;
    the tail percentile only when at least TAIL_BEYOND samples lie above
    it and it is not below the median."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered), "max": ordered[-1],
           "values": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out.update(q1=q1, q3=q3)
    k = n - 1 - TAIL_BEYOND
    out["tail"] = ({"percentile": 100.0 * k / (n - 1), "value": ordered[k]}
                   if n > 1 and k >= (n - 1) / 2 else None)
    return out


def source_record() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_passes(workload: str, seed: int, seconds: float, cycle: tuple[str, ...],
               min_each: int) -> dict[str, list[dict]]:
    """Launch workers in the order of ``cycle``, over and over, until the
    next one would end past the deadline, after at least ``min_each``
    launches of each mode."""
    deadline = time.monotonic() + seconds
    records = {m: [] for m in cycle}
    durations = {m: [] for m in cycle}
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.npz")
    while True:
        for mode in cycle:
            done = all(len(records[m]) >= min_each for m in cycle)
            if done and time.monotonic() + statistics.median(durations[mode]) > deadline:
                return records
            first_traced = mode == "traced" and not records[mode]
            t0 = time.monotonic()
            records[mode].append(launch(workload, seed, mode, spans if first_traced else None))
            durations[mode].append(time.monotonic() - t0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        os.makedirs(OUT_DIR, exist_ok=True)
        # Warm-up, not counted: the first launch byte-compiles a fresh
        # checkout and reports the environment; a discarded pass then
        # brings the CPU from idle to the clock it sustains under load.
        environment = launch(args.workload, args.seed, "setup")["environment"]
        launch(args.workload, args.seed, "plain")
        if args.trace:
            records = run_passes(args.workload, args.seed, args.seconds,
                                 ("plain", "traced"), min_each=1)
        else:
            records = run_passes(args.workload, args.seed, args.seconds, ("plain",),
                                 min_each=MIN_PASSES)
    except PassError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    passes = [r for m in ("plain", "traced") for r in records.get(m, [])]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    plain = records["plain"]
    samples = {
        "wall_s": [at_reference_speed(r["wall_s"], statistics.mean(r["ref_s"]))
                   for r in plain],
        "measured_wall_s": [r["wall_s"] for r in plain],
        "ref_s": [t for r in plain for t in r["ref_s"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    if args.trace:
        traced = records["traced"]
        samples["traced_wall_s"] = [at_reference_speed(r["wall_s"], statistics.mean(r["ref_s"]))
                                    for r in traced]
        # Counts repeat exactly from pass to pass; median_low keeps them whole.
        values = {k: (statistics.median_low if per_layer_unit(k) == "count"
                      else statistics.median)(r["layers"][k] for r in traced)
                  for k in PASS_METRICS}
        values["cli.output_bytes"] = statistics.median_low(r["output_bytes"] for r in passes)
        values["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                                      - statistics.median(samples["wall_s"]))
        values["fail_ratio"] = failed / attempted
        metrics = {k: {"value": values[k], "unit": per_layer_unit(k)} for k in PER_LAYER}
    else:
        # Every pass samples setup_s too, rescaled by the reference task
        # timed right after it, so its median spans the whole run.
        samples["setup_s"] = [at_reference_speed(r["setup_s"], r["ref_s"][0]) for r in plain]
        samples["measured_setup_s"] = [r["setup_s"] for r in plain]
        metrics = {k: {"value": statistics.median(samples[k]), "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}

    environment.update(source_record(), seed=args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment,
        "samples": {k: summary(v) for k, v in samples.items()},
        "fail_ratio": {"failed": failed, "attempted": attempted},
        "problems": [p for r in passes for p in r["problems"]][:10],
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(record, metrics=metrics), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
