"""One benchmark pass in a fresh process; started by run.py, not by hand.

Imports quditpure (the set-up a CLI cold start pays), builds the
workload's inputs from the seed, times one pass over them with or
without tracing, checks the outputs, and prints one JSON record.  Just
before and just after the pass it times a fixed reference task, which
tells run.py how fast the host ran at that moment.
"""

import time

import quditpure  # noqa: F401  (set-up time includes the package import)
import quditpure.cli  # noqa: F401

_READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402


REFERENCE_REPEATS = 8


def reference_s() -> float:
    """Seconds the host takes for a fixed task that does not touch quditpure.

    The task mixes interpreted float, dict and string work with small
    numpy products and elementwise work on a 50k-entry array, as the
    passes do, and takes about 12 ms on an unloaded host.  It leaves out
    multi-threaded BLAS calls, whose time on a loaded host jumped far
    more than any pass's did.

    Returns the fastest of REFERENCE_REPEATS timed runs after an untimed
    one: the fastest run skips the host's sub-second stalls but still
    slows when the host stays loaded.
    """
    import numpy as np

    def task() -> float:
        t0 = time.perf_counter()
        acc, table, text = 0.0, {}, []
        for i in range(15_000):
            x = i * 0.5 + 1.0
            acc += x * x / (x + 1.0)
            table[i & 511] = acc
            if i % 10 == 0:
                text.append(format(acc, ".12g"))
        a = np.arange(9.0).reshape(3, 3)
        for _ in range(1500):
            a = a / (a @ a).sum(axis=0).max() + 1.0
        v = np.linspace(0.0, 1.0, 50_000)
        for _ in range(20):
            v = np.sqrt(v * v + 1.0)
            v /= v.sum()
        return time.perf_counter() - t0

    task()
    return min(task() for _ in range(REFERENCE_REPEATS))


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this process was started")
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spans", help="where a traced pass writes its spans (.npz)")
    args = parser.parse_args()
    record = {"setup_s": (_READY_NS - args.launched_ns) / 1e9}
    if args.mode == "setup":
        record["environment"] = environment()
        print(json.dumps(record))
        return

    workload = workloads.WORKLOADS[args.workload]
    ops = workload.make_inputs(args.seed)
    ref_before = reference_s()
    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        outputs = [workloads.attempt(workload.run, op) for op in ops]
        wall_s = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        if tracer is not None:
            tracer.remove()
    ref_after = reference_s()

    try:
        problems = workload.check(ops, outputs, args.seed, workloads.load_refs())
    except Exception as exc:  # noqa: BLE001 - unreadable output fails every op
        problems = [f"check raised {type(exc).__name__}: {exc}"] * len(ops)
    record.update(
        wall_s=wall_s,
        ref_s=[ref_before, ref_after],
        peak_rss_mb=peak_kb / 1024.0,
        attempted=len(ops),
        failed=len(problems),
        problems=problems[:5],
        output_bytes=workloads.output_bytes(outputs),
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
