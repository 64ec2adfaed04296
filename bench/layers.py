"""Names of the workloads, the traced layers and every reported metric.

Kept free of quditpure imports so that the driver can name its metrics
without loading the package.
"""

# Traced public names per quditpure module.  Classes are traced through
# their __init__.
TRACED = {
    "states": (
        "CoeffMatrix", "make_preset", "depolarize_channel", "twirl_isotropic",
        "random_state",
    ),
    "recurrence": (
        "p1_map", "p2_map", "three_copy_map", "noisy_step", "choose_subroutine",
        "dejmps_map", "run_protocol", "regime_scan", "noise_threshold",
    ),
    "oracle": (
        "recurrence_map_deviation", "build_bell_pairs", "simulate_recurrence_step",
        "verify_bell_index_maps", "verify_depolarization_identity",
        "verify_mgxor_index_map",
    ),
    "hashing": (
        "finite_size_report", "lemma1_montecarlo", "min_fidelity",
        "noisy_thresholds", "universal_threshold",
    ),
    "multipartite": ("GhzCoeffs", "multipartite_yield", "isotropic_yield_formula"),
    "cli": ("main",),
}
SCANS = ("recurrence.regime_scan", "recurrence.noise_threshold")

SMALL_DIMENSIONS = (2, 3, 5, 7)
LARGE_DIMENSIONS = (31, 101, 211, 401)
TRAJ_DIMENSIONS = SMALL_DIMENSIONS + LARGE_DIMENSIONS

WORKLOAD_NAMES = ("scan", "traj_small_d", "traj_large_d", "oracle", "tables")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _pass_metrics() -> list[str]:
    names = []
    for module, fns in TRACED.items():
        for fn in fns:
            qual = f"{module}.{fn}"
            names += [f"{qual}.calls", f"{qual}.self_s"]
            if qual in SCANS:
                names.append(f"{qual}.total_s")
    names += [f"recurrence.p1_map.mean_us.d{d}" for d in TRAJ_DIMENSIONS]
    names += [
        "recurrence.rounds",
        "recurrence.run_protocol.rounds",
        "recurrence.run_protocol.stop_target",
        "recurrence.run_protocol.stop_stall",
        "recurrence.run_protocol.stop_max_iters",
        "recurrence.noise_threshold.p1p2_d6.total_s",
        "recurrence.scan.predicate_evals",
        "recurrence.scan.rounds_per_predicate",
        "oracle.comparisons",
    ]
    return names


# Metrics one traced pass yields (Tracer.metrics).
PASS_METRICS = _pass_metrics()
# Every per-layer metric of a traced run: the pass metrics plus what
# run.py derives from the pass records.
PER_LAYER = PASS_METRICS + ["cli.output_bytes", "trace.overhead_s", "fail_ratio"]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".mean_us." in name:
        return "us"
    if name.endswith("output_bytes"):
        return "bytes"
    if name in ("fail_ratio", "recurrence.scan.rounds_per_predicate"):
        return "ratio"
    return "count"
