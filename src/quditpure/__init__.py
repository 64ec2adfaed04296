"""Entanglement purification toolkit for pairs and groups of qudits.

Simulates and analyzes purification of noisy maximally entangled
d-level states: adaptive and fixed recurrence protocols on Bell-diagonal
weight matrices, closed-form dynamics of the twirl-based protocol,
hashing yields with finite-size bounds, multiparty GHZ
hashing, and an oracle that validates every coefficient-level shortcut
against literal gates on pure Bell-product inputs.
"""

from .indices import (
    BellIndex,
    bgxor_index_map,
    bqft_index_map,
    check_dimension,
    is_prime,
    pauli_on_bell,
    primes_in,
    require_prime,
)
from .states import (
    CoeffMatrix,
    StatePreset,
    depolarize_channel,
    make_preset,
    random_state,
    read_state_file,
    state_from_json,
    state_to_json,
    twirl_isotropic,
)
from .recurrence import (
    BBPSSW,
    DEJMPS,
    NOISELESS,
    NoiseParams,
    P1P2,
    PROTOCOLS,
    PurificationRegime,
    THREE_COPY,
    Trajectory,
    TrajectoryStep,
    bbpssw_fixed_points,
    bbpssw_step,
    bbpssw_threshold,
    bbpssw_threshold_asymptote,
    choose_subroutine,
    dejmps_map,
    noise_threshold,
    noisy_step,
    p1_map,
    p2_map,
    regime_scan,
    run_protocol,
    three_copy_map,
    yield_run,
)
from .hashing import (
    asymptotic_yield,
    entropy_based,
    finite_size_columns,
    finite_size_report,
    isotropic_entropy,
    lemma1_montecarlo,
    min_fidelity,
    noisy_thresholds,
    universal_threshold,
)
from .multipartite import (
    GhzCoeffs,
    ghz_from_json,
    ghz_isotropic,
    ghz_to_json,
    index_correlation,
    index_entropies,
    isotropic_yield_formula,
    multipartite_yield,
)

__version__ = "0.1.0"
