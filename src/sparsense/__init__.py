"""Greedy sparse recovery with a blind stopping rule, closed-form recovery
bounds, and a Monte Carlo benchmark harness for compressive spectrum sensing."""

from .bounds import (
    BoundParams,
    mapping_factor_lower,
    mapping_factor_lower_linear,
    mapping_factor_lower_quadratic,
    noise_concentration_factor,
    omega_for_probability,
    probability_ceiling,
    reconstructible_sparsity,
    recovery_probability,
    rho_tightness_limit,
    singular_value_bounds,
    snr_floor_continuation,
    snr_floor_selection,
    snr_min_requirement,
)
from .errors import (
    ConfigError,
    InfeasibleParams,
    InfeasibleTarget,
    InvalidParams,
    MatrixFormatError,
    RankDeficient,
    SparsenseError,
    ZeroSignal,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    SparseSpectrum,
    TrialOutcome,
    calibrate_noise,
    component_snr,
    gen_sparse_spectrum,
    min_component_snr,
    sweep,
)
from .linalg import least_squares_on_support
from .matgen import (
    MeasurementMatrix,
    export_csv,
    gen_gaussian_normalized,
    gen_hybrid_normalized,
    load_matrix,
    save_matrix,
)
from .recovery import (
    BlindStopParams,
    RecoveryResult,
    StopReason,
    run_bols,
    run_bomp,
    run_cosamp,
    run_mols,
    run_ols_known_k,
    run_omp_known_k,
)

__version__ = "0.1.0"
