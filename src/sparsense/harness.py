"""Monte Carlo experiment engine.

A sweep fixes one measurement matrix, calibrates per-trial noise to each SNR
grid point, runs every configured algorithm on identical (x, noise) pairs,
and aggregates recovery probability, MSE and mean iteration counts per
(grid point, algorithm). The unit of work is one trial at one SNR: its x and
y are synthesized once, each greedy selection rule runs once on it, and
every configured algorithm (at every omega, on omega sweeps) reads its
result from that run. Trials are independent work items; aggregation is
keyed by trial index so results are identical for any worker count.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bounds
from .errors import ConfigError, InvalidParams, SparsenseError, ZeroSignal
from .matgen import MeasurementMatrix, gen_gaussian_normalized, gen_hybrid_normalized
from .recovery import (
    BlindStopParams,
    GreedyPath,
    RecoveryResult,
    run_bols,
    run_bomp,
    run_cosamp,
    run_mols,
    run_ols_known_k,
    run_omp_known_k,
)
from .streams import TAG_NOISE, TAG_SPECTRUM, derive_seed, stream

CSV_HEADER = "grid,algorithm,prob_recovery,mse,mean_iterations,trials"

ALGORITHMS = ("bols", "bomp", "ols", "omp", "cosamp", "mols")
FAMILIES = ("gaussian", "hybrid")


@dataclass
class SparseSpectrum:
    x: np.ndarray
    support: list[int]
    k: int


@dataclass
class ExperimentConfig:
    """One sweep definition; all keys are settable from config files and CLI."""

    family: str = "gaussian"
    m: int = 256
    n: int = 512
    offset_max: float = 10.0
    k: int = 4
    snr_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    algorithms: tuple[str, ...] = ("bols", "ols")
    trials: int = 1000
    base_seed: int = 1
    p_min: float = 0.95
    rho: float = 0.175
    vartheta: float = 0.15
    success_tolerance: float = 0.05
    nonzero_mean: float = 1.0
    nonzero_var: float = 0.01
    mols_subset: int = 2
    cosamp_max_iterations: int = 50
    max_blind_iterations: int | None = None
    matrix_policy: str = "fixed"
    omega_grid: tuple[float, ...] | None = None

    def validate(self) -> "ExperimentConfig":
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown matrix family {self.family!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        if not self.success_tolerance > 0:
            raise ConfigError(f"success_tolerance must be > 0, got {self.success_tolerance}")
        if self.k < 0 or self.k > self.n:
            raise ConfigError(f"k must be in [0, N], got {self.k}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}; known: {ALGORITHMS}")
        if self.matrix_policy not in ("fixed", "per_point"):
            raise ConfigError(f"matrix_policy must be fixed or per_point, got {self.matrix_policy}")
        return self


@dataclass
class MetricsRow:
    grid: float
    algorithm: str
    prob_recovery: float
    mse: float
    mean_iterations: float
    trials: int
    prob_exact_support: float = 0.0  # JSONL/summary metric, not part of the CSV schema


@dataclass
class TrialOutcome:
    algorithm: str
    grid: float          # sweep axis value: the SNR, or omega on omega sweeps
    snr_db: float
    trial_index: int
    success: bool
    exact_support: bool
    mse_contrib: float
    rel_error: float
    iterations: int
    stop_reason: str


def gen_sparse_spectrum(n: int, k: int, mean: float, var: float, rng) -> SparseSpectrum:
    """K-sparse vector: uniform random support, nonzeros i.i.d. N(mean, var)."""
    if k > n:
        raise InvalidParams(f"k={k} exceeds n={n}")
    if var < 0:
        raise InvalidParams(f"variance must be >= 0, got {var}")
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    support = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    if k:
        x[support] = mean + math.sqrt(var) * rng.standard_normal(k)
    return SparseSpectrum(x=x, support=support, k=k)


def calibrate_noise(d, x, snr_db: float, rng) -> tuple[np.ndarray, float]:
    """Measurement y = Dx + noise with the noise level set so the realized
    signal energy over M sigma^2 equals the requested SNR. ``snr_db=inf``
    returns the noiseless measurement."""
    e = d.entries if isinstance(d, MeasurementMatrix) else np.asarray(d, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    signal = e @ x
    if math.isinf(snr_db) and snr_db > 0:
        return signal, 0.0
    energy = float(signal @ signal)
    if energy == 0.0:
        raise ZeroSignal("cannot set a finite SNR for a zero signal")
    sigma = math.sqrt(energy / (e.shape[0] * 10.0 ** (snr_db / 10.0)))
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    noise = sigma * rng.standard_normal(e.shape[0])
    return signal + noise, sigma


def component_snr(d, x, sigma: float, q: int) -> float:
    """Per-component SNR ||x_q d_q||^2 / (M sigma^2)."""
    e = d.entries if isinstance(d, MeasurementMatrix) else np.asarray(d, dtype=np.float64)
    if sigma == 0.0:
        return math.inf
    col = e[:, q]
    return float(x[q] * x[q] * (col @ col)) / (e.shape[0] * sigma * sigma)


def min_component_snr(d, x, sigma: float) -> float:
    """Smallest component SNR over the nonzero components of x."""
    nz = np.nonzero(np.asarray(x))[0]
    if nz.size == 0:
        return 0.0
    return min(component_snr(d, x, sigma, int(q)) for q in nz)


_RULE_OF = {"bols": "ols", "ols": "ols", "bomp": "omp", "omp": "omp"}


def _run_algorithm(
    alg: str, d: MeasurementMatrix, y: np.ndarray, config: ExperimentConfig,
    blind: BlindStopParams | None, paths: dict[str, GreedyPath],
) -> RecoveryResult:
    """One algorithm on y; the greedy ones cut the trial's path of their rule,
    which ``paths`` holds once any algorithm has asked for it."""
    if alg == "cosamp":
        return run_cosamp(d, y, config.k, max_iterations=config.cosamp_max_iterations)
    if alg == "mols":
        return run_mols(d, y, config.k, config.mols_subset)
    rule = _RULE_OF.get(alg)
    if rule is None:
        raise InvalidParams(f"unknown algorithm {alg!r}")
    if rule not in paths:
        paths[rule] = GreedyPath(d, y, rule)
    if alg in ("ols", "omp"):
        runner = run_ols_known_k if alg == "ols" else run_omp_known_k
        return runner(d, y, config.k, path=paths[rule])
    if blind is None:
        raise InvalidParams(f"algorithm {alg} needs blind stopping parameters")
    runner = run_bols if alg == "bols" else run_bomp
    return runner(d, y, blind, path=paths[rule])


def _trial_outcomes(
    d: MeasurementMatrix,
    config: ExperimentConfig,
    trial_index: int,
    snr_db: float,
    runs: list[tuple[float, str, BlindStopParams | None]],
) -> list[TrialOutcome]:
    """Outcomes of one trial for each (grid value, algorithm, blind parameters).

    Spectrum and noise streams are keyed by (base_seed, role, trial_index)
    only, so x and y are synthesized once and every run sees the same draw;
    runs sharing a selection rule read their results from one greedy path.
    """
    spec = gen_sparse_spectrum(
        config.n, config.k, config.nonzero_mean, config.nonzero_var,
        stream(config.base_seed, TAG_SPECTRUM, trial_index),
    )
    y, _sigma = calibrate_noise(
        d, spec.x, snr_db, stream(config.base_seed, TAG_NOISE, trial_index)
    )
    xnorm = float(np.linalg.norm(spec.x))
    paths: dict[str, GreedyPath] = {}
    outcomes = []
    for grid_value, alg, blind in runs:
        try:
            result = _run_algorithm(alg, d, y, config, blind, paths)
            stop_reason = result.stop_reason.value
            x_hat = result.x_hat
            iterations = result.iterations
        except SparsenseError as exc:
            stop_reason = type(exc).__name__
            x_hat = np.zeros(config.n)
            iterations = 0
        err = float(np.linalg.norm(x_hat - spec.x))
        rel = err / xnorm if xnorm > 0 else (0.0 if err == 0 else math.inf)
        outcomes.append(TrialOutcome(
            algorithm=alg,
            grid=grid_value,
            snr_db=snr_db,
            trial_index=trial_index,
            success=rel <= config.success_tolerance,
            exact_support=sorted(int(i) for i in np.nonzero(x_hat)[0]) == spec.support,
            mse_contrib=err * err / config.n,
            rel_error=rel,
            iterations=iterations,
            stop_reason=stop_reason,
        ))
    return outcomes


def run_trial(
    d: MeasurementMatrix,
    config: ExperimentConfig,
    trial_index: int,
    algorithm_id: str,
    snr_db: float,
    blind: BlindStopParams | None,
    grid_value: float | None = None,
) -> TrialOutcome:
    """One (trial, algorithm) execution; the sweeps run all algorithms of a
    trial together and give the same outcomes."""
    grid = snr_db if grid_value is None else grid_value
    return _trial_outcomes(d, config, trial_index, snr_db, [(grid, algorithm_id, blind)])[0]


def build_matrix(config: ExperimentConfig, salt: int = 0) -> MeasurementMatrix:
    seed = config.base_seed if salt == 0 else derive_seed(config.base_seed, salt)
    if config.family == "gaussian":
        return gen_gaussian_normalized(config.m, config.n, seed)
    return gen_hybrid_normalized(config.m, config.n, seed, offset_max=config.offset_max)


def blind_params_for(config: ExperimentConfig, mu: float) -> tuple[BlindStopParams, dict]:
    """Blind stopping parameters from the coherence and the target probability.

    omega solves P(omega) = p_min; omega_star = omega - rho. Returns the
    parameters plus a metadata dict (omega, ceiling, sparsity ceiling, the
    note that both blind algorithms share this omega, and a sensitivity note
    for the ceiling surrogate).
    """
    params = bounds.BoundParams(m=config.m, n=config.n, mu=mu, rho=config.rho)
    omega = bounds.omega_for_probability(config.p_min, params)
    omega_star = max(omega - config.rho, 0.0)
    meta = {
        "mu": mu,
        "omega": omega,
        "omega_star": omega_star,
        "stop_threshold": omega_star * mu,
        "probability_ceiling": bounds.probability_ceiling(params),
        "sparsity_ceiling": params.ceiling_c,
        "omega_shared_by_blind_algorithms": True,
        "sparsity_ceiling_note": (
            "omega depends on the sparsity ceiling only through its logarithm; "
            "doubling the ceiling moves omega by under 2 percent at these sizes"
        ),
    }
    return (
        BlindStopParams(
            omega_star=omega_star, mu=mu, max_iterations=config.max_blind_iterations
        ),
        meta,
    )


def _collect(
    d: MeasurementMatrix,
    config: ExperimentConfig,
    snr_db: float,
    runs: list[tuple[float, str, BlindStopParams | None]],
    threads: int,
) -> list[TrialOutcome]:
    """Every trial's outcomes for the runs at one SNR, in trial-index order.

    ``threads`` above 1 maps trials over a thread pool. On small matrices the
    pool is slower than serial: the interpreter lock is held between the many
    small BLAS calls of a trial.
    """

    def one_trial(t):
        return _trial_outcomes(d, config, t, snr_db, runs)

    if threads <= 1:
        chunks = [one_trial(t) for t in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_trial, range(config.trials)))
    return [o for chunk in chunks for o in chunk]


def aggregate(outcomes: list[TrialOutcome], trials: int) -> list[MetricsRow]:
    """One row per (grid, algorithm), accumulated in trial-index order."""
    groups: dict[tuple[float, str], list[TrialOutcome]] = {}
    for o in outcomes:
        groups.setdefault((o.grid, o.algorithm), []).append(o)
    rows = []
    for (grid, alg), group in sorted(groups.items()):
        group = sorted(group, key=lambda o: o.trial_index)
        n = len(group)
        rows.append(
            MetricsRow(
                grid=grid,
                algorithm=alg,
                prob_recovery=sum(o.success for o in group) / n,
                mse=sum(o.mse_contrib for o in group) / n,
                mean_iterations=sum(o.iterations for o in group) / n,
                trials=n,
                prob_exact_support=sum(o.exact_support for o in group) / n,
            )
        )
    assert all(r.trials == trials for r in rows)
    return rows


def sweep_snr(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[MetricsRow], list[TrialOutcome], dict]:
    """SNR sweep: one MetricsRow per (snr grid point, algorithm)."""
    config.validate()
    meta: dict = {"sweep": "snr", "config": config_to_dict(config)}
    needs_blind = any(a in ("bols", "bomp") for a in config.algorithms)
    fixed = config.matrix_policy == "fixed"
    outcomes = []
    for gi, snr_db in enumerate(config.snr_grid_db):
        if gi == 0 or not fixed:
            d = build_matrix(config, salt=0 if fixed else gi)
            blind, blind_meta = blind_params_for(config, d.coherence) if needs_blind else (None, {})
            if fixed:
                meta.update(blind_meta)
            else:
                meta.setdefault("per_point", []).append({"grid": snr_db, **blind_meta})
        runs = [(snr_db, alg, blind) for alg in config.algorithms]
        outcomes.extend(_collect(d, config, snr_db, runs, threads))
    return aggregate(outcomes, config.trials), outcomes, meta


def sweep_omega(
    config: ExperimentConfig, omega_grid, threads: int = 1
) -> tuple[list[MetricsRow], list[TrialOutcome], dict]:
    """Omega sweep at a fixed SNR: the blind threshold is omega * mu directly
    (no rho subtraction), so the grid axis is the raw threshold scale."""
    config.validate()
    if not omega_grid:
        raise ConfigError("omega grid must be nonempty")
    snr_db = config.snr_grid_db[0]
    d = build_matrix(config)
    mu = d.coherence
    meta = {
        "sweep": "omega",
        "snr_db": snr_db,
        "mu": mu,
        "config": config_to_dict(config),
    }
    runs = []
    for omega in omega_grid:
        blind = BlindStopParams(
            omega_star=omega, mu=mu, max_iterations=config.max_blind_iterations
        )
        for alg in config.algorithms:
            runs.append((omega, alg, blind if alg in ("bols", "bomp") else None))
    outcomes = _collect(d, config, snr_db, runs, threads)
    return aggregate(outcomes, config.trials), outcomes, meta


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.grid:.17g},{r.algorithm},{r.prob_recovery:.17g},"
            f"{r.mse:.17g},{r.mean_iterations:.17g},{r.trials}"
        )
    return "\n".join(lines) + "\n"


def outcomes_to_jsonl(
    outcomes: list[TrialOutcome], config: ExperimentConfig
) -> str:
    """Per-trial JSON-lines records for recovery results."""
    lines = []
    for o in sorted(outcomes, key=lambda o: (o.grid, o.algorithm, o.trial_index)):
        lines.append(
            json.dumps(
                {
                    "algorithm": o.algorithm,
                    "seed": config.base_seed,
                    "trial": o.trial_index,
                    "grid": o.grid,
                    "K": config.k,
                    "M": config.m,
                    "N": config.n,
                    "snr_db": o.snr_db,
                    "success": o.success,
                    "exact_support": o.exact_support,
                    "mse_contrib": o.mse_contrib,
                    "iterations": o.iterations,
                    "stop_reason": o.stop_reason,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# configuration files: line-oriented "key = value" with one section per figure

_LIST_FIELDS = {"snr_grid_db", "algorithms", "omega_grid"}
_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    if key in _LIST_FIELDS:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if key == "algorithms":
            return tuple(parts)
        return tuple(float(p) for p in parts)
    if key in ("m", "n", "k", "trials", "base_seed", "mols_subset", "cosamp_max_iterations"):
        return int(raw)
    if key == "max_blind_iterations":
        return None if raw.lower() in ("none", "") else int(raw)
    if key in ("family", "matrix_policy"):
        return raw
    return float(raw)


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    """Sections of raw key/value pairs; errors cite line numbers."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            current = body[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = body.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


def config_from_mapping(raw: dict[str, str], base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base if base is not None else ExperimentConfig()
    updates = {key: _coerce(key, value) for key, value in raw.items()}
    return replace(cfg, **updates).validate()


def load_config(path, section: str) -> ExperimentConfig:
    with open(path) as fh:
        sections = parse_config_text(fh.read())
    if section not in sections:
        raise ConfigError(f"section [{section}] not found in {path}; have {sorted(sections)}")
    return config_from_mapping(sections[section])


def apply_overrides(config: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    raw = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()
    return config_from_mapping(raw, base=config)


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for f in fields(ExperimentConfig):
        v = getattr(config, f.name)
        out[f.name] = list(v) if isinstance(v, tuple) else v
    return out
