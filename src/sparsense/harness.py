"""Monte Carlo experiment engine.

A sweep fixes one measurement matrix, calibrates per-trial noise to each SNR
grid point, runs every configured algorithm on identical (x, noise) pairs,
and aggregates recovery probability, MSE and mean iteration counts per
(grid point, algorithm). The unit of work is one trial across the whole
grid: at each SNR its x and y are synthesized once, each greedy selection
rule runs once on it, and every configured algorithm (at every omega, on
omega sweeps) reads its result from that run. Its paths share one step
cache and its solves one factor cache, since x and the noise direction are
the same at every SNR. Trials are independent work items; aggregation is
keyed by trial index so results are identical for any worker count.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import bounds
from .errors import ConfigError, InvalidParams, SparsenseError, ZeroSignal, read_text
from .linalg import _entries
from .matgen import MeasurementMatrix, check_shape, gen_gaussian_normalized, gen_hybrid_normalized
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
from .streams import TAG_NOISE, TAG_SPECTRUM, stream

CSV_HEADER = "grid,algorithm,prob_recovery,mse,mean_iterations,trials"
SNR_DB_MAX = 3082.5  # from about 3082.55 dB on, 10**(snr_db/10) overflows a double

# Every algorithm the sweeps and ``recover`` run: name -> (rule of the greedy
# path it cuts, or None; runner(d, y, config, blind, path, steps, factors)),
# the last two the trial's caches. Runners look the recovery functions up
# in this module at call time, so patching them here reaches every call.
REGISTRY = {
    "omp": ("omp", lambda d, y, c, blind, path, *_: run_omp_known_k(d, y, c.k, path=path)),
    "bomp": ("omp", lambda d, y, c, blind, path, *_: run_bomp(d, y, blind, path=path)),
    "ols": ("ols", lambda d, y, c, blind, path, *_: run_ols_known_k(d, y, c.k, path=path)),
    "bols": ("ols", lambda d, y, c, blind, path, *_: run_bols(d, y, blind, path=path)),
    "cosamp": (None, lambda d, y, c, blind, path, _, fs: run_cosamp(d, y, c.k, factors=fs)),
    "mols": (None, lambda d, y, c, blind, path, *cs: run_mols(d, y, c.k, c.mols_subset, *cs)),
}
ALGORITHMS = tuple(REGISTRY)
BLIND = ("bomp", "bols")  # stop on the blind statistic, so they need BlindStopParams
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
    success_tolerance: float = 0.05
    nonzero_mean: float = 1.0
    nonzero_var: float = 0.01
    mols_subset: int = 2
    omega_grid: tuple[float, ...] | None = None

    def validate(self) -> "ExperimentConfig":
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown matrix family {self.family!r}")
        try:
            check_shape(self.m, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must be nonempty")
        for key in _FLOAT_FIELDS:
            value = getattr(self, key)
            snr = key == "snr_grid_db"
            for v in value if isinstance(value, tuple) else () if value is None else (value,):
                if not (_valid_snr(v) if snr else math.isfinite(v)):
                    hint = f", below {SNR_DB_MAX} dB, or +inf" if snr else ""
                    raise ConfigError(f"config key {key!r} must be finite{hint}, got {v!r}")
        if not self.success_tolerance > 0:
            raise ConfigError(f"success_tolerance must be > 0, got {self.success_tolerance}")
        if self.k < 0 or self.k > self.n:
            raise ConfigError(f"k must be in [0, N], got {self.k}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {alg!r}; known: {ALGORITHMS}")
        if "mols" in self.algorithms and (
            self.mols_subset < 1 or self.mols_subset * math.ceil(self.k / self.mols_subset) > self.m
        ):
            raise ConfigError(f"mols_subset {self.mols_subset} must be >= 1 and select at most "
                              f"m={self.m} atoms for k={self.k}")
        return self


@dataclass
class MetricsRow:
    grid: float
    algorithm: str
    prob_recovery: float
    mse: float
    mean_iterations: float
    trials: int
    prob_exact_support: float = 0.0  # aggregated, but not written to the CSV, JSONL or summary


@dataclass
class TrialOutcome:
    algorithm: str
    grid: float          # sweep axis value: the SNR, or omega on omega sweeps
    snr_db: float
    trial_index: int
    success: bool
    exact_support: bool
    mse_contrib: float
    iterations: int
    stop_reason: str


def gen_sparse_spectrum(n: int, k: int, mean: float, var: float, rng) -> SparseSpectrum:
    """K-sparse vector: uniform random support, nonzeros i.i.d. N(mean, var)."""
    if not 0 <= k <= n:
        raise InvalidParams(f"k={k} must be in [0, n={n}]")
    if var < 0:
        raise InvalidParams(f"variance must be >= 0, got {var}")
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    support = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    if k:
        x[support] = mean + math.sqrt(var) * rng.standard_normal(k)
    return SparseSpectrum(x=x, support=support, k=k)


def _valid_snr(snr_db: float) -> bool:  # +inf is the noiseless point
    return snr_db == math.inf or -math.inf < snr_db < SNR_DB_MAX


def calibrate_noise(d, x, snr_db: float, rng) -> tuple[np.ndarray, float]:
    """Measurement y = Dx + noise with the noise level set so the realized
    signal energy over M sigma^2 equals the requested SNR. ``snr_db=inf``
    returns the noiseless measurement. NaN, -inf, an SNR from SNR_DB_MAX up and
    one so far below 0 dB that the energy of y overflows raise InvalidParams."""
    if not _valid_snr(snr_db):
        raise InvalidParams(f"snr_db must be +inf or below {SNR_DB_MAX} dB, got {snr_db}")
    e = _entries(d)
    x = np.asarray(x, dtype=np.float64)
    signal = e @ x
    if math.isinf(snr_db) and snr_db > 0:
        return signal, 0.0
    energy = float(signal @ signal)
    if energy == 0.0:
        raise ZeroSignal("cannot set a finite SNR for a zero signal")
    power = e.shape[0] * 10.0 ** (snr_db / 10.0)  # 0.0 once 10**(snr_db/10) underflows
    sigma = math.sqrt(energy / power) if power > 0.0 else math.inf
    rng = np.random.default_rng(rng) if isinstance(rng, int) else rng
    y = signal + sigma * rng.standard_normal(e.shape[0])
    with np.errstate(over="ignore"):  # an energy that overflows is refused, not warned about
        measured = float(y @ y)
    if not math.isfinite(measured):
        raise InvalidParams(f"snr_db={snr_db} makes the measurement's energy overflow")
    return y, sigma


def component_snr(d, x, sigma: float, q: int) -> float:
    """Per-component SNR ||x_q d_q||^2 / (M sigma^2)."""
    e = _entries(d)
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


def _run_algorithm(
    alg: str, d: MeasurementMatrix, y: np.ndarray, config: ExperimentConfig,
    blind: BlindStopParams | None, paths: dict[str, GreedyPath], steps: dict | None = None,
    factors: dict | None = None,
) -> RecoveryResult:
    """One algorithm on y; the greedy ones cut the trial's path of their rule,
    which ``paths`` holds once any algorithm has asked for it. All of them,
    MOLS's path included, share the trial's caches ``steps`` and ``factors``."""
    if alg in BLIND and blind is None:
        raise InvalidParams(f"algorithm {alg} needs blind stopping parameters")
    if alg not in REGISTRY:
        raise InvalidParams(f"unknown algorithm {alg!r}")
    rule, runner = REGISTRY[alg]
    if rule is not None and rule not in paths:
        paths[rule] = GreedyPath(d, y, rule, steps, factors)
    return runner(d, y, config, blind, paths.get(rule), steps, factors)


def _synthesize(
    d: MeasurementMatrix, config: ExperimentConfig, trial_index: int, snr_db: float
) -> tuple[SparseSpectrum, np.ndarray]:
    """Trial ``trial_index``'s spectrum and its measurement at ``snr_db``.

    Spectrum and noise streams are keyed by (base_seed, role, trial_index)
    only, so every algorithm and grid value of the trial sees the same draw.
    """
    spec = gen_sparse_spectrum(
        config.n, config.k, config.nonzero_mean, config.nonzero_var,
        stream(config.base_seed, TAG_SPECTRUM, trial_index),
    )
    y, _sigma = calibrate_noise(
        d, spec.x, snr_db, stream(config.base_seed, TAG_NOISE, trial_index)
    )
    return spec, y


def _trial_outcomes(
    d: MeasurementMatrix,
    config: ExperimentConfig,
    trial_index: int,
    snr_db: float,
    runs: list[tuple[float, str, BlindStopParams | None]],
    steps: dict | None = None,
    factors: dict | None = None,
) -> list[TrialOutcome]:
    """Outcomes of one trial for each (grid value, algorithm, blind parameters).

    x and y are synthesized once and every run sees the same draw; runs
    sharing a selection rule read their results from one greedy path.
    """
    spec, y = _synthesize(d, config, trial_index, snr_db)
    xnorm = float(np.linalg.norm(spec.x))
    paths: dict[str, GreedyPath] = {}
    outcomes = []
    for grid_value, alg, blind in runs:
        try:
            result = _run_algorithm(alg, d, y, config, blind, paths, steps, factors)
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
            iterations=iterations,
            stop_reason=stop_reason,
        ))
    return outcomes


def build_matrix(config: ExperimentConfig) -> MeasurementMatrix:
    """The sweep's matrix; a shape, seed or offset out of range is a ConfigError, and
    a matrix larger than physical memory InvalidParams."""
    try:
        if config.family == "gaussian":
            return gen_gaussian_normalized(config.m, config.n, config.base_seed)
        return gen_hybrid_normalized(
            config.m, config.n, config.base_seed, offset_max=config.offset_max
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def blind_params_for(config: ExperimentConfig, mu: float,
                     omega_star: float | None = None) -> tuple[BlindStopParams, dict]:
    """Blind stopping parameters from the coherence and the target probability.

    omega solves P(omega) = p_min; omega_star = omega - rho. Returns the
    parameters plus a metadata dict (mu, omega_star, the stop threshold and,
    from the inversion, omega, ceiling, sparsity ceiling, the note that both
    blind algorithms share this omega, and a sensitivity note for the ceiling
    surrogate). An explicit ``omega_star`` skips the inversion.
    """
    meta: dict = {"mu": mu}
    if omega_star is None:
        params = bounds.BoundParams(m=config.m, n=config.n, mu=mu, rho=config.rho)
        omega = bounds.omega_for_probability(config.p_min, params)
        omega_star = max(omega - config.rho, 0.0)
        meta.update({
            "omega": omega,
            "probability_ceiling": bounds.probability_ceiling(params),
            "sparsity_ceiling": params.ceiling_c,
            "omega_shared_by_blind_algorithms": True,
            "sparsity_ceiling_note": (
                "omega depends on the sparsity ceiling only through its logarithm; "
                "doubling the ceiling moves omega by under 2 percent at these sizes"
            ),
        })
    blind = BlindStopParams(omega_star=omega_star, mu=mu)
    meta.update(omega_star=omega_star, stop_threshold=blind.threshold)
    return blind, meta


def _collect(
    d: MeasurementMatrix,
    config: ExperimentConfig,
    points: list[tuple[float, list[tuple[float, str, BlindStopParams | None]]]],
    threads: int,
) -> list[TrialOutcome]:
    """Every trial's outcomes at each (SNR, runs) point, in trial-index order;
    a trial runs every point with its step and factor caches, dropped when it ends.

    ``threads`` above 1 maps trials over a thread pool, one trial per task.
    On small matrices the pool is slower than serial: the interpreter lock is
    held between the many small BLAS calls of a trial.
    """

    def one_trial(t):
        steps, factors = {}, {}
        return [o for snr_db, runs in points
                for o in _trial_outcomes(d, config, t, snr_db, runs, steps, factors)]

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


def sweep(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[MetricsRow], list[TrialOutcome], dict]:
    """One MetricsRow per (grid point, algorithm). A nonempty ``omega_grid``
    is swept at the first SNR with the blind threshold omega * mu directly (no
    rho subtraction), so the grid axis is the raw threshold scale; otherwise
    the grid is ``snr_grid_db``, at the threshold ``blind_params_for`` calibrates."""
    config.validate()
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    d = build_matrix(config)
    meta: dict = {"sweep": "snr", "config": config_to_dict(config)}
    if config.omega_grid:
        snr_db = config.snr_grid_db[0]
        meta.update(sweep="omega", snr_db=_json_grid(snr_db), mu=d.coherence)
        runs = []
        for omega in config.omega_grid:
            blind, _ = blind_params_for(config, meta["mu"], omega)
            runs += [(omega, alg, blind if alg in BLIND else None) for alg in config.algorithms]
        points = [(snr_db, runs)]
    else:
        blind = None
        if any(a in BLIND for a in config.algorithms):
            blind, blind_meta = blind_params_for(config, d.coherence)
            meta.update(blind_meta)
        points = [(snr_db, [(snr_db, alg, blind) for alg in config.algorithms])
                  for snr_db in config.snr_grid_db]
    outcomes = _collect(d, config, points, threads)
    return aggregate(outcomes, config.trials), outcomes, meta


def rows_to_csv(rows: list[MetricsRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.grid:.17g},{r.algorithm},{r.prob_recovery:.17g},"
            f"{r.mse:.17g},{r.mean_iterations:.17g},{r.trials}"
        )
    return "\n".join(lines) + "\n"


def _json_grid(value):
    """A grid value for JSON output: the noiseless point +inf, which JSON
    cannot hold, as the string "inf" that the CSV also writes."""
    return "inf" if value == math.inf else value


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
                    "grid": _json_grid(o.grid),
                    "K": config.k,
                    "M": config.m,
                    "N": config.n,
                    "snr_db": _json_grid(o.snr_db),
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
# configuration files: line-oriented "key = value" with one section per sweep

_LIST_FIELDS = {"snr_grid_db", "algorithms", "omega_grid"}
_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_INT_FIELDS = {name for name, f in _CONFIG_FIELDS.items() if f.type is int}
_FLOAT_FIELDS = tuple(name for name, f in _CONFIG_FIELDS.items()
                      if f.type in (float, tuple[float, ...], tuple[float, ...] | None))


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key not in _CONFIG_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    if key == "family":
        return raw
    if key == "algorithms":
        return tuple(p.strip() for p in raw.split(",") if p.strip())
    kind = int if key in _INT_FIELDS else float
    try:
        if key in _LIST_FIELDS:
            return tuple(kind(p) for p in raw.split(",") if p.strip())
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot read {raw!r} as {kind.__name__}") from None


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
    sections = parse_config_text(read_text(path, ConfigError))
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
        out[f.name] = [_json_grid(x) for x in v] if isinstance(v, tuple) else v
    return out
