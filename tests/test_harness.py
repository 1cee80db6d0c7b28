import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import run_trial
from sparsense.errors import ConfigError, InvalidParams, ZeroSignal
from sparsense.harness import (
    CSV_HEADER,
    ExperimentConfig,
    apply_overrides,
    blind_params_for,
    build_matrix,
    calibrate_noise,
    component_snr,
    config_from_mapping,
    gen_sparse_spectrum,
    min_component_snr,
    outcomes_to_jsonl,
    parse_config_text,
    rows_to_csv,
    sweep,
)
from sparsense.matgen import gen_gaussian_normalized
from sparsense.presets import figure_preset
from sparsense.recovery import BlindStopParams, run_ols_known_k
from sparsense.streams import TAG_NOISE, TAG_SPECTRUM, stream


def small_config(**kw):
    base = dict(
        family="gaussian", m=64, n=128, k=3, snr_grid_db=(20.0,),
        algorithms=("bols", "ols"), trials=8, base_seed=101, p_min=0.15,
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()


# ------------------------------------------------------------------------ spectrum

def test_spectrum_zero_k():
    spec = gen_sparse_spectrum(16, 0, 1.0, 0.01, 0)
    assert not spec.x.any() and spec.support == [] and spec.k == 0


def test_spectrum_support_and_value_range():
    spec = gen_sparse_spectrum(2048, 4, 1.0, 0.01, 5)
    assert len(spec.support) == 4 == len(set(spec.support))
    nz = spec.x[spec.support]
    assert np.all((nz >= 0.6) & (nz <= 1.4))  # within 4 sigma of the mean
    assert np.count_nonzero(spec.x) == 4


def test_spectrum_empirical_mean():
    spec = gen_sparse_spectrum(200_000, 100_000, 1.0, 0.01, 9)
    mean = float(spec.x[spec.support].mean())
    assert abs(mean - 1.0) <= 0.01


def test_spectrum_rejects_oversized_k():
    with pytest.raises(Exception):
        gen_sparse_spectrum(4, 5, 1.0, 0.01, 0)


def test_synthesis_seeds_are_checked_and_numpy_integers_draw_like_ints():
    d = gen_gaussian_normalized(16, 32, seed=0)
    x = gen_sparse_spectrum(32, 3, 1.0, 0.01, 5).x
    assert np.array_equal(gen_sparse_spectrum(32, 3, 1.0, 0.01, np.int64(5)).x, x)
    assert np.array_equal(calibrate_noise(d, x, 10.0, np.uint64(7))[0],
                          calibrate_noise(d, x, 10.0, 7)[0])
    # an integer seed draws trial 0's Philox stream of that seed, as a sweep does
    assert np.array_equal(gen_sparse_spectrum(32, 3, 1.0, 0.01, 7).x,
                          gen_sparse_spectrum(32, 3, 1.0, 0.01, stream(7, TAG_SPECTRUM, 0)).x)
    assert np.array_equal(calibrate_noise(d, x, 10.0, 7)[0],
                          calibrate_noise(d, x, 10.0, stream(7, TAG_NOISE, 0))[0])
    for seed in (None, -1):
        with pytest.raises(ValueError, match=f"seed must be .*got {seed}"):
            gen_sparse_spectrum(32, 3, 1.0, 0.01, seed)
        with pytest.raises(ValueError, match=f"seed must be .*got {seed}"):
            calibrate_noise(d, x, 10.0, seed)


# ------------------------------------------------------------------------- noise

def test_calibrate_infinite_snr():
    d = gen_gaussian_normalized(16, 32, seed=0)
    spec = gen_sparse_spectrum(32, 2, 1.0, 0.01, 1)
    y, sigma = calibrate_noise(d, spec.x, float("inf"), 2)
    assert sigma == 0.0
    assert np.array_equal(y, d.entries @ spec.x)


def test_calibrate_realized_snr_is_exact():
    d = gen_gaussian_normalized(16, 32, seed=0)
    spec = gen_sparse_spectrum(32, 2, 1.0, 0.01, 1)
    for snr_db in (0.0, 10.0, 23.5):
        _, sigma = calibrate_noise(d, spec.x, snr_db, 2)
        signal = d.entries @ spec.x
        realized = float(signal @ signal) / (16 * sigma * sigma)
        assert realized == pytest.approx(10 ** (snr_db / 10), rel=1e-12)


def test_calibrate_noise_energy_monte_carlo():
    # with sigma pinned to 0.1 on M=256, the mean noise energy tends to 2.56
    d = gen_gaussian_normalized(256, 300, seed=1)
    spec = gen_sparse_spectrum(300, 3, 1.0, 0.01, 3)
    signal = d.entries @ spec.x
    energy = float(signal @ signal)
    snr_db = 10 * math.log10(energy / (256 * 0.01))
    total = 0.0
    draws = 10_000
    for t in range(draws):
        y, sigma = calibrate_noise(d, spec.x, snr_db, stream(7, TAG_NOISE, t))
        assert sigma == pytest.approx(0.1, rel=1e-12)
        noise = y - signal
        total += float(noise @ noise)
    assert total / draws == pytest.approx(2.56, rel=0.03)


@pytest.mark.parametrize("snr_db", [float("nan"), float("-inf")])
def test_calibrate_rejects_nan_and_minus_infinite_snr(snr_db):
    d = gen_gaussian_normalized(16, 32, seed=0)
    spec = gen_sparse_spectrum(32, 2, 1.0, 0.01, 1)
    with pytest.raises(InvalidParams, match="snr_db"):
        calibrate_noise(d, spec.x, snr_db, 2)


def test_calibrate_zero_signal():
    d = gen_gaussian_normalized(16, 32, seed=0)
    with pytest.raises(ZeroSignal):
        calibrate_noise(d, np.zeros(32), 10.0, 2)


def test_component_snr_accessors():
    d = gen_gaussian_normalized(16, 32, seed=0)
    x = np.zeros(32)
    x[4], x[9] = 2.0, 0.5
    sigma = 0.1
    assert component_snr(d, x, sigma, 4) == pytest.approx(4.0 / (16 * 0.01), rel=1e-9)
    assert min_component_snr(d, x, sigma) == pytest.approx(0.25 / (16 * 0.01), rel=1e-9)
    assert min_component_snr(d, x, 0.0) == math.inf
    assert min_component_snr(d, np.zeros(32), sigma) == 0.0


# ------------------------------------------------------------------------- trials

def test_trial_noiseless_success():
    cfg = small_config(snr_grid_db=(float("inf"),))
    d = gen_gaussian_normalized(cfg.m, cfg.n, seed=cfg.base_seed)
    out = run_trial(d, cfg, 0, "ols", float("inf"), None)
    assert out.success and out.mse_contrib <= 1e-16 and out.exact_support


def test_trial_streams_are_algorithm_independent():
    # reconstruct the trial inputs from the documented streams and reproduce
    # the recorded outcome exactly
    cfg = small_config()
    d = gen_gaussian_normalized(cfg.m, cfg.n, seed=cfg.base_seed)
    trial = 5
    out = run_trial(d, cfg, trial, "ols", 20.0, None)
    spec = gen_sparse_spectrum(
        cfg.n, cfg.k, cfg.nonzero_mean, cfg.nonzero_var,
        stream(cfg.base_seed, TAG_SPECTRUM, trial),
    )
    y, _ = calibrate_noise(d, spec.x, 20.0, stream(cfg.base_seed, TAG_NOISE, trial))
    res = run_ols_known_k(d, y, cfg.k)
    err = float(np.linalg.norm(res.x_hat - spec.x))
    assert out.mse_contrib == pytest.approx(err * err / cfg.n, rel=1e-12)
    # a second algorithm sees the same trial inputs: same relative scale
    out2 = run_trial(d, cfg, trial, "omp", 20.0, None)
    assert out2.trial_index == out.trial_index


def test_trial_repeatable():
    cfg = small_config()
    d = gen_gaussian_normalized(cfg.m, cfg.n, seed=cfg.base_seed)
    a = run_trial(d, cfg, 3, "ols", 15.0, None)
    b = run_trial(d, cfg, 3, "ols", 15.0, None)
    assert a == b


# -------------------------------------------------------------------------- sweeps

def test_sweep_single_point_single_trial():
    cfg = small_config(trials=1, algorithms=("ols",))
    rows, outcomes, _ = sweep(cfg, threads=1)
    assert len(rows) == 1
    assert rows[0].prob_recovery in (0.0, 1.0)
    assert rows[0].trials == 1
    assert len(outcomes) == 1


def test_sweep_rows_sorted_and_counted():
    cfg = small_config(snr_grid_db=(10.0, 0.0, 20.0), algorithms=("ols", "bols"))
    rows, outcomes, meta = sweep(cfg, threads=2)
    keys = [(r.grid, r.algorithm) for r in rows]
    assert keys == sorted(keys)
    assert len(rows) == 6
    assert all(r.trials == cfg.trials for r in rows)
    assert meta["omega"] > 0 and meta["omega_star"] >= 0
    assert len(outcomes) == 6 * cfg.trials


def test_sweep_thread_count_does_not_change_output():
    cfg = small_config(snr_grid_db=(5.0, 15.0))
    r1, o1, _ = sweep(cfg, threads=1)
    r3, o3, _ = sweep(cfg, threads=3)
    assert rows_to_csv(r1) == rows_to_csv(r3)
    assert outcomes_to_jsonl(o1, cfg) == outcomes_to_jsonl(o3, cfg)


def test_thread_count_is_checked_before_the_matrix_is_built(monkeypatch):
    def refuse(config):
        raise AssertionError("built a matrix for a sweep it then refuses")

    monkeypatch.setattr("sparsense.harness.build_matrix", refuse)
    for threads in (0, -3):
        with pytest.raises(ConfigError, match="threads"):
            sweep(small_config(), threads=threads)
        with pytest.raises(ConfigError, match="threads"):
            sweep(replace(small_config(), omega_grid=(1.0, 1.5)), threads=threads)


def test_jsonl_recount_matches_rows():
    cfg = small_config(snr_grid_db=(5.0, 25.0))
    rows, outcomes, _ = sweep(cfg, threads=2)
    recount: dict[tuple, list] = {}
    for line in outcomes_to_jsonl(outcomes, cfg).strip().splitlines():
        rec = json.loads(line)
        recount.setdefault((rec["grid"], rec["algorithm"]), []).append(rec["success"])
    for row in rows:
        hits = recount[(row.grid, row.algorithm)]
        assert row.prob_recovery == sum(hits) / len(hits)


def test_jsonl_record_fields():
    cfg = small_config(trials=2, algorithms=("ols",))
    _, outcomes, _ = sweep(cfg, threads=1)
    rec = json.loads(outcomes_to_jsonl(outcomes, cfg).splitlines()[0])
    for key in ("algorithm", "seed", "K", "M", "N", "snr_db", "success",
                "mse_contrib", "iterations", "stop_reason", "exact_support"):
        assert key in rec


def test_csv_header_and_shape():
    cfg = small_config(trials=2, algorithms=("ols",))
    rows, _, _ = sweep(cfg, threads=1)
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER == "grid,algorithm,prob_recovery,mse,mean_iterations,trials"
    assert len(lines) == 1 + len(rows)


def test_sweep_omega_uses_raw_threshold():
    cfg = small_config(snr_grid_db=(25.0,), algorithms=("bols",), trials=4)
    rows, _, meta = sweep(replace(cfg, omega_grid=(0.25, 2.0)), threads=1)
    assert [r.grid for r in rows] == [0.25, 2.0]
    assert meta["sweep"] == "omega" and meta["snr_db"] == 25.0
    assert meta["config"]["omega_grid"] == [0.25, 2.0]


def test_snr_sweep_without_a_blind_algorithm_never_computes_the_coherence(monkeypatch):
    from sparsense import matgen

    def refuse(entries):
        raise AssertionError("computed the coherence for a sweep with no blind algorithm")

    monkeypatch.setattr(matgen, "_coherence_of", refuse)
    rows, _, meta = sweep(small_config(trials=2, algorithms=("ols", "cosamp", "mols")), threads=1)
    assert len(rows) == 3 and "mu" not in meta


@pytest.mark.parametrize("w", [0.0, 0.8, 1.3])
def test_blind_params_for_an_explicit_omega_star_skips_the_inversion(monkeypatch, w):
    from sparsense import bounds

    def no_inversion(*args):
        raise AssertionError("an explicit omega_star must not invert P(omega)")

    monkeypatch.setattr(bounds, "omega_for_probability", no_inversion)
    blind, meta = blind_params_for(small_config(), 0.3, omega_star=w)
    assert blind == BlindStopParams(w, 0.3)
    assert blind.threshold == w * 0.3 == meta["stop_threshold"]
    assert meta == {"mu": 0.3, "omega_star": w, "stop_threshold": w * 0.3}
    cfg = small_config(trials=2, snr_grid_db=(25.0,))
    rows, _, _ = sweep(replace(cfg, omega_grid=(w,)), threads=1)
    assert [r.grid for r in rows] == [w, w]


def test_blind_params_for_refuses_a_negative_omega_star():
    with pytest.raises(InvalidParams):
        blind_params_for(small_config(), 0.3, omega_star=-0.1)


def test_mse_vanishes_at_infinite_snr():
    cfg = small_config(snr_grid_db=(float("inf"),), algorithms=("ols", "omp"), trials=6)
    rows, _, _ = sweep(cfg, threads=1)
    for row in rows:
        assert row.mse <= 1e-12


def test_omega_sweep_at_the_noiseless_point_writes_inf_as_a_string():
    cfg = small_config(snr_grid_db=(math.inf,), algorithms=("bols",), trials=2)
    _, outcomes, meta = sweep(replace(cfg, omega_grid=(1.0, 2.0)), threads=1)
    assert meta["snr_db"] == "inf" and meta["config"]["snr_grid_db"] == ["inf"]

    def refuse(token):
        raise ValueError(token)

    for line in outcomes_to_jsonl(outcomes, cfg).splitlines():
        rec = json.loads(line, parse_constant=refuse)
        assert rec["snr_db"] == "inf" and rec["grid"] in (1.0, 2.0)


# ------------------------------------------------------------------------- config

CONFIG_TEXT = """
# comment line
[fig_small]
family = gaussian
m = 64
n = 128
k = 3
snr_grid_db = 0, 10, 20
algorithms = bols, ols
trials = 4
base_seed = 7
p_min = 0.15   # inline comment
rho = 0.175
"""


def test_config_parse_and_build():
    sections = parse_config_text(CONFIG_TEXT)
    assert list(sections) == ["fig_small"]
    cfg = config_from_mapping(sections["fig_small"])
    assert cfg.m == 64 and cfg.n == 128 and cfg.trials == 4
    assert cfg.snr_grid_db == (0.0, 10.0, 20.0)
    assert cfg.algorithms == ("bols", "ols")
    assert cfg.p_min == 0.15


def test_config_errors():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("[a]\nnot a pair\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("k = 3\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_mapping({"bogus": "1"})
    with pytest.raises(ConfigError, match="trials"):
        small_config(trials=0)
    with pytest.raises(ConfigError, match="algorithm"):
        small_config(algorithms=("nope",))
    with pytest.raises(ConfigError, match="family"):
        small_config(family="dense")


@pytest.mark.parametrize("key, raw", [
    ("trials", "abc"), ("snr_grid_db", "1,x"), ("p_min", "high"),
    ("mols_subset", "3.5"), ("omega_grid", "1.0, ,two"),
])
def test_config_values_that_are_not_numbers_name_their_key(key, raw):
    with pytest.raises(ConfigError, match=f"{key}.*{raw}"):
        config_from_mapping({key: raw})
    text = CONFIG_TEXT + f"{key} = {raw}\n"
    with pytest.raises(ConfigError, match=key):
        config_from_mapping(parse_config_text(text)["fig_small"])


def test_validate_rejects_mols_parameters_every_trial_would_refuse():
    with pytest.raises(ConfigError, match="mols_subset"):
        small_config(algorithms=("mols",), mols_subset=0)
    with pytest.raises(ConfigError, match="mols_subset"):
        small_config(algorithms=("ols", "mols"), k=60, mols_subset=33)  # 66 > 64 rows
    small_config(algorithms=("mols",), k=60, mols_subset=30)  # 60 atoms fit in 64 rows
    small_config(algorithms=("ols",), mols_subset=0)  # not configured, not checked


FLOAT_KEYS = ("offset_max", "snr_grid_db", "p_min", "rho", "success_tolerance",
              "nonzero_mean", "nonzero_var", "omega_grid")


@pytest.mark.parametrize("key, raw", [
    (key, raw) for key in FLOAT_KEYS for raw in ("nan", "inf", "-inf")
    if (key, raw) != ("snr_grid_db", "inf")  # the noiseless grid point
])
def test_validate_rejects_non_finite_floats_naming_the_key(key, raw):
    value = (float(raw),) if key in ("snr_grid_db", "omega_grid") else float(raw)
    with pytest.raises(ConfigError, match=f"'{key}' must be finite.*{raw}"):
        small_config(**{key: value})
    with pytest.raises(ConfigError, match=f"'{key}'"):
        config_from_mapping({key: f"1, {raw}" if isinstance(value, tuple) else raw})


@pytest.mark.parametrize("key, value", [
    ("snr_grid_db", (10.0, 10.0)), ("snr_grid_db", (0.0, -0.0)),
    ("algorithms", ("bols", "ols", "bols")), ("omega_grid", (1.0, 1.3, 1.0)),
])
def test_validate_refuses_a_repeated_grid_value_or_algorithm(key, value):
    with pytest.raises(ConfigError, match=f"'{key}' repeats"):
        small_config(**{key: value})


def test_validate_keeps_the_noiseless_grid_point():
    assert small_config(snr_grid_db=(10.0, math.inf)).snr_grid_db == (10.0, math.inf)


@pytest.mark.parametrize("kw", [
    dict(m=600, n=512), dict(m=0), dict(family="hybrid", offset_max=-1.0), dict(base_seed=-1),
    dict(family="hybrid", offset_max=math.nan), dict(family="hybrid", offset_max=math.inf),
])
def test_build_matrix_turns_out_of_range_values_into_config_errors(kw):
    with pytest.raises(ConfigError):
        build_matrix(replace(small_config(), **kw))


def test_a_trial_error_that_overflows_is_refused_without_a_warning():
    config = replace(figure_preset("fig5")[0][1], trials=3, snr_grid_db=(-3055.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning fails the test
        with pytest.raises(InvalidParams, match="snr_db=-3055.0 .*cosamp"):
            sweep(config)


def test_overrides():
    cfg = small_config()
    cfg2 = apply_overrides(cfg, ["trials=11", "snr_grid_db=1,2", "p_min=0.2"])
    assert cfg2.trials == 11 and cfg2.snr_grid_db == (1.0, 2.0) and cfg2.p_min == 0.2
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["notapair"])


# ------------------------------------------------------- omega plateau (fig 4 shape)

def test_omega_sweep_plateau_at_reference_scale():
    # the blind rule is insensitive to omega across [1.3, 2.4] on the
    # low-coherence 1024 x 2048 matrix at 20 dB
    cfg = ExperimentConfig(
        family="gaussian", m=1024, n=2048, k=4, snr_grid_db=(20.0,),
        algorithms=("bols",), trials=60, base_seed=410,
    ).validate()
    grid = (1.3, 1.6, 2.0, 2.4)
    rows, _, _ = sweep(replace(cfg, omega_grid=grid), threads=2)
    values = {r.grid: r.prob_recovery for r in rows}
    interior = np.mean([values[g] for g in grid])
    for g in grid:
        assert abs(values[g] - interior) <= 0.05
