"""The benchmark's own tests: each check passes on the program's real output
and fails on a planted wrong one. Run with ``python3 -m pytest bench``."""

import copy
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
from sparsense import cli, harness, matgen, recovery
from workloads import window_record

SMALL = """
[snr]
family = hybrid
m = 128
n = 256
k = 4
snr_grid_db = 40, 60
algorithms = ols, omp, bols, mols
trials = 3
base_seed = 5
p_min = 0.6     # the probability ceiling at M=128 is about 0.70

[omega]
family = gaussian
m = 96
n = 192
k = 3
snr_grid_db = 20
algorithms = bols, ols
trials = 3
base_seed = 6
omega_grid = 0.6, 1.0, 1.4, 1.8
"""


def _sweep(tmp_path, section):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL)
    out = tmp_path / section
    assert cli.main(["experiment", "--figure", "custom", "--config", str(cfg_path),
                     "--section", section, "--threads", "1", "--out", str(out)]) == 0
    rows, records, summary = checks.read_sweep(out, section)
    config = harness.load_config(cfg_path, section)
    return rows, records, summary, config


@pytest.fixture(scope="module")
def snr_sweep(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("snr"), "snr")


@pytest.fixture(scope="module")
def omega_sweep(tmp_path_factory):
    return _sweep(tmp_path_factory.mktemp("omega"), "omega")


def test_coherence_check(snr_sweep):
    _, _, summary, config = snr_sweep
    e = harness.build_matrix(config).entries
    assert checks.check_coherence(summary["mu"], e) == []
    assert checks.check_coherence(summary["mu"] * (1 + 1e-9), e)


def test_csv_check_passes_on_real_output(snr_sweep):
    rows, records, _, _ = snr_sweep
    assert checks.check_csv_matches_jsonl(rows, records) == []


def test_csv_row_that_disagrees_with_its_jsonl_fails(snr_sweep):
    rows, records, _, _ = snr_sweep
    bad = copy.deepcopy(rows)
    bad[0]["mse"] = repr(float(bad[0]["mse"]) * 1.001)
    assert checks.check_csv_matches_jsonl(bad, records)
    bad = copy.deepcopy(rows)
    bad[1]["mean_iterations"] = "nan"
    assert checks.check_csv_matches_jsonl(bad, records)


def test_known_k_stops(snr_sweep):
    _, records, _, config = snr_sweep
    assert checks.check_known_k_stops(records, config.mols_subset) == []
    bad = copy.deepcopy(records)
    next(r for r in bad if r["algorithm"] == "mols")["iterations"] += 1
    assert checks.check_known_k_stops(bad, config.mols_subset)


def test_reference_flags(snr_sweep):
    _, records, _, config = snr_sweep
    e = harness.build_matrix(config).entries
    sample = [r for r in records if r["algorithm"] in ("ols", "omp")]
    problems, compared, _ = checks.check_reference_flags(
        e, sample, config.nonzero_mean, config.nonzero_var, config.success_tolerance)
    assert problems == [] and compared > 0
    flipped = copy.deepcopy(sample)
    flipped[0]["exact_support"] = not flipped[0]["exact_support"]
    assert checks.check_reference_flags(
        e, flipped, config.nonzero_mean, config.nonzero_var, config.success_tolerance)[0]


def test_omega_checks_pass_on_real_output(omega_sweep):
    rows, records, _, _ = omega_sweep
    assert checks.check_omega_sweep(records) == []
    assert checks.check_csv_matches_jsonl(rows, records) == []


def test_bols_iterations_rising_with_omega_fail(omega_sweep):
    _, records, _, _ = omega_sweep
    bad = copy.deepcopy(records)
    bols = sorted((r for r in bad if r["algorithm"] == "bols" and r["trial"] == 0), key=lambda r: r["grid"])
    bols[-1]["iterations"] = bols[0]["iterations"] + 1
    assert checks.check_omega_sweep(bad)


def test_ols_differing_across_omega_fails(omega_sweep):
    _, records, _, _ = omega_sweep
    bad = copy.deepcopy(records)
    next(r for r in bad if r["algorithm"] == "ols")["mse_contrib"] += 1e-12
    assert checks.check_omega_sweep(bad)


@pytest.fixture(scope="module")
def window():
    d = matgen.gen_gaussian_normalized(128, 256, 3)
    rng = np.random.default_rng(0)
    x = np.zeros(256)
    x[[5, 77, 140]] = [1.0, 1.1, 0.9]
    y = d.entries @ x + 0.01 * rng.standard_normal(128)
    params, _ = harness.blind_params_for(
        harness.ExperimentConfig(family="gaussian", m=128, n=256, p_min=0.6, rho=0.175), d.coherence)
    res = recovery.run_bols(d, y, params)
    return d.entries, y, window_record(0, res), params.omega_star * params.mu


def test_window_checks_pass_on_real_output(window):
    e, y, rec, threshold = window
    assert rec["stop_reason"] == "BlindThresholdMet"
    assert checks.check_window(e, y, rec, threshold) == []
    problems, compared = checks.check_prefix(e, y, rec)
    assert problems == [] and compared


def test_x_hat_perturbed_on_one_coordinate_fails(window):
    e, y, rec, threshold = window
    bad = copy.deepcopy(rec)
    bad["vals"][0] += 1e-6
    assert checks.check_window(e, y, bad, threshold)
    bad = copy.deepcopy(rec)
    off = next(j for j in range(e.shape[1]) if j not in rec["support"])
    bad["nz"].append(off)
    bad["vals"].append(1e-6)
    assert checks.check_window(e, y, bad, threshold)


def test_extra_support_atom_fails(window):
    e, y, rec, threshold = window
    bad = copy.deepcopy(rec)
    bad["support"].append(next(j for j in range(e.shape[1]) if j not in rec["support"]))
    assert checks.check_window(e, y, bad, threshold)
    bad["iterations"] += 1
    bad["history"].append(bad["history"][-1])
    assert checks.check_window(e, y, bad, threshold) or checks.check_prefix(e, y, bad)[0]


def test_rising_history_and_late_blind_stop_fail(window):
    e, y, rec, threshold = window
    bad = copy.deepcopy(rec)
    bad["history"][-1] = bad["history"][-2] * 1.01
    assert checks.check_window(e, y, bad, threshold)
    assert checks.check_window(e, y, rec, threshold * 0.5)


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    empty = tracer.Tracer()
    layer = {**tracer.setup_metrics(empty, 1), **tracer.round_metrics(empty, 1, 0),
             "machine.ref_loop_s": 0.0, "machine.ref_blas_s": 0.0, "trace.overhead_pct": 0.0}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.layer_unit(k) for k in layer}
    assert [w["name"] for w in spec["workloads"]] == ["hybrid_snr", "omega_sweep", "sense_stream"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_tracer_restores_the_program():
    originals = {name: fn for name, fn in tracer.public_functions()}
    prop = vars(matgen.MeasurementMatrix)["coherence"]
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.run_bols is not originals["recovery.run_bols"]
        d = harness.build_matrix(replace(harness.ExperimentConfig(), m=16, n=32))
        assert 0 < d.coherence <= 1
    finally:
        t.uninstall()
    assert harness.run_bols is originals["recovery.run_bols"]
    assert vars(matgen.MeasurementMatrix)["coherence"] is prop
    stats = t.by_name()
    assert stats["harness.build_matrix"]["calls"] == 1
    assert math.isclose(sum(s["self_s"] for s in stats.values()),
                        stats["harness.build_matrix"]["total_s"] + stats[tracer.COHERENCE_SPAN]["total_s"],
                        rel_tol=1e-9)
