"""The shared greedy path: stop rules as cuts of one recorded run, and sweeps
that synthesize each trial once and read every algorithm from its path."""

import numpy as np
import pytest

from sparsense.errors import InvalidParams
from sparsense.harness import (
    ExperimentConfig,
    blind_params_for,
    build_matrix,
    calibrate_noise,
    gen_sparse_spectrum,
    run_trial,
    sweep_omega,
    sweep_snr,
)
from sparsense.linalg import least_squares_on_support, projection_residual_norm_sq
from sparsense.matgen import gen_gaussian_normalized, gen_hybrid_normalized
from sparsense.recovery import (
    BlindStopParams,
    GreedyPath,
    run_bols,
    run_bomp,
    run_ols_known_k,
    run_omp_known_k,
)
from sparsense.streams import stream


def instance(family, m, n, k, snr_db, seed):
    gen = gen_gaussian_normalized if family == "gaussian" else gen_hybrid_normalized
    d = gen(m, n, seed)
    spec = gen_sparse_spectrum(n, k, 1.0, 0.01, stream(seed, 2, 0))
    y, _ = calibrate_noise(d, spec.x, snr_db, stream(seed, 3, 0))
    return d, y


def same_result(a, b):
    return (
        np.array_equal(a.x_hat, b.x_hat)
        and a.support == b.support
        and a.iterations == b.iterations
        and a.residual_norm_history == b.residual_norm_history
        and a.stop_reason == b.stop_reason
    )


# ------------------------------------------------------------------- path and cuts

@pytest.mark.parametrize("family", ["gaussian", "hybrid"])
def test_shared_path_cuts_equal_fresh_runs_in_any_order(family):
    d, y = instance(family, 48, 96, 4, 25.0, seed=11)
    omegas = (0.0, 0.3, 0.8, 1.5, 3.0)
    fresh = {w: run_bols(d, y, BlindStopParams(omega_star=w, mu=d.coherence)) for w in omegas}
    fresh_k = {k: run_ols_known_k(d, y, k) for k in (0, 2, 6)}
    for order in (omegas, omegas[::-1]):
        path = GreedyPath(d, y, "ols")
        for k in (6, 0, 2):
            assert same_result(run_ols_known_k(d, y, k, path=path), fresh_k[k])
        for w in order:
            assert same_result(
                run_bols(d, y, BlindStopParams(omega_star=w, mu=d.coherence), path=path), fresh[w]
            )
    mp = GreedyPath(d, y, "omp")
    params = BlindStopParams(omega_star=0.5, mu=d.coherence)
    assert same_result(run_bomp(d, y, params, path=mp), run_bomp(d, y, params))
    assert same_result(run_omp_known_k(d, y, 5, path=mp), run_omp_known_k(d, y, 5))


def test_path_records_norms_statistics_and_picks():
    d, y = instance("gaussian", 32, 64, 3, 20.0, seed=4)
    path = GreedyPath(d, y, "ols")
    res = run_ols_known_k(d, y, 5, path=path)
    assert path.picks[:5] == res.support
    assert path.residual_norms[:6] == res.residual_norm_history
    assert path.residual_norms[0] == float(np.linalg.norm(y))
    for i in range(5):
        r = y - d.entries @ run_ols_known_k(d, y, i).x_hat
        expect = np.abs(d.entries.T @ r).max() / np.linalg.norm(r)
        assert path.statistics[i] == pytest.approx(expect, rel=1e-9)


def test_path_rule_mismatch_and_bad_input_raise():
    d, y = instance("gaussian", 16, 32, 2, 20.0, seed=2)
    with pytest.raises(InvalidParams):
        run_ols_known_k(d, y, 2, path=GreedyPath(d, y, "omp"))
    with pytest.raises(InvalidParams):
        GreedyPath(d, y, "cosamp")
    with pytest.raises(InvalidParams):
        GreedyPath(d, y[:-1], "ols")


# --------------------------------------------------------------- sweep equivalence

def tiny_config(**kw):
    base = dict(
        family="hybrid", m=64, n=128, k=3, snr_grid_db=(30.0, 50.0),
        algorithms=("bols", "bomp", "ols", "omp", "cosamp", "mols"),
        trials=3, base_seed=23, p_min=0.15, cosamp_max_iterations=10,
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()


def by_key(outcomes):
    return sorted(outcomes, key=lambda o: (o.grid, o.algorithm, o.trial_index))


@pytest.mark.parametrize("policy", ["fixed", "per_point"])
def test_sweep_snr_equals_per_algorithm_trials(policy):
    cfg = tiny_config(matrix_policy=policy)
    _, outcomes, _ = sweep_snr(cfg, threads=1)
    expect = []
    for gi, snr_db in enumerate(cfg.snr_grid_db):
        d = build_matrix(cfg, salt=gi if policy == "per_point" else 0)
        blind, _ = blind_params_for(cfg, d.coherence)
        for alg in cfg.algorithms:
            for t in range(cfg.trials):
                expect.append(run_trial(d, cfg, t, alg, snr_db, blind))
    assert by_key(outcomes) == by_key(expect)


def test_sweep_omega_equals_per_algorithm_trials():
    cfg = tiny_config(snr_grid_db=(40.0,))
    grid = (0.2, 0.6, 1.4)
    _, outcomes, _ = sweep_omega(cfg, grid, threads=2)
    d = build_matrix(cfg)
    expect = []
    for omega in grid:
        blind = BlindStopParams(omega_star=omega, mu=d.coherence)
        for alg in cfg.algorithms:
            for t in range(cfg.trials):
                expect.append(run_trial(
                    d, cfg, t, alg, 40.0, blind if alg in ("bols", "bomp") else None,
                    grid_value=omega,
                ))
    assert by_key(outcomes) == by_key(expect)


def test_blind_algorithm_without_parameters_is_captured_per_algorithm():
    cfg = tiny_config(snr_grid_db=(40.0,), algorithms=("bols", "ols"))
    d = build_matrix(cfg)
    out = run_trial(d, cfg, 0, "bols", 40.0, None)
    assert out.stop_reason == "InvalidParams" and out.iterations == 0
    assert run_trial(d, cfg, 0, "ols", 40.0, None).stop_reason == "ReachedKnownK"


# ------------------------------------------------------------ loop reference

def reference_greedy(e, y, rule, threshold=None, known_k=None, cap=None):
    """Definitional loop: refit by least squares every step, pick by the
    augmented projection residual (OLS) or the plain correlation (MP), and
    check the stop rules in the documented order."""
    m, n = e.shape
    cap = m if cap is None else min(cap, m)
    support = []
    while True:
        x = least_squares_on_support(e, y, support)
        r = y - e @ x
        rnorm = np.linalg.norm(r)
        corr = np.abs(e.T @ r)
        if rnorm <= 1e-12 * np.linalg.norm(y):
            return support, "ResidualBelowFloor"
        if threshold is not None and corr.max() / rnorm <= threshold:
            return support, "BlindThresholdMet"
        if known_k is not None and len(support) >= known_k:
            return support, "ReachedKnownK"
        if len(support) >= cap:
            return support, "ReachedMaxIterations"
        rest = [j for j in range(n) if j not in support]
        if rule == "ols":
            pick = min(rest, key=lambda j: projection_residual_norm_sq(e, y, support + [j]))
        else:
            pick = max(rest, key=lambda j: corr[j])
        support.append(pick)


@pytest.mark.parametrize("family", ["gaussian", "hybrid"])
def test_cuts_match_the_loop_reference(family):
    for seed, snr_db in [(s, 20.0) for s in range(6)] + [(6, float("inf")), (7, float("inf"))]:
        d, y = instance(family, 16, 40, 3, snr_db, seed=seed)
        e, mu = d.entries, d.coherence
        for w in (0.3, 0.9):
            params = BlindStopParams(omega_star=w, mu=mu, max_iterations=6)
            for run, rule in ((run_bols, "ols"), (run_bomp, "omp")):
                res = run(d, y, params)
                assert (res.support, res.stop_reason.value) == reference_greedy(
                    e, y, rule, threshold=w * mu, cap=6)
        for run, rule in ((run_ols_known_k, "ols"), (run_omp_known_k, "omp")):
            res = run(d, y, 4)
            assert (res.support, res.stop_reason.value) == reference_greedy(e, y, rule, known_k=4)
