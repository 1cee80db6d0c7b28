"""The shared greedy path: stop rules as cuts of one recorded run, sweeps
that synthesize each trial once and read every algorithm from its path, and
the step cache that a trial's paths share across its SNR grid."""

from dataclasses import replace

import numpy as np
import pytest

from oracles import projection_residual_norm_sq, run_trial
from sparsense.errors import InvalidParams, RankDeficient
from sparsense.harness import (
    ExperimentConfig,
    blind_params_for,
    build_matrix,
    calibrate_noise,
    gen_sparse_spectrum,
    outcomes_to_jsonl,
    rows_to_csv,
    sweep,
)
from sparsense.linalg import least_squares_on_support
from sparsense.matgen import gen_gaussian_normalized, gen_hybrid_normalized
from sparsense.recovery import (
    BlindStopParams,
    GreedyPath,
    run_bols,
    run_bomp,
    run_mols,
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


@pytest.mark.parametrize("family", ["gaussian", "hybrid"])
@pytest.mark.parametrize("snr_db", [20.0, 60.0, 120.0, float("inf")])
def test_updated_correlations_track_the_exact_product(family, snr_db):
    """The correlations kept up to date step by step stay within 1e-9 of a
    fresh E^T r, far past K and down to the floor, where the update alone
    cancels badly. The error is relative to max|E^T r|: correlations of
    selected columns are zero up to rounding."""
    k = 4
    for seed in range(3):
        d, y = instance(family, 32, 64, k, snr_db, seed=seed)
        e = d.entries
        for rule in ("ols", "omp"):
            path = GreedyPath(d, y, rule)
            for i in range(k + 21):
                if path.residual_norms[i] <= path.floor:
                    break
                r = path.r
                exact = e.T @ r
                scale = np.abs(exact).max()
                assert np.abs(np.abs(path.c) - np.abs(exact)).max() <= 1e-9 * scale
                assert path.statistic(i) == pytest.approx(scale / np.linalg.norm(r), rel=1e-9)
                if not path.grow(i):
                    break


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
        trials=3, base_seed=23, p_min=0.15,
    )
    base.update(kw)
    return ExperimentConfig(**base).validate()


def by_key(outcomes):
    return sorted(outcomes, key=lambda o: (o.grid, o.algorithm, o.trial_index))


def test_sweep_snr_equals_per_algorithm_trials():
    cfg = tiny_config()
    _, outcomes, _ = sweep(cfg, threads=1)
    d = build_matrix(cfg)
    blind, _ = blind_params_for(cfg, d.coherence)
    expect = []
    for snr_db in cfg.snr_grid_db:
        for alg in cfg.algorithms:
            for t in range(cfg.trials):
                expect.append(run_trial(d, cfg, t, alg, snr_db, blind))
    assert by_key(outcomes) == by_key(expect)


def test_sweep_omega_equals_per_algorithm_trials():
    cfg = tiny_config(snr_grid_db=(40.0,))
    grid = (0.2, 0.6, 1.4)
    _, outcomes, _ = sweep(replace(cfg, omega_grid=grid), threads=2)
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


def test_registry_runners_call_the_patched_module_functions(monkeypatch):
    # The benchmark tracer counts recoveries by replacing harness's module
    # attributes; a registry that kept the original function objects would
    # bypass the replacements and read zero calls.
    import sparsense.harness as harness

    calls = {"run_cosamp": 0, "run_bols": 0}

    def counting(name):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    cfg = tiny_config()
    sweep(cfg, threads=1)
    per_point = cfg.trials * len(cfg.snr_grid_db)
    assert calls == {"run_cosamp": per_point, "run_bols": per_point}


def test_each_cut_step_is_fitted_once_per_trial_and_rule(monkeypatch):
    import sparsense.recovery as recovery

    cfg = tiny_config(snr_grid_db=(30.0,), algorithms=("bols", "bomp", "ols", "omp"), trials=4)
    grid = (0.2, 0.6, 1.0, 1.4, 2.0, 2.6)
    original = recovery.least_squares_on_support

    def refit_every_cut(self, i):
        # every cut solves its own least squares, as before the memo
        try:
            return original(self.e, self.y, self.picks[:i])
        except RankDeficient:
            return None

    with monkeypatch.context() as patch:
        patch.setattr(GreedyPath, "fit", refit_every_cut)
        _, per_cut, _ = sweep(replace(cfg, omega_grid=grid), threads=1)

    calls = []

    def counting(e, y, support, *factors):
        calls.append(len(support))
        return original(e, y, support, *factors)

    monkeypatch.setattr(recovery, "least_squares_on_support", counting)
    _, outcomes, _ = sweep(replace(cfg, omega_grid=grid), threads=1)
    assert by_key(outcomes) == by_key(per_cut)
    rule = {"bols": "ols", "ols": "ols", "bomp": "omp", "omp": "omp"}
    steps = {(o.trial_index, rule[o.algorithm], o.iterations) for o in outcomes}
    assert len(calls) == len(steps) < len(outcomes)
    assert sorted(calls) == sorted(i for _, _, i in steps)


def test_a_sweep_with_the_factor_cache_equals_one_factoring_every_solve_afresh(monkeypatch):
    import sparsense.linalg as linalg
    import sparsense.recovery as recovery

    cfg = tiny_config(snr_grid_db=(20.0, 30.0, 40.0, 50.0, 60.0), k=5, trials=4)
    original, factor = recovery.least_squares_on_support, linalg._r_inverse
    factored = []

    def counted_factor(sub, support):
        factored.append(tuple(support))
        return factor(sub, support)

    def afresh(e, y, support, factors=None):
        return original(e, y, support, {})  # a throwaway cache for every solve

    monkeypatch.setattr(linalg, "_r_inverse", counted_factor)
    cached_rows, cached, _ = sweep(cfg, threads=1)
    cached_factors = len(factored)
    monkeypatch.setattr(recovery, "least_squares_on_support", afresh)
    fresh_rows, fresh, _ = sweep(cfg, threads=1)
    assert rows_to_csv(cached_rows) == rows_to_csv(fresh_rows)
    assert outcomes_to_jsonl(cached, cfg) == outcomes_to_jsonl(fresh, cfg)
    assert 0 < cached_factors < len(factored) - cached_factors  # the cache was hit


def test_cuts_at_one_step_get_their_own_estimates():
    d, y = instance("hybrid", 64, 128, 4, 40.0, seed=5)
    path = GreedyPath(d, y, "ols")
    first = run_ols_known_k(d, y, 3, path=path)
    second = run_ols_known_k(d, y, 3, path=path)
    kept = second.x_hat.copy()
    first.x_hat[:] = 99.0
    assert np.array_equal(second.x_hat, kept)
    assert np.array_equal(run_ols_known_k(d, y, 3, path=path).x_hat, kept)
    assert np.array_equal(run_ols_known_k(d, y, 3).x_hat, kept)


# ------------------------------------------------------------------ step cache

def trial_grid(family, seed, grid, duplicate=None):
    """One trial's measurements over an SNR grid, as a sweep draws them: one
    spectrum and one noise direction. ``duplicate=(src, dst)`` copies column
    src over column dst and puts the spectrum's largest entry on src, so
    MOLS meets a rank-deficient pick."""
    gen = gen_gaussian_normalized if family == "gaussian" else gen_hybrid_normalized
    e = np.array(gen(48, 96, seed).entries)
    spec = gen_sparse_spectrum(96, 4, 1.0, 0.01, stream(seed, 2, 0))
    x = spec.x
    if duplicate is not None:
        src, dst = duplicate
        e[:, dst] = e[:, src]
        x = np.where(np.arange(96) == dst, 0.0, x)
        x[src] = 3.0
    ys = [calibrate_noise(e, x, snr_db, stream(seed, 3, 0))[0] for snr_db in grid]
    return e, ys


def same_path(a, b):
    return (
        a.picks == b.picks
        and a.residual_norms == b.residual_norms
        and a.statistics == b.statistics
        and a.r.tobytes() == b.r.tobytes()
        and a.c.tobytes() == b.c.tobytes()
        and all(
            (fa is None and fb is None) or (fa is not None and fb is not None
                                            and fa.tobytes() == fb.tobytes())
            for fa, fb in ((a.fit(i), b.fit(i)) for i in range(len(a.picks) + 1))
        )
    )


@pytest.mark.parametrize("family, seed, duplicate", [
    ("gaussian", 9, None), ("hybrid", 9, None), ("hybrid", 1, (3, 7)),
], ids=["gaussian", "hybrid", "hybrid-rank-deficient"])
def test_paths_sharing_a_step_cache_equal_paths_without_one(family, seed, duplicate):
    """Definitional check of the step cache: both rules' paths at every SNR
    of one trial, grown one step at a time in turn, and MOLS runs between
    the steps, all through one cache, end bit for bit where paths built
    without a cache end."""
    grid = (20.0, 40.0, 60.0, float("inf"))
    e, ys = trial_grid(family, seed, grid, duplicate)
    steps: dict = {}
    shared = [GreedyPath(e, y, rule, steps) for y in ys for rule in ("ols", "omp")]
    mols = {}
    for i in range(14):
        for path in shared:
            path.grow(i)
        if i in (0, 3):
            for subset in (2, 3):
                for y in ys[::-1]:
                    mols[i, subset, y.tobytes()] = run_mols(e, y, 6, subset, steps)
    for path in shared:
        fresh = GreedyPath(e, path.y, path.rule)
        fresh.grow(13)
        assert same_path(path, fresh)
    for (_, subset, key), got in mols.items():
        want = run_mols(e, np.frombuffer(key), 6, subset)
        assert (got.support, got.iterations, got.residual_norm_history, got.stop_reason) == (
            want.support, want.iterations, want.residual_norm_history, want.stop_reason)
        assert got.x_hat.tobytes() == want.x_hat.tobytes()
    assert len(steps) < sum(len(p.picks) for p in shared)  # the paths did share steps
    # a strided q (a column view of the basis) gives other bits of q @ r than
    # the contiguous q that unshared paths made before the cache existed
    assert all(step[0].flags.c_contiguous for step in steps.values() if step is not None)
    # every path of the trial reads the cached q and g, so none may be written in place
    cached = [a for step in steps.values() if step is not None for a in step]
    assert not any(a.flags.writeable for a in cached)
    with pytest.raises(ValueError):
        cached[0] *= 2.0
    if duplicate is not None:
        src, dst = duplicate
        assert steps[src, dst] is None  # MOLS tried the copy right after its source
        for path in (GreedyPath(e, ys[0], "ols", steps), GreedyPath(e, ys[0], "ols")):
            path.add(src)
            with pytest.raises(RankDeficient):
                path.add(dst)
            assert path.picks == [src]


class CountingEntries(np.ndarray):
    """Matrix entries that count the products ``q @ E`` of a vector with the
    whole matrix, the ``E^T q`` of a greedy step; other products pass."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and np.ndim(inputs[0]) == 1 and inputs[1] is self \
                and self.ndim == 2 and self.shape[0] < self.shape[1]:
            CountingEntries.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountingEntries) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_each_pick_prefix_is_orthogonalized_once_per_trial(monkeypatch):
    import sparsense.harness as harness

    cfg = tiny_config(snr_grid_db=(30.0, 40.0, 50.0, 60.0, float("inf")))
    _, plain, _ = sweep(cfg, threads=1)

    def counted_matrix(config):
        d = build_matrix(config)
        object.__setattr__(d, "entries", d.entries.view(CountingEntries))
        return d

    trial = [None]
    synthesize, add = harness._synthesize, GreedyPath.add

    def synthesizing(d, config, trial_index, snr_db):
        trial[0] = trial_index
        return synthesize(d, config, trial_index, snr_db)

    prefixes = []

    def adding(self, j):
        add(self, j)
        prefixes.append((trial[0], tuple(self.picks)))

    monkeypatch.setattr(harness, "build_matrix", counted_matrix)
    monkeypatch.setattr(harness, "_synthesize", synthesizing)
    monkeypatch.setattr(GreedyPath, "add", adding)
    CountingEntries.products = 0
    _, outcomes, _ = sweep(cfg, threads=1)
    assert by_key(outcomes) == by_key(plain)
    assert CountingEntries.products == len(set(prefixes)) < len(prefixes)


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
