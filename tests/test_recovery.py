import contextlib
import math
import signal

import numpy as np
import pytest

from oracles import ols_select, projection_residual_norm_sq
from sparsense import recovery
from sparsense.errors import InvalidParams, RankDeficient
from sparsense.harness import calibrate_noise, gen_sparse_spectrum
from sparsense.linalg import _entries, least_squares_on_support
from sparsense.matgen import gen_gaussian_normalized, gen_hybrid_normalized
from sparsense.recovery import (
    RESIDUAL_FLOOR_REL,
    BlindStopParams,
    GreedyPath,
    RecoveryResult,
    StopReason,
    run_bols,
    run_bomp,
    run_cosamp,
    run_mols,
    run_ols_known_k,
    run_omp_known_k,
)
from sparsense.streams import stream


def naive_ols_select(d, y, support):
    """Definitional oracle: argmin over the augmented projection residual."""
    n = d.entries.shape[1] if hasattr(d, "entries") else d.shape[1]
    e = d.entries if hasattr(d, "entries") else d
    best_j, best_v = None, np.inf
    for j in range(n):
        if j in support:
            continue
        # skip candidates already inside the span, as the selection rule does
        p = projection_residual_norm_sq(e, e[:, j], list(support))
        if p <= 1e-24:
            continue
        v = projection_residual_norm_sq(e, y, list(support) + [j])
        if v < best_v - 0.0:
            best_v, best_j = v, j
    return best_j


def orthonormal_matrix(m):
    q, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((m, m)))
    q /= np.linalg.norm(q, axis=0)
    return q


def noiseless_instance(m, n, k, seed):
    d = gen_gaussian_normalized(m, n, seed=seed)
    spec = gen_sparse_spectrum(n, k, 1.0, 0.01, stream(seed, 2, 0))
    y, _ = calibrate_noise(d, spec.x, float("inf"), stream(seed, 3, 0))
    return d, spec, y


# ------------------------------------------------------------------ stop statistic

def test_statistic_self_correlation_at_least_one():
    d = gen_gaussian_normalized(8, 16, seed=0)
    assert GreedyPath(d, d.entries[:, 3].copy(), "omp").statistic(0) >= 1.0 - 1e-12


def test_statistic_orthogonal_residual_is_zero():
    e = np.eye(4)[:, :3]  # columns e1, e2, e3 in R^4
    r = np.array([0.0, 0.0, 0.0, 1.0])
    assert GreedyPath(e, r, "omp").statistic(0) == 0.0


def test_statistic_matches_exhaustive_loop():
    d = gen_gaussian_normalized(8, 16, seed=1)
    r = np.random.default_rng(2).standard_normal(8)
    expect = max(abs(float(d.entries[:, j] @ r)) for j in range(16))
    expect /= float(np.linalg.norm(r))
    assert GreedyPath(d, r, "omp").statistic(0) == pytest.approx(expect, rel=1e-12)


def test_zero_measurement_stops_every_algorithm_on_the_residual_floor():
    # the statistic is undefined on a zero residual; no algorithm reaches it
    d = gen_gaussian_normalized(8, 16, seed=1)
    y = np.zeros(8)
    blind = BlindStopParams(omega_star=1.0, mu=d.coherence)
    results = {
        "bols": run_bols(d, y, blind),
        "bomp": run_bomp(d, y, blind),
        "ols": run_ols_known_k(d, y, 2),
        "omp": run_omp_known_k(d, y, 2),
        "cosamp": run_cosamp(d, y, 2),
        "mols": run_mols(d, y, 2, 2),
    }
    for alg, res in results.items():
        assert res.stop_reason is StopReason.RESIDUAL_BELOW_FLOOR, alg
        assert not res.x_hat.any() and res.support == [], alg
        # CoSaMP checks its floor after its first iteration, the others before any
        assert res.iterations == (1 if alg == "cosamp" else 0), alg


# ----------------------------------------------------------------------- selection

def test_select_exact_atom():
    d = gen_gaussian_normalized(8, 16, seed=3)
    assert ols_select(d, 5.0 * d.entries[:, 7], []) == 7


def test_select_orthonormal_equals_max_correlation():
    q = orthonormal_matrix(8)
    y = np.random.default_rng(4).standard_normal(8)
    assert ols_select(q, y, []) == int(np.argmax(np.abs(q.T @ y)))


def test_select_matches_naive_oracle_with_support():
    d = gen_gaussian_normalized(8, 16, seed=5)
    y = np.random.default_rng(6).standard_normal(8)
    support = [2, 11]
    assert ols_select(d, y, support) == naive_ols_select(d, y, support)


def test_selection_equivalence_on_random_states():
    rng = np.random.default_rng(99)
    for trial in range(100):
        d = gen_gaussian_normalized(8, 16, seed=trial)
        y = rng.standard_normal(8)
        size = int(rng.integers(0, 4))
        support = list(rng.choice(16, size=size, replace=False))
        assert ols_select(d, y, support) == naive_ols_select(d, y, support)


# ------------------------------------------------------------------------- runners

def test_ols_noiseless_exact():
    d, spec, y = noiseless_instance(64, 128, 3, seed=7)
    res = run_ols_known_k(d, y, 3)
    assert sorted(res.support) == spec.support
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8


def test_ols_zero_k():
    d, _, y = noiseless_instance(64, 128, 3, seed=7)
    res = run_ols_known_k(d, y, 0)
    assert res.support == [] and res.iterations == 0
    assert not res.x_hat.any()
    assert res.stop_reason is StopReason.REACHED_KNOWN_K


def test_ols_small_instance_matches_exhaustive_two_subset():
    from itertools import combinations

    d, spec, y = noiseless_instance(8, 16, 2, seed=12)
    res = run_ols_known_k(d, y, 2)
    best = min(
        combinations(range(16), 2),
        key=lambda pair: projection_residual_norm_sq(d, y, list(pair)),
    )
    # greedy agrees with the exhaustive best pair on this instance; locked
    assert sorted(res.support) == sorted(best) == spec.support


def test_omp_orthonormal_identical_to_ols():
    q = orthonormal_matrix(8)
    y = np.random.default_rng(8).standard_normal(8)
    a = run_ols_known_k(q, y, 3)
    b = run_omp_known_k(q, y, 3)
    assert a.support == b.support
    assert np.allclose(a.x_hat, b.x_hat, atol=1e-12)


def test_omp_noiseless_exact():
    d, spec, y = noiseless_instance(64, 128, 3, seed=9)
    res = run_omp_known_k(d, y, 3)
    assert sorted(res.support) == spec.support
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8


def test_bols_noiseless_superset_and_exact_values():
    d, spec, y = noiseless_instance(64, 128, 3, seed=10)
    params = BlindStopParams(omega_star=1.0, mu=d.coherence)
    res = run_bols(d, y, params)
    assert set(spec.support) <= set(res.support)
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8
    assert res.stop_reason is StopReason.RESIDUAL_BELOW_FLOOR


def test_bols_pure_noise_stops_immediately():
    d = gen_gaussian_normalized(256, 512, seed=13)
    params = BlindStopParams(omega_star=2.0, mu=d.coherence)
    quick = 0
    trials = 1000
    for t in range(trials):
        noise = stream(13, 3, t).standard_normal(256)
        res = run_bols(d, noise, params)
        quick += res.iterations <= 1
    assert quick >= 0.9 * trials


def test_bols_zero_omega_star_reproduces_known_k():
    d, spec, y = noiseless_instance(64, 128, 3, seed=14)
    blind = run_bols(d, y, BlindStopParams(omega_star=0.0, mu=d.coherence, max_iterations=3))
    known = run_ols_known_k(d, y, 3)
    assert blind.support == known.support
    assert np.array_equal(blind.x_hat, known.x_hat)
    assert blind.residual_norm_history == known.residual_norm_history


def test_bomp_orthonormal_identical_to_bols():
    q = orthonormal_matrix(8)
    y = np.random.default_rng(15).standard_normal(8)
    params = BlindStopParams(omega_star=0.4, mu=0.999)
    a = run_bols(q, y, params)
    b = run_bomp(q, y, params)
    assert a.support == b.support
    assert np.allclose(a.x_hat, b.x_hat, atol=1e-12)


def test_bomp_noiseless_exact():
    d, spec, y = noiseless_instance(64, 128, 3, seed=16)
    res = run_bomp(d, y, BlindStopParams(omega_star=1.0, mu=d.coherence))
    assert set(spec.support) <= set(res.support)
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8
    assert res.stop_reason is StopReason.RESIDUAL_BELOW_FLOOR


def test_cosamp_noiseless_exact():
    d, spec, y = noiseless_instance(64, 128, 3, seed=18)
    res = run_cosamp(d, y, 3)
    assert sorted(res.support) == spec.support
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8
    assert res.stop_reason is StopReason.RESIDUAL_BELOW_FLOOR


def test_cosamp_zero_k():
    d, _, y = noiseless_instance(64, 128, 3, seed=18)
    res = run_cosamp(d, y, 0)
    assert not res.x_hat.any() and res.support == []


def reference_cosamp(d, y, k: int, max_iterations: int = 50) -> RecoveryResult:
    """Definitional CoSaMP: every iteration up to the cap is computed; stops
    on the residual floor, on consecutive-residual stagnation, or at the cap."""
    e = _entries(d)
    y = np.asarray(y, dtype=np.float64)
    n = e.shape[1]
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    x = np.zeros(n)
    ynorm = float(np.linalg.norm(y))
    history = [ynorm]
    if k == 0:
        return RecoveryResult(x, [], 0, history, StopReason.REACHED_KNOWN_K)
    r = y.copy()
    prev = ynorm
    reason = StopReason.REACHED_MAX_ITERATIONS
    iters = 0
    for _ in range(max_iterations):
        proxy = e.T @ r
        ident = np.argsort(np.abs(proxy))[-2 * k:]
        merged = np.union1d(np.nonzero(x)[0], ident)
        try:
            fit = least_squares_on_support(e, y, merged.tolist())
        except RankDeficient:
            reason = StopReason.RANK_DEFICIENT
            break
        fit[np.argsort(np.abs(fit))[:-k]] = 0.0
        x = fit
        r = y - e @ x
        rnorm = float(np.linalg.norm(r))
        history.append(rnorm)
        iters += 1
        if rnorm <= RESIDUAL_FLOOR_REL * ynorm:
            reason = StopReason.RESIDUAL_BELOW_FLOOR
            break
        if abs(prev - rnorm) < 1e-6 * max(prev, 1e-300):
            reason = StopReason.STAGNATED
            break
        prev = rnorm
    support = [int(i) for i in np.nonzero(x)[0]]
    return RecoveryResult(x, support, iters, history, reason)


def hybrid_instance(m, n, k, seed, snr_db):
    d = gen_hybrid_normalized(m, n, seed=m + k)
    spec = gen_sparse_spectrum(n, k, 1.0, 0.01, stream(seed, 2, 0))
    y, _ = calibrate_noise(d, spec.x, snr_db, stream(seed, 3, int(snr_db)))
    return d, y


@pytest.mark.parametrize("m", [256, 128])
@pytest.mark.parametrize("k", [8, 12])
def test_cosamp_matches_the_definitional_loop(m, k):
    reasons = set()
    for seed in range(2):
        for snr_db in (30.0, 40.0, 50.0, 60.0):
            d, y = hybrid_instance(m, 512, k, seed, snr_db)
            for cap in (50, 7, 1):
                want = reference_cosamp(d, y, k, cap)
                got = run_cosamp(d, y, k, cap)
                where = f"M={m} K={k} seed={seed} {snr_db} dB cap={cap}"
                assert got.x_hat.tobytes() == want.x_hat.tobytes(), where
                assert got.support == want.support, where
                assert got.iterations == want.iterations, where
                assert got.residual_norm_history == want.residual_norm_history, where
                assert got.stop_reason is want.stop_reason, where
                if cap == 50:
                    reasons.add(got.stop_reason)
    # both exits of a repeated merged set are exercised
    assert {StopReason.STAGNATED, StopReason.REACHED_MAX_ITERATIONS} <= reasons


def test_cosamp_capped_run_stops_solving_at_the_first_repeat(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args)
        return least_squares_on_support(*args)

    monkeypatch.setattr(recovery, "least_squares_on_support", counted)
    d, y = hybrid_instance(128, 512, 12, 1, 50.0)
    res = run_cosamp(d, y, 12, 50)
    assert res.stop_reason is StopReason.REACHED_MAX_ITERATIONS and res.iterations == 50
    assert len(res.residual_norm_history) == 51
    assert len(solves) < 50


def test_mols_subset_one_reproduces_ols():
    d = gen_gaussian_normalized(32, 64, seed=19)
    spec = gen_sparse_spectrum(64, 4, 1.0, 0.01, stream(19, 2, 0))
    y, _ = calibrate_noise(d, spec.x, 15.0, stream(19, 3, 0))
    a = run_mols(d, y, 4, 1)
    b = run_ols_known_k(d, y, 4)
    assert sorted(a.support) == sorted(b.support)
    assert np.allclose(a.x_hat, b.x_hat, atol=1e-12)


def test_mols_noiseless_exact():
    d, spec, y = noiseless_instance(64, 128, 4, seed=20)
    res = run_mols(d, y, 4, 2)
    assert sorted(res.support) == spec.support
    assert np.linalg.norm(res.x_hat - spec.x) <= 1e-8


def reference_mols(d, y, k: int, subset_size: int) -> RecoveryResult:
    """Definitional MOLS: each round refits by least squares, ranks every
    candidate outside the selected span by its augmented projection residual
    (as naive_ols_select does) and adds the best subset_size; the final fit is
    pruned to the k largest coefficients."""
    e = _entries(d)
    n = e.shape[1]
    ynorm = float(np.linalg.norm(y))
    support, history, rounds = [], [ynorm], 0
    reason = StopReason.REACHED_KNOWN_K
    while len(support) < k:
        if history[-1] <= RESIDUAL_FLOOR_REL * ynorm:
            reason = StopReason.RESIDUAL_BELOW_FLOOR
            break
        rest = [j for j in range(n) if j not in support
                and projection_residual_norm_sq(e, e[:, j], support) > 1e-24]
        if not rest:
            reason = StopReason.RANK_DEFICIENT
            break
        rest.sort(key=lambda j: projection_residual_norm_sq(e, y, support + [j]))
        support += rest[:subset_size]
        rounds += 1
        history.append(float(np.linalg.norm(y - e @ least_squares_on_support(e, y, support))))
    full = least_squares_on_support(e, y, support)
    x = np.zeros(n)
    keep = np.argsort(np.abs(full))[-k:]
    x[keep] = full[keep]
    return RecoveryResult(x, [int(i) for i in np.nonzero(x)[0]], rounds, history, reason)


@pytest.mark.parametrize("family", ["gaussian", "hybrid"])
@pytest.mark.parametrize("subset_size", [1, 2, 3])
def test_mols_matches_the_definitional_loop(family, subset_size):
    gen = gen_gaussian_normalized if family == "gaussian" else gen_hybrid_normalized
    k = 7
    for seed in range(3):
        d = gen(48, 96, seed=30 + seed)
        spec = gen_sparse_spectrum(96, k, 1.0, 0.01, stream(seed, 2, 0))
        for snr_db in (20.0, 40.0, 60.0):
            y, _ = calibrate_noise(d, spec.x, snr_db, stream(seed, 3, int(snr_db)))
            want = reference_mols(d, y, k, subset_size)
            got = run_mols(d, y, k, subset_size)
            where = f"{family} L={subset_size} seed={seed} {snr_db} dB"
            assert got.support == want.support, where
            assert got.iterations == want.iterations == math.ceil(k / subset_size), where
            assert got.stop_reason is want.stop_reason, where
            np.testing.assert_allclose(got.x_hat, want.x_hat, rtol=1e-9, atol=0, err_msg=where)
            np.testing.assert_allclose(got.residual_norm_history, want.residual_norm_history,
                                       rtol=1e-9, err_msg=where)


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run for ``seconds``, so a
    loop that never ends fails its test instead of stalling the run."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_mols_ends_rank_deficient_when_a_round_adds_no_column(monkeypatch):
    def refuse(self, j):
        raise RankDeficient(f"column {j} is numerically inside the selected span")

    monkeypatch.setattr(recovery.GreedyPath, "add", refuse)
    d = gen_gaussian_normalized(32, 64, seed=19)
    spec = gen_sparse_spectrum(64, 4, 1.0, 0.01, stream(19, 2, 0))
    y, _ = calibrate_noise(d, spec.x, 15.0, stream(19, 3, 0))
    ols = run_ols_known_k(d, y, 4)
    assert ols.stop_reason is StopReason.RANK_DEFICIENT
    for subset_size in (1, 2):
        with deadline(3):
            res = run_mols(d, y, 4, subset_size)
        assert res.stop_reason is ols.stop_reason, subset_size
        assert res.iterations == 0 and res.support == [], subset_size
        assert res.residual_norm_history == [float(np.linalg.norm(y))]
        assert not res.x_hat.any()


def test_mols_parameter_validation():
    d, _, y = noiseless_instance(64, 128, 4, seed=20)
    with pytest.raises(InvalidParams):
        run_mols(d, y, 4, 0)
    with pytest.raises(InvalidParams):
        run_mols(d, y, 60, 33)  # 33 * ceil(60/33) = 66 > 64 rows


# --------------------------------------------------------------------- invariants

def test_no_duplicate_selection_and_history_monotone():
    d = gen_hybrid_normalized(64, 128, seed=21)
    spec = gen_sparse_spectrum(128, 5, 1.0, 0.01, stream(21, 2, 0))
    y, _ = calibrate_noise(d, spec.x, 25.0, stream(21, 3, 0))
    for res in (
        run_ols_known_k(d, y, 5),
        run_omp_known_k(d, y, 5),
        run_bols(d, y, BlindStopParams(omega_star=0.2, mu=d.coherence)),
        run_bomp(d, y, BlindStopParams(omega_star=0.2, mu=d.coherence)),
    ):
        assert len(res.support) == len(set(res.support))
        assert len(res.support) <= 64
        assert res.iterations == len(res.support)
        assert len(res.residual_norm_history) == res.iterations + 1
        h = res.residual_norm_history
        for a, b in zip(h, h[1:]):
            assert b <= a + 1e-12 * h[0]
        off = np.ones(128, dtype=bool)
        off[res.support] = False
        assert not res.x_hat[off].any()


def test_blind_params_validation():
    with pytest.raises(InvalidParams):
        BlindStopParams(omega_star=-0.1, mu=0.5)
    with pytest.raises(InvalidParams):
        BlindStopParams(omega_star=1.0, mu=0.0)
    with pytest.raises(InvalidParams):
        BlindStopParams(omega_star=1.0, mu=0.5, max_iterations=0)
    # default cap: floor of 32, bounded by row count
    assert BlindStopParams(omega_star=1.0, mu=0.99).cap(256) == 32
    assert BlindStopParams(omega_star=1.0, mu=0.99).cap(16) == 16
    assert BlindStopParams(omega_star=1.0, mu=0.02, max_iterations=7).cap(256) == 7


def test_known_k_rejects_negative():
    d, _, y = noiseless_instance(16, 32, 2, seed=22)
    with pytest.raises(InvalidParams):
        run_ols_known_k(d, y, -1)


def test_rank_deficient_stop_reason():
    # duplicated columns: after one pick every candidate is inside the span,
    # but the residual still has an unreachable component
    e = np.zeros((4, 4))
    base = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    for j in range(4):
        e[:, j] = base
    y = base * 2.0 + np.array([0.0, 0.0, 0.5, 0.0])
    res = run_ols_known_k(e, y, 3)
    assert res.stop_reason is StopReason.RANK_DEFICIENT
    assert res.support == [0]
