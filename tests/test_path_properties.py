"""Property tests of the greedy path's invariants on random small Gaussian
and hybrid instances. hypothesis is not a declared dependency, so the
module is skipped where it is not installed."""

import numpy as np
import pytest

from sparsense.harness import calibrate_noise, gen_sparse_spectrum
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

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def instance(family, m, n, k, snr_db, seed):
    gen = gen_gaussian_normalized if family == "gaussian" else gen_hybrid_normalized
    d = gen(m, n, seed)
    spec = gen_sparse_spectrum(n, k, 1.0, 0.01, stream(seed, 2, 0))
    y, _ = calibrate_noise(d, spec.x, snr_db, stream(seed, 3, 0))
    return d, y


@st.composite
def instances(draw):
    family = draw(st.sampled_from(["gaussian", "hybrid"]))
    m = draw(st.integers(8, 24))
    n = draw(st.integers(m, 3 * m))
    k = draw(st.integers(1, max(1, m // 4)))
    snr_db = draw(st.sampled_from([0.0, 10.0, 20.0, 40.0, 120.0, float("inf")]))
    seed = draw(st.integers(0, 2**32))
    omegas = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=2, max_size=4)))
    return instance(family, m, n, k, snr_db, seed), k, omegas


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instances())
def test_blind_supports_are_prefixes_and_shrink_with_omega(case):
    (d, y), k, omegas = case
    path = GreedyPath(d, y, "ols")
    runs = [run_bols(d, y, BlindStopParams(omega_star=w, mu=d.coherence), path=path)
            for w in omegas]
    ols = run_ols_known_k(d, y, k, path=path)
    for small, large in zip(runs, runs[1:]):
        assert large.iterations <= small.iterations
        assert small.support[: len(large.support)] == large.support
    for res in runs:
        longer, shorter = (ols, res) if len(ols.support) >= len(res.support) else (res, ols)
        assert longer.support[: len(shorter.support)] == shorter.support


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instances())
def test_residual_histories_start_at_norm_y_and_never_rise(case):
    (d, y), k, omegas = case
    params = BlindStopParams(omega_star=omegas[0], mu=d.coherence)
    for res in (run_bols(d, y, params), run_bomp(d, y, params),
                run_ols_known_k(d, y, k), run_omp_known_k(d, y, k)):
        h = res.residual_norm_history
        assert h[0] == float(np.linalg.norm(y))
        assert len(h) == res.iterations + 1
        assert all(b <= a + 1e-12 * h[0] for a, b in zip(h, h[1:]))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(instances())
def test_recorded_statistics_equal_their_direct_recomputation(case):
    (d, y), k, _ = case
    e = d.entries
    for rule in ("ols", "omp"):
        path = GreedyPath(d, y, rule)
        for i in range(e.shape[0] + 1):
            if path.residual_norms[i] <= path.floor:
                break
            r = path.r
            expect = np.abs(e.T @ r).max() / np.linalg.norm(r)
            assert path.statistic(i) == pytest.approx(expect, rel=1e-9)
            if not path.grow(i):
                break
