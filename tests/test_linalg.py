import numpy as np
import pytest

from oracles import projection_residual_norm_sq, residual
from sparsense.errors import RankDeficient
from sparsense.linalg import RANK_RTOL, least_squares_on_support
from sparsense.matgen import gen_gaussian_normalized


def pinv_oracle(a, y):
    """Independent pseudoinverse via the normal equations."""
    return np.linalg.inv(a.T @ a) @ (a.T @ y)


def projector_oracle(a):
    """Explicit projector P = A (A^T A)^{-1} A^T."""
    return a @ np.linalg.inv(a.T @ a) @ a.T


def naive_matmul(e, x):
    m, n = e.shape
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += e[i, j] * x[j]
        out[i] = acc
    return out


@pytest.fixture
def instance():
    d = gen_gaussian_normalized(8, 16, seed=11)
    rng = np.random.default_rng(3)
    support = [2, 9, 14]
    x = np.zeros(16)
    x[support] = rng.standard_normal(3)
    return d, x, support


def test_single_column_scaling():
    d = gen_gaussian_normalized(8, 16, seed=0)
    y = 3.0 * d.entries[:, 5]
    x = least_squares_on_support(d, y, [5])
    assert x[5] == pytest.approx(3.0, abs=1e-12)
    assert np.count_nonzero(x) == 1


def test_empty_support():
    d = gen_gaussian_normalized(8, 16, seed=0)
    y = np.ones(8)
    assert np.array_equal(least_squares_on_support(d, y, []), np.zeros(16))
    assert projection_residual_norm_sq(d, y, []) == pytest.approx(float(y @ y))


def test_recovers_noiseless_and_matches_pinv_oracle(instance):
    d, x, support = instance
    y = d.entries @ x
    x_hat = least_squares_on_support(d, y, support)
    assert np.linalg.norm(x_hat - x) <= 1e-10
    oracle = pinv_oracle(d.entries[:, support], y)
    assert np.allclose(x_hat[support], oracle, atol=1e-10)


def test_projection_residual_in_span_is_zero(instance):
    d, x, support = instance
    y = d.entries @ x
    assert projection_residual_norm_sq(d, y, support) <= 1e-20 * float(y @ y)


def test_projection_residual_matches_projector_oracle():
    d = gen_gaussian_normalized(8, 16, seed=21)
    y = np.random.default_rng(4).standard_normal(8)
    support = [1, 7, 12]
    p = projector_oracle(d.entries[:, support])
    expect = float(np.sum((y - p @ y) ** 2))
    assert projection_residual_norm_sq(d, y, support) == pytest.approx(expect, rel=1e-10)


def test_residual_trivial_and_naive_oracle(instance):
    d, x, _ = instance
    y = np.random.default_rng(5).standard_normal(8)
    assert np.array_equal(residual(d, y, np.zeros(16)), y)
    r = residual(d, y, x)
    assert np.allclose(r, y - naive_matmul(d.entries, x), atol=1e-12)


def test_residual_zero_after_exact_recovery(instance):
    d, x, support = instance
    y = d.entries @ x
    x_hat = least_squares_on_support(d, y, support)
    assert np.linalg.norm(residual(d, y, x_hat)) <= 1e-10


def test_normal_equation_orthogonality(instance):
    d, _, _ = instance
    y = np.random.default_rng(6).standard_normal(8)
    support = [0, 3, 4, 11]
    x_hat = least_squares_on_support(d, y, support)
    r = residual(d, y, x_hat)
    assert np.abs(d.entries[:, support].T @ r).max() <= 1e-9


def test_projection_residual_monotone_under_growth():
    d = gen_gaussian_normalized(8, 16, seed=33)
    y = np.random.default_rng(7).standard_normal(8)
    grown = [[], [4], [4, 9], [4, 9, 1], [4, 9, 1, 13]]
    values = [projection_residual_norm_sq(d, y, s) for s in grown]
    for smaller, larger in zip(values, values[1:]):
        assert larger <= smaller + 1e-12


def test_projection_equals_residual_norm(instance):
    d, _, _ = instance
    y = np.random.default_rng(8).standard_normal(8)
    support = [5, 6]
    x_hat = least_squares_on_support(d, y, support)
    r = residual(d, y, x_hat)
    assert projection_residual_norm_sq(d, y, support) == pytest.approx(
        float(r @ r), rel=1e-9
    )


def test_rank_deficient_duplicate_column():
    e = np.zeros((4, 4))
    e[:, 0] = e[:, 1] = np.array([1.0, 0, 0, 0])
    e[:, 2] = np.array([0, 1.0, 0, 0])
    e[:, 3] = np.array([0, 0, 1.0, 0])
    y = np.ones(4)
    with pytest.raises(RankDeficient):
        least_squares_on_support(e, y, [0, 1])


def test_near_dependent_supports_follow_the_singular_value_ratio_rule(monkeypatch):
    """Unit columns at angle 2 atan(ratio) have singular value ratio `ratio`.
    At 1e-9 the bound 1/(||R||_F ||R^-1||_F) certifies full rank with no SVD;
    at 1e-11 it cannot, and the SVD of R finds the columns dependent."""
    e = np.zeros((6, 3))
    e[0, :] = 1.0
    for j, ratio in ((1, 1e-9), (2, 1e-11)):
        t = 2.0 * np.arctan(ratio)
        e[:, j] = np.cos(t) * e[:, 0]
        e[j, j] = np.sin(t)
    y = np.arange(1.0, 7.0)
    svals = {j: np.linalg.svd(e[:, [0, j]], compute_uv=False) for j in (1, 2)}
    assert svals[1][-1] / svals[1][0] == pytest.approx(1e-9, rel=1e-3)
    assert svals[2][-1] / svals[2][0] == pytest.approx(1e-11, rel=1e-3)

    svd_calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    factors: dict = {}
    x = least_squares_on_support(e, y, [0, 1], factors)
    assert svd_calls == [] and RANK_RTOL <= 1e-9  # accepted on the certified bound
    np.testing.assert_allclose(x[[0, 1]], np.linalg.lstsq(e[:, [0, 1]], y, rcond=None)[0],
                               rtol=1e-6)
    with pytest.raises(RankDeficient, match="singular value ratio 1.0"):
        least_squares_on_support(e, y, [0, 2], factors)
    assert svd_calls == [(2, 2)] and RANK_RTOL > 1e-11  # the SVD of R decided
    assert list(factors) == [(0, 1)] and not factors[0, 1].flags.writeable
    assert least_squares_on_support(e, y, [0, 1], factors).tobytes() == x.tobytes()


def test_rank_deficient_oversized_support():
    d = gen_gaussian_normalized(4, 8, seed=0)
    with pytest.raises(RankDeficient):
        least_squares_on_support(d, np.ones(4), [0, 1, 2, 3, 4])


def test_support_validation():
    d = gen_gaussian_normalized(4, 8, seed=0)
    y = np.ones(4)
    with pytest.raises(ValueError, match="duplicate"):
        least_squares_on_support(d, y, [1, 1])
    with pytest.raises(ValueError, match="range"):
        least_squares_on_support(d, y, [99])


def test_dimension_mismatch():
    d = gen_gaussian_normalized(4, 8, seed=0)
    with pytest.raises(ValueError):
        least_squares_on_support(d, np.ones(3), [0])
