import numpy as np
import pytest

from sparsense.errors import MatrixFormatError
from sparsense.matgen import (
    _COH_BLOCK,
    MeasurementMatrix,
    coherence,
    export_csv,
    gen_gaussian_normalized,
    gen_hybrid_normalized,
    load_matrix,
    save_matrix,
)


def brute_force_coherence(entries):
    """Exhaustive pairwise oracle: max |<d_i, d_j>| over i != j."""
    n = entries.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                best = max(best, abs(float(np.dot(entries[:, i], entries[:, j]))))
    return best


def test_columns_unit_norm():
    for mat in (gen_gaussian_normalized(32, 64, seed=0),
                gen_hybrid_normalized(32, 64, seed=0)):
        norms = np.linalg.norm(mat.entries, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_determinism_bit_identical():
    a = gen_gaussian_normalized(16, 40, seed=123)
    b = gen_gaussian_normalized(16, 40, seed=123)
    assert np.array_equal(a.entries, b.entries)
    assert a.coherence == b.coherence
    c = gen_gaussian_normalized(16, 40, seed=124)
    assert not np.array_equal(a.entries, c.entries)


def test_hybrid_determinism_bit_identical():
    a = gen_hybrid_normalized(256, 512, seed=77)
    b = gen_hybrid_normalized(256, 512, seed=77)
    assert a.coherence == b.coherence
    assert np.array_equal(a.entries, b.entries)


def test_shape_rejections():
    for fn in (gen_gaussian_normalized, gen_hybrid_normalized):
        with pytest.raises(ValueError):
            fn(0, 4, seed=0)
        with pytest.raises(ValueError):
            fn(4, 0, seed=0)
        with pytest.raises(ValueError):
            fn(8, 4, seed=0)
    with pytest.raises(ValueError):
        gen_hybrid_normalized(4, 8, seed=0, offset_max=-1.0)


def test_coherence_two_columns():
    cols = np.zeros((2, 2))
    cols[:, 0] = [1.0, 0.0]
    cols[:, 1] = np.array([1.0, 1.0]) / np.sqrt(2.0)
    mat = MeasurementMatrix(cols)
    assert mat.coherence == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_coherence_orthonormal_is_zero():
    assert MeasurementMatrix(np.eye(4)).coherence == 0.0
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))
    q /= np.linalg.norm(q, axis=0)
    assert MeasurementMatrix(q).coherence < 1e-10


def test_coherence_matches_brute_force():
    mat = gen_gaussian_normalized(8, 16, seed=5)
    assert mat.coherence == pytest.approx(brute_force_coherence(mat.entries), abs=1e-13)


def test_coherence_blocking_consistent_on_wide_matrix():
    # wide enough to exercise more than one Gram block
    mat = gen_gaussian_normalized(16, 2100, seed=2)
    gram = mat.entries.T @ mat.entries
    np.fill_diagonal(gram, 0.0)
    assert mat.coherence == pytest.approx(float(np.abs(gram).max()), abs=1e-13)


@pytest.mark.parametrize("m,n", [(16, _COH_BLOCK + 1), (8, 2 * _COH_BLOCK + 37), (24, 3 * _COH_BLOCK - 5)])
def test_coherence_upper_triangle_equals_full_gram(m, n):
    # N is not a multiple of the block size, and the most coherent pair sits
    # in different blocks, so only its upper-triangle entry (i < j) is computed
    e = gen_gaussian_normalized(m, n, seed=n).entries.copy()
    i, j = 3, n - 2
    e[:, j] = e[:, i] + 0.05 * e[:, j]
    e[:, j] /= np.linalg.norm(e[:, j])
    mat = MeasurementMatrix(e)
    gram = np.abs(mat.entries.T @ mat.entries)
    np.fill_diagonal(gram, 0.0)
    assert np.unravel_index(np.argmax(gram), gram.shape) in ((i, j), (j, i))
    assert mat.coherence == pytest.approx(float(gram.max()), abs=1e-13)


def test_hybrid_offset_zero_matches_gaussian():
    g = gen_gaussian_normalized(8, 16, seed=9)
    h = gen_hybrid_normalized(8, 16, seed=9, offset_max=0.0)
    assert np.allclose(g.entries, h.entries, atol=1e-13)


def test_hybrid_coherence_dominates_gaussian():
    wins = 0
    seeds = range(20)
    for seed in seeds:
        g = gen_gaussian_normalized(256, 512, seed=seed)
        h = gen_hybrid_normalized(256, 512, seed=seed, offset_max=10.0)
        wins += h.coherence > g.coherence
    assert wins >= 0.95 * len(list(seeds))


def test_save_load_roundtrip(tmp_path):
    mat = gen_hybrid_normalized(12, 20, seed=4)
    path = tmp_path / "m.bin"
    save_matrix(mat, path)
    back = load_matrix(path)
    assert back.m == 12 and back.n == 20
    assert np.array_equal(back.entries, mat.entries)
    assert coherence(back) == coherence(mat)


def test_csv_export_roundtrip(tmp_path):
    mat = gen_gaussian_normalized(6, 10, seed=8)
    path = tmp_path / "m.csv"
    export_csv(mat, path)
    parsed = np.loadtxt(path, delimiter=",")
    assert parsed.shape == (6, 10)
    assert np.array_equal(parsed, mat.entries)  # %.17g round-trips float64 exactly


def test_load_errors_name_byte_offsets(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(MatrixFormatError, match="byte offset 0"):
        load_matrix(path)

    path.write_bytes(b"SPRSMAT1" + b"\x00" * 4)
    with pytest.raises(MatrixFormatError, match="byte offset 12"):
        load_matrix(path)

    import struct
    path.write_bytes(b"SPRSMAT1" + struct.pack("<QQ", 8, 4))
    with pytest.raises(MatrixFormatError, match="byte offset 8"):
        load_matrix(path)

    path.write_bytes(b"SPRSMAT1" + struct.pack("<QQ", 2, 2) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="expected 56"):
        load_matrix(path)


def test_constructor_rejects_unnormalized():
    bad = np.full((2, 3), 0.5)
    with pytest.raises(ValueError, match="norm"):
        MeasurementMatrix(bad)


def test_entries_read_only():
    mat = gen_gaussian_normalized(4, 8, seed=1)
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 2.0


def test_gaussian_singular_value_tails_small_sample():
    # 1000-sample version of the smallest-singular-value tail check; the full
    # 10000-sample run lives in the acceptance suite.
    m, k, rho = 256, 8, 0.2
    lower = 1.0 - np.sqrt(k / m) - rho
    floor = 1.0 - np.exp(-m * rho * rho / 2.0)
    rng = np.random.default_rng(42)
    hits = 0
    trials = 1000
    for _ in range(trials):
        block = rng.standard_normal((m, k)) / np.sqrt(m)
        smin = np.linalg.svd(block, compute_uv=False)[-1]
        hits += smin >= lower
    assert hits / trials >= floor
