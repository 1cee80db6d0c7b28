import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsense import matgen
from sparsense.errors import MatrixFormatError
from sparsense.matgen import (
    _COH_BLOCK,
    MAGIC,
    MeasurementMatrix,
    export_csv,
    gen_gaussian_normalized,
    gen_hybrid_normalized,
    load_matrix,
    save_matrix,
)
from sparsense.streams import TAG_COLUMN, TAG_OFFSET, stream


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


def definitional_matrix(family, m, n, seed, offset_max=10.0):
    """Column j drawn from its own ``stream(seed, TAG_COLUMN, j)``, scaled by
    1/sqrt(M) (Gaussian) or shifted by its offset (hybrid), then divided by
    ``np.linalg.norm``."""
    if family == "hybrid":
        offsets = stream(seed, TAG_OFFSET).uniform(0.0, offset_max, size=n)
    out = np.empty((m, n), order="F")
    for j in range(n):
        col = stream(seed, TAG_COLUMN, j).standard_normal(m)
        col = col * (1.0 / np.sqrt(m)) if family == "gaussian" else col + offsets[j]
        out[:, j] = col / np.linalg.norm(col)
    return out


@pytest.mark.parametrize("m, n, seed", [
    (5, 7, 9), (1, 3, 0), (64, 128, 4), (200, 333, 12345), (256, 512, 2**64 - 1),
])
def test_generation_follows_the_per_column_stream_contract(m, n, seed):
    g = gen_gaussian_normalized(m, n, seed)
    assert g.entries.tobytes() == definitional_matrix("gaussian", m, n, seed).tobytes()
    h = gen_hybrid_normalized(m, n, seed)
    assert h.entries.tobytes() == definitional_matrix("hybrid", m, n, seed).tobytes()
    h0 = gen_hybrid_normalized(m, n, seed, offset_max=0.0)
    assert h0.entries.tobytes() == definitional_matrix("hybrid", m, n, seed, 0.0).tobytes()


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


def block_scan_max(entries):
    """The plain float64 block scan, unclamped: each 256-column block times
    the columns from its own start, largest off-diagonal |G|."""
    n = entries.shape[1]
    best = 0.0
    for start in range(0, n, 256):
        end = min(start + 256, n)
        gram = entries[:, start:end].T @ entries[:, start:]
        idx = np.arange(end - start)
        gram[idx, idx] = 0.0
        best = max(best, float(np.abs(gram).max()))
    return best


def assert_coherence_is_the_block_scan(e):
    mat = MeasurementMatrix(e)
    assert mat.coherence == min(block_scan_max(mat.entries), 1.0)
    return mat.coherence


GENERATORS = {"gaussian": gen_gaussian_normalized, "hybrid": gen_hybrid_normalized}


@pytest.mark.parametrize("family", sorted(GENERATORS))
@pytest.mark.parametrize("m,n", [
    (3, 40), (8, 549), (16, 255), (16, 257), (64, 300), (64, 600), (24, 3 * 256 - 5),
    (200, 333), (256, 512), (100, 1100),
])
def test_coherence_is_bit_identical_to_the_float64_block_scan(family, m, n):
    assert_coherence_is_the_block_scan(GENERATORS[family](m, n, seed=m + n).entries)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(GENERATORS)),
    shape=st.integers(1, 700).flatmap(lambda n: st.tuples(st.integers(1, min(n, 48)), st.just(n))),
    seed=st.integers(0, 2**64 - 1),
)
def test_coherence_bit_identity_property(family, shape, seed):
    m, n = shape
    assert_coherence_is_the_block_scan(GENERATORS[family](m, n, seed).entries)


def test_coherence_of_a_single_row_is_one():
    assert assert_coherence_is_the_block_scan(gen_gaussian_normalized(1, 300, seed=4).entries) == 1.0
    signs = np.where(np.arange(600) % 3 == 0, -1.0, 1.0)[None, :]
    assert assert_coherence_is_the_block_scan(signs) == 1.0


def test_coherence_of_a_duplicated_column_clamps_at_one():
    e = gen_gaussian_normalized(16, 300, seed=6).entries
    for j in range(299):
        dup = e.copy()
        dup[:, 299] = dup[:, j]
        if block_scan_max(dup) > 1.0:  # the product rounds past Cauchy-Schwarz
            break
    else:
        pytest.fail("no duplicated column rounds past 1")
    assert assert_coherence_is_the_block_scan(dup) == 1.0


def test_coherence_when_the_largest_gram_entry_is_negative():
    e = gen_gaussian_normalized(32, 300, seed=8).entries.copy()
    e[:, 280] = -(e[:, 5] + 0.05 * e[:, 280])
    e[:, 280] /= np.linalg.norm(e[:, 280])
    gram = e.T @ e
    np.fill_diagonal(gram, 0.0)
    assert gram.flat[np.argmax(np.abs(gram))] < -0.99
    assert assert_coherence_is_the_block_scan(e) > 0.99


def near_tie(seed, gap=1e-9):
    """A 64x512 matrix whose two largest |G| entries are (0, 1) in block 0 and
    (300, 301) in block 1, the second larger by ``gap``."""
    e = gen_gaussian_normalized(64, 512, seed).entries.copy()
    u, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((64, 4)))
    for (i, j), (a, b), c in (((0, 1), (0, 1), 0.97), ((300, 301), (2, 3), 0.97 + gap)):
        e[:, i] = u[:, a]
        e[:, j] = c * u[:, a] + np.sqrt(1.0 - c * c) * u[:, b]
    return e


def tile_maxima(monkeypatch, e):
    """(dtype, value) of every Gram tile the coherence scan reduces, in order."""
    seen = []
    reduce = matgen._tile_max

    def recorded(gram, diagonal):
        seen.append((gram.dtype, reduce(gram, diagonal)))
        return seen[-1][1]

    monkeypatch.setattr(matgen, "_tile_max", recorded)
    mu = MeasurementMatrix(e).coherence
    monkeypatch.undo()
    return mu, [v for t, v in seen if t == np.float32], [v for t, v in seen if t == np.float64]


def test_coherence_near_tie_ranked_wrong_in_float32_is_resolved_in_double(monkeypatch):
    for seed in range(40):
        e = near_tie(seed)
        mu, screen, exact = tile_maxima(monkeypatch, e)
        if screen[0] > screen[2]:  # float32 ranks tile (0, 0)'s pair above tile (256, 256)'s
            break
    else:
        pytest.fail("float32 ranks the near tie correctly for every seed")
    upper = (e[:, 256:512].T @ e[:, 256:])[300 - 256, 301 - 256]
    lower = (e[:, :256].T @ e)[0, 1]
    assert 0 < upper - lower < 2e-9
    assert mu == upper == block_scan_max(e)
    assert len(screen) == 3
    assert len(exact) == 2  # both diagonal tiles were scanned again in float64


def test_coherence_screen_recomputes_fewer_than_every_tile(monkeypatch):
    e = gen_gaussian_normalized(128, 9 * 256, seed=10).entries
    mu, screen, exact = tile_maxima(monkeypatch, e)
    assert len(screen) == 9 * 10 // 2
    assert 1 <= len(exact) < 9 * 10 // 2
    assert mu == min(block_scan_max(e), 1.0)


def planted(m, n, i, j, c=0.99, seed=12):
    """A Gaussian matrix whose largest |G| entry, about c, is columns (i, j)."""
    e = gen_gaussian_normalized(m, n, seed).entries.copy()
    e[:, j] = c * e[:, i] + np.sqrt(1.0 - c * c) * e[:, j]
    e[:, j] /= np.sqrt(e[:, j] @ e[:, j])
    return e


@pytest.mark.parametrize("m,n,i,j", [
    (8, 549, 10, 548), (96, 582, 158, 577), (149, 1391, 482, 1387),  # a last N mod 8 column
    (444, 1024, 300, 301),  # a diagonal tile, M above BLAS's depth block
])
def test_coherence_largest_entry_where_tiles_round_otherwise_is_the_block_scans(m, n, i, j):
    """Products narrower than a row round these entries differently in BLAS; the
    rescan widens them so μ stays the block scan's to the bit."""
    assert_coherence_is_the_block_scan(planted(m, n, i, j))


def test_coherence_scratch_does_not_grow_with_n():
    def traced_peak(e):
        tracemalloc.start()
        try:
            mu = matgen._coherence_of(e)
            return tracemalloc.get_traced_memory()[1], mu
        finally:
            tracemalloc.stop()

    m = 256
    # two float32 M x 256 panels, a float32 tile and a two-tile float64 rescan, at any N;
    # the whole-matrix float32 copy alone took 4 MB at N = 4096
    bound = 2 * m * 256 * 4 + 256 * 256 * 4 + 256 * 512 * 8 + 2**16
    for n in (1024, 4096):
        e = gen_gaussian_normalized(m, n, seed=n).entries
        peak, mu = traced_peak(e)
        assert mu == min(block_scan_max(e), 1.0)
        assert peak < bound, (n, peak)


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


def test_save_load_roundtrip(tmp_path, monkeypatch):
    mat = gen_hybrid_normalized(12, 20, seed=4)
    path = tmp_path / "m.bin"
    save_matrix(mat, path)
    blob = path.read_bytes()
    assert blob[:8] == b"SPRSMAT2" and len(blob) == 32 + 8 * 12 * 20
    assert struct.unpack("<QQd", blob[8:32]) == (12, 20, mat.coherence)
    refuse_to_scan(monkeypatch)  # a format-v2 load reads the stored coherence
    back = load_matrix(path)
    assert back.m == 12 and back.n == 20
    assert np.array_equal(back.entries, mat.entries)
    assert back.coherence == mat.coherence


def test_save_writes_the_payload_without_copying_it(tmp_path):
    mat = gen_gaussian_normalized(256, 1024, seed=5)  # a 2 MB payload
    header = b"SPRSMAT2" + struct.pack("<QQd", 256, 1024, mat.coherence)
    path = tmp_path / "m.bin"
    tracemalloc.start()
    try:
        save_matrix(mat, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes() == header + mat.entries.tobytes(order="F")
    assert peak < 2**20


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


def one_column_off_unit_norm(off):
    e = gen_gaussian_normalized(8, 12, seed=3).entries.copy()
    e[:, 5] *= 1.0 + off
    return e


def matrix_file_bytes(e):
    return MAGIC + struct.pack("<QQ", *e.shape) + np.asfortranarray(e).tobytes(order="F")


@pytest.mark.parametrize("off", [2e-12, -2e-12, float("nan")])
def test_validation_rejects_a_column_off_unit_norm_by_name(tmp_path, off):
    e = one_column_off_unit_norm(off)
    with pytest.raises(ValueError, match="column 5 has norm"):
        MeasurementMatrix(e)
    path = tmp_path / "off.bin"
    path.write_bytes(matrix_file_bytes(e))
    with pytest.raises(MatrixFormatError, match="byte offset 24.*column 5 has norm"):
        load_matrix(path)


@pytest.mark.parametrize("off", [5e-13, -5e-13])
def test_validation_accepts_a_column_within_tolerance(tmp_path, off):
    e = one_column_off_unit_norm(off)
    assert np.array_equal(MeasurementMatrix(e).entries, e)
    path = tmp_path / "near.bin"
    path.write_bytes(matrix_file_bytes(e))
    assert np.array_equal(load_matrix(path).entries, e)


def v2_file_bytes(e, mu):
    return (b"SPRSMAT2" + struct.pack("<QQd", *e.shape, mu)
            + np.asfortranarray(e).tobytes(order="F"))


def refuse_to_scan(monkeypatch):
    def refuse(entries):
        raise AssertionError("coherence rescanned")
    monkeypatch.setattr(matgen, "_coherence_of", refuse)


@pytest.mark.parametrize("gen, m, n, seed, mu", [
    (gen_gaussian_normalized, 8, 12, 3, 0.752456615441701),
    (gen_hybrid_normalized, 12, 20, 4, 0.9963306842350274),
    (gen_gaussian_normalized, 64, 300, 7, 0.5460024241254061),
])
def test_v1_file_still_loads_and_computes_the_same_coherence(tmp_path, gen, m, n, seed, mu):
    e = gen(m, n, seed=seed).entries
    path = tmp_path / "v1.bin"
    path.write_bytes(matrix_file_bytes(e))
    back = load_matrix(path)
    assert np.array_equal(back.entries, e)
    assert back.coherence == mu  # the value format-v1 files gave before format v2


@pytest.mark.parametrize("mu", [float("nan"), -0.1, 1.5])
def test_v2_stored_coherence_outside_unit_interval_names_offset_24(tmp_path, monkeypatch, mu):
    path = tmp_path / "bad_mu.bin"
    path.write_bytes(v2_file_bytes(gen_gaussian_normalized(8, 12, seed=3).entries, mu))
    refuse_to_scan(monkeypatch)
    with pytest.raises(MatrixFormatError, match="byte offset 24"):
        load_matrix(path)


@pytest.mark.parametrize("cut", [8, 20, 24, 31])
def test_v2_truncated_header_names_its_offset(tmp_path, cut):
    path = tmp_path / "cut.bin"
    path.write_bytes(v2_file_bytes(np.eye(2), 0.0)[:cut])
    with pytest.raises(MatrixFormatError, match=f"truncated header at byte offset {cut}: need 32"):
        load_matrix(path)


@pytest.mark.parametrize("delta", [-8, -1, 8])
def test_v2_wrong_payload_length_expects_32_plus_8mn(tmp_path, delta):
    blob = v2_file_bytes(np.eye(2, 3), 0.0)
    path = tmp_path / "len.bin"
    path.write_bytes(blob[:delta] if delta < 0 else blob + b"\x00" * delta)
    with pytest.raises(MatrixFormatError, match=f"expected {32 + 8 * 2 * 3} for 2x3"):
        load_matrix(path)


def test_v2_payload_checks_unit_norm_at_offset_32(tmp_path):
    path = tmp_path / "off.bin"
    path.write_bytes(v2_file_bytes(one_column_off_unit_norm(2e-12), 0.5))
    with pytest.raises(MatrixFormatError, match="byte offset 32.*column 5 has norm"):
        load_matrix(path)


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
