"""Measurement matrix generation, coherence, and file I/O.

Two column-normalized families are provided: i.i.d. Gaussian columns, and a
"hybrid" family with per-column constant offsets whose coherence is close to 1.
Generation is deterministic in the seed: column j is drawn from the stream
``streams.stream(seed, TAG_COLUMN, j)``. One Philox generator per matrix is
re-keyed to each column's stream rather than one built per column, which
gives the same draws.

Coherence: the Gram matrix's upper triangle in 256 x 256 tiles, a float32 screen
of every tile, then a float64 rescan of only the tiles within 2δ of the screen's
largest, bit-identical to a float64 scan of every 256-column block times the
columns from its start. Scratch is two float32 M x 256 panels and one tile
product, whatever N is.
δ = (γ32_{M+2} + γ64_M)(1 + NORM_TOL)² bounds |G32 − G64|, γ_n = nu/(1 − nu) (Higham §3.1).
"""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, MatrixFormatError
from .streams import TAG_COLUMN, TAG_OFFSET, check_seed, stream

MAGIC = b"SPRSMAT1"  # format v1: M, N, payload at byte 24; still read
MAGIC_V2 = b"SPRSMAT2"  # format v2: M, N, coherence, payload at byte 32
_PAYLOAD_AT = {MAGIC: 24, MAGIC_V2: 32}
NORM_TOL = 1e-12
_COH_BLOCK = 256  # columns per Gram tile side


@dataclass
class MeasurementMatrix:
    """Dense M x N matrix with unit-norm columns and a lazily cached coherence.

    Immutable after construction: ``entries`` is marked read-only, and the
    cached coherence is idempotent under concurrent first access. A coherence
    passed as the second argument is taken as the matrix's own and never
    rescanned: ``load_matrix`` passes the one a format-v2 file stores.
    """

    entries: np.ndarray
    _coherence: float | None = field(default=None, repr=False)

    def __post_init__(self):
        e = np.asfortranarray(self.entries, dtype=np.float64)
        if e.ndim != 2:
            raise ValueError("entries must be a 2-D array")
        m, n = e.shape
        if m == 0 or n == 0:
            raise ValueError("matrix must be non-empty")
        if m > n:
            raise ValueError(f"require M <= N, got M={m}, N={n}")
        norms = np.sqrt(np.einsum("ij,ij->j", e, e))  # one pass, no M x N temporary
        bad = ~(np.abs(norms - 1.0) <= NORM_TOL)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"column {j} has norm {norms[j]!r}, expected 1 within {NORM_TOL}")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def coherence(self) -> float:
        if self._coherence is None:
            object.__setattr__(self, "_coherence", _coherence_of(self.entries))
        return self._coherence


def _tile_max(gram: np.ndarray, diagonal: bool) -> float:
    """Largest |G| of a Gram tile, its leading diagonal zeroed in place first when the
    tile holds the Gram diagonal; no |G| copy."""
    if diagonal:
        idx = np.arange(min(gram.shape))
        gram[idx, idx] = 0.0
    return float(max(gram.max(), -gram.min()))


def _coherence_of(entries: np.ndarray) -> float:
    """Max off-diagonal |G| of the upper triangle, in tiles of rows [s, s + 256) times
    columns [t, t + 256), t >= s: a float32 screen of every tile from two reused panels,
    then a float64 rescan of the tiles within 2δ of the screen's largest.

    The float64 rescan reproduces the row products [s, N) of a plain block scan bit for
    bit. BLAS rounds a product's last N mod 8 columns by its width, and numpy multiplies
    a block by itself with syrk, which rounds otherwise. So a rescanned tile from column
    N - N mod 256 - 512 on is widened to run from there (or from s) to N, and a diagonal
    tile to two tiles: each rescan product is then the whole row or 512 columns or more."""
    (m, n), b = entries.shape, _COH_BLOCK
    left, right = (np.empty((m, b), np.float32, order="F") for _ in range(2))
    screen = {}
    for s in range(0, n, b):
        lhs = left[:, :min(b, n - s)]
        np.copyto(lhs, entries[:, s:s + b])
        for t in range(s, n, b):
            rhs = right[:, :min(b, n - t)]
            np.copyto(rhs, entries[:, t:t + b])
            screen[s, t] = _tile_max(rhs.T @ lhs, s == t)
    delta = sum(k * v / (1 - k * v) for k, v in ((m + 2, 2.0**-24), (m, 2.0**-53)))
    cut = max(screen.values()) - 2.0 * delta * (1.0 + NORM_TOL) ** 2
    tail = n - n % b - 2 * b if n % b else n
    rescan = {(s, max(s, tail), n) if t >= tail else (s, t, min(n, t + (2 * b if s == t else b)))
              for (s, t), v in screen.items() if v >= cut}
    return min(1.0, max(_tile_max(entries[:, s:s + b].T @ entries[:, t:u], s == t)
                        for s, t, u in rescan))  # unit columns: Cauchy-Schwarz


def check_shape(m: int, n: int):
    """Refuse a shape before anything is allocated: one numpy cannot size or with
    M > N (ValueError), or one whose 8·M·N bytes exceed physical memory (InvalidParams)."""
    if m < 1 or n < 1 or m * n > np.iinfo(np.intp).max // 8:  # numpy could not size the array
        raise ValueError(f"require M >= 1, N >= 1 and 8*M*N < 2**63, got M={m}, N={n}")
    if m > n:
        raise ValueError(f"require M <= N, got M={m}, N={n}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * m * n > memory:
        raise InvalidParams(f"a {m}x{n} matrix needs {8 * m * n} bytes, more than the "
                            f"{memory} bytes of physical memory")


def _unit_columns(m: int, n: int, seed: int, scale=None, offsets=None) -> MeasurementMatrix:
    """Column j: ``stream(seed, TAG_COLUMN, j).standard_normal(m)`` times
    ``scale`` or plus ``offsets[j]``, divided by its norm, all in place in a
    Fortran-order output. One generator is re-keyed per column: its Philox
    state is set to a fresh generator's with column j's key, so it draws what
    ``stream(seed, TAG_COLUMN, j)`` would. ``sqrt(col @ col)`` is what
    ``np.linalg.norm`` computes for a vector."""
    gen = stream(seed, TAG_COLUMN, 0)
    fresh = gen.bit_generator.state
    key = fresh["state"]["key"]
    out = np.empty((m, n), order="F")
    for j in range(n):
        key[1] = (TAG_COLUMN << 48) | j
        gen.bit_generator.state = fresh
        col = out[:, j]
        gen.standard_normal(out=col)
        if scale is not None:
            col *= scale
        else:
            col += offsets[j]
        col /= np.sqrt(col @ col)
    return MeasurementMatrix(out)


def gen_gaussian_normalized(m: int, n: int, seed: int) -> MeasurementMatrix:
    """Gaussian matrix: entries i.i.d. N(0, 1/M), columns rescaled to unit norm.

    Column j comes from its own counter-based stream ``(seed, TAG_COLUMN, j)``,
    so the matrix is bit-identical for identical (m, n, seed).
    """
    check_shape(m, n)
    check_seed(seed)
    return _unit_columns(m, n, seed, scale=1.0 / np.sqrt(m))


def gen_hybrid_normalized(
    m: int, n: int, seed: int, offset_max: float = 10.0
) -> MeasurementMatrix:
    """Hybrid matrix: column j is N(0,1) entries plus a constant offset, normalized.

    The offsets are one draw of n values from ``(seed, TAG_OFFSET)``, uniform
    on [0, offset_max]; column j's entries come from ``(seed, TAG_COLUMN, j)``.
    Large offsets align columns with the all-ones direction, driving
    coherence toward 1. ``offset_max=0`` reduces to the Gaussian family up to
    column scaling.
    """
    check_shape(m, n)
    check_seed(seed)
    if not 0.0 <= offset_max < np.inf:
        raise ValueError(f"offset_max must be finite and >= 0, got {offset_max}")
    offsets = stream(seed, TAG_OFFSET).uniform(0.0, offset_max, size=n)
    return _unit_columns(m, n, seed, offsets=offsets)


def save_matrix(matrix: MeasurementMatrix, path) -> None:
    """Write format v2: magic ``SPRSMAT2``, u64 M, u64 N, f64 coherence, then
    column-major f64 entries at byte 32. The coherence is the matrix's own,
    computed here if it is not cached yet."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_V2)
        fh.write(struct.pack("<QQd", matrix.m, matrix.n, matrix.coherence))
        matrix.entries.T.tofile(fh)  # entries are Fortran-ordered: no payload copy


def load_matrix(path) -> MeasurementMatrix:
    """Read format v2 or v1; malformed files raise with a byte offset.

    A v2 file's stored coherence, checked to lie in [0, 1], becomes the
    matrix's, so it is never rescanned; a v1 file's is computed on first use.
    Every column's unit norm is checked in both formats.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    start = _PAYLOAD_AT.get(blob[:8])
    if start is None:
        raise MatrixFormatError(f"bad magic at byte offset 0: expected {MAGIC_V2!r} or {MAGIC!r}")
    if len(blob) < start:
        raise MatrixFormatError(f"truncated header at byte offset {len(blob)}: need {start} bytes")
    m, n = struct.unpack("<QQ", blob[8:24])
    if m == 0 or n == 0 or m > n:
        raise MatrixFormatError(f"bad dimensions M={m}, N={n} at byte offset 8")
    mu = struct.unpack("<d", blob[24:32])[0] if start == 32 else None
    if mu is not None and not 0.0 <= mu <= 1.0:
        raise MatrixFormatError(f"coherence {mu!r} at byte offset 24 is not in [0, 1]")
    expect = start + 8 * m * n
    if len(blob) != expect:
        raise MatrixFormatError(
            f"payload ends at byte offset {len(blob)}, expected {expect} for {m}x{n} doubles"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=start)
    entries = flat.reshape((m, n), order="F")
    try:
        return MeasurementMatrix(entries, mu)
    except ValueError as exc:
        raise MatrixFormatError(f"payload at byte offset {start} is not a valid matrix: {exc}") from exc


def export_csv(matrix: MeasurementMatrix, path) -> None:
    """Write entries as CSV, one line per matrix row, full %.17g precision."""
    with open(path, "w") as fh:
        for i in range(matrix.m):
            fh.write(",".join(f"{v:.17g}" for v in matrix.entries[i, :]))
            fh.write("\n")
