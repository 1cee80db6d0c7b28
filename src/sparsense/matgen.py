"""Measurement matrix generation, coherence, and file I/O.

Two column-normalized families are provided: i.i.d. Gaussian columns, and a
"hybrid" family with per-column constant offsets whose coherence is close to 1.
Generation is deterministic in the seed, with one Philox stream per column.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import MatrixFormatError
from .streams import TAG_COLUMN, TAG_OFFSET, check_seed, stream

MAGIC = b"SPRSMAT1"
NORM_TOL = 1e-12
_COH_BLOCK = 256  # columns per Gram block: scratch is at most 256 x N doubles


@dataclass
class MeasurementMatrix:
    """Dense M x N matrix with unit-norm columns and a lazily cached coherence.

    Immutable after construction: ``entries`` is marked read-only, and the
    cached coherence is idempotent under concurrent first access.
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
        norms = np.linalg.norm(e, axis=0)
        bad = np.abs(norms - 1.0) > NORM_TOL
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


def _coherence_of(entries: np.ndarray) -> float:
    """Max absolute off-diagonal Gram entry over the upper triangle, in column
    blocks: block [s, e) is multiplied only against columns [s, N)."""
    n = entries.shape[1]
    best = 0.0
    for start in range(0, n, _COH_BLOCK):
        end = min(start + _COH_BLOCK, n)
        gram = entries[:, start:end].T @ entries[:, start:]
        idx = np.arange(end - start)
        gram[idx, idx] = 0.0
        best = max(best, float(np.abs(gram).max()))
    return min(best, 1.0)  # unit columns: rounding may not push past Cauchy-Schwarz


def coherence(matrix: MeasurementMatrix) -> float:
    """Coherence of a unit-column matrix, cached on the matrix."""
    return matrix.coherence


def _check_shape(m: int, n: int):
    if m < 1 or n < 1:
        raise ValueError(f"require M >= 1 and N >= 1, got M={m}, N={n}")
    if m > n:
        raise ValueError(f"require M <= N, got M={m}, N={n}")


def gen_gaussian_normalized(m: int, n: int, seed: int) -> MeasurementMatrix:
    """Gaussian matrix: entries i.i.d. N(0, 1/M), columns rescaled to unit norm.

    Column j is drawn from its own counter-based stream, so the matrix is
    bit-identical for identical (m, n, seed).
    """
    _check_shape(m, n)
    check_seed(seed)
    scale = 1.0 / np.sqrt(m)
    out = np.empty((m, n), order="F")
    for j in range(n):
        col = stream(seed, TAG_COLUMN, j).standard_normal(m) * scale
        out[:, j] = col / np.linalg.norm(col)
    return MeasurementMatrix(out)


def gen_hybrid_normalized(
    m: int, n: int, seed: int, offset_max: float = 10.0
) -> MeasurementMatrix:
    """Hybrid matrix: column j is N(0,1) entries plus a constant offset, normalized.

    The offset of column j is drawn uniformly from [0, offset_max]; large
    offsets align columns with the all-ones direction, driving coherence
    toward 1. ``offset_max=0`` reduces to the Gaussian family up to column
    scaling.
    """
    _check_shape(m, n)
    check_seed(seed)
    if offset_max < 0:
        raise ValueError(f"offset_max must be >= 0, got {offset_max}")
    offsets = stream(seed, TAG_OFFSET).uniform(0.0, offset_max, size=n)
    out = np.empty((m, n), order="F")
    for j in range(n):
        col = stream(seed, TAG_COLUMN, j).standard_normal(m) + offsets[j]
        out[:, j] = col / np.linalg.norm(col)
    return MeasurementMatrix(out)


def save_matrix(matrix: MeasurementMatrix, path) -> None:
    """Write the flat binary format: magic, u64 M, u64 N, column-major f64 entries."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", matrix.m, matrix.n))
        fh.write(np.asfortranarray(matrix.entries).tobytes(order="F"))


def load_matrix(path) -> MeasurementMatrix:
    """Read the flat binary format; malformed files raise with a byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:8] != MAGIC:
        raise MatrixFormatError(f"bad magic at byte offset 0: expected {MAGIC!r}")
    if len(blob) < 24:
        raise MatrixFormatError(f"truncated header at byte offset {len(blob)}: need 24 bytes")
    m, n = struct.unpack("<QQ", blob[8:24])
    if m == 0 or n == 0 or m > n:
        raise MatrixFormatError(f"bad dimensions M={m}, N={n} at byte offset 8")
    expect = 24 + 8 * m * n
    if len(blob) != expect:
        raise MatrixFormatError(
            f"payload ends at byte offset {len(blob)}, expected {expect} for {m}x{n} doubles"
        )
    flat = np.frombuffer(blob, dtype="<f8", offset=24)
    entries = flat.reshape((m, n), order="F")
    try:
        return MeasurementMatrix(entries)
    except ValueError as exc:
        raise MatrixFormatError(f"payload at byte offset 24 is not a valid matrix: {exc}") from exc


def export_csv(matrix: MeasurementMatrix, path) -> None:
    """Write entries as CSV, one line per matrix row, full %.17g precision."""
    with open(path, "w") as fh:
        for i in range(matrix.m):
            fh.write(",".join(f"{v:.17g}" for v in matrix.entries[i, :]))
            fh.write("\n")
