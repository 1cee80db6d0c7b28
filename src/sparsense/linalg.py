"""Least-squares solves on column subsets.

This is the inner kernel of every greedy algorithm here: fit y on a
selected column subset, leaving the residual of y outside the subset's
span. A support's columns E_S are factored by Householder QR, E_S = QR, and
only the k x k R^-1 is kept: it does not depend on y, so a sweep caches it
per trial in ``factors``, keyed by the ordered support tuple. y is solved by
the corrected seminormal equations (Bjorck 1996, sec. 2.4),
``x = R^-1 R^-T E_S^T y`` plus one refinement on its residual. The columns
are rank deficient when their singular value ratio is below ``RANK_RTOL``.
That ratio's lower bound ``1 / (||R||_F ||R^-1||_F)`` certifies full rank
where it reaches ``RANK_RTOL``; elsewhere the SVD of R decides. An exactly
singular R is rank deficient.
"""

from collections.abc import Sequence

import numpy as np

from .errors import RankDeficient
from .matgen import MeasurementMatrix

RANK_RTOL = 1e-10  # smallest/largest singular value ratio below this is rank deficient


def _entries(d) -> np.ndarray:
    return d.entries if isinstance(d, MeasurementMatrix) else np.asarray(d, dtype=np.float64)


def check_support(support: Sequence[int], n: int) -> list[int]:
    """Validate an ordered support: distinct integer indices in [0, n)."""
    out = []
    seen = set()
    for idx in support:
        i = int(idx)
        if i != idx:
            raise ValueError(f"support index {idx!r} is not an integer")
        if not 0 <= i < n:
            raise ValueError(f"support index {i} out of range [0, {n})")
        if i in seen:
            raise ValueError(f"duplicate support index {i}")
        seen.add(i)
        out.append(i)
    return out


def _r_inverse(sub: np.ndarray, support: list[int]) -> np.ndarray:
    """Read-only R^-1 of the Householder QR of sub; RankDeficient if sub is."""
    r = np.linalg.qr(sub, mode="r")
    try:
        rinv = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        raise RankDeficient(f"columns {support} are exactly dependent") from None
    if not np.linalg.norm(r) * np.linalg.norm(rinv) <= 1.0 / RANK_RTOL:
        svals = np.linalg.svd(r, compute_uv=False)
        if svals[-1] < RANK_RTOL * svals[0]:
            raise RankDeficient(f"columns {support} are numerically dependent "
                                f"(singular value ratio {svals[-1] / svals[0]:.3e})")
    rinv.flags.writeable = False
    return rinv


def _solve_on_support(e: np.ndarray, y: np.ndarray, support: list[int], factors) -> np.ndarray:
    """Coefficients of the least-squares fit of y on the support columns."""
    m = e.shape[0]
    if len(support) > m:
        raise RankDeficient(f"support size {len(support)} exceeds row count {m}")
    sub = e[:, support]
    factors = {} if factors is None else factors
    rinv = factors.get(key := tuple(support))
    if rinv is None:
        rinv = factors[key] = _r_inverse(sub, support)
    x = rinv @ (rinv.T @ (sub.T @ y))
    return x + rinv @ (rinv.T @ (sub.T @ (y - sub @ x)))


def least_squares_on_support(d, y, support: Sequence[int], factors=None) -> np.ndarray:
    """N-vector that is zero off the support and minimizes ||y - Dx|| on it;
    ``factors``, a dict or None, is the factor cache to read and fill."""
    e = _entries(d)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (e.shape[0],):
        raise ValueError(f"y has shape {y.shape}, expected ({e.shape[0]},)")
    sup = check_support(support, e.shape[1])
    x = np.zeros(e.shape[1])
    if sup:
        x[sup] = _solve_on_support(e, y, sup, factors)
    return x
