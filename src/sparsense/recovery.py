"""Greedy sparse-recovery algorithms sharing one recorded selection path.

Provided algorithms:

* ``run_bols``  - orthogonal least squares with the blind stopping rule
  ``max_j |<d_j, r>| / ||r|| <= omega_star * mu`` (needs neither the sparsity
  nor the noise level).
* ``run_bomp``  - matching pursuit selection with the same blind rule.
* ``run_ols_known_k`` / ``run_omp_known_k`` - conventional variants that stop
  after exactly K iterations.
* ``run_cosamp`` - identify 2K, merge, least squares, prune to K.
* ``run_mols``   - L atoms per iteration by the least-squares criterion,
  pruned to the K largest coefficients at the end.

The four greedy runners are cuts of a ``GreedyPath``: the selection sequence
depends only on (D, y, rule), and a stop rule only decides where to stop, so
callers running several of them on one y can pass one shared path.

OLS selection uses the normalized-correlation identity
``argmin_j ||P_perp(S+j) y||^2 == argmax_j |<d_j, r>| / ||P_perp(S) d_j||``
with an incrementally maintained orthonormal basis, which costs O(MN) per
iteration instead of one least-squares solve per candidate.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParams, RankDeficient, ZeroResidual
from .linalg import check_support, least_squares_on_support
from .matgen import MeasurementMatrix

RESIDUAL_FLOOR_REL = 1e-12  # residual below this fraction of ||y|| stops every algorithm
SPAN_TOL = 1e-12            # candidates with ||P_perp d_j|| below this are ineligible
BLIND_CAP_FLOOR = 32        # default iteration cap never drops below this (see ledger)


class StopReason(str, Enum):
    BLIND_THRESHOLD_MET = "BlindThresholdMet"
    REACHED_KNOWN_K = "ReachedKnownK"
    REACHED_MAX_ITERATIONS = "ReachedMaxIterations"
    RESIDUAL_BELOW_FLOOR = "ResidualBelowFloor"
    RANK_DEFICIENT = "RankDeficient"


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    support: list[int]
    iterations: int
    residual_norm_history: list[float]  # starts with ||y||, one entry per iteration after
    stop_reason: StopReason


@dataclass
class BlindStopParams:
    """Parameters of the blind stopping rule.

    ``omega_star`` scales the coherence to form the stop threshold
    ``omega_star * mu``. ``max_iterations`` is a safety cap only; when None it
    defaults to ``min(M, max(2 * ceil((1 + 1/mu) / 2), 32))`` so the cap never
    cuts off the rule's own stopping point on high-coherence matrices.
    """

    omega_star: float
    mu: float
    max_iterations: int | None = None

    def __post_init__(self):
        if not self.omega_star >= 0.0:
            raise InvalidParams(f"omega_star must be >= 0, got {self.omega_star}")
        if not 0.0 < self.mu <= 1.0:
            raise InvalidParams(f"mu must be in (0, 1], got {self.mu}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidParams(f"max_iterations must be positive, got {self.max_iterations}")

    def cap(self, m: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        ceil_c = math.ceil((1.0 + 1.0 / self.mu) / 2.0)
        return min(m, max(2 * ceil_c, BLIND_CAP_FLOOR))


def _entries(d) -> np.ndarray:
    return d.entries if isinstance(d, MeasurementMatrix) else np.asarray(d, dtype=np.float64)


def blind_stop_statistic(d, r) -> float:
    """max_j |<d_j, r>| divided by ||r||; raises ZeroResidual on a vanished residual."""
    e = _entries(d)
    r = np.asarray(r, dtype=np.float64)
    rnorm = float(np.linalg.norm(r))
    if rnorm < 1e-300:
        raise ZeroResidual("residual norm is numerically zero")
    return float(np.abs(e.T @ r).max()) / rnorm


class _GreedyState:
    """Selected support plus an incrementally grown orthonormal basis of it."""

    def __init__(self, e: np.ndarray, y: np.ndarray):
        self.e = e
        m, n = e.shape
        self.basis = np.zeros((m, 0))
        self.proj_sq = np.zeros(n)  # per column j: ||P_S d_j||^2
        self.selected: list[int] = []
        self.mask = np.zeros(n, dtype=bool)
        self.r = y.astype(np.float64).copy()

    def perp_norms(self) -> np.ndarray:
        return np.sqrt(np.clip(1.0 - self.proj_sq, 0.0, None))

    def add(self, j: int) -> None:
        """Select column j; Gram-Schmidt with one re-orthogonalization pass."""
        col = self.e[:, j]
        v = col - self.basis @ (self.basis.T @ col)
        v -= self.basis @ (self.basis.T @ v)
        nv = float(np.linalg.norm(v))
        if nv <= 1e-10:
            raise RankDeficient(f"column {j} is numerically inside the selected span")
        q = v / nv
        self.basis = np.column_stack([self.basis, q])
        self.proj_sq += (q @ self.e) ** 2
        self.r -= q * (q @ self.r)
        self.selected.append(j)
        self.mask[j] = True


def _scores(state: _GreedyState, rule: str, corr: np.ndarray) -> np.ndarray | None:
    """Selection score of every column, -1 where ineligible; None if none is eligible.

    OLS scores ``|<d_j, r>| / ||P_perp d_j||``, matching pursuit ``|<d_j, r>|``.
    """
    w = state.perp_norms()
    eligible = (~state.mask) & (w > SPAN_TOL)
    if not eligible.any():
        return None
    if rule == "ols":
        return np.where(eligible, corr / np.where(w > SPAN_TOL, w, 1.0), -1.0)
    return np.where(eligible, corr, -1.0)


def _select(state: _GreedyState, rule: str, corr: np.ndarray | None = None) -> int | None:
    """Best unselected column, ties to the lowest index; None if none eligible."""
    if corr is None:
        corr = np.abs(state.e.T @ state.r)
    score = _scores(state, rule, corr)
    return None if score is None else int(np.argmax(score))


def ols_select(d, y, support) -> int:
    """Unselected index minimizing the projection residual after augmentation."""
    e = _entries(d)
    y = np.asarray(y, dtype=np.float64)
    sup = check_support(support, e.shape[1])
    if len(sup) >= e.shape[0]:
        raise RankDeficient(f"support size {len(sup)} leaves no room in {e.shape[0]} rows")
    state = _GreedyState(e, y)
    for j in sup:
        state.add(j)
    pick = _select(state, "ols")
    if pick is None:
        raise RankDeficient("every remaining column lies in the selected span")
    return pick


_RULES = ("ols", "omp")


class GreedyPath:
    """One greedy selection run of y over the columns of d, grown on demand.

    Step i is the state after i picks. For every step reached the path keeps
    the residual norm ``residual_norms[i]`` and, once a cut or a pick has
    needed it, the blind statistic ``statistics[i] = max_j |<d_j, r_i>| /
    ||r_i||``; ``picks[i]`` is the column added at step i. The picks depend
    only on (d, y, rule), so every stop rule is a cut of one path and the
    algorithms sharing a selection rule can share the path of one y.
    """

    def __init__(self, d, y, rule: str):
        if rule not in _RULES:
            raise InvalidParams(f"unknown selection rule {rule!r}; known: {_RULES}")
        e = _entries(d)
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (e.shape[0],):
            raise InvalidParams(f"y has shape {y.shape}, expected ({e.shape[0]},)")
        self.e, self.y, self.rule = e, y, rule
        self._state = _GreedyState(e, y)
        self._corr: np.ndarray | None = None  # |E^T r| at the last step, once computed
        self.picks: list[int] = self._state.selected
        ynorm = float(np.linalg.norm(y))
        self.floor = RESIDUAL_FLOOR_REL * ynorm
        self.residual_norms = [ynorm]
        self.statistics: list[float] = []
        self._exhausted = False  # no column can be added to the last step

    def statistic(self, i: int) -> float:
        """Blind statistic at step i, for i up to the number of picks."""
        if i == len(self.statistics):
            self._corr = np.abs(self.e.T @ self._state.r)
            self.statistics.append(float(self._corr.max()) / self.residual_norms[i])
        return self.statistics[i]

    def grow(self, i: int) -> bool:
        """Make sure pick i exists; False when no column can extend step i or
        the path has reached the residual floor."""
        while len(self.picks) <= i and not self._exhausted:
            if self.residual_norms[-1] <= self.floor:
                break
            self.statistic(len(self.picks))
            pick = _select(self._state, self.rule, self._corr)
            if pick is None:
                self._exhausted = True
                break
            try:
                self._state.add(pick)
            except RankDeficient:
                self._exhausted = True
                break
            self.residual_norms.append(float(np.linalg.norm(self._state.r)))
        return len(self.picks) > i


def _stop_at(path: GreedyPath, i: int, threshold, known_k, cap) -> StopReason | None:
    """The stop rule that fires at step i, None if none does. Rules are
    checked in this order: residual floor, blind threshold, known K,
    iteration cap, no further pick."""
    if path.residual_norms[i] <= path.floor:
        return StopReason.RESIDUAL_BELOW_FLOOR
    if threshold is not None and path.statistic(i) <= threshold:
        return StopReason.BLIND_THRESHOLD_MET
    if known_k is not None and i >= known_k:
        return StopReason.REACHED_KNOWN_K
    if i >= cap:
        return StopReason.REACHED_MAX_ITERATIONS
    if not path.grow(i):
        return StopReason.RANK_DEFICIENT
    return None


def _cut(
    path: GreedyPath,
    threshold: float | None = None,
    known_k: int | None = None,
    cap: int | None = None,
) -> RecoveryResult:
    """Result at the first step of the path where a stop rule fires."""
    m = path.e.shape[0]
    cap = m if cap is None else min(cap, m)
    i = 0
    while (reason := _stop_at(path, i, threshold, known_k, cap)) is None:
        i += 1
    support = path.picks[:i]
    try:
        x_hat = least_squares_on_support(path.e, path.y, support)
    except RankDeficient:
        x_hat = np.zeros(path.e.shape[1])
        reason = StopReason.RANK_DEFICIENT
    return RecoveryResult(
        x_hat=x_hat,
        support=support,
        iterations=i,
        residual_norm_history=path.residual_norms[: i + 1],
        stop_reason=reason,
    )


def _path_for(d, y, rule: str, path: GreedyPath | None) -> GreedyPath:
    if path is None:
        return GreedyPath(d, y, rule)
    if path.rule != rule:
        raise InvalidParams(f"needs a {rule} path, got a {path.rule} path")
    return path


def run_bols(d, y, params: BlindStopParams, path: GreedyPath | None = None) -> RecoveryResult:
    """Blind orthogonal least squares: OLS selection until the statistic drops
    to ``omega_star * mu`` (or the residual floor / iteration cap is hit).

    ``path``, if given, is an OLS path of this y over d to cut instead of a
    fresh one; the same holds for the other greedy runners.
    """
    path = _path_for(d, y, "ols", path)
    return _cut(path, params.omega_star * params.mu, cap=params.cap(path.e.shape[0]))


def run_bomp(d, y, params: BlindStopParams, path: GreedyPath | None = None) -> RecoveryResult:
    """Blind matching pursuit: correlation selection, same stopping rule as run_bols."""
    path = _path_for(d, y, "omp", path)
    return _cut(path, params.omega_star * params.mu, cap=params.cap(path.e.shape[0]))


def run_ols_known_k(d, y, k: int, path: GreedyPath | None = None) -> RecoveryResult:
    """OLS that stops after exactly k iterations (earlier on the residual floor)."""
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    return _cut(_path_for(d, y, "ols", path), known_k=k)


def run_omp_known_k(d, y, k: int, path: GreedyPath | None = None) -> RecoveryResult:
    """Matching pursuit that stops after exactly k iterations."""
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    return _cut(_path_for(d, y, "omp", path), known_k=k)


def run_cosamp(d, y, k: int, max_iterations: int = 50) -> RecoveryResult:
    """Compressive sampling matching pursuit: identify 2k, merge, solve, prune to k.

    Stops on residual stagnation (relative change below 1e-6, reported as
    ResidualBelowFloor), the residual floor, or max_iterations. Rank failures
    on the merged support end the run with the last good estimate.
    """
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
            reason = StopReason.RESIDUAL_BELOW_FLOOR
            break
        prev = rnorm
    support = [int(i) for i in np.nonzero(x)[0]]
    return RecoveryResult(x, support, iters, history, reason)


def run_mols(d, y, k: int, subset_size: int) -> RecoveryResult:
    """Multiple-selection OLS: the subset_size best candidates per iteration.

    Candidates are ranked one-at-a-time against the current support by the
    OLS criterion. Selection stops once k atoms are collected; the final
    least-squares estimate is pruned to the k largest coefficients.
    """
    e = _entries(d)
    y = np.asarray(y, dtype=np.float64)
    m, n = e.shape
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    if subset_size < 1:
        raise InvalidParams(f"subset_size must be >= 1, got {subset_size}")
    if subset_size * math.ceil(k / max(subset_size, 1)) > m:
        raise InvalidParams(
            f"subset_size {subset_size} with k {k} may select more than M={m} atoms"
        )
    state = _GreedyState(e, y)
    ynorm = float(np.linalg.norm(y))
    history = [ynorm]
    reason = StopReason.REACHED_KNOWN_K
    rounds = 0
    while len(state.selected) < k:
        if float(np.linalg.norm(state.r)) <= RESIDUAL_FLOOR_REL * ynorm:
            reason = StopReason.RESIDUAL_BELOW_FLOOR
            break
        score = _scores(state, "ols", np.abs(e.T @ state.r))
        if score is None:
            reason = StopReason.RANK_DEFICIENT
            break
        order = np.argsort(-score, kind="stable")[:subset_size]
        for j in order:
            if score[j] < 0:
                break
            try:
                state.add(int(j))
            except RankDeficient:
                continue
        rounds += 1
        history.append(float(np.linalg.norm(state.r)))
    try:
        full = least_squares_on_support(e, y, state.selected)
    except RankDeficient:
        return RecoveryResult(np.zeros(n), [], rounds, history, StopReason.RANK_DEFICIENT)
    x = np.zeros(n)
    if k and state.selected:
        keep = np.argsort(np.abs(full))[-k:]
        x[keep] = full[keep]
    support = [int(i) for i in np.nonzero(x)[0]]
    return RecoveryResult(x, support, rounds, history, reason)
