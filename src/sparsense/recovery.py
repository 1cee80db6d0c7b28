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
``GreedyPath.select`` is the only code that picks columns: a cut grows its
path one column per step, and a MOLS round adds its L columns in one step.

OLS selection uses the normalized-correlation identity
``argmin_j ||P_perp(S+j) y||^2 == argmax_j |<d_j, r>| / ||P_perp(S) d_j||``
with an incrementally maintained orthonormal basis instead of one
least-squares solve per candidate. Each step makes one O(MN) product
``g = E^T q`` with the new basis vector q, and updates both the projected
norms and the correlations ``c = E^T r`` from it: ``c -= g (q . r)``. The
update loses relative accuracy as ||r|| shrinks, so c is recomputed exactly
whenever ||r|| falls below ``CORR_REFRESH_REL`` times its value at the last
exact product.

q and g depend on the ordered picks, not on y, so paths of several y (one
trial at each SNR) can share them through a step cache ``steps``: a dict
from the pick tuple to ``(q, g)``, or None for a rank-deficient pick.
Least-squares solves read and fill a factor cache ``factors`` alike.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import reconstructible_sparsity
from .errors import InvalidParams, RankDeficient
from .linalg import _entries, least_squares_on_support

RESIDUAL_FLOOR_REL = 1e-12  # residual below this fraction of ||y|| stops every algorithm
SPAN_TOL = 1e-12            # candidates with ||P_perp d_j|| below this are ineligible
BLIND_CAP_FLOOR = 32        # default iteration cap never drops below this (see ledger)
CORR_REFRESH_REL = 1e-4     # recompute E^T r once ||r|| < this * ||r|| at the last recompute


class StopReason(str, Enum):
    BLIND_THRESHOLD_MET = "BlindThresholdMet"
    REACHED_KNOWN_K = "ReachedKnownK"
    REACHED_MAX_ITERATIONS = "ReachedMaxIterations"
    RESIDUAL_BELOW_FLOOR = "ResidualBelowFloor"
    STAGNATED = "Stagnated"
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
    defaults to ``min(M, max(2 * ceil(C), 32))``, with C the reconstructible
    sparsity ``(1 + 1/mu) / 2``, so the cap never cuts off the rule's own
    stopping point on high-coherence matrices.
    """

    omega_star: float
    mu: float
    max_iterations: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.omega_star < math.inf:
            raise InvalidParams(f"omega_star must be finite and >= 0, got {self.omega_star}")
        if not 0.0 < self.mu <= 1.0:
            raise InvalidParams(f"mu must be in (0, 1], got {self.mu}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise InvalidParams(f"max_iterations must be positive, got {self.max_iterations}")

    @property
    def threshold(self) -> float:
        return self.omega_star * self.mu

    def cap(self, m: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        ceil_c = math.ceil(reconstructible_sparsity(self.mu))
        return min(m, max(2 * ceil_c, BLIND_CAP_FLOOR))


_RULES = ("ols", "omp")


class GreedyPath:
    """One greedy selection run of y over the columns of d, grown on demand.

    Step i is the state after i picks. For every step reached the path keeps
    the residual norm ``residual_norms[i]`` and, once a cut or a pick has
    needed it, the blind statistic ``statistics[i] = max_j |<d_j, r_i>| /
    ||r_i||``; ``picks[i]`` is the column added at step i. The picks depend
    only on (d, y, rule), so every stop rule is a cut of one path and the
    algorithms sharing a selection rule can share the path of one y.

    The current step is held as the orthonormal vectors ``qs`` spanning the
    picked columns, ``proj_sq[j] = ||P_S d_j||^2``, the residual ``r`` and
    the correlations ``c = E^T r``; each pick reads and fills ``steps``. The
    least-squares fit of y on the first i picks is memoized per prefix
    length i, so cuts stopping at one step share one solve, which reads and
    fills ``factors``.
    """

    def __init__(self, d, y, rule: str, steps: dict | None = None, factors: dict | None = None):
        if rule not in _RULES:
            raise InvalidParams(f"unknown selection rule {rule!r}; known: {_RULES}")
        e = _entries(d)
        y = np.asarray(y, dtype=np.float64)
        m, n = e.shape
        if y.shape != (m,):
            raise InvalidParams(f"y has shape {y.shape}, expected ({m},)")
        self.e, self.y, self.rule = e, y, rule
        self.qs: list[np.ndarray] = []
        self._steps = {} if steps is None else steps
        self._factors = factors
        self.proj_sq = np.zeros(n)
        self._picked = np.zeros(n, dtype=bool)
        self.r = y.copy()
        rnorm = float(np.linalg.norm(self.r))
        self._refresh(rnorm)
        self.picks: list[int] = []
        self.floor = RESIDUAL_FLOOR_REL * rnorm
        self.residual_norms = [rnorm]
        self.statistics: list[float] = []
        self._exhausted = False  # no column can be added to the last step
        self._fits: dict[int, np.ndarray | None] = {}  # None: the prefix is rank deficient

    def _refresh(self, rnorm: float) -> None:
        self.c = self.e.T @ self.r
        self._exact_rnorm = rnorm

    def scores(self) -> np.ndarray | None:
        """Selection score of every column, -1 where ineligible; None if none is eligible.

        OLS scores ``|<d_j, r>| / ||P_perp d_j||``, matching pursuit ``|<d_j, r>|``.
        """
        corr = np.abs(self.c)
        w = np.sqrt(np.clip(1.0 - self.proj_sq, 0.0, None))
        eligible = (~self._picked) & (w > SPAN_TOL)
        if not eligible.any():
            return None
        if self.rule == "ols":
            return np.where(eligible, corr / np.where(w > SPAN_TOL, w, 1.0), -1.0)
        return np.where(eligible, corr, -1.0)

    def add(self, j: int) -> None:
        """Pick column j: Gram-Schmidt with one re-orthogonalization pass, unless
        the step cache has this pick, then one ``g = E^T q`` updates the
        projected norms and the correlations."""
        key = (*self.picks, j)
        if key not in self._steps:
            col = self.e[:, j]
            basis = np.column_stack([np.zeros((len(col), 0)), *self.qs])
            v = col - basis @ (basis.T @ col)
            v -= basis @ (basis.T @ v)
            nv = float(np.linalg.norm(v))
            self._steps[key] = None
            if nv > 1e-10:
                q = v / nv
                g = q @ self.e
                # every path of the trial reads these: an in-place write raises
                q.flags.writeable = g.flags.writeable = False
                self._steps[key] = (q, g)
        if self._steps[key] is None:
            raise RankDeficient(f"column {j} is numerically inside the selected span")
        q, g = self._steps[key]
        self.qs.append(q)
        self.proj_sq += g ** 2
        qr = q @ self.r
        self.r -= q * qr
        self.c -= g * qr
        rnorm = float(np.linalg.norm(self.r))
        if rnorm < CORR_REFRESH_REL * self._exact_rnorm:
            self._refresh(rnorm)
        self.picks.append(j)
        self._picked[j] = True
        self.residual_norms.append(rnorm)

    def statistic(self, i: int) -> float:
        """Blind statistic at step i, for i up to the number of picks."""
        if i == len(self.statistics):
            corr_max = float(np.abs(self.c).max())
            self.statistics.append(corr_max / self.residual_norms[i])
        return self.statistics[i]

    def select(self, count: int) -> int:
        """Add the count best-scoring columns of the current step, best first,
        ties going to the lowest index; a column refused as inside the
        selected span still uses its slot. Returns how many were added, 0 at
        the residual floor or when no column is eligible."""
        if self.residual_norms[-1] <= self.floor or (score := self.scores()) is None:
            return 0
        before = len(self.picks)
        for _ in range(count):
            j = int(np.argmax(score))
            if score[j] < 0:
                break
            score[j] = -1.0
            self.statistic(len(self.picks))
            try:
                self.add(j)
            except RankDeficient:
                pass
        return len(self.picks) - before

    def grow(self, i: int) -> bool:
        """Make sure pick i exists; False when no column can extend step i or
        the path has reached the residual floor."""
        while len(self.picks) <= i and not self._exhausted:
            self._exhausted = self.select(1) == 0
        return len(self.picks) > i

    def fit(self, i: int) -> np.ndarray | None:
        """Copy of the least-squares fit of y on the first i picks; None if
        those columns are numerically rank deficient."""
        if i not in self._fits:
            try:
                self._fits[i] = least_squares_on_support(
                    self.e, self.y, self.picks[:i], self._factors)
            except RankDeficient:
                self._fits[i] = None
        x = self._fits[i]
        return None if x is None else x.copy()


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
    x_hat = path.fit(i)
    if x_hat is None:
        x_hat = np.zeros(path.e.shape[1])
        reason = StopReason.RANK_DEFICIENT
    return RecoveryResult(
        x_hat=x_hat,
        support=path.picks[:i],
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
    return _cut(path, params.threshold, cap=params.cap(path.e.shape[0]))


def run_bomp(d, y, params: BlindStopParams, path: GreedyPath | None = None) -> RecoveryResult:
    """Blind matching pursuit: correlation selection, same stopping rule as run_bols."""
    path = _path_for(d, y, "omp", path)
    return _cut(path, params.threshold, cap=params.cap(path.e.shape[0]))


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


def run_cosamp(d, y, k: int, max_iterations: int = 50,
               factors: dict | None = None) -> RecoveryResult:
    """Compressive sampling matching pursuit: identify 2k, merge, solve, prune to k.

    Stops on the residual floor, on stagnation (relative change of consecutive
    residual norms below 1e-6), or at max_iterations; a rank failure on the
    merged support ends the run with the last good estimate. An iterate is a
    function of its merged set alone, so the first repeated merged set makes
    the run periodic. It stops computing there and returns what computing
    every iteration would: the stagnation stop, or the iterate, history and
    stop reason held at max_iterations. ``factors`` is the factor cache of
    ``least_squares_on_support``.
    """
    e = _entries(d)
    y = np.asarray(y, dtype=np.float64)
    m, n = e.shape
    if y.shape != (m,):
        raise InvalidParams(f"y has shape {y.shape}, expected ({m},)")
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    ynorm = float(np.linalg.norm(y))
    history = [ynorm]
    if k == 0:
        return RecoveryResult(np.zeros(n), [], 0, history, StopReason.REACHED_KNOWN_K)
    r = y
    iterates = [(np.zeros(0, dtype=np.intp), np.zeros(0))]  # iterate t as (support, values)
    first_seen: dict[bytes, int] = {}  # merged set -> iteration whose iterate it produced
    reason = StopReason.REACHED_MAX_ITERATIONS
    cut_ident, cut_prune = max(n - 2 * k, 0), max(n - k, 0)  # sizes of what each cut drops
    for t in range(1, max_iterations + 1):
        ident = np.argpartition(np.abs(e.T @ r), cut_ident)[cut_ident:]
        merged = np.union1d(iterates[-1][0], ident)
        s = first_seen.setdefault(merged.tobytes(), t)
        if s < t:
            iterates.append(iterates[s])
            rnorm = history[s]
        else:
            try:
                fit = least_squares_on_support(e, y, merged.tolist(), factors)
            except RankDeficient:
                reason = StopReason.RANK_DEFICIENT
                break
            fit[np.argpartition(np.abs(fit), cut_prune)[:cut_prune]] = 0.0
            r = y - e @ fit
            rnorm = float(np.linalg.norm(r))
            support = np.nonzero(fit)[0]
            iterates.append((support, fit[support]))
        prev = history[-1]
        history.append(rnorm)
        if rnorm <= RESIDUAL_FLOOR_REL * ynorm:
            reason = StopReason.RESIDUAL_BELOW_FLOOR
            break
        if abs(prev - rnorm) < 1e-6 * max(prev, 1e-300):
            reason = StopReason.STAGNATED
            break
        if s < t:
            # every later residual pair repeats one checked in iterations s+1..t-1
            period = t - s
            history += [history[s + (i - s) % period] for i in range(t + 1, max_iterations + 1)]
            iterates.append(iterates[s + (max_iterations - s) % period])
            break
    support, values = iterates[-1]
    x = np.zeros(n)
    x[support] = values
    return RecoveryResult(x, support.tolist(), len(history) - 1, history, reason)


def run_mols(d, y, k: int, subset_size: int, steps: dict | None = None,
             factors: dict | None = None) -> RecoveryResult:
    """Multiple-selection OLS: the subset_size best candidates per iteration.

    A round is one ``GreedyPath.select(subset_size)`` on an OLS path. Rounds
    stop once k atoms are collected, at the residual floor, or RankDeficient
    when one adds no column; the final least-squares estimate is pruned to
    the k largest coefficients. ``steps`` and ``factors`` are the path's caches.
    """
    if k < 0:
        raise InvalidParams(f"k must be >= 0, got {k}")
    if subset_size < 1:
        raise InvalidParams(f"subset_size must be >= 1, got {subset_size}")
    path = GreedyPath(d, y, "ols", steps, factors)
    m, n = path.e.shape
    if subset_size * math.ceil(k / subset_size) > m:
        raise InvalidParams(
            f"subset_size {subset_size} with k {k} may select more than M={m} atoms"
        )
    history = [path.residual_norms[0]]
    reason = StopReason.REACHED_KNOWN_K
    while len(path.picks) < k:
        if not path.select(subset_size):
            reason = (StopReason.RESIDUAL_BELOW_FLOOR if history[-1] <= path.floor
                      else StopReason.RANK_DEFICIENT)
            break
        history.append(path.residual_norms[-1])
    full = path.fit(len(path.picks))
    x = np.zeros(n)
    if full is None:
        reason = StopReason.RANK_DEFICIENT
    elif k and path.picks:
        keep = np.argsort(np.abs(full))[-k:]
        x[keep] = full[keep]
    support = [int(i) for i in np.nonzero(x)[0]]
    return RecoveryResult(x, support, len(history) - 1, history, reason)
