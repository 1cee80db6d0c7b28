"""Test oracles: plain restatements of what the program computes, kept out of
the package because no program code calls them.

``projection_residual_norm_sq`` and ``residual`` follow their definitions
(``numpy.linalg.lstsq`` on the support columns, ``y - D x``), so the tests
that compare against them check the cached-QR kernel instead of restating it.
``ols_select`` drives the program's own ``GreedyPath`` selection, and
``run_trial`` reads one outcome from the sweeps' trial runner.
"""

import numpy as np

from sparsense.errors import RankDeficient
from sparsense.harness import _trial_outcomes
from sparsense.linalg import _entries, check_support
from sparsense.recovery import GreedyPath


def projection_residual_norm_sq(d, y, support) -> float:
    """Squared norm of y minus its least-squares fit on the support columns."""
    y = np.asarray(y, dtype=np.float64)
    if not len(support):
        return float(y @ y)
    sub = _entries(d)[:, list(support)]
    r = y - sub @ np.linalg.lstsq(sub, y, rcond=None)[0]
    return float(r @ r)


def residual(d, y, x_hat) -> np.ndarray:
    """y - D x_hat."""
    return np.asarray(y, dtype=np.float64) - _entries(d) @ np.asarray(x_hat, dtype=np.float64)


def ols_select(d, y, support) -> int:
    """Unselected index minimizing the projection residual after augmentation."""
    path = GreedyPath(d, y, "ols")
    m, n = path.e.shape
    sup = check_support(support, n)
    if len(sup) >= m:
        raise RankDeficient(f"support size {len(sup)} leaves no room in {m} rows")
    for j in sup:
        path.add(j)
    score = path.scores()
    if score is None:
        raise RankDeficient("every remaining column lies in the selected span")
    return int(np.argmax(score))


def run_trial(d, config, trial_index, algorithm_id, snr_db, blind, grid_value=None):
    """One (trial, algorithm) outcome; the sweeps run all algorithms of a trial
    together and give the same outcomes."""
    grid = snr_db if grid_value is None else grid_value
    return _trial_outcomes(d, config, trial_index, [(snr_db, [(grid, algorithm_id, blind)])])[0]
