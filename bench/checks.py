"""Correctness checks of the program's outputs.

Every check returns a list of problems (empty when it passes). The references
are computed here, apart from the program: coherence from a full numpy Gram
matrix, CSV rows from the JSONL records, OLS and OMP paths from their
definitions with ``numpy.linalg.lstsq``, and the trial inputs from the
documented stream contract (Philox4x64 keyed by ``(seed, tag << 48 | trial)``).
Other checks are properties the method must have.
"""

import csv
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

TAG_SPECTRUM = 2
TAG_NOISE = 3
NEAR_TIE = 1e-8     # relative gap between best and runner-up below which a reference pick is a tie
COEF_RTOL = 1e-8    # x_hat against lstsq on its support, relative to the coefficient norm
STAT_RTOL = 1e-9    # slack on the blind stop statistic against its threshold
PLATEAU = (1.3, 2.4)


def coherence_reference(e: np.ndarray) -> float:
    """Largest off-diagonal |D^T D| entry, from the full Gram matrix."""
    gram = np.abs(e.T @ e)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def check_coherence(reported: float, e: np.ndarray) -> list[str]:
    ref = coherence_reference(e)
    if not abs(reported - ref) <= 1e-12:
        return [f"coherence {reported!r} != numpy reference {ref!r}"]
    return []


# ----------------------------------------------------------------- sweep outputs

def read_sweep(out_dir: Path, label: str):
    """(csv rows, jsonl records, summary) of one ``sparsense experiment`` sweep."""
    with open(out_dir / f"{label}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / f"{label}.jsonl") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summary = json.loads((out_dir / f"{label}_summary.json").read_text())
    return rows, records, summary


def check_csv_matches_jsonl(rows: list[dict], records: list[dict]) -> list[str]:
    """CSV aggregates equal the aggregation of the JSONL records, all finite."""
    groups = defaultdict(list)
    for rec in records:
        groups[(float(rec["grid"]), rec["algorithm"])].append(rec)
    problems = []
    seen = set()
    for row in rows:
        key = (float(row["grid"]), row["algorithm"])
        seen.add(key)
        group = sorted(groups.get(key, []), key=lambda r: r["trial"])
        if not group:
            problems.append(f"CSV row {key} has no JSONL records")
            continue
        n = len(group)
        expect = {
            "prob_recovery": sum(r["success"] for r in group) / n,
            "mse": sum(r["mse_contrib"] for r in group) / n,
            "mean_iterations": sum(r["iterations"] for r in group) / n,
        }
        for col, want in expect.items():
            got = float(row[col])
            if not math.isfinite(got) or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-300):
                problems.append(f"CSV {key} {col}={got!r}, JSONL gives {want!r}")
        if int(row["trials"]) != n:
            problems.append(f"CSV {key} trials={row['trials']}, JSONL has {n}")
    for key in sorted(set(groups) - seen):
        problems.append(f"JSONL group {key} has no CSV row")
    for rec in records:
        if not math.isfinite(rec["mse_contrib"]):
            problems.append(f"non-finite mse_contrib in {rec}")
    return problems


def check_known_k_stops(records: list[dict], mols_subset: int) -> list[str]:
    """ols/omp stop at exactly K by ReachedKnownK; mols after ceil(K/L) rounds."""
    problems = []
    for rec in records:
        alg, k = rec["algorithm"], rec["K"]
        if alg in ("ols", "omp"):
            want = k
        elif alg == "mols":
            want = math.ceil(k / mols_subset)
        else:
            continue
        if rec["iterations"] != want or rec["stop_reason"] != "ReachedKnownK":
            problems.append(
                f"{alg} trial {rec['trial']} grid {rec['grid']}: {rec['iterations']} iterations "
                f"({rec['stop_reason']}), expected {want} (ReachedKnownK)"
            )
    return problems


def check_omega_sweep(records: list[dict]) -> list[str]:
    """Per trial: bols iterations never rise with omega; ols identical at every omega."""
    problems = []
    by_trial = defaultdict(lambda: defaultdict(list))
    for rec in records:
        by_trial[rec["algorithm"]][rec["trial"]].append(rec)
    for trial, recs in by_trial["bols"].items():
        iters = [r["iterations"] for r in sorted(recs, key=lambda r: r["grid"])]
        if any(b > a for a, b in zip(iters, iters[1:])):
            problems.append(f"bols trial {trial}: iterations rise with omega: {iters}")
    for trial, recs in by_trial["ols"].items():
        variants = {json.dumps({k: v for k, v in r.items() if k != "grid"}, sort_keys=True) for r in recs}
        if len(variants) != 1:
            problems.append(f"ols trial {trial}: records differ across omega")
    return problems


def plateau_successes(records: list[dict]) -> tuple[int, int]:
    """(successes, records) of bols on the omega plateau."""
    on = [r for r in records if r["algorithm"] == "bols" and PLATEAU[0] <= r["grid"] <= PLATEAU[1]]
    return sum(r["success"] for r in on), len(on)


# ------------------------------------------------------------ reference paths

def _philox(seed: int, tag: int, index: int) -> np.random.Generator:
    key = np.array([seed, (tag << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def synthesize_trial(e, seed, trial, k, snr_db, mean, var):
    """(x, y, support) of one trial, from the documented stream contract."""
    m, n = e.shape
    rng = _philox(seed, TAG_SPECTRUM, trial)
    support = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    x = np.zeros(n)
    x[support] = mean + math.sqrt(var) * rng.standard_normal(k)
    signal = e @ x
    sigma = math.sqrt(float(signal @ signal) / (m * 10.0 ** (snr_db / 10.0)))
    y = signal + sigma * _philox(seed, TAG_NOISE, trial).standard_normal(m)
    return x, y, support


def _fit(e, y, cols):
    sub = e[:, cols]
    coef = np.linalg.lstsq(sub, y, rcond=None)[0]
    return coef, y - sub @ coef


def reference_path(e: np.ndarray, y: np.ndarray, steps: int, rule: str):
    """Greedy path by definition, and the smallest relative margin of its picks.

    OLS picks argmin_j ||P_perp(S + j) y||, each candidate fitted by lstsq.
    OMP picks argmax_j |<d_j, y - P_S y>|.
    """
    n = e.shape[1]
    path: list[int] = []
    margin = math.inf
    for _ in range(steps):
        if rule == "ols":
            score = np.full(n, np.inf)
            for j in range(n):
                if j not in path:
                    r = _fit(e, y, path + [j])[1]
                    score[j] = r @ r
            best, second = np.argsort(score, kind="stable")[:2]
            gap = (score[second] - score[best]) / max(score[best], 1e-300)
        else:
            r = _fit(e, y, path)[1] if path else y
            score = np.abs(e.T @ r)
            score[path] = -np.inf
            best, second = np.argsort(-score, kind="stable")[:2]
            gap = (score[best] - score[second]) / max(score[best], 1e-300)
        margin = min(margin, float(gap))
        path.append(int(best))
    return path, margin


def check_reference_flags(e, records, mean, var, tolerance) -> tuple[list[str], int, int]:
    """Reference OLS/OMP reproduce each record's exact_support and success.

    Returns (problems, records compared, records skipped as near ties)."""
    problems, compared, skipped = [], 0, 0
    for rec in records:
        x, y, support = synthesize_trial(
            e, rec["seed"], rec["trial"], rec["K"], rec["snr_db"], mean, var
        )
        path, margin = reference_path(e, y, rec["K"], rec["algorithm"])
        coef = _fit(e, y, path)[0]
        x_hat = np.zeros(e.shape[1])
        x_hat[path] = coef
        rel = float(np.linalg.norm(x_hat - x) / np.linalg.norm(x))
        if margin < NEAR_TIE or abs(rel - tolerance) < 1e-9:
            skipped += 1
            continue
        compared += 1
        want = {"exact_support": sorted(path) == support, "success": rel <= tolerance}
        for flag, value in want.items():
            if rec[flag] != value:
                problems.append(
                    f"{rec['algorithm']} trial {rec['trial']} grid {rec['grid']}: {flag}={rec[flag]}, "
                    f"reference gives {value}"
                )
    return problems, compared, skipped


# --------------------------------------------------------------- stream windows

def check_window(e: np.ndarray, y: np.ndarray, rec: dict, threshold: float) -> list[str]:
    """One blind recovery: x_hat is zero off its support and equals lstsq on it,
    one atom per iteration, the residual history starts at ||y|| and never
    rises, and a BlindThresholdMet stop has max_j |<d_j, r>| / ||r|| <= threshold."""
    problems = []
    support, nz, vals = rec["support"], rec["nz"], rec["vals"]
    where = f"window {rec['window']}"
    if not set(nz) <= set(support):
        problems.append(f"{where}: x_hat nonzero off its support at {sorted(set(nz) - set(support))}")
    if len(support) != rec["iterations"] or len(set(support)) != len(support):
        problems.append(f"{where}: support {support} after {rec['iterations']} iterations")
    hist = rec["history"]
    ynorm = float(np.linalg.norm(y))
    if not math.isclose(hist[0], ynorm, rel_tol=1e-12):
        problems.append(f"{where}: residual history starts at {hist[0]!r}, ||y|| = {ynorm!r}")
    if any(b > a * (1 + 1e-12) for a, b in zip(hist, hist[1:])):
        problems.append(f"{where}: residual history rises: {hist}")
    if problems:
        return problems
    x_sup = np.zeros(len(support))
    pos = {j: i for i, j in enumerate(support)}
    for j, v in zip(nz, vals):
        x_sup[pos[j]] = v
    coef, r = _fit(e, y, support) if support else (np.zeros(0), y)
    if not np.allclose(x_sup, coef, rtol=0.0, atol=COEF_RTOL * max(float(np.linalg.norm(coef)), 1e-300)):
        problems.append(f"{where}: x_hat on its support differs from lstsq by {np.abs(x_sup - coef).max():.3e}")
    if rec["stop_reason"] == "BlindThresholdMet":
        r = y - e[:, support] @ x_sup
        stat = float(np.abs(e.T @ r).max() / np.linalg.norm(r))
        if stat > threshold * (1 + STAT_RTOL):
            problems.append(f"{where}: stopped blind with statistic {stat:.6g} > threshold {threshold:.6g}")
    return problems


def check_prefix(e: np.ndarray, y: np.ndarray, rec: dict) -> tuple[list[str], bool]:
    """The support is a prefix of the reference OLS path; (problems, compared)."""
    support = rec["support"]
    path, margin = reference_path(e, y, len(support), "ols")
    if margin < NEAR_TIE:
        return [], False
    if path != support:
        return [f"window {rec['window']}: support {support} is not the reference OLS path {path}"], True
    return [], True
