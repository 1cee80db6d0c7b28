"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 1 checks the
coherence of column-normalized Gaussian matrices against the extreme-value
law of i.i.d. uniform unit columns (Cai & Jiang 2011), which puts the median
near 0.174 at 1024x8192; the paper's 0.135 / 0.109 are printed next to the
measured values but not asserted, since i.i.d. columns cannot reach them.
Criterion 3 checks the omega windows at the paper's reference coherence and
the calibrated threshold against the measured omega plateau on the fig4
matrix. Criterion 6 asserts cross-algorithm tracking bands that the blind
rule misses on the high-coherence hybrid benchmark and fails, printing the
measured values: the documented rule ``max_j |<d_j, r>| / ||r|| <=
omega_star * mu`` stops before atoms whose projected norm ``||P_perp d_q||``
is below the threshold (0.149 there), while known-K OLS run for K + 4 steps
does recover those trials.
"""

import math
from dataclasses import replace

import numpy as np

from oracles import ols_select, projection_residual_norm_sq, residual
from sparsense.bounds import (
    BoundParams,
    mapping_factor_lower,
    mapping_factor_lower_linear,
    mapping_factor_lower_quadratic,
    omega_for_probability,
    reconstructible_sparsity,
    recovery_probability,
    rho_tightness_limit,
    snr_min_requirement,
)
from sparsense.errors import InfeasibleParams
from sparsense.harness import (
    blind_params_for,
    outcomes_to_jsonl,
    rows_to_csv,
    sweep,
)
from sparsense.matgen import gen_gaussian_normalized
from sparsense.presets import REFERENCE_MUS, figure_preset
from sparsense.recovery import run_ols_known_k
from sparsense.streams import stream


def verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1

def _pair_tail(a: float, m: int, points: int = 20001) -> float:
    """P(|t| > a) for t = <u, v> of two independent uniform unit vectors in R^M.

    t^2 ~ Beta(1/2, (M-1)/2), so t has density (1 - t^2)^((M-3)/2) / B(1/2, (M-1)/2)
    on [-1, 1]; the tail is integrated by the trapezoid rule on [a, 1].
    """
    t = np.linspace(a, 1.0, points)
    log_norm = math.lgamma(m / 2) - math.lgamma(0.5) - math.lgamma((m - 1) / 2)
    with np.errstate(divide="ignore"):
        f = np.exp(log_norm + 0.5 * (m - 3) * np.log1p(-t * t))
    h = (1.0 - a) / (points - 1)
    return 2.0 * h * (f.sum() - 0.5 * (f[0] + f[-1]))


def _coherence_quantile(p: float, m: int, n: int) -> float:
    """p-quantile of the coherence of N i.i.d. uniform unit columns in R^M.

    The N(N-1)/2 pairwise |t| are asymptotically independent in the upper tail
    (Cai & Jiang 2011, Ann. Statist. 39(3)), so
    P(mu <= a) ~= exp(-N(N-1)/2 * P(|t| > a)); solved for a by bisection.
    """
    pairs = n * (n - 1) / 2
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if math.exp(-pairs * _pair_tail(mid, m)) < p:
            lo = mid
        else:
            hi = mid
    return hi


def test_criterion_1_coherence_reproduction():
    # paper-reported coherences: printed for comparison, not asserted
    paper = {(1024, 8192): REFERENCE_MUS[0], (2048, 8192): REFERENCE_MUS[1]}
    seeds = range(5)
    problems = []
    measured = {}
    bands = {}
    for m, n in paper:
        lo, hi = _coherence_quantile(0.001, m, n), _coherence_quantile(0.999, m, n)
        bands[(m, n)] = (lo, hi)
        mus = [gen_gaussian_normalized(m, n, seed=s).coherence for s in seeds]
        measured[(m, n)] = mus
        for s, mu in zip(seeds, mus):
            if not lo <= mu <= hi:
                problems.append(f"{m}x{n} seed {s}: mu={mu:.4f} not in "
                                f"law band [{lo:.4f}, {hi:.4f}]")
    detail = "; ".join(
        f"{m}x{n}: mu in [{min(v):.4f}, {max(v):.4f}] vs law band "
        f"[{bands[(m, n)][0]:.4f}, {bands[(m, n)][1]:.4f}] (paper {paper[(m, n)]})"
        for (m, n), v in measured.items()
    )
    ok = verdict("1 coherence-reproduction", not problems, detail)
    assert ok, problems


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_bound_ordering():
    checked = 0
    problems = []
    for mu in (0.05, 0.109, 0.135):
        for m in (256, 1024):
            for k in range(2, 11):
                limit = rho_tightness_limit(k, m, mu)
                if limit <= 0:
                    continue
                rho = 0.5 * limit
                try:
                    prob = mapping_factor_lower(k, m, mu, rho)
                    quad = mapping_factor_lower_quadratic(k, mu)
                    lin = mapping_factor_lower_linear(k, mu)
                except InfeasibleParams:
                    continue
                checked += 1
                if not (prob - quad >= 1e-6 and quad >= lin):
                    problems.append(f"K={k} M={m} mu={mu}: {prob} vs {quad} vs {lin}")
    ok = verdict(
        "2 bound-ordering",
        checked > 0 and not problems,
        f"{checked} feasible grid points, margin >= 1e-6 everywhere" if not problems
        else "; ".join(problems),
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_threshold_calibration():
    # P(omega) depends on omega through omega * mu, so the omega windows
    # belong to the reference coherence, not to a generated matrix's.
    ref = BoundParams(m=1024, n=8192, mu=REFERENCE_MUS[0], rho=0.175)
    omega_ref = omega_for_probability(0.95, ref)
    ok_range = 1.1 <= omega_ref <= 1.5
    ok_window = 1.175 <= omega_ref <= 2.575

    fig4 = figure_preset("fig4", "desk")[0][1]
    mat = gen_gaussian_normalized(fig4.m, fig4.n, seed=fig4.base_seed)
    mu = mat.coherence
    params = BoundParams(m=fig4.m, n=fig4.n, mu=mu, rho=0.175)
    omega = omega_for_probability(0.95, params)
    roundtrip = abs(recovery_probability(omega, params) - 0.95)
    blind, meta = blind_params_for(replace(fig4, rho=0.175), mu)
    note_present = "sparsity_ceiling_note" in meta
    ok_round = roundtrip <= 1e-9

    # the calibrated threshold must sit on the measured omega plateau
    interior = (1.3, 1.6, 2.0, 2.4)
    rows, _, _ = sweep(
        replace(fig4, algorithms=("bols",), omega_grid=(blind.omega_star, *interior)), threads=1
    )
    prob = {r.grid: r.prob_recovery for r in rows}
    plateau = float(np.mean([prob[g] for g in interior]))
    calibrated = prob[blind.omega_star]
    ok_plateau = abs(calibrated - plateau) <= 0.05

    detail = (f"mu_ref={REFERENCE_MUS[0]} omega_ref={omega_ref:.4f} "
              f"range[1.1,1.5]={ok_range} window[1.175,2.575]={ok_window} | "
              f"fig4 mu={mu:.4f} omega={omega:.4f} roundtrip={roundtrip:.2e} "
              f"note={note_present} | bols at omega_star={blind.omega_star:.4f}: "
              f"{calibrated:.2f} vs plateau {plateau:.2f}")
    ok = verdict("3 threshold-calibration", ok_range and ok_window and ok_round
                 and note_present and ok_plateau, detail)
    assert ok, detail


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_snr_floor_monotetone_in_coherence():
    grid = [round(0.90 + 0.01 * i, 2) for i in range(10)]
    problems = []
    for p_min in grid:
        floors = {}
        for mu in (0.135, 0.109):
            params = BoundParams(m=1024, n=8192, mu=mu, rho=0.15, k=4)
            omega = omega_for_probability(p_min, params)
            floors[mu] = snr_min_requirement(params, omega)
        if not floors[0.109] < floors[0.135]:
            problems.append(f"p_min={p_min}: {floors}")
    ok = verdict(
        "4 snr-floor-monotonicity",
        not problems,
        f"floor(mu=0.109) < floor(mu=0.135) at all {len(grid)} probability points",
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_parity_with_known_k_on_gaussian():
    cfg = figure_preset("fig3", "desk")[0][1]
    assert (cfg.m, cfg.n, cfg.k, cfg.trials) == (256, 512, 4, 300)
    rows, _, _ = sweep(cfg, threads=2)
    by_alg = {}
    for r in rows:
        by_alg.setdefault(r.algorithm, {})[r.grid] = r
    problems = []
    max_gap = 0.0
    max_ratio = 1.0
    for snr in cfg.snr_grid_db:
        b, o = by_alg["bols"][snr], by_alg["ols"][snr]
        gap = abs(b.prob_recovery - o.prob_recovery)
        max_gap = max(max_gap, gap)
        if gap > 0.05:
            problems.append(f"SNR {snr}: prob gap {gap:.3f} > 0.05")
        lo, hi = sorted((b.mse, o.mse))
        ratio = hi / max(lo, 1e-300)
        max_ratio = max(max_ratio, ratio)
        if ratio > 2.0:
            problems.append(f"SNR {snr}: mse ratio {ratio:.2f} > 2")
    # recovery probability rises with SNR up to Monte Carlo noise
    slack = 2.0 / math.sqrt(cfg.trials)
    for alg in ("bols", "ols"):
        curve = [by_alg[alg][s].prob_recovery for s in cfg.snr_grid_db]
        for a, b in zip(curve, curve[1:]):
            if b < a - slack:
                problems.append(f"{alg}: non-monotone step {a:.3f} -> {b:.3f}")
    ok = verdict(
        "5 blind-vs-known-parity",
        not problems,
        f"max prob gap {max_gap:.3f} (<=0.05), max mse ratio {max_ratio:.2f} (<=2)"
        if not problems else "; ".join(problems),
    )
    assert ok, problems


# ---------------------------------------------------------------- criterion 6

ACCEPT_HYBRID_GRID = (20.0, 30.0, 40.0, 50.0, 60.0)


def _hybrid_rows(k: int):
    cfg = figure_preset("fig5", "desk")[0][1] if k == 8 else figure_preset("fig5", "desk")[1][1]
    assert cfg.k == k and cfg.trials == 300
    cfg = replace(cfg, snr_grid_db=ACCEPT_HYBRID_GRID)
    rows, _, _ = sweep(cfg, threads=2)
    by_alg = {}
    for r in rows:
        by_alg.setdefault(r.algorithm, {})[r.grid] = r.prob_recovery
    return by_alg


def test_criterion_6_hybrid_algorithm_ordering():
    problems = []
    k8 = _hybrid_rows(8)
    active = [s for s in ACCEPT_HYBRID_GRID
              if any(k8[a][s] > 0.2 for a in k8)]
    for snr in active:
        best = max(k8["cosamp"][snr], k8["mols"][snr])
        if not k8["omp"][snr] <= k8["bols"][snr] + 0.05:
            problems.append(
                f"K=8 SNR {snr}: omp {k8['omp'][snr]:.2f} > bols {k8['bols'][snr]:.2f}+0.05"
            )
        if not best - k8["bols"][snr] <= 0.1:
            problems.append(
                f"K=8 SNR {snr}: bols {k8['bols'][snr]:.2f} not within 0.1 of best {best:.2f}"
            )
    k12 = _hybrid_rows(12)
    top = ACCEPT_HYBRID_GRID[-1]
    for alg in ("omp", "bomp", "ols"):
        if not k12[alg][top] < 0.5:
            problems.append(f"K=12: {alg} reached {k12[alg][top]:.2f} >= 0.5 at top")
    best12 = max(k12["cosamp"][top], k12["mols"][top])
    if not best12 - k12["bols"][top] <= 0.15:
        problems.append(
            f"K=12 top: bols {k12['bols'][top]:.2f} not within 0.15 of best {best12:.2f}"
        )
    summary = (
        "K=8 @50dB: " + " ".join(f"{a}={k8[a][50.0]:.2f}" for a in sorted(k8)) +
        " | K=12 @60dB: " + " ".join(f"{a}={k12[a][60.0]:.2f}" for a in sorted(k12))
    )
    ok = verdict("6 hybrid-ordering", not problems, summary if not problems
                 else summary + " || " + "; ".join(problems))
    assert ok, problems


# ---------------------------------------------------------------- criterion 7

def test_criterion_7a_selection_rule_equivalence():
    rng = np.random.default_rng(1234)
    checked = 0
    for trial in range(1000):
        d = gen_gaussian_normalized(8, 16, seed=trial % 200)
        y = rng.standard_normal(8)
        size = int(rng.integers(0, 4))
        support = list(rng.choice(16, size=size, replace=False))
        fast = ols_select(d, y, support)
        best_j, best_v = None, np.inf
        for j in range(16):
            if j in support:
                continue
            if projection_residual_norm_sq(d, d.entries[:, j].copy(), support) <= 1e-24:
                continue
            v = projection_residual_norm_sq(d, y, support + [j])
            if v < best_v:
                best_v, best_j = v, j
        assert fast == best_j, f"trial {trial}: {fast} vs {best_j}"
        checked += 1
    assert verdict("7a selection-equivalence", checked == 1000, f"{checked} random states")


def test_criterion_7b_residual_invariants():
    problems = []
    for seed in range(50):
        d = gen_gaussian_normalized(32, 64, seed=seed)
        rng = np.random.default_rng(seed)
        support = list(rng.choice(64, size=4, replace=False))
        x = np.zeros(64)
        x[support] = 1.0 + 0.1 * rng.standard_normal(4)
        y = d.entries @ x + 0.05 * rng.standard_normal(32)
        res = run_ols_known_k(d, y, 4)
        h = res.residual_norm_history
        if any(b > a + 1e-12 * h[0] for a, b in zip(h, h[1:])):
            problems.append(f"seed {seed}: history not nonincreasing")
        r = residual(d, y, res.x_hat)
        if np.abs(d.entries[:, res.support].T @ r).max() > 1e-9:
            problems.append(f"seed {seed}: residual not orthogonal to selection")
    assert verdict("7b residual-invariants", not problems,
                   "history nonincreasing + orthogonality on 50 noisy runs"), problems


def test_criterion_7c_noiseless_exact_recovery_under_ceiling():
    d = gen_gaussian_normalized(1024, 1100, seed=4242)
    mu = d.coherence
    k = math.ceil(reconstructible_sparsity(mu)) - 1
    assert k >= 2, f"matrix too coherent for the check: mu={mu:.3f}"
    failures = 0
    for t in range(500):
        spec_rng = stream(97, 2, t)
        support = sorted(int(i) for i in spec_rng.choice(1100, size=k, replace=False))
        x = np.zeros(1100)
        x[support] = 1.0 + 0.1 * spec_rng.standard_normal(k)
        res = run_ols_known_k(d, d.entries @ x, k)
        failures += sorted(res.support) != support
    assert verdict(
        "7c noiseless-exact-recovery",
        failures == 0,
        f"K={k} (< ceiling {reconstructible_sparsity(mu):.2f}, mu={mu:.3f}); "
        f"{500 - failures}/500 exact",
    ), failures


def test_criterion_7d_singular_value_tail_coverage():
    m, k, rho = 256, 8, 0.2
    lower = 1.0 - math.sqrt(k / m) - rho
    upper = 1.0 + math.sqrt(k / m) + rho
    floor = 1.0 - math.exp(-m * rho * rho / 2.0)
    rng = np.random.default_rng(2024)
    lo_hits = hi_hits = 0
    trials = 10_000
    for _ in range(trials):
        block = rng.standard_normal((m, k)) / math.sqrt(m)
        svals = np.linalg.svd(block, compute_uv=False)
        lo_hits += svals[-1] >= lower
        hi_hits += svals[0] <= upper
    ok = lo_hits / trials >= floor and hi_hits / trials >= floor
    assert verdict(
        "7d singular-tail-coverage",
        ok,
        f"smallest>=bound in {lo_hits / trials:.4f}, largest<=bound in "
        f"{hi_hits / trials:.4f}, floor {floor:.4f}",
    )


def test_criterion_7e_projected_norm_coverage():
    m, n, k, rho = 256, 512, 3, 0.15
    floor = 1.0 - 2.0 * math.exp(-m * rho * rho / 2.0)
    rng = np.random.default_rng(31)
    hits = trials = 0
    for seed in range(1000):
        d = gen_gaussian_normalized(m, n, seed=seed)
        try:
            lower = mapping_factor_lower(k, m, d.coherence, rho)
        except InfeasibleParams:
            continue
        support = list(rng.choice(n, size=k - 1, replace=False))
        candidates = np.setdiff1d(np.arange(n), support)
        i = int(rng.choice(candidates))
        value = math.sqrt(
            max(projection_residual_norm_sq(d, d.entries[:, i].copy(), support), 0.0)
        )
        trials += 1
        hits += lower <= value <= 1.0 + 1e-12
    ok = trials >= 900 and hits / trials >= floor
    assert verdict(
        "7e projected-norm-coverage",
        ok,
        f"{hits}/{trials} inside [bound, 1], floor {floor:.4f}",
    )


def test_criterion_7f_thread_count_determinism():
    from sparsense.harness import ExperimentConfig

    cfg = ExperimentConfig(
        family="gaussian", m=64, n=128, k=3, snr_grid_db=(5.0, 15.0),
        algorithms=("bols", "ols", "cosamp"), trials=20, base_seed=321, p_min=0.15,
    ).validate()
    r1, o1, _ = sweep(cfg, threads=1)
    r4, o4, _ = sweep(cfg, threads=4)
    ok = rows_to_csv(r1) == rows_to_csv(r4) and \
        outcomes_to_jsonl(o1, cfg) == outcomes_to_jsonl(o4, cfg)
    assert verdict("7f thread-determinism", ok, "CSV and JSONL byte-identical for 1 vs 4 workers")
