"""The three workloads: two figure sweeps through the CLI and a blind-sensing stream.

Each workload offers ``prepare`` (inputs, untimed), ``setup`` (one cold set-up,
timed by the caller), ``warm_up``, ``round`` (one whole unit of timed work,
returning the operations it attempted and how many failed) and ``check``
(correctness, untimed). The program is reached only through module attributes
(``harness.build_matrix``, ``recovery.run_bols``, ...), so the tracer's
wrappers see every call.
"""

import contextlib
import io
import math
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from sparsense import cli, harness, matgen, recovery
from sparsense.errors import SparsenseError
from sparsense.recovery import StopReason

CONFIG = Path(__file__).with_name("workloads.cfg")
STOP_REASONS = {r.value for r in StopReason}
COHERENCE_ROUNDS = 3  # sweeps whose matrix is rebuilt to check the reported coherence


def derived_seed(seed: int, slot: int) -> int:
    """Program seed for one slot of a run: rounds use slots 0..899, set-ups 900..998."""
    return (seed * 1009 + slot) % 2**63


def window_record(window: int, res) -> dict:
    """What the stream checks need of one RecoveryResult: x_hat kept as its nonzeros."""
    nz = np.flatnonzero(res.x_hat)
    return {
        "window": window, "support": list(res.support), "iterations": res.iterations,
        "history": list(res.residual_norm_history), "stop_reason": res.stop_reason.value,
        "nz": nz.tolist(), "vals": res.x_hat[nz].tolist(),
    }


class FigureWorkload:
    """Repeated ``sparsense experiment --figure custom --threads 1`` sweeps.

    Round i is one whole sweep of the configured section with base_seed
    ``derived_seed(seed, i)``: a fresh matrix and fresh trials each time.
    """

    min_rounds = 3

    def __init__(self, name: str, seed: int, workdir: Path, setups: int):
        self.name, self.seed, self.workdir, self.setups = name, seed, workdir, setups
        self.config = harness.load_config(CONFIG, name)
        self.latencies: list[float] = []  # CPU seconds per outcome of each untraced sweep
        self.failed_rounds: set[int] = set()
        self.rounds: set[int] = set()

    @property
    def ops_per_round(self) -> int:
        grid = self.config.omega_grid or self.config.snr_grid_db
        return self.config.trials * len(grid) * len(self.config.algorithms)

    @property
    def trial_inputs_per_round(self) -> int:
        """Distinct (trial, SNR) inputs one sweep synthesizes."""
        return self.config.trials * len(self.config.snr_grid_db)

    def prepare(self):
        pass

    def setup(self, j: int):
        """Cold matrix to first trial ready, as the sweep does it."""
        cfg = replace(self.config, base_seed=derived_seed(self.seed, 900 + j))
        d = harness.build_matrix(cfg)
        mu = d.coherence
        if not cfg.omega_grid:  # omega sweeps use omega * mu directly, with no inversion
            harness.blind_params_for(cfg, mu)

    def _experiment(self, out: Path, seed: int, *extra: str) -> int:
        argv = [
            "experiment", "--figure", "custom", "--config", str(CONFIG), "--section", self.name,
            "--seed", str(seed), "--threads", "1", "--out", str(out), *extra,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        self._experiment(self.workdir / "warm", derived_seed(self.seed, 999), "--set", "trials=1")

    def round(self, i: int, traced: bool) -> tuple[int, int]:
        self.rounds.add(i)
        t0 = time.process_time()
        try:
            code = self._experiment(self.workdir / f"r{i}", derived_seed(self.seed, i))
        except Exception:  # a crash of the program is a failed round, not a crashed benchmark
            traceback.print_exc()
            code = -1
        if not traced:
            self.latencies.append((time.process_time() - t0) / self.ops_per_round)
        if code != 0:
            self.failed_rounds.add(i)
            return self.ops_per_round, self.ops_per_round
        return self.ops_per_round, 0

    def check(self) -> tuple[list[str], int, list[str]]:
        """(problems, failed operations found in the outputs, notes)."""
        problems, notes, failed = [], [], 0
        cfg = self.config
        plateau_ok = plateau_all = 0
        for i in sorted(self.rounds - self.failed_rounds):
            rows, records, summary = checks.read_sweep(self.workdir / f"r{i}", self.name)
            failed += sum(r["stop_reason"] not in STOP_REASONS for r in records)
            found = checks.check_csv_matches_jsonl(rows, records)
            found += checks.check_known_k_stops(records, cfg.mols_subset)
            if cfg.omega_grid:
                found += checks.check_omega_sweep(records)
                ok, n = checks.plateau_successes(records)
                plateau_ok, plateau_all = plateau_ok + ok, plateau_all + n
            if i < COHERENCE_ROUNDS:
                e = harness.build_matrix(replace(cfg, base_seed=summary["config"]["base_seed"])).entries
                found += checks.check_coherence(summary["mu"], e)
                if i == 0:
                    wrong, note = self._check_reference(e, records)
                    found += wrong
                    notes.append(note)
            problems += [f"round {i}: {p}" for p in found]
        if cfg.omega_grid and plateau_all:
            share = plateau_ok / plateau_all
            notes.append(f"bols on the omega plateau recovers {plateau_ok}/{plateau_all}")
            if share < cfg.p_min:
                problems.append(f"bols recovers {share:.3f} on the omega plateau, below p_min {cfg.p_min}")
        return problems, failed, notes

    def _check_reference(self, e, records) -> tuple[list[str], str]:
        """Reference OLS/OMP flags on a fixed sample of round 0's trials: (problems, note)."""
        cfg = self.config
        if cfg.omega_grid:  # ols is identical at every omega: check it once per trial
            sample = [r for r in records if r["algorithm"] == "ols" and r["grid"] == cfg.omega_grid[0]
                      and r["trial"] < 2]
        else:
            sample = [r for r in records if r["algorithm"] in ("ols", "omp") and r["trial"] < 2
                      and r["grid"] in (30.0, 45.0, 60.0)]
        problems, compared, skipped = checks.check_reference_flags(
            e, sample, cfg.nonzero_mean, cfg.nonzero_var, cfg.success_tolerance
        )
        note = (f"reference OLS/OMP agree on {compared - len(problems)}/{compared} sampled records"
                f" ({skipped} near ties skipped)")
        if compared == 0:
            problems.append("every sampled reference record was a near tie")
        return problems, note


class StreamWorkload:
    """A receiver: one blind recovery (``run_bols``) per sensing window.

    Windows cycle K in {2, 4, 8} and SNR in {10, 20, 30} dB; one round is
    ``ROUND`` windows, three of each (K, SNR) pair. The matrix file and the
    window pool are made before timing; set-up loads the file, computes its
    coherence and calibrates the blind threshold once.
    """

    M, N = 1024, 2048
    KS = (2, 4, 8)
    SNRS_DB = (10.0, 20.0, 30.0)
    ROUND = 27
    POOL_ROUNDS = 30
    P_MIN, RHO, TOLERANCE = 0.95, 0.175, 0.05
    min_rounds = 10
    trial_inputs_per_round = 0

    def __init__(self, name: str, seed: int, workdir: Path, setups: int):
        self.name, self.seed, self.workdir, self.setups = name, seed, workdir, setups
        self.latencies: list[float] = []  # CPU seconds per run_bols call in untraced rounds
        self.results: list[dict] = []

    def prepare(self):
        d = matgen.gen_gaussian_normalized(self.M, self.N, derived_seed(self.seed, 0))
        self.path = self.workdir / "stream_matrix.bin"
        matgen.save_matrix(d, self.path)
        self.e = np.array(d.entries)
        rng = np.random.default_rng(derived_seed(self.seed, 1))
        self.windows = []  # (K, snr_db, support, values, y)
        for w in range(self.ROUND * self.POOL_ROUNDS):
            pair = w % 9
            k, snr_db = self.KS[pair // 3], self.SNRS_DB[pair % 3]
            support = np.sort(rng.choice(self.N, size=k, replace=False))
            values = 1.0 + 0.1 * rng.standard_normal(k)
            signal = self.e[:, support] @ values
            sigma = math.sqrt(float(signal @ signal) / (self.M * 10.0 ** (snr_db / 10.0)))
            y = signal + sigma * rng.standard_normal(self.M)
            self.windows.append((k, snr_db, support, values, y))

    def setup(self, j: int):
        d = matgen.load_matrix(self.path)
        mu = d.coherence
        cfg = harness.ExperimentConfig(family="gaussian", m=d.m, n=d.n, p_min=self.P_MIN, rho=self.RHO)
        self.d, (self.params, _) = d, harness.blind_params_for(cfg, mu)

    def _recover(self, w: int, sink):
        y = self.windows[w][4]
        t0 = time.process_time()
        try:
            res = recovery.run_bols(self.d, y, self.params)
        except SparsenseError as exc:
            print(f"window {w}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return False
        sink.append(time.process_time() - t0)
        self.results.append(window_record(w, res))
        return True

    def warm_up(self):
        for w in range(self.ROUND):
            self._recover(w, [])
        self.results.clear()

    def round(self, i: int, traced: bool) -> tuple[int, int]:
        base = (i % self.POOL_ROUNDS) * self.ROUND
        sink = [] if traced else self.latencies
        failed = sum(not self._recover(w, sink) for w in range(base, base + self.ROUND))
        return self.ROUND, failed

    def check(self) -> tuple[list[str], int, list[str]]:
        e = self.e
        threshold = self.params.omega_star * self.params.mu
        problems = checks.check_coherence(self.d.coherence, e)
        per_k = {k: [0, 0] for k in self.KS}
        for rec in self.results:
            k, _, support, values, y = self.windows[rec["window"]]
            problems += checks.check_window(e, y, rec, threshold)
            x = np.zeros(self.N)
            x[support] = values
            x_hat = np.zeros(self.N)
            x_hat[rec["nz"]] = rec["vals"]
            per_k[k][0] += np.linalg.norm(x_hat - x) <= self.TOLERANCE * np.linalg.norm(x)
            per_k[k][1] += 1
        ok = sum(v[0] for v in per_k.values())
        total = sum(v[1] for v in per_k.values())
        if total and ok / total < self.P_MIN:
            problems.append(f"{ok}/{total} windows meet the {self.TOLERANCE} tolerance, below p_min {self.P_MIN}")
        compared = 0
        for k in self.KS:  # the first window of each K at 20 dB
            w = self.KS.index(k) * 3 + 1
            rec = next((r for r in self.results if r["window"] == w), None)
            if rec is not None:
                found, used = checks.check_prefix(e, self.windows[w][4], rec)
                problems += found
                compared += used
        notes = [
            "windows within tolerance per K: " + ", ".join(f"K={k} {a}/{b}" for k, (a, b) in per_k.items()),
            f"support is a prefix of the reference OLS path on {compared} sampled windows",
            f"stop threshold omega_star*mu = {threshold:.6g} (mu {self.params.mu:.6g})",
        ]
        return problems, 0, notes


WORKLOADS = {
    "hybrid_snr": lambda seed, workdir: FigureWorkload("hybrid_snr", seed, workdir, setups=40),
    "omega_sweep": lambda seed, workdir: FigureWorkload("omega_sweep", seed, workdir, setups=5),
    "sense_stream": lambda seed, workdir: StreamWorkload("sense_stream", seed, workdir, setups=5),
}
