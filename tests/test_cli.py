import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsense.presets import REFERENCE_MUS, SCALES

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_seed=None, timeout=None):
    """Run the CLI in a subprocess; past ``timeout`` seconds it is killed and
    ``subprocess.TimeoutExpired`` fails the test."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if env_seed is not None:
        env["SPARSENSE_SEED"] = str(env_seed)
    return subprocess.run(
        [sys.executable, "-m", "sparsense.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mats") / "g.bin"
    proc = run_cli(
        "gen-matrix", "--family", "gaussian", "--m", "64", "--n", "128",
        "--seed", "3", "--out", str(path),
    )
    assert proc.returncode == 0, proc.stderr
    return path, json.loads(proc.stdout)


def test_gen_matrix_and_coherence_agree(matrix_file):
    path, info = matrix_file
    proc = run_cli("coherence", "--matrix", str(path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["coherence"] == info["coherence"]


def test_gen_matrix_env_seed(tmp_path):
    out = tmp_path / "h.bin"
    a = run_cli("gen-matrix", "--family", "hybrid", "--m", "16", "--n", "32",
                "--out", str(out), env_seed=99)
    b = run_cli("gen-matrix", "--family", "hybrid", "--m", "16", "--n", "32",
                "--seed", "99", "--out", str(out))
    assert json.loads(a.stdout)["coherence"] == json.loads(b.stdout)["coherence"]


def test_recover_blind_noiseless_exact_support(matrix_file):
    path, _ = matrix_file
    proc = run_cli(
        "recover", "--matrix", str(path), "--alg", "bols",
        "--pmin", "0.15", "--rho", "0.175",
        "--k-true", "3", "--snr", "inf", "--seed", "5",
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out["true_support"]) <= set(out["support"])
    assert out["stop_reason"] == "ResidualBelowFloor"


def test_recover_known_k_reports_exact_iterations(matrix_file):
    path, _ = matrix_file
    proc = run_cli(
        "recover", "--matrix", str(path), "--alg", "ols", "--k", "4",
        "--k-true", "4", "--snr", "20", "--seed", "6",
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["iterations"] == 4
    assert out["stop_reason"] == "ReachedKnownK"


def test_recover_stdout_is_deterministic(matrix_file):
    path, _ = matrix_file
    args = ("recover", "--matrix", str(path), "--alg", "bols", "--pmin", "0.15",
            "--rho", "0.175", "--k-true", "3", "--snr", "25", "--seed", "8")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_recover_reads_y_file(matrix_file, tmp_path):
    path, _ = matrix_file
    from sparsense.matgen import load_matrix

    mat = load_matrix(path)
    y = 2.5 * mat.entries[:, 10]
    y_path = tmp_path / "y.txt"
    y_path.write_text("\n".join(f"{v:.17g}" for v in y))
    proc = run_cli("recover", "--matrix", str(path), "--alg", "omp", "--k", "1",
                   "--y", str(y_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["support"] == [10]
    assert out["nonzeros"]["10"] == pytest.approx(2.5, abs=1e-10)


def test_recover_matches_direct_runner_calls_for_every_algorithm(matrix_file, tmp_path):
    from sparsense.harness import ExperimentConfig, blind_params_for
    from sparsense.matgen import load_matrix
    from sparsense.recovery import (
        run_bols, run_bomp, run_cosamp, run_mols, run_ols_known_k, run_omp_known_k,
    )

    path, _ = matrix_file
    mat = load_matrix(path)
    rng = np.random.default_rng(12)
    y = mat.entries[:, [10, 40, 77]] @ np.array([1.0, 0.8, 1.2])
    y += 0.01 * rng.standard_normal(mat.m)
    y_path = tmp_path / "y.txt"
    y_path.write_text("\n".join(f"{v:.17g}" for v in y))
    y = np.array([float(v) for v in y_path.read_text().split()])
    blind, meta = blind_params_for(
        ExperimentConfig(m=mat.m, n=mat.n, p_min=0.15, rho=0.175), mat.coherence
    )
    direct = {
        "omp": run_omp_known_k(mat, y, 3),
        "bomp": run_bomp(mat, y, blind),
        "ols": run_ols_known_k(mat, y, 3),
        "bols": run_bols(mat, y, blind),
        "cosamp": run_cosamp(mat, y, 3),
        "mols": run_mols(mat, y, 3, 2),
    }
    for alg, expect in direct.items():
        tuning = ("--pmin", "0.15", "--rho", "0.175") if alg in ("bols", "bomp") else ("--k", "3")
        proc = run_cli("recover", "--matrix", str(path), "--alg", alg,
                       *tuning, "--y", str(y_path))
        assert proc.returncode == 0, (alg, proc.stderr)
        out = json.loads(proc.stdout)
        assert out["support"] == expect.support, alg
        assert out["iterations"] == expect.iterations, alg
        assert out["stop_reason"] == expect.stop_reason.value, alg
        assert out["nonzeros"] == {str(i): expect.x_hat[i] for i in expect.support}, alg
        if alg in ("bols", "bomp"):
            assert out["omega_star"] == meta["omega_star"]


@pytest.fixture(scope="module")
def feasible_matrix_file(tmp_path_factory):
    """A 256x512 Gaussian matrix, on which the default --pmin 0.95 inverts."""
    path = tmp_path_factory.mktemp("mats") / "g256.bin"
    proc = run_cli("gen-matrix", "--family", "gaussian", "--m", "256", "--n", "512",
                   "--seed", "3", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path, json.loads(proc.stdout)


def recover_json(path, *args):
    proc = run_cli("recover", "--matrix", str(path), "--alg", "bols",
                   "--k-true", "6", "--snr", "30", "--seed", "5", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("threshold", [(), ("--omega-star", "0")], ids=["inversion", "omega0"])
def test_recover_max_iterations_caps_a_blind_run(feasible_matrix_file, threshold):
    path, _ = feasible_matrix_file
    free = recover_json(path, *threshold)
    assert free["iterations"] > 3
    capped = recover_json(path, *threshold, "--max-iterations", "3")
    assert capped["iterations"] == 3
    assert capped["stop_reason"] == "ReachedMaxIterations"
    assert capped["support"] == free["support"][:3]
    if not threshold:  # the inversion still reports its threshold
        assert capped["omega_star"] == free["omega_star"] > 0


def test_recover_omega_star_sets_the_threshold_scale(feasible_matrix_file):
    path, info = feasible_matrix_file
    out = recover_json(path, "--omega-star", "1.2")
    assert out["omega_star"] == 1.2
    assert out["mu"] == info["coherence"]
    assert "omega" not in out and "p_min" not in out


def test_recover_synthesizes_sweep_trial_zero(matrix_file, monkeypatch):
    from oracles import run_trial
    from sparsense import harness
    from sparsense.matgen import load_matrix
    from sparsense.recovery import run_ols_known_k

    path, _ = matrix_file
    mat = load_matrix(path)
    drawn = {}
    spectrum, noise = harness.gen_sparse_spectrum, harness.calibrate_noise
    monkeypatch.setattr(harness, "gen_sparse_spectrum",
                        lambda *a, **kw: drawn.setdefault("spec", spectrum(*a, **kw)))
    monkeypatch.setattr(harness, "calibrate_noise",
                        lambda *a, **kw: drawn.setdefault("noisy", noise(*a, **kw)))
    config = harness.ExperimentConfig(m=mat.m, n=mat.n, k=4, base_seed=11)
    run_trial(mat, config, 0, "ols", 15.0, None)
    monkeypatch.undo()
    proc = run_cli("recover", "--matrix", str(path), "--alg", "ols", "--k", "4",
                   "--k-true", "4", "--snr", "15", "--seed", "11")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["true_support"] == drawn["spec"].support
    expect = run_ols_known_k(mat, drawn["noisy"][0], 4)  # recover measured the same y
    assert out["support"] == expect.support
    assert out["nonzeros"] == {str(i): expect.x_hat[i] for i in expect.support}


@pytest.mark.parametrize("alg", ["ols", "omp", "cosamp", "mols"])
def test_recover_known_k_algorithm_without_k_is_usage_error(matrix_file, alg):
    path, _ = matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", alg,
                   "--k-true", "3", "--snr", "20", "--seed", "6")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "requires --k" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("alg, flags", [
    ("ols", ("--omega-star", "1.2")), ("omp", ("--pmin", "0.95")), ("cosamp", ("--rho", "0.175")),
    ("mols", ("--max-iterations", "3")), ("ols", ("--omega-star", "7", "--pmin", "3")),
])
def test_recover_known_k_algorithm_refuses_blind_only_flags(matrix_file, alg, flags):
    path, _ = matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", alg, "--k", "4",
                   "--k-true", "4", "--snr", "30", *flags)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(flag in lines[0] for flag in flags[::2])


@pytest.mark.parametrize("alg", ["bols", "bomp"])
@pytest.mark.parametrize("flags", [
    ("--pmin", "3", "--rho", "-7"), ("--pmin", "0.95"), ("--rho", "0.175"),
], ids=["out-of-range", "pmin", "rho"])
def test_recover_omega_star_refuses_pmin_and_rho(feasible_matrix_file, alg, flags):
    path, _ = feasible_matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", alg, "--k-true", "3",
                   "--snr", "30", "--seed", "5", "--omega-star", "1.2", *flags)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(flag in lines[0] for flag in flags[::2])


def test_recover_blind_run_reports_the_default_pmin_and_rho(feasible_matrix_file):
    path, _ = feasible_matrix_file
    default = recover_json(path)
    assert (default["p_min"], default["rho"]) == (0.95, 0.175)
    assert recover_json(path, "--pmin", "0.95", "--rho", "0.175") == default


def test_recover_bad_y_file_is_domain_error(matrix_file, tmp_path):
    path, _ = matrix_file
    y_path = tmp_path / "bad.txt"
    y_path.write_text("1.0 2.0 nope")
    proc = run_cli("recover", "--matrix", str(path), "--alg", "ols", "--k", "1",
                   "--y", str(y_path))
    assert proc.returncode == 2
    assert "token #2" in proc.stderr


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_recover_non_finite_y_is_domain_error(matrix_file, tmp_path, token):
    path, _ = matrix_file
    y_path = tmp_path / "nan.txt"
    y_path.write_text(" ".join(["0.5"] * 10 + [token] + ["0.25"] * 53))
    proc = run_cli("recover", "--matrix", str(path), "--alg", "ols", "--k", "1",
                   "--y", str(y_path))
    assert proc.returncode == 2
    assert "token #10" in proc.stderr and "not finite" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("--m", "8", "--n", "4", "--seed", "1"),
    ("--m", "4", "--n", "8", "--seed", "-1"),
])
def test_gen_matrix_bad_shape_or_seed_is_usage_error(tmp_path, args):
    proc = run_cli("gen-matrix", "--family", "gaussian", *args, "--out", str(tmp_path / "d.bin"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")


def test_coherence_of_directory_is_usage_error(tmp_path):
    proc = run_cli("coherence", "--matrix", str(tmp_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error:")


def test_recover_corrupt_matrix_names_offset(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRONG!!!" + b"\x00" * 24)
    proc = run_cli("recover", "--matrix", str(bad), "--alg", "ols", "--k", "1",
                   "--k-true", "1", "--snr", "inf")
    assert proc.returncode == 2
    assert "byte offset 0" in proc.stderr


def test_invert_omega_reference_values():
    proc = run_cli("invert-omega", "--m", "1024", "--n", "2048", "--mu", "0.135",
                   "--rho", "0.175", "--pmin", "0.95")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["omega"] == pytest.approx(1.10994, abs=5e-4)
    assert out["omega_star"] == pytest.approx(out["omega"] - 0.175, abs=1e-12)
    assert out["stop_threshold"] == pytest.approx(out["omega_star"] * 0.135, abs=1e-12)
    assert out["sparsity_ceiling"] == pytest.approx(4.2037037, abs=1e-6)
    assert "sparsity_ceiling_note" in out
    assert proc.stderr == ""  # rho=0.175 is inside the tightness interval here


@pytest.mark.parametrize("mu, rho, pmin", [
    pytest.param("0.2", "0.175", "0.9", id="0.175"), pytest.param("0.2", "1.5", "0.9", id="1.5"),
    pytest.param("0.5", "0.175", "0.5", id="mu0.5-pmin0.5"),
    pytest.param("matrix", "0.175", "0.95", id="matrix"),
])
def test_invert_omega_threshold_matches_blind_params(feasible_matrix_file, mu, rho, pmin):
    from sparsense.harness import ExperimentConfig, blind_params_for

    path, info = feasible_matrix_file
    source = ("--matrix", str(path)) if mu == "matrix" else ("--mu", mu)
    proc = run_cli("invert-omega", "--m", "256", "--n", "512", *source,
                   "--rho", rho, "--pmin", pmin)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    _, meta = blind_params_for(
        ExperimentConfig(m=256, n=512, rho=float(rho), p_min=float(pmin)),
        info["coherence"] if mu == "matrix" else float(mu),
    )
    assert {key: out[key] for key in meta} == meta  # every shared key, exactly
    assert set(out) - set(meta) == {"noise_factor", "rho_valid_interval"}
    if rho == "1.5":  # omega is below rho here, so omega_star clamps at 0
        assert out["omega_star"] == 0.0 and out["omega"] < 1.5


@pytest.mark.parametrize("flags", [
    ("--mu", "0.2", "--m", "256", "--n", "512"),   # --matrix gives mu
    ("--m", "1024", "--n", "8192"),                # the matrix is 256x512
    ("--m", "256", "--n", "1024"),
], ids=["mu-beside-matrix", "shape", "n"])
def test_invert_omega_refuses_flags_that_disagree_with_the_matrix(feasible_matrix_file, flags):
    path, _ = feasible_matrix_file
    proc = run_cli("invert-omega", "--matrix", str(path), *flags, "--rho", "0.175",
                   "--pmin", "0.95")
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_invert_omega_warns_on_out_of_interval_rho():
    proc = run_cli("invert-omega", "--m", "1024", "--n", "2048", "--mu", "0.135",
                   "--rho", "0.4", "--pmin", "0.95")
    assert proc.returncode == 0
    assert "warning" in proc.stderr and "interval" in proc.stderr


def test_invert_omega_infeasible_target_exit_2():
    proc = run_cli("invert-omega", "--m", "64", "--n", "128", "--mu", "0.3",
                   "--rho", "0.175", "--pmin", "0.9999")
    assert proc.returncode == 2
    out = json.loads(proc.stdout)
    assert out["error"] == "InfeasibleTarget"
    assert 0 < out["probability_ceiling"] < 0.9999


@pytest.mark.parametrize("pmin", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["invert-omega", "recover-bols", "recover-bomp"])
def test_non_finite_pmin_is_domain_error(feasible_matrix_file, command, pmin):
    path, _ = feasible_matrix_file
    if command == "invert-omega":
        args = ("invert-omega", "--m", "256", "--n", "512", "--mu", "0.2", "--rho", "0.175")
    else:
        args = ("recover", "--matrix", str(path), "--alg", command.split("-")[1],
                "--k-true", "4", "--snr", "20")
    proc = run_cli(*args, f"--pmin={pmin}")
    assert proc.returncode == 2
    assert one_error_line(proc) and "must be finite" in proc.stderr, proc.stderr
    if proc.stdout:
        strict_json(proc.stdout)  # no bare NaN or Infinity token


@pytest.mark.parametrize("args", [
    ("coherence",),
    ("recover", "--alg", "bols", "--k-true", "4", "--snr", "20", "--seed", "5"),
    ("invert-omega", "--m", "256", "--n", "512", "--rho", "0.175", "--pmin", "0.95"),
], ids=["coherence", "recover", "invert-omega"])
def test_v1_and_v2_files_of_one_matrix_print_identical_stdout(feasible_matrix_file, tmp_path, args):
    path, info = feasible_matrix_file
    blob = path.read_bytes()  # gen-matrix writes format v2: the coherence at bytes 24-31
    assert blob[:8] == b"SPRSMAT2"
    v1 = tmp_path / "v1.bin"
    v1.write_bytes(b"SPRSMAT1" + blob[8:24] + blob[32:])
    procs = [run_cli(args[0], "--matrix", str(p), *args[1:]) for p in (path, v1)]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout == procs[1].stdout
    if args[0] == "coherence":
        assert json.loads(procs[0].stdout)["coherence"] == info["coherence"]


@pytest.mark.parametrize("mu", [float("nan"), -0.1, 1.5])
def test_coherence_of_v2_file_with_bad_stored_coherence_is_domain_error(
        feasible_matrix_file, tmp_path, mu):
    blob = feasible_matrix_file[0].read_bytes()
    bad = tmp_path / "bad_mu.bin"
    bad.write_bytes(blob[:24] + struct.pack("<d", mu) + blob[32:])
    proc = run_cli("coherence", "--matrix", str(bad))
    assert proc.returncode == 2
    assert one_error_line(proc) and "byte offset 24" in proc.stderr, proc.stderr
    assert proc.stdout == ""


def test_bounds_sweep_k_csv():
    proc = run_cli("bounds", "--sweep", "k", "--m", "1024", "--mu", "0.135",
                   "--rho", "0.15", "--k-min", "1", "--k-max", "8")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("k,mapping_lower_probabilistic")
    assert len(lines) == 9
    # the quadratic column goes empty once its argument turns negative
    assert lines[6].split(",")[2] == ""


def test_bounds_sweep_sv_csv():
    proc = run_cli("bounds", "--sweep", "sv", "--m", "1024", "--rho", "0.15",
                   "--k-min", "1", "--k-max", "4")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "k,singular_lower,singular_upper,prob_floor"
    assert len(lines) == 5
    last = lines[4].split(",")
    assert float(last[1]) == pytest.approx(0.7875, abs=1e-12)
    assert float(last[2]) == pytest.approx(1.2125, abs=1e-12)


def test_bounds_missing_mu_is_usage_error():
    proc = run_cli("bounds", "--sweep", "k", "--m", "1024", "--rho", "0.15")
    assert proc.returncode == 1


def test_bounds_sweep_pmin_csv():
    proc = run_cli("bounds", "--sweep", "pmin", "--m", "1024", "--n", "8192",
                   "--mu", "0.135", "--k", "4", "--rho", "0.15",
                   "--grid", "0.9:0.01:0.99")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 11
    assert lines[0].split(",")[:2] == ["p_min", "omega"]


@pytest.mark.parametrize("figure, first, count, sweep", [
    ("fig2a", "k", 17,  # 8 sparsity levels x 2 coherences + header
     "--sweep k --m 1024 --rho 0.15 --k-min 1 --k-max 8"),
    ("fig2b", "p_min", 21,  # 10 target probabilities x 2 coherences + header
     "--sweep pmin --m 1024 --n 8192 --rho 0.15 --k 4 --grid 0.9:0.01:0.99"),
])
def test_experiment_fig2a_outputs(tmp_path, figure, first, count, sweep):
    """Each figure row is the ``bounds`` row at its coherence with a mu cell inserted."""
    proc = run_cli("experiment", "--figure", figure, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    csv_path = tmp_path / f"{figure}.csv"
    assert csv_path.exists() and (tmp_path / f"{figure}.svg").exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == first
    assert len(lines) == count
    expected = []
    for mu in REFERENCE_MUS:
        table = run_cli("bounds", *sweep.split(), "--mu", repr(mu))
        assert table.returncode == 0, table.stderr
        header, *rows = (line.split(",") for line in table.stdout.splitlines())
        expected += [[cells[0], f"{mu:.17g}", *cells[1:]] for cells in rows]
    assert lines == [",".join([header[0], "mu", *header[1:]])] + [",".join(r) for r in expected]


def test_experiment_custom_runs_and_replots(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[tiny]\n"
        "family = gaussian\nm = 64\nn = 128\nk = 3\n"
        "snr_grid_db = 10, 20\nalgorithms = ols, bols\n"
        "trials = 4\nbase_seed = 7\np_min = 0.15\n"
    )
    out = tmp_path / "out"
    proc = run_cli("experiment", "--figure", "custom", "--config", str(cfg),
                   "--section", "tiny", "--out", str(out), "--threads", "2")
    assert proc.returncode == 0, proc.stderr
    csv_path = out / "tiny.csv"
    assert csv_path.exists()
    assert (out / "tiny.jsonl").exists()
    assert (out / "tiny_summary.json").exists()
    assert (out / "tiny_prob.svg").read_text().startswith("<svg")
    assert (out / "tiny_mse.svg").read_text().startswith("<svg")  # figure 6's only source

    # identical invocation with a different thread count: identical bytes
    out2 = tmp_path / "out2"
    proc2 = run_cli("experiment", "--figure", "custom", "--config", str(cfg),
                    "--section", "tiny", "--out", str(out2), "--threads", "1")
    assert proc2.returncode == 0
    assert (out2 / "tiny.csv").read_bytes() == csv_path.read_bytes()
    assert (out2 / "tiny.jsonl").read_bytes() == (out / "tiny.jsonl").read_bytes()

    # re-plot from the CSV alone
    svg = tmp_path / "replot.svg"
    proc3 = run_cli("plot", "--csv", str(csv_path), "--x", "grid",
                    "--y", "prob_recovery", "--series", "algorithm",
                    "--out", str(svg))
    assert proc3.returncode == 0
    assert svg.read_text().startswith("<svg")


def test_experiment_fig6_is_not_a_preset(tmp_path):
    # fig5 writes figure 6 as <label>_mse.svg, so no preset re-runs its sweeps
    proc = run_cli("experiment", "--figure", "fig6", "--out", str(tmp_path))
    assert proc.returncode == 1
    assert not any(tmp_path.iterdir())


def test_experiment_zero_trials_is_usage_error(tmp_path):
    proc = run_cli("experiment", "--figure", "fig3", "--set", "trials=0",
                   "--out", str(tmp_path))
    assert proc.returncode == 1


def test_experiment_infeasible_pmin_aborts_before_trials(tmp_path):
    proc = run_cli("experiment", "--figure", "fig3", "--set", "p_min=0.99999",
                   "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "ceiling" in proc.stderr
    assert not (tmp_path / "fig3.csv").exists()


def one_error_line(proc):
    return "Traceback" not in proc.stderr and proc.stderr.startswith("error:") \
        and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("--set", "trials=abc"),
    ("--set", "snr_grid_db=1,x"),
    ("--set", "m=600"),
    ("--set", "m=0"),
    ("--set", "family=hybrid", "--set", "offset_max=-1"),
    ("--seed", "-1"),
    ("--set", "algorithms=mols", "--set", "mols_subset=0"),
    ("--set", "max_blind_iterations=3"),  # deleted keys are unknown
    ("--set", "cosamp_max_iterations=10"),
    ("--set", "snr_grid_db=10,10"),  # a repeated value would merge two grid points
    ("--set", "algorithms=bols,ols,bols"),
    ("--set", "omega_grid=1.0,1.0"),
])
def test_experiment_bad_values_are_usage_errors(tmp_path, args):
    proc = run_cli("experiment", "--figure", "fig3", *args, "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert one_error_line(proc), proc.stderr
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("figure, key, value", [
    ("fig3", "snr_grid_db", "nan"),
    ("fig3", "snr_grid_db", "-inf"),
    ("fig5", "offset_max", "nan"),
    ("fig3", "nonzero_var", "nan"),
    ("fig3", "nonzero_mean", "nan"),
    ("fig3", "nonzero_mean", "inf"),
])
def test_experiment_non_finite_values_are_usage_errors(tmp_path, figure, key, value):
    proc = run_cli("experiment", "--figure", figure, "--set", "trials=2",
                   "--set", f"{key}={value}", "--out", str(tmp_path))
    assert proc.returncode == 1, proc.stderr
    assert one_error_line(proc) and repr(key) in proc.stderr, proc.stderr
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ("--figure", "fig5", "--config", "CFG"),
    ("--figure", "fig3", "--config", "CFG", "--section", "fig3"),
    ("--figure", "fig3", "--config", "missing.cfg", "--section", "nope"),
    ("--figure", "fig4", "--section", "fig4"),
    ("--figure", "fig2a", "--config", "CFG"),
], ids=["fig5-config", "fig3-config-section", "fig3-missing-config", "fig4-section",
        "fig2a-config"])
def test_experiment_preset_with_config_or_section_is_usage_error(tmp_path, args):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("[fig5_k8]\ntrials = 2\n[fig3]\ntrials = 2\n")
    out = tmp_path / "out"
    proc = run_cli("experiment", *(str(cfg) if a == "CFG" else a for a in args),
                   "--set", "trials=2", "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert one_error_line(proc) and "--figure custom" in proc.stderr, proc.stderr
    assert proc.stdout == "" and not out.exists()


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("grid", ["inf", "inf,10"])
def test_experiment_noiseless_grid_point_writes_valid_json_and_plots(tmp_path, grid):
    proc = run_cli("experiment", "--figure", "fig3", "--set", "trials=1",
                   "--set", f"snr_grid_db={grid}", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    expected = [v if v == "inf" else float(v) for v in grid.split(",")]
    records = [strict_json(line) for line in (tmp_path / "fig3.jsonl").read_text().splitlines()]
    assert {r["grid"] for r in records} == set(expected)
    assert all(r["snr_db"] == r["grid"] for r in records)
    summary = strict_json((tmp_path / "fig3_summary.json").read_text())
    assert summary["config"]["snr_grid_db"] == expected
    assert "inf,bols," in (tmp_path / "fig3.csv").read_text()
    for suffix in ("_prob.svg", "_mse.svg"):
        assert (tmp_path / f"fig3{suffix}").read_text().startswith("<svg")


def test_plot_leaves_out_non_finite_points(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("grid,algorithm,prob_recovery,mse,mean_iterations,trials\n"
                   "10,ols,0.5,0.1,3,10\n20,ols,0.9,0.001,3,10\ninf,ols,1,1e-33,3,10\n"
                   "30,ols,nan,0.01,3,10\n")
    for extra in ((), ("--y", "mse", "--logy")):
        svg = tmp_path / "d.svg"
        proc = run_cli("plot", "--csv", str(csv), *extra, "--out", str(svg))
        assert proc.returncode == 0, proc.stderr
        circles = svg.read_text().count("<circle")
        assert circles == (2 if not extra else 3)


@pytest.mark.parametrize("snr", ["-inf", "nan"])
def test_recover_nan_or_minus_infinite_snr_is_domain_error(matrix_file, snr):
    path, _ = matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", "bols", "--k-true", "3",
                   f"--snr={snr}")
    assert proc.returncode == 2
    assert one_error_line(proc) and "snr_db" in proc.stderr, proc.stderr
    assert proc.stdout == ""


def test_recover_result_that_overflows_is_domain_error(tmp_path):
    path = tmp_path / "h.bin"
    proc = run_cli("gen-matrix", "--family", "hybrid", "--m", "256", "--n", "512",
                   "--seed", "518", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("recover", "--matrix", str(path), "--alg", "cosamp", "--k", "8",
                   "--k-true", "8", "--snr=-3055", "--seed", "5")
    assert proc.returncode == 2
    assert one_error_line(proc) and "snr_db=-3055.0" in proc.stderr and "cosamp" in proc.stderr
    assert "Infinity" not in proc.stdout


def test_recover_negative_k_true_is_domain_error(matrix_file):
    path, _ = matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", "bols", "--k-true", "-1",
                   "--snr", "20")
    assert proc.returncode == 2
    assert one_error_line(proc) and "k=-1" in proc.stderr, proc.stderr
    assert proc.stdout == ""


def test_experiment_custom_with_scale_is_usage_error(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[s]\ntrials = 1\nsnr_grid_db = 20\n")
    out = tmp_path / "out"
    custom = ("experiment", "--figure", "custom", "--config", str(cfg), "--section", "s",
              "--out", str(out))
    for scale in SCALES:
        proc = run_cli(*custom, "--scale", scale)
        assert proc.returncode == 1, proc.stderr
        assert one_error_line(proc) and "--scale" in proc.stderr, proc.stderr
        assert proc.stdout == "" and not out.exists()
    proc = run_cli(*custom)
    assert proc.returncode == 0, proc.stderr
    assert (out / "s.csv").exists()


def test_experiment_config_file_value_that_is_not_a_number_names_its_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[s]\nm = 32\nn = 64\ntrials = 2\nsnr_grid_db = 10, x\n")
    proc = run_cli("experiment", "--figure", "custom", "--config", str(cfg), "--section", "s",
                   "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert one_error_line(proc) and "snr_grid_db" in proc.stderr


@pytest.mark.parametrize("env_seed, args", [(None, ("--seed", "-1")), (-1, ())])
def test_recover_seed_out_of_range_is_usage_error(matrix_file, env_seed, args):
    path, _ = matrix_file
    proc = run_cli("recover", "--matrix", str(path), "--alg", "bols", "--k-true", "3",
                   "--snr", "20", *args, env_seed=env_seed)
    assert proc.returncode == 1
    assert one_error_line(proc) and "seed" in proc.stderr


@pytest.mark.parametrize("grid", ["a:b:c", "0.9:0.01:x", "0.9:0.01:inf"])
def test_bounds_grid_that_is_not_numbers_is_usage_error(grid):
    proc = run_cli("bounds", "--sweep", "pmin", "--m", "64", "--n", "128", "--mu", "0.3",
                   "--rho", "0.1", "--grid", grid)
    assert proc.returncode == 1
    assert one_error_line(proc) and grid in proc.stderr


@pytest.mark.parametrize("row, column", [("10,ols,high,0.1", "prob_recovery"),
                                         ("10,ols", "prob_recovery")])
def test_plot_bad_cell_names_line_and_column(tmp_path, row, column):
    csv = tmp_path / "d.csv"
    csv.write_text("grid,algorithm,prob_recovery,mse\n0,ols,0.5,0.1\n" + row + "\n")
    proc = run_cli("plot", "--csv", str(csv), "--out", str(tmp_path / "d.svg"))
    assert proc.returncode == 2
    assert one_error_line(proc) and "line 3" in proc.stderr and repr(column) in proc.stderr
    assert not (tmp_path / "d.svg").exists()


def test_unknown_flag_is_usage_error():
    proc = run_cli("coherence", "--matrix", "x.bin", "--bogus")
    assert proc.returncode == 1


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


def test_plot_escapes_its_text_so_the_svg_parses(tmp_path):
    import xml.etree.ElementTree as ET

    from sparsense import cli

    csv = tmp_path / "p.csv"
    csv.write_text("grid,algorithm,prob_recovery\n1,a<b&c,0.5\n2,a<b&c,0.7\n")
    svg = tmp_path / "p.svg"
    assert cli.main(["plot", "--csv", str(csv), "--title", "R&D <x>", "--x-label", "x>0 & y",
                     "--y-label", "<P>", "--out", str(svg)]) == 0
    texts = [el.text for el in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
    assert {"R&D <x>", "x>0 & y", "<P>", "a<b&c"} <= set(texts)


def test_plot_log_scale(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("grid,algorithm,prob_recovery,mse,mean_iterations,trials\n"
                   "0,ols,0.5,0.1,3,10\n10,ols,0.9,0.001,3,10\n")
    svg = tmp_path / "d.svg"
    proc = run_cli("plot", "--csv", str(csv), "--y", "mse", "--logy",
                   "--out", str(svg))
    assert proc.returncode == 0
    assert "1e-" in svg.read_text()


def test_plot_missing_column_is_usage_error(tmp_path):
    csv = tmp_path / "d.csv"
    csv.write_text("a,b\n1,2\n")
    proc = run_cli("plot", "--csv", str(csv), "--x", "zzz", "--y", "b",
                   "--series", "", "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 1


# Fixed reproducers: each of these inputs once exited 0, ended in a traceback or
# never finished. "M" is a 16x32 Gaussian matrix file and "Y" a measurement file
# for it, in the working directory.
REPRODUCERS = [
    ("recover --matrix M --alg bols --k 4 --k-true 2 --snr 20", 1),
    ("recover --matrix M --alg ols --k 3 --mols-subset 7 --k-true 2 --snr 20", 1),
    ("recover --matrix M --alg ols --k 2 --y Y --k-true 2", 1),
    ("recover --matrix M --alg ols --k 2 --y Y --snr 20", 1),
    ("recover --matrix M --alg ols --k 2 --y Y --seed 5", 1),
    ("bounds --sweep sv --m 64 --rho 0.1 --mu 0.3 --n 9 --grid zz", 1),
    ("bounds --sweep k --m 64 --mu 0.3 --rho 0.1 --n 9", 1),
    ("bounds --sweep pmin --m 64 --n 128 --mu 0.3 --rho 0.1 --k-min 3", 1),
    ("experiment --figure fig2a --set trials=abc --out out", 1),
    ("experiment --figure fig2a --seed 5 --out out", 1),
    ("experiment --figure fig2a --threads 7 --out out", 1),
    ("experiment --figure fig2a --scale paper --out out", 1),
    ("gen-matrix --family gaussian --m 16 --n 32 --offset-max 5 --out G", 1),
    ("experiment --figure fig3 --set trials=1 --out M", 1),
    ("recover --matrix M --alg bols --k-true 2 --snr 1e308", 2),
    ("experiment --figure fig3 --set trials=1 --set snr_grid_db=1e308 --out out", 1),
    ("recover --matrix M --alg bols --pmin 0.5 --rho inf --k-true 2 --snr 20", 2),
    ("invert-omega --m 16 --n 32 --mu 0.3 --rho inf --pmin 0.5", 2),
    ("bounds --sweep sv --m 64 --rho inf", 2),
    ("bounds --sweep k --m 1024 --mu 0.135 --rho 0.15 --k-max 200000", 2),
    ("bounds --sweep k --m 1024 --mu 0.135 --rho 0.15 --k-max 18446744073709551616", 2),
    ("bounds --sweep sv --m 18446744073709551616 --rho 0.1 --k-max 18446744073709551616", 2),
    ("bounds --sweep k --m 1024 --mu 0.135 --rho 0.15 --k-min -5", 2),
    ("bounds --sweep k --m 1024 --mu -0.5 --rho 0.15", 2),
    ("bounds --sweep pmin --m 64 --n 128 --mu 0.3 --rho 0.1 --grid 0.9:1e-20:0.99", 1),
    ("bounds --sweep pmin --m 64 --n 128 --mu 0.3 --rho 0.1 --grid 0.9:1e-20:0.9", 1),
    ("bounds --sweep pmin --m 64 --n 128 --mu 0.3 --rho 0.1 "
     "--grid 0.9:1e-20:0.9000000000000001", 1),
    ("recover --matrix M --alg bols --omega-star 1 --k-true 2 --snr=-3100", 2),
    ("recover --matrix M --alg ols --k 2 --k-true 2 --snr=-5000", 2),
    ("experiment --figure fig3 --set trials=1 --set m=16 --set n=32 --set algorithms=ols "
     "--set snr_grid_db=-3100 --out out", 2),
    ("experiment --figure fig3 --set trials=2 --set algorithms= --out out", 1),
    ("experiment --figure fig3 --set trials=1 --threads 0 --out out", 1),
    ("experiment --figure fig3 --set trials=1 --threads -3 --out out", 1),
    ("recover --matrix M --alg ols --k 2 --y M", 2),
    ("experiment --figure custom --config M --section tiny --out out", 1),
    ("plot --csv M --out P", 2),
    ("recover --matrix M --alg bomp --omega-star inf --y Y", 2),
    ("gen-matrix --family gaussian --m 18446744073709551616 --n 18446744073709551616 --out G", 1),
    ("experiment --figure fig7 --set trials=1 --set algorithms=ols --set k=300 --out out", 1),
    # 2**62 bytes: more than any physical memory, refused before it is allocated
    ("gen-matrix --family gaussian --m 536870912 --n 1073741824 --out G", 2),
    ("experiment --figure fig3 --set trials=1 --set m=536870912 --set n=1073741824 --out out", 2),
    ("experiment --figure fig7 --set trials=1 --set algorithms=ols --set m=536870912 "
     "--set n=1073741824 --out out", 2),
]


@pytest.mark.parametrize("command, code", REPRODUCERS, ids=[c for c, _ in REPRODUCERS])
def test_reproducer_exits_with_one_error_line_and_no_output(tmp_path, monkeypatch, capsys,
                                                             command, code):
    from sparsense import cli

    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-matrix", "--family", "gaussian", "--m", "16", "--n", "32",
                     "--seed", "3", "--out", "M"]) == 0
    (tmp_path / "Y").write_text(" ".join(["0.25"] * 16))
    capsys.readouterr()
    assert cli.main(command.split()) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["M", "Y"]


CSV_HEADER = "grid,algorithm,prob_recovery,mse,mean_iterations,trials\n"


@pytest.mark.parametrize("command, code", [
    ("plot --csv C --out P", 0),
    ("plot --csv D --out P", 2),
    ("experiment --figure fig4 --set trials=1 --set m=16 --set n=32 --set omega_grid=1e308 "
     "--out out", 0),
])
def test_plot_of_an_x_axis_at_or_past_2_to_the_53_ends_without_a_traceback(
        tmp_path, monkeypatch, capsys, command, code):
    """One x of 1e308 is widened by its magnitude and drawn; -1e308 and 1e308
    span more than a double holds and are refused with one error line."""
    from sparsense import cli

    monkeypatch.chdir(tmp_path)
    (tmp_path / "C").write_text(CSV_HEADER + "1e308,ols,0.5,0.1,3,10\n")
    (tmp_path / "D").write_text(CSV_HEADER + "-1e308,ols,0.5,0.1,3,10\n1e308,ols,0.5,0.1,3,10\n")
    assert cli.main(command.split()) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "P").exists()
    else:
        assert err == ""
        svgs = [tmp_path / "P"] if command.startswith("plot") else [
            tmp_path / "out" / f"fig4_{kind}.svg" for kind in ("prob", "mse")]
        assert all(p.read_text().endswith("</svg>\n") for p in svgs)


@pytest.mark.parametrize("x", [2.0**53, 1e16])
def test_line_plot_widens_a_single_x_at_or_past_2_to_the_53(x):
    from sparsense.svgplot import line_plot

    svg = line_plot({"a": [(x, 0.5)]})
    assert "nan" not in svg and svg.count("<circle") == 1


@pytest.mark.parametrize("x", ["1e16", "1e308"])
def test_plot_of_one_row_labels_adjacent_x_ticks_apart(tmp_path, x):
    """An x axis whose span is tiny next to its magnitude gets as many digits
    as its ticks need to differ."""
    from sparsense import cli

    (tmp_path / "C").write_text(CSV_HEADER + f"{x},ols,0.5,0.1,3,10\n")
    assert cli.main(["plot", "--csv", str(tmp_path / "C"), "--out", str(tmp_path / "P")]) == 0
    svg = (tmp_path / "P").read_text()
    labels = re.findall(r'y="474" text-anchor="middle" font-size="11" fill="#444">([^<]*)<', svg)
    values = [float(v) for v in labels]
    assert len(labels) >= 3 and values == sorted(set(values)), labels
    assert values == pytest.approx([float(x)] * len(values), rel=1e-12)


X_TICK_LABEL = re.compile(r'y="474" text-anchor="middle" font-size="11" fill="#444">([^<]*)<')


@pytest.mark.parametrize("command", [
    "plot --csv C --out P",
    "experiment --figure fig4 --set trials=1 --set omega_grid=1e16,10000000000000002 --out out",
])
def test_plot_of_an_x_span_below_half_an_ulp_per_tick_step_ends(tmp_path, command):
    """x from 1e16 to 1e16 + 2 asks for a tick step of 0.5, which cannot move
    a value of the axis: the ticks fall back to the axis ends instead of
    looping forever."""
    (tmp_path / "C").write_text(CSV_HEADER + "1e16,ols,0.5,0.1,3,10\n"
                                "10000000000000002,ols,0.7,0.1,3,10\n")
    args = [str(tmp_path / a) if a in ("C", "P", "out") else a for a in command.split()]
    proc = run_cli(*args, timeout=60)
    assert proc.returncode == 0, proc.stderr
    svgs = [tmp_path / "P"] if command.startswith("plot") else [
        tmp_path / "out" / f"fig4_{kind}.svg" for kind in ("prob", "mse")]
    for svg in svgs:
        labels = X_TICK_LABEL.findall(svg.read_text())
        assert len(labels) >= 2 and len(set(labels)) == len(labels), labels


@pytest.mark.parametrize("figure, grid, ends", [
    ("fig4", "omega_grid=1e16,10000000000000002", ("10000000000000000", "10000000000000002")),
    ("fig4", "omega_grid=0.5", ("0.5", "0.5")),
    ("fig3", "snr_grid_db=10,inf", ("10", "inf")),
])
def test_experiment_summary_prints_grid_ends_apart(tmp_path, figure, grid, ends):
    """The summary line gives the grid ends as many digits as their distance
    needs; a single-point grid or a non-finite end keeps %g."""
    proc = run_cli("experiment", "--figure", figure, "--set", "trials=1", "--set", grid,
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(re.search(r" at (\S+) -> \S+ at (\S+),", line).groups() == ends
                         for line in lines), lines


def test_mols_ends_like_ols_when_the_top_candidate_duplicates_a_picked_column(tmp_path):
    """Column 1 equals column 0 and y = d_0 + eps d_j. Once column 0 is
    picked, column 1 can keep the top OLS score through rounding yet lies in
    the selected span: OLS ends RankDeficient, and MOLS must end the same
    way instead of retrying that round forever."""
    from sparsense.matgen import MeasurementMatrix, save_matrix
    from sparsense.recovery import GreedyPath

    rng = np.random.default_rng(1)
    for _ in range(200):
        e = rng.standard_normal((16, 32))
        e /= np.linalg.norm(e, axis=0)
        e[:, 1] = e[:, 0]
        j, eps = int(rng.integers(2, 32)), 10.0 ** rng.uniform(-11, -7)
        mat = MeasurementMatrix(e)
        y = mat.entries[:, 0] + eps * mat.entries[:, j]
        path = GreedyPath(mat, y, "ols")
        path.grow(0)
        if path.picks == [0] and int(np.argmax(path.scores())) == 1:
            break
    else:
        pytest.fail("no draw puts the duplicate column on top after the first pick")
    save_matrix(mat, tmp_path / "M")
    (tmp_path / "Y").write_text("\n".join(f"{v:.17g}" for v in y))
    reasons = {}
    for alg in (("ols",), ("mols", "--mols-subset", "1")):
        proc = run_cli("recover", "--matrix", str(tmp_path / "M"), "--y", str(tmp_path / "Y"),
                       "--k", "3", "--alg", *alg, timeout=60)
        assert proc.returncode == 0, proc.stderr
        reasons[alg[0]] = json.loads(proc.stdout)["stop_reason"]
    assert reasons == {"ols": "RankDeficient", "mols": "RankDeficient"}


def test_memory_limit_refuses_a_matrix_before_allocating_it(monkeypatch):
    from sparsense import matgen
    from sparsense.errors import InvalidParams

    monkeypatch.setattr(matgen.os, "sysconf", lambda name: 1024 if name == "SC_PAGE_SIZE" else 1)
    monkeypatch.setattr(matgen.np, "empty", lambda *a, **k: pytest.fail("allocated"))
    with pytest.raises(InvalidParams, match="1024 bytes of physical memory"):
        matgen.gen_gaussian_normalized(8, 17, seed=1)  # 1088 bytes
