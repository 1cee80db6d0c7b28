import json
import subprocess
import sys
from pathlib import Path

import pytest

PKG_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, env_seed=None):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(PKG_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    if env_seed is not None:
        env["SPARSENSE_SEED"] = str(env_seed)
    return subprocess.run(
        [sys.executable, "-m", "sparsense.cli", *args],
        capture_output=True, text=True, env=env,
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


@pytest.mark.parametrize("rho", ["0.175", "1.5"])
def test_invert_omega_threshold_matches_blind_params(rho):
    from sparsense.harness import ExperimentConfig, blind_params_for

    proc = run_cli("invert-omega", "--m", "256", "--n", "512", "--mu", "0.2",
                   "--rho", rho, "--pmin", "0.9")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    _, meta = blind_params_for(
        ExperimentConfig(m=256, n=512, rho=float(rho), p_min=0.9), 0.2
    )
    assert out["omega_star"] == meta["omega_star"]
    assert out["stop_threshold"] == meta["stop_threshold"]
    if rho == "1.5":  # omega is below rho here, so omega_star clamps at 0
        assert out["omega_star"] == 0.0 and out["omega"] < 1.5


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


def test_experiment_fig2a_outputs(tmp_path):
    proc = run_cli("experiment", "--figure", "fig2a", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    csv_path = tmp_path / "fig2a.csv"
    assert csv_path.exists() and (tmp_path / "fig2a.svg").exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "k"
    assert len(lines) == 17  # 8 sparsity levels x 2 coherences + header


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


def test_unknown_flag_is_usage_error():
    proc = run_cli("coherence", "--matrix", "x.bin", "--bogus")
    assert proc.returncode == 1


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("frobnicate")
    assert proc.returncode == 1


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
