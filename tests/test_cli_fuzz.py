"""Fuzz of the CLI's input contract.

``cli.main`` runs in process on drawn argv lists. Each starts from one that
runs a mode of its subcommand, turns some values into boundary values (NaN,
+-inf, 0, -1, 1e308, 2**64), drops some flags and adds optional ones, whether
or not the mode reads them. Matrices are 16x32 and experiments run one trial,
so the whole fuzz takes seconds. Every run must end in exit 0, 1 or 2 with no
exception escaping ``main``; a non-zero exit prints exactly one ``error:``
line; stdout is strict JSON (no NaN or Infinity token) or CSV with finite
cells, and so is every file an experiment writes.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sparsense import cli  # noqa: E402
from sparsense.harness import ALGORITHMS  # noqa: E402

BOUNDARY = ("nan", "inf", "-inf", "0", "-1", "1e308", str(2**64))
SECTION = ("[tiny]\nm = 16\nn = 32\nk = 2\nsnr_grid_db = 10, 30\nalgorithms = ols, bols\n"
           "p_min = 0.3\nrho = 0.8\ntrials = 1\n")

# per subcommand, argv lists that each run one of its modes as documented;
# MATRIX, Y, CONFIG and OUT name files of the workspace
BASES = {
    "gen-matrix": ("--family=gaussian --m=16 --n=32 --out=OUT/d.bin",
                   "--family=hybrid --m=16 --n=32 --offset-max=5 --out=OUT/d.bin --csv=OUT/d.csv"),
    "coherence": ("--matrix=MATRIX",),
    "recover": ("--matrix=MATRIX --alg=ols --k=2 --k-true=2 --snr=20",
                "--matrix=MATRIX --alg=mols --k=2 --mols-subset=2 --y=Y --out=OUT/r.json",
                "--matrix=MATRIX --alg=bols --pmin=0.3 --rho=0.8 --k-true=2 --snr=inf --seed=5",
                "--matrix=MATRIX --alg=bomp --omega-star=1.2 --max-iterations=3 --y=Y"),
    "bounds": ("--sweep=k --m=16 --mu=0.3 --rho=0.1 --k-min=1 --k-max=4",
               "--sweep=sv --m=16 --rho=0.1 --out=OUT/b.csv",
               "--sweep=pmin --m=256 --n=512 --mu=0.1 --rho=0.175 --k=2 --grid=0.2:0.1:0.5"),
    "invert-omega": ("--m=16 --n=32 --mu=0.3 --rho=0.8 --pmin=0.3",
                     "--m=16 --n=32 --matrix=MATRIX --rho=0.8 --pmin=0.3"),
    "experiment": ("--figure=custom --config=CONFIG --section=tiny --threads=2 --out=OUT/e",
                   "--figure=fig2a --out=OUT/e", "--figure=fig2b --out=OUT/e"),
}
# subcommand -> every optional flag, with valid values for adding it to a base
FLAGS = {
    "gen-matrix": {"--seed": ("3",), "--offset-max": ("5",), "--csv": ("OUT/d.csv",)},
    "coherence": {},
    "recover": {
        "--y": ("Y",), "--k": ("2",), "--k-true": ("2",), "--snr": ("20", "inf", "-3100"),
        "--pmin": ("0.3",), "--rho": ("0.8",), "--omega-star": ("1.2",),
        "--max-iterations": ("3",), "--mols-subset": ("2",), "--seed": ("5",),
        "--out": ("OUT/r.json",),
    },
    "bounds": {
        "--n": ("32",), "--mu": ("0.3",), "--k": ("2",), "--k-min": ("1",), "--k-max": ("4",),
        "--grid": ("0.2:0.1:0.5", "0:1e308:1e308", f"0:{2**64}:1e308", "0.9:1e-20:0.9"),
        "--out": ("OUT/b.csv",),
    },
    "invert-omega": {"--mu": ("0.3",), "--matrix": ("MATRIX",)},
    "experiment": {
        "--scale": ("desk", "paper"), "--config": ("CONFIG",), "--section": ("tiny",),
        "--seed": ("7",), "--threads": ("1", "2"),
        "--set": tuple(f"{key}={value}" for key in ("snr_grid_db", "p_min", "rho", "k", "m", "n",
                                                    "offset_max", "mols_subset", "omega_grid")
                       for value in ("0.5", "-3100") + BOUNDARY),
    },
}


@st.composite
def argvs(draw):
    """A base argv with some values turned into boundary values, some flags
    dropped, and some optional flags added, in or out of the base's mode."""
    command = draw(st.sampled_from(sorted(BASES)))
    tokens = dict(t.split("=", 1) for t in draw(st.sampled_from(BASES[command])).split())
    for flag in list(tokens):
        change = draw(st.sampled_from(("keep",) * 5 + ("drop", "boundary")))
        if change == "drop":
            del tokens[flag]
        elif change == "boundary":
            tokens[flag] = draw(st.sampled_from(BOUNDARY))
    for flag, valid in FLAGS[command].items():
        if flag not in tokens and draw(st.sampled_from((False,) * 6 + (True,))):
            tokens[flag] = draw(st.sampled_from(valid + BOUNDARY))
    argv = [command] + [f"{flag}={value}" for flag, value in tokens.items()]
    return argv + ["--set=trials=1"] if tokens.get("--figure") == "custom" else argv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen-matrix", "--family", "gaussian", "--m", "16", "--n", "32",
                         "--seed", "3", "--out", str(root / "g.bin")]) == 0
    (root / "y.txt").write_text(" ".join(["0.25"] * 16))
    (root / "c.cfg").write_text(SECTION)
    return root


def strict_json(text):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def assert_finite_csv(text, noiseless_column=None):
    header, *rows = text.splitlines()
    names = header.split(",")
    for row in rows:
        for name, cell in zip(names, row.split(","), strict=True):
            if cell and name != "algorithm" and not (name == noiseless_column and cell == "inf"):
                assert math.isfinite(float(cell)), (name, row)


@settings(max_examples=1000, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_drawn_argv_keeps_the_exit_code_contract(workspace, argv):
    files = {"MATRIX": "g.bin", "Y": "y.txt", "CONFIG": "c.cfg"}
    argv = list(argv)
    with tempfile.TemporaryDirectory(dir=workspace) as out:
        for i, token in enumerate(argv[1:], start=1):
            flag, value = token.split("=", 1)
            if value in files or value.startswith("OUT/"):
                value = str(workspace / files[value]) if value in files else out + value[3:]
            argv[i] = f"{flag}={value}"
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(out)  # a drawn value used as a file name lands here
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), argv
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == (code != 0), (argv, stderr.getvalue())
        text = stdout.getvalue()
        if argv[0] == "bounds" and text and not text.startswith("wrote"):
            assert_finite_csv(text)
        elif argv[0] != "experiment" and text and not text.startswith("wrote"):
            strict_json(text)
        for path in Path(out).rglob("*") if argv[0] in ("bounds", "experiment") else ():
            if path.suffix == ".csv":
                assert_finite_csv(path.read_text(), noiseless_column="grid")
            elif path.suffix == ".jsonl":
                for line in path.read_text().splitlines():
                    strict_json(line)
            elif path.suffix == ".json":
                strict_json(path.read_text())
