"""Golden outputs: the six desk preset sweeps at 3 trials and the two
closed-form figures, rerun through the CLI and compared with the committed
CSV, JSONL and summary JSON under tests/data/golden.

Every field must match exactly except ``mse`` (CSV), ``mse_contrib``
(JSONL) and the summary's six numbers derived from the coherence mu, which
are compared at rel 1e-9: they come from least-squares solves and Gram
products whose last digits may differ between BLAS kernels, while supports,
stop reasons, iteration counts and the summary's keys may not. A change that moves any other
field changes the program's results and must regenerate the files and
explain every changed number. The closed-form CSVs (fig2a, fig2b) must
match in their headers and empty cells exactly and in each number at rel
1e-12, since the bounds come from libm's exp and log. To regenerate, from the
repository root:

    for f in fig3 fig4 fig5 fig7; do
      PYTHONPATH=src python -m sparsense.cli experiment --figure $f \\
        --set trials=3 --threads 1 --out tests/data/golden
    done
    for f in fig2a fig2b; do
      PYTHONPATH=src python -m sparsense.cli experiment --figure $f \\
        --out tests/data/golden
    done

and delete the SVG files it also writes.
"""

import json
from pathlib import Path

import pytest

from sparsense.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"
FIGURES = ("fig3", "fig4", "fig5", "fig7")
LABELS = ("fig3", "fig4", "fig5_k8", "fig5_k12", "fig7_a", "fig7_b")
LOOSE = ("mse", "mse_contrib")
MU_DERIVED = ("mu", "omega", "omega_star", "stop_threshold", "probability_ceiling",
              "sparsity_ceiling")


def assert_same_fields(got: dict, want: dict, where: str, loose=LOOSE):
    assert got.keys() == want.keys(), where
    for key, value in want.items():
        if key in loose and got[key] != value:
            assert float(got[key]) == pytest.approx(float(value), rel=1e-9), f"{where} {key}"
        else:
            assert got[key] == value, f"{where} {key}"


def csv_rows(path: Path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def jsonl_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    for figure in FIGURES:
        assert main([
            "experiment", "--figure", figure, "--set", "trials=3", "--threads", "1",
            "--out", str(out),
        ]) == 0
    return out


@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("suffix, read", [(".csv", csv_rows), (".jsonl", jsonl_rows)])
def test_outputs_match_the_golden_files(rerun, label, suffix, read):
    name = label + suffix
    got, want = read(rerun / name), read(GOLDEN / name)
    assert len(got) == len(want), name
    for i, (g, w) in enumerate(zip(got, want)):
        assert_same_fields(g, w, f"{name} row {i}")


@pytest.mark.parametrize("label", LABELS)
def test_summaries_match_the_golden_files(rerun, label):
    name = f"{label}_summary.json"
    got, want = (json.loads((root / name).read_text()) for root in (rerun, GOLDEN))
    assert_same_fields(got, want, name, loose=MU_DERIVED)


@pytest.mark.parametrize("figure", ("fig2a", "fig2b"))
def test_closed_form_figures_match_the_golden_files(tmp_path, figure):
    assert main(["experiment", "--figure", figure, "--out", str(tmp_path)]) == 0
    name = f"{figure}.csv"
    got, want = ((root / name).read_text().splitlines() for root in (tmp_path, GOLDEN))
    assert got[0] == want[0] and len(got) == len(want), name
    for i, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        g, w = g.split(","), w.split(",")
        assert [c == "" for c in g] == [c == "" for c in w], f"{name} line {i}"
        numbers = [[float(c) for c in cells if c] for cells in (g, w)]
        assert numbers[0] == pytest.approx(numbers[1], rel=1e-12, abs=0), f"{name} line {i}"
