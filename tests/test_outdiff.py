"""tools/outdiff.py on a tiny sweep and hand-edited copies of its outputs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from sparsense.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)

CONFIG = """[tiny]
family = hybrid
m = 64
n = 128
k = 3
snr_grid_db = 30, 50
algorithms = bols, cosamp
trials = 3
base_seed = 23
p_min = 0.15
"""


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    root = tmp_path_factory.mktemp("outdiff")
    (root / "tiny.cfg").write_text(CONFIG)
    out = root / "a"
    assert main(["experiment", "--figure", "custom", "--config", str(root / "tiny.cfg"),
                 "--section", "tiny", "--threads", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture
def copy(sweep, tmp_path):
    return Path(shutil.copytree(sweep, tmp_path / "b"))


def edit_jsonl(path: Path, index: int, **fields):
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    recs[index].update(fields)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))
    return recs[index]


def test_identical_outputs_report_no_difference(sweep, copy, capsys):
    assert outdiff.main([str(sweep), str(copy)]) == 0
    out = capsys.readouterr().out
    # 2 grid points x 2 algorithms: 4 CSV rows and 12 JSONL records
    assert out == ("16 records compared, 0 discrete differences; "
                   "largest relative change: mse 0, mse_contrib 0\n")


def test_a_flipped_decision_is_named_by_file_grid_algorithm_and_trial(sweep, copy, capsys):
    rec = edit_jsonl(copy / "tiny.jsonl", 5, iterations=99)
    assert outdiff.main([str(sweep), str(copy)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith(
        f"tiny.jsonl: grid {rec['grid']}, algorithm {rec['algorithm']}, "
        f"trial {rec['trial']}: iterations "
    )
    assert out[-1].startswith("16 records compared, 1 discrete differences")


def test_a_csv_decision_field_differs(sweep, copy, capsys):
    path = copy / "tiny.csv"
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    cells[2] = "0.5" if cells[2] != "0.5" else "0.25"  # prob_recovery
    path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert outdiff.main([str(sweep), str(copy)]) == 1
    out = capsys.readouterr().out
    assert f"tiny.csv: grid {cells[0]}, algorithm {cells[1]}, trial None: prob_recovery" in out


def test_continuous_fields_are_reported_not_refused(sweep, copy, capsys):
    path = copy / "tiny.jsonl"
    rec = json.loads(path.read_text().splitlines()[2])
    edit_jsonl(path, 2, mse_contrib=rec["mse_contrib"] * (1 + 1e-6) + 1e-300)
    assert outdiff.main([str(sweep), str(copy)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("16 records compared, 0 discrete differences")
    rel = float(out.rsplit("mse_contrib ", 1)[1])
    assert 5e-7 < rel < 2e-6


def test_missing_files_and_records_are_differences(sweep, copy, capsys):
    (copy / "tiny.csv").unlink()
    lines = (copy / "tiny.jsonl").read_text().splitlines()
    (copy / "tiny.jsonl").write_text("\n".join(lines[1:]) + "\n")
    assert outdiff.main([str(sweep), str(copy)]) == 1
    out = capsys.readouterr().out
    assert f"tiny.csv: only in {sweep}" in out
    assert "records compared, 2 discrete differences" in out


def test_unreadable_input_exits_2(sweep, copy, tmp_path, capsys):
    (copy / "bounds.csv").write_text("k,mu\n1,0.5\n")
    assert outdiff.main([str(copy), str(copy)]) == 2
    assert outdiff.main([str(sweep)]) == 2
    assert outdiff.main([str(sweep), str(tmp_path / "none")]) == 2
