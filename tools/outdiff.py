"""Compare two ``sparsense experiment`` output directories decision by decision.

    python tools/outdiff.py A B

Every discrete field must be equal. In each sweep CSV these are the grid,
algorithm, prob_recovery, mean_iterations and trials of every row; in each
JSONL, every field of every record but ``mse_contrib``. The continuous
fields, the CSV's ``mse`` and the JSONL's ``mse_contrib``, are reported by
their largest relative change. Summary and SVG files are not read, and a CSV
with other columns (a closed-form figure's) is refused.

Prints one line per difference, naming the file, grid, algorithm and trial,
then a report line. Exits 0 when no discrete field differs, 1 when one does,
and 2 when a directory cannot be read.
"""

import json
import sys
from pathlib import Path

# harness.CSV_HEADER, copied so that the tool needs no version of the package
SWEEP_HEADER = "grid,algorithm,prob_recovery,mse,mean_iterations,trials"
CONTINUOUS = {".csv": "mse", ".jsonl": "mse_contrib"}


def _records(path: Path) -> dict[tuple, dict]:
    """The file's records keyed by (grid, algorithm, trial); trial is None for CSV rows."""
    lines = path.read_text().splitlines()
    if path.suffix == ".jsonl":
        out = {}
        for line in lines:
            rec = json.loads(line)
            out[(str(rec["grid"]), rec["algorithm"], rec["trial"])] = rec
        return out
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"{path} is not a sweep CSV")
    header = SWEEP_HEADER.split(",")
    rows = (dict(zip(header, line.split(","))) for line in lines[1:])
    return {(row["grid"], row["algorithm"], None): row for row in rows}


def _rel_change(a, b) -> float:
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(a_dir: Path, b_dir: Path) -> tuple[list[str], int, dict[str, float]]:
    """Differences as report lines, the number of records compared, and the
    largest relative change of each continuous field."""
    names = {p.name for d in (a_dir, b_dir) for p in d.iterdir() if p.suffix in CONTINUOUS}
    diffs: list[str] = []
    count = 0
    largest = dict.fromkeys(CONTINUOUS.values(), 0.0)
    for name in sorted(names):
        pa, pb = a_dir / name, b_dir / name
        if not (pa.is_file() and pb.is_file()):
            diffs.append(f"{name}: only in {pa.parent if pa.is_file() else pb.parent}")
            continue
        ra, rb = _records(pa), _records(pb)
        loose = CONTINUOUS[pa.suffix]
        for key in sorted(ra.keys() | rb.keys(), key=str):
            grid, alg, trial = key
            where = f"{name}: grid {grid}, algorithm {alg}, trial {trial}"
            if key not in ra or key not in rb:
                diffs.append(f"{where}: only in {a_dir if key in ra else b_dir}")
                continue
            count += 1
            a, b = ra[key], rb[key]
            for field in sorted(a.keys() | b.keys()):
                if field == loose:
                    largest[loose] = max(largest[loose], _rel_change(a[field], b[field]))
                elif a.get(field) != b.get(field):
                    diffs.append(f"{where}: {field} {a.get(field)!r} != {b.get(field)!r}")
    return diffs, count, largest


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: outdiff.py A B", file=sys.stderr)
        return 2
    a_dir, b_dir = (Path(a) for a in args)
    try:
        diffs, count, largest = compare(a_dir, b_dir)
    except (OSError, ValueError, KeyError) as exc:
        print(f"outdiff: cannot read the outputs: {exc}", file=sys.stderr)
        return 2
    for line in diffs:
        print(line)
    changes = ", ".join(f"{field} {rel:.3g}" for field, rel in largest.items())
    print(f"{count} records compared, {len(diffs)} discrete differences; "
          f"largest relative change: {changes}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
