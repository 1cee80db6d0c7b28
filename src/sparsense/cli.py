"""Command-line interface.

Subcommands: gen-matrix, coherence, recover, bounds, invert-omega,
experiment, plot. Exit codes: 0 success, 1 usage or configuration error,
2 domain error (infeasible parameters, malformed files, failed recovery).
All outputs are deterministic given the seed; SPARSENSE_SEED provides the
default seed when a command does not receive one.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bounds
from .errors import ConfigError, SparsenseError, read_text
from .harness import (
    ALGORITHMS,
    BLIND,
    ExperimentConfig,
    _run_algorithm,
    _synthesize,
    apply_overrides,
    blind_params_for,
    build_matrix,
    load_config,
    outcomes_to_jsonl,
    rows_to_csv,
    sweep,
)
from .matgen import export_csv, load_matrix, save_matrix
from .presets import FIGURES, SCALES, BoundSweep, figure_preset
from .streams import check_seed
from .svgplot import _fmt, line_plot

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _seed(flag: int | None) -> int:
    """--seed, else SPARSENSE_SEED, else 0; a usage error if not an unsigned 64-bit integer."""
    if flag is None:
        raw = os.environ.get("SPARSENSE_SEED", "0")
        try:
            flag = int(raw)
        except ValueError:
            raise ConfigError(f"SPARSENSE_SEED must be an integer, got {raw!r}")
    try:
        return check_seed(flag)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(obj, out_path=None):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        Path(out_path).write_text(text)


# ---------------------------------------------------------------------- gen-matrix

def _cmd_gen_matrix(args) -> int:
    seed = _seed(args.seed)
    mat = build_matrix(ExperimentConfig(
        family=args.family, m=args.m, n=args.n, offset_max=args.offset_max, base_seed=seed,
    ))
    save_matrix(mat, args.out)
    if args.csv:
        export_csv(mat, args.csv)
    _emit(
        {
            "path": str(args.out),
            "family": args.family,
            "m": mat.m,
            "n": mat.n,
            "seed": seed,
            "coherence": mat.coherence,
        }
    )
    return 0


def _cmd_coherence(args) -> int:
    mat = load_matrix(args.matrix)
    _emit({"m": mat.m, "n": mat.n, "coherence": mat.coherence})
    return 0


# ------------------------------------------------------------------------- recover

def _read_vector(path, m: int) -> np.ndarray:
    tokens = read_text(path, SparsenseError).split()
    vals = []
    for i, tok in enumerate(tokens):
        try:
            vals.append(float(tok))
        except ValueError:
            raise SparsenseError(f"{path}: token #{i} ({tok!r}) is not a number")
        if not math.isfinite(vals[-1]):
            raise SparsenseError(f"{path}: token #{i} ({tok!r}) is not finite")
    if len(vals) != m:
        raise SparsenseError(f"{path}: got {len(vals)} values, expected {m}")
    return np.array(vals)


def _cmd_recover(args) -> int:
    mat = load_matrix(args.matrix)
    tuning = {key: val for key, val in (("p_min", args.pmin), ("rho", args.rho)) if val is not None}
    config = ExperimentConfig(
        m=mat.m, n=mat.n, k=0 if args.k is None else args.k, algorithms=(args.alg,),
        base_seed=_seed(args.seed), mols_subset=args.mols_subset, **tuning,
    )
    truth = None
    if args.y:
        y = _read_vector(args.y, mat.m)
    else:  # trial 0 of a sweep with this seed and a sparsity of --k-true
        spec, y = _synthesize(mat, replace(config, k=args.k_true), 0, args.snr)
        truth = {"true_support": spec.support}

    blind, extra = None, {}
    if args.alg in BLIND:
        blind, meta = blind_params_for(config, mat.coherence, args.omega_star)
        blind = replace(blind, max_iterations=args.max_iterations)
        extra = {key: meta[key] for key in ("omega", "omega_star", "mu") if key in meta}
        if args.omega_star is None:
            extra.update(p_min=config.p_min, rho=config.rho)
    result = _run_algorithm(args.alg, mat, y, config, blind, {})

    payload = {
        "algorithm": args.alg,
        "m": mat.m,
        "n": mat.n,
        "support": result.support,
        "nonzeros": {str(i): result.x_hat[i] for i in result.support},
        "iterations": result.iterations,
        "stop_reason": result.stop_reason.value,
        "residual_norm": result.residual_norm_history[-1],
        **extra,
    }
    if truth:
        payload.update(truth)
    _emit(payload, args.out)
    return 0


# -------------------------------------------------------------------------- bounds

def _mapping_rows(m: int, mu: float, rho: float, k_lo: int, k_hi: int):
    bounds.BoundParams(m=m, n=m, mu=mu, rho=rho)  # refuses a bad mu or rho; no bound here reads N
    rows = []
    for k in bounds.sparsity_levels(k_lo, k_hi, m):
        cells = []
        for fn in (
            lambda: bounds.mapping_factor_lower(k, m, mu, rho),
            lambda: bounds.mapping_factor_lower_quadratic(k, mu),
            lambda: bounds.mapping_factor_lower_linear(k, mu),
        ):
            try:
                cells.append(f"{fn():.17g}")
            except SparsenseError:
                cells.append("")
        rows.append((k, cells))
    return rows


def _snr_rows(m: int, n: int, mu: float, k: int, rho: float, grid):
    params = bounds.BoundParams(m=m, n=n, mu=mu, rho=rho, k=k)
    rows = []
    for p_min in grid:
        omega = bounds.omega_for_probability(p_min, params)
        sel = bounds.snr_floor_selection(params, omega)
        cont = bounds.snr_floor_continuation(params, omega)
        floor = max(sel, cont)
        rows.append((p_min, omega, sel, cont, floor, 10.0 * math.log10(floor)))
    return rows


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like start:step:stop, got {spec!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid {spec!r}: start, step and stop must be numbers") from None
    if not all(math.isfinite(v) for v in (start, step, stop)) or step <= 0 or stop < start:
        raise ConfigError(f"bad grid {spec!r}")
    out = []
    v = start
    while v <= stop + 1e-12:
        if len(out) == bounds.MAX_SWEEP_ROWS:  # also stops a step too small to move v
            raise ConfigError(f"grid {spec!r} has more than {bounds.MAX_SWEEP_ROWS} points")
        out.append(round(v, 10))
        v += step
    return out


def _cmd_bounds(args) -> int:
    if args.sweep == "k":
        lines = ["k,mapping_lower_probabilistic,mapping_lower_quadratic,mapping_lower_linear"]
        for k, cells in _mapping_rows(args.m, args.mu, args.rho, args.k_min, args.k_max):
            lines.append(f"{k}," + ",".join(cells))
    elif args.sweep == "sv":
        lines = ["k,singular_lower,singular_upper,prob_floor"]
        for k in bounds.sparsity_levels(args.k_min, args.k_max, args.m):
            lo, hi, floor = bounds.singular_value_bounds(k, args.m, args.rho)
            lines.append(f"{k},{lo:.17g},{hi:.17g},{floor:.17g}")
    else:
        grid = _parse_grid(args.grid)
        lines = ["p_min,omega,snr_floor_selection,snr_floor_continuation,snr_min,snr_min_db"]
        for row in _snr_rows(args.m, args.n, args.mu, args.k, args.rho, grid):
            lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# -------------------------------------------------------------------- invert-omega

def _cmd_invert_omega(args) -> int:
    mu = args.mu
    if args.matrix:
        mat = load_matrix(args.matrix)
        if (args.m, args.n) != (mat.m, mat.n):
            raise ConfigError(f"--m {args.m} --n {args.n} disagree with the "
                              f"{mat.m}x{mat.n} matrix {args.matrix}")
        mu = mat.coherence
    config = ExperimentConfig(m=args.m, n=args.n, p_min=args.pmin, rho=args.rho)
    try:
        _, meta = blind_params_for(config, mu)
    except bounds.InfeasibleTarget as exc:
        _emit({"error": "InfeasibleTarget", "probability_ceiling": exc.ceiling, "p_min": args.pmin})
        sys.stderr.write(f"error: InfeasibleTarget: {exc}\n")
        return DOMAIN_EXIT
    ceiling_c = meta["sparsity_ceiling"]
    rho_limit = bounds.rho_tightness_limit(ceiling_c, args.m, mu)
    if not 0.0 < args.rho < rho_limit:
        sys.stderr.write(
            f"warning: rho={args.rho} is outside the tightness interval "
            f"(0, {rho_limit:.6g}) for this matrix\n"
        )
    _emit({**meta, "noise_factor": bounds.noise_concentration_factor(args.m, ceiling_c),
           "rho_valid_interval": [0.0, rho_limit]})
    return 0


# ---------------------------------------------------------------------- experiment

def _write_outputs(out_dir: Path, label: str, rows, outcomes, meta, config):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_text = rows_to_csv(rows)
    (out_dir / f"{label}.csv").write_text(csv_text)
    (out_dir / f"{label}.jsonl").write_text(outcomes_to_jsonl(outcomes, config))
    (out_dir / f"{label}_summary.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2, default=str) + "\n"
    )
    x_label = "omega" if meta.get("sweep") == "omega" else "SNR (dB)"
    prob_series = {}
    mse_series = {}
    for r in rows:
        prob_series.setdefault(r.algorithm, []).append((r.grid, r.prob_recovery))
        mse_series.setdefault(r.algorithm, []).append((r.grid, r.mse))
    (out_dir / f"{label}_prob.svg").write_text(
        line_plot(prob_series, title=label, x_label=x_label, y_label="Probability of recovery")
    )
    (out_dir / f"{label}_mse.svg").write_text(
        line_plot(mse_series, title=label, x_label=x_label, y_label="MSE", logy=True)
    )
    for alg in sorted(prob_series):
        pts = sorted(prob_series[alg])
        lo, hi = pts[0], pts[-1]
        step = hi[0] - lo[0]  # grid labels take their digits from the span, as plot ticks do
        at = [_fmt(v, step) if 0 < step < math.inf else f"{v:g}" for v in (lo[0], hi[0])]
        print(
            f"{label}[{alg}]: P_rec {lo[1]:.3f} at {at[0]} -> {hi[1]:.3f} at {at[1]}, "
            f"trials={config.trials}"
        )


def _write_bound_outputs(out_dir: Path, figure: str, sweep: BoundSweep):
    out_dir.mkdir(parents=True, exist_ok=True)
    if sweep.kind == "mapping_k":
        lines = ["k,mu,mapping_lower_probabilistic,mapping_lower_quadratic,mapping_lower_linear"]
        series = {}
        for mu in sweep.mus:
            for k, cells in _mapping_rows(sweep.m, mu, sweep.slack, *sweep.k_range):
                lines.append(f"{k},{mu:.17g}," + ",".join(cells))
                for name, cell in zip(("probabilistic", "quadratic", "linear"), cells):
                    if cell:
                        series.setdefault(f"{name} mu={mu}", []).append((k, float(cell)))
        svg = line_plot(
            series, title=figure, x_label="sparsity K", y_label="mapping factor lower bound"
        )
    else:
        lines = ["p_min,mu,omega,snr_floor_selection,snr_floor_continuation,snr_min,snr_min_db"]
        series = {}
        for mu in sweep.mus:
            for row in _snr_rows(sweep.m, sweep.n, mu, sweep.k, sweep.slack, sweep.pmin_grid):
                lines.append(f"{row[0]:.17g},{mu:.17g}," + ",".join(f"{v:.17g}" for v in row[1:]))
                series.setdefault(f"mu={mu}", []).append((row[0], row[5]))
        svg = line_plot(
            series, title=figure, x_label="target probability", y_label="SNR floor (dB)"
        )
    (out_dir / f"{figure}.csv").write_text("\n".join(lines) + "\n")
    (out_dir / f"{figure}.svg").write_text(svg)
    print(f"{figure}: wrote {len(lines) - 1} rows")


def _cmd_experiment(args) -> int:
    out_dir = Path(args.out)
    if args.figure == "custom":
        sweeps = [(args.section, load_config(args.config, args.section))]
    else:
        sweeps = figure_preset(args.figure, args.scale)
        if isinstance(sweeps, BoundSweep):
            _write_bound_outputs(out_dir, args.figure, sweeps)
            return 0

    seed = [] if args.seed is None else [f"base_seed={_seed(args.seed)}"]
    sweeps = [(label, apply_overrides(config, args.set + seed)) for label, config in sweeps]
    for label, config in sweeps:  # every sweep's overrides are checked before any runs
        rows, outcomes, meta = sweep(config, threads=args.threads)
        _write_outputs(out_dir, label, rows, outcomes, meta, config)
    return 0


# ---------------------------------------------------------------------------- plot

def _csv_number(path, lineno: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise SparsenseError(f"{path}: line {lineno}, column {column!r}: {cell!r} is not a number")


def _cmd_plot(args) -> int:
    lines = read_text(args.csv, SparsenseError).strip().splitlines()
    if not lines:
        raise ConfigError(f"{args.csv} is empty")
    header = lines[0].split(",")
    for col in (args.x, args.y) + ((args.series,) if args.series else ()):
        if col not in header:
            raise ConfigError(f"column {col!r} not in CSV header {header}")
    xi, yi = header.index(args.x), header.index(args.y)
    si = header.index(args.series) if args.series else None
    series: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) <= max(xi, yi, si or 0):
            missing = header[len(cells)]
            raise SparsenseError(f"{args.csv}: line {lineno}, column {missing!r}: no cell")
        if not cells[xi] or not cells[yi]:
            continue
        key = cells[si] if si is not None else args.y
        x, y = (_csv_number(args.csv, lineno, header[i], cells[i]) for i in (xi, yi))
        series.setdefault(key, []).append((x, y))
    svg = line_plot(
        series,
        title=args.title or Path(args.csv).stem,
        x_label=args.x_label or args.x,
        y_label=args.y_label or args.y,
        logy=args.logy,
    )
    Path(args.out).write_text(svg)
    print(f"wrote {args.out}")
    return 0


# --------------------------------------------------------------------------- parser

# Per subcommand, the axes its modes vary on: a function naming the mode from the
# parsed flags, and the optional flags each mode reads ("!": and requires). A flag
# an axis names is read only in the modes that list it; others are always read.
_MODES = {
    "gen-matrix": [(lambda a: f"--family {a.family}", {"--family hybrid": "--offset-max"})],
    "recover": [
        (lambda a: "--alg mols" if a.alg == "mols" else "a known-K --alg" if a.alg not in BLIND
         else "a blind --alg" if a.omega_star is None else "a blind --alg and --omega-star",
         {"a known-K --alg": "--k!", "--alg mols": "--k! --mols-subset",
          "a blind --alg": "--pmin --rho --max-iterations",
          "a blind --alg and --omega-star": "--omega-star --max-iterations"}),
        (lambda a: "--y" if a.y else "no --y", {"no --y": "--k-true! --snr! --seed"}),
    ],
    "bounds": [(lambda a: f"--sweep {a.sweep}", {
        "--sweep k": "--mu! --k-min --k-max", "--sweep sv": "--k-min --k-max",
        "--sweep pmin": "--n! --mu! --k --grid"})],
    "invert-omega": [(lambda a: "--matrix" if a.matrix else "no --matrix",
                      {"no --matrix": "--mu!"})],
    "experiment": [
        (lambda a: "--figure custom" if a.figure == "custom" else "a closed-form --figure"
         if isinstance(figure_preset(a.figure), BoundSweep) else "a Monte Carlo --figure",
         {"--figure custom": "--config! --section! --set --seed --threads",
          "a Monte Carlo --figure": "--scale --set --seed --threads"})],
}


def _check_modes(args) -> None:
    """Refuse a flag set off its default in a mode that ignores it, or a required flag left out."""
    for pick, modes in _MODES.get(args.command, ()):
        mode = pick(args)
        reads = {m: spec.replace("!", "").split() for m, spec in modes.items()}
        dests = {flag: flag[2:].replace("-", "_") for r in reads.values() for flag in r}
        given = {f for f, d in dests.items() if getattr(args, d) != args.parser.get_default(d)}
        unread = sorted(given - set(reads.get(mode, ())))
        if unread:
            users = " or ".join(m for m, r in reads.items() if set(unread) & set(r))
            raise ConfigError(f"{args.command} with {mode} does not read {', '.join(unread)} "
                              f"(read with {users})")
        required = [f[:-1] for f in modes.get(mode, "").split() if f[-1] == "!"]
        missing = [f for f in required if f not in given]
        if missing:
            raise ConfigError(f"{args.command} with {mode} requires {', '.join(missing)}")


def build_parser() -> _Parser:
    p = _Parser(prog="sparsense", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-matrix", help="generate and save a measurement matrix")
    g.add_argument("--family", choices=("gaussian", "hybrid"), required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--offset-max", type=float, default=10.0)
    g.add_argument("--out", required=True)
    g.add_argument("--csv", default=None, help="also export entries as CSV")
    g.set_defaults(fn=_cmd_gen_matrix, parser=g)

    c = sub.add_parser("coherence", help="coherence of a saved matrix")
    c.add_argument("--matrix", required=True)
    c.set_defaults(fn=_cmd_coherence)

    r = sub.add_parser("recover", help="run one recovery")
    r.add_argument("--matrix", required=True)
    r.add_argument("--alg", required=True, choices=ALGORITHMS)
    r.add_argument("--y", default=None, help="text file of M measurement values")
    r.add_argument("--k", type=int, default=None, help="sparsity for known-K algorithms")
    r.add_argument("--k-true", type=int, default=None, help="sparsity of a synthesized instance")
    r.add_argument("--snr", type=float, default=None, help="SNR (dB) of a synthesized instance")
    r.add_argument("--pmin", type=float, default=None, help="blind --alg only (default 0.95)")
    r.add_argument("--rho", type=float, default=None, help="blind --alg only (default 0.175)")
    r.add_argument("--omega-star", type=float, default=None,
                   help="bypass the probability inversion with an explicit threshold scale")
    r.add_argument("--max-iterations", type=int, default=None)
    r.add_argument("--mols-subset", type=int, default=2)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--out", default=None, help="also write the JSON result here")
    r.set_defaults(fn=_cmd_recover, parser=r)

    b = sub.add_parser("bounds", help="closed-form bound sweeps as CSV")
    b.add_argument("--sweep", choices=("k", "sv", "pmin"), required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--mu", type=float, default=None)
    b.add_argument("--rho", type=float, required=True)
    b.add_argument("--k", type=int, default=4)
    b.add_argument("--k-min", type=int, default=1)
    b.add_argument("--k-max", type=int, default=8)
    b.add_argument("--grid", default="0.9:0.01:0.99", help="p_min grid start:step:stop")
    b.add_argument("--out", default=None)
    b.set_defaults(fn=_cmd_bounds, parser=b)

    i = sub.add_parser("invert-omega", help="threshold scale from a target probability")
    i.add_argument("--m", type=int, required=True)
    i.add_argument("--n", type=int, required=True)
    i.add_argument("--mu", type=float, default=None)
    i.add_argument("--matrix", default=None)
    i.add_argument("--rho", type=float, required=True)
    i.add_argument("--pmin", type=float, required=True)
    i.set_defaults(fn=_cmd_invert_omega, parser=i)

    e = sub.add_parser("experiment", help="run a figure preset or custom sweep")
    e.add_argument("--figure", choices=(*FIGURES, "custom"), required=True)
    e.add_argument("--scale", choices=SCALES, default=None, help="preset scale (default desk)")
    e.add_argument("--config", default=None, help="key = value config file with [sections]")
    e.add_argument("--section", default=None, help="section name for --figure custom")
    e.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    e.add_argument("--out", default="out")
    e.add_argument("--seed", type=int, default=None, help="override base_seed")
    e.add_argument("--threads", type=int, default=1,
                   help="worker threads over trials (default 1: on small matrices a pool "
                        "is slower than serial, since the GIL is held between small BLAS calls)")
    e.set_defaults(fn=_cmd_experiment, parser=e)

    pl = sub.add_parser("plot", help="re-plot a CSV as SVG (never re-runs trials)")
    pl.add_argument("--csv", required=True)
    pl.add_argument("--x", default="grid")
    pl.add_argument("--y", default="prob_recovery")
    pl.add_argument("--series", default="algorithm")
    pl.add_argument("--logy", action="store_true")
    pl.add_argument("--title", default=None)
    pl.add_argument("--x-label", default=None)
    pl.add_argument("--y-label", default=None)
    pl.add_argument("--out", required=True)
    pl.set_defaults(fn=_cmd_plot)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        _check_modes(args)
        return args.fn(args)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except SparsenseError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
