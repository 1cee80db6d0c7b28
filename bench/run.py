"""Benchmark of sparsense: two figure sweeps and a blind-sensing stream.

Run from the repository root:

    python3 bench/run.py --workload hybrid_snr --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See bench/README.md.
"""

import argparse
import contextlib
import gzip
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads: the benchmark is one single-threaded
# process, so a busy machine takes a share of its core rather than stalling a
# BLAS thread that the others spin-wait for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from tracer import Tracer, round_metrics, setup_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "recoveries_per_cpu_s": "1/s",
    "recover_cpu_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REF_EVERY_S = 2.0  # take a machine_refs sample between rounds this often
# Set-up and rounds are timed in CPU seconds of this process. The kernel leaves
# out the time its core was taken by the host or by other processes, which wall
# time counts; with one thread and no waits, the two agree on an idle machine.
CPU_CLOCK = time.process_time


def machine_refs(square) -> tuple[float, float]:
    """Seconds of two fixed computations that never touch the program: a
    pure-Python loop, and one product of ``square`` with itself through BLAS."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    square @ square
    return t1 - t0, time.perf_counter() - t1


def layer_unit(name: str) -> str:
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share"):
        return "share"
    return "count"


def measure(wl, seconds: float, trace: bool) -> dict:
    """Set up, warm up, run whole rounds for ``seconds``, then check the outputs."""
    square = np.random.default_rng(0).standard_normal((512, 512))
    refs = [machine_refs(square)]
    wl.prepare()
    setup_tracer, round_tracer = (Tracer(), Tracer()) if trace else (None, None)
    setup_times = []
    for j in range(wl.setups):
        if setup_tracer:
            setup_tracer.install()
        try:
            with setup_tracer.span("bench.setup") if setup_tracer else contextlib.nullcontext():
                t0 = CPU_CLOCK()
                wl.setup(j)
                setup_times.append(CPU_CLOCK() - t0)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
    wl.warm_up()

    attempted, failed, rates = 0, 0, []
    plain_s = traced_s = 0.0
    traced_rounds = 0
    start = last_ref = time.perf_counter()
    i = 0
    while i < wl.min_rounds or time.perf_counter() - start < seconds:
        # a traced run repeats each round untraced and traced, alternating
        # which goes first, so the pair prices the tracing on the same inputs
        modes = (False,) if not trace else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if traced:
                round_tracer.install()
            try:
                with round_tracer.span("bench.round") if traced else contextlib.nullcontext():
                    t0 = CPU_CLOCK()
                    ops, bad = wl.round(i, traced)
                    dt = CPU_CLOCK() - t0
            finally:
                if traced:
                    round_tracer.uninstall()
            attempted, failed = attempted + ops, failed + bad
            if traced:
                traced_s += dt
                traced_rounds += 1
            else:
                plain_s += dt
                rates.append(ops / dt)
        i += 1
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            refs.append(machine_refs(square))
            last_ref = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs.append(machine_refs(square))
    ref_loop_s = statistics.median(r[0] for r in refs)
    ref_blas_s = statistics.median(r[1] for r in refs)

    problems, failed_outputs, notes = wl.check()
    failed += failed_outputs
    for line in notes:
        print(f"  {wl.name}: {line}", file=sys.stderr)
    for line in problems[:50]:
        print(f"  CHECK FAILED {wl.name}: {line}", file=sys.stderr)

    if trace:
        metrics = setup_metrics(setup_tracer, wl.setups)
        metrics.update(round_metrics(round_tracer, traced_rounds, traced_rounds * wl.trial_inputs_per_round))
        metrics["machine.ref_loop_s"] = ref_loop_s
        metrics["machine.ref_blas_s"] = ref_blas_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
        path = ROOT / ".bench_traces" / f"{wl.name}-seed{wl.seed}.json.gz"
        path.parent.mkdir(exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"setup": setup_tracer.export(), "rounds": round_tracer.export()}, fh)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "recoveries_per_cpu_s": statistics.median(rates),
            "recover_cpu_ms_p50": 1e3 * statistics.median(wl.latencies),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    print(
        f"{wl.name} seed={wl.seed} trace={int(trace)} rounds={i} attempted={attempted} "
        f"failed={failed} setups={wl.setups} latency_samples={len(wl.latencies)} "
        f"machine.ref_loop_s={ref_loop_s:.5f} machine.ref_blas_s={ref_blas_s:.5f} "
        f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS', 'default')} cores={os.cpu_count()}"
    )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("hybrid_snr", "omega_sweep", "sense_stream"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sparsense" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    import sparsense

    if Path(sparsense.__file__).resolve().parent != SRC / "sparsense":
        print(f"error: imported sparsense from {sparsense.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(WORKLOADS[args.workload](args.seed, workdir), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
