"""Span tracing of the program's layers, wrapped from outside the program.

A ``Tracer`` replaces every public function of the traced modules, wherever a
module of the package holds a reference to it, with a wrapper that records a
span ``[name, start, end, parent]`` in memory. ``MeasurementMatrix.coherence``
is a property and is wrapped on the class. ``uninstall`` puts the original
objects back, so untraced rounds run the program exactly as shipped.

A span's self time is its duration minus the time covered by its child spans.
Calls are serial, so children of one span never overlap.
"""

import contextlib
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict

# modules whose public functions are traced; ``cli`` only contributes the
# CLI's own time (argument parsing, config loading, writing output files)
LAYERS = ("matgen", "bounds", "streams", "harness", "recovery", "linalg", "svgplot", "cli")

ALGORITHM_RUNNERS = {
    "bols": "recovery.run_bols",
    "bomp": "recovery.run_bomp",
    "ols": "recovery.run_ols_known_k",
    "omp": "recovery.run_omp_known_k",
    "cosamp": "recovery.run_cosamp",
    "mols": "recovery.run_mols",
}
COHERENCE_SPAN = "matgen.MeasurementMatrix.coherence"


def public_functions():
    """(span name, function) for every public function defined in a traced module."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"sparsense.{layer}")
        for name, obj in sorted(vars(mod).items()):
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", obj))
    return out


def patch_package(replacements: dict) -> list[tuple[object, str, object]]:
    """Point every module attribute of the package that holds a key of
    ``replacements`` at its value; returns what ``restore`` needs."""
    patches = []
    for key, mod in list(sys.modules.items()):
        if key == "sparsense" or key.startswith("sparsense."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, replacements[obj])
    return patches


def restore(patches):
    for owner, attr, obj in reversed(patches):
        setattr(owner, attr, obj)


class Tracer:
    """In-memory span recorder for one phase of a run (set-ups or rounds)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.iterations: dict[str, int] = defaultdict(int)
        self.cosamp_capped = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record a span opened by the benchmark itself around a block."""
        rec = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _recovery_hook(self, alg):
        def hook(result):
            self.iterations[alg] += result.iterations
            if alg == "cosamp" and result.stop_reason == "ReachedMaxIterations":
                self.cosamp_capped += 1

        return hook

    # ------------------------------------------------------------- patching
    def install(self):
        from sparsense import matgen

        hooks = {span: self._recovery_hook(alg) for alg, span in ALGORITHM_RUNNERS.items()}
        self._patches = patch_package(
            {fn: self._wrap(name, fn, hooks.get(name)) for name, fn in public_functions()}
        )
        prop = vars(matgen.MeasurementMatrix)["coherence"]
        self._patches.append((matgen.MeasurementMatrix, "coherence", prop))
        matgen.MeasurementMatrix.coherence = property(self._wrap(COHERENCE_SPAN, prop.fget))

    def uninstall(self):
        restore(self._patches)
        self._patches = []

    # ------------------------------------------------------------- analysis
    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
        return dict(stats)

    def export(self) -> dict:
        """The raw spans as a name table plus ``[name index, start, end, parent]`` rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]
        return {"names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}


def _total(stats, *names):
    return sum(stats[n]["total_s"] for n in names if n in stats)


def _calls(stats, *names):
    return sum(stats[n]["calls"] for n in names if n in stats)


def setup_metrics(tracer: Tracer, setups: int) -> dict[str, float]:
    """Layer metrics of the cold set-ups, per set-up."""
    st = tracer.by_name()
    return {
        "matgen.gen_s": _total(st, "matgen.gen_gaussian_normalized", "matgen.gen_hybrid_normalized") / setups,
        "matgen.coherence_s": _total(st, COHERENCE_SPAN) / setups,
        "matgen.load_s": _total(st, "matgen.load_matrix") / setups,
        "bounds.omega_inversions": _calls(st, "bounds.omega_for_probability") / setups,
        "bounds.omega_s": _total(st, "bounds.omega_for_probability") / setups,
    }


def round_metrics(tracer: Tracer, rounds: int, distinct_trial_snr: int) -> dict[str, float]:
    """Layer metrics of the traced rounds, per round; ``distinct_trial_snr`` is
    the number of distinct (trial, SNR) inputs those rounds covered."""
    st = tracer.by_name()
    syntheses = _calls(st, "harness.calibrate_noise")
    out = {
        "streams.generators": _calls(st, "streams.stream") / rounds,
        "harness.syntheses": syntheses / rounds,
        "harness.synth_s": _total(st, "harness.gen_sparse_spectrum", "harness.calibrate_noise") / rounds,
        "harness.syntheses_per_trial": syntheses / distinct_trial_snr if distinct_trial_snr else 0.0,
        "harness.sweep_self_s": sum(st[n]["self_s"] for n in ("harness.sweep_snr", "harness.sweep_omega") if n in st)
        / rounds,
        "harness.aggregate_s": _total(st, "harness.aggregate") / rounds,
        "harness.serialize_s": _total(st, "harness.rows_to_csv", "harness.outcomes_to_jsonl") / rounds,
        "svgplot.plot_s": _total(st, "svgplot.line_plot") / rounds,
    }
    for alg, span in ALGORITHM_RUNNERS.items():
        out[f"recovery.{alg}_calls"] = _calls(st, span) / rounds
        out[f"recovery.{alg}_s"] = _total(st, span) / rounds
        out[f"recovery.{alg}_iterations"] = tracer.iterations[alg] / rounds
    out["recovery.cosamp_capped"] = tracer.cosamp_capped / rounds
    bols_ms = [1e3 * (end - start) for name, start, end, _ in tracer.spans if name == ALGORITHM_RUNNERS["bols"]]
    deciles = statistics.quantiles(bols_ms, n=10, method="inclusive") if len(bols_ms) > 1 else [0.0] * 9
    out["recovery.bols_ms_p50"] = deciles[4]
    out["recovery.bols_ms_p90"] = deciles[8]
    out["linalg.lstsq_calls"] = _calls(st, "linalg.least_squares_on_support") / rounds
    out["linalg.lstsq_s"] = _total(st, "linalg.least_squares_on_support") / rounds
    layer_self: dict[str, float] = defaultdict(float)
    for name, s in st.items():
        layer_self[name.split(".", 1)[0]] += s["self_s"]
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = layer_self[layer] / rounds
    wall = _total(st, "bench.round")
    out["trace.round_s"] = wall / rounds
    out["trace.attributed_share"] = (wall - layer_self["bench"]) / wall if wall else 0.0
    out["trace.spans_per_round"] = len(tracer.spans) / rounds
    return out
