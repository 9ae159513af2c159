"""Per-layer measurement: spans around the program's public functions, and probes.

The traced run wraps public functions of ``qcore``, ``epr2``, ``bounds`` and
``cli`` at module level.  A function is wrapped in every namespace it is
called through: ``cli`` imports ``lower_bound``, ``certify``,
``sampled_min_ratio``, ``chen_upper`` and ``mabk_implied_upper`` by name,
``epr2.lower_bound`` reaches ``ratio_f`` and ``diagonal_prob`` through
``epr2``'s globals, and ``mabk_quantum_max`` reaches ``mabk_operator`` and
``ghz_state`` through ``bounds``' globals.  Each wrapper records a span
(name, start, end, parent) in memory; a layer's self time is its spans'
durations minus the part their child spans cover.

Probes time single public calls directly, with no wrapper installed, on
fixed inputs, so their figures and counts do not depend on the run's seed.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import tracemalloc

import numpy as np

from ghzlocal import bounds, cli, epr2, qcore

import workloads

LAYERS = ("qcore", "epr2", "bounds", "cli")

# (module, attribute, layer): every namespace the workloads reach a layer through.
WRAP_POINTS = (
    (cli, "main", "cli"),
    (cli, "lower_bound", "epr2"),
    (cli, "certify", "epr2"),
    (cli, "sampled_min_ratio", "epr2"),
    (cli, "chen_upper", "bounds"),
    (cli, "mabk_implied_upper", "bounds"),
    (epr2, "lower_bound", "epr2"),
    (epr2, "certify", "epr2"),
    (epr2, "sampled_min_ratio", "epr2"),
    (epr2, "ratio_f", "epr2"),
    (epr2, "diagonal_prob", "qcore"),
    (bounds, "chen_upper", "bounds"),
    (bounds, "mabk_quantum_max", "bounds"),
    (bounds, "mabk_operator", "bounds"),
    (bounds, "mabk_implied_upper", "bounds"),
    (bounds, "ghz_state", "qcore"),
)

PROBE_ALPHA = math.pi / 12
CERTIFY_N = (2, 3, 4, 5, 8, 9)
PEAK_N = (5, 8, 9)
CHUNK = 8192


class Tracer:
    """Span-recording wrappers, installed for the body of each ``with`` block.

    Spans accumulate across blocks, so a run can interleave traced and
    untraced calls.
    """

    def __init__(self, points=WRAP_POINTS):
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []
        self._points = points
        self._patches = []

    def _wrap(self, original, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def __enter__(self):
        for module, attr, layer in self._points:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, f"{layer}.{original.__name__}"))
            self._patches.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def self_seconds(spans) -> dict:
    """Seconds of each layer's own work: span durations minus their children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for k, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child[k]
    return totals


def count(spans, name, lo=0, hi=None) -> int:
    return sum(1 for span in spans[lo:hi] if span[0] == name)


def _median_time(call, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_metrics() -> dict:
    """Single-call figures on fixed inputs; values in the metric's unit."""
    m = {}
    sc2 = qcore.GhzScenario(2, PROBE_ALPHA)
    thetas = np.linspace(0.0, math.pi, 1000).tolist()
    m["qcore.diagonal_prob.n2_us"] = 1e6 / len(thetas) * _median_time(
        lambda: [qcore.diagonal_prob(sc2, t) for t in thetas], 7)

    sc8 = qcore.GhzScenario(8, PROBE_ALPHA)
    rng = np.random.default_rng(0)
    settings = [
        (qcore.MeasurementContext.from_angles(rng.uniform(0, math.pi, 8),
                                              rng.uniform(0, 2 * math.pi, 8)),
         qcore.OutcomePattern(tuple(rng.choice((-1, 1), 8))))
        for _ in range(500)
    ]
    m["qcore.joint_prob_ghz.n8_us"] = 1e6 / len(settings) * _median_time(
        lambda: [qcore.joint_prob_ghz(sc8, c, r) for c, r in settings], 7)

    for n in (2, 8, 12):
        sc = qcore.GhzScenario(n, PROBE_ALPHA)
        m[f"epr2.lower_bound.n{n}_ms"] = 1e3 * _median_time(lambda: epr2.lower_bound(sc), 5)
    with Tracer(((epr2, "ratio_f", "epr2"),)) as tracer:
        epr2.lower_bound(sc2)
    m["epr2.ratio_f.calls_per_lower_bound.n2"] = len(tracer.spans)

    for n in CERTIFY_N:
        sc = qcore.GhzScenario(n, PROBE_ALPHA)
        w = epr2.lower_bound(sc)
        grid = _median_time(lambda: epr2.certify(sc, w, samples=0), 3)
        full = _median_time(lambda: epr2.certify(sc, w, samples=CHUNK), 3)
        m[f"epr2.certify.grid_ms.n{n}"] = 1e3 * grid
        m[f"epr2.certify.chunk_ms.n{n}"] = 1e3 * (full - grid)
        if n in PEAK_N:
            tracemalloc.start()
            try:
                epr2.certify(sc, w, samples=CHUNK)
                m[f"epr2.certify.peak_mb.n{n}"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()

    for n in (2, 4, 6):
        pairs = [((t1, p1), (t2, p2)) for t1, p1, t2, p2 in
                 rng.uniform(0.0, math.pi, (n, 4))]
        m[f"bounds.mabk_operator.n{n}_us"] = 1e6 / 200 * _median_time(
            lambda: [bounds.mabk_operator(pairs) for _ in range(200)], 5)
    return m


def trace_metrics(seed: int, out_spans: list) -> tuple[dict, int, int, list]:
    """Per-layer metrics of one traced run.

    Each call of each batch runs three times in a row: an untimed warm-up,
    an untraced run and a traced run.  Both timed runs thus follow a run of
    the same call, back to back, so the machine's drift in speed falls
    alike on both.  All outputs are checked as in a timed run.  Then the
    probes.  Returns (metrics, attempted, failed, problems) and appends the
    spans, each tagged with its batch, to ``out_spans``.
    """
    metrics, attempted, failed, problems = {}, 0, 0, []
    sampled_min_ratio_calls = 0
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.inputs(seed)
        calls = workload.calls(inputs)
        tracer = Tracer()
        warm, plain, traced, bounds_at = [], [], [], []
        for call in calls:
            warm.append(workloads.run_round([call]))
            plain.append(workloads.run_round([call]))
            bounds_at.append(len(tracer.spans))
            with tracer:
                traced.append(workloads.run_round([call]))
        bounds_at.append(len(tracer.spans))
        warm, plain, traced = _join(warm), _join(plain), _join(traced)
        spans = tracer.spans
        out_spans.extend((name, *span) for span in spans)

        for result in (warm, plain, traced):
            a, f = workload.tally(inputs, result.outputs)
            attempted, failed = attempted + a, failed + f
        problems += workload.check(inputs, warm.outputs)
        problems += workloads.compare_rounds(warm, [plain, traced])

        own = self_seconds(spans)
        metrics[f"trace.overhead_pct.{name}"] = 100.0 * (traced.wall / plain.wall - 1.0)
        for layer in LAYERS:
            if layer == "cli" or layer not in own:
                continue
            metrics[f"{layer}.self_ms.{name}"] = 1e3 * own[layer]
        if name == "scan":
            metrics["cli.scan.self_ms"] = 1e3 * own["cli"]
        if name == "point-large":
            metrics["cli.point.self_ms"] = 1e3 * own["cli"]
        if name in ("scan", "point-large"):
            sampled_min_ratio_calls += count(spans, "epr2.sampled_min_ratio")
        if name == "mabk":
            for i, (n, alpha) in enumerate(inputs["cases"]):
                if alpha == workloads.QUARTER_PI:
                    metrics[f"bounds.mabk_quantum_max.n{n}_s"] = plain.seconds[i]
                    metrics[f"bounds.mabk_operator.calls_per_max.n{n}"] = count(
                        spans, "bounds.mabk_operator", bounds_at[i], bounds_at[i + 1])
    metrics["epr2.sampled_min_ratio.calls"] = sampled_min_ratio_calls
    metrics.update(probe_metrics())
    return metrics, attempted, failed, problems


def _join(rounds):
    """One Round from single-call rounds."""
    return workloads.Round([r.outputs[0] for r in rounds], [r.seconds[0] for r in rounds],
                           sum(r.wall for r in rounds))
