"""The benchmark's four batches: inputs from a seed, one round of calls, checks.

``scan`` and ``point-large`` are timed end to end; the traced run covers
all four (``bounds-curve`` and ``mabk`` vary too much between runs on a
shared machine to hold a bound).

A batch is a fixed list of calls into ``ghzlocal``.  One round runs the
whole batch once; every round of a run repeats the same calls on the same
inputs, so a run attempts whole rounds and every round must give outputs
equal to the first.  The checks compare the first round's outputs with
computations written here, apart from the program, or with properties the
method must have -- never with a stored copy of earlier output.

The program is looked up through its module attributes at call time
(``cli.main``, ``epr2.lower_bound``, ...), so the wrappers that
``tracing.py`` installs for a traced round see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ghzlocal import bounds, cli, epr2, qcore

QUARTER_PI = math.pi / 4

# scan: the paper's curve as a user produces it, one cli.main call per round.
# 32768 samples is four full certification chunks per row, which gives
# certify about 4/5 of the round; at the CLI's default of 100000 samples
# certify takes still more.
SCAN_N = (2, 3, 4, 5)
SCAN_ALPHA_STEPS = 11
SCAN_SAMPLES = 32768

# point-large: the certification kernel at its memory-bound shapes
# (8192, 2^n, n); n = 9 with one full chunk peaks near 1 GB resident.
POINT_CASES = ((8, 16384), (9, 8192))
POINT_ALPHA_RANGE = (0.05, QUARTER_PI - 0.05)
# Rows of the certification stream re-evaluated independently per point.
POINT_CHECK_ROWS = 64

# bounds-curve: the whole advertised domain, no certification.
CURVE_N = tuple(range(2, 13))
CURVE_ALPHAS = 21
# Fine grid of the independent diagonal minimum, and its agreement bounds:
# lower_bound refines below the grid, so it may undercut the grid minimum
# by the grid's resolution (3.2e-6 seen over n = 2..12) but never exceed it.
CURVE_CHECK_POINTS = 200_001
CURVE_GRID_SLACK = 1e-5
CLOSED_FORM_TOL = 1e-9

# mabk: (n, alpha) maximizations with one restart from a fixed seed.  The
# start decides the work (up to 5x between starts) and, at n = 4, whether
# the search ends on the Z-string value instead of the maximum, so the
# seed is fixed rather than taken from the run's seed.  n = 4 below its
# threshold (alpha = 0.1) is left out: the search there takes 3.4 s, as
# long as the rest of the round.
MABK_CASES = (
    (2, 0.1), (2, 0.5), (2, QUARTER_PI),
    (3, 0.1), (3, 0.5), (3, QUARTER_PI),
    (4, 0.5), (4, QUARTER_PI),
)
MABK_RESTARTS = 1
MABK_SEED = 2
MABK_TOL = 1e-6


@dataclass(frozen=True)
class CallError:
    """A call that raised; counted as a failed operation, never checked."""

    error: str


def run_cli(argv):
    """cli.main on argv with stdout captured; returns (exit code, stdout text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# independent computations


def independent_cos_theta0(n: int, alpha: float) -> float:
    """cos of the diagonal zero of cos(a) cos^n(t/2) - sin(a) sin^n(t/2)."""
    t = math.tan(alpha) ** (2.0 / n)
    return -(1.0 - t) / (1.0 + t)


def independent_local_factor(c0: float, thetas, signs):
    """Per-party local factor [1 + r sgn(cos t) min(1, |cos t / c0|)] / 2."""
    u = np.cos(thetas)
    if c0 == 0.0:
        scaled = np.sign(u)
    else:
        scaled = np.sign(u) * np.minimum(1.0, np.abs(u) / abs(c0))
    return 0.5 * (1.0 + signs * scaled)


def grid_lower_bound(n: int, alpha: float, points: int = CURVE_CHECK_POINTS) -> float:
    """Fine-grid minimum of [cos a cos^n(t/2) - sin a sin^n(t/2)]^2 / P_L.

    Points where P_L < 1e-6 are skipped: there the direct difference loses
    its digits to cancellation.
    """
    t = np.linspace(0.0, math.pi, points)
    amp = math.cos(alpha) * np.cos(t / 2) ** n - math.sin(alpha) * np.sin(t / 2) ** n
    pl = independent_local_factor(independent_cos_theta0(n, alpha), t, 1.0) ** n
    keep = pl > 1e-6
    return float(np.min(amp[keep] ** 2 / pl[keep]))


def chen_formula(n: int, alpha: float) -> float:
    """(P_NS - P_Q) / (P_NS - P_L) with P_L = 1, P_NS = 2^(n-2),
    P_Q = sqrt(2^(n-2) sin^2 2a + cos^2 2a), clamped to [0, 1]."""
    p_ns = 2.0 ** (n - 2)
    p_q = math.sqrt(p_ns * math.sin(2 * alpha) ** 2 + math.cos(2 * alpha) ** 2)
    return min(max((p_ns - p_q) / (p_ns - 1.0), 0.0), 1.0)


def implied_name(n: int, alpha: float) -> tuple[str, ...]:
    """Names the MABK threshold rule allows; both near the threshold itself."""
    if alpha == QUARTER_PI:
        return ("zero",)
    gap = math.sin(2 * alpha) - 2.0 ** (-(n - 1) / 2)
    if abs(gap) < 1e-9:
        return ("one", "unknown")
    return ("one",) if gap < 0 else ("unknown",)


def independent_min_residual(n: int, alpha: float, w: float, thetas) -> float:
    """min of P_Q - w P_L over rows x all 2^n outcomes x phase sums 0 and pi.

    P_Q from the closed form 2^-n [c^2 prod(1 + r cos t) + s^2 prod(1 - r cos t)
    +- sin 2a prod(r) prod(sin t)].
    """
    signs = np.array(
        [[1.0 - 2.0 * ((k >> (n - 1 - j)) & 1) for j in range(n)] for k in range(2**n)]
    )
    ru = signs[None, :, :] * np.cos(thetas)[:, None, :]
    sym = math.cos(alpha) ** 2 * np.prod(1 + ru, -1) + math.sin(alpha) ** 2 * np.prod(1 - ru, -1)
    cross = math.sin(2 * alpha) * np.prod(signs, -1)[None, :] * np.prod(np.sin(thetas), -1)[:, None]
    pq = 0.5**n * (sym - np.abs(cross))
    c0 = independent_cos_theta0(n, alpha)
    pl = np.prod(
        independent_local_factor(c0, thetas[:, None, :], signs[None, :, :]), -1
    )
    return float(np.min(pq - w * pl))


# ---------------------------------------------------------------------------
# scan


def scan_inputs(seed: int, reduced: bool = False) -> dict:
    n_list, steps, samples = ((2, 3), 3, 64) if reduced else (SCAN_N, SCAN_ALPHA_STEPS, SCAN_SAMPLES)
    argv = ["scan", "--n", ",".join(map(str, n_list)), "--alpha-steps", str(steps),
            "--samples", str(samples), "--seed", str(seed)]
    return {"argv": argv, "n_list": n_list, "alphas": np.linspace(0.0, QUARTER_PI, steps)}


def scan_calls(inputs):
    return [lambda: run_cli(inputs["argv"])]


def scan_tally(inputs, outputs):
    rows = len(inputs["n_list"]) * len(inputs["alphas"])
    certified = 0
    if not isinstance(outputs[0], CallError) and outputs[0][0] == 0:
        certified = sum(line.endswith(",true") for line in outputs[0][1].splitlines())
    return rows, rows - certified


def check_scan(inputs, outputs) -> list[str]:
    if isinstance(outputs[0], CallError) or outputs[0][0] != 0:
        return [f"scan: failed with {outputs[0]}"]
    text = outputs[0][1]
    lines = text.split("\n")
    if lines[0] != cli.CSV_HEADER or lines[-1] != "":
        return ["scan: header or final newline wrong"]
    rows = list(csv.DictReader(io.StringIO(text)))
    expected = [(n, a) for n in inputs["n_list"] for a in inputs["alphas"]]
    if len(rows) != len(expected):
        return [f"scan: {len(rows)} rows, expected {len(expected)}"]
    problems = []
    previous = {}
    for row, (n, alpha) in zip(rows, expected):
        tag = f"scan n={n} alpha={alpha:.6f}"
        if int(row["n"]) != n or abs(float(row["alpha"]) - alpha) > 1e-8:
            problems.append(f"{tag}: row out of order")
            continue
        w = float(row["w_lower"])
        if row["certified"] != "true":
            problems.append(f"{tag}: not certified")
        if n == 2 and abs(w - (1.0 - math.sin(2 * alpha))) > 1e-4:
            problems.append(f"{tag}: w_lower {w} is not 1 - sin 2a")
        if alpha == 0.0 and abs(w - 1.0) > 1e-8:
            problems.append(f"{tag}: w_lower {w} is not 1 at a = 0")
        if alpha == QUARTER_PI and abs(w) > 1e-8:
            problems.append(f"{tag}: w_lower {w} is not 0 at a = pi/4")
        if w > previous.get(n, math.inf) + 1e-9:
            problems.append(f"{tag}: w_lower rises in alpha")
        previous[n] = w
        if n == 2:
            if row["w_upper_chen"] != "":
                problems.append(f"{tag}: w_upper_chen given at n = 2")
        else:
            chen = float(row["w_upper_chen"])
            if w > chen + 1e-9:
                problems.append(f"{tag}: w_lower {w} above w_upper_chen {chen}")
            if abs(chen - chen_formula(n, alpha)) > 1e-8:
                problems.append(f"{tag}: w_upper_chen {chen} off the inequality formula")
        if row["mabk_implied"] not in implied_name(n, alpha):
            problems.append(f"{tag}: mabk_implied {row['mabk_implied']} breaks the threshold rule")
    return problems


# ---------------------------------------------------------------------------
# point-large


def point_inputs(seed: int, reduced: bool = False) -> dict:
    cases = ((4, 512), (5, 256)) if reduced else POINT_CASES
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(*POINT_ALPHA_RANGE, len(cases))
    return {"seed": seed,
            "cases": tuple((n, float(a), samples) for (n, samples), a in zip(cases, alphas))}


def point_calls(inputs):
    argvs = [["point", "--n", str(n), "--alpha", repr(alpha), "--samples", str(samples),
              "--seed", str(inputs["seed"])] for n, alpha, samples in inputs["cases"]]
    return [lambda argv=argv: run_cli(argv) for argv in argvs]


def point_tally(inputs, outputs):
    failed = sum(isinstance(o, CallError) or o[0] != 0 or '"certified": true' not in o[1]
                 for o in outputs)
    return len(outputs), failed


def check_point_case(case, row, certificate, certificate_at_one,
                     independent_min) -> list[str]:
    """One point's checks on its JSON row and the program's certificates at w and 1."""
    n, alpha, _ = case
    tag = f"point n={n} alpha={alpha:.6f}"
    w = row["w_lower"]
    problems = []
    if row["n"] != n or row["alpha"] != alpha:
        problems.append(f"{tag}: echoes n={row['n']} alpha={row['alpha']}")
    if row["certified"] is not True:
        problems.append(f"{tag}: not certified")
    if certificate.w != w or certificate.violated or certificate.min_residual < -1e-9:
        problems.append(f"{tag}: min_residual {certificate.min_residual} below -1e-9 at w={w}")
    if not certificate_at_one.violated:
        # At every setting both sum to 1 over outcomes, so unless P_Q = P_L
        # some outcome has P_Q - P_L < 0; the diagonal grid alone shows it.
        problems.append(f"{tag}: certify at w = 1 passed; P_Q and P_L would be equal")
    if certificate.min_residual > independent_min + 1e-12:
        problems.append(
            f"{tag}: kernel minimum {certificate.min_residual} above the independent "
            f"minimum {independent_min} over a subset of its rows")
    grid = grid_lower_bound(n, alpha)
    if not (grid - CURVE_GRID_SLACK <= w <= grid + CLOSED_FORM_TOL):
        problems.append(f"{tag}: w_lower {w} off the fine-grid minimum {grid}")
    if row["w_upper_chen"] is None or abs(row["w_upper_chen"] - chen_formula(n, alpha)) > 1e-12:
        problems.append(f"{tag}: w_upper_chen {row['w_upper_chen']} off the inequality formula")
    if row["mabk_implied"] not in implied_name(n, alpha):
        problems.append(f"{tag}: mabk_implied {row['mabk_implied']} breaks the threshold rule")
    return problems


def check_point(inputs, outputs) -> list[str]:
    seed = inputs["seed"]
    problems = []
    for case, output in zip(inputs["cases"], outputs):
        n, alpha, samples = case
        if isinstance(output, CallError) or output[0] != 0:
            problems.append(f"point n={n}: failed with {output}")
            continue
        row = json.loads(output[1])
        scenario = qcore.GhzScenario(n, alpha)
        rows = epr2.certification_thetas(seed, 0, min(POINT_CHECK_ROWS, samples), n)
        problems += check_point_case(
            case, row,
            epr2.certify(scenario, row["w_lower"], samples=samples, seed=seed),
            epr2.certify(scenario, 1.0, samples=0),
            independent_min_residual(n, alpha, row["w_lower"], rows),
        )
    return problems


# ---------------------------------------------------------------------------
# bounds-curve


def curve_inputs(seed: int, reduced: bool = False) -> dict:
    """Both endpoints plus one alpha drawn uniformly in each of equal strata."""
    n_list, count = ((2, 3, 12), 4) if reduced else (CURVE_N, CURVE_ALPHAS)
    strata = count - 2
    u = np.random.default_rng(seed).uniform(0.0, 1.0, strata)
    interior = (np.arange(strata) + u) / strata * QUARTER_PI
    alphas = [0.0, *map(float, interior), QUARTER_PI]
    return {"cases": tuple((n, a) for n in n_list for a in alphas)}


def _curve_point(n, alpha):
    scenario = qcore.GhzScenario(n, alpha)
    w = epr2.lower_bound(scenario)
    return w, (bounds.chen_upper(scenario) if n >= 3 else None)


def curve_calls(inputs):
    return [lambda n=n, a=a: _curve_point(n, a) for n, a in inputs["cases"]]


def count_errors(inputs, outputs):
    return len(outputs), sum(isinstance(o, CallError) for o in outputs)


def check_curve(inputs, outputs) -> list[str]:
    problems = []
    for (n, alpha), output in zip(inputs["cases"], outputs):
        tag = f"bounds-curve n={n} alpha={alpha:.6f}"
        if isinstance(output, CallError):
            problems.append(f"{tag}: failed with {output}")
            continue
        w, chen = output
        if n == 2 and abs(w - (1.0 - math.sin(2 * alpha))) > CLOSED_FORM_TOL:
            problems.append(f"{tag}: {w} is not 1 - sin 2a")
        if alpha == 0.0 and abs(w - 1.0) > CLOSED_FORM_TOL:
            problems.append(f"{tag}: {w} is not 1 at a = 0")
        if alpha == QUARTER_PI and abs(w) > CLOSED_FORM_TOL:
            problems.append(f"{tag}: {w} is not 0 at a = pi/4")
        grid = grid_lower_bound(n, alpha)
        if not (grid - CURVE_GRID_SLACK <= w <= grid + CLOSED_FORM_TOL):
            problems.append(f"{tag}: {w} off the fine-grid minimum {grid}")
        if n >= 3:
            if alpha == QUARTER_PI:
                m = (n - 2) / 2
                if abs(chen - 2**m / (2**m + 1)) > 1e-12:
                    problems.append(f"{tag}: chen_upper {chen} is not 2^m/(2^m+1)")
            if abs(chen - chen_formula(n, alpha)) > 1e-12:
                problems.append(f"{tag}: chen_upper {chen} off the inequality formula")
            if w > chen + 1e-12:
                problems.append(f"{tag}: lower bound {w} above chen_upper {chen}")
    return problems


# ---------------------------------------------------------------------------
# mabk


def mabk_inputs(seed: int, reduced: bool = False) -> dict:
    """Fixed cases; the seed is not used (see MABK_CASES)."""
    cases = ((2, 0.5), (3, QUARTER_PI)) if reduced else MABK_CASES
    return {"cases": cases}


def mabk_calls(inputs):
    return [lambda n=n, a=a: bounds.mabk_quantum_max(
                qcore.GhzScenario(n, a), restarts=MABK_RESTARTS, seed=MABK_SEED)
            for n, a in inputs["cases"]]


def check_mabk(inputs, outputs) -> list[str]:
    problems = []
    for (n, alpha), report in zip(inputs["cases"], outputs):
        tag = f"mabk n={n} alpha={alpha:.6f}"
        if isinstance(report, CallError):
            problems.append(f"{tag}: failed with {report}")
            continue
        value = report.quantum_max
        top = 2.0 ** ((n - 1) / 2)
        floor = max(top * math.sin(2 * alpha),
                    math.cos(alpha) ** 2 + (-1) ** n * math.sin(alpha) ** 2)
        if n == 2 and abs(value - math.sqrt(1 + math.sin(2 * alpha) ** 2)) > MABK_TOL:
            problems.append(f"{tag}: {value} is not sqrt(1 + sin^2 2a)")
        if alpha == QUARTER_PI and abs(value - top) > MABK_TOL:
            problems.append(f"{tag}: {value} is not 2^((n-1)/2)")
        if not (floor - MABK_TOL <= value <= top + 1e-9):
            problems.append(f"{tag}: {value} outside [{floor}, {top}]")
        if report.violates != (value > 1.0 + MABK_TOL):
            problems.append(f"{tag}: violates={report.violates} disagrees with {value}")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload's parts.  ``inputs(seed, reduced=False)`` builds the inputs
    (``reduced`` gives the small sizes the benchmark's tests run); ``calls``
    turns them into the round's list of thunks; ``tally`` counts operations
    attempted and failed in a round's outputs; ``check`` lists the problems
    in a round's outputs."""

    name: str
    inputs: Callable[..., dict]
    calls: Callable[[dict], list]
    tally: Callable[[dict, list], tuple[int, int]]
    check: Callable[[dict, list], list[str]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", scan_inputs, scan_calls, scan_tally, check_scan),
        Workload("point-large", point_inputs, point_calls, point_tally, check_point),
        Workload("bounds-curve", curve_inputs, curve_calls, count_errors, check_curve),
        Workload("mabk", mabk_inputs, mabk_calls, count_errors, check_mabk),
    )
}


@dataclass
class Round:
    """Outputs and per-call seconds of one pass over a workload's calls."""

    outputs: list
    seconds: list
    wall: float


def run_round(calls) -> Round:
    """Run every call once, timing each."""
    outputs, seconds = [], []
    start = time.perf_counter()
    for call in calls:
        t0 = time.perf_counter()
        try:
            outputs.append(call())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(CallError(repr(exc)))
        seconds.append(time.perf_counter() - t0)
    return Round(outputs, seconds, time.perf_counter() - start)


def compare_rounds(first: Round, later: list[Round]) -> list[str]:
    """Every later round must reproduce the first round's outputs exactly."""
    return [f"round {k + 2} output differs from round 1"
            for k, r in enumerate(later) if r.outputs != first.outputs]
