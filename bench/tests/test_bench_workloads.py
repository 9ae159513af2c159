"""Tests of the benchmark itself: every workload once at reduced size with all
checks on, a negative control for each check, the tracer, and the entry point.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from ghzlocal import epr2, qcore  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def reduced():
    """Inputs and first-round outputs of every workload at reduced size."""
    out = {}
    for name, workload in wl.WORKLOADS.items():
        inputs = workload.inputs(SEED, reduced=True)
        out[name] = (inputs, wl.run_round(workload.calls(inputs)))
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_reduced_round_passes_every_check(reduced, name):
    workload = wl.WORKLOADS[name]
    inputs, first = reduced[name]
    attempted, failed = workload.tally(inputs, first.outputs)
    assert attempted >= 1 and failed == 0
    assert workload.check(inputs, first.outputs) == []
    again = wl.run_round(workload.calls(inputs))
    assert wl.compare_rounds(first, [again]) == []


def test_inputs_follow_the_seed():
    for name, workload in wl.WORKLOADS.items():
        a, b = workload.inputs(5), workload.inputs(5)
        assert repr(a) == repr(b), name
    assert wl.point_inputs(5) != wl.point_inputs(6)
    assert wl.curve_inputs(5) != wl.curve_inputs(6)
    assert wl.scan_inputs(5)["argv"] != wl.scan_inputs(6)["argv"]


def test_compare_rounds_flags_a_changed_pass(reduced):
    inputs, first = reduced["scan"]
    code, text = first.outputs[0]
    changed = wl.Round([(code, text.replace("true", "false", 1))], first.seconds, first.wall)
    assert wl.compare_rounds(first, [first, changed]) == ["round 3 output differs from round 1"]


def test_a_raising_call_counts_as_failed():
    def boom():
        raise MemoryError("Unable to allocate")

    result = wl.run_round([boom, lambda: 1.0])
    assert isinstance(result.outputs[0], wl.CallError) and result.outputs[1] == 1.0
    assert wl.count_errors({}, result.outputs) == (2, 1)
    assert wl.check_curve({"cases": ((2, 0.1),)}, result.outputs[:1])
    assert wl.scan_tally(wl.scan_inputs(0, reduced=True), result.outputs[:1]) == (6, 6)


# ---------------------------------------------------------------------------
# scan negative controls


def _scan_edit(reduced, edit, code=0):
    """check_scan on the reduced scan's CSV after edit(lines) mutates it."""
    inputs, first = reduced["scan"]
    lines = first.outputs[0][1].split("\n")
    edit(lines)
    return wl.check_scan(inputs, [(code, "\n".join(lines))])


def _set_field(lines, index, field, value):
    cells = lines[index].split(",")
    cells[wl.cli.CSV_HEADER.split(",").index(field)] = value
    lines[index] = ",".join(cells)


def _shift_field(lines, index, field, delta):
    cells = lines[index].split(",")
    k = wl.cli.CSV_HEADER.split(",").index(field)
    cells[k] = format(float(cells[k]) + delta, ".9g")
    lines[index] = ",".join(cells)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: _shift_field(lines, 2, "w_lower", 1e-3), "1 - sin 2a"),
    (lambda lines: _shift_field(lines, 1, "w_lower", -1e-3), "is not 1 at a = 0"),
    (lambda lines: _shift_field(lines, 6, "w_lower", 1e-3), "is not 0 at a = pi/4"),
    (lambda lines: _set_field(lines, 5, "w_lower", "1.01"), "rises in alpha"),
    (lambda lines: _set_field(lines, 5, "certified", "false"), "not certified"),
    (lambda lines: _shift_field(lines, 5, "w_upper_chen", 1e-3), "inequality formula"),
    (lambda lines: _set_field(lines, 5, "w_upper_chen", "0"), "above w_upper_chen"),
    (lambda lines: _set_field(lines, 4, "mabk_implied", "unknown"), "threshold rule"),
    (lambda lines: _set_field(lines, 2, "w_upper_chen", "0.5"), "given at n = 2"),
    (lambda lines: lines.pop(3), "rows, expected"),
    (lambda lines: lines.__setitem__(0, "n,alpha,w"), "header"),
])
def test_scan_check_rejects(reduced, edit, message):
    problems = _scan_edit(reduced, edit)
    assert any(message in p for p in problems), problems


def test_scan_check_rejects_a_failed_exit_code(reduced):
    assert _scan_edit(reduced, lambda lines: None) == []
    assert _scan_edit(reduced, lambda lines: None, code=3) == [
        f"scan: failed with {(3, reduced['scan'][1].outputs[0][1])}"]


# ---------------------------------------------------------------------------
# point negative controls


@pytest.fixture(scope="module")
def point_evidence(reduced):
    inputs, first = reduced["point-large"]
    case = inputs["cases"][0]
    n, alpha, samples = case
    row = json.loads(first.outputs[0][1])
    scenario = qcore.GhzScenario(n, alpha)
    certificate = epr2.certify(scenario, row["w_lower"], samples=samples, seed=SEED)
    at_one = epr2.certify(scenario, 1.0, samples=0)
    rows = epr2.certification_thetas(SEED, 0, 64, n)
    independent = wl.independent_min_residual(n, alpha, row["w_lower"], rows)
    return case, row, certificate, at_one, independent


def test_point_evidence_is_consistent(point_evidence):
    assert wl.check_point_case(*point_evidence) == []


@pytest.mark.parametrize("corrupt, message", [
    (lambda r, c, o, i: ({**r, "certified": False}, c, o, i), "not certified"),
    (lambda r, c, o, i: ({**r, "w_lower": r["w_lower"] + 1e-3}, c, o, i), "fine-grid"),
    (lambda r, c, o, i: (r, dataclasses.replace(c, min_residual=-1e-6), o, i), "below -1e-9"),
    (lambda r, c, o, i: (r, c, dataclasses.replace(o, violated=False), i), "w = 1 passed"),
    (lambda r, c, o, i: (r, c, o, c.min_residual - 1e-6), "independent"),
    (lambda r, c, o, i: ({**r, "w_upper_chen": r["w_upper_chen"] + 1e-3}, c, o, i), "formula"),
    (lambda r, c, o, i: ({**r, "mabk_implied": "zero"}, c, o, i), "threshold rule"),
])
def test_point_check_rejects(point_evidence, corrupt, message):
    case, *evidence = point_evidence
    problems = wl.check_point_case(case, *corrupt(*evidence))
    assert any(message in p for p in problems), problems


def test_independent_residual_matches_the_kernel_on_its_rows():
    n, alpha, w = 4, 0.3, 0.2
    rows = epr2.certification_thetas(0, 0, 128, n)
    kernel, _ = epr2._residual_extrema(
        qcore.GhzScenario(n, alpha), w, rows, qcore.outcome_sign_matrix(n))
    assert abs(kernel - wl.independent_min_residual(n, alpha, w, rows)) < 1e-12


# ---------------------------------------------------------------------------
# bounds-curve and mabk negative controls


def _curve_edit(reduced, index, edit):
    inputs, first = reduced["bounds-curve"]
    outputs = list(first.outputs)
    outputs[index] = edit(*outputs[index])
    return wl.check_curve(inputs, outputs)


@pytest.mark.parametrize("pick, edit, message", [
    (lambda n, a: n == 2 and 0 < a < wl.QUARTER_PI, lambda w, c: (w + 1e-3, c), "1 - sin 2a"),
    (lambda n, a: n == 3 and a == 0.0, lambda w, c: (w - 1e-3, c), "is not 1 at a = 0"),
    (lambda n, a: n == 12 and a == wl.QUARTER_PI, lambda w, c: (w + 1e-3, c), "not 0 at a = pi/4"),
    (lambda n, a: n == 12 and 0 < a < wl.QUARTER_PI, lambda w, c: (w + 1e-3, c), "fine-grid"),
    (lambda n, a: n == 3 and 0 < a < wl.QUARTER_PI, lambda w, c: (w - 1e-3, c), "fine-grid"),
    (lambda n, a: n == 12 and a == wl.QUARTER_PI, lambda w, c: (w, c + 1e-6), "2^m/(2^m+1)"),
    (lambda n, a: n == 3 and 0 < a < wl.QUARTER_PI, lambda w, c: (w, w - 1e-3), "above chen_upper"),
])
def test_curve_check_rejects(reduced, pick, edit, message):
    inputs, _ = reduced["bounds-curve"]
    index = next(i for i, case in enumerate(inputs["cases"]) if pick(*case))
    problems = _curve_edit(reduced, index, edit)
    assert any(message in p for p in problems), problems


def _mabk_problems(reduced, index, value):
    inputs, first = reduced["mabk"]
    outputs = list(first.outputs)
    outputs[index] = dataclasses.replace(outputs[index], quantum_max=value,
                                         violates=value > 1.0 + wl.MABK_TOL)
    return wl.check_mabk(inputs, outputs)


def test_mabk_check_rejects_values_off_their_bounds(reduced):
    # (2, 0.5): the CHSH maximum; (3, pi/4): 2, with Z-string value 1 and
    # equatorial value 2 sin 2a as floors.
    assert any("sqrt(1 + sin^2 2a)" in p for p in _mabk_problems(reduced, 0, 1.3))
    assert any("2^((n-1)/2)" in p for p in _mabk_problems(reduced, 1, 1.99))
    assert any("outside" in p for p in _mabk_problems(reduced, 1, 1.0))
    assert any("outside" in p for p in _mabk_problems(reduced, 1, 2.0 + 1e-6))
    inputs, first = reduced["mabk"]
    flipped = [dataclasses.replace(first.outputs[0], violates=False), first.outputs[1]]
    assert any("violates" in p for p in wl.check_mabk(inputs, flipped))


def test_implied_rule_and_chen_formula_closed_forms():
    assert wl.implied_name(3, wl.QUARTER_PI) == ("zero",)
    assert wl.implied_name(3, 0.2) == ("one",)
    assert wl.implied_name(3, 0.3) == ("unknown",)
    for n in range(3, 13):
        m = (n - 2) / 2
        assert abs(wl.chen_formula(n, wl.QUARTER_PI) - 2**m / (2**m + 1)) < 1e-12
        assert wl.chen_formula(n, 0.0) == 1.0
    for a in (0.1, 0.4, 0.7):
        assert abs(wl.grid_lower_bound(2, a) - (1 - math.sin(2 * a))) < 1e-5


# ---------------------------------------------------------------------------
# tracing


def test_tracer_self_time_and_restore():
    toy = types.SimpleNamespace()
    toy.inner = lambda: sum(range(20000))
    toy.outer = lambda: [toy.inner() for _ in range(3)]
    original = toy.inner
    with tracing.Tracer(((toy, "outer", "cli"), (toy, "inner", "epr2"))) as tracer:
        toy.outer()
    assert toy.inner is original
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.<lambda>"] + ["epr2.<lambda>"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    own = tracing.self_seconds(tracer.spans)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert abs(own["cli"] + own["epr2"] - total) < 1e-9
    assert own["cli"] < own["epr2"]

    toy.outer()  # untraced between blocks
    with tracer:
        toy.inner()
    assert len(tracer.spans) == 5 and tracer.spans[4][3] == -1


def test_traced_scan_reaches_every_wrapped_layer():
    inputs = wl.scan_inputs(SEED, reduced=True)
    with tracing.Tracer() as tracer:
        wl.run_round(wl.scan_calls(inputs))
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "epr2.lower_bound", "epr2.certify", "epr2.ratio_f",
            "qcore.diagonal_prob", "bounds.chen_upper"} <= names
    assert set(tracing.self_seconds(tracer.spans)) == {"cli", "epr2", "qcore", "bounds"}


# ---------------------------------------------------------------------------
# entry point


def test_declared_metrics_have_unique_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"setup_s", "wall_s", "peak_rss_mb"} == {m["name"] for m in spec["end_to_end"]}


def test_run_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "mabk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(wl.MABK_CASES) == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
