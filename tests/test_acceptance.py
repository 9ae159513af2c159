"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two criteria check closed forms rather than fixed targets:

* criterion 6 pins the maximal-entanglement upper bound to its closed form
  2^m / (2^m + 1), m = (n - 2) / 2, for every n in 3..12, so the gap to 1
  is 1 / (2^m + 1) and shrinks to 0 with n (the value 0.99 is first reached
  at n = 16, beyond the supported range);
* criterion 7 checks the no-violation threshold sin(2a) <= 2^-((n-1)/2)
  for n = 3, where it holds, and the CHSH maximum sqrt(1 + sin(2a)^2) for
  n = 2, where the threshold does not apply: every entangled two-qubit pure
  state violates CHSH.
"""

import math
import pathlib
import time

import numpy as np

from ghzlocal import cli
from ghzlocal.qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    ghz_state,
    joint_prob_dense,
    joint_prob_ghz,
)
from ghzlocal.epr2 import certify, lower_bound
from ghzlocal.bounds import chen_upper, mabk_quantum_max

# Criterion 9's scan as an earlier version of the package printed it.
SCAN_REFERENCE = pathlib.Path(__file__).parent / "data" / "scan_n2-5_steps51_seed7.csv"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_two_party_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for alpha in np.linspace(0.0, math.pi / 4, 50):
        sc = GhzScenario(2, float(alpha))
        worst = max(worst, abs(lower_bound(sc) - (1.0 - math.sin(2.0 * alpha))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    report(1, ok, f"max |lb(2,a) - (1 - sin 2a)| = {worst:.3e} over 50 alphas "
                  f"in {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_three_party_anchor():
    start = time.perf_counter()
    value = lower_bound(GhzScenario(3, math.pi / 12))
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.28) <= 0.005 and elapsed < 5.0
    report(2, ok, f"lb(3, pi/12) = {value:.6f} (target 0.28 +- 0.005) "
                  f"in {elapsed:.2f}s")
    assert abs(value - 0.28) <= 0.005
    assert elapsed < 5.0


def test_criterion_3_endpoints():
    worst_product = 1.0
    worst_maximal = 0.0
    for n in (2, 3, 4, 5):
        worst_product = min(worst_product, lower_bound(GhzScenario(n, 0.0)))
        worst_maximal = max(worst_maximal, lower_bound(GhzScenario(n, math.pi / 4)))
    ok = worst_product >= 1.0 - 1e-6 and worst_maximal <= 1e-6
    report(3, ok, f"min lb(n, 0) = {worst_product:.12f}, "
                  f"max lb(n, pi/4) = {worst_maximal:.3e}, n in 2..5")
    assert worst_product >= 1.0 - 1e-6
    assert worst_maximal <= 1e-6


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(2025)
    worst_dev = 0.0
    worst_norm = 0.0
    for k in range(1000):
        n = int(rng.integers(2, 7))
        sc = GhzScenario(n, float(rng.uniform(0.0, math.pi / 4)))
        ctx = MeasurementContext.from_angles(
            rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
        )
        pat = OutcomePattern(tuple(int(s) for s in rng.choice((-1, 1), n)))
        state = ghz_state(sc)
        worst_dev = max(
            worst_dev,
            abs(joint_prob_dense(state, ctx, pat) - joint_prob_ghz(sc, ctx, pat)),
        )
        if k % 5 == 0:
            total = sum(
                joint_prob_dense(state, ctx, p) for p in all_outcome_patterns(n)
            )
            worst_norm = max(worst_norm, abs(total - 1.0))
    ok = worst_dev <= 1e-10 and worst_norm <= 1e-12
    report(4, ok, f"max |closed - dense| = {worst_dev:.3e} over 1000 configs, "
                  f"max |sum - 1| = {worst_norm:.3e}")
    assert worst_dev <= 1e-10
    assert worst_norm <= 1e-12


def test_criterion_5_certification():
    start = time.perf_counter()
    worst = math.inf
    failures = []
    for n in (2, 3, 4):
        for alpha in np.linspace(0.0, math.pi / 4, 9):
            sc = GhzScenario(n, float(alpha))
            cert = certify(sc, lower_bound(sc), samples=100_000, seed=0)
            worst = min(worst, cert.min_residual)
            if cert.violated:
                failures.append((n, float(alpha)))
    elapsed = time.perf_counter() - start
    ok = not failures and worst >= -1e-9 and elapsed < 120.0
    report(5, ok, f"27 scenarios certified at 1e5 samples, worst residual "
                  f"{worst:.3e}, in {elapsed:.1f}s")
    assert not failures, f"certification violated at {failures}"
    assert worst >= -1e-9
    assert elapsed < 120.0


def test_criterion_6_chen_upper_bound():
    exact = abs(chen_upper(GhzScenario(3, math.pi / 4)) - (2.0 - math.sqrt(2.0)))
    values = [chen_upper(GhzScenario(n, math.pi / 4)) for n in range(3, 13)]
    increasing = all(b > a for a, b in zip(values[:-1], values[1:]))
    dominations = []
    for n in (3, 4, 5):
        for alpha in np.linspace(0.0, math.pi / 4, 9):
            sc = GhzScenario(n, float(alpha))
            dominations.append(chen_upper(sc) - lower_bound(sc))
    dominates = min(dominations) >= -1e-6

    def closed_form(n: int) -> float:
        scale = 2.0 ** ((n - 2) / 2.0)
        return scale / (scale + 1.0)

    closed_dev = max(
        abs(value - closed_form(n)) for n, value in zip(range(3, 13), values)
    )
    matches_closed_form = closed_dev <= 1e-12
    first_099 = next(n for n in range(3, 64) if closed_form(n) >= 0.99)
    ok = exact <= 1e-12 and increasing and dominates and matches_closed_form
    report(6, ok, f"|chen(3,pi/4) - (2-sqrt2)| = {exact:.1e}, increasing(3..12) = "
                  f"{increasing}, min(chen - lb) = {min(dominations):.2e}, "
                  f"max |chen(n,pi/4) - 2^m/(2^m+1)| (n=3..12) = {closed_dev:.1e}, "
                  f"chen(12, pi/4) = {values[-1]:.6f}, closed form first "
                  f">= 0.99 at n = {first_099}")
    assert exact <= 1e-12
    assert increasing
    assert dominates
    assert matches_closed_form, (
        f"chen_upper(n, pi/4) deviates from 2^m/(2^m+1), m = (n-2)/2, by "
        f"{closed_dev:.3e} over n = 3..12"
    )


def test_criterion_7_mabk_threshold():
    tsirelson = mabk_quantum_max(GhzScenario(2, math.pi / 4), restarts=8, seed=0)
    tsirelson_ok = (
        tsirelson.quantum_max >= math.sqrt(2.0) - 1e-4
        and tsirelson.quantum_max <= math.sqrt(2.0) + 1e-6
    )

    def region_alphas(n: int) -> np.ndarray:
        bound = 2.0 ** (-(n - 1) / 2.0)
        return np.linspace(0.0, 0.5 * math.asin(bound), 10)

    def region_max(n: int) -> float:
        worst = 0.0
        for alpha in region_alphas(n):
            rep = mabk_quantum_max(GhzScenario(n, float(alpha)), restarts=6, seed=0)
            worst = max(worst, rep.quantum_max)
        return worst

    worst3 = region_max(3)

    # n = 2: the threshold does not apply; the maximum is the CHSH closed form.
    chsh_dev = 0.0
    verdict_mismatches = []
    for alpha in region_alphas(2):
        rep = mabk_quantum_max(GhzScenario(2, float(alpha)), restarts=6, seed=0)
        expected = math.sqrt(1.0 + math.sin(2.0 * alpha) ** 2)
        chsh_dev = max(chsh_dev, abs(rep.quantum_max - expected))
        if rep.violates != (alpha > 0.0):
            verdict_mismatches.append((float(alpha), rep.violates))

    ok = (tsirelson_ok and worst3 <= 1.0 + 1e-6 and chsh_dev <= 1e-6
          and not verdict_mismatches)
    report(7, ok, f"CHSH max = {tsirelson.quantum_max:.9f} (sqrt2 = {math.sqrt(2):.9f}), "
                  f"below-threshold max n=3 {worst3:.9f} (requires <= 1 + 1e-6), "
                  f"n=2 max |max - sqrt(1 + sin^2 2a)| = {chsh_dev:.1e}, "
                  f"violates == (a > 0) at all 10 alphas: {not verdict_mismatches}")
    assert tsirelson_ok
    assert worst3 <= 1.0 + 1e-6
    assert chsh_dev <= 1e-6, (
        f"n = 2 maximum deviates from sqrt(1 + sin(2a)^2) by {chsh_dev:.3e}"
    )
    assert not verdict_mismatches, (
        f"n = 2 violation verdict differs from (alpha > 0) at {verdict_mismatches}"
    )


def test_criterion_8_curve_shape():
    grid = np.linspace(0.0, math.pi / 4, 51)
    curves = {
        n: [lower_bound(GhzScenario(n, float(a))) for a in grid]
        for n in (2, 3, 4, 5)
    }
    nonincreasing = all(
        b <= a + 1e-9
        for values in curves.values()
        for a, b in zip(values[:-1], values[1:])
    )
    at_pi8 = [curves[n][25] for n in (2, 3, 4, 5)]
    assert abs(grid[25] - math.pi / 8) < 1e-12
    ordered = all(a > b for a, b in zip(at_pi8[:-1], at_pi8[1:]))
    ok = nonincreasing and ordered
    report(8, ok, f"curves nonincreasing = {nonincreasing}; at pi/8: "
                  + " > ".join(f"{v:.4f}" for v in at_pi8))
    assert nonincreasing
    assert ordered


def test_criterion_9_scan_determinism(tmp_path, capsys):
    paths = [tmp_path / "scan1.csv", tmp_path / "scan2.csv"]
    start = time.perf_counter()
    for path in paths:
        code = cli.main([
            "scan", "--n", "2,3,4,5", "--alpha-steps", "51",
            "--seed", "7", "--out", str(path),
        ])
        assert code == 0
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    first, second = paths[0].read_bytes(), paths[1].read_bytes()
    rows = first.decode().splitlines()
    pinned = first == SCAN_REFERENCE.read_bytes()
    ok = first == second and pinned and len(rows) == 205
    report(9, ok, f"two scan runs: {len(first)} bytes each, identical = "
                  f"{first == second}, equal to {SCAN_REFERENCE.name} = {pinned}, "
                  f"{len(rows) - 1} data rows, in {elapsed:.0f}s")
    assert first == second
    assert pinned
    assert len(rows) == 205
    assert rows[0] == "n,alpha,w_lower,w_upper_chen,mabk_implied,certified"
