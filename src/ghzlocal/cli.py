"""Command-line front end: sweeps, single points, certification runs, selftests.

Subcommands
-----------
point     lower/upper bounds and a certification verdict for one (n, alpha)
scan      the same over an alpha grid for several n, as CSV, JSON or SVG
certify   check a user-supplied weight w against the decomposition residual
selftest  internal consistency suites (oracle equivalence, normalization, ...)

Exit codes: 0 success, 2 usage error, 3 certification failure.  Output is
deterministic: identical command lines (including --seed) produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .bounds import chen_upper, mabk_implied_upper
from .epr2 import LocalModel, certify, local_prob, lower_bound, sampled_min_ratio
from .qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    cos_theta0,
    diagonal_prob,
    ghz_state,
    joint_prob_dense,
    joint_prob_ghz,
)

_IMPLIED_NAMES = {0.0: "zero", 1.0: "one", None: "unknown"}

CSV_HEADER = "n,alpha,w_lower,w_upper_chen,mabk_implied,certified"


@dataclass(frozen=True)
class ScanRow:
    """One (n, alpha) result row of a scan or point query."""

    n: int
    alpha: float
    w_lower: float
    w_upper_chen: float | None
    mabk_implied: str
    certified: bool


def _fmt(x: float) -> str:
    """Floats printed with 9 significant digits."""
    return format(x, ".9g")


def _scan_rows(scenarios, samples: int, seed: int, grid_points: int) -> list[ScanRow]:
    """Build the rows of scenarios that share one n.

    Each lower bound is certified at the requested sample count, all of
    them in one :func:`certify` call; a row whose bound fails has its weight
    lowered to the largest sample-certified ratio and is flagged
    (certified=false), which makes the command's exit code 3.  A product
    state (alpha = 0) is left out of that call: its certificate passes at
    every setting, since rounding keeps each of its residuals above
    ``-16 n 2^-53`` (proved at :func:`ghzlocal.epr2._alpha_zero_rounding`),
    far inside ``CERT_TOLERANCE``.
    """
    ws = [lower_bound(scenario, grid_points=grid_points) for scenario in scenarios]
    sampled = [i for i, scenario in enumerate(scenarios) if scenario.alpha != 0.0]
    violated = [False] * len(scenarios)
    certificates = certify([scenarios[i] for i in sampled], [ws[i] for i in sampled],
                           samples=samples, seed=seed)
    for i, certificate in zip(sampled, certificates):
        violated[i] = certificate.violated
    rows = []
    for scenario, w, failed in zip(scenarios, ws, violated):
        if failed:
            w = sampled_min_ratio(scenario, samples=samples, seed=seed)
        rows.append(ScanRow(
            n=scenario.n,
            alpha=scenario.alpha,
            w_lower=w,
            w_upper_chen=chen_upper(scenario) if scenario.n >= 3 else None,
            mabk_implied=_IMPLIED_NAMES[mabk_implied_upper(scenario)],
            certified=not failed,
        ))
    return rows


def _rows_csv(rows) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        chen = "" if row.w_upper_chen is None else _fmt(row.w_upper_chen)
        lines.append(
            f"{row.n},{_fmt(row.alpha)},{_fmt(row.w_lower)},{chen},"
            f"{row.mabk_implied},{'true' if row.certified else 'false'}"
        )
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _rows_svg(rows, n_list) -> str:
    """Minimal static line chart: one w_lower polyline per n, 800x600 viewBox."""
    left, right, top, bottom = 70.0, 780.0, 20.0, 550.0
    alpha_max = math.pi / 4

    def x(alpha):
        return left + (right - left) * alpha / alpha_max

    def y(w):
        return bottom - (bottom - top) * w

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect x="0" y="0" width="800" height="600" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        '<text x="400" y="590" text-anchor="middle" font-size="16">alpha (rad)</text>',
        '<text x="20" y="285" text-anchor="middle" font-size="16" '
        'transform="rotate(-90 20 285)">w_lower</text>',
    ]
    for frac, label in ((0.0, "0"), (0.5, "pi/8"), (1.0, "pi/4")):
        xx = x(frac * alpha_max)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{bottom}" x2="{xx:.2f}" y2="{bottom + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{bottom + 24}" text-anchor="middle" font-size="14">{label}</text>'
        )
    for w in (0.0, 0.5, 1.0):
        yy = y(w)
        parts.append(
            f'<line x1="{left - 6}" y1="{yy:.2f}" x2="{left}" y2="{yy:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 10}" y="{yy + 5:.2f}" text-anchor="end" font-size="14">{w:g}</text>'
        )
    for k, n in enumerate(n_list):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = " ".join(
            f"{x(row.alpha):.2f},{y(row.w_lower):.2f}" for row in rows if row.n == n
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{right - 60}" y="{top + 20 + 22 * k:.2f}" font-size="14" '
            f'fill="{color}">n={n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_out(text: str, out: str | None) -> None:
    """Write ``text`` to stdout, or to the file ``out``; a file that cannot be
    written is a usage error (ValueError)."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from None


def _resolve_alpha(args) -> float:
    alpha = math.radians(args.alpha_deg) if args.alpha_deg is not None else args.alpha
    # Snap decimal-rounded inputs like 0.7853982 onto the nearest domain edge.
    if -1e-6 < alpha < 0.0:
        return 0.0
    if math.pi / 4 < alpha < math.pi / 4 + 1e-6:
        return math.pi / 4
    return alpha


def cmd_point(args) -> int:
    scenario = GhzScenario(args.n, _resolve_alpha(args))
    (row,) = _scan_rows([scenario], args.samples, args.seed, args.grid_points)
    _write_out(json.dumps(asdict(row), indent=2) + "\n", args.out)
    return 0 if row.certified else 3


def cmd_scan(args) -> int:
    n_list = args.n
    alphas = np.linspace(0.0, math.pi / 4, args.alpha_steps)
    # Every scenario is validated before any row is computed.  Each entry
    # of n_list, repeated ones included, is one group certified in one pass.
    groups = [[GhzScenario(n, float(alpha)) for alpha in alphas] for n in n_list]
    rows = [row for scenarios in groups
            for row in _scan_rows(scenarios, args.samples, args.seed, args.grid_points)]
    if args.format == "csv":
        text = _rows_csv(rows)
    elif args.format == "json":
        text = json.dumps([asdict(row) for row in rows], indent=2) + "\n"
    else:
        text = _rows_svg(rows, n_list)
    _write_out(text, args.out)
    return 0 if all(row.certified for row in rows) else 3


def cmd_certify(args) -> int:
    scenario = GhzScenario(args.n, _resolve_alpha(args))
    certificate = certify(scenario, args.w, samples=args.samples, seed=args.seed)
    _write_out(json.dumps(asdict(certificate), indent=2) + "\n", args.out)
    return 3 if certificate.violated else 0


# ---------------------------------------------------------------------------
# selftest suites


def _suite_oracle_equivalence(quick: bool, phase_shift: float):
    """Closed form vs dense state-vector route on random configurations.

    ``phase_shift`` is added to party 0's phase in the closed-form call
    only; pi flips the interference term, a negative control.
    """
    rng = np.random.default_rng(2024)
    configs = 150 if quick else 1000
    worst = 0.0
    for _ in range(configs):
        n = int(rng.integers(2, 7))
        scenario = GhzScenario(n, float(rng.uniform(0.0, math.pi / 4)))
        thetas = rng.uniform(0.0, math.pi, n)
        phis = rng.uniform(0.0, 2.0 * math.pi, n)
        pattern = OutcomePattern(tuple(int(s) for s in rng.choice((-1, 1), n)))
        context = MeasurementContext.from_angles(thetas, phis)
        dense = joint_prob_dense(ghz_state(scenario), context, pattern)
        phis[0] += phase_shift
        closed = joint_prob_ghz(
            scenario, MeasurementContext.from_angles(thetas, phis), pattern
        )
        worst = max(worst, abs(dense - closed))
    return worst <= 1e-10, f"max |closed - dense| = {worst:.3e} over {configs} configs"


def _suite_normalization(quick: bool):
    """Local model and dense probabilities sum to 1 over all outcome patterns."""
    rng = np.random.default_rng(7)
    configs = 40 if quick else 150
    worst = 0.0
    for _ in range(configs):
        n = int(rng.integers(2, 7))
        scenario = GhzScenario(n, float(rng.uniform(0.0, math.pi / 4)))
        thetas = rng.uniform(0.0, math.pi, n)
        model = LocalModel(scenario)
        total = sum(local_prob(model, thetas, p) for p in all_outcome_patterns(n))
        worst = max(worst, abs(total - 1.0))
        if n <= 5:
            context = MeasurementContext.from_angles(
                thetas, rng.uniform(0.0, 2.0 * math.pi, n)
            )
            state = ghz_state(scenario)
            total = sum(
                joint_prob_dense(state, context, p) for p in all_outcome_patterns(n)
            )
            worst = max(worst, abs(total - 1.0))
    return worst <= 1e-12, f"max |sum - 1| = {worst:.3e} over {configs} configs"


def _suite_identity_two_party(quick: bool):
    """-cos(theta0) * cos(2a) = 1 - sin(2a) for n = 2 across an alpha grid."""
    points = 51 if quick else 201
    worst = 0.0
    for alpha in np.linspace(0.0, math.pi / 4, points):
        scenario = GhzScenario(2, float(alpha))
        lhs = -cos_theta0(scenario) * math.cos(2.0 * alpha)
        worst = max(worst, abs(lhs - (1.0 - math.sin(2.0 * alpha))))
    return worst <= 1e-12, f"max deviation = {worst:.3e} over {points} alphas"


def _suite_three_party_diagonal(quick: bool):
    """diagonal_prob(n=3) against its trigonometric closed form."""
    a_points, t_points = (11, 101) if quick else (21, 401)
    worst = 0.0
    for alpha in np.linspace(0.0, math.pi / 4, a_points):
        scenario = GhzScenario(3, float(alpha))
        for theta in np.linspace(0.0, math.pi, t_points):
            reference = (
                math.cos(alpha - 1.5 * theta) + 3.0 * math.cos(alpha + 0.5 * theta)
            ) ** 2 / 16.0
            worst = max(worst, abs(diagonal_prob(scenario, float(theta)) - reference))
    return worst <= 1e-12, f"max deviation = {worst:.3e}"


def cmd_selftest(args) -> int:
    phase_shift = math.pi if args.flip_phase_sign else 0.0
    suites = [
        ("oracle-equivalence", lambda: _suite_oracle_equivalence(args.quick, phase_shift)),
        ("normalization", lambda: _suite_normalization(args.quick)),
        ("two-party-identity", lambda: _suite_identity_two_party(args.quick)),
        ("three-party-diagonal", lambda: _suite_three_party_diagonal(args.quick)),
    ]
    all_ok = True
    for name, suite in suites:
        ok, detail = suite()
        all_ok = all_ok and ok
        print(f"{'ok  ' if ok else 'FAIL'}  {name:22s}  {detail}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser, with_grid=True):
    parser.add_argument("--samples", type=int, default=100_000,
                        help="random settings per certification (default 100000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the certification sample stream (default 0)")
    if with_grid:
        parser.add_argument("--grid-points", type=int, default=10_000,
                            help="accepted for compatibility, 1000 to 10000000 "
                                 "(default 10000); the bound no longer depends on it")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write output to FILE instead of standard output")


def _add_alpha(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float, help="state angle in radians")
    group.add_argument("--alpha-deg", type=float, help="state angle in degrees")


def _parse_n_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid n list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzlocal",
        description="Local-content bounds for N-qubit GHZ correlations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("point", help="bounds and certification for one (n, alpha)")
    p.add_argument("--n", type=int, required=True, help="party count")
    _add_alpha(p)
    _add_common(p)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("scan", help="alpha sweep for several n")
    p.add_argument("--n", type=_parse_n_list, required=True,
                   help="comma-separated party counts, e.g. 2,3,4,5")
    p.add_argument("--alpha-steps", type=int, required=True,
                   help="number of alpha grid points on [0, pi/4] (at least 2)")
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("certify", help="certify a decomposition weight w")
    p.add_argument("--n", type=int, required=True, help="party count")
    _add_alpha(p)
    p.add_argument("--w", type=float, required=True, help="claimed local weight")
    _add_common(p, with_grid=False)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("selftest", help="run internal consistency suites")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.add_argument("--flip-phase-sign", action="store_true",
                   help="debug: flip the closed-form phase sign (negative control; "
                        "the oracle-equivalence suite must then fail)")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if getattr(args, "alpha_steps", None) is not None and args.alpha_steps < 2:
        print("error: --alpha-steps must be at least 2", file=sys.stderr)
        return 2
    if getattr(args, "samples", 0) < 0:
        print("error: --samples must be nonnegative", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
