#!/usr/bin/env python3
"""Lower and upper bounds on the local content across the GHZ family.

Sweeps the state angle for several party counts: the certified lower bound
from the factorized local model (exactly 1 - sin(2a) for two parties, and
decreasing fast with the party count), against the closed-form upper bound
available for three or more parties.  Writes the sweep as an SVG chart
through `ghzlocal scan --format svg`, which certifies each row.
"""

import math

from ghzlocal import GhzScenario, chen_upper, cli, lower_bound

steps = 16
ns = (2, 3, 4, 5)
alphas = [k * (math.pi / 4) / (steps - 1) for k in range(steps)]

print(f"{'alpha':>8} | " + " | ".join(f"w<({n})   w>({n})" for n in ns))
print("-" * (10 + 19 * len(ns)))
for alpha in alphas:
    cells = []
    for n in ns:
        sc = GhzScenario(n, alpha)
        lo = lower_bound(sc)
        hi = chen_upper(sc) if n >= 3 else None
        cells.append(f"{lo:.4f}  " + (f"{hi:.4f}" if hi is not None else "  --  "))
    print(f"{alpha:8.4f} | " + " | ".join(cells))

print("\nTwo-party check against the closed form 1 - sin(2a):")
worst = max(
    abs(lower_bound(GhzScenario(2, a)) - (1 - math.sin(2 * a))) for a in alphas
)
print(f"  largest deviation: {worst:.2e}")

print("\nUpper bound at maximal entanglement grows back toward 1 with n:")
for n in (3, 4, 6, 8, 12):
    print(f"  n={n:2d}: {chen_upper(GhzScenario(n, math.pi / 4)):.6f}")

out = "local_content_sweep.svg"
code = cli.main([
    "scan", "--n", ",".join(map(str, ns)), "--alpha-steps", str(steps),
    "--format", "svg", "--out", out, "--samples", "2000",
])
if code != 0:
    raise SystemExit(f"ghzlocal scan exited with code {code}")
print(f"\nwrote {out}")
