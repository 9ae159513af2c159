#!/usr/bin/env python3
"""Certifying a decomposition weight, and what the nonlocal part looks like.

A weight w is certified by checking P_Q - w * P_L >= 0 over a deterministic
diagonal grid plus seeded random settings (all outcome patterns, both phase
extremes).  The same seed always reproduces the same certificate.  With a
certified w, the leftover (P_Q - w P_L)/(1 - w) is itself a distribution.
"""

import math

import numpy as np

from ghzlocal import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    certify,
    joint_prob_ghz,
    lower_bound,
    nonlocal_prob,
    sampled_min_ratio,
)

sc = GhzScenario(3, math.pi / 12)
w = lower_bound(sc)
print(f"n=3, alpha=pi/12: lower bound w = {w:.6f}")

print("\n== Certification at the bound ==")
for samples in (10_000, 100_000):
    cert = certify(sc, w, samples=samples, seed=0)
    print(f"samples={samples:>7}: min residual = {cert.min_residual:+.3e}, "
          f"violated = {cert.violated}")

print("\n== Same seed, same certificate ==")
a = certify(sc, w, samples=50_000, seed=123)
b = certify(sc, w, samples=50_000, seed=123)
print(f"two runs identical: {a == b}")

print("\n== An overclaimed weight is caught ==")
too_much = w + 0.05
cert = certify(sc, too_much, samples=20_000, seed=0)
print(f"w = {too_much:.6f}: min residual = {cert.min_residual:+.3e}, "
      f"violated = {cert.violated}")
fallback = sampled_min_ratio(sc, samples=20_000, seed=0)
print(f"largest sample-certified weight: {fallback:.6f}")

print("\n== The nonlocal part is a distribution ==")
rng = np.random.default_rng(5)
ctx = MeasurementContext.from_angles(
    rng.uniform(0, math.pi, 3), rng.uniform(0, 2 * math.pi, 3)
)
values = [nonlocal_prob(sc, w, ctx, pat) for pat in all_outcome_patterns(3)]
print(f"values at a random setting: {np.round(values, 6)}")
print(f"all nonnegative: {all(v >= -1e-12 for v in values)}, "
      f"sum = {sum(values):.12f}")

print("\n== Weight zero degenerates to the quantum distribution ==")
pat = OutcomePattern((1, -1, 1))
print(f"nonlocal_prob(w=0) - P_Q = "
      f"{nonlocal_prob(sc, 0.0, ctx, pat) - joint_prob_ghz(sc, ctx, pat):.1e}")
