"""Tests of the row bound that lets certify skip rows before their trigonometry.

A row is skipped when a lower bound on its residual, taken from its raw
angles alone, clears the weight of every scenario of the batch
(``epr2._surviving_rows``).  These tests hold every skipped row to the
dense oracle, hold ``certify`` to the pass that skips no row, repr for
repr, and pin which blocks of a pass are bounded.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzlocal import epr2
from ghzlocal.epr2 import certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import special_angles, ulps_from

PROPERTIES = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Both ends of the domain, 1e-12 and 1e-15 off them, and two interior alphas.
ALPHAS = [0.0, 1e-12, 0.05, 0.3, math.pi / 4 - 1e-15, math.pi / 4]
alphas = st.one_of(st.sampled_from(ALPHAS), st.floats(0.0, math.pi / 4, allow_nan=False))
# "lower_bound" stands for the scenario's own lower bound, "cos2" for
# fl(cos a)^2, the residual of the all-zero row at its all-+1 pattern,
# and "cos2-" / "cos2+" for 2^-32 either side of it.
weights = st.one_of(st.sampled_from([0.0, "lower_bound", 1.0, "cos2", "cos2-", "cos2+"]),
                    st.floats(0.0, 1.0, allow_nan=False))


def _first_angle_below_one():
    """The least double t with np.cos(t) < 1: a party there, at its -1 outcome,
    has a P_L factor that its rounded cosine makes twice the exact one."""
    lo, hi = 0.0, 1e-7
    while float(np.nextafter(lo, 1.0)) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.cos(mid) == 1.0 else (lo, mid)
    return hi


# Angles whose cosine rounds near 1: the smallest residuals the kernel
# computes, below the exact ones by rounding alone.
TINY_ANGLES = [ulps_from(_first_angle_below_one(), k) for k in (-1, 0, 1)] + [2e-8, 1e-7]


def _weight(scenario, w):
    if not isinstance(w, str):
        return w
    if w == "lower_bound":
        return lower_bound(scenario)
    cos2 = math.cos(scenario.alpha) ** 2
    return min(max(cos2 + {"cos2": 0.0, "cos2-": -2.0**-32, "cos2+": 2.0**-32}[w], 0.0), 1.0)


@st.composite
def batches(draw):
    """(scenarios, weights, (rows, n) angles): an all-zero row, drawn rows and
    all-equal rows, with angles at 0, pi/2, near 0 and pi, and at the band
    edges of every scenario and of the batch."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(alphas, weights), min_size=1, max_size=3))
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    bounds = [abs(cos_theta0(sc)) for sc in scenarios]
    specials = special_angles(bounds) + TINY_ANGLES + [math.pi - t for t in TINY_ANGLES]
    edge = epr2._saturation_edge(max(bounds))
    if edge > 0.0:
        specials += [ulps_from(e, k) for e in (edge, math.pi - edge) for k in (-1, 0, 1)]
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False),
                      st.floats(0.0, 1e-6))
    rows = draw(st.lists(st.lists(angle, min_size=n, max_size=n), max_size=6))
    equal = draw(st.lists(angle, max_size=3))
    return scenarios, ws, np.array([[0.0] * n] + rows + [[theta] * n for theta in equal])


@PROPERTIES
@given(batches())
@example(([GhzScenario(2, 0.0), GhzScenario(2, 0.3)], [0.6, 1.0 - math.sin(0.6)],
          np.array([[TINY_ANGLES[1], 0.3]])))
@example(([GhzScenario(2, 0.3)], [0.75], np.array([[0.6, 0.6]])))
def test_every_skipped_row_is_positive_under_the_dense_oracle(batch):
    # A skipped row never lowers the 0.0 a minimum starts at, and its
    # residual is positive wherever P_L > 0, for every scenario at its weight.
    # In the first example the first party lies in the band of alpha = 0
    # only, where its -1 outcome has a rounded residual of about -1e-17; in
    # the second both parties are saturated, with residual 0.716 - 0.75 at
    # their forced outcomes, and v^2 = 0.713 from cos d >= 1 - d^2/2.
    # Each row is bounded alone, and the block as a whole keeps either
    # every row or exactly those.
    scenarios, ws, thetas = batch
    evaluated = [(sc, w) for sc, w in zip(scenarios, ws) if w != 0.0]
    assume(evaluated)
    parties = np.ascontiguousarray(thetas.T)
    spare = [np.empty(parties.size) for _ in range(2)]
    skipped = [row for row in range(len(thetas))
               if not epr2._surviving_rows(parties[:, row:row + 1].copy(), *zip(*evaluated),
                                           spare).size]
    kept = epr2._surviving_rows(parties, *zip(*evaluated), spare)
    assert parties.tobytes() == np.ascontiguousarray(thetas.T).tobytes()
    every = np.arange(len(thetas))
    assert np.array_equal(kept, every) or np.array_equal(kept, np.setdiff1d(every, skipped))
    assert np.array_equal(kept, every) == (2 * len(skipped) < len(thetas))
    for row in skipped:
        for sc, w in evaluated:
            angles = thetas[row:row + 1]
            assert epr2._residual_extrema(sc, w, angles)[0] >= 0.0
            pq, pl = epr2._certification_factors(sc, angles,
                                                 epr2._certification_buffers(1, sc.n))
            live = pl > 0.0
            assert np.all(pq[live] - w * pl[live] > 0.0)


def test_the_bound_skips_the_all_zero_row_only_past_its_residual():
    # At theta = 0, saturated for every alpha > 0, the bound is exact:
    # v = cos a, and the all-+1 residual is fl(cos a)^2 - w.  So the row is
    # skipped at 2^-29 below that weight, and kept from 2^-31 below it on.
    # At alpha = 0 no party is certain to saturate, and the row is kept.
    for n in (2, 7, 12):
        parties = np.zeros((n, 1))
        spare = [np.empty(n) for _ in range(2)]
        kept = epr2._surviving_rows(parties, [GhzScenario(n, 0.0)], [0.5], spare)
        assert kept.size == 1
        for alpha in (1e-12, 0.3, math.pi / 4):
            sc = GhzScenario(n, alpha)
            cos2 = math.cos(alpha) ** 2
            for offset, skipped in ((-2.0**-29, True), (-2.0**-31, False), (0.0, False),
                                    (2.0**-32, False)):
                kept = epr2._surviving_rows(parties, [sc], [cos2 + offset], spare)
                assert kept.size == (0 if skipped else 1)


def _unpruned(scenarios, ws, samples, seed):
    """The min_residual of each certificate from the pass that skips no row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epr2, "_surviving_rows", lambda parties, *args: np.arange(parties.shape[1]))
        return [c.min_residual for c in certify(scenarios, ws, samples=samples, seed=seed)]


SWEEP_ALPHAS = [0.0, 1e-12, 1e-3, 0.05, 0.3, 0.6, math.pi / 4 - 1e-9, math.pi / 4]


@pytest.mark.parametrize("n", range(2, 13))
def test_certify_is_the_unpruned_pass(n):
    # Two sample blocks, the second partial, behind the grid; batches at
    # every lower bound and at 0.5, and single scenarios at weights where
    # rows are skipped, where residuals are negative and at the all-zero
    # row's own residual, 2^-32 either side.
    samples, seed = epr2._block_rows(n) + 700, n
    scenarios = [GhzScenario(n, alpha) for alpha in SWEEP_ALPHAS]
    bounds = [lower_bound(sc) for sc in scenarios]
    for ws in (bounds, [0.5] * len(scenarios)):
        got = [c.min_residual for c in certify(scenarios, ws, samples=samples, seed=seed)]
        assert list(map(repr, got)) == list(map(repr, _unpruned(scenarios, ws, samples, seed)))
    for sc, w_lower in zip(scenarios[2:], bounds[2:]):
        cos2 = math.cos(sc.alpha) ** 2
        for w in (w_lower, 0.5, cos2 - 2.0**-32, min(cos2 + 2.0**-32, 1.0)):
            got = certify(sc, w, samples=samples, seed=seed).min_residual
            assert repr(got) == repr(_unpruned([sc], [w], samples, seed)[0])


def _kernel_rows(monkeypatch):
    """A list of the row count of every block the kernel reads."""
    rows = []
    original = epr2._block_factors

    def recorded(scenarios, block, *args):
        rows.append(block.cosines.shape[1])
        return original(scenarios, block, *args)

    monkeypatch.setattr(epr2, "_block_factors", recorded)
    return rows


def _bounded_rows(monkeypatch):
    """A list of the row count of every block the bound reads."""
    rows = []
    original = epr2._surviving_rows

    def recorded(parties, *args):
        rows.append(parties.shape[1])
        return original(parties, *args)

    monkeypatch.setattr(epr2, "_surviving_rows", recorded)
    return rows


@pytest.mark.parametrize("alpha, blocks_read", [(0.3, 5), (0.6, 1)])
def test_a_mid_range_point_skips_almost_every_row(alpha, blocks_read, monkeypatch):
    # At 8 parties the lower bound is small (0.0087 at alpha = 0.3), and the
    # bound proves all but a few hundred of the 18385 rows positive before
    # their trigonometry; from alpha = 0.4 on no sample row is left, and a
    # block left empty is not read.  The residual is the pinned one.
    sc = GhzScenario(8, alpha)
    kernel, bounded = _kernel_rows(monkeypatch), _bounded_rows(monkeypatch)
    certificate = certify(sc, lower_bound(sc), samples=16384, seed=3)
    assert repr(certificate.min_residual) == "0.0"
    assert bounded == [epr2.DIAG_GRID_POINTS] + [4096] * 4
    assert len(kernel) == blocks_read and sum(kernel) < 300


def test_a_block_with_most_rows_left_runs_whole_and_ends_the_bounding(monkeypatch):
    # At 3 parties a batch's smallest alpha needs most rows: the grid and
    # the first sample block keep more than half, and run whole, and no
    # later block is bounded.
    scenarios = [GhzScenario(3, alpha) for alpha in (0.05, 0.3, 0.6)]
    kernel, bounded = _kernel_rows(monkeypatch), _bounded_rows(monkeypatch)
    certify(scenarios, [lower_bound(sc) for sc in scenarios], samples=3 * 8192, seed=3)
    assert bounded == [epr2.DIAG_GRID_POINTS, 8192]
    assert kernel == [epr2.DIAG_GRID_POINTS] + [8192] * 3


def test_no_weight_no_bound(monkeypatch):
    # sampled_min_ratio passes no weights, and a certificate whose weights
    # are all 0 evaluates nothing: neither reaches the bound.
    bounded = _bounded_rows(monkeypatch)
    sc = GhzScenario(8, 0.3)
    assert 0.0 < sampled_min_ratio(sc, samples=5000, seed=1) <= 1.0
    assert certify(sc, 0.0, samples=5000, seed=1).min_residual == 0.0
    assert bounded == []
