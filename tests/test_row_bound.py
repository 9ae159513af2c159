"""Tests of the ratio bound that lets certify skip rows before their trigonometry.

A row is left out for a scenario when a lower bound on P_Q / P_L at each of
its patterns, taken from its raw angles alone, clears the scenario's weight
(``epr2._surviving_rows``); the rows that are left are ordered so that each
scenario reads a prefix of them.  These tests hold every row that the bound
leaves out to the dense oracle ``epr2._residual_extrema``, hold ``certify``
to the pass that bounds no row, repr for repr, batched and single, and pin
which blocks of a pass are bounded.
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

# Both ends of the domain, 1e-12 and 1e-9 off them, and interior alphas.
ALPHAS = [0.0, 1e-12, 1e-6, 1e-3, 0.05, 0.3, math.pi / 4 - 1e-9, math.pi / 4]
alphas = st.one_of(st.sampled_from(ALPHAS), st.floats(0.0, math.pi / 4, allow_nan=False))
# "lower_bound" stands for the scenario's own lower bound, "above" for
# (1 + 1e-3) times it, "cos2" for fl(cos a)^2, the ratio of the all-zero
# row at its all-+1 pattern, and "cos2-" / "cos2+" for 2^-32 either side.
weights = st.one_of(st.sampled_from(["lower_bound", "above", 0.5, 1.0, "cos2", "cos2-",
                                     "cos2+"]),
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
    if w in ("lower_bound", "above"):
        return min(lower_bound(scenario) * (1.0 if w == "lower_bound" else 1.001), 1.0)
    cos2 = math.cos(scenario.alpha) ** 2
    return min(max(cos2 + {"cos2": 0.0, "cos2-": -2.0**-32, "cos2+": 2.0**-32}[w], 0.0), 1.0)


@st.composite
def batches(draw):
    """(scenarios, weights, (rows, n) angles, diagonal): drawn rows, or rows
    whose parties share one angle (the diagonal grid's), with angles at 0,
    pi/2 and pi, near 0 and pi, and at the band edges of every scenario,
    exact and as the bound takes them, a few ulps either way."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(alphas, weights), min_size=1, max_size=3))
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    bounds = [abs(cos_theta0(sc)) for sc in scenarios]
    specials = special_angles(bounds) + TINY_ANGLES + [math.pi - t for t in TINY_ANGLES]
    for c in bounds:
        edge = epr2._saturation_edge(c)
        if edge > 0.0:
            specials += [ulps_from(e, k) for e in (edge, math.pi - edge, epr2._band_edge(c))
                         for k in (-2, -1, 0, 1, 2)]
    # The widest band, where a party may be unsaturated for some scenario.
    edge = max(0.0, min(epr2._saturation_edge(c) for c in bounds))
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False),
                      st.floats(0.0, 1e-6), st.floats(edge, math.pi - edge))
    if draw(st.booleans()):
        thetas = [[theta] * n for theta in draw(st.lists(angle, min_size=1, max_size=8))]
        return scenarios, ws, np.array(thetas), True
    rows = draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=1, max_size=8))
    return scenarios, ws, np.array([[0.0] * n] + rows), False


def _reads(scenarios, ws, thetas, diagonal):
    """The rows each scenario reads under the bound, with every block bounded."""
    parties = np.ascontiguousarray(thetas.T)
    spare = [np.empty(parties.size) for _ in range(3)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epr2, "_BOUND_ROW_COST", 0)
        reach = epr2._surviving_rows(parties, scenarios, ws, spare, diagonal)
    assert parties.tobytes() == np.ascontiguousarray(thetas.T).tobytes()
    if reach is None:
        return [np.arange(len(thetas))] * len(scenarios)
    kept, ends = reach
    assert len(set(kept.tolist())) == kept.size and len(ends) == len(scenarios)
    # A scenario of larger weight reads at least the rows of one of smaller weight.
    for i, j in zip(*np.nonzero(np.greater.outer(ws, ws))):
        assert ends[i] >= ends[j]
    return [kept[:end] for end in ends]


@PROPERTIES
@given(batches())
@example(([GhzScenario(2, 0.0), GhzScenario(2, 0.3)], [0.6, 1.0 - math.sin(0.6)],
          np.array([[TINY_ANGLES[1], 0.3]]), False))
@example(([GhzScenario(2, 0.3)], [0.75], np.array([[0.6, 0.6]]), False))
@example(([GhzScenario(12, 1e-12)], [1.0], np.array([[TINY_ANGLES[1]] * 12]), True))
@example(([GhzScenario(3, math.pi / 4 - 1e-9), GhzScenario(3, 1e-12)],
          [2.0**-32, "lower_bound"], np.array([[math.pi / 2] * 3]), True))
def test_every_skipped_row_is_positive_under_the_dense_oracle(batch):
    # A row that a scenario does not read never lowers the 0.0 its minimum
    # starts at: the dense oracle's least residual there is not negative.
    # In the first example the first party lies in the band of alpha = 0
    # only, where its -1 outcome has a rounded residual of about -1e-17,
    # and alpha = 0 is not bounded; in the second both parties are
    # saturated, with residual 0.716 - 0.75 at their forced outcomes.
    scenarios, ws, thetas, diagonal = batch
    ws = [_weight(sc, w) for sc, w in zip(scenarios, ws)]
    assume(any(w != 0.0 for w in ws))
    reads = _reads(scenarios, ws, thetas, diagonal)
    for sc, w, read in zip(scenarios, ws, reads):
        skipped = np.setdiff1d(np.arange(len(thetas)), read)
        if skipped.size:
            assert epr2._residual_extrema(sc, w, thetas[skipped])[0] >= 0.0


def test_the_bound_skips_the_all_zero_row_only_past_its_residual():
    # At theta = 0, saturated for every alpha > 0, the bound is exact up to
    # its margin E = 2^-14: the ratio at the all-+1 pattern is
    # fl(cos a)^2, and the row is left out when (cos a - E)^2 > w (1 + E).
    # So it is skipped 2^-12 below that weight, and read from 2^-15 below
    # it on.  At alpha = 0 no party is certain to saturate, and at 2
    # parties no row is bounded.
    for n, diagonal in ((2, False), (3, True), (7, False), (12, True)):
        parties = np.zeros((n, 1))
        spare = [np.empty(n) for _ in range(3)]
        reach = epr2._surviving_rows(parties, [GhzScenario(n, 0.0)], [0.5], spare, diagonal)
        assert reach is None
        for alpha in (1e-12, 0.3, math.pi / 4):
            sc = GhzScenario(n, alpha)
            cos2 = math.cos(alpha) ** 2
            for offset, skipped in ((-2.0**-12, n > 2), (-2.0**-15, False), (0.0, False),
                                    (2.0**-32, False)):
                reach = epr2._surviving_rows(parties, [sc], [cos2 + offset], spare, diagonal)
                assert (reach is not None and reach[1] == [0]) == skipped


@pytest.mark.parametrize("alphas, ws", [([0.3], [0.1]), ([0.3, 0.6], [0.1, 0.001])])
def test_a_band_party_takes_cot_d_though_the_least_ratio_is_forced(alphas, ws, monkeypatch):
    # Three parties just inside the band of alpha = 0.3 (and outside that
    # of 0.6).  The least ratio of the row, 0.29, sits at the forced
    # pattern, as on every row sampled so far, so skipping the row at
    # w = 0.1 would be right; but that is not proven, and the bound takes
    # cot d for a party that may be unsaturated: with it the row's bound
    # is 0.05, and the scenario of alpha = 0.3 reads the row.
    monkeypatch.setattr(epr2, "_BOUND_ROW_COST", 0)
    scenarios = [GhzScenario(3, alpha) for alpha in alphas]
    thetas = np.array([[1.34, 1.35, 1.36]])
    assert epr2._residual_extrema(scenarios[0], ws[0], thetas)[1] > 0.29
    assert _reads(scenarios, ws, thetas, False)[0].tolist() == [0]


def _unpruned(scenarios, ws, samples, seed):
    """The min_residual of each certificate from the pass that bounds no row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epr2, "_surviving_rows", lambda *args: None)
        return [c.min_residual for c in certify(scenarios, ws, samples=samples, seed=seed)]


SWEEP_ALPHAS = [0.0, 1e-12, 1e-3, 0.05, 0.3, 0.6, math.pi / 4 - 1e-9, math.pi / 4]


@pytest.mark.parametrize("n", range(2, 13))
def test_certify_is_the_unpruned_pass(n):
    # Two sample blocks, the second partial, behind the grid; batches at
    # every lower bound, 1e-3 above them and at 0.5, and single scenarios
    # at weights where rows are skipped, where residuals are negative and
    # at the all-zero row's own ratio, 2^-32 either side.
    samples, seed = epr2._block_rows(n) + 700, n
    scenarios = [GhzScenario(n, alpha) for alpha in SWEEP_ALPHAS]
    bounds = [lower_bound(sc) for sc in scenarios]
    for ws in (bounds, [min(1.001 * w, 1.0) for w in bounds], [0.5] * len(scenarios)):
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


@pytest.mark.parametrize("alpha, rows_read", [(0.3, 2), (0.6, 0)])
def test_a_mid_range_point_skips_almost_every_row(alpha, rows_read, monkeypatch):
    # At 8 parties the lower bound is small (0.0087 at alpha = 0.3), and the
    # bound proves every sample row positive before its trigonometry, and
    # all but the grid rows next to the kink; a block left empty is not
    # read.  The residual is the pinned one.
    sc = GhzScenario(8, alpha)
    kernel, bounded = _kernel_rows(monkeypatch), _bounded_rows(monkeypatch)
    certificate = certify(sc, lower_bound(sc), samples=16384, seed=3)
    assert repr(certificate.min_residual) == "0.0"
    assert bounded == [epr2.DIAG_GRID_POINTS] + [4096] * 4
    assert sum(kernel) == rows_read


def test_a_block_with_most_rows_left_runs_whole_and_ends_the_bounding(monkeypatch):
    # At 3 parties and alpha = 1e-3 the lower bound is 0.97, and the bound
    # leaves half of a sample block: too few proven entries to pay, so the
    # block runs whole and no later block is bounded.  The grid pays.
    sc = GhzScenario(3, 1e-3)
    kernel, bounded = _kernel_rows(monkeypatch), _bounded_rows(monkeypatch)
    certify(sc, lower_bound(sc), samples=3 * 8192, seed=3)
    assert bounded == [epr2.DIAG_GRID_POINTS, 8192]
    assert kernel[0] < epr2.DIAG_GRID_POINTS and kernel[1:] == [8192] * 3


def test_two_parties_are_never_bounded(monkeypatch):
    # A row of 2 parties holds 4 entries, no more than bounding it costs.
    kernel = _kernel_rows(monkeypatch)
    scenarios = [GhzScenario(2, alpha) for alpha in (0.1, 0.3, 0.6)]
    certify(scenarios, [lower_bound(sc) for sc in scenarios], samples=9000, seed=3)
    assert kernel == [epr2.DIAG_GRID_POINTS, 8192, 808]


def test_each_scenario_reads_a_prefix_by_weight(monkeypatch):
    # In a batch, the rows that the bound leaves come ordered by the last
    # scenario, in falling weight, that needs them: the dense prefixes of
    # a block shrink with the weight, and the scenario of largest weight
    # reads every row, through the block's own kernel.
    prefixes = []
    original = epr2._dense_factors

    def recorded(scenarios, block, ends, buffers):
        prefixes.append(([sc.alpha for sc in scenarios], list(ends)))
        return original(scenarios, block, ends, buffers)

    monkeypatch.setattr(epr2, "_dense_factors", recorded)
    kernel = _kernel_rows(monkeypatch)
    alphas = [0.3, 0.05, 0.6, 0.15]
    scenarios = [GhzScenario(4, alpha) for alpha in alphas]
    certify(scenarios, [lower_bound(sc) for sc in scenarios], samples=3 * 8192, seed=3)
    shares = [(a, e) for a, e in prefixes if len(a) > 1]
    assert any(len(set(ends)) > 1 for _, ends in shares)
    for scenario_alphas, ends in shares:
        by_weight = [e for _, e in sorted(zip(scenario_alphas, ends))]
        assert by_weight == sorted(by_weight, reverse=True)
    assert len(kernel) >= 4 and max(kernel) < 8192


def test_no_weight_no_bound(monkeypatch):
    # sampled_min_ratio passes no weights, and a certificate whose weights
    # are all 0 evaluates nothing: neither reaches the bound.
    bounded = _bounded_rows(monkeypatch)
    sc = GhzScenario(8, 0.3)
    assert 0.0 < sampled_min_ratio(sc, samples=5000, seed=1) <= 1.0
    assert certify(sc, 0.0, samples=5000, seed=1).min_residual == 0.0
    assert bounded == []
