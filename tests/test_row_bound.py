"""Tests of the ratio bound that lets certify skip rows before their trigonometry.

A row is left out for a scenario when a lower bound on its forced ratio
P_Q / P_L, the least over its patterns, taken from its raw angles alone,
clears the scenario's weight (``_kernel._surviving_rows``); the rows that are
left are ordered so that each scenario reads a prefix of them.  These tests
hold every row that the bound leaves out to the dense oracle
``epr2._residual_extrema``, hold ``certify`` to the pass that bounds no row,
repr for repr, batched and single, and pin which blocks of a pass are
bounded.  ``test_forced_pattern.py`` tests the lemma the bound rests on.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzlocal import _kernel, epr2
from ghzlocal.epr2 import certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import special_angles, ulps_from
from test_forced_pattern import _forced_ratio

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


def _kink_angle(n, alpha):
    """The saturation edge of a scenario, where its kink row puts every party."""
    return math.acos(abs(cos_theta0(GhzScenario(n, alpha))))


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
    """(scenarios, weights, (rows, n) angles): drawn rows, or rows whose
    parties share one angle (the diagonal grid's, and the kink's), with
    angles at 0, pi/2 and pi, near 0 and pi, and at the band edges of every
    scenario, a few ulps either way."""
    n = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(alphas, weights), min_size=1, max_size=3))
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    bounds = [abs(cos_theta0(sc)) for sc in scenarios]
    specials = special_angles(bounds) + TINY_ANGLES + [math.pi - t for t in TINY_ANGLES]
    for c in bounds:
        edge = _kernel._saturation_edge(c)
        if edge > 0.0:
            specials += [ulps_from(e, k) for e in (edge, math.pi - edge)
                         for k in (-2, -1, 0, 1, 2)]
    # The widest band, where a party may be unsaturated for some scenario.
    edge = max(0.0, min(_kernel._saturation_edge(c) for c in bounds))
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False),
                      st.floats(0.0, 1e-6), st.floats(edge, math.pi - edge))
    if draw(st.booleans()):
        thetas = [[theta] * n for theta in draw(st.lists(angle, min_size=1, max_size=8))]
        return scenarios, ws, np.array(thetas)
    rows = draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=1, max_size=8))
    return scenarios, ws, np.array([[0.0] * n] + rows)


def _surviving_rows(parties, scenarios, ws):
    """``_kernel._surviving_rows`` of (n, rows) angles, with buffers of its own:
    three float64 ones and a float32 one for two (scenarios, rows) arrays."""
    spare = [np.empty(parties.size) for _ in range(3)]
    return _kernel._surviving_rows(parties, scenarios, ws,
                                   spare + [np.empty(2 * len(ws) * parties.shape[1], np.float32)])


def _reads(scenarios, ws, thetas):
    """The rows each scenario reads under the bound, with every block bounded."""
    parties = np.ascontiguousarray(thetas.T)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_BOUND_ROW_COST", 0)
        reach = _surviving_rows(parties, scenarios, ws)
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
          np.array([[TINY_ANGLES[1], 0.3]])))
@example(([GhzScenario(2, 0.3)], [0.75], np.array([[0.6, 0.6]])))
@example(([GhzScenario(12, 1e-12)], [1.0], np.array([[TINY_ANGLES[1]] * 12])))
@example(([GhzScenario(3, math.pi / 4 - 1e-9), GhzScenario(3, 1e-12)],
          [2.0**-32, "lower_bound"], np.array([[math.pi / 2] * 3])))
@example(([GhzScenario(2, 0.001)], [0.9976497480636932], np.array([[3.078368159067011] * 2])))
@example(([GhzScenario(3, 0.5196107352227697)], [0.06368671705562519],
          np.array([[1.7559091425573092] * 3])))
@example(([GhzScenario(8, 0.5)], [0.0013245931512726457], np.array([[1.64629729922693] * 8])))
@example(([GhzScenario(2, 6.431098710768743e-13)], [0.9998162841784012],
          np.array([[1.6078210187128018e-06] * 2])))
def test_every_skipped_row_is_positive_under_the_dense_oracle(batch):
    # A row that a scenario does not read never lowers the 0.0 its minimum
    # starts at: the dense oracle's least residual there is not negative.
    # In the first example the first party lies in the band of alpha = 0
    # only, where its -1 outcome has a rounded residual of about -1e-17,
    # and alpha = 0 is not bounded; in the second both parties are
    # saturated, with residual 0.716 - 0.75 at their forced outcomes.  The
    # next three put every party at a scenario's kink, where the pattern
    # that flips them all has a rounded residual of -1e-33 to -1e-124
    # although the forced ratio clears the weight; in the third of them
    # the float32 R of the kink row lies 0.5 % above tan a.  In the last
    # a scenario with |cos t0| = 1 - 2^-40 has rounded residuals of -1e-32
    # at a diagonal row 1.4 times its band edge.
    scenarios, ws, thetas = batch
    ws = [_weight(sc, w) for sc, w in zip(scenarios, ws)]
    assume(any(w != 0.0 for w in ws))
    reads = _reads(scenarios, ws, thetas)
    for sc, w, read in zip(scenarios, ws, reads):
        skipped = np.setdiff1d(np.arange(len(thetas)), read)
        if skipped.size:
            assert epr2._residual_extrema(sc, w, thetas[skipped])[0] >= 0.0


@PROPERTIES
@given(batches())
@example(([GhzScenario(12, 0.7)], [0.0], np.array([[1.4] * 6 + [1.7] * 6])))
def test_no_row_is_skipped_above_its_forced_ratio(batch):
    # The bound never claims more than the least ratio of a row, F, the
    # forced one: each row is read at a weight 2^-20 above its F, where its
    # forced pattern's residual is negative.
    scenarios, _, thetas = batch
    sc = scenarios[0]
    for row in thetas:
        forced = float(_forced_ratio(sc, row))
        if 0.0 < forced < 1.0:
            read = _reads([sc], [min(forced * (1.0 + 2.0**-20), 1.0)], row[None, :])[0]
            assert read.tolist() == [0]


def test_the_bound_skips_the_all_zero_row_only_past_its_residual():
    # At theta = 0, saturated for every alpha > 0, the bound is exact up to
    # its margin E = 2^-14: the ratio at the all-+1 pattern is
    # fl(cos a)^2, and the row is left out when (cos a - E)^2 > w (1 + E).
    # So it is skipped 2^-12 below that weight, at 2 parties too, and read
    # from 2^-15 below it on.  At alpha = 0 no party is certain to saturate.
    for n in (2, 3, 7, 12):
        parties = np.zeros((n, 1))
        assert _surviving_rows(parties, [GhzScenario(n, 0.0)], [0.5]) is None
        for alpha in (1e-3, 0.3, math.pi / 4):
            sc = GhzScenario(n, alpha)
            cos2 = math.cos(alpha) ** 2
            for offset, skipped in ((-2.0**-12, True), (-2.0**-15, False), (0.0, False),
                                    (2.0**-32, False)):
                reach = _surviving_rows(parties, [sc], [cos2 + offset])
                assert (reach is not None and reach[1] == [0]) == skipped


@pytest.mark.parametrize("alphas, ws", [([0.3], [0.1]), ([0.3, 0.6], [0.1, 0.001])])
def test_a_band_row_is_skipped_at_its_forced_ratio(alphas, ws, monkeypatch):
    # Three parties just inside the band of alpha = 0.3 (and outside that
    # of 0.6).  The least ratio of the row, 0.29, sits at the forced
    # pattern, as the lemma proves, and the bound takes it there: the row
    # is skipped at w = 0.1, where a bound that took cot d for each band
    # party, as one that does not know the least ratio's pattern must,
    # gets 0.05 and reads the row.
    monkeypatch.setattr(_kernel, "_BOUND_ROW_COST", 0)
    scenarios = [GhzScenario(3, alpha) for alpha in alphas]
    thetas = np.array([[1.34, 1.35, 1.36]])
    assert epr2._residual_extrema(scenarios[0], ws[0], thetas)[1] > 0.29
    assert [read.tolist() for read in _reads(scenarios, ws, thetas)] == [[]] * len(alphas)


@pytest.mark.parametrize("n, alpha", [(3, math.pi / 40), (4, math.pi / 40), (5, math.pi / 40),
                                      (3, 0.3), (5, 0.3), (2, 0.3)])
def test_the_bound_leaves_few_rows_at_the_lower_bound(n, alpha):
    # Of the first sample block of a single scenario at its lower bound,
    # the bound leaves no row from 3 parties on; at 2 parties the rows
    # near the band diagonal stay, where every pattern's ratio is w_L.
    sc = GhzScenario(n, alpha)
    parties = _kernel._certification_parties(0, 0, _kernel._block_rows(n), n)
    kept, ends = _surviving_rows(parties, [sc], [lower_bound(sc)])
    assert ends[0] == kept.size <= (0.03 * parties.shape[1] if n == 2 else 0)


def _unpruned(scenarios, ws, samples, seed):
    """The min_residual of each certificate from the pass that bounds no row."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_surviving_rows", lambda *args: None)
        return [c.min_residual for c in certify(scenarios, ws, samples=samples, seed=seed)]


SWEEP_ALPHAS = [0.0, 1e-12, 1e-3, 0.05, 0.3, 0.6, math.pi / 4 - 1e-9, math.pi / 4]


@pytest.mark.parametrize("n", range(2, 13))
def test_certify_is_the_unpruned_pass(n):
    # Two sample blocks, the second partial, behind the grid; batches at
    # every lower bound, 1e-3 above them and at 0.5, and single scenarios
    # at weights where rows are skipped, where residuals are negative and
    # at the all-zero row's own ratio, 2^-32 either side.
    samples, seed = _kernel._block_rows(n) + 700, n
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


def _bounded_rows(monkeypatch):
    """Lists of the row count of every block the bound reads, and of the rows
    it keeps there (None when it stops bounding)."""
    rows, kept, original = [], [], _kernel._surviving_rows

    def recorded(parties, *args):
        reach = original(parties, *args)
        rows.append(parties.shape[1])
        kept.append(None if reach is None else reach[0].size)
        return reach

    monkeypatch.setattr(_kernel, "_surviving_rows", recorded)
    return rows, kept


def _rows_per_block(monkeypatch, scenarios, ws, samples, seed):
    """(rows of each block the bound reads, rows of each piece of the scenario
    of largest weight) in the pass of the kernel's entry that certify runs.

    That scenario reads every row a block keeps, at 2 and 3 parties in one
    dense piece, so its pieces' rows are the kept rows of each block that
    keeps any.
    """
    (bounded, _), top = _bounded_rows(monkeypatch), ws.index(max(ws))
    pieces = _kernel.factor_pieces(scenarios, samples, seed, ws)
    return bounded, [pq.shape[1] for i, _, pq, _ in pieces if i == top]


@pytest.mark.parametrize("alpha", [0.3, 0.6])
def test_a_mid_range_point_skips_almost_every_row(alpha, monkeypatch):
    # At 8 parties the lower bound is small (0.0087 at alpha = 0.3), and the
    # bound proves every sample row positive before its trigonometry, and
    # all but the two grid rows next to the kink; a block left empty is not
    # read.  The residual is the pinned one.
    sc = GhzScenario(8, alpha)
    certificate = certify(sc, lower_bound(sc), samples=16384, seed=3)
    assert repr(certificate.min_residual) == "0.0"
    bounded, kernel = _rows_per_block(monkeypatch, [sc], [lower_bound(sc)], 16384, 3)
    assert bounded == [_kernel.DIAG_GRID_POINTS] + [4096] * 4
    assert sum(kernel) == 2


def test_a_block_with_most_rows_left_runs_whole_and_ends_the_bounding(monkeypatch):
    # At 3 parties and alpha = 0.3 the weight 0.7 lies far above the lower
    # bound, 0.24, and the bound leaves most of a sample block: too few
    # proven entries to pay, so the block runs whole and no later block is
    # bounded.  The grid pays.
    sc = GhzScenario(3, 0.3)
    bounded, kernel = _rows_per_block(monkeypatch, [sc], [0.7], 3 * 8192, 3)
    assert bounded == [_kernel.DIAG_GRID_POINTS, 8192]
    assert kernel[0] < _kernel.DIAG_GRID_POINTS and kernel[1:] == [8192] * 3


def test_a_first_sample_block_at_the_lower_bound_pays(monkeypatch):
    # At 3 parties and alpha = 1e-3, where a bound that took cot d for each
    # band party left half of the first sample block and stopped there,
    # every block is bounded, and the kernel reads the grid rows next to
    # the kink, whose forced ratio lies within the margin of the bound, and
    # a few sample rows.
    sc = GhzScenario(3, 1e-3)
    bounded, kernel = _rows_per_block(monkeypatch, [sc], [lower_bound(sc)], 3 * 8192, 3)
    assert bounded == [_kernel.DIAG_GRID_POINTS] + [8192] * 3
    assert kernel[0] < 0.05 * _kernel.DIAG_GRID_POINTS and sum(kernel[1:]) < 10


def test_two_parties_are_bounded(monkeypatch):
    # A row of 2 parties holds 4 entries, more than bounding it costs; at
    # the lower bound the grid keeps the rows of the band, where the
    # forced ratio is the lower bound, and a sample block the rows near
    # the band diagonal, where it is close to it.
    scenarios = [GhzScenario(2, alpha) for alpha in (0.1, 0.3, 0.6)]
    ws = [lower_bound(sc) for sc in scenarios]
    bounded, kernel = _rows_per_block(monkeypatch, scenarios, ws, 9000, 3)
    assert bounded == [_kernel.DIAG_GRID_POINTS, 8192, 808]
    assert kernel[0] < 0.7 * _kernel.DIAG_GRID_POINTS and sum(kernel[1:]) < 0.1 * 9000


def test_each_scenario_reads_a_prefix_by_weight(monkeypatch):
    # In a batch, the rows that the bound leaves come ordered by the last
    # scenario, in falling weight, that needs them, so in each block each
    # scenario reads a prefix of them, the shorter the smaller its weight,
    # and the scenario of largest weight reads every row the block keeps.
    # The pass draws a block's pieces before it bounds the next block.
    # The weights lie above the lower bounds, so that every block keeps rows.
    alphas, ws = [0.3, 0.05, 0.6, 0.15], [0.3, 0.5, 0.2, 0.4]
    scenarios = [GhzScenario(4, alpha) for alpha in alphas]
    (bounded, kept), reads = _bounded_rows(monkeypatch), {}
    for i, _, pq, _ in _kernel.factor_pieces(scenarios, 3 * 8192, 3, ws):
        reads.setdefault(len(bounded) - 1, [0] * len(ws))[i] += pq.shape[1]
    assert bounded == [_kernel.DIAG_GRID_POINTS] + [8192] * 3
    order = sorted(range(len(ws)), key=lambda i: -ws[i])
    for k, rows in enumerate(bounded):
        by_weight = [reads[k][i] for i in order]
        assert by_weight == sorted(by_weight, reverse=True)
        assert 0 < by_weight[0] == kept[k] < rows
    assert any(len(set(read)) > 1 for read in reads.values())


def test_no_weight_no_bound(monkeypatch):
    # sampled_min_ratio passes no weights, and a certificate whose weights
    # are all 0 evaluates nothing: neither reaches the bound.
    bounded, _ = _bounded_rows(monkeypatch)
    sc = GhzScenario(8, 0.3)
    assert 0.0 < sampled_min_ratio(sc, samples=5000, seed=1) <= 1.0
    assert certify(sc, 0.0, samples=5000, seed=1).min_residual == 0.0
    assert bounded == []
