"""Tests of the two-pattern suffix and the split rule of the certification pass.

At every n, one sort of a block by its rows' second-smallest
|cos theta_j| puts the rows with at most one unsaturated party in a
suffix, read at two patterns from alpha-free products that the batch
shares; the rows with a few more are read at their live patterns, and
the rest run the dense kernel.  These tests hold that pass to the dense reference,
bit for bit, and pin which blocks split.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzlocal import _kernel, epr2
from ghzlocal.epr2 import _party_terms, certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import (certification_rows, copied, k_builds, piece_extrema, rows_read,
                                pass_pieces, ulps_from)

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _weight(scenario, w):
    """``w``, with "lower_bound" standing for the scenario's own lower bound."""
    return lower_bound(scenario) if w == "lower_bound" else w


@st.composite
def magnitude_pairs(draw):
    """(x, y): doubles >= 0, x often y itself or its neighbour either way."""
    y = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, allow_subnormal=False)))
    x = draw(st.one_of(st.just(y), st.just(float(np.nextafter(y, math.inf))),
                       st.just(float(np.nextafter(y, -math.inf))), st.floats(0.0, 1.0)))
    return x, y


@PROPERTIES
@given(magnitude_pairs())
@example((0.5, 0.0))
@example((1.0, 1.0))
@example((float(np.nextafter(0.75, 0.0)), 0.75))
@example((float(np.nextafter(0.75, 1.0)), 0.75))
@example((float(np.nextafter(0.5, 0.0)), 0.5))
def test_a_party_saturates_exactly_when_its_magnitude_reaches_the_bound(pair):
    # fl(x / y) >= 1 exactly when x >= y, so the clipped term is +-1 then
    # and only then.  0 / 0 is left out: no float angle has cos t = 0.
    x, y = pair
    assume(x >= 0.0 and (x > 0.0 or y > 0.0))
    assert (abs(_party_terms(-y, np.float64(x))) == 1.0) == (x >= y)


angles = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                   st.floats(0.0, math.pi, allow_nan=False))
alphas = st.one_of(st.sampled_from([0.0, 1e-12, math.pi / 4 - 1e-12, math.pi / 4]),
                   st.floats(0.0, math.pi / 4, allow_nan=False))
# "lower_bound" stands for the scenario's own lower bound.
weights = st.sampled_from([0.0, "lower_bound", 0.5, 1.0])


@st.composite
def blocks(draw):
    """(n, (rows, n) angles): a theta = 0 row, drawn rows and all-equal rows."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8]))
    rows = draw(st.lists(st.lists(angles, min_size=n, max_size=n), min_size=0, max_size=8))
    equal = draw(st.lists(angles, min_size=0, max_size=3))
    return n, np.array([[0.0] * n] + rows + [[theta] * n for theta in equal])


@PROPERTIES
@given(blocks(), st.lists(st.tuples(alphas, weights), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, None]))
def test_block_factors_are_the_dense_reference(block, pairs, chunk_rows):
    # Every block splits: the theta = 0 row is a two-pattern row.  Short
    # chunks put the dense rows of one block in several.
    n, thetas = block
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    pieces = pass_pieces(scenarios, thetas, chunk_rows)
    assert "two-pattern" in {path for _, path, _, _ in pieces}
    assert piece_extrema(pieces, ws) == [epr2._residual_extrema(sc, w, thetas)
                                         for sc, w in zip(scenarios, ws)]


def _paths(scenarios, samples, seed, ws=None):
    """The paths of the pieces of one pass of the kernel's entry."""
    return {path for _, path, _, _ in _kernel.factor_pieces(scenarios, samples, seed, ws)}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_batch_certificates_are_the_dense_minima(n):
    alphas = (0.0, 1e-12, 0.1, 0.3, math.pi / 4 - 1e-12, math.pi / 4)
    scenarios = [GhzScenario(n, alpha) for alpha in alphas]
    # certify skips a w = 0 scenario, so the near-saturated alphas, whose
    # rows take the two-pattern suffix, carry nonzero weights.
    weights = (0.0, "lower_bound", 0.5, 1.0, "lower_bound", 0.5)
    ws = [_weight(sc, w) for sc, w in zip(scenarios, weights)]
    samples, seed = 5000, 11
    certificates = certify(scenarios, ws, samples=samples, seed=seed)
    # Five scenarios carry a weight: at 3 parties they save too few
    # entries for any block to sort.
    assert ("two-pattern" in _paths(scenarios[1:], samples, seed, ws[1:])) == (n >= 4)
    rows = list(certification_rows(n, samples, seed))
    for sc, w, cert in zip(scenarios, ws, certificates):
        assert cert.min_residual == min(epr2._residual_extrema(sc, w, t)[0] for t in rows)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("cost", [None, 0])
def test_sampled_min_ratio_is_the_dense_minimum(n, cost, monkeypatch):
    # A single scenario splits under the default rule only at 6 parties;
    # a cost of 0 makes it split at 4 and 5 as well.
    if cost is not None:
        monkeypatch.setattr(_kernel, "_SPLIT_ROW_COST", cost)
    sc = GhzScenario(n, 0.3)
    samples, seed = 5000, 13
    got = sampled_min_ratio(sc, samples=samples, seed=seed)
    assert ("two-pattern" in _paths([sc], samples, seed)) == (cost == 0 or n == 6)
    rows = certification_rows(n, samples, seed)
    dense = min(epr2._residual_extrema(sc, 0.0, t)[1] for t in rows)
    assert got == min(max(dense, 0.0), 1.0)


def test_a_key_equal_to_the_bound_is_a_two_pattern_row(monkeypatch):
    # Rows sort by their second-smallest |cos t_j|; the suffix starts at
    # the first key >= |cos t0|, so the first row, whose key is its angle
    # t's cosine, reads two patterns.  The scenario's alpha lies within
    # ulps of 0.3, where |cos t0| is that cosine as the kernel computes it.
    # The second row, with two parties one ulp past t, runs the dense kernel.
    monkeypatch.setattr(_kernel, "_SPLIT_ROW_COST", 0)
    bound = abs(cos_theta0(GhzScenario(4, 0.3)))
    t, flat, steep = math.acos(bound), math.acos(0.9), math.acos(0.1)
    thetas = np.array([[t, t, steep, t], [ulps_from(t, 1)] * 2 + [flat] * 2,
                       [math.acos(0.2)] + [flat] * 3])
    c = _kernel._block_cosines(np.ascontiguousarray(thetas.T), bound, np.empty((4, 3)))[0, 0]
    sc = next(GhzScenario(4, alpha) for alpha in (ulps_from(0.3, k) for k in range(-99, 100))
              if abs(cos_theta0(GhzScenario(4, alpha))) == c)
    assert rows_read(_kernel.block_pieces([sc], thetas)) == {"two-pattern": 2, "dense": 1}


@pytest.mark.parametrize("n", [11, 12])
def test_the_dense_rows_of_a_split_block_are_those_of_the_live_key(n, monkeypatch):
    # Rows with two unsaturated parties (at pi/2, the rest near 0) have the
    # smallest second key, but a row with every party unsaturated has the
    # smallest (live_max + 1)-th key, and it alone runs the dense kernel:
    # its 2^n live patterns would not fit the live path's buffer.  Every
    # minimum is the dense oracle's.
    monkeypatch.setattr(_kernel, "_SPLIT_ROW_COST", 0)
    scenarios = [GhzScenario(n, 0.3), GhzScenario(n, 0.5)]
    ws = [0.5, lower_bound(scenarios[1])]
    two = [math.pi / 2] * 2 + [0.1] * (n - 2)
    thetas = np.array([two] * 5 + [[math.acos(0.01)] * n])
    pieces = copied(_kernel.block_pieces(scenarios, thetas))
    assert {pq.shape[0] for _, path, pq, _ in pieces if path == "live"} == {4}
    assert [rows_read(pieces, i) for i in (0, 1)] == [{"live": 5, "dense": 1}] * 2
    oracle = [epr2._residual_extrema(sc, w, thetas) for sc, w in zip(scenarios, ws)]
    assert repr(piece_extrema(pieces, ws)) == repr([(min(r, 0.0), q) for r, q in oracle])


def test_blocks_are_whole_chunks_that_fit_the_two_pattern_factors():
    # A block's (2, n, rows) K factors fill at most one kernel buffer, of
    # 2^n entries a chunk row, and a block holds whole chunks.
    for n in range(2, 13):
        chunk, rows = _kernel._chunk_rows(n), _kernel._block_rows(n)
        assert rows % chunk == 0
        assert 2 * n * rows <= chunk << n
        assert rows == chunk or 2 * n * (rows + chunk) > chunk << n
    assert [_kernel._block_rows(n) for n in (3, 5, 8, 12)] == [8192, 6144, 4096, 2720]


def _count_sorts(monkeypatch):
    sorts = []
    original = np.argsort

    def counted(a, *args, **kwargs):
        sorts.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return sorts


@pytest.mark.parametrize("n", [4, 5])
def test_a_single_scenario_below_six_parties_never_sorts(n, monkeypatch):
    # One scenario saves at most 2^n - 2 <= 30 entries a row, no more than
    # a sort costs, so no block is sorted.
    sorts = _count_sorts(monkeypatch)
    certify(GhzScenario(n, 0.3), 0.2, samples=5000, seed=3)
    assert sorts == []


def test_an_eleven_alpha_batch_at_three_parties_sorts(monkeypatch):
    # Eleven scenarios save up to 66 entries a row.
    sorts = _count_sorts(monkeypatch)
    scenarios = [GhzScenario(3, alpha) for alpha in np.linspace(0.0, math.pi / 4, 11)]
    assert "two-pattern" in _paths(scenarios, 5000, 3, [0.5] * 11)
    assert sorts


def test_a_block_near_alpha_zero_stays_dense():
    # At alpha = 1e-6 and 8 parties, |cos t0| = 0.94: almost every sample
    # row has more unsaturated parties than the live path takes, so each
    # sample block runs the dense kernel on all of its rows.  A fifth of
    # the grid rows are saturated, and the grid block, the first, splits.
    # At w = 1 no row can be skipped before its trigonometry
    # (v^2 <= cos^2 a < 1), so every row reaches the kernel.
    pieces = copied(_kernel.factor_pieces([GhzScenario(8, 1e-6)], 6000, 3, [1.0]))
    assert [path for _, path, _, _ in pieces].count("two-pattern") == 1
    assert pieces[0][1] == "two-pattern" and "live" not in rows_read(pieces)
    assert sum(rows_read(pieces).values()) == _kernel.DIAG_GRID_POINTS + 6000


def test_alpha_free_half_runs_once_per_chunk_of_a_sorted_block(monkeypatch):
    # K is built once per chunk of each sorted block's dense prefix,
    # however many scenarios share it.  A chunk yields its scenarios'
    # dense pieces in rising index, and a sorted block's dense chunks
    # follow its other pieces.  With the row bound off, every block of the
    # batch runs whole, and sorts.
    monkeypatch.setattr(_kernel, "_surviving_rows", lambda *args: None)
    scenarios = [GhzScenario(6, alpha) for alpha in (0.0, 0.2, math.pi / 4)]
    builds, pieces = k_builds(scenarios, 10_000, 7, [1.0, 0.3, 0.05])
    chunks = sum(path == "dense" and (k == 0 or pieces[k - 1][1] != "dense"
                                      or pieces[k - 1][0] >= i)
                 for k, (i, path, _) in enumerate(pieces))
    assert "two-pattern" in {path for _, path, _ in pieces}
    assert builds == chunks
    assert builds > _kernel.DIAG_GRID_POINTS // _kernel._chunk_rows(6)
