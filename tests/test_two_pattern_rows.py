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

from ghzlocal import epr2
from ghzlocal.epr2 import _party_terms, certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import block_extrema, certification_rows, count_k_builds

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Exact 0, pi/2 and pi exercise the saturated ends and the sign of the
# smallest cosine; the alphas reach both ends of the domain and 1e-12 off them.
angles = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                   st.floats(0.0, math.pi, allow_nan=False))
alphas = st.one_of(st.sampled_from([0.0, 1e-12, math.pi / 4 - 1e-12, math.pi / 4]),
                   st.floats(0.0, math.pi / 4, allow_nan=False))
# "lower_bound" stands for the scenario's own lower bound.
weights = st.sampled_from([0.0, "lower_bound", 0.5, 1.0])


def _weight(scenario, w):
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


@st.composite
def blocks(draw):
    """(n, (rows, n) angles): a theta = 0 row, drawn rows and all-equal rows."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 7, 8]))
    rows = draw(st.lists(st.lists(angles, min_size=n, max_size=n), min_size=0, max_size=8))
    equal = draw(st.lists(angles, min_size=0, max_size=3))
    thetas = np.array([[0.0] * n] + rows + [[theta] * n for theta in equal])
    return n, thetas


@PROPERTIES
@given(blocks(), st.lists(st.tuples(alphas, weights), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, 8192]), st.sampled_from([None, 1, 2, 3]))
def test_block_factors_are_the_dense_reference(block, pairs, chunk_rows, live_max):
    n, thetas = block
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    with pytest.MonkeyPatch.context() as patch:
        # Every block splits: the theta = 0 row is a two-pattern row.
        # Short chunks put the dense rows of one block in several.
        patch.setattr(epr2, "_SPLIT_ROW_COST", 0)
        patch.setattr(epr2, "_CERT_MAX_ROWS", chunk_rows)
        pieces = _count_two_pattern_pieces(patch)
        got = block_extrema(scenarios, ws, thetas, live_max=live_max)
    assert pieces
    assert got == [epr2._residual_extrema(sc, w, thetas) for sc, w in zip(scenarios, ws)]


def _count_two_pattern_pieces(monkeypatch):
    pieces = []
    original = epr2._two_pattern_factors

    def counted(*args):
        pieces.append(args[2].copy())
        return original(*args)

    monkeypatch.setattr(epr2, "_two_pattern_factors", counted)
    return pieces


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_batch_certificates_are_the_dense_minima(n, monkeypatch):
    alphas = (0.0, 1e-12, 0.1, 0.3, math.pi / 4 - 1e-12, math.pi / 4)
    scenarios = [GhzScenario(n, alpha) for alpha in alphas]
    # certify skips a w = 0 scenario, so the near-saturated alphas, whose
    # rows take the two-pattern suffix, carry nonzero weights.
    weights = (0.0, "lower_bound", 0.5, 1.0, "lower_bound", 0.5)
    ws = [_weight(sc, w) for sc, w in zip(scenarios, weights)]
    samples, seed = 5000, 11
    pieces = _count_two_pattern_pieces(monkeypatch)
    certificates = certify(scenarios, ws, samples=samples, seed=seed)
    # Five scenarios carry a weight: at 3 parties they save too few
    # entries for any block to sort.
    assert bool(pieces) == (n >= 4)
    rows = list(certification_rows(n, samples, seed))
    for sc, w, cert in zip(scenarios, ws, certificates):
        assert cert.min_residual == min(epr2._residual_extrema(sc, w, t)[0] for t in rows)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("cost", [None, 0])
def test_sampled_min_ratio_is_the_dense_minimum(n, cost, monkeypatch):
    # A single scenario splits under the default rule only at 6 parties;
    # a cost of 0 makes it split at 4 and 5 as well.
    if cost is not None:
        monkeypatch.setattr(epr2, "_SPLIT_ROW_COST", cost)
    sc = GhzScenario(n, 0.3)
    samples, seed = 5000, 13
    pieces = _count_two_pattern_pieces(monkeypatch)
    got = sampled_min_ratio(sc, samples=samples, seed=seed)
    assert bool(pieces) == (cost == 0 or n == 6)
    rows = certification_rows(n, samples, seed)
    dense = min(epr2._residual_extrema(sc, 0.0, t)[1] for t in rows)
    assert got == min(max(dense, 0.0), 1.0)


def test_a_key_equal_to_the_bound_is_a_two_pattern_row(monkeypatch):
    # Rows sort by their second-smallest |cos t_j|; the suffix starts at
    # the first key >= |cos t0|, so a key equal to it reads two patterns.
    monkeypatch.setattr(epr2, "_SPLIT_ROW_COST", 0)
    pieces = _count_two_pattern_pieces(monkeypatch)
    sc = GhzScenario(4, 0.3)
    c0 = abs(cos_theta0(sc))
    below = float(np.nextafter(c0, 0.0))
    cos_rows = np.array([[c0, -c0, 0.1, c0],
                         [below, -below, 0.9, 0.9],
                         [0.2, 0.9, -0.9, 0.9]])
    parties = np.arccos(cos_rows).T.copy()
    block = epr2._block(parties)._replace(cosines=cos_rows.T.copy())
    buffers = epr2._certification_buffers(epr2._chunk_rows(4), 4)
    dense_rows = []
    for _, pq_worst, _ in epr2._block_factors([sc], block, 1, buffers):
        dense_rows += [pq_worst.shape[1]] if pq_worst.shape[0] == 16 else []
    # The rows' smallest |cos t_j|, in the order of their keys.
    assert [least.tolist() for least in pieces] == [[0.1, 0.2]]
    assert dense_rows == [1]


def test_blocks_are_whole_chunks_that_fit_the_two_pattern_factors():
    # A block's (2, n, rows) K factors fill at most one kernel buffer, of
    # 2^n entries a chunk row, and a block holds whole chunks.
    for n in range(2, 13):
        chunk, rows = epr2._chunk_rows(n), epr2._block_rows(n)
        assert rows % chunk == 0
        assert 2 * n * rows <= chunk << n
        assert rows == chunk or 2 * n * (rows + chunk) > chunk << n
    assert [epr2._block_rows(n) for n in (3, 5, 8, 12)] == [8192, 6144, 4096, 2720]


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
    pieces = _count_two_pattern_pieces(monkeypatch)
    scenarios = [GhzScenario(3, alpha) for alpha in np.linspace(0.0, math.pi / 4, 11)]
    certify(scenarios, [0.5] * 11, samples=5000, seed=3)
    assert sorts and pieces


def test_a_block_near_alpha_zero_stays_dense(monkeypatch):
    # At alpha = 1e-6 and 8 parties, |cos t0| = 0.94: almost every sample
    # row has more unsaturated parties than the live path takes, so each
    # sample block runs the dense kernel on all of its rows.  A fifth of
    # the grid rows are saturated, and the grid block splits.  At w = 1 no
    # row can be skipped before its trigonometry (v^2 <= cos^2 a < 1), so
    # every row reaches the kernel.
    pieces = _count_two_pattern_pieces(monkeypatch)
    ends = []
    original = epr2._dense_factors

    def recorded(scenarios, block, block_ends, buffers):
        ends.append((block.cosines.shape[1], list(block_ends)))
        return original(scenarios, block, block_ends, buffers)

    monkeypatch.setattr(epr2, "_dense_factors", recorded)
    certify(GhzScenario(8, 1e-6), 1.0, samples=6000, seed=3)
    assert len(pieces) == 1 and ends[0][1][0] < epr2.DIAG_GRID_POINTS
    assert len(ends) == 3 and all(block_ends == [rows] for rows, block_ends in ends[1:])


def test_alpha_free_half_runs_once_per_chunk_of_a_sorted_block(monkeypatch):
    # K is built once per chunk of each sorted block's dense prefix,
    # however many scenarios share it.
    chunks = []
    original = epr2._dense_factors

    def recorded(scenarios, block, ends, buffers):
        chunks.append(-(-max(ends) // epr2._chunk_rows(6)))
        return original(scenarios, block, ends, buffers)

    builds = count_k_builds(monkeypatch)
    monkeypatch.setattr(epr2, "_dense_factors", recorded)
    pieces = _count_two_pattern_pieces(monkeypatch)
    scenarios = [GhzScenario(6, alpha) for alpha in (0.0, 0.2, math.pi / 4)]
    certify(scenarios, [1.0, 0.3, 0.05], samples=10_000, seed=7)
    assert pieces
    assert sum(builds) == sum(chunks)
    assert sum(builds) > epr2.DIAG_GRID_POINTS // epr2._chunk_rows(6)
