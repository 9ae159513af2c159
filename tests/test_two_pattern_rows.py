"""Tests of the two-pattern suffix of the dense certification pass.

From 4 to 6 parties the dense pass sorts each block's rows by their
second-smallest |cos theta_j|.  A row whose key reaches |cos theta0| has
at most one unsaturated party and is read at two patterns only; these
tests hold that path to the dense reference, bit for bit, and pin that 3
and 7 parties keep their own paths.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghzlocal import epr2
from ghzlocal.epr2 import _party_terms, certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import certification_rows

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
    n = draw(st.sampled_from([3, 4, 5, 6, 7]))
    rows = draw(st.lists(st.lists(angles, min_size=n, max_size=n), min_size=0, max_size=8))
    equal = draw(st.lists(angles, min_size=0, max_size=3))
    thetas = np.array([[0.0] * n] + rows + [[theta] * n for theta in equal])
    return n, thetas


def _pass_extrema(scenarios, ws, thetas):
    """(min residual, min ratio) per scenario from one _dense_factors pass.

    The residual starts at 0.0, as in certify: the theta = 0 row's dense
    minimum is at most 0.0.
    """
    n = scenarios[0].n
    parties = np.ascontiguousarray(thetas.T)
    buffers = epr2._certification_buffers(epr2._chunk_rows(n), n, len(scenarios))
    residuals, ratios = [0.0] * len(scenarios), [math.inf] * len(scenarios)
    for i, pq_worst, pl in epr2._dense_factors(scenarios, epr2._block(parties), buffers):
        ratios[i] = min(ratios[i], epr2._min_ratio(pq_worst.copy(), pl.copy()))
        residuals[i] = min(residuals[i], epr2._min_residual(pq_worst, pl, ws[i]))
    return list(zip(residuals, ratios))


@PROPERTIES
@given(blocks(), st.lists(st.tuples(alphas, weights), min_size=1, max_size=4),
       st.sampled_from([1, 2, 3, 8192]))
def test_two_pattern_pass_is_the_dense_reference(block, pairs, chunk_rows):
    n, thetas = block
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [_weight(sc, w) for sc, (_, w) in zip(scenarios, pairs)]
    parties = np.ascontiguousarray(thetas.T)
    with pytest.MonkeyPatch.context() as patch:
        # Every block with a two-pattern row splits: the theta = 0 row is
        # one.  Short chunks put the sorted rows of one block in several.
        patch.setattr(epr2, "_SPLIT_ROW_COST", 0)
        patch.setattr(epr2, "_CERT_MAX_ROWS", chunk_rows)
        split = epr2._two_pattern_rows(scenarios, epr2._block(parties))
        got = _pass_extrema(scenarios, ws, thetas)
    assert (split is None) == (n in (3, 7))
    assert got == [epr2._residual_extrema(sc, w, thetas) for sc, w in zip(scenarios, ws)]


def _count_two_pattern_pieces(monkeypatch):
    pieces = []
    original = epr2._two_pattern_factors

    def counted(*args):
        pieces.append(1)
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
    assert bool(pieces) == (4 <= n <= 6)
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
    sc = GhzScenario(4, 0.3)
    c0 = abs(cos_theta0(sc))
    below = float(np.nextafter(c0, 0.0))
    cos_rows = np.array([[c0, -c0, 0.1, c0],
                         [below, -below, 0.9, 0.9],
                         [0.2, 0.9, -0.9, 0.9]])
    parties = np.arccos(cos_rows).T.copy()
    block = epr2._block(parties)._replace(cosines=cos_rows.T.copy())
    _, ends, _, least = epr2._two_pattern_rows([sc], block)
    assert ends == [1]
    assert least.tolist() == [below, 0.1, 0.2]


def test_blocks_that_cannot_split_stay_chunk_sized():
    # A single scenario at 4 or 5 parties saves at most 2^n - 2 entries a
    # row, no more than the split costs, so it keeps the dense blocks.
    for n in (4, 5):
        assert not epr2._may_split(n, 1)
        assert epr2._block_rows(n, 1) == epr2._chunk_rows(n)
        assert epr2._block_rows(n, 3) == max(epr2._chunk_rows(n), epr2._SPLIT_BLOCK_ROWS)
    assert epr2._may_split(6, 1)
    assert not epr2._may_split(3, 100) and not epr2._may_split(7, 100)


def test_alpha_free_half_runs_once_per_chunk_of_a_sorted_block(monkeypatch):
    # K is built once per chunk of each sorted block, however many
    # scenarios share it.
    calls = []
    original = epr2._alpha_free_factors

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(epr2, "_alpha_free_factors", counted)
    n, samples = 6, 10_000
    scenarios = [GhzScenario(n, alpha) for alpha in (0.0, 0.2, math.pi / 4)]
    certify(scenarios, [1.0, 0.3, 0.05], samples=samples, seed=7)
    chunk = epr2._chunk_rows(n)
    blocks = certification_rows(n, samples, 7, epr2._block_rows(n, len(scenarios)))
    assert len(calls) == sum(-(-len(block) // chunk) for block in blocks)
    assert len(calls) > epr2.DIAG_GRID_POINTS // chunk
