"""Tests of the certification pass's row-dense pieces against the dense kernel.

The rows with at most one unsaturated party are read at two patterns from
alpha-free products; the rows with a few more add their live patterns
within their block; the angles get their cosine only where a scenario
of the batch may leave a party unsaturated.  These tests hold each piece to the dense
reference bit for bit, and pin the angle hash, the shared grid
trigonometry and the w = 0 skip.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlocal import epr2
from ghzlocal.epr2 import _party_terms, certify, lower_bound
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import (block_pieces, certification_rows, dense_factors,
                                special_angles)

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Both ends of the domain and 1e-12 or 1e-15 off them.
EDGE_ALPHAS = [0.0, 1e-12, math.pi / 4 - 1e-15, math.pi / 4]
alphas = st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(0.0, math.pi / 4, allow_nan=False))


@st.composite
def batches(draw, n_min=7, n_max=12, rows_max=6):
    """(scenarios, (n, rows) angles) with angles at the batch's band edges."""
    n = draw(st.integers(n_min, n_max))
    scenarios = [GhzScenario(n, a) for a in draw(st.lists(alphas, min_size=1, max_size=4))]
    specials = special_angles([abs(cos_theta0(sc)) for sc in scenarios])
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False))
    rows = draw(st.integers(1, rows_max))
    parties = draw(st.lists(angle, min_size=n * rows, max_size=n * rows))
    return scenarios, np.array(parties).reshape(n, rows)


def _batch_bound(scenarios):
    return max(abs(cos_theta0(sc)) for sc in scenarios)


# ---------------------------------------------------------------------------
# block cosines


@PROPERTIES
@given(batches(n_min=2, rows_max=12))
def test_block_cosines_give_every_scenario_the_terms_of_np_cos(batch):
    scenarios, parties = batch
    exact = np.cos(parties)
    cosines = epr2._block_cosines(parties, _batch_bound(scenarios), np.empty(parties.shape))
    # The forced outcomes follow the sign of the cosine.
    assert np.array_equal(cosines < 0.0, exact < 0.0)
    for sc in scenarios:
        c0 = cos_theta0(sc)
        assert _party_terms(c0, cosines).tobytes() == _party_terms(c0, exact).tobytes()


def test_block_cosines_compute_every_cosine_when_a_batch_reaches_alpha_zero():
    parties = np.linspace(0.0, math.pi, 64).reshape(8, 8)
    got = epr2._block_cosines(parties, 1.0, np.empty(parties.shape))
    assert got.tobytes() == np.cos(parties).tobytes()


@pytest.mark.parametrize("alpha", EDGE_ALPHAS[1:] + [0.3])
def test_block_cosines_at_the_band_edges(alpha):
    # The angles at and around acos(c) and pi - acos(c), which the margin
    # keeps on the side of their computed cosines.
    sc = GhzScenario(8, alpha)
    c0 = cos_theta0(sc)
    parties = np.array(special_angles([abs(c0)]) * 8).reshape(8, -1)
    cosines = epr2._block_cosines(parties, abs(c0), np.empty(parties.shape))
    assert _party_terms(c0, cosines).tobytes() == _party_terms(c0, np.cos(parties)).tobytes()


# ---------------------------------------------------------------------------
# the two-pattern pass and the live rows


def _dense(scenario, parties):
    """Dense (2^n, rows) worst-phase P_Q and P_L of (n, rows) angles."""
    return dense_factors(scenario, parties.T)


def _pattern(bits):
    """Dense pattern index of (n, rows) outcome bits (1 for -1), party 0 most significant."""
    n = bits.shape[0]
    return (bits.astype(np.intp) << np.arange(n - 1, -1, -1)[:, None]).sum(axis=0)


@PROPERTIES
@given(batches(n_min=2))
def test_two_pattern_products_are_the_dense_k_entries(batch):
    # K at the forced pattern (every party at its cosine's sign) and at the
    # flipped one (the parties of smallest |cos t_j| flipped), then K at
    # their complements; and, for the rows with at most one unsaturated
    # party, the dense (P_Q, P_L) at the two patterns.
    scenarios, parties = batch
    n, rows = parties.shape
    block = epr2._block(parties, _batch_bound(scenarios))
    magnitudes = np.abs(block.cosines)
    least = magnitudes.min(axis=0)
    buffers = epr2._certification_buffers(rows, n)
    products = epr2._two_pattern_products(block, least, buffers).copy()
    forced = _pattern(block.cosines < 0.0)
    flipped = forced ^ _pattern(magnitudes == least)
    complement = (1 << n) - 1
    k = epr2._kron_rows(block.half_cos, block.half_sin, buffers[0], buffers[2])
    columns = np.arange(rows)
    for got, pattern in zip(products, (forced, flipped, complement - forced,
                                       complement - flipped)):
        assert got.tobytes() == k[pattern, columns].tobytes()
    second = np.sort(magnitudes, axis=0)[1]
    for sc in scenarios:
        rows_2 = np.flatnonzero(second >= abs(cos_theta0(sc)))
        pq, pl = epr2._two_pattern_factors(sc, products[:, rows_2], least[rows_2])
        dense_pq, dense_pl = _dense(sc, parties)
        for got_pq, got_pl, pattern in zip(pq, pl, (forced, flipped)):
            assert got_pq.tobytes() == dense_pq[pattern[rows_2], rows_2].tobytes()
            assert got_pl.tobytes() == dense_pl[pattern[rows_2], rows_2].tobytes()


@PROPERTIES
@given(batches(n_min=2), st.sampled_from([None, 1, 2, 3]))
def test_pass_and_groups_cover_every_positive_dense_entry(batch, live_max):
    # The two-pattern rows, the live rows and the dense rows of a block,
    # split for every row that can skip the dense kernel, read only dense
    # entries, and together every entry with P_L > 0.
    scenarios, parties = batch
    bound = _batch_bound(scenarios)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(epr2, "_SPLIT_ROW_COST", 0)
        pieces = block_pieces(scenarios, parties.T, live_max=live_max, bound=bound)
    for i, sc in enumerate(scenarios):
        got = [np.stack((pq.ravel(), pl.ravel()), axis=1) for k, pq, pl in pieces if k == i]
        got = np.unique(np.concatenate(got), axis=0)
        dense_pq, dense_pl = _dense(sc, parties)
        every = np.unique(np.stack((dense_pq.ravel(), dense_pl.ravel()), axis=1), axis=0)
        positive = every[every[:, 1] > 0.0]
        assert np.all(np.isin(got.view(complex), every.view(complex)))
        assert np.all(np.isin(positive.view(complex), got.view(complex)))


def _dense_entries(scenario, thetas_chunks):
    """Distinct dense (P_Q, P_L) pairs, and those with P_L > 0, over row chunks."""
    pairs = []
    for thetas in thetas_chunks:
        pq, pl = _dense(scenario, np.ascontiguousarray(thetas.T))
        pairs.append(np.stack((pq.ravel(), pl.ravel()), axis=1))
    pairs = np.unique(np.concatenate(pairs), axis=0)
    return pairs, pairs[pairs[:, 1] > 0.0]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_batch_pieces_are_dense_entries_and_read_every_positive_one(n, monkeypatch):
    # Each piece of a batch pass holds dense entries only, and together
    # they hold every dense entry with P_L > 0: the block cosines serve the
    # scenario of the largest |cos t0| as they serve the others.  The
    # fewer parties, the more scenarios it takes for a block to split.
    alphas = [1e-12, 0.05, 0.3, math.pi / 4 - 1e-15]
    alphas += [0.2, 0.5, 0.7] * (n <= 6) + [0.1, 0.4, 0.6, 0.75] * (n == 3)
    scenarios = [GhzScenario(n, a) for a in alphas]
    samples, seed = 400, 21
    buffers = epr2._certification_buffers(epr2._chunk_rows(n), n, len(scenarios))
    two_pattern = []
    original = epr2._two_pattern_factors
    monkeypatch.setattr(epr2, "_two_pattern_factors",
                        lambda *args: two_pattern.append(1) or original(*args))
    pieces = [[] for _ in scenarios]
    for i, pq, pl in epr2._factor_pieces(scenarios, samples, seed, buffers):
        pieces[i].append(np.stack((pq.ravel(), pl.ravel()), axis=1))
    assert two_pattern
    for sc, got in zip(scenarios, pieces):
        got = np.unique(np.concatenate(got), axis=0)
        every, positive = _dense_entries(sc, certification_rows(n, samples, seed))
        assert np.all(np.isin(got.view(complex), every.view(complex)))
        assert np.all(np.isin(positive.view(complex), got.view(complex)))


# ---------------------------------------------------------------------------
# the angle hash and the grid trigonometry


def _hash_oracle(seed, start, count, n):
    """The certification stream's definition: splitmix64 of (i * n + j) + seed_mix."""
    mask = 0xFFFFFFFFFFFFFFFF
    seed_mix = ((seed & mask) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & mask
    idx = np.arange(start, start + count, dtype=np.uint64)[None, :] * np.uint64(
        n
    ) + np.arange(n, dtype=np.uint64)[:, None]
    z = idx + np.uint64(seed_mix)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(float) * (math.pi / 2**53)


@pytest.mark.parametrize("seed", [0, 1, -1, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 37, 2**32 + 5, 2**40 - 1])
@pytest.mark.parametrize("count", [0, 1, 300])
def test_hash_in_buffers_is_the_stream(seed, start, count):
    buffers = np.empty(12 * 300), np.empty(12 * 300, np.uint64), np.empty(12 * 300, np.uint64)
    for n in (2, 7, 12):
        expected = _hash_oracle(seed, start, count, n).tobytes()
        got = epr2._certification_parties(seed, start, count, n, buffers)
        assert got.tobytes() == expected
        assert count == 0 or np.shares_memory(got, buffers[0])
        assert epr2._certification_parties(seed, start, count, n).tobytes() == expected


BLOCK_SHAPES = [(3, 512), (5, 700), (8, 1280), (12, 896)]


@pytest.mark.parametrize("n, rows", BLOCK_SHAPES)
def test_blocks_are_the_trigonometry_of_their_rows(n, rows):
    _check_blocks(n, rows, weighted=False)


@pytest.mark.parametrize("n, rows", BLOCK_SHAPES)
def test_bounded_blocks_are_the_trigonometry_of_their_kept_rows(n, rows):
    _check_blocks(n, rows, weighted=True)


def _check_blocks(n, rows, weighted):
    # Grid and sample chunks take one route: their angles are written into
    # reused buffers (a grid row's one angle to every party, a sample's
    # hashed there), bounded when a certificate gives weights, and their
    # trigonometry computed in place.  Each block is what np.cos and
    # np.sin give on the rows the bound leaves, in its order: every cosine
    # at bound 1.0, and with the scenario's bound cosines that give the
    # same terms.  A single scenario reads every row it is given.
    samples, seed = 2000, 5
    sc = GhzScenario(n, 0.3)
    c0 = cos_theta0(sc)
    weights = ([sc], [lower_bound(sc)]) if weighted else None
    blocks = epr2._certification_blocks(n, samples, seed, rows, abs(c0) if weighted else 1.0,
                                        weights)
    spare = [np.empty(n * rows) for _ in range(3)]
    read = 0
    for chunk, thetas in enumerate(certification_rows(n, samples, seed, rows)):
        parties = np.ascontiguousarray(thetas.T)
        if weights:
            grid = chunk < -(-epr2.DIAG_GRID_POINTS // rows)
            reach = epr2._surviving_rows(parties, *weights, spare, grid)
            if reach is None:
                weights = None
            elif not reach[0].size:
                continue
            else:
                parties = parties[:, reach[0]]
        block, ends = next(blocks)
        assert ends is None
        half = 0.5 * parties
        assert block.half_cos.tobytes() == np.cos(half).tobytes()
        assert block.half_sin.tobytes() == np.sin(half).tobytes()
        if weighted:
            got, expected = _party_terms(c0, block.cosines), _party_terms(c0, np.cos(parties))
        else:
            got, expected = block.cosines, np.cos(parties)
        assert got.tobytes() == expected.tobytes()
        read += parties.shape[1]
    assert next(blocks, None) is None
    # At the lower bound the bound skips rows at every n.
    assert (read < epr2.DIAG_GRID_POINTS + samples) == weighted


# ---------------------------------------------------------------------------
# the w = 0 skip


def test_a_zero_weight_is_never_evaluated(monkeypatch):
    evaluated = []
    original = epr2._factor_pieces

    def recorded(scenarios, *args):
        evaluated.extend(scenarios)
        return original(scenarios, *args)

    monkeypatch.setattr(epr2, "_factor_pieces", recorded)
    scenarios = [GhzScenario(8, a) for a in (0.0, 0.3, 0.5, math.pi / 4)]
    ws = [0.0, 0.2, -0.0, 0.0]
    batch = certify(scenarios, ws, samples=500, seed=4)
    assert evaluated == [scenarios[1]]
    assert [c.min_residual for c in batch] == [0.0, batch[1].min_residual, 0.0, 0.0]
    evaluated.clear()
    singles = [certify(sc, w, samples=500, seed=4) for sc, w in zip(scenarios, ws)]
    assert evaluated == [scenarios[1]]
    assert batch == singles
    assert all(repr(c.min_residual) == "0.0" for c, w in zip(batch, ws) if w == 0.0)
