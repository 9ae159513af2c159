"""Tests of the certification pass's entry over the rows of a certificate.

The angles get their cosine only where a scenario of the batch may leave a
party unsaturated; the pass reads the grid and the sample stream, each row
on one path.  These tests hold the cosines' terms to np.cos, each path's
pieces, over the stream and over adversarial rows, to the dense entries
bit for bit, and pin the angle hash and the w = 0 skip.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlocal import _kernel, epr2
from ghzlocal.epr2 import _party_terms, certify, lower_bound
from ghzlocal.qcore import GhzScenario, cos_theta0

from certification_rows import (LIVE_ROWS, certification_rows, copied, dense_reference,
                                pass_pieces, piece_extrema, same_entries, special_angles,
                                ulps_from)

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Both ends of the domain and 1e-12 or 1e-15 off them.
EDGE_ALPHAS = [0.0, 1e-12, math.pi / 4 - 1e-15, math.pi / 4]
alphas = st.one_of(st.sampled_from(EDGE_ALPHAS), st.floats(0.0, math.pi / 4, allow_nan=False))


@st.composite
def batches(draw):
    """(scenarios, (n, rows) angles) with angles at the batch's band edges, a
    few ulps around the edge of its cosine stand-ins, or in its widest band."""
    n = draw(st.integers(2, 12))
    scenarios = [GhzScenario(n, a) for a in draw(st.lists(alphas, min_size=1, max_size=4))]
    bound = _batch_bound(scenarios)
    edge = _kernel._saturation_edge(bound)
    specials = special_angles([abs(cos_theta0(sc)) for sc in scenarios]) + [
        ulps_from(e, k) for e in (edge, math.pi - edge) for k in range(-2, 3)] * (edge > 0.0)
    band = math.acos(bound)
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False),
                      st.floats(band, math.pi - band))
    rows = draw(st.integers(1, 12))
    parties = draw(st.lists(angle, min_size=n * rows, max_size=n * rows))
    return scenarios, np.array(parties).reshape(n, rows)


def _batch_bound(scenarios):
    return max(abs(cos_theta0(sc)) for sc in scenarios)


# ---------------------------------------------------------------------------
# block cosines


@PROPERTIES
@given(batches())
def test_block_cosines_give_every_scenario_the_terms_of_np_cos(batch):
    scenarios, parties = batch
    exact = np.cos(parties)
    cosines = _kernel._block_cosines(parties, _batch_bound(scenarios), np.empty(parties.shape))
    # The forced outcomes follow the sign of the cosine.
    assert np.array_equal(cosines < 0.0, exact < 0.0)
    for sc in scenarios:
        c0 = cos_theta0(sc)
        assert _party_terms(c0, cosines).tobytes() == _party_terms(c0, exact).tobytes()


def test_block_cosines_compute_every_cosine_when_a_batch_reaches_alpha_zero():
    parties = np.linspace(0.0, math.pi, 64).reshape(8, 8)
    got = _kernel._block_cosines(parties, 1.0, np.empty(parties.shape))
    assert got.tobytes() == np.cos(parties).tobytes()


@pytest.mark.parametrize("alpha", EDGE_ALPHAS[1:] + [0.3])
def test_block_cosines_at_the_band_edges(alpha):
    # The angles at and around acos(c) and pi - acos(c), which the margin
    # keeps on the side of their computed cosines.
    sc = GhzScenario(8, alpha)
    c0 = cos_theta0(sc)
    parties = np.array(special_angles([abs(c0)]) * 8).reshape(8, -1)
    cosines = _kernel._block_cosines(parties, abs(c0), np.empty(parties.shape))
    assert _party_terms(c0, cosines).tobytes() == _party_terms(c0, np.cos(parties)).tobytes()


# ---------------------------------------------------------------------------
# the entry's pieces over the stream


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_batch_pieces_are_dense_entries_and_read_every_positive_one(n):
    # Each piece of a batch pass holds dense entries only, and together
    # they hold every dense entry with P_L > 0: the block cosines serve the
    # scenario of the largest |cos t0| as they serve the others.  The
    # fewer parties, the more scenarios it takes for a block to split.
    alphas = [1e-12, 0.05, 0.3, math.pi / 4 - 1e-15]
    alphas += [0.2, 0.5, 0.7] * (n <= 6) + [0.1, 0.4, 0.6, 0.75] * (n == 3)
    scenarios = [GhzScenario(n, a) for a in alphas]
    samples, seed = 400, 21
    pieces = copied(_kernel.factor_pieces(scenarios, samples, seed))
    assert "two-pattern" in {path for _, path, _, _ in pieces}
    thetas = np.concatenate(list(certification_rows(n, samples, seed)))
    for i, sc in enumerate(scenarios):
        assert same_entries([piece for piece in pieces if piece[0] == i], sc, thetas)


# ---------------------------------------------------------------------------
# the split pass over given rows


def _pattern(bits):
    """Dense pattern index of (n, rows) outcome bits (1 for -1), party 0 most significant."""
    n = bits.shape[0]
    return (bits.astype(np.intp) << np.arange(n - 1, -1, -1)[:, None]).sum(axis=0)


@PROPERTIES
@given(batches())
def test_two_pattern_products_are_the_dense_k_entries(batch):
    # A row is read at two patterns by each scenario whose |cos t0| its
    # second-smallest |cos t_j| reaches: the forced pattern (every party at
    # its cosine's sign) and the flipped one (the parties of smallest
    # |cos t_j| flipped), the dense entries there.  One row at a time, so
    # each piece is the row's.
    scenarios, parties = batch
    cosines = _kernel._block_cosines(parties, _batch_bound(scenarios), np.empty(parties.shape))
    magnitudes = np.abs(cosines)
    least, second = np.sort(magnitudes, axis=0)[:2]
    forced = _pattern(cosines < 0.0)
    patterns = np.stack((forced, forced ^ _pattern(magnitudes == least)))
    for row, thetas in enumerate(parties.T[:, None, :]):
        pieces = sorted(pass_pieces(scenarios, thetas), key=lambda piece: piece[0])
        assert [i for i, _, _, _ in pieces] == list(range(len(scenarios)))
        for sc, (_, path, pq, pl) in zip(scenarios, pieces):
            assert (path == "two-pattern") == (second[row] >= abs(cos_theta0(sc)))
            if path == "two-pattern":
                dense_pq, dense_pl = dense_reference(sc, thetas)
                assert pq.tobytes() == dense_pq[0, patterns[:, row]].tobytes()
                assert pl.tobytes() == dense_pl[0, patterns[:, row]].tobytes()


@settings(PROPERTIES, max_examples=200)
@given(batches(), st.sampled_from([None, 1, 3]), st.booleans())
@example(([GhzScenario(8, 0.3)], LIVE_ROWS.T), None, True)
def test_pass_and_groups_cover_every_positive_dense_entry(batch, chunk, split):
    # With ``split`` every block that can skip the dense kernel splits into
    # its two-pattern rows, its live rows and its dense rows; short chunks
    # shrink the buffers, and with them the live cap and the live slices.
    # Each row reaches one piece of each scenario, whose pattern count is
    # its path's: 2^n, 2, or 2^u for u unsaturated parties, each live entry
    # with P_L > 0.  Together the pieces hold every dense entry with P_L > 0
    # once, and nothing but dense entries.
    scenarios, parties = batch
    n, rows = parties.shape
    counts = {"dense": [2**n], "two-pattern": [2], "live": [2**u for u in range(2, n)]}
    pieces = pass_pieces(scenarios, parties.T, chunk, split)
    for i, sc in enumerate(scenarios):
        mine = [piece for piece in pieces if piece[0] == i]
        assert sum(pq.shape[1] for _, _, pq, _ in mine) == rows
        for _, path, pq, pl in mine:
            assert pq.shape == pl.shape and pq.shape[0] in counts[path]
            assert path != "live" or np.all(pl > 0.0)
        assert same_entries(mine, sc, parties.T)


# ---------------------------------------------------------------------------
# the angle hash and the rows of the stream


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
        got = _kernel._certification_parties(seed, start, count, n, buffers)
        assert got.tobytes() == expected
        assert count == 0 or np.shares_memory(got, buffers[0])
        assert _kernel._certification_parties(seed, start, count, n).tobytes() == expected


BLOCK_SHAPES = [(3, 512), (5, 700), (8, 1280), (12, 896)]


@pytest.mark.parametrize("n, rows", BLOCK_SHAPES)
def test_blocks_are_the_trigonometry_of_their_rows(n, rows, monkeypatch):
    _check_blocks(n, rows, False, monkeypatch)


@pytest.mark.parametrize("n, rows", BLOCK_SHAPES)
def test_bounded_blocks_are_the_trigonometry_of_their_kept_rows(n, rows, monkeypatch):
    _check_blocks(n, rows, True, monkeypatch)


def _check_blocks(n, rows, weighted, monkeypatch):
    # Grid and sample blocks of ``rows`` rows take one route: their angles
    # are written into reused buffers (a grid row's one angle to every
    # party, a sample's hashed there), bounded when a certificate gives
    # weights, and their trigonometry computed in place.  A single
    # scenario reads, block by block, every row the bound leaves, and the
    # pieces of a block hold the entries that np.cos and np.sin give those
    # rows: each with P_L > 0 once, and no other.  At the lower bound it skips
    # rows at every n.  Both minima are the dense oracle's over the kept
    # rows, and the residual, from 0.0, is its minimum over every row.
    monkeypatch.setattr(_kernel, "_block_rows", lambda n: rows)
    sc, samples, seed = GhzScenario(n, 0.3), 2000, 5
    w, reaches, bound = lower_bound(sc), [], _kernel._surviving_rows
    monkeypatch.setattr(_kernel, "_surviving_rows",
                        lambda *args: reaches.append(bound(*args)) or reaches[-1])
    pieces = _kernel.factor_pieces([sc], samples, seed, [w] if weighted else None)
    piece, kept, oracle, minima = next(pieces, None), 0, 0.0, []
    for k, thetas in enumerate(certification_rows(n, samples, seed, rows)):
        oracle = min(oracle, epr2._residual_extrema(sc, w, thetas)[0])
        if k < len(reaches) and reaches[k] is not None:
            thetas = thetas[reaches[k][0]]
        mine, read = [], 0
        while read < len(thetas):
            mine += copied([piece])
            read, piece = read + piece[2].shape[1], next(pieces, None)
        assert read == len(thetas) and same_entries(mine, sc, thetas)
        residual, ratio = epr2._residual_extrema(sc, w, thetas)
        minima += piece_extrema(mine, [w])
        assert minima[-1] == (min(0.0, residual), ratio)
        kept += len(thetas)
    assert piece is None and (kept < _kernel.DIAG_GRID_POINTS + samples) == weighted
    assert min(residual for residual, _ in minima) == oracle


# ---------------------------------------------------------------------------
# the w = 0 skip


def test_a_zero_weight_is_never_evaluated(monkeypatch):
    # Every piece certify reduces is reduced at its scenario's weight.
    evaluated = []
    original = epr2._min_residual

    def recorded(pq_worst, pl, w):
        evaluated.append(w)
        return original(pq_worst, pl, w)

    monkeypatch.setattr(epr2, "_min_residual", recorded)
    scenarios = [GhzScenario(8, a) for a in (0.0, 0.3, 0.5, math.pi / 4)]
    ws = [0.0, 0.2, -0.0, 0.0]
    batch = certify(scenarios, ws, samples=500, seed=4)
    assert evaluated and set(evaluated) == {0.2}
    assert [c.min_residual for c in batch] == [0.0, batch[1].min_residual, 0.0, 0.0]
    evaluated.clear()
    singles = [certify(sc, w, samples=500, seed=4) for sc, w in zip(scenarios, ws)]
    assert evaluated and set(evaluated) == {0.2}
    assert batch == singles
    assert all(repr(c.min_residual) == "0.0" for c, w in zip(batch, ws) if w == 0.0)
