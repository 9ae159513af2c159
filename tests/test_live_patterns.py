"""Tests of the live-pattern certification path against the dense kernel.

The live path evaluates a row only at its patterns with P_L > 0; it must
agree with the dense kernel bit for bit there, and the patterns it skips
must never lower a certificate.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlocal import _kernel, epr2
from ghzlocal.epr2 import certify
from ghzlocal.qcore import GhzScenario

from certification_rows import (LIVE_ROWS, certification_rows, copied, pass_pieces,
                                piece_extrema, rows_read, same_entries)

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Exact 0, pi/2 and pi exercise the saturated ends, the sgn(0) branch and
# both outcome flips of the local model.
angles = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                   st.floats(0.0, math.pi, allow_nan=False))
alphas = st.one_of(st.sampled_from([0.0, 1e-9, math.pi / 4 - 1e-9, math.pi / 4]),
                   st.floats(0.0, math.pi / 4, allow_nan=False))
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def theta_rows(draw, n_max=12):
    n = draw(st.integers(2, n_max))
    count = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(angles, min_size=n, max_size=n),
                         min_size=count, max_size=count))
    return n, np.array(rows, dtype=float)


@PROPERTIES
@given(theta_rows(), alphas, weights, st.sampled_from([1, 2, 6]))
@example((8, LIVE_ROWS), 0.3, 0.5, 1)
def test_live_minimum_is_the_dense_minimum_where_p_l_is_positive(rows, alpha, w, chunk_rows):
    # The split pass reads each row at its live patterns, every one with
    # P_L > 0, or at two patterns, or densely: its entries with P_L > 0 are
    # the dense ones, once each.  Short chunks slice the live rows.
    # Both minima are then the dense oracle's, the residual from 0.0.
    n, thetas = rows
    sc = GhzScenario(n, alpha)
    pieces = pass_pieces([sc], thetas, chunk_rows)
    assert all(np.all(pl > 0.0) for _, path, _, pl in pieces if path == "live")
    assert same_entries(pieces, sc, thetas)
    residual, ratio = epr2._residual_extrema(sc, w, thetas)
    assert piece_extrema(pieces, [w]) == [(min(0.0, residual), ratio)]


@PROPERTIES
@given(theta_rows(), alphas, weights)
def test_dense_minimum_where_p_l_vanishes_is_zero_with_the_zero_row(rows, alpha, w):
    n, thetas = rows
    thetas = np.vstack((np.zeros(n), thetas))
    # At most 7 rows, one dense piece.
    (_, _, pq, pl), = copied(_kernel.block_pieces([GhzScenario(n, alpha)], thetas, dense=True))
    dead = pl == 0.0
    assert dead.any()
    assert np.min(pq[dead] - w * pl[dead]) == 0.0


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 12), st.lists(st.tuples(alphas, weights), min_size=1, max_size=3),
       st.integers(0, 40), st.integers(0, 2**64 - 1))
def test_batch_certificates_equal_single_calls(n, pairs, samples, seed):
    scenarios = [GhzScenario(n, alpha) for alpha, _ in pairs]
    ws = [w for _, w in pairs]
    batch = certify(scenarios, ws, samples=samples, seed=seed)
    singles = [certify(sc, w, samples=samples, seed=seed) for sc, w in zip(scenarios, ws)]
    assert batch == singles
    assert all(c.min_residual <= 0.0 for c in batch)


@pytest.mark.parametrize("n", [7, 8, 9, 12])
def test_certify_reads_only_live_patterns_at_interior_alphas(n):
    # The rows with few unsaturated parties are read at their live
    # patterns only: the dense kernel sees under half of the rows, and the
    # certificate is the dense one.
    sc = GhzScenario(n, 0.3)
    rows = certification_rows(n, 256, 3)
    expected = min([0.0] + [epr2._residual_extrema(sc, 0.2, t)[0] for t in rows])
    assert certify(sc, 0.2, samples=256, seed=3).min_residual == expected
    read = rows_read(_kernel.factor_pieces([sc], 256, 3, [0.2]))
    assert read.get("dense", 0) < (_kernel.DIAG_GRID_POINTS + 256) // 2
