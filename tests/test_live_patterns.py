"""Property tests of the live-pattern certification path against the dense kernel.

The live path evaluates a row only at its patterns with P_L > 0; it must
agree with the dense kernel bit for bit there, and the patterns it skips
must never lower a certificate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlocal import epr2
from ghzlocal.epr2 import certify
from ghzlocal.qcore import GhzScenario

from certification_rows import certification_rows, dense_factors

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




def _live(scenario, thetas, slice_rows):
    """Every live entry's (P_Q, P_L), read by the live path from all the rows.

    The buffers fit the factors of ``slice_rows`` rows at all 2^n patterns,
    so the rows whose parties are all unsaturated run in slices of that many.
    """
    n, rows = scenario.n, len(thetas)
    block = epr2._block(np.ascontiguousarray(thetas.T), 1.0)
    buffers = epr2._certification_buffers(3 * n * slice_rows, n)
    pieces = [(pq.ravel().copy(), pl.ravel().copy())
              for pq, pl in epr2._live_factors(scenario, block, np.arange(rows), buffers)]
    return tuple(np.concatenate(entries) for entries in zip(*pieces))


@PROPERTIES
@given(theta_rows(), alphas, weights, st.sampled_from([1, 2, 6]))
def test_live_minimum_is_the_dense_minimum_where_p_l_is_positive(rows, alpha, w, slice_rows):
    n, thetas = rows
    scenario = GhzScenario(n, alpha)
    pq, pl = dense_factors(scenario, thetas)
    positive = pl > 0.0
    live_pq, live_pl = _live(scenario, thetas, slice_rows)
    assert live_pl.size == np.count_nonzero(positive)
    assert np.all(live_pl > 0.0)
    # Same values, possibly in another order: compare the sorted entries.
    assert np.array_equal(np.sort(live_pq), np.sort(pq[positive]))
    assert np.array_equal(np.sort(live_pl), np.sort(pl[positive]))
    assert np.min(live_pq - w * live_pl) == np.min(pq[positive] - w * pl[positive])
    ratio = pl > 1e-12
    live_ratio = live_pl > 1e-12
    if ratio.any():
        assert np.min(live_pq[live_ratio] / live_pl[live_ratio]) == np.min(
            pq[ratio] / pl[ratio])


@PROPERTIES
@given(theta_rows(), alphas, weights)
def test_dense_minimum_where_p_l_vanishes_is_zero_with_the_zero_row(rows, alpha, w):
    n, thetas = rows
    thetas = np.vstack((np.zeros(n), thetas))
    pq, pl = dense_factors(GhzScenario(n, alpha), thetas)
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


def _grid_minimum(scenario, w):
    """Dense minimum residual over the diagonal grid, in chunks."""
    rows = list(certification_rows(scenario.n, 0, 0))
    return min(epr2._residual_extrema(scenario, w, t)[0] for t in rows)


@pytest.mark.parametrize("n", [7, 8, 9, 12])
def test_certify_reads_only_live_patterns_at_interior_alphas(n, monkeypatch):
    # The rows with few unsaturated parties are read at their live
    # patterns only: the dense kernel sees only the rest, and the
    # certificate is unchanged.
    # The dense references run first: they read their rows through
    # _dense_factors too.
    sc = GhzScenario(n, 0.3)
    expected = epr2._residual_extrema(sc, 0.2, epr2.certification_thetas(3, 0, 256, n))[0]
    expected = min(0.0, expected, _grid_minimum(sc, 0.2))
    dense_rows = []
    original = epr2._dense_factors

    def counted(scenarios, block, ends, buffers):
        dense_rows.append(max(ends))
        return original(scenarios, block, ends, buffers)

    monkeypatch.setattr(epr2, "_dense_factors", counted)
    cert = certify(sc, 0.2, samples=256, seed=3)
    assert cert.min_residual == expected
    assert sum(dense_rows) < (epr2.DIAG_GRID_POINTS + 256) // 2
