"""Certification angle rows as (rows, n) chunks, and the kernel's pieces over such rows.

The kernel reads its rows in blocks (``epr2._certification_blocks``); the
tests hold it to dense references taken over this plain stream, and run
``epr2._block_factors`` on blocks of rows of their own.
"""

import itertools
import math

import numpy as np

from ghzlocal import epr2


def certification_rows(n: int, samples: int, seed: int, rows: int | None = None):
    """Theta row chunks of the diagonal grid, then of the sample stream.

    Each chunk holds ``rows`` rows (by default ``epr2._chunk_rows(n)``), the
    last of each part fewer.  The grid starts at theta = 0.  A chunk is
    the (rows, n) transpose of a C-contiguous (n, rows) array.
    """
    chunk = epr2._chunk_rows(n) if rows is None else rows
    grid = np.linspace(0.0, math.pi, epr2.DIAG_GRID_POINTS)
    for start in range(0, epr2.DIAG_GRID_POINTS, chunk):
        yield np.repeat(grid[None, start:start + chunk], n, axis=0).T
    for start in range(0, samples, chunk):
        yield epr2._certification_parties(seed, start, min(chunk, samples - start), n).T


def block_pieces(scenarios, thetas, live_max=None, bound=None):
    """Copies of the (index, worst-phase P_Q, P_L) pieces of one block of (rows, n) angles.

    The block's cosines are those of ``epr2._block`` under ``bound``.  One
    ``epr2._block_factors`` call reads it, and the rows it leaves waiting
    in the live groups are drawn too.  The kernel buffers hold at least
    one chunk and the block's two-pattern factors; ``live_max`` defaults
    to the one ``epr2._factor_pieces`` takes, and is capped below n and so
    that a live group's factors fit those buffers.
    """
    n = scenarios[0].n
    buffers = epr2._certification_buffers(max(epr2._chunk_rows(n), len(thetas)), n,
                                          len(scenarios))
    entries = buffers[0].size
    if live_max is None:
        live_max = epr2._live_max_unsaturated(n, entries)
    live_max = max(1, min(live_max, n - 1, (entries // (3 * n)).bit_length() - 1))
    groups = epr2._LiveGroups(scenarios, entries)
    block = epr2._block(np.ascontiguousarray(thetas.T), bound)
    pieces = itertools.chain(epr2._block_factors(scenarios, block, live_max, groups, buffers),
                             groups.rest(buffers))
    return [(i, pq.copy(), pl.copy()) for i, pq, pl in pieces]


def block_extrema(scenarios, ws, thetas, **kwargs):
    """(min residual, min ratio) per scenario over :func:`block_pieces`.

    The residual starts at 0.0, as in certify: with a theta = 0 row, the
    dense minimum is at most 0.0.
    """
    residuals, ratios = [0.0] * len(scenarios), [math.inf] * len(scenarios)
    for i, pq_worst, pl in block_pieces(scenarios, thetas, **kwargs):
        ratios[i] = min(ratios[i], epr2._min_ratio(pq_worst.copy(), pl.copy()))
        residuals[i] = min(residuals[i], epr2._min_residual(pq_worst, pl, ws[i]))
    return list(zip(residuals, ratios))
