"""The certification angle rows as (rows, n) chunks, for tests that compare against them.

The kernel reads its rows in blocks (``epr2._certification_blocks``); the
tests hold it to dense references taken over this plain stream.
"""

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
