"""Certification angle rows as (rows, n) chunks, and the kernel's pieces over such rows.

The kernel reads its rows in blocks (``epr2._certification_blocks``); the
tests hold it to dense references taken over this plain stream, and run
``epr2._block_factors`` on blocks of rows of their own.
"""

import math

import numpy as np

from ghzlocal import epr2


# Offsets from the edges acos(c) and pi - acos(c) of a scenario's band.
BAND_EDGE_OFFSETS = (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 2e-12, -2e-12)


def ulps_from(x: float, k: int) -> float:
    """x moved by k ulps."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


def special_angles(bounds):
    """0, pi, pi/2 a few ulps either way, and each band edge with its offsets.

    ``bounds`` holds the ``|cos t0|`` whose band edges are wanted.
    """
    half_pi = math.pi / 2
    specials = [0.0, math.pi, half_pi] + [ulps_from(half_pi, k) for k in (-3, -2, -1, 1, 2, 3)]
    for c in bounds:
        edge = math.acos(min(c, 1.0))
        specials += [edge + d for d in BAND_EDGE_OFFSETS]
        specials += [math.pi - edge + d for d in BAND_EDGE_OFFSETS]
    return [min(max(t, 0.0), math.pi) for t in specials]


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

    The block's cosines are those of ``epr2._block`` under ``bound``, and
    one ``epr2._block_factors`` call reads every row of it.  The kernel
    buffers hold at least one chunk and the block's two-pattern factors;
    ``live_max`` defaults to the one ``epr2._factor_pieces`` takes, and is
    capped below n and so that a live row's factors fit those buffers.
    """
    n = scenarios[0].n
    buffers = epr2._certification_buffers(max(epr2._chunk_rows(n), len(thetas)), n,
                                          len(scenarios))
    entries = buffers[0].size
    if live_max is None:
        live_max = epr2._live_max_unsaturated(n, entries)
    live_max = max(1, min(live_max, n - 1, (entries // (3 * n)).bit_length() - 1))
    block = epr2._block(np.ascontiguousarray(thetas.T), bound)
    return [(i, pq.copy(), pl.copy())
            for i, pq, pl in epr2._block_factors(scenarios, block, live_max, buffers)]


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


def count_k_builds(monkeypatch):
    """A list whose sum counts the alpha-free Kronecker products K the kernel builds.

    Every ``epr2._kron_rows`` call adds 1, and every ``epr2._alpha_factors``
    call, which builds its scenario's P_L with one of them, takes 1 away.
    """
    calls = []
    kron_rows, alpha_factors = epr2._kron_rows, epr2._alpha_factors

    def counted_kron_rows(*args):
        calls.append(1)
        return kron_rows(*args)

    def counted_alpha_factors(*args):
        calls.append(-1)
        return alpha_factors(*args)

    monkeypatch.setattr(epr2, "_kron_rows", counted_kron_rows)
    monkeypatch.setattr(epr2, "_alpha_factors", counted_alpha_factors)
    return calls
