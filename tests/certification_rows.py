"""Certification angle rows as (rows, n) chunks, and helpers over the kernel's pieces.

The kernel (``ghzlocal._kernel``) reads its rows in blocks and yields
``(index, path, worst-phase P_Q, P_L)`` pieces; the tests hold the pieces
to dense references taken over this plain stream, and read each piece's
path from its tag.
"""

import math

import numpy as np
import pytest

from ghzlocal import _kernel
from ghzlocal.epr2 import _party_terms
from ghzlocal.qcore import cos_theta0, outcome_sign_matrix


# Live rows of 8 parties, 2 and 3 of them unsaturated at alpha = 0.3, in
# the order the live path reads its cells.
LIVE_ROWS = np.array([[1.5, 0.1, 1.6, 3.0, 0.2, 1.4, 0.1, 3.1],
                      [0.1, 1.7, 0.2, 1.5, 3.0, 0.1, 0.2, 0.1],
                      [1.45, 1.65, 0.1, 0.2, 3.1, 0.1, 1.55, 0.2],
                      [3.0, 0.1, 1.5, 1.6, 0.2, 0.1, 3.1, 0.1]])

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

    Each chunk holds ``rows`` rows (by default ``_kernel._chunk_rows(n)``),
    the last of each part fewer.  The grid starts at theta = 0.  A chunk is
    the (rows, n) transpose of a C-contiguous (n, rows) array.
    """
    chunk = _kernel._chunk_rows(n) if rows is None else rows
    grid = np.linspace(0.0, math.pi, _kernel.DIAG_GRID_POINTS)
    for start in range(0, _kernel.DIAG_GRID_POINTS, chunk):
        yield np.repeat(grid[None, start:start + chunk], n, axis=0).T
    for start in range(0, samples, chunk):
        yield _kernel._certification_parties(seed, start, min(chunk, samples - start), n).T


def chunk_bytes(n: int, rows: int) -> int:
    """The ``_kernel._CERT_CHUNK_BYTES`` that makes the chunks ``rows`` rows long at n parties."""
    return rows * 8 << n


def copied(pieces):
    """The kernel's pieces with copies of their arrays, which it reuses."""
    return [(i, path, pq.copy(), pl.copy()) for i, path, pq, pl in pieces]


def pass_pieces(scenarios, thetas, chunk=None, split=True):
    """Copied :func:`_kernel.block_pieces`: with ``split`` every block that can
    skip the dense kernel splits, and with ``chunk`` the chunks hold that many rows."""
    with pytest.MonkeyPatch.context() as patch:
        if split:
            patch.setattr(_kernel, "_SPLIT_ROW_COST", 0)
        if chunk:
            patch.setattr(_kernel, "_CERT_CHUNK_BYTES", chunk_bytes(scenarios[0].n, chunk))
        return copied(_kernel.block_pieces(scenarios, thetas))


def dense_reference(scenario, thetas):
    """Worst-phase P_Q and P_L, (rows, 2^n) arrays, of (rows, n) angles: products
    over the dense (rows, 2^n, n) factors of np.cos and np.sin, which the
    kernel's entries equal bit for bit.  Kr is K at the complement pattern."""
    patterns, thetas = outcome_sign_matrix(scenario.n), np.ascontiguousarray(thetas)
    ch, sh = np.cos(0.5 * thetas), np.sin(0.5 * thetas)
    k = np.prod(np.where(patterns[None, :, :] > 0.0, ch[:, None, :], sh[:, None, :]), axis=-1)
    pq_worst = (math.cos(scenario.alpha) * k - math.sin(scenario.alpha) * k[:, ::-1]) ** 2
    terms = _party_terms(cos_theta0(scenario), np.cos(thetas))
    return pq_worst, np.prod(0.5 * (1.0 + patterns[None, :, :] * terms[:, None, :]), axis=-1)


def same_entries(pieces, scenario, thetas) -> bool:
    """Whether the copied ``pieces`` hold each :func:`dense_reference` entry of the
    (rows, n) ``thetas`` with P_L > 0 once, and no entry that is not dense."""
    def positive(pq, pl):
        return np.stack((pq[pl > 0.0], pl[pl > 0.0]), axis=1).view(complex).ravel()

    zero = np.unique(np.concatenate([pq[pl == 0.0] for _, _, pq, pl in pieces] + [[math.inf]]))
    found, expected, step = zero == math.inf, [np.empty(0, complex)], max(1, 2**16 >> scenario.n)
    for start in range(0, len(thetas), step):
        pq, pl = dense_reference(scenario, thetas[start:start + step])
        expected.append(positive(pq, pl))
        at = np.searchsorted(zero, pq[pl == 0.0])
        found[at[zero[at] == pq[pl == 0.0]]] = True
    got = np.concatenate([positive(pq, pl) for _, _, pq, pl in pieces] + [expected[0]])
    return np.array_equal(np.sort(got), np.sort(np.concatenate(expected))) and bool(found.all())


def piece_extrema(pieces, ws):
    """(min residual, min ratio) of each scenario over its pieces, the ratio where
    P_L > 1e-12.  The residual starts at 0.0, as in certify: with a theta = 0
    row, the dense minimum is at most 0.0."""
    residuals, ratios = [0.0] * len(ws), [math.inf] * len(ws)
    for i, _, pq, pl in pieces:
        positive = pl > 1e-12
        ratios[i] = min(ratios[i], float(np.min(pq[positive] / pl[positive], initial=math.inf)))
        residuals[i] = min(residuals[i], float(np.min(pq - ws[i] * pl)))
    return list(zip(residuals, ratios))


def rows_read(pieces, index=0) -> dict:
    """How many rows scenario ``index`` reads on each path, from the tags."""
    rows = {}
    for i, path, pq, _ in pieces:
        if i == index:
            rows[path] = rows.get(path, 0) + pq.shape[1]
    return rows


def k_builds(scenarios, samples, seed, ws=None):
    """(alpha-free K builds, pieces) of one pass of the kernel's entry.

    Every ``_kernel._kron_rows`` call builds a chunk's K or the P_L of one
    dense piece, so the K builds are the calls less the dense pieces.  The
    pieces are ``(index, path, shape)`` in the order drawn.
    """
    calls, kron_rows = [], _kernel._kron_rows
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kron_rows", lambda *args: calls.append(1) or kron_rows(*args))
        pieces = [(i, path, pq.shape)
                  for i, path, pq, _ in _kernel.factor_pieces(scenarios, samples, seed, ws)]
    return len(calls) - sum(path == "dense" for _, path, _ in pieces), pieces
