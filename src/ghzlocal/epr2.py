"""Local model, lower bound on the local content, and decomposition certificates.

The quantum distribution P_Q of a GHZ scenario is decomposed as
``P_Q = w * P_L + (1 - w) * P_NL`` with P_L fully local (a product over
parties) and P_NL a valid distribution.  The local model vanishes wherever
P_Q vanishes; the largest weight it supports along the symmetric
measurement diagonal is the lower bound :func:`lower_bound`, and
:func:`certify` checks nonnegativity of ``P_Q - w * P_L`` over a
deterministic diagonal grid plus seeded random settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    cos_theta0,
    diagonal_prob,
    joint_prob_ghz,
    outcome_sign_matrix,
    theta0,
)

# A certificate is violated when the worst observed residual P_Q - w*P_L
# drops below -CERT_TOLERANCE.
CERT_TOLERANCE = 1e-9

# Number of points of the deterministic all-parties-equal grid that certify()
# always evaluates in addition to the random samples.
DIAG_GRID_POINTS = 2001

# Byte budget of one float64 (2^n, rows) array of the certification kernel,
# which sizes its chunks: 8192 rows up to n = 3, 128 rows at n = 9 and 16 at
# n = 12.  certify and sampled_min_ratio compute every chunk in three
# buffers of this size (P_Q, P_L and scratch), about 1.5 MiB in all, so the
# arrays stay in a core's L2 cache and no chunk allocates a fresh one.
# Budgets from 512 KiB to 1 MiB ran alike; 512 KiB uses the least memory.
# The row cap keeps small n at 8192-row chunks; larger chunks there only
# raise peak memory.
_CERT_CHUNK_BYTES = 512 * 2**10
_CERT_MAX_ROWS = 8192

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# lower_bound refines the grid minimum's bracket until it is narrower than
# this many radians.
_REFINE_TOL = 1e-10

# Largest lower_bound grid; its arrays take about 60 bytes per point.
_MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class LocalModel:
    """Factorized outcome distribution pinned to vanish at the diagonal zero.

    Per party: ``[1 + r * sgn(cos t) * min(1, |cos t / cos t0|)] / 2``, which
    is ``[1 + r * sgn(cos t)] / 2`` at maximal entanglement (cos t0 = 0).
    """

    scenario: GhzScenario

    @property
    def cos_theta0(self) -> float:
        """cos of the scenario's vanishing angle."""
        return cos_theta0(self.scenario)


def _party_terms(c0: float, thetas):
    """Per-party signed terms r-independent part: sgn(cos t)*min(1,|cos t/c0|).

    ``cos t / |c0|`` clipped to [-1, 1], the same bit for bit; at c0 = 0, +-inf
    clips to sgn(cos t), as no float angle in [0, pi] has cos t = 0 (6.1e-17 at pi/2).
    """
    with np.errstate(divide="ignore"):
        return np.clip(np.cos(thetas) / abs(c0), -1.0, 1.0)


def local_prob(model: LocalModel, thetas, outcomes: OutcomePattern) -> float:
    """P_L(r|thetas): product of per-party factors, normalized over outcomes."""
    thetas = np.asarray(thetas, dtype=float)
    n = model.scenario.n
    if thetas.shape != (n,) or len(outcomes) != n:
        raise ValueError(
            f"expected {n} angles and outcomes, got {thetas.shape} and {len(outcomes)}"
        )
    if not (0.0 <= thetas.min() and thetas.max() <= math.pi):
        raise ValueError("angles must lie in [0, pi]")
    terms = _party_terms(model.cos_theta0, thetas)
    return float(np.prod(0.5 * (1.0 + outcomes.signs() * terms)))


def _diagonal_local_prob(scenario: GhzScenario, theta):
    """P_L on the diagonal with all outcomes +1 (vectorized over theta).

    In the unsaturated region the per-party factor (1 + cos t / cos t0)/2 is
    evaluated as sin((t0+t)/2) sin((t0-t)/2) / |cos t0|, which avoids the
    catastrophic cancellation of the direct difference near t0 and near pi.
    Like :func:`ghzlocal.qcore.diagonal_prob`, a deliberate duplicate: the
    ratio divides by P_L at its zero, where :func:`_party_terms` loses all digits.

    At cos t0 = 0 the band ``(pi - t0, t0)`` is empty: the division by zero is
    masked, and pi/2, on both of its edges, maps to 1.
    """
    theta = np.asarray(theta, dtype=float)
    t0 = theta0(scenario)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.sin(0.5 * (t0 + theta)) * np.sin(0.5 * (t0 - theta))
        factor /= -cos_theta0(scenario)
    factor = np.where(theta <= math.pi - t0, 1.0, np.where(theta >= t0, 0.0, factor))
    return factor**scenario.n


def _diagonal_ratio(scenario: GhzScenario, thetas) -> np.ndarray:
    """P_Q / P_L along the diagonal, all outcomes +1 (vectorized over thetas).

    ``+inf`` where P_L vanishes; within 1e-12 of the vanishing angle (when
    ``cos theta0 < 0``) the exact limit :func:`_ratio_limit_at_theta0`.
    A product state's P_L is its P_Q, so there the ratio is exactly 1 where P_Q > 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    pq = np.asarray(diagonal_prob(scenario, thetas))
    pl = pq if scenario.alpha == 0.0 else _diagonal_local_prob(scenario, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pl > 0.0, pq / pl, math.inf)
    at_zero = np.abs(thetas - theta0(scenario)) <= 1e-12
    if cos_theta0(scenario) < 0.0 and at_zero.any():
        f = np.where(at_zero, _ratio_limit_at_theta0(scenario), f)
    return f


def ratio_f(scenario: GhzScenario, theta: float) -> float:
    """Quantum/local probability ratio along the diagonal, all outcomes +1.

    Returns ``+inf`` where the local model vanishes but P_Q does not (the
    whole region beyond the vanishing angle).  At the vanishing angle itself
    both vanish, and the value is the ratio's exact limit there:
    ``1 - sin 2a`` for n = 2, ``+inf`` for n >= 3, 1 for a product state.
    ``theta`` must lie in [0, pi].
    """
    return float(_diagonal_ratio(scenario, theta))


def _ratio_limit_at_theta0(scenario: GhzScenario) -> float:
    """Exact limit of the diagonal ratio at theta0, the common zero of P_Q and P_L.

    A product state has P_Q = P_L on the whole diagonal, so the limit is 1.
    At n = 2 the ratio is constant on the band ``(pi - theta0, theta0)``,
    so the limit is its value at the band's centre pi/2, where P_L = 1/4:
    ``4 P_Q(pi/2) = 1 - sin 2a``.  For n >= 3 P_L vanishes to order n and
    P_Q only to order 2, so the ratio diverges.
    """
    if scenario.alpha == 0.0:
        return 1.0
    if scenario.n == 2:
        return 4.0 * diagonal_prob(scenario, math.pi / 2)
    return math.inf


def _refine_minimum(scenario: GhzScenario, a: float, b: float) -> float:
    """Golden-section minimum of the diagonal ratio on the bracket [a, b].

    Steps until the bracket is narrower than ``_REFINE_TOL``; returns the
    smallest ratio evaluated.
    """
    c, d = b - (b - a) * _GOLDEN, a + (b - a) * _GOLDEN
    fc, fd = _diagonal_ratio(scenario, c), _diagonal_ratio(scenario, d)
    best = min(fc, fd)
    while (b - a) > _REFINE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = _diagonal_ratio(scenario, c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = _diagonal_ratio(scenario, d)
        best = min(best, fc, fd)
    return float(best)


def lower_bound(scenario: GhzScenario, grid_points: int = 10000) -> float:
    """Lower bound on the local content: min of the diagonal ratio over [0, pi].

    Dense grid evaluation (both ends included), golden-section refinement
    of the grid minimum's bracket, plus one probe at the common-zero angle
    ``theta0``.  Gives ``1 - sin(2a)`` for n = 2, 1 for product states, 0
    for maximal entanglement.  ``grid_points`` must lie in [1000, 10**7].
    """
    if not 1000 <= grid_points <= _MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points must lie in [1000, {_MAX_GRID_POINTS}], got {grid_points}"
        )
    thetas = np.linspace(0.0, math.pi, grid_points)
    f = _diagonal_ratio(scenario, thetas)
    i = min(max(int(np.argmin(f)), 1), grid_points - 2)
    refined = _refine_minimum(scenario, float(thetas[i - 1]), float(thetas[i + 1]))
    w = min(float(f.min()), refined, ratio_f(scenario, theta0(scenario)))
    return min(max(w, 0.0), 1.0)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Evidence that P_Q - w * P_L stayed nonnegative over the evaluated set."""

    w: float
    min_residual: float
    samples: int
    seed: int
    violated: bool


def certification_thetas(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """Rows start..start+count-1 of the certification angle stream, shape (count, n).

    Each entry is a pure function of (seed, sample index, party index) via a
    splitmix64 counter hash, so any chunking or evaluation order reproduces
    the identical stream.  Angles are uniform on [0, pi).
    """
    mask = 0xFFFFFFFFFFFFFFFF
    seed_mix = ((seed & mask) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & mask
    idx = np.arange(start, start + count, dtype=np.uint64)[:, None] * np.uint64(
        n
    ) + np.arange(n, dtype=np.uint64)[None, :]
    z = idx + np.uint64(seed_mix)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(float) * (math.pi / 2**53)


def _kron_rows(plus: np.ndarray, minus: np.ndarray, out: np.ndarray,
               spare: np.ndarray) -> np.ndarray:
    """Kronecker product of per-party pairs (plus[j], minus[j]) for every row.

    Takes (n, rows) factors and returns the pattern-major (2^n, rows)
    product as a view of the flat buffer ``out``, so each step multiplies
    contiguous runs of ``rows`` doubles.  The steps alternate between
    ``out`` and the flat buffer ``spare``, starting in the one that makes
    the last step land in ``out``; both need ``2^n * rows`` entries and
    only their prefixes are written.  Party 0 is the most significant bit
    of the pattern index and bit value 0 selects the +1 factor, which is
    the order of :func:`ghzlocal.qcore.all_outcome_patterns`.  Each entry
    is the product over parties taken left to right, ``((f_0 * f_1) * f_2) ...``.
    """
    n, rows = plus.shape
    src, dst = (out, spare) if n % 2 else (spare, out)
    product = src[:2 * rows].reshape(2, rows)
    product[0], product[1] = plus[0], minus[0]
    for j in range(1, n):
        step = dst[:2 * product.size].reshape(-1, 2, rows)
        np.multiply(product, plus[j], out=step[:, 0])
        np.multiply(product, minus[j], out=step[:, 1])
        product = step.reshape(-1, rows)
        src, dst = dst, src
    return product


def _certification_buffers(rows: int, n: int):
    """Three flat float64 buffers for (2^n, rows) kernel arrays."""
    return tuple(np.empty(rows * 2**n) for _ in range(3))


def _certification_factors(scenario: GhzScenario, thetas: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) at theta rows (rows, n), each a (2^n, rows) array.

    The two arrays are views of the first two of the three flat
    :func:`_certification_buffers`; the third is scratch, free again on
    return.

    At the phase extremes cos(sum of phis) = +-1 the quantum probability is
    the perfect square (cos(a) prod p_j +- prod r_j sin(a) prod q_j)^2 with
    p_j, q_j the half-angle cosine/sine picked by each outcome sign, so the
    worse of the two is (A - B)^2, nonnegative by construction.

    With h = theta / 2 and t_j the :func:`_party_terms`, all three factors
    are Kronecker products of per-party pairs (+1 factor, -1 factor), built
    by :func:`_kron_rows` in the pattern order of ``all_outcome_patterns``:

    * ``A = cos(a) * kron_j (cos h_j, sin h_j)``
    * ``B = sin(a) * kron_j (sin h_j, cos h_j)``, A's product with its
      patterns reversed (pattern ``2^n - 1 - c`` complements every bit)
    * ``P_L = kron_j ((1 + t_j) / 2, (1 - t_j) / 2)``

    Each product is taken over parties left to right and the cos(a) /
    sin(a) scale is applied last.  That is the multiplication order of
    ``np.prod(..., axis=-1)`` over the dense (rows, 2^n, n) factor array,
    so every entry is bit-identical to that reference.
    """
    pq_buf, pl_buf, spare = buffers
    parties = np.ascontiguousarray(thetas.T)
    half = 0.5 * parties
    pq_worst = _kron_rows(np.cos(half), np.sin(half), pq_buf, spare)
    b = spare[:pq_worst.size].reshape(pq_worst.shape)
    np.multiply(pq_worst[::-1], math.sin(scenario.alpha), out=b)
    pq_worst *= math.cos(scenario.alpha)
    pq_worst -= b
    np.square(pq_worst, out=pq_worst)
    terms = _party_terms(cos_theta0(scenario), parties)
    pl = _kron_rows(0.5 * (1.0 + terms), 0.5 * (1.0 - terms), pl_buf, spare)
    return pq_worst, pl


def _min_residual(pq_worst: np.ndarray, pl: np.ndarray, w: float) -> float:
    """min of P_Q - w * P_L over the factor arrays; overwrites ``pl``."""
    pl *= w
    np.subtract(pq_worst, pl, out=pl)
    return float(np.min(pl))


def _min_ratio(pq_worst: np.ndarray, pl: np.ndarray, spare: np.ndarray) -> float:
    """min of P_Q / P_L where P_L is meaningfully positive, else ``+inf``.

    The ratio is written into the flat buffer ``spare``.
    """
    ratio = spare[:pl.size].reshape(pl.shape)
    ratio.fill(math.inf)
    np.divide(pq_worst, pl, out=ratio, where=pl > 1e-12)
    return float(np.min(ratio))


def _residual_extrema(scenario: GhzScenario, w: float, thetas: np.ndarray,
                      patterns: np.ndarray | None = None):
    """(min residual, min ratio) over theta rows x all patterns x both phase signs.

    The residual is P_Q - w * P_L, the quantity :func:`certify` bounds; the
    ratio P_Q / P_L, taken where P_L is meaningfully positive, is the one
    :func:`sampled_min_ratio` bounds.  Both are reductions of
    :func:`_certification_factors`, so both values are bit-identical to
    the dense (rows, 2^n, n) reference.  ``patterns``,
    when given, must be ``outcome_sign_matrix(n)``: the pattern order is
    fixed by the construction, and any other matrix is refused.

    Flipping outcome ``r_j`` is the reflection ``theta_j -> pi - theta_j``
    (it swaps cos h_j and sin h_j in all three factors), so the certificate
    checks one function of theta over ``[0, pi]^n``; each sampled row is
    still evaluated at all 2^n patterns.
    """
    n = scenario.n
    if patterns is not None and not np.array_equal(patterns, outcome_sign_matrix(n)):
        raise ValueError(
            f"patterns must be outcome_sign_matrix({n}), shape {(2**n, n)}"
        )
    buffers = _certification_buffers(len(thetas), n)
    pq_worst, pl = _certification_factors(scenario, thetas, buffers)
    min_ratio = _min_ratio(pq_worst, pl, buffers[2])
    return _min_residual(pq_worst, pl, w), min_ratio


def _chunk_rows(n: int) -> int:
    """Rows per chunk: as many as fit ``_CERT_CHUNK_BYTES`` per (2^n, rows)
    array, at most ``_CERT_MAX_ROWS``."""
    return min(_CERT_MAX_ROWS, _CERT_CHUNK_BYTES // (8 * 2**n))


def _certification_rows(n: int, samples: int, seed: int):
    """Theta row chunks of the diagonal grid, then of the sample stream.

    Each chunk holds :func:`_chunk_rows` rows, the last of each part fewer.
    """
    chunk = _chunk_rows(n)
    grid = np.linspace(0.0, math.pi, DIAG_GRID_POINTS)
    for start in range(0, DIAG_GRID_POINTS, chunk):
        yield np.repeat(grid[start:start + chunk, None], n, axis=1)
    for start in range(0, samples, chunk):
        yield certification_thetas(seed, start, min(chunk, samples - start), n)


def certify(scenario: GhzScenario, w: float, samples: int = 100_000,
            seed: int = 0) -> DecompositionCertificate:
    """Check P_Q - w * P_L >= 0 over the diagonal grid and seeded random settings.

    Every random setting draws independent per-party polar angles; all 2^n
    outcome patterns and both extreme phase sums (cos = +-1) are evaluated at
    each setting.  Identical seed and sample count give an identical
    certificate regardless of evaluation chunking.
    """
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"w must lie in [0, 1], got {w}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    buffers = _certification_buffers(_chunk_rows(scenario.n), scenario.n)
    min_residual = min(
        _min_residual(*_certification_factors(scenario, thetas, buffers), w)
        for thetas in _certification_rows(scenario.n, samples, seed)
    )
    return DecompositionCertificate(
        w=w,
        min_residual=min_residual,
        samples=samples,
        seed=seed,
        violated=bool(min_residual < -CERT_TOLERANCE),
    )


def sampled_min_ratio(scenario: GhzScenario, samples: int = 100_000,
                      seed: int = 0) -> float:
    """Largest weight certifiable on the sample set: min P_Q/P_L where P_L > 0.

    Fallback weight when a claimed w fails certification; by construction
    certify() at this value over the same seed and sample count passes.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    buffers = _certification_buffers(_chunk_rows(scenario.n), scenario.n)
    min_ratio = min(
        _min_ratio(*_certification_factors(scenario, thetas, buffers), buffers[2])
        for thetas in _certification_rows(scenario.n, samples, seed)
    )
    return min(max(min_ratio, 0.0), 1.0)


def nonlocal_prob(scenario: GhzScenario, w: float, context: MeasurementContext,
                  outcomes: OutcomePattern) -> float:
    """The nonlocal part (P_Q - w * P_L) / (1 - w) of the decomposition.

    Nonnegative only when w has been certified for the scenario; this is not
    re-checked here.  Sums to 1 over outcome patterns for any fixed context.
    """
    if not (0.0 <= w < 1.0):
        raise ValueError(f"w must lie in [0, 1), got {w}")
    pq = joint_prob_ghz(scenario, context, outcomes)
    pl = local_prob(LocalModel(scenario), context.thetas, outcomes)
    return (pq - w * pl) / (1.0 - w)
