"""Local model, lower bound on the local content, and decomposition certificates.

The quantum distribution P_Q of a GHZ scenario is decomposed as
``P_Q = w * P_L + (1 - w) * P_NL`` with P_L fully local (a product over
parties) and P_NL a valid distribution.  The local model vanishes wherever
P_Q vanishes; the largest weight it supports along the symmetric
measurement diagonal, its ratio P_Q / P_L at the saturation kink where P_L
first reaches 1, is the lower bound :func:`lower_bound`, and
:func:`certify` checks nonnegativity of ``P_Q - w * P_L`` over a
deterministic diagonal grid plus seeded random settings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
# buffers of this size (the alpha-free Kronecker product K, overwritten by
# P_Q; P_L; scratch), about 1.5 MiB in all, and a certify over several
# scenarios in a fourth (P_Q while K is kept), 2 MiB, so the arrays stay
# in a core's L2 cache and no chunk allocates a fresh one.
# Budgets from 512 KiB to 1 MiB ran alike; 512 KiB uses the least memory.
# The row cap keeps small n at 8192-row chunks; larger chunks there only
# raise peak memory.
_CERT_CHUNK_BYTES = 512 * 2**10
_CERT_MAX_ROWS = 8192

# Largest grid_points that lower_bound accepts.
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


def _party_terms(c0: float, cos_thetas):
    """Per-party signed terms r-independent part: sgn(cos t)*min(1,|cos t/c0|).

    Takes the cosines ``cos t`` of the angles.  ``cos t / |c0|`` clipped to
    [-1, 1], the same bit for bit; at c0 = 0, +-inf clips to sgn(cos t), as
    no float angle in [0, pi] has cos t = 0 (6.1e-17 at pi/2).
    """
    with np.errstate(divide="ignore"):
        return np.clip(np.divide(cos_thetas, abs(c0)), -1.0, 1.0)


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
    terms = _party_terms(model.cos_theta0, np.cos(thetas))
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
    ``cos theta0 < 0``) the exact limit :func:`_ratio_limit_at_theta0`, but
    only above the saturation kink ``pi - theta0``: a band narrower than
    1e-12 must not carry the limit onto the kink, where P_L = 1.
    A product state's P_L is its P_Q, so there the ratio is exactly 1 where P_Q > 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    pq = np.asarray(diagonal_prob(scenario, thetas))
    pl = pq if scenario.alpha == 0.0 else _diagonal_local_prob(scenario, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pl > 0.0, pq / pl, math.inf)
    t0 = theta0(scenario)
    at_zero = (np.abs(thetas - t0) <= 1e-12) & (thetas > math.pi - t0)
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


def lower_bound(scenario: GhzScenario, grid_points: int = 10000) -> float:
    """Lower bound on the local content: min of the diagonal ratio over [0, pi].

    The minimum sits at the saturation kink ``pi - theta0``, where P_L first
    reaches 1: below it P_L = 1 and the ratio is P_Q, which decreases; on
    the band ``(pi - theta0, theta0)`` the ratio increases (constant at
    n = 2; checked on dense grids, not proven); beyond ``theta0`` it is
    ``+inf``.  So the bound is the ratio
    there, ``P_Q(pi - theta0)``, which equals
    ``cos^2(2a) / (cos(a)^(2/n) + sin(a)^(2/n))^n``: ``1 - sin(2a)`` for
    n = 2, 1 for product states, 0 for maximal entanglement.
    ``grid_points`` must lie in [1000, 10**7]; the bound does not depend on it.
    """
    if not 1000 <= grid_points <= _MAX_GRID_POINTS:
        raise ValueError(
            f"grid_points must lie in [1000, {_MAX_GRID_POINTS}], got {grid_points}"
        )
    w = ratio_f(scenario, math.pi - theta0(scenario))
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


def _certification_buffers(rows: int, n: int, scenarios: int = 1):
    """Flat float64 buffers for (2^n, rows) kernel arrays.

    K (then the last scenario's P_Q), P_L and scratch, plus, for two or more
    scenarios, the P_Q of every scenario but the last.
    """
    return tuple(np.empty(rows * 2**n) for _ in range(3 if scenarios == 1 else 4))


def _alpha_free_factors(thetas: np.ndarray, buffers):
    """(K, cos theta) at theta rows (rows, n): the kernel's part that no alpha changes.

    ``K = kron_j (cos h_j, sin h_j)`` with h = theta / 2 is a (2^n, rows)
    view of the first :func:`_certification_buffers` buffer, ``cos theta``
    an (n, rows) array; the third buffer is scratch, free again on return.
    """
    k_buf, _, spare = buffers[:3]
    parties = np.ascontiguousarray(thetas.T)
    half = 0.5 * parties
    return _kron_rows(np.cos(half), np.sin(half), k_buf, spare), np.cos(parties)


def _alpha_factors(scenario: GhzScenario, k: np.ndarray, cos_parties: np.ndarray,
                   buffers, consume_k: bool):
    """(worst-phase P_Q, P_L) of one scenario from :func:`_alpha_free_factors`.

    Each is a (2^n, rows) view of one of the flat
    :func:`_certification_buffers`: P_L of the second; P_Q, with
    ``consume_k``, of ``K``'s own first, overwriting ``K`` in place, else of
    the fourth, leaving ``K`` as it was.  The last (or only) scenario of a
    chunk consumes ``K``, so a single certificate runs on three buffers and
    copies nothing.  The third buffer is scratch, free again on return.

    At the phase extremes cos(sum of phis) = +-1 the quantum probability is
    the perfect square (cos(a) prod p_j +- prod r_j sin(a) prod q_j)^2 with
    p_j, q_j the half-angle cosine/sine picked by each outcome sign, so the
    worse of the two is (A - B)^2, nonnegative by construction.

    With t_j the :func:`_party_terms`, all three factors are Kronecker
    products of per-party pairs (+1 factor, -1 factor) in the pattern order
    of ``all_outcome_patterns``:

    * ``A = cos(a) * K``
    * ``B = sin(a) * kron_j (sin h_j, cos h_j)``, ``sin(a) * K`` with its
      patterns reversed (pattern ``2^n - 1 - c`` complements every bit)
    * ``P_L = kron_j ((1 + t_j) / 2, (1 - t_j) / 2)``, built by :func:`_kron_rows`

    Each product is taken over parties left to right and the cos(a) /
    sin(a) scale is applied last.  That is the multiplication order of
    ``np.prod(..., axis=-1)`` over the dense (rows, 2^n, n) factor array,
    so every entry is bit-identical to that reference.
    """
    pl_buf, spare = buffers[1:3]
    pq_worst = k if consume_k else buffers[3][:k.size].reshape(k.shape)
    b = spare[:k.size].reshape(k.shape)
    np.multiply(k[::-1], math.sin(scenario.alpha), out=b)
    np.multiply(k, math.cos(scenario.alpha), out=pq_worst)
    pq_worst -= b
    np.square(pq_worst, out=pq_worst)
    terms = _party_terms(cos_theta0(scenario), cos_parties)
    pl = _kron_rows(0.5 * (1.0 + terms), 0.5 * (1.0 - terms), pl_buf, spare)
    return pq_worst, pl


def _certification_factors(scenario: GhzScenario, thetas: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) at theta rows (rows, n): both halves in turn."""
    return _alpha_factors(scenario, *_alpha_free_factors(thetas, buffers), buffers, True)


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


def _min_residuals(scenarios, ws, samples: int, seed: int) -> list[float]:
    """min of P_Q - w * P_L for each (scenario, w), in one pass over the rows.

    The scenarios share one n.  The pass is chunk-major and scenario-minor:
    each chunk's :func:`_alpha_free_factors` are computed once, then every
    scenario runs the same operations, in the same order, as it would
    alone, so each value is bit-identical to a batch of one.
    """
    n, last = scenarios[0].n, len(scenarios) - 1
    buffers = _certification_buffers(_chunk_rows(n), n, len(scenarios))
    residuals = [math.inf] * len(scenarios)
    for thetas in _certification_rows(n, samples, seed):
        shared = _alpha_free_factors(thetas, buffers)
        for i, (scenario, w) in enumerate(zip(scenarios, ws)):
            factors = _alpha_factors(scenario, *shared, buffers, i == last)
            residuals[i] = min(residuals[i], _min_residual(*factors, w))
    return residuals


def certify(scenario: GhzScenario | Sequence[GhzScenario], w: float | Sequence[float],
            samples: int = 100_000,
            seed: int = 0) -> DecompositionCertificate | list[DecompositionCertificate]:
    """Check P_Q - w * P_L >= 0 over the diagonal grid and seeded random settings.

    Every random setting draws independent per-party polar angles; all 2^n
    outcome patterns and both extreme phase sums (cos = +-1) are evaluated at
    each setting.  Identical seed and sample count give an identical
    certificate regardless of evaluation chunking.

    Given equal-length sequences of scenarios that share one party count
    and of weights, certifies every pair in one pass over the settings and
    returns a list of :class:`DecompositionCertificate`, each equal to the
    matching single call; an empty pair of sequences gives ``[]``.  Every
    weight is checked before anything is computed.
    """
    batch = not isinstance(scenario, GhzScenario)
    scenarios, ws = (list(scenario), list(w)) if batch else ([scenario], [w])
    if len(scenarios) != len(ws):
        raise ValueError(f"got {len(scenarios)} scenarios and {len(ws)} weights")
    for weight in ws:
        if not (0.0 <= weight <= 1.0):
            raise ValueError(f"w must lie in [0, 1], got {weight}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    party_counts = sorted({sc.n for sc in scenarios})
    if len(party_counts) > 1:
        raise ValueError(f"scenarios must share one party count, got {party_counts}")
    residuals = _min_residuals(scenarios, ws, samples, seed) if scenarios else []
    certificates = [
        DecompositionCertificate(
            w=weight,
            min_residual=min_residual,
            samples=samples,
            seed=seed,
            violated=bool(min_residual < -CERT_TOLERANCE),
        )
        for weight, min_residual in zip(ws, residuals)
    ]
    return certificates if batch else certificates[0]


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
