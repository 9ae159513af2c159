"""Local model, lower bound on the local content, and decomposition certificates.

The quantum distribution P_Q of a GHZ scenario is decomposed as
``P_Q = w * P_L + (1 - w) * P_NL`` with P_L fully local (a product over
parties) and P_NL a valid distribution.  The local model vanishes wherever
P_Q vanishes; the largest weight it supports along the symmetric
measurement diagonal, its ratio P_Q / P_L at the saturation kink where P_L
first reaches 1, is the lower bound :func:`lower_bound`, and
:func:`certify` checks nonnegativity of ``P_Q - w * P_L`` over a
deterministic diagonal grid plus seeded random settings.  The certificates
reduce the pieces of the certification kernel, :mod:`ghzlocal._kernel`,
whose one entry is :func:`ghzlocal._kernel.factor_pieces`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ._kernel import DIAG_GRID_POINTS, block_pieces, certification_thetas, factor_pieces
from .qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    _integer,
    _party_terms,
    cos_theta0,
    diagonal_prob,
    joint_prob_ghz,
    outcome_sign_matrix,
    theta0,
)

# A certificate is violated when the worst observed residual P_Q - w*P_L
# drops below -CERT_TOLERANCE.
CERT_TOLERANCE = 1e-9

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


def ratio_f(scenario: GhzScenario, theta):
    """Quantum/local probability ratio along the diagonal, all outcomes +1.

    Returns ``+inf`` where the local model vanishes but P_Q does not (the
    whole region beyond the vanishing angle).  At the vanishing angle itself
    both vanish, and the value is the ratio's exact limit there:
    ``1 - sin 2a`` for n = 2, ``+inf`` for n >= 3, 1 for a product state.
    That limit is taken where the evaluated P_L is exactly 0 within 1e-12
    of the vanishing angle (when ``cos theta0 < 0``); wherever P_L is
    positive the ratio is the quotient itself, also inside a band
    ``(pi - theta0, theta0)`` narrower than 1e-12.  A product state's P_L
    is its P_Q, so there the ratio is exactly 1 where P_Q > 0.
    ``theta`` may be a float or an array of angles, all in [0, pi]; the
    result is a float or an array of the same shape.
    """
    thetas = np.asarray(theta, dtype=float)
    pq = np.asarray(diagonal_prob(scenario, thetas))
    pl = pq if scenario.alpha == 0.0 else _diagonal_local_prob(scenario, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pl > 0.0, pq / pl, math.inf)
    at_zero = (pl == 0.0) & (np.abs(thetas - theta0(scenario)) <= 1e-12)
    if cos_theta0(scenario) < 0.0 and at_zero.any():
        f = np.where(at_zero, _ratio_limit_at_theta0(scenario), f)
    return float(f) if thetas.ndim == 0 else f


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
    ``grid_points`` must be an integer in [1000, 10**7]; the bound does not
    depend on it.
    """
    grid_points = _integer("grid_points", grid_points)
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


def _min_residual(pq_worst: np.ndarray, pl: np.ndarray, w: float) -> float:
    """min of P_Q - w * P_L over the factor arrays; overwrites ``pl``."""
    pl *= w
    np.subtract(pq_worst, pl, out=pl)
    return float(np.minimum.reduce(pl, axis=None))


def _min_ratio(pq_worst: np.ndarray, pl: np.ndarray) -> float:
    """min of P_Q / P_L where P_L is meaningfully positive, else ``+inf``.

    The ratio overwrites ``pq_worst``.
    """
    positive = pl > 1e-12
    np.divide(pq_worst, pl, out=pq_worst, where=positive)
    return float(np.minimum.reduce(pq_worst, axis=None, where=positive, initial=math.inf))


def _residual_extrema(scenario: GhzScenario, w: float, thetas: np.ndarray,
                      patterns: np.ndarray | None = None):
    """(min residual, min ratio) over theta rows x all patterns x both phase signs.

    The dense reference of the certification kernel: every entry, live or
    not.  The residual is P_Q - w * P_L, the quantity :func:`certify`
    bounds; the ratio P_Q / P_L, taken where P_L is meaningfully positive,
    is the one :func:`sampled_min_ratio` bounds.  Both are reduced over the
    dense pieces of :func:`ghzlocal._kernel.block_pieces`, from ``+inf``, so
    both are bit-identical to the dense (rows, 2^n, n) reference.  ``patterns``,
    when given, must be ``outcome_sign_matrix(n)``: the pattern order is
    fixed by the construction, and any other matrix is refused.

    Flipping outcome ``r_j`` is the reflection ``theta_j -> pi - theta_j``
    (it swaps cos h_j and sin h_j in all three factors), so the certificate
    checks one function of theta over ``[0, pi]^n``.
    """
    n = scenario.n
    if patterns is not None and not np.array_equal(patterns, outcome_sign_matrix(n)):
        raise ValueError(
            f"patterns must be outcome_sign_matrix({n}), shape {(2**n, n)}"
        )
    min_residual = min_ratio = math.inf
    for _, _, pq_worst, pl in block_pieces([scenario], thetas, dense=True):
        min_ratio = min(min_ratio, _min_ratio(pq_worst.copy(), pl))
        min_residual = min(min_residual, _min_residual(pq_worst, pl, w))
    return min_residual, min_ratio


def _min_residuals(scenarios, ws, samples: int, seed: int) -> list[float]:
    """min of P_Q - w * P_L for each (scenario, w), in one pass over the rows.

    The scenarios share one n.  Every minimum starts at 0.0, the exact
    residual of the grid row theta = 0 at each pattern that mixes the two
    outcomes: there both K products hold a factor sin 0 = 0 and P_L one
    (1 - 1) / 2 = 0.  That row, when the row bound skips it, has no
    residual below that 0.0; nor has any other row it skips, and every
    entry that the kernel's pieces leave out has a residual P_Q >= 0, so
    each value is the dense kernel's minimum.  At w = 0 every residual is
    P_Q >= 0, so that minimum is 0.0 and no row is evaluated for it.
    """
    residuals = [0.0] * len(scenarios)
    evaluated = [i for i, w in enumerate(ws) if w != 0.0]
    if not evaluated:
        return residuals
    pieces = factor_pieces([scenarios[i] for i in evaluated], samples, seed,
                           [ws[i] for i in evaluated])
    for k, _, pq_worst, pl in pieces:
        i = evaluated[k]
        residuals[i] = min(residuals[i], _min_residual(pq_worst, pl, ws[i]))
    return residuals


def _alpha_zero_rounding(n: int) -> float:
    """How far below 0 rounding can take a certificate residual at alpha = 0: ``16 n 2^-53``.

    At alpha = 0 (also -0.0) the state is a product state, ``cos a = 1.0``
    and ``sin a = +-0.0`` exactly, and ``cos t0 = -1.0``.  So at every row
    and pattern the kernel computes, with u = 2^-53 and the half angles
    ``h_j = t_j / 2`` (halving is exact):

    * ``P_Q = fl(K^2)``, with K the left-to-right product of n values, each
      ``fl(cos h_j)`` or ``fl(sin h_j)`` (``A = K * 1.0`` and ``B = +-0.0``);
    * ``P_L``, the left-to-right product of n factors
      ``fl(0.5 * fl(1 +- c_j))``, with c_j = fl(cos t_j) / 1.0 clipped
      to [-1, 1];
    * the residual ``fl(P_Q - fl(w * P_L))``.

    The two-pattern and live paths compute the same entries bit for bit.
    Exactly, ``cos^2 h = (1 + cos t) / 2`` and ``sin^2 h = (1 - cos t) / 2``,
    so ``K^2 = P_L`` and the residual is ``(1 - w) P_L >= 0`` for w <= 1.
    Take libm's (and numpy's SIMD) cos and sin within 4 ulp; every value
    lies in [-1, 1], where an ulp below 1 is at most u, so each ``fl(cos
    h_j)``, ``fl(sin h_j)`` and c_j is within 4u of its exact value (the
    clip moves no value away from a cosine in [-1, 1]).  To first order
    in u, on values of at most 1:

    * K: n values off by 4u and n - 1 products rounded by u,
      ``|fl(K) - K| <= (5n - 1) u``; squaring doubles that (both are at
      most 1) and rounds once more, ``|P_Q - K^2| <= (10n - 1) u``;
    * P_L: each factor is off by 2u from c_j and u from rounding
      ``1 +- c_j``, 3u, and n - 1 products add u each,
      ``|fl(P_L) - P_L| <= (4n - 1) u``;
    * ``w * P_L`` rounds by at most u, and the subtraction rounds a
      negative result by the relative u only.

    So every residual is at least ``-(14n - 1) u (1 + u)`` up to terms in
    ``(n u)^2``, above ``-16 n u``: 2.1e-14 at 12 parties, five orders of
    magnitude inside ``CERT_TOLERANCE``.  The bound holds at every angle
    setting, not only the sampled ones, so a product state's certificate
    passes at every sample count and seed.
    """
    return 16 * n * 2.0**-53


def _certify_pairs(scenario, w) -> tuple[list, list]:
    """(scenarios, weights) of a certify call, or ValueError naming the expected form.

    Takes one scenario with one real weight, or a sequence of scenarios
    with a sequence of real weights (a string is no such sequence).
    """
    if isinstance(scenario, GhzScenario):
        if not isinstance(w, numbers.Real):
            raise ValueError(f"w must be a real number for one scenario, got {w!r}")
        return [scenario], [w]
    if isinstance(scenario, (str, bytes)) or not isinstance(scenario, Iterable):
        raise ValueError(f"scenario must be a GhzScenario or a sequence of them, got {scenario!r}")
    scenarios = list(scenario)
    if not all(isinstance(sc, GhzScenario) for sc in scenarios):
        raise ValueError(f"scenario must be a GhzScenario or a sequence of them, got {scenarios!r}")
    ws = list(w) if isinstance(w, Iterable) and not isinstance(w, (str, bytes)) else None
    if ws is None or not all(isinstance(weight, numbers.Real) for weight in ws):
        raise ValueError(
            f"w must be a sequence of real numbers, one per scenario, got {w!r}")
    return scenarios, ws


def certify(scenario: GhzScenario | Sequence[GhzScenario], w: float | Sequence[float],
            samples: int = 100_000,
            seed: int = 0) -> DecompositionCertificate | list[DecompositionCertificate]:
    """Check P_Q - w * P_L >= 0 over the diagonal grid and seeded random settings.

    Every random setting draws independent per-party polar angles; all 2^n
    outcome patterns and both extreme phase sums (cos = +-1) are evaluated at
    each setting.  Identical seed and sample count give an identical
    certificate regardless of evaluation chunking.  ``samples`` and ``seed``
    must be integers (numpy integers included), ``samples`` nonnegative.

    ``min_residual`` is never positive: the grid row theta = 0 has exact
    zeros, so it is exactly 0.0 at w = 0, where no row is evaluated.  The
    rows run through :func:`ghzlocal._kernel.factor_pieces`.  A scenario
    skips every row that a bound on its least P_Q / P_L, its ratio at the
    forced pattern (proved in :func:`ghzlocal._kernel._surviving_rows`),
    proves positive at its weight, and reads a row with few unsaturated
    parties only at its patterns with P_L > 0.  Every other entry has
    residual P_Q >= 0, so the value is the one of the full evaluation, bit
    for bit.

    Given equal-length sequences of scenarios that share one party count
    and of real weights, certifies every pair in one pass over the
    settings and returns a list of :class:`DecompositionCertificate`, each
    equal to the matching single call; an empty pair of sequences gives
    ``[]``.  The memory of the pass does not grow with the scenarios.  A
    single scenario takes a single real weight; any other pairing is
    refused with ValueError, and every weight is checked before anything
    is computed.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    batch = not isinstance(scenario, GhzScenario)
    scenarios, ws = _certify_pairs(scenario, w)
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
    ``samples`` and ``seed`` must be integers, ``samples`` nonnegative.  The
    ratio is read only where P_L > 1e-12, so the rows with few unsaturated
    parties are evaluated only at patterns with P_L > 0, as in
    :func:`certify`, with the same value as the full evaluation, bit for bit.
    """
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    min_ratio = min(
        (_min_ratio(pq_worst, pl)
         for _, _, pq_worst, pl in factor_pieces([scenario], samples, seed)),
        default=math.inf,
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
