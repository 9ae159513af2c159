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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    _diagonal_amplitude,
    _vanishing_cos,
    diagonal_prob,
    joint_prob_ghz,
)

# A certificate is violated when the worst observed residual P_Q - w*P_L
# drops below -CERT_TOLERANCE.
CERT_TOLERANCE = 1e-9

# Number of points of the deterministic all-parties-equal grid that certify()
# always evaluates in addition to the random samples.
DIAG_GRID_POINTS = 2001

# Byte budget of one float64 (rows, 2^n) array of the certification kernel,
# which sizes its chunks: 8192 rows up to n = 9, 1024 rows at n = 12.  The
# kernel holds about three such arrays at once, so certification peaks near
# 100 MiB of arrays at every n <= 12.  The row cap keeps small n at
# 8192-row chunks; larger chunks there only raise peak memory.
_CERT_CHUNK_BYTES = 32 * 2**20
_CERT_MAX_ROWS = 8192

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def cos_theta0(scenario: GhzScenario) -> float:
    """cos of the diagonal angle where P_Q (all outcomes +1) vanishes.

    ``-(1 - tan(a)^(2/n)) / (1 + tan(a)^(2/n))``; equals -1 for a product
    state and 0 for the maximally entangled state.
    """
    return _vanishing_cos(scenario)


def theta0(scenario: GhzScenario) -> float:
    """The vanishing angle itself, in [pi/2, pi]."""
    return math.acos(cos_theta0(scenario))


@dataclass(frozen=True)
class LocalModel:
    """Factorized outcome distribution pinned to vanish at the diagonal zero.

    Per party: ``[1 + r * sgn(cos t) * min(1, |cos t / cos t0|)] / 2``, with
    ``sgn(0) = 0`` and, when ``cos t0 = 0`` (maximal entanglement), the ratio
    treated as its limit so the min is 1 for any ``cos t != 0``.
    """

    scenario: GhzScenario
    cos_theta0: float | None = None

    def __post_init__(self):
        expected = cos_theta0(self.scenario)
        if self.cos_theta0 is None:
            object.__setattr__(self, "cos_theta0", expected)
        elif abs(self.cos_theta0 - expected) > 1e-15:
            raise ValueError(
                f"cos_theta0 {self.cos_theta0!r} does not reproduce the "
                f"scenario value {expected!r}"
            )


def _party_terms(c0: float, thetas):
    """Per-party signed terms r-independent part: sgn(cos t)*min(1,|cos t/c0|)."""
    u = np.cos(np.asarray(thetas, dtype=float))
    if c0 == 0.0:
        return np.sign(u)
    return np.sign(u) * np.minimum(1.0, np.abs(u) / abs(c0))


def local_prob(model: LocalModel, thetas, outcomes: OutcomePattern) -> float:
    """P_L(r|thetas): product of per-party factors, normalized over outcomes."""
    thetas = np.asarray(thetas, dtype=float)
    n = model.scenario.n
    if thetas.shape != (n,) or len(outcomes) != n:
        raise ValueError(
            f"expected {n} angles and outcomes, got {thetas.shape} and {len(outcomes)}"
        )
    if np.any(thetas < 0.0) or np.any(thetas > math.pi):
        raise ValueError("angles must lie in [0, pi]")
    terms = _party_terms(model.cos_theta0, thetas)
    return float(np.prod(0.5 * (1.0 + outcomes.signs() * terms)))


def _diagonal_local_prob(scenario: GhzScenario, theta):
    """P_L on the diagonal with all outcomes +1 (vectorized over theta).

    In the unsaturated region the per-party factor (1 + cos t / cos t0)/2 is
    evaluated as sin((t0+t)/2) sin((t0-t)/2) / |cos t0|, which avoids the
    catastrophic cancellation of the direct difference near t0 and near pi.
    """
    theta = np.asarray(theta, dtype=float)
    c0 = cos_theta0(scenario)
    if c0 == 0.0:
        factor = 0.5 * (1.0 + np.sign(np.cos(theta)))
    else:
        t0 = math.acos(c0)
        factor = np.sin(0.5 * (t0 + theta)) * np.sin(0.5 * (t0 - theta)) / (-c0)
        factor = np.where(theta <= math.pi - t0, 1.0, factor)
        factor = np.where(theta >= t0, 0.0, factor)
    return factor**scenario.n


def ratio_f(scenario: GhzScenario, theta: float) -> float:
    """Quantum/local probability ratio along the diagonal, all outcomes +1.

    Returns ``+inf`` where the local model vanishes but P_Q does not (the
    whole region beyond the vanishing angle).  At the vanishing angle itself
    both have zeros; the value is the stable directional limit when one
    exists (n = 2, where both zeros are quadratic) and ``+inf`` otherwise.
    """
    if not (0.0 <= theta <= math.pi):
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    c0 = cos_theta0(scenario)
    if c0 < 0.0 and abs(theta - theta0(scenario)) <= 1e-12:
        return _ratio_limit_at_theta0(scenario)
    pq = diagonal_prob(scenario, theta)
    pl = float(_diagonal_local_prob(scenario, theta))
    if pl > 0.0:
        return pq / pl
    return math.inf


def _ratio_limit_at_theta0(scenario: GhzScenario) -> float:
    """Directional limit of the ratio at the common zero of P_Q and P_L.

    Both zeros are quadratic for n = 2, so offset evaluation converges
    quadratically; a tenfold-smaller offset cross-checks stability.  A value
    still growing at the smaller offset (denominator zero of higher order,
    n >= 3) is reported as +inf.
    """
    t0 = theta0(scenario)
    estimates = []
    for delta in (1e-5, 1e-6):
        vals = []
        for t in (t0 - delta, t0 + delta):
            if not (0.0 <= t <= math.pi):
                continue
            pl = float(_diagonal_local_prob(scenario, t))
            if pl > 0.0:
                vals.append(diagonal_prob(scenario, t) / pl)
        if not vals:
            return math.inf
        estimates.append(sum(vals) / len(vals))
    if abs(estimates[1] - estimates[0]) <= 1e-6 * max(1.0, abs(estimates[1])):
        return estimates[1]
    return math.inf


def _golden_section_min(fun, a: float, b: float, tol: float):
    """Golden-section minimum of fun on [a, b]; returns min of evaluated values."""
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = fun(c), fun(d)
    best = min(fc, fd)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _GOLDEN
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _GOLDEN
            fd = fun(d)
        best = min(best, fc, fd)
    return best


def lower_bound(scenario: GhzScenario, grid_points: int = 10000,
                refine_tol: float = 1e-10) -> float:
    """Lower bound on the local content: min of the diagonal ratio over [0, pi].

    Dense grid evaluation, golden-section refinement around every bracketing
    local minimum (capped to the deepest few dozen when float noise on an
    exactly flat stretch produces spurious ties), plus the limit value at the
    common-zero angle.  Gives ``1 - sin(2a)`` for n = 2, 1 for product
    states, 0 for maximal entanglement.
    """
    if grid_points < 1000:
        raise ValueError(f"grid_points must be at least 1000, got {grid_points}")
    if refine_tol <= 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol}")
    thetas = np.linspace(0.0, math.pi, grid_points)
    pq = _diagonal_amplitude(scenario, thetas) ** 2
    pl = _diagonal_local_prob(scenario, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pl > 0.0, pq / pl, math.inf)
    finite = f[np.isfinite(f)]
    candidates = [float(finite.min())] if finite.size else []

    interior = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:]))[0] + 1
    if interior.size > 64:
        # Spurious ulp-level ties flood flat stretches; the deepest brackets
        # cover every genuinely distinct basin.
        interior = interior[np.argsort(f[interior], kind="stable")[:64]]
    fun = lambda t: ratio_f(scenario, t)
    for i in interior:
        candidates.append(
            _golden_section_min(fun, thetas[i - 1], thetas[i + 1], refine_tol)
        )

    candidates.append(ratio_f(scenario, theta0(scenario)))
    candidates.append(ratio_f(scenario, 0.0))
    candidates.append(ratio_f(scenario, math.pi))
    w = min(c for c in candidates if not math.isnan(c))
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


def _kron_rows(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of per-party pairs (plus[:, j], minus[:, j]).

    Returns shape (rows, 2^n).  Party 0 is the most significant bit of the
    column index and bit value 0 selects the +1 factor, which is the order
    of :func:`ghzlocal.qcore.all_outcome_patterns`.  Each column is the
    product over parties taken left to right, ``((f_0 * f_1) * f_2) ...``.
    """
    rows, n = plus.shape
    out = np.stack((plus[:, 0], minus[:, 0]), axis=1)
    for j in range(1, n):
        pair = np.stack((plus[:, j], minus[:, j]), axis=1)
        out = (out[:, :, None] * pair[:, None, :]).reshape(rows, -1)
    return out


def _residual_extrema(scenario: GhzScenario, w: float, thetas: np.ndarray,
                      patterns: np.ndarray | None = None):
    """(min residual, min ratio) over theta rows x all patterns x both phase signs.

    The residual is P_Q - w * P_L; the ratio P_Q / P_L is tracked where P_L
    is meaningfully positive (used by the fallback weight).  At the phase
    extremes cos(sum of phis) = +-1 the quantum probability is the perfect
    square (cos(a) prod p_j +- prod r_j sin(a) prod q_j)^2 with p_j, q_j the
    half-angle cosine/sine picked by each outcome sign, so the worse of the
    two is (A - B)^2, nonnegative by construction.

    With h = theta / 2 and t_j the :func:`_party_terms`, all three factors
    are row-wise Kronecker products of per-party pairs (+1 factor, -1
    factor), built by :func:`_kron_rows` as (rows, 2^n) arrays in the
    pattern order of ``all_outcome_patterns``:

    * ``A = cos(a) * kron_j (cos h_j, sin h_j)``
    * ``B = sin(a) * kron_j (sin h_j, cos h_j)``
    * ``P_L = kron_j ((1 + t_j) / 2, (1 - t_j) / 2)``

    Each product is taken over parties left to right and the cos(a) /
    sin(a) scale is applied last.  That is the multiplication order of
    ``np.prod(..., axis=-1)`` over the dense (rows, 2^n, n) factor array,
    so both returned values are bit-identical to that reference, at
    1/n of its memory.  ``patterns``, when given, must be
    ``outcome_sign_matrix(n)``: the column order is fixed by the
    construction above, and any other matrix is refused.
    """
    n = scenario.n
    if patterns is not None:
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        if np.shape(patterns) != (2**n, n) or not np.array_equal(patterns, 1 - 2 * bits):
            raise ValueError(
                f"patterns must be outcome_sign_matrix({n}), shape {(2**n, n)}"
            )
    half = 0.5 * thetas
    ch, sh = np.cos(half), np.sin(half)
    pq_worst = _kron_rows(ch, sh)
    pq_worst *= math.cos(scenario.alpha)
    b = _kron_rows(sh, ch)
    b *= math.sin(scenario.alpha)
    pq_worst -= b
    del b
    np.square(pq_worst, out=pq_worst)
    terms = _party_terms(cos_theta0(scenario), thetas)
    pl = _kron_rows(0.5 * (1.0 + terms), 0.5 * (1.0 - terms))
    scratch = w * pl
    np.subtract(pq_worst, scratch, out=scratch)
    min_residual = float(np.min(scratch))
    positive = pl > 1e-12
    if np.any(positive):
        scratch.fill(math.inf)
        np.divide(pq_worst, pl, out=scratch, where=positive)
        min_ratio = float(np.min(scratch))
    else:
        min_ratio = math.inf
    return min_residual, min_ratio


def _certification_scan(scenario: GhzScenario, w: float, samples: int, seed: int,
                        chunk: int | None = None):
    """(min residual, min ratio) over the diagonal grid and the sample stream.

    Both sets go through the kernel in chunks of ``chunk`` rows, by default
    as many as fit ``_CERT_CHUNK_BYTES`` per (rows, 2^n) array, at most
    ``_CERT_MAX_ROWS``.
    """
    n = scenario.n
    if chunk is None:
        chunk = min(_CERT_MAX_ROWS, _CERT_CHUNK_BYTES // (8 * 2**n))
    grid = np.linspace(0.0, math.pi, DIAG_GRID_POINTS)
    diagonal = (np.repeat(grid[start:start + chunk, None], n, axis=1)
                for start in range(0, DIAG_GRID_POINTS, chunk))
    stream = (certification_thetas(seed, start, min(chunk, samples - start), n)
              for start in range(0, samples, chunk))
    min_residual = min_ratio = math.inf
    for thetas in itertools.chain(diagonal, stream):
        res, ratio = _residual_extrema(scenario, w, thetas)
        min_residual = min(min_residual, res)
        min_ratio = min(min_ratio, ratio)
    return min_residual, min_ratio


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
    min_residual, _ = _certification_scan(scenario, w, samples, seed)
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
    _, min_ratio = _certification_scan(scenario, 0.0, samples, seed)
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
