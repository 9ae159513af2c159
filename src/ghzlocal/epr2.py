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
import numbers
import operator
from collections.abc import Iterable, Sequence
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

# From this many parties on, rows with few unsaturated parties skip the
# patterns where P_L is exactly 0 (the live path, :func:`_live_group`); at
# 6 parties it ran no faster than the dense kernel.  The rows then come in
# blocks of at least _LIVE_BLOCK_ROWS, so that each of its calls spans many
# rows; it builds its factors in the dense kernel's buffers.
_LIVE_MIN_PARTIES = 7
_LIVE_BLOCK_ROWS = 1024

# From this many parties up to _LIVE_MIN_PARTIES, the dense pass sends the
# rows with at most one unsaturated party past the dense kernel
# (:func:`_two_pattern_rows`); 3 parties, with 6 of 8 entries a row to
# save, keep the plain dense kernel.  Sorting a block, taking its columns
# and gathering its patterns costs about as much as _SPLIT_ROW_COST dense
# entries per row (measured at 4 to 6 parties, with margin for the
# two-pattern rows' own work).  Blocks that may split
# hold _SPLIT_BLOCK_ROWS rows, two to four chunks at 5 and 6 parties, so
# that one sort spans several chunks (an 11-alpha batch ran 9 % faster
# than with 2048-row blocks); blocks that cannot split stay chunk-sized,
# where 4096 rows ran 2 % slower at 5 parties.
_SPLIT_MIN_PARTIES = 4
_SPLIT_BLOCK_ROWS = 4096
_SPLIT_ROW_COST = 32

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

    ``+inf`` where P_L vanishes; where the evaluated P_L is exactly 0
    within 1e-12 of the vanishing angle (when ``cos theta0 < 0``), the
    exact limit :func:`_ratio_limit_at_theta0`.  Wherever P_L is positive
    the ratio is the quotient itself, also inside a band
    ``(pi - theta0, theta0)`` narrower than 1e-12.
    A product state's P_L is its P_Q, so there the ratio is exactly 1 where P_Q > 0.
    """
    thetas = np.asarray(thetas, dtype=float)
    pq = np.asarray(diagonal_prob(scenario, thetas))
    pl = pq if scenario.alpha == 0.0 else _diagonal_local_prob(scenario, thetas)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(pl > 0.0, pq / pl, math.inf)
    at_zero = (pl == 0.0) & (np.abs(thetas - theta0(scenario)) <= 1e-12)
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
    return np.ascontiguousarray(_certification_parties(seed, start, count, n).T)


def _certification_parties(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """:func:`certification_thetas` in the kernel's (n, count) layout, computed in it."""
    mask = 0xFFFFFFFFFFFFFFFF
    seed_mix = ((seed & mask) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & mask
    idx = np.arange(start, start + count, dtype=np.uint64)[None, :] * np.uint64(
        n
    ) + np.arange(n, dtype=np.uint64)[:, None]
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


def _alpha_free_factors(parties: np.ndarray, buffers):
    """K of one dense chunk from its (n, rows) angles: the part no alpha changes.

    ``K = kron_j (cos h_j, sin h_j)`` with h = theta / 2 is a (2^n, rows)
    view of the first :func:`_certification_buffers` buffer; the third
    buffer is scratch, free again on return.
    """
    half = 0.5 * parties
    return _kron_rows(np.cos(half), np.sin(half), buffers[0], buffers[2])


def _alpha_factors(scenario: GhzScenario, k: np.ndarray, terms: np.ndarray,
                   buffers, consume_k: bool):
    """(worst-phase P_Q, P_L) of one scenario from K and its (n, rows) :func:`_party_terms`.

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
    pl = _kron_rows(0.5 * (1.0 + terms), 0.5 * (1.0 - terms), pl_buf, spare)
    return pq_worst, pl


def _certification_factors(scenario: GhzScenario, thetas: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) at theta rows (rows, n) on the dense kernel."""
    parties = np.ascontiguousarray(thetas.T)
    terms = _party_terms(cos_theta0(scenario), np.cos(parties))
    return _alpha_factors(scenario, _alpha_free_factors(parties, buffers), terms, buffers, True)


def _may_split(n: int, scenarios: int) -> bool:
    """Whether a block of ``scenarios`` scenarios at n parties may run
    :func:`_two_pattern_rows`: a two-pattern row saves ``2^n - 2`` entries
    at each scenario, which must be able to exceed ``_SPLIT_ROW_COST``."""
    return (_SPLIT_MIN_PARTIES <= n < _LIVE_MIN_PARTIES
            and scenarios * ((1 << n) - 2) > _SPLIT_ROW_COST)


def _two_pattern_rows(scenarios, parties: np.ndarray, cos_parties: np.ndarray):
    """One block's rows sorted for the two-pattern suffix, or ``None``.

    Returns the sorted (n, rows) angles and cosines, each scenario's count
    of dense rows, the (4, rows) patterns and each row's smallest
    ``|cos t_j|``.

    The rows are sorted by their second-smallest ``|cos t_j|``.  A row
    whose key reaches a scenario's ``|cos t0|`` has at most one
    unsaturated party, the one of smallest ``|cos t_j|``: for doubles
    ``x, y >= 0``, ``fl(x / y) >= 1`` exactly when ``x >= y``, so
    :func:`_party_terms` clips every other party to +-1.  The key holds no
    alpha, so one sort serves every scenario: each scenario's dense rows
    come first, as many as ``searchsorted`` finds below its ``|cos t0|``,
    and its two-pattern rows form the suffix.

    A row's patterns are: every party at the outcome of its cosine's
    sign, where each saturated party's P_L factor is 1.0; the same with
    the parties of smallest ``|cos t_j|`` flipped (one party, or at a tie
    saturated parties only); and the complements of the two.

    ``None``, and every row runs the dense kernel, unless
    :func:`_may_split` and the entries that the two-pattern rows save
    (``2^n - 2`` a row), summed over the scenarios, exceed
    ``_SPLIT_ROW_COST`` per row of the block.  A count at the smallest
    ``|cos t0|`` alone bounds that sum before the keys are computed.
    """
    n, rows = cos_parties.shape
    if not _may_split(n, len(scenarios)):
        return None
    bounds = np.array([abs(cos_theta0(sc)) for sc in scenarios])
    cost, saved = _SPLIT_ROW_COST * rows, (1 << n) - 2
    magnitudes = np.abs(cos_parties)
    unsaturated = np.add.reduce(magnitudes < bounds.min(), axis=0, dtype=np.uint8)
    if len(bounds) * np.count_nonzero(unsaturated <= 1) * saved <= cost:
        return None
    least, second, spare = magnitudes[0].copy(), np.full(rows, math.inf), np.empty(rows)
    for m in magnitudes[1:]:
        np.minimum(second, np.maximum(least, m, out=spare), out=second)
        np.minimum(least, m, out=least)
    if np.count_nonzero(second >= bounds[:, None]) * saved <= cost:
        return None
    order = np.argsort(second)
    parties, cos_parties, least = (parties.take(order, axis=1), cos_parties.take(order, axis=1),
                                   least[order])
    bits = 2.0 ** np.arange(n - 1, -1, -1)
    forced = (bits @ (cos_parties < 0.0)).astype(np.intp)
    flipped = forced ^ (bits @ (np.abs(cos_parties) == least)).astype(np.intp)
    patterns = np.stack((forced, flipped, (1 << n) - 1 - forced, (1 << n) - 1 - flipped))
    ends = np.searchsorted(second[order], bounds).tolist()
    return parties, cos_parties, ends, patterns, least


def _two_pattern_factors(scenario: GhzScenario, k_patterns: np.ndarray, least: np.ndarray):
    """(worst-phase P_Q, P_L) of rows with at most one unsaturated party, at two patterns.

    ``k_patterns`` holds the dense chunk's K at the rows' two patterns
    from :func:`_two_pattern_rows` and at their complements, and ``least``
    the rows' smallest ``|cos t_j|``; every other pattern has P_L = 0.
    P_Q takes the dense kernel's operations on the dense kernel's K
    entries.  A saturated party's P_L factor at the outcome of its sign is
    exactly ``0.5 * (1 + 1) = 1.0``, so P_L is the other party's factor,
    ``(1 +- |t|) / 2``, and 0.0 where a tie flips two saturated parties:
    the dense entries bit for bit.
    """
    pq_worst = k_patterns[0:2] * math.cos(scenario.alpha)
    pq_worst -= k_patterns[2:4] * math.sin(scenario.alpha)
    np.square(pq_worst, out=pq_worst)
    terms = _party_terms(cos_theta0(scenario), least)
    pl = np.empty_like(pq_worst)
    np.add(1.0, terms, out=pl[0])
    np.subtract(1.0, terms, out=pl[1])
    pl *= 0.5
    return pq_worst, pl


def _dense_factors(scenarios, parties: np.ndarray, cos_parties: np.ndarray, buffers):
    """(index, worst-phase P_Q, P_L) of every scenario at every row of a block.

    ``parties`` holds the (n, rows) angles and ``cos_parties`` their
    cosines, cut into chunks of :func:`_chunk_rows` rows.  The pass is
    chunk-major and scenario-minor: each chunk's K is built once, then
    every scenario runs the same operations, in the same order, as it
    would alone, so each entry is bit-identical to a batch of one.

    When :func:`_two_pattern_rows` sorts the block, a scenario's
    two-pattern rows read only their two live patterns, gathered from the
    shared K (:func:`_two_pattern_factors`), and its other rows run the
    dense kernel on a prefix of each chunk.  Every entry skipped has
    P_L = 0, whose residual is P_Q >= 0 and whose ratio is never taken.
    """
    if not scenarios:
        return
    n, rows = parties.shape
    split = _two_pattern_rows(scenarios, parties, cos_parties)
    if split is None:
        ends, patterns, least = [rows] * len(scenarios), None, None
    else:
        parties, cos_parties, ends, patterns, least = split
    chunk = _chunk_rows(n)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        k = _alpha_free_factors(parties[:, start:stop], buffers)
        first = max(start, min(ends))
        if first < stop:
            # K is a C-contiguous (2^n, stop - start) view: entry
            # (pattern, column) sits at flat index pattern * width + column.
            columns = np.arange(first - start, stop - start)
            k_patterns = k.take(patterns[:, first:stop] * (stop - start) + columns)
        for i, scenario in enumerate(scenarios):
            if ends[i] < stop:
                top = max(ends[i], start)
                yield i, *_two_pattern_factors(scenario, k_patterns[:, top - first:],
                                               least[top:stop])
        active = [i for i, end in enumerate(ends) if end > start]
        for i in active:
            part = slice(start, min(ends[i], stop))
            terms = _party_terms(cos_theta0(scenarios[i]), cos_parties[:, part])
            yield i, *_alpha_factors(scenarios[i], k[:, :part.stop - start], terms, buffers,
                                     i == active[-1])


def _live_max_unsaturated(n: int, entries: int) -> int:
    """Most unsaturated parties a row may have and still run the live path.

    Each of a row's 2^u live entries costs about as much as n entries of
    the dense kernel (measured from 6 to 12 parties), so the rows with
    ``2n * 2^u <= 2^n`` run the live path at most at half their dense cost;
    and the row's (3, 2^u, n) factors must fit a buffer of ``entries``.
    """
    return min((1 << n) // (2 * n), entries // (3 * n)).bit_length() - 1


def _live_group(scenario: GhzScenario, parties: np.ndarray, terms: np.ndarray, u: int,
                buffers):
    """(worst-phase P_Q, P_L) at the live patterns of rows with u unsaturated parties.

    Takes the (n, rows) angles and :func:`_party_terms` of those rows and
    returns (2^u, rows) arrays, whose pattern index holds the outcomes of
    the unsaturated parties, the first of them in the most significant bit.
    A saturated party (term +-1) has one P_L factor exactly 0, so its
    outcome is forced; every other pattern has P_L = 0.

    K, its complement ``Kr = kron_j (sin h_j, cos h_j)`` and P_L are each a
    product over all parties, left to right, of the factor that the
    pattern picks, a saturated party's forced one included: the dense
    kernel's factors in its order, so every entry is bit-identical to the
    dense entry of its pattern.  (A forced P_L factor is exactly 1.0.)
    P_Q is then ``(cos(a) K - sin(a) Kr)^2`` in the dense kernel's operations.

    The (3, 2^u, n, rows) factors are built in the three flat
    :func:`_certification_buffers`, which must hold that many entries.
    """
    n, rows = terms.shape
    plus, minus, picked = (b[:3 * n * rows << u].reshape(3, -1, n, rows) for b in buffers[:3])
    plus, minus = plus[:, 0], minus[:, 0]
    half = 0.5 * parties
    np.cos(half, out=plus[0])
    np.sin(half, out=plus[1])
    minus[0], minus[1] = plus[1], plus[0]
    np.multiply(0.5, np.add(1.0, terms, out=plus[2]), out=plus[2])
    np.multiply(0.5, np.subtract(1.0, terms, out=minus[2]), out=minus[2])
    np.copyto(plus, minus, where=terms == -1.0)
    if u:
        free = np.abs(terms) < 1.0
        # A saturated party's factor is its forced one whichever outcome
        # the pattern picks, so it may read any bit of the pattern index.
        np.copyto(minus, plus, where=~free)
        bits = u - 1 - (np.cumsum(free, axis=0) - free)
        np.maximum(bits, 0, out=bits)
        patterns = np.arange(2**u)[:, None, None]
        np.copyto(picked, plus[:, None])
        np.copyto(picked, minus[:, None], where=(patterns >> bits) & 1 == 1)
        plus = picked
    else:
        plus = plus[:, None]
    k, kr, pl = np.multiply.reduce(plus, axis=-2)
    kr *= math.sin(scenario.alpha)
    k *= math.cos(scenario.alpha)
    k -= kr
    np.square(k, out=k)
    return k, pl


def _live_rows(scenario: GhzScenario, cos_parties: np.ndarray, entries: int):
    """(terms, unsaturated count per row, live rows) of one block, or ``None``.

    A row is live when it has at most :func:`_live_max_unsaturated`
    unsaturated parties.  ``None``, and the whole block runs the dense
    kernel, below ``_LIVE_MIN_PARTIES``, where nothing is counted, and when
    the live rows would save less than a third of the block's dense cost
    (a live row costs about n 2^u dense entries instead of 2^n): the split
    and its gathers then cost about what they save.
    """
    n = scenario.n
    if n < _LIVE_MIN_PARTIES:
        return None
    terms = _party_terms(cos_theta0(scenario), cos_parties)
    unsaturated = np.count_nonzero(np.abs(terms) < 1.0, axis=0)
    live = unsaturated <= _live_max_unsaturated(n, entries)
    saved_rows = np.count_nonzero(live) - np.sum(n << unsaturated[live]) / (1 << n)
    if 3 * saved_rows < live.size:
        return None
    return terms, unsaturated, live


def _split_factors(scenario: GhzScenario, parties: np.ndarray, cos_parties: np.ndarray,
                   terms: np.ndarray, unsaturated: np.ndarray, live: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) pieces of one scenario over a block split by :func:`_live_rows`.

    The live rows run :func:`_live_group`, grouped by their count of
    unsaturated parties in pieces whose factors fill at most one buffer;
    the other rows run the dense kernel.  The live path skips only entries
    where P_L = 0, whose residual is P_Q >= 0 and whose ratio is never taken.
    """
    for u in np.flatnonzero(np.bincount(unsaturated[live])).tolist():
        rows = np.flatnonzero(unsaturated == u)
        step = buffers[0].size // (3 * scenario.n << u)
        for start in range(0, rows.size, step):
            part = rows[start:start + step]
            yield _live_group(scenario, parties.take(part, axis=1), terms.take(part, axis=1), u,
                              buffers)
    dense = np.flatnonzero(~live)
    for _, pq_worst, pl in _dense_factors([scenario], parties.take(dense, axis=1),
                                          cos_parties.take(dense, axis=1), buffers):
        yield pq_worst, pl


def _factor_pieces(scenarios, samples: int, seed: int, buffers):
    """(index, worst-phase P_Q, P_L) pieces of every scenario over every row.

    The rows come in blocks of :func:`_block_rows`.  Per block, each
    scenario that :func:`_live_rows` splits runs :func:`_split_factors`;
    the others, every one below ``_LIVE_MIN_PARTIES``, then share one
    :func:`_dense_factors` pass: each dense chunk's K and, from
    ``_SPLIT_MIN_PARTIES`` on, one sort of the block.  A piece's arrays
    are only valid until the next piece is drawn.
    """
    n = scenarios[0].n
    for thetas in _certification_rows(n, samples, seed, _block_rows(n, len(scenarios))):
        parties = np.ascontiguousarray(thetas.T)
        cos_parties = np.cos(parties)
        shared = []
        for i, scenario in enumerate(scenarios):
            split = _live_rows(scenario, cos_parties, buffers[0].size)
            if split is None:
                shared.append(i)
                continue
            for pq_worst, pl in _split_factors(scenario, parties, cos_parties, *split, buffers):
                yield i, pq_worst, pl
        for k, pq_worst, pl in _dense_factors([scenarios[i] for i in shared], parties,
                                              cos_parties, buffers):
            yield shared[k], pq_worst, pl


def _min_residual(pq_worst: np.ndarray, pl: np.ndarray, w: float) -> float:
    """min of P_Q - w * P_L over the factor arrays; overwrites ``pl``."""
    pl *= w
    np.subtract(pq_worst, pl, out=pl)
    return float(np.min(pl))


def _min_ratio(pq_worst: np.ndarray, pl: np.ndarray) -> float:
    """min of P_Q / P_L where P_L is meaningfully positive, else ``+inf``.

    The ratio overwrites ``pq_worst``.
    """
    positive = pl > 1e-12
    np.divide(pq_worst, pl, out=pq_worst, where=positive)
    return float(np.min(pq_worst, where=positive, initial=math.inf))


def _residual_extrema(scenario: GhzScenario, w: float, thetas: np.ndarray,
                      patterns: np.ndarray | None = None):
    """(min residual, min ratio) over theta rows x all patterns x both phase signs.

    The dense reference of the certification kernel: every entry, live or
    not.  The residual is P_Q - w * P_L, the quantity :func:`certify`
    bounds; the ratio P_Q / P_L, taken where P_L is meaningfully positive,
    is the one :func:`sampled_min_ratio` bounds.  Both are reductions of
    :func:`_certification_factors`, so both values are bit-identical to
    the dense (rows, 2^n, n) reference.  ``patterns``,
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
    buffers = _certification_buffers(len(thetas), n)
    pq_worst, pl = _certification_factors(scenario, thetas, buffers)
    min_ratio = _min_ratio(pq_worst.copy(), pl)
    return _min_residual(pq_worst, pl, w), min_ratio


def _chunk_rows(n: int) -> int:
    """Rows per dense chunk: as many as fit ``_CERT_CHUNK_BYTES`` per (2^n, rows)
    array, at most ``_CERT_MAX_ROWS``."""
    return min(_CERT_MAX_ROWS, _CERT_CHUNK_BYTES // (8 * 2**n))


def _block_rows(n: int, scenarios: int = 1) -> int:
    """Rows per block: ``_SPLIT_BLOCK_ROWS`` where :func:`_may_split`, so that
    one sort of :func:`_two_pattern_rows` spans several chunks; from
    ``_LIVE_MIN_PARTIES`` on at least ``_LIVE_BLOCK_ROWS``, so that each
    live group spans many rows; else a dense chunk."""
    if _may_split(n, scenarios):
        return max(_chunk_rows(n), _SPLIT_BLOCK_ROWS)
    if n >= _LIVE_MIN_PARTIES:
        return max(_chunk_rows(n), _LIVE_BLOCK_ROWS)
    return _chunk_rows(n)


def _certification_rows(n: int, samples: int, seed: int, rows: int | None = None):
    """Theta row chunks of the diagonal grid, then of the sample stream.

    Each chunk holds ``rows`` rows (by default :func:`_chunk_rows`), the
    last of each part fewer.  The grid starts at theta = 0.  A chunk is
    the (rows, n) transpose of a C-contiguous (n, rows) array, so the
    kernel takes its parties without a copy.
    """
    chunk = _chunk_rows(n) if rows is None else rows
    grid = np.linspace(0.0, math.pi, DIAG_GRID_POINTS)
    for start in range(0, DIAG_GRID_POINTS, chunk):
        yield np.repeat(grid[None, start:start + chunk], n, axis=0).T
    for start in range(0, samples, chunk):
        yield _certification_parties(seed, start, min(chunk, samples - start), n).T


def _min_residuals(scenarios, ws, samples: int, seed: int) -> list[float]:
    """min of P_Q - w * P_L for each (scenario, w), in one pass over the rows.

    The scenarios share one n.  Every minimum starts at 0.0, the exact
    residual of the grid row theta = 0 at each pattern that mixes the two
    outcomes: there both K products hold a factor sin 0 = 0 and P_L one
    (1 - 1) / 2 = 0.  That row is always evaluated, and every entry the
    live path skips has a residual P_Q >= 0, so each value is the dense
    kernel's minimum.
    """
    n = scenarios[0].n
    buffers = _certification_buffers(_chunk_rows(n), n, len(scenarios))
    residuals = [0.0] * len(scenarios)
    for i, pq_worst, pl in _factor_pieces(scenarios, samples, seed, buffers):
        residuals[i] = min(residuals[i], _min_residual(pq_worst, pl, ws[i]))
    return residuals


def _integer(name: str, value) -> int:
    """``value`` as an int, or ValueError when it is not integral."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
    zeros, so it is exactly 0.0 at w = 0.  Rows with few unsaturated
    parties are evaluated only at patterns with P_L > 0: from 7 parties on
    its 2^u live patterns for a row with u unsaturated parties, and from 4
    to 6 parties two patterns for a row with at most one, when enough rows
    of a block have so few.  The other patterns have residual P_Q >= 0, so
    the value is the one of the full evaluation, bit for bit.

    Given equal-length sequences of scenarios that share one party count
    and of real weights, certifies every pair in one pass over the
    settings and returns a list of :class:`DecompositionCertificate`, each
    equal to the matching single call; an empty pair of sequences gives
    ``[]``.  The pass shares the angles, their trigonometry and each
    chunk's alpha-free Kronecker product K, and, from 4 to 6 parties, one
    sort of each block that serves every scenario's two-pattern rows.  A
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
    buffers = _certification_buffers(_chunk_rows(scenario.n), scenario.n)
    min_ratio = min(
        (_min_ratio(pq_worst, pl)
         for _, pq_worst, pl in _factor_pieces([scenario], samples, seed, buffers)),
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
