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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    _integer,
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

# A certify angle gets its cosine only where a scenario of the batch may
# leave its party unsaturated (:func:`_block_cosines`), with this margin:
# far beyond the rounding of cos and acos.
_COS_MARGIN = 1e-12

# A certify row is skipped for a scenario when a lower bound on the ratio
# P_Q / P_L at each of its patterns, formed in float32, clears the
# scenario's weight by this much, relative, and its bracket clears 0 by
# as much (:func:`_surviving_rows` derives it): far beyond the rounding of
# the kernel and of the bound.
_ROW_BOUND_MARGIN = 2.0**-14

# Bounding a row costs about as much as this many dense entries for each
# scenario, so a pass bounds its blocks only while the entries that the
# bound proves save more (:func:`_surviving_rows`): never at 2 parties,
# whose rows hold 4 entries.
_BOUND_ROW_COST = 4

# pi - math.pi: (math.pi - t) + _PI_LOW is within a rounding of pi - t.
_PI_LOW = 1.2246467991473532e-16

# The row bound's slack for its float32 rounding: added to (or taken
# from) its bounds on |cos t|, and taken, relative, from its band edges;
# far beyond the 22 float32 roundings of its cosine bounds.
_FLOAT32_SLACK = 2.0**-20

# The largest |cos t0| for which :func:`_surviving_rows` proves rows: a
# scenario closer to a product state is not bounded.
_BOUNDED_COS_T0 = 1.0 - 2.0**-40

# Scenarios that :func:`_surviving_rows` bounds together: their
# (scenarios, rows) float32 arrays stay below 512 KiB.
_BOUND_GROUP = 16

# Sorting a block, taking its columns and forming its two-pattern products
# costs about as much as this many dense entries per row (measured at 4 to
# 6 parties, with margin for the two-pattern rows' own work), so a block
# splits only when the rows that skip the dense kernel save more
# (:func:`_block_factors`).
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
    [-1, 1]; at c0 = 0, sgn(cos t), the +-inf of the division clipped, as
    no float angle in [0, pi] has cos t = 0 (6.1e-17 at pi/2).  The
    quotient gets its own array, also for a scalar, so that the clip runs
    in place and skips ``np.clip``'s dispatch.
    """
    if c0 == 0.0:
        return np.copysign(1.0, cos_thetas)
    terms = np.divide(cos_thetas, abs(c0), out=np.empty_like(cos_thetas))
    return terms.clip(-1.0, 1.0, out=terms)


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


def certification_thetas(seed: int, start: int, count: int, n: int) -> np.ndarray:
    """Rows start..start+count-1 of the certification angle stream, shape (count, n).

    Each entry is a pure function of (seed, sample index, party index) via a
    splitmix64 counter hash, so any chunking or evaluation order reproduces
    the identical stream.  Angles are uniform on [0, pi).
    """
    return np.ascontiguousarray(_certification_parties(seed, start, count, n).T)


def _certification_parties(seed: int, start: int, count: int, n: int,
                           buffers=None) -> np.ndarray:
    """:func:`certification_thetas` in the kernel's (n, count) layout, computed in it.

    The hash runs in place in ``buffers``, flat (float64, uint64, uint64)
    arrays of at least ``n * count`` entries each, and the angles are a
    view of the first; without ``buffers`` it makes fresh ones.  The
    counter of entry (party j, sample i) is ``(i * n + j) + seed_mix``
    modulo 2^64.
    """
    size = n * count
    if buffers is None:
        buffers = np.empty(size), np.empty(size, np.uint64), np.empty(size, np.uint64)
    angles, z, spare = (b[:size].reshape(n, count) for b in buffers)
    mask = 0xFFFFFFFFFFFFFFFF
    seed_mix = ((seed & mask) * 0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15) & mask
    samples = np.arange(start, start + count, dtype=np.uint64) * np.uint64(n)
    np.add(samples, np.arange(n, dtype=np.uint64)[:, None] + np.uint64(seed_mix), out=z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, np.uint64(shift), out=spare)
        z *= np.uint64(factor)
    z ^= np.right_shift(z, np.uint64(31), out=spare)
    z >>= np.uint64(11)
    # z < 2^53 converts exactly, and from int64 faster than from uint64.
    return np.multiply(z.view(np.int64), math.pi / 2**53, out=angles)


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


class _Block(NamedTuple):
    """A block of angle rows as the kernel reads it, (n, rows) arrays each.

    ``cosines`` holds ``cos t_j`` (or, from :func:`_block_cosines`, +-1.0
    where that clips to the same term), ``half_cos`` and ``half_sin`` the
    half-angle ``cos h_j`` and ``sin h_j`` with h = t / 2.
    """

    cosines: np.ndarray
    half_cos: np.ndarray
    half_sin: np.ndarray

    def take(self, columns) -> _Block:
        """The block of the given rows."""
        return _Block(*(a.take(columns, axis=1) for a in self))


def _block(parties: np.ndarray, bound: float, buffers=None) -> _Block:
    """The :class:`_Block` of (n, rows) angles, with the cosines of
    :func:`_block_cosines` under ``bound``: every one at ``bound = 1.0``.

    The three arrays are views of the flat ``buffers``, of at least
    ``parties.size`` entries each (fresh ones without them).  The angles
    may sit in the half-angle sines' buffer: they are read before it is
    written, and halved in place.
    """
    buffers = buffers or tuple(np.empty(parties.size) for _ in range(3))
    block = _Block(*(b[:parties.size].reshape(parties.shape) for b in buffers))
    _block_cosines(parties, bound, block.cosines)
    half = np.multiply(0.5, parties, out=block.half_sin)
    np.cos(half, out=block.half_cos)
    np.sin(half, out=block.half_sin)
    return block


def _block_cosines(parties: np.ndarray, bound: float, out: np.ndarray) -> np.ndarray:
    """``cos t`` of the (n, rows) angles where a party may be unsaturated, else +-1.0.

    ``bound`` is the largest ``|cos t0|`` of the scenarios that read the
    cosines.  With ``x = bound + _COS_MARGIN < 1``, every angle up to
    ``acos(x) - _COS_MARGIN`` has ``fl(cos t) > bound``, so
    :func:`_party_terms` clips it to +1 for each of those scenarios, as it
    clips the +1.0 put in its place; from ``pi`` minus that edge on, -1.0
    stands for the cosine the same way.  The margin is far beyond the
    rounding of cos and acos.  Only the angles in between get their
    cosine, and all of them when ``x >= 1``, as in a batch that reaches
    alpha = 0.  Writes into the C-contiguous ``out``.
    """
    edge = _saturation_edge(bound)
    if edge < 0.0:
        return np.cos(parties, out=out)
    np.copysign(1.0, np.subtract(math.pi / 2, parties, out=out), out=out)
    middle = np.flatnonzero((parties > edge) & (parties < math.pi - edge))
    out.reshape(-1)[middle] = np.cos(parties.reshape(-1)[middle])
    return out


def _saturation_edge(bound: float) -> float:
    """``acos(bound + _COS_MARGIN) - _COS_MARGIN``, the edge of :func:`_block_cosines`,
    or ``-inf`` when ``bound + _COS_MARGIN >= 1``, where no angle is certain to saturate."""
    x = bound + _COS_MARGIN
    return math.acos(x) - _COS_MARGIN if x < 1.0 else -math.inf


def _worst_phase(alpha: float, k: np.ndarray, kr: np.ndarray, out: np.ndarray,
                 spare: np.ndarray) -> np.ndarray:
    """Worst-phase P_Q ``(cos a K - sin a Kr)^2``, entry by entry, in ``out``.

    At the phase extremes cos(sum of phis) = +-1 the quantum probability is
    the perfect square (cos(a) prod p_j +- prod r_j sin(a) prod q_j)^2 with
    p_j, q_j the half-angle cosine/sine picked by each outcome sign, so the
    worse of the two is this one, nonnegative by construction: K is the
    product of the p_j, and Kr, K at the complement pattern, that of the
    q_j.  ``sin a Kr`` is formed in ``spare`` first, so ``out`` may be ``k``
    and ``spare`` may be ``kr``; every path computes each entry by these
    same operations, so its entries are the dense ones, bit for bit.
    """
    np.multiply(kr, math.sin(alpha), out=spare)
    np.multiply(k, math.cos(alpha), out=out)
    out -= spare
    return np.square(out, out=out)


def _alpha_factors(scenario: GhzScenario, k: np.ndarray, terms: np.ndarray,
                   buffers, consume_k: bool):
    """(worst-phase P_Q, P_L) of one scenario from K and its (n, rows) :func:`_party_terms`.

    Each is a (2^n, rows) view of one of the flat
    :func:`_certification_buffers`: P_L of the second; P_Q, with
    ``consume_k``, of ``K``'s own first, overwriting ``K`` in place, else of
    the fourth, leaving ``K`` as it was.  The last (or only) scenario of a
    chunk consumes ``K``, so a single certificate runs on three buffers and
    copies nothing.  The third buffer is scratch, free again on return.

    With t_j the :func:`_party_terms`, all three factors are Kronecker
    products of per-party pairs (+1 factor, -1 factor) in the pattern order
    of ``all_outcome_patterns``:

    * ``K = kron_j (cos h_j, sin h_j)``
    * ``Kr = kron_j (sin h_j, cos h_j)``, K with its patterns reversed
      (pattern ``2^n - 1 - c`` complements every bit)
    * ``P_L = kron_j ((1 + t_j) / 2, (1 - t_j) / 2)``, built by :func:`_kron_rows`

    P_Q is their :func:`_worst_phase`.  Each product is taken over parties
    left to right and the cos(a) / sin(a) scale is applied last.  That is
    the multiplication order of ``np.prod(..., axis=-1)`` over the dense
    (rows, 2^n, n) factor array, so every entry is bit-identical to that
    reference.
    """
    pl_buf, spare = buffers[1:3]
    pq_worst = k if consume_k else buffers[3][:k.size].reshape(k.shape)
    _worst_phase(scenario.alpha, k, k[::-1], pq_worst, spare[:k.size].reshape(k.shape))
    pl = _kron_rows(0.5 * (1.0 + terms), 0.5 * (1.0 - terms), pl_buf, spare)
    return pq_worst, pl


def _two_pattern_products(block: _Block, least: np.ndarray, buffers) -> np.ndarray:
    """K and Kr of a block's rows at their two patterns, a (4, rows) array.

    The forced pattern puts every party at the outcome of its cosine's
    sign, the flipped one also flips the parties of smallest ``|cos t_j|``
    (``least``): one party, or at a tie every tied one, all saturated, so
    P_L is 0 there.  The rows are K at both patterns, then Kr (K at the
    complement pattern) at both; no alpha enters.  The (2, n, rows) K and
    Kr factors, from :func:`_forced_factors` with the flipped cells
    swapped, fill the first and third :func:`_certification_buffers`
    buffers, and one reduce over the parties, left to right as in
    :func:`_kron_rows`, forms each product in the second: each entry is
    the dense K entry of its pattern, bit for bit.
    """
    n, rows = block.cosines.shape
    k, kr = (b[:2 * n * rows].reshape(2, n, rows) for b in (buffers[0], buffers[2]))
    _forced_factors(block.cosines, block.half_cos, block.half_sin, k[0], kr[0])
    k[1], kr[1] = k[0], kr[0]
    magnitudes = np.abs(block.cosines, out=buffers[1][:n * rows].reshape(n, rows))
    cells = np.flatnonzero(magnitudes == least)
    k[1].reshape(-1)[cells] = kr[0].reshape(-1)[cells]
    kr[1].reshape(-1)[cells] = k[0].reshape(-1)[cells]
    products = buffers[1][:4 * rows].reshape(2, 2, rows)
    np.multiply.reduce(k, axis=1, out=products[0])
    np.multiply.reduce(kr, axis=1, out=products[1])
    return products.reshape(4, rows)


def _two_pattern_factors(scenario: GhzScenario, products: np.ndarray, least: np.ndarray):
    """(worst-phase P_Q, P_L) of rows with at most one unsaturated party, at two patterns.

    ``products`` holds the rows' :func:`_two_pattern_products` and
    ``least`` their smallest ``|cos t_j|``; every other pattern has
    P_L = 0.  P_Q takes the dense kernel's operations on the dense
    kernel's K entries.  A saturated party's P_L factor at the outcome of
    its sign is exactly ``0.5 * (1 + 1) = 1.0``, so P_L is the other
    party's factor, ``(1 +- |t|) / 2``, and 0.0 where a tie flips two
    saturated parties: the dense entries bit for bit.
    """
    pq_worst, pl = np.empty((2, 2, products.shape[1]))
    _worst_phase(scenario.alpha, products[0:2], products[2:4], pq_worst, pl)
    terms = _party_terms(cos_theta0(scenario), least)
    np.add(1.0, terms, out=pl[0])
    np.subtract(1.0, terms, out=pl[1])
    pl *= 0.5
    return pq_worst, pl


def _dense_factors(scenarios, block: _Block, ends, buffers):
    """(index, worst-phase P_Q, P_L) of scenario i at rows ``0 .. ends[i] - 1`` of a block.

    The rows are cut into chunks of :func:`_chunk_rows` rows.  The pass
    is chunk-major and scenario-minor: each chunk's K is built once, then
    every scenario whose rows reach the chunk runs the same operations,
    in the same order, as it would alone, so each entry is bit-identical
    to a batch of one.
    """
    n, rows = block.cosines.shape[0], max(ends)
    chunk = _chunk_rows(n)
    for start in range(0, rows, chunk):
        stop = min(start + chunk, rows)
        k = _kron_rows(block.half_cos[:, start:stop], block.half_sin[:, start:stop],
                       buffers[0], buffers[2])
        active = [i for i, end in enumerate(ends) if end > start]
        for i in active:
            part = slice(start, min(ends[i], stop))
            terms = _party_terms(cos_theta0(scenarios[i]), block.cosines[:, part])
            yield i, *_alpha_factors(scenarios[i], k[:, :part.stop - start], terms, buffers,
                                     i == active[-1])


def _live_max_unsaturated(n: int, entries: int) -> int:
    """Most unsaturated parties a row may have and still skip the dense kernel.

    Each of a row's 2^u live patterns costs about as much as 32 entries
    of the dense kernel (measured from 6 to 12 parties: 15 to 45, with
    and without the chunk's K), so the rows with ``32 * 2^u <= 2^n`` run
    :func:`_live_factors` at no more than their dense cost; and one row's
    (3, 2^u, n) factors must fit a buffer of ``entries``, so that each of
    its slices holds at least one row.
    """
    return min((1 << n) // 32, entries // (3 * n)).bit_length() - 1


def _forced_factors(terms: np.ndarray, half_cos: np.ndarray, half_sin: np.ndarray,
                    k: np.ndarray, kr: np.ndarray):
    """Write the K and Kr factors of every party at the outcome of its term's sign.

    The sign of a saturated party's term (+-1) is its forced outcome, as
    in the dense kernel, where ``(1 +- t) / 2`` is 0 at the other.  K takes
    ``cos h`` at +1 and ``sin h`` at -1, Kr the other one; all five are
    (n, rows) arrays.

    The choice runs on the bits, several times faster than ``np.where`` on
    a random mask: the sign bit of the term, spread over all 64 bits, masks
    the bits that turn ``cos h`` into ``sin h`` and back.
    """
    cos_h, sin_h = half_cos.view(np.int64), half_sin.view(np.int64)
    k, swap = k.view(np.int64), kr.view(np.int64)
    np.right_shift(terms.view(np.int64), 63, out=swap)
    swap &= np.bitwise_xor(cos_h, sin_h, out=k)
    np.bitwise_xor(cos_h, swap, out=k)
    np.bitwise_xor(sin_h, swap, out=swap)


def _pattern_factors(scenario: GhzScenario, half_cos: np.ndarray, half_sin: np.ndarray,
                     terms: np.ndarray, cells: np.ndarray, minus: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) of rows at several patterns, (patterns, rows) each.

    Takes the (n, rows) half-angle trigonometry and :func:`_party_terms`
    of the rows, and the flat indices ``cells`` of their unsaturated
    entries.  Every pattern puts each saturated party at its forced
    outcome (:func:`_forced_factors`), and ``minus[p, m]`` tells whether
    pattern p puts the party of ``cells[m]`` at -1.

    The factors are the dense kernel's: K takes cos h_j at +1 and sin h_j
    at -1, Kr the other, and P_L ``(1 +- t_j) / 2``, exactly 1.0 at a
    forced outcome.  The forced factors fill the (3, patterns, n, rows)
    factors in the first :func:`_certification_buffers` buffer, which
    must hold that many entries (:func:`_live_factors` slices its rows to
    fit), and only the sparse unsaturated entries are then written by
    index.  Each product runs over the parties left to right, into the
    second buffer, and the cos(a) / sin(a) scale comes last, so every
    entry is bit-identical to the dense entry of its pattern.
    """
    n, rows = terms.shape
    patterns = minus.shape[0]
    factors = buffers[0][:3 * patterns * n * rows].reshape(3, patterns, n, rows)
    k, kr, pl = factors[:, 0]
    _forced_factors(terms, half_cos, half_sin, k, kr)
    pl[...] = 1.0
    factors[:, 1:] = factors[:, :1]
    index = np.arange(patterns)[:, None] * (n * rows) + cells
    up, down = half_cos.reshape(-1)[cells], half_sin.reshape(-1)[cells]
    t = terms.reshape(-1)[cells]
    for f, at_plus, at_minus in zip(factors, (up, down, 0.5 * (1.0 + t)),
                                    (down, up, 0.5 * (1.0 - t))):
        f.reshape(-1)[index] = np.where(minus, at_minus, at_plus)
    products = buffers[1][:3 * patterns * rows].reshape(3, patterns, rows)
    k, kr, pl = np.multiply.reduce(factors, axis=2, out=products)
    return _worst_phase(scenario.alpha, k, kr, k, kr), pl


def _live_factors(scenario: GhzScenario, block: _Block, columns: np.ndarray, buffers):
    """(worst-phase P_Q, P_L) of a block's rows at ``columns``, at their live patterns only.

    Takes the rows' cosines once and computes their :func:`_party_terms`
    and unsaturated mask once.  A saturated party (term +-1) has one P_L
    factor exactly 0, so its outcome is forced; every other pattern of a
    row with u unsaturated parties has P_L = 0.  The rows of each u run
    :func:`_pattern_factors` in slices whose (3, 2^u, n, rows) factors fit
    the first buffer, and each piece is a (2^u, rows) pair whose pattern
    index holds the outcomes of the unsaturated parties, the first of them
    in the most significant bit (1 for -1): the dense entries, bit for bit.
    """
    n = scenario.n
    terms = _party_terms(cos_theta0(scenario), block.cosines.take(columns, axis=1))
    unsaturated = np.abs(terms) < 1.0
    counts = np.count_nonzero(unsaturated, axis=0)
    for u in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == u)
        size = buffers[0].size // (3 * n << u)
        # The unsaturated entries row by row, so the m-th is the (m mod u)-th
        # unsaturated party of its row and reads bit u - 1 - m mod u.
        place = u - 1 - np.arange(min(size, rows.size) * u) % u
        minus = (np.arange(2**u)[:, None] >> place) & 1 == 1
        for start in range(0, rows.size, size):
            part = rows[start:start + size]
            row, party = np.nonzero(unsaturated.T[part])
            half_cos, half_sin = (a.take(columns[part], axis=1)
                                  for a in (block.half_cos, block.half_sin))
            yield _pattern_factors(scenario, half_cos, half_sin, terms.take(part, axis=1),
                                   party * part.size + row, minus[:, :row.size], buffers)


def _block_factors(scenarios, block: _Block, live_max: int, buffers):
    """(index, worst-phase P_Q, P_L) pieces of every scenario over one block.

    A party is saturated for a scenario when its ``|cos t_j|`` reaches the
    scenario's ``|cos t0|``: for doubles ``x, y >= 0``, ``fl(x / y) >= 1``
    exactly when ``x >= y``, so :func:`_party_terms` clips it to +-1.  So
    a row has at most one unsaturated party exactly when its
    second-smallest ``|cos t_j|``, a key with no alpha, reaches
    ``|cos t0|``.  One sort of the block by that key serves every
    scenario: its rows at or above a scenario's ``|cos t0|`` form a
    suffix, read at two patterns from the shared
    :func:`_two_pattern_products`, whose (2, n, rows) factors, like the
    block's ``|cos t_j|``, must fit a kernel buffer.  The other rows are
    sorted again for live_max >= 2, by their (live_max + 1)-th smallest
    ``|cos t_j|``: a scenario's rows with at most live_max unsaturated
    parties run :func:`_live_factors` here, and the rest, again a prefix,
    run the dense kernel on each chunk's shared K.  Every row is read
    within its block, so nothing outlives the call but the pieces it
    yields.

    A block splits only when the rows that skip the dense kernel, summed
    over the scenarios, save more than ``_SPLIT_ROW_COST`` dense entries
    per row of the block, counting ``2^n - 2`` for each; else every row
    runs the dense kernel, unsorted when no block of the batch could pay
    or too few rows skip it even at the smallest ``|cos t0|``.  Every
    entry skipped has P_L = 0, whose residual is P_Q >= 0 and whose ratio
    is never taken.
    """
    n, rows = block.cosines.shape
    saved, everything = (1 << n) - 2, [rows] * len(scenarios)
    if len(scenarios) * saved <= _SPLIT_ROW_COST:
        yield from _dense_factors(scenarios, block, everything, buffers)
        return
    bounds = np.array([abs(cos_theta0(sc)) for sc in scenarios])
    magnitudes = np.abs(block.cosines, out=buffers[1][:n * rows].reshape(n, rows))
    unsaturated = np.count_nonzero(magnitudes < bounds.min(), axis=0)
    skipping = np.count_nonzero(unsaturated <= live_max)
    if len(scenarios) * skipping * saved <= _SPLIT_ROW_COST * rows:
        yield from _dense_factors(scenarios, block, everything, buffers)
        return
    least, second, spare = magnitudes[0].copy(), np.full(rows, math.inf), np.empty(rows)
    for m in magnitudes[1:]:
        np.minimum(second, np.maximum(least, m, out=spare), out=second)
        np.minimum(least, m, out=least)
    order = np.argsort(second)
    ends = np.searchsorted(second[order], bounds).tolist()
    prefix, dense = order[:max(ends)], ends
    if live_max > 1:
        keys = magnitudes.take(prefix, axis=1)
        keys.partition(live_max, axis=0)
        inner = np.argsort(keys[live_max])
        prefix = prefix[inner]
        dense = np.searchsorted(keys[live_max, inner], bounds).tolist()
    if (len(scenarios) * rows - sum(dense)) * saved <= _SPLIT_ROW_COST * rows:
        yield from _dense_factors(scenarios, block, everything, buffers)
        return
    first = min(ends)
    if first < rows:
        suffix = order[first:]
        products = _two_pattern_products(block, least, buffers).take(suffix, axis=1)
        least = least[suffix]
        for i, scenario in enumerate(scenarios):
            if ends[i] < rows:
                yield i, *_two_pattern_factors(scenario, products[:, ends[i] - first:],
                                               least[ends[i] - first:])
    for i, (scenario, bound) in enumerate(zip(scenarios, bounds.tolist())):
        tail = prefix[dense[i]:]
        columns = tail[second[tail] < bound]
        if columns.size:
            for piece in _live_factors(scenario, block, columns, buffers):
                yield i, *piece
    yield from _dense_factors(scenarios, block.take(prefix[:max(dense)]), dense, buffers)


def _factor_pieces(scenarios, samples: int, seed: int, buffers, ws=None):
    """(index, worst-phase P_Q, P_L) pieces of every scenario over every row.

    The rows come in blocks of :func:`_block_rows`, each with its
    trigonometry computed once for every scenario, and its cosines only
    where a scenario may leave a party unsaturated
    (:func:`_block_cosines`; every one when the batch reaches alpha = 0).
    The stand-ins change no entry that is read: each clips to the term
    of the cosine it replaces, and keeps every party's side of each
    scenario's ``|cos t0|``.  Each block runs :func:`_block_factors`, at
    every n, and keeps no row for later blocks, so the memory of a pass
    does not grow with its scenarios.  A piece's arrays are only valid
    until the next piece is drawn.

    With the weights ``ws`` of a certificate, a scenario reads only the
    rows that :func:`_surviving_rows` leaves it: the scenarios that read
    every row of a block run :func:`_block_factors` on it, and the others
    the dense kernel on their prefix of its rows.
    """
    n = scenarios[0].n
    bound = max(abs(cos_theta0(sc)) for sc in scenarios)
    live_max = max(1, _live_max_unsaturated(n, buffers[0].size))
    weighted = (scenarios, ws) if ws else None
    for block, ends in _certification_blocks(n, samples, seed, _block_rows(n), bound, weighted):
        if ends is None:
            yield from _block_factors(scenarios, block, live_max, buffers)
            continue
        rows = block.cosines.shape[1]
        every = [i for i, end in enumerate(ends) if end == rows]
        some = [i for i, end in enumerate(ends) if 0 < end < rows]
        if every:
            pieces = _block_factors([scenarios[i] for i in every], block, live_max, buffers)
            yield from ((every[k], pq_worst, pl) for k, pq_worst, pl in pieces)
        if some:
            pieces = _dense_factors([scenarios[i] for i in some], block,
                                    [ends[i] for i in some], buffers)
            yield from ((some[k], pq_worst, pl) for k, pq_worst, pl in pieces)


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
    is the one :func:`sampled_min_ratio` bounds.  Both are reduced chunk by
    chunk over :func:`_dense_factors` of every row, with every cosine
    computed (``bound = 1.0``), from ``+inf``, so both values are
    bit-identical to the dense (rows, 2^n, n) reference.  ``patterns``,
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
    block = _block(np.ascontiguousarray(thetas.T), 1.0)
    min_residual = min_ratio = math.inf
    buffers = _certification_buffers(min(_chunk_rows(n), len(thetas)), n)
    for _, pq_worst, pl in _dense_factors([scenario], block, [len(thetas)], buffers):
        min_ratio = min(min_ratio, _min_ratio(pq_worst.copy(), pl))
        min_residual = min(min_residual, _min_residual(pq_worst, pl, w))
    return min_residual, min_ratio


def _chunk_rows(n: int) -> int:
    """Rows per dense chunk: as many as fit ``_CERT_CHUNK_BYTES`` per (2^n, rows)
    array, at most ``_CERT_MAX_ROWS``."""
    return min(_CERT_MAX_ROWS, _CERT_CHUNK_BYTES // (8 * 2**n))


def _block_rows(n: int) -> int:
    """Rows per block: as many whole dense chunks as the (2, n, rows) K
    factors of :func:`_two_pattern_products` fit one kernel buffer, at
    least one chunk."""
    return _chunk_rows(n) * max(1, (1 << n) // (2 * n))


def _cosine_gaps(angles: np.ndarray, scratch: np.ndarray, out):
    """``x = min(t, pi - t)`` of raw angles, and bounds on ``1 - |cos t|``, in float32.

    Returns ``(x, gap_lo, gap_hi)``, float32 arrays shaped like ``angles``
    in three of the four arrays ``out`` (the fourth is scratch), with
    ``gap_lo <= 1 - cos x <= gap_hi`` up to a few float32 roundings each:
    the Taylor series ``x^2/2 - x^4/24 + x^6/720 - x^8/40320 + ...``, whose
    terms alternate and shrink on [0, pi/2], cut after its third and
    fourth terms.  Both stay within relative roundings of their
    polynomials, and ``1 - cos x = 2 sin^2(x/2)`` keeps its relative
    accuracy near x = 0.  x is formed in the float64 ``scratch``, with
    ``pi - t`` taken as ``(math.pi - t) + _PI_LOW``, exact before the
    addition from pi/2 on, and then rounded once to float32.
    """
    x, x2, gap_lo, gap_hi = out
    np.subtract(math.pi, angles, out=scratch)
    scratch += _PI_LOW
    np.minimum(angles, scratch, out=scratch)
    x[...] = scratch
    np.multiply(x, x, out=x2)
    np.multiply(x2, -1.0 / 720.0, out=gap_hi)
    gap_hi += 1.0 / 24.0
    gap_hi *= x2
    np.subtract(0.5, gap_hi, out=gap_hi)
    gap_hi *= x2
    np.square(x2, out=gap_lo)
    np.square(gap_lo, out=gap_lo)
    gap_lo *= -1.0 / 40320.0
    gap_lo += gap_hi
    return x, gap_lo, gap_hi


def _band_edge(gamma: float) -> float:
    """:func:`_saturation_edge` of ``gamma`` lowered by 2^-20 relative: a float32
    x above it may leave a party unsaturated for that ``|cos t0|``; at or
    below it, the party is saturated whatever the rounding of x."""
    return _saturation_edge(gamma) * (1.0 - _FLOAT32_SLACK)


def _ratio_bound(x, edge: float, tan2, cot2, out) -> np.ndarray:
    """``(Kr / K)^2`` bound of each party: ``cot^2 d`` beyond the :func:`_band_edge`
    ``edge``, where it may be unsaturated, else ``tan^2 d``, in ``out``.

    ``(x - edge) * 2^110`` exceeds every ``cot^2 d`` of the band (at most
    ``4 / x^2``, and ``x - edge`` at least a float32 ulp of ``edge >=
    1.4e-8`` when edge is finite) and is at most 0 outside it, so the
    choice needs no mask.
    """
    np.subtract(x, edge, out=out)
    out *= 2.0**110
    np.minimum(out, cot2, out=out)
    return np.maximum(out, tan2, out=out)


def _clears(y: np.ndarray, lhs, rhs) -> np.ndarray:
    """Where ``y > 0`` and ``lhs * y^2 > rhs``, the ratio bound's test; overwrites ``y``."""
    positive = y > 0.0
    np.square(y, out=y)
    y *= lhs
    return np.greater(y, rhs) & positive


def _bracket(cos_a, sin_a, ratio) -> np.ndarray:
    """``cos a - sin a R`` for (scenarios, 1) columns ``cos_a``, ``sin_a`` and a row of R."""
    y = np.multiply.outer(-sin_a.ravel(), ratio)
    y += cos_a
    return y


def _surviving_rows(parties: np.ndarray, scenarios, ws, spare, diagonal: bool = False):
    """The rows of (n, rows) angles that some scenario needs, and how far each reads,
    or None where bounding them does not pay.

    Returns ``(kept, ends)``: the rows whose residual the bound below does
    not prove positive for every scenario at its weight in ``ws``,
    ordered by the last scenario, in the order of falling weight, that
    needs them, and, per scenario, how many leading rows of ``kept`` it
    reads: every row it needs, and otherwise only rows that a scenario of
    smaller weight needs.  The bound runs on the raw angles, before any
    trigonometry, in ``spare``, three flat float64 buffers of at least
    ``parties.size`` entries.  It pays while the entries it proves, 2^n
    for each row and scenario, outnumber ``_BOUND_ROW_COST`` for each row
    and scenario it tests; a block where they do not is not bounded
    (None): at 2 parties none is.  With ``diagonal``, every party of a
    row holds one angle (the diagonal grid), and the row is bounded by
    outcome count (:func:`_diagonal_proven`).

    **The ratio bound.**  With ``x_j = min(t_j, pi - t_j) = 2 d_j`` and
    ``c_j = |cos t_j| = cos x_j``, party j has, at the outcome of its
    cosine's sign (its forced one), K = cos d_j, Kr = sin d_j and P_L
    factor ``(1 + tau_j) / 2`` with ``tau_j = min(c_j / |cos t0|, 1)``, and
    at the other one K = sin d_j, Kr = cos d_j and ``(1 - tau_j) / 2``,
    which is 0 when the party is saturated (tau_j = 1).  As
    ``P_Q = K^2 (cos a - sin a Kr / K)^2``, every pattern with P_L > 0 has

        ``P_Q / P_L >= G (cos a - sin a R)^2``  when  ``cos a - sin a R > 0``,

    with ``K^2 / P_L >= G = prod g_j`` and ``Kr / K <= R = prod r_j``.  A
    party that the scenario saturates, with x_j at most its
    :func:`_band_edge`, has ``g_j = cos^2 d_j = (1 + c_j) / 2`` and
    ``r_j = tan d_j``; any other has ``g_j = 2 cos^2 d_j / (1 + tau_j)`` and
    ``r_j = cot d_j``.  Its other outcome's ``2 sin^2 d_j / (1 - tau_j)``
    is no smaller, since ``tau_j >= c_j``, which the kernel's rounded tau
    keeps while ``|cos t0| <= _BOUNDED_COS_T0 = 1 - 2^-40``; a scenario
    closer to a product state proves no row.  The factors come from
    :func:`_cosine_gaps`, ``gap_lo <= 1 - c <= gap_hi``, in float32:
    ``2 cos^2 d >= 2 - gap_hi``, ``tan^2 d <= gap_hi / (2 - gap_hi)``,
    ``cot^2 d <= (2 - gap_lo) / gap_lo``, and tau at most ``(1 + 2^-20 -
    gap_lo) / |cos t0|``.  A row is proven for a scenario when, with
    E = ``_ROW_BOUND_MARGIN`` = 2^-14, ``y = cos a - E - sin a R > 0`` and
    ``G y^2 > w (1 + E)``.

    **The margin.**  With v = 2^-24 and u = 2^-53, to first order: the
    float32 x is within v relative of the exact one (the float64
    ``pi - t`` is exact up to u), every float32 gap, tan^2 and cot^2
    within 22v relative of its polynomial, and the absolute 2^-20 above
    exceeds the gaps' rounding, so the bound's tau is at least the
    kernel's, whose cosine is within 4 ulp.  So the float32 R is at most
    (12n + 1) v below the exact bound and G at most (13n + 3) v above it,
    and the bracket, which stays below cos a <= 1, at most (24n + 7) v
    above; the kernel's own K, Kr and P_L (float64, within (5n - 1) u and
    (2n - 1) u) add below 13n u.  At 12 parties these come to 295v =
    1.8e-5 on the bracket and 162v = 9.7e-6 relative on G, each below E
    = 6.1e-5.  So a proven row's computed P_Q exceeds ``(1 + u) w P_L``,
    and each of its computed residuals ``fl(P_Q - fl(w P_L))`` is positive
    (every P_L > 0 here is far from underflow): the minimum it would have
    joined stays as it is.
    """
    n, rows = parties.shape
    if (1 << n) <= _BOUND_ROW_COST:
        return None
    shape = (rows,) if diagonal else (n, rows)
    size = math.prod(shape)
    # Two float32 arrays in each buffer; the first holds x in float64
    # until it is rounded.
    arrays = [b.view(np.float32)[k * size:(k + 1) * size].reshape(shape)
              for b in spare[1:3] + spare[:1] for k in (0, 1)]
    # Each scenario's place in falling weight, from 1 (ties by index).
    by_weight = sorted(range(len(ws)), key=lambda i: -ws[i])
    ranks = np.empty(len(ws), np.intp)
    ranks[by_weight] = np.arange(1, len(ws) + 1)
    gammas = [abs(cos_theta0(sc)) for sc in scenarios]
    # Per scenario, (scenarios, 1) columns: the margin comes off cos a and
    # onto w.
    cos_a = np.array([[math.cos(sc.alpha) - _ROW_BOUND_MARGIN] for sc in scenarios], np.float32)
    sin_a = np.array([[math.sin(sc.alpha)] for sc in scenarios], np.float32)
    rhs = np.array([[w * (1.0 + _ROW_BOUND_MARGIN)] for w in ws], np.float32)
    need = np.zeros(rows, np.intp)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, gap_lo, gap_hi = _cosine_gaps(parties[0] if diagonal else parties,
                                         spare[0][:size].reshape(shape), arrays[:4])
        two_cos2 = np.subtract(2.0, gap_hi, out=arrays[1])
        tan2 = np.divide(gap_hi, two_cos2, out=arrays[4])
        cot2 = np.subtract(2.0, gap_lo, out=arrays[5])
        cot2 /= gap_lo
        if diagonal:
            bounds = x, gap_lo, gap_hi, two_cos2, tan2, cot2
        else:
            # Every party's least K^2 / P_L, cos^2 d, and, for every
            # scenario, its largest Kr / K: cot d in the batch's band.
            wide = _band_edge(max((g for g in gammas if g <= _BOUNDED_COS_T0), default=0.0))
            lhs = np.multiply.reduce(two_cos2, axis=0)
            lhs *= 0.5**n
            ratio = np.sqrt(np.multiply.reduce(_ratio_bound(x, wide, tan2, cot2, gap_hi),
                                               axis=0))
            bounds = x, gap_lo, tan2, cot2, lhs, ratio
        # Smallest weight first: a row that one needs is read by every
        # scenario of larger weight, which need not test it.
        order = by_weight[::-1]
        test = _diagonal_proven if diagonal else _sample_proven
        for start in range(0, len(order), _BOUND_GROUP):
            chunk = order[start:start + _BOUND_GROUP]
            group = [i for i in chunk if gammas[i] <= _BOUNDED_COS_T0]
            if group:
                proven = test(*bounds, cos_a[group], sin_a[group], rhs[group],
                              [gammas[i] for i in group], n)
            for i in chunk:
                left = need == 0
                if i in group:
                    left &= ~proven(group.index(i), left)
                need[left] = ranks[i]
    reach = np.cumsum(np.bincount(need, minlength=len(ws) + 1)[::-1])[::-1]
    if (len(ws) * rows - int(reach[1:].sum())) << n <= _BOUND_ROW_COST * len(ws) * rows:
        return None
    kept = np.flatnonzero(need)
    if len(ws) > 1:
        kept = kept[np.argsort(-need[kept], kind="stable")]
    return kept, reach[ranks].tolist()


def _sample_proven(x, gap_lo, tan2, cot2, lhs, ratio, cos_a, sin_a, rhs, gammas, n):
    """``proven(k, rows)``: where the ratio bound proves the boolean ``rows`` of
    sample rows for the group's k-th scenario.

    A first test, for the whole group at once, takes every party's
    smallest ``K^2 / P_L`` and the batch's largest ``Kr / K`` (``lhs`` and
    ``ratio``); the rows it leaves take the scenario's own factors.
    """
    passed = _clears(_bracket(cos_a, sin_a, ratio), lhs, rhs)

    def proven(k, rows):
        result = passed[k] & rows
        columns = np.flatnonzero(rows & ~passed[k])
        if not columns.size:
            return result
        xs, gaps, tans, cots = (a.take(columns, axis=1) for a in (x, gap_lo, tan2, cot2))
        r2 = np.multiply.reduce(_ratio_bound(xs, _band_edge(gammas[k]), tans, cots, xs), axis=0)
        y = cos_a[k] - sin_a[k] * np.sqrt(r2, out=r2)
        # 1 + tau, with tau from the cosine's upper bound 1 - gap_lo.
        tau = np.subtract(1.0 + _FLOAT32_SLACK, gaps, out=gaps)
        tau *= 1.0 / gammas[k] if gammas[k] else math.inf
        np.minimum(tau, 1.0, out=tau)
        tau += 1.0
        factor = np.multiply.reduce(tau, axis=0)
        factor *= rhs[k] * 0.5**n
        result[columns] = _clears(y, lhs[columns], factor)
        return result

    return proven


def _power(a: np.ndarray, k: int) -> np.ndarray:
    """``a^k`` for an integer ``k >= 1``, by repeated squaring."""
    result, base = None, a
    while True:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if not k:
            return result
        base = base * base


def _diagonal_proven(x, gap_lo, gap_hi, two_cos2, tan2, cot2, cos_a, sin_a, rhs, gammas, n):
    """:func:`_sample_proven` for rows whose parties share one angle, by outcome count.

    Such a row's patterns fall into the counts k = 0..n of parties at
    the forced outcome, each with ``G = g_f^k g_o^(n - k)`` and
    ``R = tan^k d cot^(n - k) d``, where ``g_f = 2 cos^2 d / (1 + tau)`` and
    ``g_o = 2 sin^2 d / (1 - tau)``, tau at least ``(1 - 2^-20 - gap_hi) /
    |cos t0|``; the count k = n alone has P_L > 0 where the party is
    saturated.  log G is linear in k and ``cos a - sin a R`` concave, so
    ``log(G (cos a - sin a R)^2)`` is concave wherever the bracket is
    positive, and its least value over k is at k = 0 or k = n: the row
    clears every count when it clears those two.
    """
    inverse = np.array([1.0 / g if g else math.inf for g in gammas], np.float32)
    g_f = np.multiply.outer(inverse, 1.0 + _FLOAT32_SLACK - gap_lo)
    np.minimum(g_f, 1.0, out=g_f)
    g_f += 1.0
    np.divide(two_cos2, g_f, out=g_f)
    passed = _clears(_bracket(cos_a, sin_a, np.sqrt(_power(tan2, n))), _power(g_f, n), rhs)
    c_lo = np.maximum(1.0 - _FLOAT32_SLACK - gap_hi, 0.0)
    g_o = np.multiply.outer(inverse, c_lo)
    band = np.less.outer(np.array([_band_edge(g) for g in gammas], np.float32), x)
    band &= g_o < 1.0
    np.subtract(1.0, g_o, out=g_o)
    np.divide(gap_lo, g_o, out=g_o)
    passed &= ~band | _clears(_bracket(cos_a, sin_a, np.sqrt(_power(cot2, n))),
                              _power(g_o, n), rhs)
    return lambda k, rows: passed[k] & rows


def _certification_blocks(n: int, samples: int, seed: int, rows: int, bound: float,
                          weighted=None):
    """``(block, ends)`` of each chunk of ``rows`` rows: the diagonal grid, then the samples.

    The grid of ``DIAG_GRID_POINTS`` angles runs from 0 to pi, and sample
    i is row i of :func:`certification_thetas`; the last chunk of each
    part has fewer rows.  Every chunk takes one route: its (n, rows)
    angles are written, a grid row's one angle to each party and a sample
    row's hashed, into buffers reused from chunk to chunk, and
    :func:`_block` computes its :class:`_Block` there under ``bound``, so
    a block is only valid until the next is drawn.  ``ends`` is None when
    every scenario reads every row of the block.

    With ``weighted``, the (scenarios, weights) of a certificate, each
    chunk is bounded first (:func:`_surviving_rows`): the rows that no
    scenario needs are left out before their trigonometry, the rest
    ordered by the last scenario that needs them and compacted in the
    same buffers, and ``ends`` gives each scenario's share of them, a
    prefix; a chunk left with no row yields no block.  The first chunk,
    grid or sample, whose bounding does not pay is yielded whole, and so
    is every chunk after it.
    """
    buffers = tuple(np.empty(n * rows) for _ in range(3))
    # The angles sit in the buffer of the half-angle sines, where _block
    # halves them in place; the hash runs in the other two, and the bound
    # in those and one more.
    hashing = buffers[2], buffers[0].view(np.uint64), buffers[1].view(np.uint64)
    spare = buffers[:2] + ((np.empty(n * rows),) if weighted else ())

    def chunks():
        grid = np.linspace(0.0, math.pi, DIAG_GRID_POINTS)
        for start in range(0, DIAG_GRID_POINTS, rows):
            angles = grid[start:start + rows]
            parties = buffers[2][:n * angles.size].reshape(n, -1)
            parties[...] = angles
            yield parties, True
        for start in range(0, samples, rows):
            yield _certification_parties(seed, start, min(rows, samples - start), n,
                                         hashing), False

    for parties, diagonal in chunks():
        ends = None
        if weighted:
            reach = _surviving_rows(parties, *weighted, spare, diagonal)
            if reach is None:
                weighted = None
            else:
                kept, ends = reach
                if not kept.size:
                    continue
                if min(ends) == kept.size:
                    ends = None
                compacted = np.take(parties, kept, axis=1, mode="clip",
                                    out=buffers[0][:n * kept.size].reshape(n, -1))
                parties = buffers[2][:compacted.size].reshape(n, -1)
                parties[...] = compacted
        yield _block(parties, bound, buffers), ends


def _min_residuals(scenarios, ws, samples: int, seed: int) -> list[float]:
    """min of P_Q - w * P_L for each (scenario, w), in one pass over the rows.

    The scenarios share one n.  Every minimum starts at 0.0, the exact
    residual of the grid row theta = 0 at each pattern that mixes the two
    outcomes: there both K products hold a factor sin 0 = 0 and P_L one
    (1 - 1) / 2 = 0.  That row, when :func:`_surviving_rows` skips it, has
    no residual below that 0.0; nor has any other row it skips, and every
    entry that :func:`_block_factors` skips has a residual P_Q >= 0, so
    each value is the dense kernel's minimum.  At w = 0 every residual is
    P_Q >= 0, so that minimum is 0.0 and no row is evaluated for it.
    """
    residuals = [0.0] * len(scenarios)
    evaluated = [i for i, w in enumerate(ws) if w != 0.0]
    if not evaluated:
        return residuals
    n = scenarios[0].n
    buffers = _certification_buffers(_chunk_rows(n), n, len(evaluated))
    pieces = _factor_pieces([scenarios[i] for i in evaluated], samples, seed, buffers,
                            [ws[i] for i in evaluated])
    for k, pq_worst, pl in pieces:
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
    zeros, so it is exactly 0.0 at w = 0, where no row is evaluated.  A
    scenario skips every row whose residual a bound from the raw angles
    proves positive at its weight, before the row's trigonometry
    (:func:`_surviving_rows`): at every pattern with P_L > 0 the bound
    holds P_Q / P_L above w, each party's K factor taken with its P_L
    factor, and it proves a grid row by its outcome counts.  Rows are
    bounded block by block, until a block, the grid's included, where
    the entries proven do not pay for the bound, and never at 2 parties;
    the grid row theta = 0 may be skipped, and its zeros are the 0.0
    every minimum starts at.  Rows with few unsaturated parties are
    evaluated only at patterns with P_L > 0, by one rule at every n
    (:func:`_block_factors`): when enough rows of a
    block have at most one, those rows are read at their two live
    patterns, and, from 7 parties on, a row with a few more at all its 2^u
    live patterns, within its block.  The other patterns have residual
    P_Q >= 0, so the value is the one of the full evaluation, bit for bit.

    Given equal-length sequences of scenarios that share one party count
    and of real weights, certifies every pair in one pass over the
    settings and returns a list of :class:`DecompositionCertificate`, each
    equal to the matching single call; an empty pair of sequences gives
    ``[]``.  The pass shares the angles, their trigonometry (a row's
    ``cos theta`` only where some scenario may leave a party unsaturated,
    so every one in a batch that reaches alpha = 0), one sort of each
    block with the alpha-free products of its two-pattern rows, and each
    chunk's alpha-free Kronecker product K; a scenario reads only the
    rows that it, or a scenario of smaller weight, needs.  No row is kept
    past its block, so the memory of the pass does not grow with the
    scenarios.  A single scenario takes a single real weight; any other
    pairing is refused with ValueError, and every weight is checked
    before anything is computed.
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
