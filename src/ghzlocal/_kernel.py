"""The certification kernel: worst-phase P_Q and P_L over the rows of a certificate.

Its entry, :func:`factor_pieces`, reads the diagonal grid of
``DIAG_GRID_POINTS`` angles, then the samples of :func:`certification_thetas`,
for scenarios that share one n, and yields ``(index, path, worst-phase P_Q,
P_L)`` pieces: (patterns, rows) arrays of scenario ``index`` on one path,
``"dense"`` at all 2^n patterns, ``"two-pattern"`` at 2, or ``"live"`` at the
2^u patterns of rows with u unsaturated parties.  Each entry is the dense
entry of its pattern, bit for bit; an entry left out has P_L = 0, or lies in
a row that the row bound proves positive.  :func:`block_pieces` runs the
same pass over rows that the caller gives, or the dense path alone.

* Buffers: every (2^n, rows) array is a view of one of three flat buffers of
  ``_CERT_CHUNK_BYTES``, four for several scenarios, allocated once per pass
  (:func:`_certification_buffers`), so a dense chunk of :func:`_chunk_rows`
  rows stays in a core's L2 cache and no chunk allocates a fresh array.
* Blocks: the rows come in blocks of :func:`_block_rows` rows, whole chunks
  (:func:`_certification_blocks`).  With the weights of a certificate each
  block is first bounded from its raw angles (:func:`_surviving_rows`); the
  rows left get their trigonometry once for every scenario (:func:`_block`).
* Sorts: a block whose skipped entries pay for it is sorted by its rows'
  second-smallest ``|cos t_j|`` (:func:`_block_factors`).  Rows with at most
  one unsaturated party are read at two patterns, from 7 parties on rows
  with a few more at their live patterns, and the rest, a prefix, run the
  dense kernel on each chunk's shared alpha-free K (:func:`_dense_factors`).
  No row outlives its block, so the memory of a pass does not grow with
  its scenarios, and a piece's arrays are only valid until the next piece.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qcore import GhzScenario, _party_terms, cos_theta0

# Points of the all-parties-equal grid that every pass reads before its samples.
DIAG_GRID_POINTS = 2001

# Byte budget of one kernel buffer, which sizes the chunks: 8192 rows up to
# n = 3, 128 rows at n = 9 and 16 at n = 12; three buffers are about
# 1.5 MiB.  Budgets from 512 KiB to 1 MiB ran alike; 512 KiB uses the least memory.
# The row cap keeps small n at 8192-row chunks; larger chunks there only
# raise peak memory.
_CERT_CHUNK_BYTES = 512 * 2**10
_CERT_MAX_ROWS = 8192

# A certify angle gets its cosine only where a scenario of the batch may
# leave its party unsaturated (:func:`_block_cosines`), with this margin:
# far beyond the rounding of cos and acos.
_COS_MARGIN = 1e-12

# A certify row is skipped for a scenario when a lower bound on its least
# ratio P_Q / P_L, formed in float32, clears the scenario's weight by this
# much, relative, and its bracket clears 0 by as much
# (:func:`_surviving_rows` derives it): far beyond the rounding of the
# kernel and of the bound.
_ROW_BOUND_MARGIN = 2.0**-14

# Bounding a row costs about as much as this many dense entries for each
# scenario (measured at 2 to 5 parties: 6 to 10 ns a row and scenario), so
# a pass bounds its blocks only while the entries that the bound proves
# save more (:func:`_surviving_rows`): at 2 parties, whose rows hold 4
# entries, while it proves more than half of them.
_BOUND_ROW_COST = 2

# pi - math.pi: (math.pi - t) + _PI_LOW is within a rounding of pi - t.
_PI_LOW = 1.2246467991473532e-16

# The row bound's slack for its float32 rounding: added to its bound on
# |cos t|; far beyond the 22 float32 roundings of its cosine bounds.
_FLOAT32_SLACK = 2.0**-20

# The largest |cos t0| for which :func:`_surviving_rows` proves rows: a
# scenario closer to a product state is not bounded, since the kernel's
# rounding of its tau moves its flipped patterns' ratios by more than the
# margin (derived there).
_BOUNDED_COS_T0 = 1.0 - 2.0**-19

# A row whose parties' x = min(t, pi - t) lie within this of each other
# may lie next to a scenario's kink, and :func:`_surviving_rows` does not
# prove it for a scenario whose tan a may lie within this, relative, of
# the row's R.
_KINK_WIDTH = 2.0**-8

# Scenarios that :func:`_surviving_rows` bounds together: their two
# (scenarios, rows) float32 arrays stay within 1 MiB.
_BOUND_GROUP = 16

# Sorting a block, taking its columns and forming its two-pattern products
# costs about as much as this many dense entries per row (measured at 4 to
# 6 parties, with margin for the two-pattern rows' own work), so a block
# splits only when the rows that skip the dense kernel save more
# (:func:`_block_factors`).
_SPLIT_ROW_COST = 32


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
    """Flat float64 buffers for (2^n, rows) arrays: K (then the last scenario's P_Q),
    P_L, scratch, and for several scenarios the P_Q of every scenario but the last."""
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
    """(index, "dense", worst-phase P_Q, P_L) of scenario i at rows 0 .. ends[i] - 1 of a block.

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
            yield i, "dense", *_alpha_factors(scenarios[i], k[:, :part.stop - start], terms,
                                              buffers, i == active[-1])


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
    """(index, path, worst-phase P_Q, P_L) pieces of every scenario over one block.

    A party is saturated for a scenario when its ``|cos t_j|`` reaches the
    scenario's ``|cos t0|``: for doubles ``x, y >= 0``, ``fl(x / y) >= 1``
    exactly when ``x >= y``, so :func:`_party_terms` clips it to +-1.  So
    a row has at most one unsaturated party exactly when its
    second-smallest ``|cos t_j|``, a key with no alpha, reaches
    ``|cos t0|``; one sort by that key puts a scenario's such rows in a
    suffix, read from the shared :func:`_two_pattern_products`, whose
    (2, n, rows) factors, like the block's ``|cos t_j|``, must fit a
    kernel buffer.  For live_max >= 2 the other rows are sorted again, by
    their (live_max + 1)-th smallest ``|cos t_j|``: a scenario's rows with
    at most live_max unsaturated parties run :func:`_live_factors`, and
    the rest, again a prefix, run the dense kernel.

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
                yield i, "two-pattern", *_two_pattern_factors(
                    scenario, products[:, ends[i] - first:], least[ends[i] - first:])
    for i, (scenario, bound) in enumerate(zip(scenarios, bounds.tolist())):
        tail = prefix[dense[i]:]
        columns = tail[second[tail] < bound]
        if columns.size:
            for piece in _live_factors(scenario, block, columns, buffers):
                yield i, "live", *piece
    yield from _dense_factors(scenarios, block.take(prefix[:max(dense)]), dense, buffers)


def factor_pieces(scenarios, samples: int, seed: int, ws=None):
    """(index, path, worst-phase P_Q, P_L) pieces of every scenario over every row.

    The rows are the diagonal grid, then ``samples`` rows of the stream of
    ``seed``, and the scenarios share one n.  With the weights ``ws`` of a
    certificate, a scenario reads only the rows that :func:`_surviving_rows`
    leaves it: the scenarios that read every row of a block run
    :func:`_block_factors` on it, and the others the dense kernel on their
    prefix of its rows.
    """
    n, buffers, bound, live_max = _pass(scenarios)
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
            yield from ((every[k], path, pq_worst, pl) for k, path, pq_worst, pl in pieces)
        if some:
            pieces = _dense_factors([scenarios[i] for i in some], block,
                                    [ends[i] for i in some], buffers)
            yield from ((some[k], path, pq_worst, pl) for k, path, pq_worst, pl in pieces)


def block_pieces(scenarios, thetas: np.ndarray, dense: bool = False):
    """The pieces of :func:`factor_pieces` over the (rows, n) angles ``thetas``, no row bounded.

    With ``dense`` every cosine is computed and every row runs the dense
    kernel: the mode of the test-only dense oracle ``epr2._residual_extrema``,
    which goes when that oracle moves into the tests (ROADMAP item 8).
    """
    n, buffers, bound, live_max = _pass(scenarios)
    rows = _block_rows(n)
    for start in range(0, len(thetas), rows):
        block = _block(np.ascontiguousarray(thetas[start:start + rows].T), 1.0 if dense else bound)
        if dense:
            ends = [block.cosines.shape[1]] * len(scenarios)
            yield from _dense_factors(scenarios, block, ends, buffers)
        else:
            yield from _block_factors(scenarios, block, live_max, buffers)


def _pass(scenarios):
    """(n, buffers, cosine bound, live_max) of a pass over scenarios that share one n."""
    n = scenarios[0].n
    buffers = _certification_buffers(_chunk_rows(n), n, len(scenarios))
    bound = max(abs(cos_theta0(sc)) for sc in scenarios)
    return n, buffers, bound, max(1, _live_max_unsaturated(n, buffers[0].size))


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


def _surviving_rows(parties: np.ndarray, scenarios, ws, spare):
    """The rows of (n, rows) angles that some scenario needs, and how far each reads,
    or None where bounding them does not pay.

    Returns ``(kept, ends)``: the rows whose residual the bound below does
    not prove positive for every scenario at its weight in ``ws``,
    ordered by the last scenario, in the order of falling weight, that
    needs them, and, per scenario, how many leading rows of ``kept`` it
    reads: every row it needs, and otherwise only rows that a scenario of
    smaller weight needs.  The bound runs on the raw angles, before any
    trigonometry, in ``spare``: three flat float64 buffers of at least
    ``parties.size`` entries and the float32 :func:`_bound_buffer`.  It
    pays while the entries it proves, 2^n for each row and scenario,
    outnumber ``_BOUND_ROW_COST`` for each row and scenario it tests; a
    block where they do not is not bounded (None).  The diagonal grid's
    rows, whose parties share one angle, take the same bound.

    **The ratio.**  With ``x_j = min(t_j, pi - t_j) = 2 d_j`` and
    ``c_j = |cos t_j| = cos x_j``, party j has, at the outcome of its
    cosine's sign (its forced one), K = cos d_j, Kr = sin d_j and P_L
    factor ``(1 + tau_j) / 2`` with ``tau_j = min(c_j / |cos t0|, 1)``, and
    at the other one K = sin d_j, Kr = cos d_j and ``(1 - tau_j) / 2``,
    0 when the party is saturated (tau_j = 1).  Write ``e_j = tan d_j``
    and ``eps = tan(a)^(1/n)``: then ``|cos t0| = (1 - eps^2) / (1 + eps^2)``,
    eps is ``tan d`` at the band edge, and party j is in the band
    (unsaturated) exactly when ``e_j > eps``.  As ``sin a = cos a eps^n``
    and ``P_Q = (cos a K - sin a Kr)^2``, the ratio at a pattern that
    flips a set S of band parties is

        ``cos^2 a prod_sat 1/(1 + e_j^2) prod_band (1 - eps^2)/(1 - r_j^2) (1 - prod_all r_j)^2``

    with ``r_j = eps e_j`` at the forced outcome and ``eps / e_j`` at the
    flipped one, each below 1 (the band factors are ``2 cos^2 d / (1 +
    tau)`` and ``2 sin^2 d / (1 - tau)`` rewritten).

    **The lemma: the least ratio of a row is its forced one,**
    ``F = G (cos a - sin a R)^2`` with ``G = prod g_j``, ``g_j =
    2 cos^2 d_j / (1 + tau_j)``, and ``R = prod tan d_j``.  Proof: write
    ``z_j = -ln e_j``, ``Lam = -ln eps`` (band: ``0 <= z_j < Lam``),
    ``phi(x) = -ln(1 - e^-x)`` and ``D_c(z) = phi(c - z) - phi(c + z)``.
    Then ``|phi'| = 1/(e^x - 1)`` decreases and the third derivative of
    phi is negative, so D_c(z) decreases in c, is convex in z and is 0 at
    z = 0.  With k = |S| and ``Z = sum_S z_j``, the closed form gives
    ``ln(ratio_S / F) = sum_S D_{2 Lam}(2 z_j) - 2 D_c(Z)``, with ``c = n Lam
    + sum_{not S} z_j >= max(n, 2) Lam``.  At k = 1, convexity and then
    c >= 2 Lam give ``D_{2Lam}(2z) >= 2 D_{2Lam}(z) >= 2 D_c(z)``.  At
    k >= 2, Jensen gives ``sum_S D_{2Lam}(2 z_j) >= k D_{2Lam}(2Z/k) =
    2Z int_{-1}^1 |phi'|(2 Lam + 2sZ/k) ds``, while ``2 D_{kLam}(Z) = 2Z
    int_{-1}^1 |phi'|(k Lam + sZ) ds``; as ``k Lam + sZ - (2 Lam + 2sZ/k)
    = (k - 2)(Lam + sZ/k) >= 0`` (Z/k < Lam), the first is the larger, and
    ``D_{kLam}(Z) >= D_c(Z)`` as c >= k Lam.  Equality needs every z_j of
    S at 0 (t = pi/2), or k = n = 2 with z_1 = z_2: at 2 parties
    ``(1 - r_1 r_2)^2 = (1 - r_1^2)(1 - r_2^2) + (r_1 - r_2)^2`` makes every
    pattern of a band row on the diagonal take the ratio F, which is
    there the lower bound.

    **The bound.**  So a row is proven for a scenario when F clears w.
    The factors come from :func:`_cosine_gaps`, ``gap_lo <= 1 - c <=
    gap_hi``, in float32: ``2 cos^2 d >= 2 - gap_hi``, ``tan^2 d <= gap_hi
    / (2 - gap_hi)``, and tau at most ``(1 + 2^-20 - gap_lo) / |cos t0|``;
    R and ``prod cos d`` have no alpha, and a scenario adds only each
    ``(1 + tau_j) / 2``.  With E = ``_ROW_BOUND_MARGIN`` = 2^-14 a row is
    proven when ``y = cos a - E - sin a R`` has ``y prod cos d >
    sqrt(w (1 + E) prod (1 + tau_j) / 2)``, so y > 0.

    **The margin at the forced pattern.**  With v = 2^-24 and u = 2^-53,
    to first order: the float32 x is within v relative of the exact one
    (the float64 ``pi - t`` is exact up to u), every float32 gap and
    tan^2 within 22v relative of its polynomial, and the absolute 2^-20
    above exceeds the gaps' rounding, so the bound's tau is at least the
    kernel's, whose cosine is within 4 ulp.  So the float32 R is at most
    (12n + 1) v below the exact bound, ``prod cos d`` at most (7n + 3) v
    above and ``prod (1 + tau_j) / 2`` at most (3n + 2) v below, and the
    bracket, which stays below cos a <= 1, at most (24n + 7) v above; the
    kernel's own K, Kr and P_L (float64, within (5n - 1) u and (2n - 1) u)
    add below 13n u.  At 12 parties these come to 295v = 1.8e-5 on the
    bracket and 130v = 7.7e-6 relative on the rest, each below E =
    6.1e-5.  So the forced pattern's computed P_Q exceeds ``(1 + u) w
    P_L``, and its residual ``fl(P_Q - fl(w P_L))`` is positive (every P_L
    > 0 here is far from underflow).

    **The margin at the flipped patterns.**  The lemma holds for exact
    factors of one scenario, and the kernel rounds what it uses.  First,
    its tau: fl(c_j) / |cos t0| is at least c_j / g+, with g+ =
    ``|cos t0| (1 + 10u)``, so each flipped P_L factor is at most the exact
    one of a model with g+ in place of |cos t0|, and each forced one
    within 20u of it.  The lemma holds in that model at the alpha a+ whose
    band edge is g+'s, and its F is no smaller than the scenario's (g_j
    grows with |cos t0|, the bracket as alpha falls).  Second, the true
    alpha: the bracket at a pattern is ``cos a (1 - lam p)``, with p =
    ``prod r_j`` of the model and ``lam = tan a / tan a+``, ``ln lam <=
    10 n u |cos t0| / (1 - cos^2 t0)``, so the ratio falls by at most
    ``2 (lam - 1) p / (1 - p)``, relative.  Where S leaves a party at its
    forced outcome, ``p <= eps`` and the fall is below ``20 n u / eps``,
    2.7e-11 at 12 parties while ``eps^2 >= 2^-20``, which
    ``_BOUNDED_COS_T0`` = 1 - 2^-19 keeps; a scenario closer to a product
    state proves no row (at 1 - 2^-40 the kernel's residuals at diagonal
    rows 1.4 times the band edge fall to -1e-32 at 2 parties).  Where S
    flips every party, all in the band, ``1 - p = 1 - tan a / R``.  Third,
    the bracket's cancellation: its float64 error, below ``2 (5n + 1) u
    cos a K`` as sin a Kr <= cos a K, is ``2 (5n + 1) u / (1 - p)`` of it,
    and the ratio falls by twice that.  Both falls need 1 - p
    bounded from 0, which fails only next to a scenario's kink, where
    every party sits at the band edge and ``R = tan a``: the forced ratio
    there is the lower bound, and the pattern that flips every party has
    P_Q and P_L near 0, whose rounded residuals reach -1e-33 at 2 parties
    and -1e-124 at 8 even where F is twice w.  So a row whose x_j lie
    within W = ``_KINK_WIDTH`` = 2^-8 of each other is not proven for a
    scenario whose tan a may lie within W, relative, of the row's R
    (taken between its float32 bounds from gap_lo and gap_hi, which may
    lie 1 % apart near pi/2).  Every other row has ``1 - p >= W / (2n)``
    at every pattern, and ``1 - p >= W / 2`` where S flips every party: a
    pattern with 1 - p = b has every r_j, and so eps and every e_j, within
    b of 1 if it leaves a party forced, and every ``ln(e_j / eps)``, so
    every x_j less its band edge, below b if it flips them all; either
    way the row's x_j lie within 2b of each other and its R within 2nb,
    relative, of tan a.  Then the second fall is at most ``40 n u / (W (1
    - cos^2 t0))`` = 3.6e-6 and the third ``8 n (5n + 1) u / W`` = 1.7e-10
    at 12 parties, so each flipped pattern's computed ratio lies within
    4e-6 of a ratio no smaller than F, and its residual is positive as
    above.
    """
    n, rows = parties.shape
    size = parties.size
    # Two float32 arrays in each buffer; the first holds x in float64
    # until it is rounded.
    arrays = [b.view(np.float32)[k * size:(k + 1) * size].reshape(n, rows)
              for b in spare[1:3] + spare[:1] for k in (0, 1)]
    # Each scenario's place in falling weight, from 1 (ties by index).
    by_weight = sorted(range(len(ws)), key=lambda i: -ws[i])
    ranks = np.empty(len(ws), np.intp)
    ranks[by_weight] = np.arange(1, len(ws) + 1)
    gammas = [abs(cos_theta0(sc)) for sc in scenarios]
    bounded = [i for i, g in enumerate(gammas) if g <= _BOUNDED_COS_T0]
    # A row's need is the largest rank of a scenario that does not prove
    # it: that scenario, and each of larger weight, reads it.
    need = np.full(rows, max((ranks[i] for i, g in enumerate(gammas) if g > _BOUNDED_COS_T0),
                             default=0))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, gap_lo, gap_hi = _cosine_gaps(parties, spare[0][:size].reshape(n, rows), arrays[:4])
        # prod cos d at least, and the row's Kr / K at its forced pattern,
        # R = prod tan d, at most: no alpha.
        two_cos2 = np.subtract(2.0, gap_hi, out=arrays[1])
        root = np.sqrt(np.multiply.reduce(two_cos2, axis=0))
        root *= 0.5**(n / 2)
        np.divide(gap_hi, two_cos2, out=gap_hi)
        ratio = np.sqrt(np.multiply.reduce(gap_hi, axis=0))
        # The rows whose parties lie within the kink's width of each other,
        # the only ones that may lie at a scenario's kink, and their R at
        # least.
        spread = np.maximum.reduce(x, axis=0)
        spread -= np.minimum.reduce(x, axis=0)
        near = np.flatnonzero(spread < _KINK_WIDTH)
        low = gap_lo.take(near, axis=1)
        low /= 2.0 - low
        near = near, np.sqrt(np.multiply.reduce(low, axis=0))
        # |cos t| at most, from 1 - gap_lo.
        cos_hi = np.subtract(1.0 + _FLOAT32_SLACK, gap_lo, out=gap_lo)
        for start in range(0, len(bounded), _BOUND_GROUP):
            group = bounded[start:start + _BOUND_GROUP]
            unproven = ~_forced_proven(root, ratio, cos_hi, near, [scenarios[i] for i in group],
                                       [ws[i] for i in group], spare[3])
            columns = np.flatnonzero(np.logical_or.reduce(unproven, axis=0))
            least = np.maximum.reduce(unproven[:, columns] * ranks[group][:, None], axis=0)
            need[columns] = np.maximum(need[columns], least)
    reach = np.cumsum(np.bincount(need, minlength=len(ws) + 1)[::-1])[::-1]
    if (len(ws) * rows - int(reach[1:].sum())) << n <= _BOUND_ROW_COST * len(ws) * rows:
        return None
    kept = np.flatnonzero(need)
    if len(ws) > 1:
        kept = kept[np.argsort(-need[kept], kind="stable")]
    return kept, reach[ranks].tolist()


def _bound_buffer(scenarios: int, rows: int) -> np.ndarray:
    """The flat float32 buffer of :func:`_forced_proven`'s two (scenarios, rows)
    arrays, for at most ``_BOUND_GROUP`` scenarios at a time."""
    return np.empty(2 * min(scenarios, _BOUND_GROUP) * rows, np.float32)


def _forced_proven(root, ratio, cos_hi, near, scenarios, ws, buffer) -> np.ndarray:
    """Where the bound on the forced ratio proves each row for each scenario,
    a (scenarios, rows) boolean array.

    Takes the rows' ``root``, a lower bound on ``prod cos d_j``, their
    ``ratio`` R, an upper bound, and ``cos_hi``, an upper bound on each
    ``|cos t_j|``, and ``near``: the rows whose parties lie within
    ``_KINK_WIDTH`` of each other, with a lower bound on their R.  Such a
    row is not proven for a scenario whose ``tan a`` may lie within
    ``_KINK_WIDTH``, relative, of its R.
    """
    gammas = [abs(cos_theta0(sc)) for sc in scenarios]
    # (scenarios, 1) columns: the margin comes off cos a and onto w.
    cos_a, sin_a, tan_a, rhs, inverse = (np.array(column, np.float32)[:, None] for column in (
        [math.cos(sc.alpha) - _ROW_BOUND_MARGIN for sc in scenarios],
        [math.sin(sc.alpha) for sc in scenarios], [math.tan(sc.alpha) for sc in scenarios],
        [w * (1.0 + _ROW_BOUND_MARGIN) for w in ws],
        [0.5 / g if g else math.inf for g in gammas]))
    factor, y = buffer[:2 * sin_a.size * ratio.size].reshape(2, sin_a.size, -1)
    # w P_L at the forced pattern, w prod (1 + tau_j) / 2, at most, with y
    # as scratch.
    for j, c in enumerate(cos_hi):
        part = y if j else factor
        np.multiply.outer(inverse.ravel(), c, out=part)
        part += 0.5
        np.minimum(part, 1.0, out=part)
        factor *= rhs if j == 0 else part
    np.sqrt(factor, out=factor)
    np.multiply.outer(-sin_a.ravel(), ratio, out=y)
    y += cos_a
    rows, low = near
    if rows.size:
        kink = (ratio[rows] > tan_a * (1.0 - _KINK_WIDTH)) & (low < tan_a * (1.0 + _KINK_WIDTH))
        y[:, rows] = np.where(kink, 0.0, y[:, rows])
    y *= root
    return np.greater(y, factor)


def _certification_blocks(n: int, samples: int, seed: int, rows: int, bound: float,
                          weighted=None):
    """``(block, ends)`` of each chunk of ``rows`` rows: the diagonal grid, then the samples.

    The grid of ``DIAG_GRID_POINTS`` angles runs from 0 to pi, and sample
    i is row i of :func:`certification_thetas`; the last chunk of each
    part has fewer rows.  Each chunk's (n, rows) angles, a grid row's one
    angle to each party and a sample row's hashed, are written into
    buffers reused from chunk to chunk, where :func:`_block` computes its
    :class:`_Block` under ``bound``.  ``ends`` is None when every scenario
    reads every row of the block.

    With ``weighted``, the (scenarios, weights) of a certificate, the rows
    that :func:`_surviving_rows` leaves are compacted in the same buffers
    before their trigonometry, and ``ends`` gives each scenario's prefix
    of them; a chunk left with no row yields no block.  The first chunk,
    grid or sample, whose bounding does not pay is yielded whole, and so
    is every chunk after it.
    """
    buffers = tuple(np.empty(n * rows) for _ in range(3))
    # The angles sit in the buffer of the half-angle sines, where _block
    # halves them in place; the hash runs in the other two, and the bound
    # in those and one more.
    hashing = buffers[2], buffers[0].view(np.uint64), buffers[1].view(np.uint64)
    spare = buffers[:2] + ((np.empty(n * rows), _bound_buffer(len(weighted[1]), rows))
                           if weighted else ())

    def chunks():
        grid = np.linspace(0.0, math.pi, DIAG_GRID_POINTS)
        for start in range(0, DIAG_GRID_POINTS, rows):
            angles = grid[start:start + rows]
            parties = buffers[2][:n * angles.size].reshape(n, -1)
            parties[...] = angles
            yield parties
        for start in range(0, samples, rows):
            yield _certification_parties(seed, start, min(rows, samples - start), n, hashing)

    for parties in chunks():
        ends = None
        if weighted:
            reach = _surviving_rows(parties, *weighted, spare)
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
