"""Upper bounds on the local content from Bell-type inequalities.

Any inequality with local bound P_L*, no-signaling maximum P_NS* and quantum
value P_Q* caps the local content at ``(P_NS* - P_Q*) / (P_NS* - P_L*)``.
Two concrete sources are implemented: a closed form valid for n >= 3
(:func:`chen_upper`) and a numerically maximized
Mermin-Ardehali-Belinskii-Klyshko expression (:func:`mabk_quantum_max`),
normalized so every local model satisfies value <= 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .qcore import GhzScenario, _integer, ghz_state

# A scenario violates the (normalized) MABK inequality when its maximized
# value exceeds 1 + MABK_TOLERANCE.
MABK_TOLERANCE = 1e-6

# Phase offsets tried over one period for the deterministic equatorial start.
_EQUATORIAL_OFFSETS = 12

# Pattern search schedule: the step starts at _INITIAL_STEP radians and
# halves until it reaches _FINAL_STEP; each step level runs at most
# _MAX_SWEEPS sweeps and stops after a sweep that gains less than _GAIN_TOL.
_INITIAL_STEP = 0.6
_FINAL_STEP = 1e-6
_MAX_SWEEPS = 20
_GAIN_TOL = 1e-12


@dataclass(frozen=True)
class InequalityConstants:
    """Local bound, no-signaling maximum and quantum value of one Bell expression."""

    p_local: float
    p_ns: float
    p_quantum: float

    def __post_init__(self):
        if self.p_ns <= self.p_local:
            raise ValueError(
                f"no-signaling maximum {self.p_ns} must exceed local bound {self.p_local}"
            )
        if not (self.p_local <= self.p_quantum <= self.p_ns):
            raise ValueError(
                f"quantum value {self.p_quantum} must lie between local bound "
                f"{self.p_local} and no-signaling maximum {self.p_ns}"
            )


def upper_from_inequality(constants: InequalityConstants) -> float:
    """Local-content cap (P_NS* - P_Q*) / (P_NS* - P_L*), clamped to [0, 1]."""
    w = (constants.p_ns - constants.p_quantum) / (constants.p_ns - constants.p_local)
    return min(max(w, 0.0), 1.0)


def chen_upper(scenario: GhzScenario) -> float:
    """Closed-form upper bound for n >= 3 from a GHZ-maximized Bell inequality.

    Uses local bound 1, no-signaling maximum 2^(n-2) and quantum value
    sqrt(2^(n-2) sin(2a)^2 + cos(2a)^2).  Equals 1 at a = 0 and
    (2^(n-2) - 2^((n-2)/2)) / (2^(n-2) - 1) at a = pi/4, which increases
    toward 1 with n.  Rejected at n = 2, where the constants degenerate.
    """
    if scenario.n < 3:
        raise ValueError(
            f"the closed-form upper bound needs n >= 3, got {scenario.n}"
        )
    p_ns = 2.0 ** (scenario.n - 2)
    two_alpha = 2.0 * scenario.alpha
    p_quantum = math.sqrt(
        p_ns * math.sin(two_alpha) ** 2 + math.cos(two_alpha) ** 2
    )
    return upper_from_inequality(
        InequalityConstants(p_local=1.0, p_ns=p_ns, p_quantum=p_quantum)
    )


@dataclass(frozen=True)
class MabkReport:
    """Outcome of maximizing the normalized MABK expression for one scenario.

    ``implied_upper`` is :func:`mabk_implied_upper` for the scenario; it is
    rule-based and independent of ``quantum_max``, so for n = 2 a report can
    pair ``violates=True`` with ``implied_upper=1.0``.
    """

    quantum_max: float
    violates: bool
    implied_upper: float | None


def mabk_implied_upper(scenario: GhzScenario) -> float | None:
    """Rule-based local-content cap from the MABK family; None when unstated.

    0.0 at maximal entanglement.  1.0 when ``sin(2a) <= 2^-((n-1)/2)``: for
    n >= 3 that is the region where no violation is possible, but for n = 2
    every a > 0 violates CHSH (maximum ``sqrt(1 + sin(2a)^2)``), so there
    1.0 is only the trivial cap w <= 1.  None otherwise.
    """
    if scenario.alpha == math.pi / 4:
        return 0.0
    if math.sin(2.0 * scenario.alpha) <= 2.0 ** (-(scenario.n - 1) / 2.0) + 1e-12:
        return 1.0
    return None


def _observable(theta: float, phi: float) -> np.ndarray:
    """+-1-valued observable n.sigma for a Bloch direction (2x2 Hermitian)."""
    st, ct = math.sin(theta), math.cos(theta)
    e = complex(math.cos(phi), math.sin(phi))
    return np.array([[ct, st * e.conjugate()], [st * e, -ct]], dtype=complex)


def mabk_operator(setting_pairs) -> np.ndarray:
    """Dense MABK operator for per-party setting pairs ((t, p), (t', p')).

    Built by the two-term recursion: start from the first party's pair of
    observables and, per added party, combine half the sum and half the
    difference of its two observables with the running operator and its
    settings-swapped partner.  For two parties this is the CHSH combination
    normalized to local bound 1; the local bound stays 1 for every n.
    """
    pairs = list(setting_pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two parties")
    return _mabk_recursion([_observable(*s) for pair in pairs for s in pair], np.kron)


def _mabk_recursion(observables, product):
    """The recursion of :func:`mabk_operator`, parties joined by ``product``.

    ``observables`` holds each party's pair in turn: [A_0, A'_0, A_1, ...].
    The recursion is multilinear, so it runs unchanged on any one entry of
    the 2x2 observables joined by ``operator.mul``: the entry of a
    Kronecker product on ``|0..0>, |1..1>`` is the product of the factors'
    entries.
    """
    m, m_swapped = observables[0], observables[1]
    for k in range(2, len(observables), 2):
        b, b_prime = observables[k], observables[k + 1]
        total, diff = b + b_prime, b - b_prime
        m, m_swapped = (
            0.5 * (product(m, total) + product(m_swapped, diff)),
            0.5 * (product(m_swapped, total) - product(m, diff)),
        )
    return m


def _mabk_value(support: np.ndarray, angles: np.ndarray) -> float:
    """MABK expectation for flat angles [t, p, t', p'] per party.

    ``support`` is the GHZ state's two nonzero amplitudes (c, s), on
    |0..0>, |1..1>, both real.  The operator's 2x2 corner there has
    diagonal ``(d, (-1)^n d)`` and off-diagonal ``(o, conj o)``, where d is
    the recursion on the observables' ``cos t`` entries and o on their
    ``sin t e^{-ip}`` entries, so the value is
    ``(c^2 + (-1)^n s^2) d + 2 c s Re o``.
    """
    c, s = support.real.tolist()
    thetas, phis = angles[0::2].tolist(), angles[1::2].tolist()
    diag = _mabk_recursion([math.cos(t) for t in thetas], operator.mul)
    off = _mabk_recursion(
        [math.sin(t) * complex(math.cos(p), -math.sin(p)) for t, p in zip(thetas, phis)],
        operator.mul,
    )
    parity = (-1.0) ** (angles.size // 4)
    return float((c * c + parity * s * s) * diag + 2.0 * c * s * off.real)


def _coordinate_ascent(support: np.ndarray, angles: np.ndarray) -> float:
    """Gradient-free pattern search: sweep coordinates, shrink the step.

    Moves ``angles`` in place and returns the best value reached.

    A step level is abandoned once a full sweep gains less than
    ``_GAIN_TOL`` (or after ``_MAX_SWEEPS``); sub-tolerance improvements
    are still kept, so flat ridges cannot stall the shrink schedule.
    """
    best = _mabk_value(support, angles)
    step = _INITIAL_STEP
    while step > _FINAL_STEP:
        for _ in range(_MAX_SWEEPS):
            gained = False
            for i in range(angles.size):
                for delta in (step, -step):
                    angles[i] += delta
                    value = _mabk_value(support, angles)
                    if value > best:
                        gained = gained or value > best + _GAIN_TOL
                        best = value
                        break
                    angles[i] -= delta
            if not gained:
                break
        step *= 0.5
    return best


def _equatorial_start(support: np.ndarray, n: int) -> np.ndarray:
    """Deterministic start in the equatorial plane: every theta = pi/2, the
    first direction of each party at a common phase d, the second at
    d + pi/2.

    The value depends on d only through the phase sum n*d, so it is a
    sinusoid of period 2*pi/n; d is the best of _EQUATORIAL_OFFSETS evenly
    spaced offsets over that period.  Such settings reach
    2^((n-1)/2) sin(2a), which random starts can miss by stopping at the
    Z-string value cos^2 a + (-1)^n sin^2 a.
    """
    best_value, best = -math.inf, None
    for k in range(_EQUATORIAL_OFFSETS):
        d = 2.0 * math.pi * k / (n * _EQUATORIAL_OFFSETS)
        angles = np.tile([math.pi / 2, d, math.pi / 2, d + math.pi / 2], n)
        value = _mabk_value(support, angles)
        if value > best_value:
            best_value, best = value, angles
    return best


def mabk_quantum_max(scenario: GhzScenario, restarts: int = 8,
                     seed: int = 0) -> MabkReport:
    """Maximize the normalized MABK expression for the GHZ state, on its support.

    Multi-start pattern search over each party's two Bloch directions: one
    deterministic equatorial start (see :func:`_equatorial_start`), then
    ``restarts`` random starts whose streams are spawned from the seed.  The
    aggregate is the maximum over all starts, so identical arguments
    reproduce the identical report.  ``restarts`` must be a positive integer.
    """
    restarts = _integer("restarts", restarts)
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")
    support = ghz_state(scenario)[[0, -1]]
    quantum_max = _coordinate_ascent(support, _equatorial_start(support, scenario.n))
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        angles = np.empty(4 * scenario.n)
        angles[0::2] = rng.uniform(0.0, math.pi, 2 * scenario.n)
        angles[1::2] = rng.uniform(0.0, 2.0 * math.pi, 2 * scenario.n)
        quantum_max = max(quantum_max, _coordinate_ascent(support, angles))
    return MabkReport(
        quantum_max=quantum_max,
        violates=bool(quantum_max > 1.0 + MABK_TOLERANCE),
        implied_upper=mabk_implied_upper(scenario),
    )
