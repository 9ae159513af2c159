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
from dataclasses import dataclass

import numpy as np

from .qcore import GhzScenario, ghz_state

# A scenario violates the (normalized) MABK inequality when its maximized
# value exceeds 1 + MABK_TOLERANCE.
MABK_TOLERANCE = 1e-6

# The maximizer builds 2^n x 2^n operators; keep that at desk scale.
MAX_MABK_PARTIES = 6

# Phase offsets tried over one period for the deterministic equatorial start.
_EQUATORIAL_OFFSETS = 12


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
    m = _observable(*pairs[0][0])
    m_swapped = _observable(*pairs[0][1])
    for first, second in pairs[1:]:
        b, b_prime = _observable(*first), _observable(*second)
        total, diff = b + b_prime, b - b_prime
        m, m_swapped = (
            0.5 * (np.kron(m, total) + np.kron(m_swapped, diff)),
            0.5 * (np.kron(m_swapped, total) - np.kron(m, diff)),
        )
    return m


def _mabk_value(state: np.ndarray, angles: np.ndarray) -> float:
    """MABK expectation for flat angles [t, p, t', p'] per party."""
    pairs = [
        ((angles[i], angles[i + 1]), (angles[i + 2], angles[i + 3]))
        for i in range(0, angles.size, 4)
    ]
    return float(np.vdot(state, mabk_operator(pairs) @ state).real)


def _coordinate_ascent(state: np.ndarray, angles: np.ndarray,
                       initial_step: float = 0.6, final_step: float = 1e-6,
                       gain_tol: float = 1e-12, max_sweeps: int = 20):
    """Gradient-free pattern search: sweep coordinates, shrink the step.

    A step level is abandoned once a full sweep gains less than ``gain_tol``
    (or after ``max_sweeps``); sub-tolerance improvements are still kept, so
    flat ridges cannot stall the shrink schedule.
    """
    best = _mabk_value(state, angles)
    step = initial_step
    while step > final_step:
        for _ in range(max_sweeps):
            gained = False
            for i in range(angles.size):
                for delta in (step, -step):
                    angles[i] += delta
                    value = _mabk_value(state, angles)
                    if value > best:
                        gained = gained or value > best + gain_tol
                        best = value
                        break
                    angles[i] -= delta
            if not gained:
                break
        step *= 0.5
    return best, angles


def _equatorial_start(state: np.ndarray, n: int) -> np.ndarray:
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
        value = _mabk_value(state, angles)
        if value > best_value:
            best_value, best = value, angles
    return best


def mabk_quantum_max(scenario: GhzScenario, restarts: int = 8,
                     seed: int = 0) -> MabkReport:
    """Maximize the normalized MABK expression for the GHZ state (dense, n <= 6).

    Multi-start pattern search over each party's two Bloch directions: one
    deterministic equatorial start (see :func:`_equatorial_start`), then
    ``restarts`` random starts whose streams are spawned from the seed.  The
    aggregate is the maximum over all starts, so identical arguments
    reproduce the identical report.
    """
    if scenario.n > MAX_MABK_PARTIES:
        raise ValueError(
            f"the dense MABK engine supports n <= {MAX_MABK_PARTIES}, "
            f"got {scenario.n}"
        )
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")
    state = ghz_state(scenario)
    quantum_max, _ = _coordinate_ascent(state, _equatorial_start(state, scenario.n))
    for stream in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(stream)
        angles = np.empty(4 * scenario.n)
        angles[0::2] = rng.uniform(0.0, math.pi, 2 * scenario.n)
        angles[1::2] = rng.uniform(0.0, 2.0 * math.pi, 2 * scenario.n)
        value, _ = _coordinate_ascent(state, angles)
        quantum_max = max(quantum_max, value)
    return MabkReport(
        quantum_max=quantum_max,
        violates=bool(quantum_max > 1.0 + MABK_TOLERANCE),
        implied_upper=mabk_implied_upper(scenario),
    )
