"""Exact joint outcome probabilities for N-qubit GHZ measurement scenarios.

The state is ``cos(alpha)|0...0> + sin(alpha)|1...1>`` on ``n`` qubits.  Each
party measures a two-outcome observable along a Bloch direction ``(theta,
phi)``.  Two independent evaluation routes are provided and validate each
other:

* :func:`joint_prob_dense` -- a dense state-vector computation (projector
  applied qubit by qubit), usable for any pure state;
* :func:`joint_prob_ghz` -- a closed form specific to the GHZ family.

Conventions (fixed, since the two routes must agree bit-for-bit in spirit):
``sigma_z|0> = +|0>``, and basis index bit 0 corresponds to ``|0>``.
Probabilities are never clamped inside computations; values may carry
float-rounding noise at the 1e-16 level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

MAX_PARTIES = 12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class GhzScenario:
    """Party count and mixing angle of the state cos(a)|0..0> + sin(a)|1..1>.

    ``alpha = 0`` is a product state, ``alpha = pi/4`` the maximally
    entangled member of the family; an alpha at most 1e-15 above pi/4 is
    snapped onto it.
    """

    n: int
    alpha: float

    def __post_init__(self):
        if not (2 <= self.n <= MAX_PARTIES):
            raise ValueError(f"party count must be in [2, {MAX_PARTIES}], got {self.n}")
        if not (0.0 <= self.alpha <= math.pi / 4 + 1e-15):
            raise ValueError(f"alpha must lie in [0, pi/4], got {self.alpha}")
        if self.alpha > math.pi / 4:
            object.__setattr__(self, "alpha", math.pi / 4)


@dataclass(frozen=True)
class BlochDirection:
    """Measurement direction (sin t cos p, sin t sin p, cos t) on the sphere."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", self.phi % (2.0 * math.pi))

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


@dataclass(frozen=True)
class MeasurementContext:
    """One Bloch direction per party; the joint measurement setting."""

    directions: tuple[BlochDirection, ...]

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))

    @classmethod
    def from_angles(cls, thetas, phis) -> "MeasurementContext":
        if len(thetas) != len(phis):
            raise ValueError("thetas and phis must have equal length")
        return cls(tuple(BlochDirection(t, p) for t, p in zip(thetas, phis)))

    def __len__(self) -> int:
        return len(self.directions)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([d.theta for d in self.directions])

    @property
    def phis(self) -> np.ndarray:
        return np.array([d.phi for d in self.directions])


@dataclass(frozen=True)
class OutcomePattern:
    """Joint outcome: one sign (+1 or -1) per party."""

    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if any(x not in (-1, 1) for x in self.r):
            raise ValueError(f"outcomes must be +1 or -1, got {self.r}")

    @classmethod
    def all_plus(cls, n: int) -> "OutcomePattern":
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self.r)

    def signs(self) -> np.ndarray:
        return np.array(self.r, dtype=float)


def all_outcome_patterns(n: int):
    """Iterate over all 2^n outcome patterns in a fixed (lexicographic) order."""
    for signs in product((1, -1), repeat=n):
        yield OutcomePattern(signs)


def outcome_sign_matrix(n: int) -> np.ndarray:
    """All 2^n sign patterns as a (2^n, n) float array, same order as above."""
    return np.array([p.r for p in all_outcome_patterns(n)], dtype=float)


def ghz_state(scenario: GhzScenario) -> np.ndarray:
    """State vector of the generalized GHZ state, shape (2**n,).

    Only the all-zeros and all-ones basis amplitudes are nonzero.
    """
    amp = np.zeros(2**scenario.n, dtype=complex)
    amp[0] = math.cos(scenario.alpha)
    amp[-1] = math.sin(scenario.alpha)
    return amp


def projector(direction: BlochDirection, outcome: int) -> np.ndarray:
    """Rank-1 projector (I + r n.sigma)/2 onto the outcome-r eigenspace."""
    if outcome not in (-1, 1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    nvec = direction.unit_vector()
    ndotsigma = nvec[0] * PAULI_X + nvec[1] * PAULI_Y + nvec[2] * PAULI_Z
    return 0.5 * (np.eye(2, dtype=complex) + outcome * ndotsigma)


def joint_prob_dense(state: np.ndarray, context: MeasurementContext,
                     outcomes: OutcomePattern) -> float:
    """P(r|A) = squared norm of the state after projecting every qubit.

    The state must be a normalized vector of length 2**n with n equal to the
    context/outcome length.  Summing over all 2^n patterns gives 1.
    """
    state = np.asarray(state, dtype=complex)
    n = int(round(math.log2(state.size)))
    if 2**n != state.size:
        raise ValueError(f"state length {state.size} is not a power of two")
    if len(context) != n or len(outcomes) != n:
        raise ValueError(
            f"dimension mismatch: state has {n} qubits, context {len(context)}, "
            f"outcomes {len(outcomes)}"
        )
    norm2 = float(np.vdot(state, state).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")
    psi = state.reshape((2,) * n)
    for j, (direction, r) in enumerate(zip(context.directions, outcomes.r)):
        pi_j = projector(direction, r)
        psi = np.moveaxis(np.tensordot(pi_j, psi, axes=([1], [j])), 0, j)
    return float(np.vdot(psi, psi).real)


def joint_prob_ghz(scenario: GhzScenario, context: MeasurementContext,
                   outcomes: OutcomePattern) -> float:
    """Closed-form P(r|A) for the GHZ state, any phases.

    Agrees with :func:`joint_prob_dense` on the GHZ state to better than
    1e-10 for every input.  The phases enter only through the factor
    cos(sum of phis) on the interference term, so adding pi to one party's
    phase flips exactly that term's sign.
    """
    n = scenario.n
    if len(context) != n or len(outcomes) != n:
        raise ValueError(
            f"dimension mismatch: scenario has {n} parties, context {len(context)}, "
            f"outcomes {len(outcomes)}"
        )
    alpha, thetas, signs = scenario.alpha, context.thetas, outcomes.signs()
    scale = 0.5**n
    ru = signs * np.cos(thetas)
    c2 = math.cos(alpha) ** 2
    s2 = math.sin(alpha) ** 2
    sym = scale * (c2 * np.prod(1.0 + ru) + s2 * np.prod(1.0 - ru))
    cross = scale * math.sin(2.0 * alpha) * np.prod(signs) * np.prod(np.sin(thetas))
    phi_sum = float(np.sum(context.phis))
    return float(sym + math.cos(phi_sum) * cross)


def diagonal_prob(scenario: GhzScenario, theta):
    """P_Q with every party at polar angle theta, all outcomes +1, phase sum pi.

    Equals ``[cos(a) cos(t/2)^n - sin(a) sin(t/2)^n]^2``, the restriction of
    the closed form to the diagonal; manifestly nonnegative, with a double
    zero exactly where the bracket changes sign.  ``theta`` may be a float
    or an array of angles, all in [0, pi]; the result is a float or an
    array of the same shape.
    """
    t = np.asarray(theta, dtype=float)
    if not ((0.0 <= t) & (t <= math.pi)).all():
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    pq = _diagonal_amplitude(scenario, t) ** 2
    return float(pq) if t.ndim == 0 else pq


def cos_theta0(scenario: GhzScenario) -> float:
    """cos of the diagonal angle where P_Q (all outcomes +1) vanishes.

    ``-(1 - tan(a)^(2/n)) / (1 + tan(a)^(2/n))``; exactly -1 for a product
    state, and exactly 0 at maximal entanglement although tan(pi/4) < 1.
    """
    if scenario.alpha == math.pi / 4:
        return 0.0
    t = math.tan(scenario.alpha) ** (2.0 / scenario.n)
    return -(1.0 - t) / (1.0 + t)


def theta0(scenario: GhzScenario) -> float:
    """The vanishing angle itself, in [pi/2, pi]; ``math.pi / 2`` at alpha = pi/4."""
    return math.acos(cos_theta0(scenario))


def _diagonal_amplitude(scenario: GhzScenario, theta):
    """Signed bracket cos(a) cos(t/2)^n - sin(a) sin(t/2)^n (vectorized).

    Evaluated in the factored form
    ``cos(a)/sin(h0)^n * sin(h0 - h) * sum_k (cos h sin h0)^k (cos h0 sin h)^(n-1-k)``
    with ``h = theta/2`` and ``h0`` half the vanishing angle, which is free
    of the cancellation the direct difference suffers near its zero.

    A deliberate duplicate of the closed form of :func:`joint_prob_ghz`:
    that one subtracts two nearly equal products near ``theta0``, where the
    diagonal ratio that ``lower_bound`` minimises needs P_Q most precisely.
    """
    n = scenario.n
    half = 0.5 * np.asarray(theta, dtype=float)
    half0 = 0.5 * theta0(scenario)
    x = np.cos(half) * math.sin(half0)
    y = math.cos(half0) * np.sin(half)
    geo = sum(x**k * y ** (n - 1 - k) for k in range(n))
    return (
        math.cos(scenario.alpha) / math.sin(half0) ** n * np.sin(half0 - half) * geo
    )
