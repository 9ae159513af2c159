"""Tests for inequality-based upper bounds and the MABK maximizer."""

import math

import numpy as np
import pytest

from ghzlocal.qcore import GhzScenario
from ghzlocal.epr2 import lower_bound
from ghzlocal.bounds import (
    InequalityConstants,
    MabkReport,
    chen_upper,
    mabk_implied_upper,
    mabk_operator,
    mabk_quantum_max,
    upper_from_inequality,
)


class TestInequalityUpper:
    def test_quantum_at_no_signaling_maximum(self):
        assert upper_from_inequality(InequalityConstants(1.0, 2.0, 2.0)) == 0.0

    def test_no_quantum_violation(self):
        assert upper_from_inequality(InequalityConstants(1.0, 2.0, 1.0)) == 1.0

    def test_chsh_constants(self):
        # (4 - 2 sqrt 2) / (4 - 2) = 2 - sqrt(2), halved
        w = upper_from_inequality(InequalityConstants(2.0, 4.0, 2.0 * math.sqrt(2.0)))
        assert abs(w - 0.5857864376269049) < 1e-15

    def test_rejects_degenerate_constants(self):
        with pytest.raises(ValueError):
            InequalityConstants(2.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            InequalityConstants(1.0, 2.0, 2.5)
        with pytest.raises(ValueError):
            InequalityConstants(1.0, 2.0, 0.5)


class TestChenUpper:
    def test_product_state_reaches_one(self):
        assert chen_upper(GhzScenario(3, 0.0)) == 1.0

    def test_three_party_maximal_entanglement(self):
        assert abs(chen_upper(GhzScenario(3, math.pi / 4)) - (2.0 - math.sqrt(2.0))) < 1e-12

    def test_maximal_entanglement_increases_with_n(self):
        values = [chen_upper(GhzScenario(n, math.pi / 4)) for n in range(3, 13)]
        for smaller, larger in zip(values[:-1], values[1:]):
            assert larger > smaller
        # closed form at n = 12: (2^10 - 2^5) / (2^10 - 1) = 992/1023
        assert abs(values[-1] - 992.0 / 1023.0) < 1e-15

    def test_nonincreasing_in_alpha(self):
        for n in (3, 5, 8):
            values = [chen_upper(GhzScenario(n, float(a)))
                      for a in np.linspace(0.0, math.pi / 4, 40)]
            for later, earlier in zip(values[1:], values[:-1]):
                assert later <= earlier + 1e-12

    def test_dominates_lower_bound(self):
        for n in (3, 4, 5):
            for alpha in np.linspace(0.0, math.pi / 4, 9):
                sc = GhzScenario(n, float(alpha))
                assert chen_upper(sc) >= lower_bound(sc) - 1e-6

    def test_rejects_two_party(self):
        with pytest.raises(ValueError):
            chen_upper(GhzScenario(2, 0.3))


def chsh_planar_grid_max(alpha: float, step_deg: float = 1.0) -> float:
    """Independent oracle: exhaustive planar-angle grid for the CHSH value.

    Settings in the x-z plane, first angle of the first party fixed at 0 by
    rotational freedom; correlators are cos(ta) cos(tb) + sin(2a) sin(ta)
    sin(tb).  Chunked over the primed angle to bound memory.
    """
    s = math.sin(2.0 * alpha)
    angles = np.deg2rad(np.arange(0.0, 360.0, step_deg))

    def corr(x, y):
        return np.cos(x) * np.cos(y) + s * np.sin(x) * np.sin(y)

    best = -math.inf
    b = angles[None, :, None]
    bp = angles[None, None, :]
    fixed = corr(0.0, b) + corr(0.0, bp)
    for chunk in np.array_split(angles, 8):
        ap = chunk[:, None, None]
        value = 0.5 * (fixed + corr(ap, b) - corr(ap, bp))
        best = max(best, float(value.max()))
    return best


class TestMabk:
    def test_chsh_matrix_matches_hand_built(self):
        pairs = [((0.3, 0.0), (1.2, 0.5)), ((2.0, 1.0), (0.7, 4.0))]
        from ghzlocal.bounds import _observable

        a, ap = _observable(0.3, 0.0), _observable(1.2, 0.5)
        b, bp = _observable(2.0, 1.0), _observable(0.7, 4.0)
        expected = 0.5 * (np.kron(a, b + bp) + np.kron(ap, b - bp))
        assert np.allclose(mabk_operator(pairs), expected, atol=1e-14)

    def test_hermitian(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            pairs = [
                ((rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)),
                 (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
                for _ in range(n)
            ]
            m = mabk_operator(pairs)
            assert np.allclose(m, m.conj().T, atol=1e-13)

    def test_local_bound_is_one(self):
        # Deterministic +-1 assignments never exceed 1 in absolute value.
        rng = np.random.default_rng(4)
        for n in (2, 3):
            pairs = [((0.0, 0.0), (math.pi, 0.0)) for _ in range(n)]
            # z-aligned settings make the operator diagonal with +-1 entries
            m = mabk_operator(pairs)
            diag = np.abs(np.diag(m).real)
            assert np.max(diag) <= 1.0 + 1e-12

    def test_chsh_tsirelson(self):
        report = mabk_quantum_max(GhzScenario(2, math.pi / 4), restarts=8, seed=0)
        assert report.quantum_max >= math.sqrt(2.0) - 1e-4
        assert report.quantum_max <= math.sqrt(2.0) + 1e-6
        assert report.violates
        assert report.implied_upper == 0.0

    def test_chsh_against_grid_oracle(self):
        for alpha in (math.pi / 4, 0.3):
            grid = chsh_planar_grid_max(alpha)
            report = mabk_quantum_max(GhzScenario(2, alpha), restarts=6, seed=0)
            exact = math.sqrt(1.0 + math.sin(2.0 * alpha) ** 2)
            assert report.quantum_max >= grid - 1e-9
            assert abs(report.quantum_max - exact) < 1e-6
            assert grid > exact - 5e-3

    def test_three_party_threshold_boundary(self):
        report = mabk_quantum_max(GhzScenario(3, math.pi / 12), restarts=6, seed=0)
        assert not report.violates
        assert report.quantum_max <= 1.0 + 1e-6
        assert report.implied_upper == 1.0

    def test_three_party_no_violation_region(self):
        threshold = 0.5 * math.asin(0.5)
        for alpha in np.linspace(0.0, threshold, 5):
            report = mabk_quantum_max(GhzScenario(3, float(alpha)), restarts=4, seed=2)
            assert report.quantum_max <= 1.0 + 1e-6

    def test_three_party_maximal_entanglement(self):
        report = mabk_quantum_max(GhzScenario(3, math.pi / 4), restarts=6, seed=0)
        assert abs(report.quantum_max - 2.0) < 1e-4
        assert report.violates
        assert report.implied_upper == 0.0

    @pytest.mark.parametrize("n, alpha, seed", [
        (5, 0.3, 0),
        (4, math.pi / 4, 0),
        (4, math.pi / 4, 1),
        (4, math.pi / 4, 5),
    ])
    def test_single_restart_reaches_equatorial_value(self, n, alpha, seed):
        # These random starts alone stop at the Z-string value
        # cos^2 a + (-1)^n sin^2 a; equatorial settings attain
        # 2^((n-1)/2) sin 2a, which the maximum can never fall below.
        report = mabk_quantum_max(GhzScenario(n, alpha), restarts=1, seed=seed)
        floor = 2.0 ** ((n - 1) / 2) * math.sin(2.0 * alpha)
        assert report.quantum_max >= floor - 1e-6
        assert report.violates

    def test_implied_upper_rule(self):
        assert mabk_implied_upper(GhzScenario(4, math.pi / 4)) == 0.0
        assert mabk_implied_upper(GhzScenario(3, math.pi / 12)) == 1.0
        assert mabk_implied_upper(GhzScenario(3, 0.4)) is None
        assert mabk_implied_upper(GhzScenario(2, 0.3)) == 1.0

    def test_deterministic(self):
        a = mabk_quantum_max(GhzScenario(3, 0.5), restarts=5, seed=11)
        b = mabk_quantum_max(GhzScenario(3, 0.5), restarts=5, seed=11)
        assert a == b
        assert isinstance(a, MabkReport)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mabk_quantum_max(GhzScenario(7, 0.1))
        with pytest.raises(ValueError):
            mabk_quantum_max(GhzScenario(2, 0.1), restarts=0)
