"""Tests for the local model, ratio minimization and certification."""

import math
import tracemalloc

import numpy as np
import pytest

from ghzlocal.qcore import (
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    diagonal_prob,
    joint_prob_ghz,
    outcome_sign_matrix,
)
from ghzlocal import _kernel, epr2
from ghzlocal.epr2 import (
    CERT_TOLERANCE,
    DIAG_GRID_POINTS,
    DecompositionCertificate,
    LocalModel,
    _diagonal_local_prob,
    _party_terms,
    _residual_extrema,
    certification_thetas,
    certify,
    cos_theta0,
    local_prob,
    lower_bound,
    nonlocal_prob,
    ratio_f,
    sampled_min_ratio,
    theta0,
)

from certification_rows import certification_rows, chunk_bytes, dense_reference, k_builds


def _dense_residual_extrema(scenario, w, thetas):
    """Both minima of :func:`dense_reference`, which the kernel must reproduce exactly."""
    pq_worst, pl = dense_reference(scenario, thetas)
    min_residual = float(np.min(pq_worst - w * pl))
    positive = pl > 1e-12
    if np.any(positive):
        min_ratio = float(np.min(pq_worst[positive] / pl[positive]))
    else:
        min_ratio = math.inf
    return min_residual, min_ratio


def _broadcast_kron_rows(plus, minus):
    """Allocating reference for the buffered Kronecker kernel, (2^n, rows)."""
    rows = plus.shape[1]
    out = np.stack((plus[0], minus[0]))
    for j in range(1, plus.shape[0]):
        pair = np.stack((plus[j], minus[j]))
        out = (out[:, None, :] * pair[None, :, :]).reshape(-1, rows)
    return out


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_minima(scenario, a, b, tol):
    """Golden-section minimum of the diagonal ratio on every bracket [a_i, b_i].

    A reference search: one vectorized ratio evaluation per step for all
    brackets, each leaving once narrower than ``tol``.
    """
    c = b - (b - a) * _GOLDEN
    d = a + (b - a) * _GOLDEN
    fc, fd = ratio_f(scenario, c), ratio_f(scenario, d)
    best = np.minimum(fc, fd)
    live, keep = np.arange(best.size), (b - a) > tol
    while keep.any():
        live, a, b, c, d, fc, fd = (x[keep] for x in (live, a, b, c, d, fc, fd))
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        probe = np.where(left, b - (b - a) * _GOLDEN, a + (b - a) * _GOLDEN)
        fprobe = ratio_f(scenario, probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fprobe, fd), np.where(left, fc, fprobe)
        best[live] = np.minimum(best[live], fprobe)
        keep = (b - a) > tol
    return best


def _multi_bracket_lower_bound(scenario, grid_points=10000):
    """Reference lower bound: the grid, every interior bracket, three end probes.

    A search over the whole diagonal that assumes nothing about where the
    minimum sits; it overshoots a kink by about its slope times 1e-10.
    """
    thetas = np.linspace(0.0, math.pi, grid_points)
    f = ratio_f(scenario, thetas)
    interior = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:]))[0] + 1
    refined = _refine_minima(scenario, thetas[interior - 1], thetas[interior + 1],
                             1e-10)
    ends = [ratio_f(scenario, t) for t in (theta0(scenario), 0.0, math.pi)]
    w = float(np.min(np.concatenate((f, refined, ends))))
    return min(max(w, 0.0), 1.0)


def _kink_bound_mp(mpmath, n, alpha):
    """``cos^2(2a) / (cos(a)^(2/n) + sin(a)^(2/n))^n`` to 50 digits, as a float.

    The float ``math.pi / 4`` stands for pi/4 itself, as in GhzScenario,
    where ``cos 2a`` is exactly 0.
    """
    if alpha == math.pi / 4:
        return 0.0
    with mpmath.workdps(50):
        a, e = mpmath.mpf(alpha), mpmath.mpf(2) / n
        return float(mpmath.cos(2 * a) ** 2
                     / (mpmath.cos(a) ** e + mpmath.sin(a) ** e) ** n)


def _branch_party_terms(c0, thetas):
    """Reference per-party terms with a separate branch for c0 = 0."""
    u = np.cos(np.asarray(thetas, dtype=float))
    if c0 == 0.0:
        return np.sign(u)
    return np.sign(u) * np.minimum(1.0, np.abs(u) / abs(c0))


def _branch_diagonal_local_prob(scenario, theta):
    """Reference diagonal P_L with a separate branch for c0 = 0."""
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


# Every alpha of a 51-point scan, plus two off its grid; pi/4 is the last.
_REFERENCE_ALPHAS = [
    float(a) for a in np.linspace(0.0, math.pi / 4, 51)
] + [0.3, math.pi / 4 - 1e-9]


class TestTheta0:
    def test_product_state(self):
        assert abs(theta0(GhzScenario(2, 0.0)) - math.pi) < 1e-15

    def test_maximal_entanglement(self):
        for n in (2, 3, 7):
            assert abs(theta0(GhzScenario(n, math.pi / 4)) - math.pi / 2) < 1e-12

    def test_frozen_two_party_value(self):
        # cos(theta0) = -tan(pi/4 - pi/6) = -tan(pi/12) = -(2 - sqrt(3))
        got = theta0(GhzScenario(2, math.pi / 6))
        assert abs(got - math.acos(-(2.0 - math.sqrt(3.0)))) < 1e-12

    def test_two_party_tangent_identity(self):
        for alpha in np.linspace(0.0, math.pi / 4, 101):
            sc = GhzScenario(2, float(alpha))
            assert abs(cos_theta0(sc) + math.tan(math.pi / 4 - alpha)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            sc = GhzScenario(int(rng.integers(2, 13)),
                             float(rng.uniform(0, math.pi / 4)))
            assert math.pi / 2 - 1e-12 <= theta0(sc) <= math.pi + 1e-12

    def test_two_party_bound_identity(self):
        # -cos(theta0) * cos(2a) = 1 - sin(2a) for n = 2
        for alpha in np.linspace(0.0, math.pi / 4, 101):
            sc = GhzScenario(2, float(alpha))
            lhs = -cos_theta0(sc) * math.cos(2.0 * alpha)
            assert abs(lhs - (1.0 - math.sin(2.0 * alpha))) < 1e-12


class TestLocalModel:
    def test_cos_theta0_computed_and_validated(self):
        # The scenario is the one source: no other value can be passed or set.
        sc = GhzScenario(3, 0.3)
        model = LocalModel(sc)
        assert model.cos_theta0 == cos_theta0(sc)
        with pytest.raises(TypeError):
            LocalModel(sc, cos_theta0(sc))
        with pytest.raises(AttributeError):
            model.cos_theta0 = 0.0

    def test_endpoints(self):
        assert LocalModel(GhzScenario(4, 0.0)).cos_theta0 == -1.0
        assert LocalModel(GhzScenario(4, math.pi / 4)).cos_theta0 == 0.0

    def test_product_state_matches_quantum(self):
        model = LocalModel(GhzScenario(2, 0.0))
        p = local_prob(model, [0.0, 0.0], OutcomePattern((1, 1)))
        assert abs(p - 1.0) < 1e-15

    def test_deterministic_at_maximal_entanglement(self):
        model = LocalModel(GhzScenario(2, math.pi / 4))
        p = local_prob(model, [math.pi / 3, math.pi / 3], OutcomePattern((1, 1)))
        assert abs(p - 1.0) < 1e-15

    def test_vanishes_at_theta0(self):
        sc = GhzScenario(2, math.pi / 6)
        p = local_prob(LocalModel(sc), [theta0(sc), math.pi / 4],
                       OutcomePattern((1, 1)))
        assert p == 0.0

    def test_normalization(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            n = int(rng.integers(2, 7))
            sc = GhzScenario(n, float(rng.uniform(0, math.pi / 4)))
            thetas = rng.uniform(0, math.pi, n)
            model = LocalModel(sc)
            total = sum(
                local_prob(model, thetas, pat) for pat in all_outcome_patterns(n)
            )
            assert abs(total - 1.0) < 1e-12

    def test_factorizes(self):
        # P_L(r1, r2) * sum over the other party = marginal independent of it
        sc = GhzScenario(2, 0.35)
        model = LocalModel(sc)
        thetas = [0.9, 2.4]
        for r1 in (1, -1):
            marginal = sum(
                local_prob(model, thetas, OutcomePattern((r1, r2)))
                for r2 in (1, -1)
            )
            direct = local_prob(model, [thetas[0], 0.1], OutcomePattern((r1, 1))) + \
                local_prob(model, [thetas[0], 0.1], OutcomePattern((r1, -1)))
            assert abs(marginal - direct) < 1e-12

    def test_zero_tracking_two_party(self):
        # Wherever P_Q vanishes off the diagonal (cos t1 > cos t0 > cos t2),
        # the local model vanishes too.
        for alpha in (0.1, math.pi / 12, 0.5, 0.7):
            sc = GhzScenario(2, alpha)
            model = LocalModel(sc)
            t0 = theta0(sc)
            pat = OutcomePattern((1, 1))
            for t1 in np.linspace(0.05, t0 - 0.05, 17):
                # P_Q(all +1, phase sum pi) = 0 at tan(t1/2) tan(t2/2) = cot(a)
                target = 1.0 / (math.tan(alpha) * math.tan(t1 / 2.0))
                t2 = 2.0 * math.atan(target)
                if not (0.0 < t2 < math.pi):
                    continue
                ctx = MeasurementContext.from_angles([t1, t2], [math.pi, 0.0])
                assert joint_prob_ghz(sc, ctx, pat) < 1e-12
                assert math.cos(t1) > cos_theta0(sc) > math.cos(t2)
                assert local_prob(model, [t1, t2], pat) < 1e-12

    def test_outcome_flip_reflection_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            sc = GhzScenario(n, float(rng.uniform(0, math.pi / 4)))
            model = LocalModel(sc)
            thetas = rng.uniform(0, math.pi, n)
            pat = OutcomePattern(tuple(int(s) for s in rng.choice((-1, 1), n)))
            flip = rng.choice((True, False), n)
            flipped = OutcomePattern(
                tuple(-r if f else r for r, f in zip(pat.r, flip))
            )
            reflected = thetas.copy()
            reflected[flip] = math.pi - reflected[flip]
            assert abs(
                local_prob(model, thetas, flipped)
                - local_prob(model, reflected, pat)
            ) < 1e-12

    def test_rejects_bad_lengths_and_angles(self):
        model = LocalModel(GhzScenario(2, 0.2))
        with pytest.raises(ValueError):
            local_prob(model, [0.1], OutcomePattern((1,)))
        with pytest.raises(ValueError):
            local_prob(model, [0.1, -0.2], OutcomePattern((1, 1)))

    def test_rejects_nan_angle(self):
        model = LocalModel(GhzScenario(3, 0.3))
        with pytest.raises(ValueError, match="angles must lie"):
            local_prob(model, [math.nan, 0.1, 0.2], OutcomePattern.all_plus(3))


class TestOneFormulaAtEveryAngle:
    """The local model has no separate branch for maximal entanglement."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_party_terms_match_branch_form(self, n):
        ends = [0.0, math.pi / 2, math.pi]
        grid = np.concatenate((np.linspace(0.0, math.pi, DIAG_GRID_POINTS), ends))
        sampled = certification_thetas(0, 0, 4096, n)
        for alpha in _REFERENCE_ALPHAS:
            c0 = cos_theta0(GhzScenario(n, alpha))
            for thetas in (grid, sampled):
                got, want = _party_terms(c0, np.cos(thetas)), _branch_party_terms(c0, thetas)
                assert np.array_equal(got, want), (n, alpha)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (n, alpha)
            # The +-1.0 that _block_cosines puts in place of saturated cosines.
            stand_ins = _party_terms(c0, np.array([1.0, -1.0]))
            assert np.array_equal(stand_ins, _branch_party_terms(c0, [0.0, math.pi])), (n, alpha)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_diagonal_local_prob_matches_branch_form(self, n):
        grid = np.append(np.linspace(0.0, math.pi, 4001), math.pi / 2)
        for alpha in _REFERENCE_ALPHAS:
            sc = GhzScenario(n, alpha)
            got = _diagonal_local_prob(sc, grid)
            assert np.array_equal(got, _branch_diagonal_local_prob(sc, grid)), alpha
            assert _diagonal_local_prob(sc, math.pi / 2) == got[-1]

    def test_maximal_entanglement_is_deterministic(self):
        sc = GhzScenario(3, math.pi / 4)
        assert np.array_equal(_party_terms(0.0, np.cos([0.0, 1.5, math.pi / 2, 1.6])),
                              [1.0, 1.0, 1.0, -1.0])
        assert np.array_equal(_diagonal_local_prob(sc, [1.5, math.pi / 2, 1.6]),
                              [1.0, 1.0, 0.0])


class TestRatio:
    def test_balanced_at_right_angle(self):
        # P_Q = 0 and P_L = 1, since the float cos(pi/2) is 6.1e-17 > 0
        assert ratio_f(GhzScenario(2, math.pi / 4), math.pi / 2) < 1e-12

    def test_at_zero_angle(self):
        for n, alpha in ((2, 0.0), (2, 0.3), (4, math.pi / 5 / 2)):
            sc = GhzScenario(n, alpha)
            assert abs(ratio_f(sc, 0.0) - math.cos(alpha) ** 2) < 1e-12

    def test_removable_limit_two_party(self):
        for alpha in (0.1, math.pi / 12, math.pi / 6, 0.6):
            sc = GhzScenario(2, alpha)
            limit = ratio_f(sc, theta0(sc))
            assert abs(limit - (1.0 - math.sin(2.0 * alpha))) < 1e-8

    def test_constant_plateau_two_party(self):
        # The ratio is exactly constant between pi - theta0 and theta0.
        sc = GhzScenario(2, math.pi / 6)
        t0 = theta0(sc)
        plateau = 1.0 - math.sin(math.pi / 3)
        for theta in np.linspace(math.pi - t0 + 1e-3, t0 - 1e-3, 101):
            assert abs(ratio_f(sc, float(theta)) - plateau) < 1e-12

    def test_divergence_three_party(self):
        # Numerator zero of order 2, denominator of order 3: one-sided values
        # grow ~tenfold per decade of approach, and the point value is inf.
        sc = GhzScenario(3, math.pi / 12)
        t0 = theta0(sc)
        coarse = ratio_f(sc, t0 - 1e-3)
        fine = ratio_f(sc, t0 - 1e-4)
        assert fine > 5.0 * coarse > 100.0
        assert math.isinf(ratio_f(sc, t0))
        assert math.isinf(ratio_f(sc, t0 + 1e-4))

    def test_infinite_beyond_theta0(self):
        sc = GhzScenario(3, 0.4)
        assert math.isinf(ratio_f(sc, theta0(sc) + 0.2))
        assert math.isinf(ratio_f(sc, math.pi))

    def test_product_state_flat(self):
        sc = GhzScenario(3, 0.0)
        for theta in np.linspace(0.0, math.pi - 1e-3, 51):
            assert abs(ratio_f(sc, float(theta)) - 1.0) < 1e-10
        assert abs(ratio_f(sc, math.pi) - 1.0) < 1e-6

    # The computed theta0 carries about 1e-16 of absolute error, so the limit
    # keeps about 1e-16 / offset of relative precision; at offset 1e-12 the
    # reference itself is 6e-5 from the exact 1 - sin 2a of the float alpha.
    @pytest.mark.parametrize("offset, rtol", [(1e-9, 1e-6), (1e-12, 1e-3)])
    def test_exact_limit_near_maximal_entanglement(self, offset, rtol):
        alpha = math.pi / 4 - offset
        sc = GhzScenario(2, alpha)
        reference = 2.0 * math.sin(math.pi / 4 - alpha) ** 2
        assert abs(ratio_f(sc, theta0(sc)) - reference) <= rtol * reference
        sc3 = GhzScenario(3, alpha)
        assert math.isinf(ratio_f(sc3, theta0(sc3)))

    # The band (pi - theta0, theta0) is narrower than 1e-12 here, so the
    # theta0 limit must not reach the kink, where P_L = 1 and the ratio is P_Q.
    @pytest.mark.parametrize("offset", [1e-12, 3e-13])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_kink_is_p_q_near_maximal_entanglement(self, n, offset):
        sc = GhzScenario(n, math.pi / 4 - offset)
        kink = math.pi - theta0(sc)
        value = ratio_f(sc, kink)
        assert math.isfinite(value)
        assert value == diagonal_prob(sc, kink)

    # Inside a band narrower than 1e-12 P_L is about 2^-n, not 0: the ratio
    # is the quotient there, about 2 * offset^2, and no theta0 limit.
    @pytest.mark.parametrize("offset", [1e-12, 3e-13])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_band_midpoint_is_the_quotient_near_maximal_entanglement(self, n, offset):
        sc = GhzScenario(n, math.pi / 4 - offset)
        mid = math.pi / 2
        assert math.pi - theta0(sc) < mid < theta0(sc)
        value = ratio_f(sc, mid)
        assert value == diagonal_prob(sc, mid) / _diagonal_local_prob(sc, mid)
        assert 0.0 < value < 10.0 * offset**2

    def test_rejects_theta_out_of_range(self):
        for theta in (-0.1, math.pi + 1e-9, math.nan):
            with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
                ratio_f(GhzScenario(3, 0.3), theta)


class TestLowerBound:
    def test_two_party_closed_form(self):
        for alpha in np.linspace(0.0, math.pi / 4, 11):
            sc = GhzScenario(2, float(alpha))
            assert abs(lower_bound(sc) - (1.0 - math.sin(2.0 * alpha))) < 1e-9

    def test_three_party_anchor(self):
        assert abs(lower_bound(GhzScenario(3, math.pi / 12)) - 0.28) < 0.005

    def test_endpoints(self):
        for n in (2, 3, 4, 5):
            assert lower_bound(GhzScenario(n, 0.0)) >= 1.0 - 1e-6
            assert lower_bound(GhzScenario(n, math.pi / 4)) <= 1e-6

    @pytest.mark.parametrize("n", range(2, 13))
    def test_exact_at_both_ends(self, n):
        assert lower_bound(GhzScenario(n, 0.0)) == 1.0
        assert lower_bound(GhzScenario(n, math.pi / 4)) == 0.0

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.0, math.pi / 4, 20)
        for n in (2, 3, 4, 5):
            values = [lower_bound(GhzScenario(n, float(a)), grid_points=2000)
                      for a in grid]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-9

    def test_monotone_in_n(self):
        for alpha in (math.pi / 12, math.pi / 8, math.pi / 6):
            values = [lower_bound(GhzScenario(n, alpha)) for n in (2, 3, 4, 5)]
            for smaller, larger in zip(values[1:], values[:-1]):
                assert smaller < larger

    def test_scalar_kink_matches_array_ratio(self):
        # lower_bound evaluates the ratio once, on a scalar; numpy rounds
        # x ** k on a float64 scalar differently from the same power in an
        # array, so the scalar value must agree with the array evaluator's.
        for n in range(2, 13):
            for alpha in (0.0, 0.1, 0.3, math.pi / 4):
                sc = GhzScenario(n, alpha)
                kink = math.pi - theta0(sc)
                ref = float(ratio_f(sc, np.array([kink]))[0])
                got = lower_bound(sc)
                assert got == ref or abs(got - ref) <= 1e-15 * ref, (n, alpha)

    def test_no_bracket_lies_below_the_bound(self):
        # Brackets of mixed width across the diagonal: below the kink, on
        # the band and beyond theta0.
        sc = GhzScenario(4, 0.2)
        w = lower_bound(sc)
        for a, b in ((0.1, 0.2), (1.0, 1.0004), (0.5, 2.5), (2.0, 2.1), (1.9, 1.90001)):
            f = ratio_f(sc, np.linspace(a, b, 2001))
            assert f.min() >= w * (1.0 - 1e-12), (a, b)
        assert math.isinf(ratio_f(sc, 2.05))  # beyond theta0: +inf

    def test_matches_closed_form_to_50_digits(self):
        mpmath = pytest.importorskip("mpmath")
        for n in range(2, 13):
            for alpha in np.linspace(0.0, math.pi / 4, 201):
                got = lower_bound(GhzScenario(n, float(alpha)))
                want = _kink_bound_mp(mpmath, n, float(alpha))
                assert abs(got - want) <= 1e-12 * want, (n, alpha)

    def test_matches_multi_bracket_reference(self):
        # The whole-diagonal search finds nothing below the bound, and
        # overshoots it by less than 1e-8; the bound itself carries the
        # 50-digit value's nine printed digits.
        mpmath = pytest.importorskip("mpmath")
        for n in range(2, 13):
            for alpha in np.linspace(0.0, math.pi / 4, 11):
                sc = GhzScenario(n, float(alpha))
                got, search = lower_bound(sc), _multi_bracket_lower_bound(sc)
                want = _kink_bound_mp(mpmath, n, float(alpha))
                assert got * (1.0 - 1e-12) <= search <= got * (1.0 + 1e-8), (n, alpha)
                assert abs(got - want) <= 1e-12 * want, (n, alpha)
                assert format(got, ".9g") == format(want, ".9g"), (n, alpha)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_dense_grid_never_below_the_bound(self, n):
        # Evidence that the ratio increases on the band (pi - theta0, theta0),
        # which puts the minimum at the kink; not a proof.
        thetas = np.linspace(0.0, math.pi, 200_001)
        for alpha in np.linspace(0.0, math.pi / 4, 11):
            sc = GhzScenario(n, float(alpha))
            w = lower_bound(sc)
            assert ratio_f(sc, thetas).min() >= w * (1.0 - 1e-12), alpha

    def test_default_grid_minimum_sits_at_the_kink(self):
        # For n >= 3 and alpha > 0 the default grid has one interior minimum,
        # at a grid neighbour of the kink pi - theta0, and none below the bound.
        thetas = np.linspace(0.0, math.pi, 10000)
        for n in range(3, 13):
            for alpha in np.linspace(0.0, math.pi / 4, 102)[1:]:
                sc = GhzScenario(n, float(alpha))
                f = ratio_f(sc, thetas)
                interior = np.nonzero((f[1:-1] < f[:-2]) & (f[1:-1] < f[2:]))[0] + 1
                i = int(np.argmin(f))
                assert interior.tolist() == [i], (n, alpha)
                assert abs(thetas[i] - (math.pi - theta0(sc))) <= thetas[1], (n, alpha)
                assert f[i] >= lower_bound(sc), (n, alpha)

    @pytest.mark.parametrize("n, alpha", [(2, 0.3), (5, 0.0)])
    def test_evaluates_one_grid_and_one_bracket(self, n, alpha, monkeypatch):
        points = []
        original = epr2.ratio_f
        monkeypatch.setattr(
            epr2, "ratio_f",
            lambda sc, t: points.append(np.size(t)) or original(sc, t),
        )
        lower_bound(GhzScenario(n, alpha), grid_points=10000)
        assert points == [1]  # the ratio at the kink, whatever grid_points says

    def test_ratio_agrees_with_scalar_ratio(self):
        cases = ((2, math.pi / 6), (3, math.pi / 12), (5, 0.0), (7, math.pi / 4))
        for n, alpha in cases:
            sc = GhzScenario(n, alpha)
            grid = np.append(np.linspace(0.0, math.pi, 301), theta0(sc))
            got = ratio_f(sc, grid)
            want = [ratio_f(sc, float(t)) for t in grid]
            # A float gives a Python float, an array an array of its shape.
            assert all(type(value) is float for value in want) and got.shape == grid.shape
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)
            assert got[-1] == ratio_f(sc, theta0(sc))

    @pytest.mark.parametrize("n, alpha", [(2, 0.3), (5, 0.0)])
    def test_flat_ratio_needs_few_scalar_calls(self, n, alpha, monkeypatch):
        # Flat stretches of the ratio (n = 2, and alpha = 0) cost no extra
        # calls: the bound is one ratio_f call, at the kink.
        calls = []
        original = epr2.ratio_f
        monkeypatch.setattr(
            epr2, "ratio_f", lambda sc, t: calls.append(t) or original(sc, t)
        )
        expected = 1.0 - math.sin(2.0 * alpha)
        assert abs(lower_bound(GhzScenario(n, alpha)) - expected) < 1e-9
        assert len(calls) == 1

    @pytest.mark.parametrize("alpha", [0.0, 0.3, math.pi / 4])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_takes_p_q_from_diagonal_prob(self, n, alpha, monkeypatch):
        # The traced benchmark's qcore span comes from this call.
        calls = []
        original = epr2.diagonal_prob
        monkeypatch.setattr(
            epr2, "diagonal_prob", lambda sc, t: calls.append(t) or original(sc, t)
        )
        lower_bound(GhzScenario(n, alpha))
        assert calls

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            lower_bound(GhzScenario(2, 0.1), grid_points=500)

    @pytest.mark.parametrize("bad", [5000.5, 5000.0, "5000", None])
    def test_rejects_non_integral_grid_points(self, bad):
        sc = GhzScenario(3, 0.3)
        with pytest.raises(ValueError, match="grid_points must be an integer"):
            lower_bound(sc, grid_points=bad)
        assert lower_bound(sc, grid_points=np.int64(5000)) == lower_bound(sc)

    def test_rejects_huge_grid_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="10000000"):
                lower_bound(GhzScenario(2, 0.1), grid_points=10**7 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCertify:
    def test_certified_two_party_bound(self):
        sc = GhzScenario(2, math.pi / 6)
        cert = certify(sc, 1.0 - math.sin(math.pi / 3), samples=100_000, seed=0)
        assert not cert.violated
        assert cert.min_residual >= -CERT_TOLERANCE

    def test_weight_one_violated_for_entangled(self):
        cert = certify(GhzScenario(2, math.pi / 6), 1.0, samples=10_000, seed=0)
        assert cert.violated
        assert cert.min_residual < -1e-3

    def test_weight_zero_nonnegative(self):
        for n, alpha in ((2, 0.3), (3, 0.64), (4, math.pi / 4), (5, 0.0), (8, 0.3)):
            cert = certify(GhzScenario(n, alpha), 0.0, samples=20_000, seed=3)
            assert not cert.violated
            assert cert.min_residual == 0.0

    def test_reproducible(self):
        sc = GhzScenario(3, 0.5)
        a = certify(sc, 0.08, samples=30_000, seed=42)
        b = certify(sc, 0.08, samples=30_000, seed=42)
        assert a == b

    def test_chunking_invariance(self, monkeypatch):
        sc = GhzScenario(3, 0.4)
        whole = (certify(sc, 0.1, samples=10_000, seed=7),
                 sampled_min_ratio(sc, samples=10_000, seed=7))
        monkeypatch.setattr(_kernel, "_CERT_CHUNK_BYTES", chunk_bytes(3, 512))
        assert len(list(certification_rows(3, 10_000, 7))) == 4 + 20
        chunked = (certify(sc, 0.1, samples=10_000, seed=7),
                   sampled_min_ratio(sc, samples=10_000, seed=7))
        assert chunked == whole

    @pytest.mark.parametrize("n", range(2, 13))
    def test_split_reductions_match_both_extrema(self, n):
        # certify keeps only the residual and sampled_min_ratio only the
        # ratio; each must equal its half of the both-extrema kernel.
        samples, seed, w = (3000 if n <= 8 else 300), 5, 0.3
        rows = list(certification_rows(n, samples, seed))
        for alpha in (0.0, 0.2, math.pi / 4):
            sc = GhzScenario(n, alpha)
            residuals, ratios = zip(*(_residual_extrema(sc, w, t) for t in rows))
            assert certify(sc, w, samples=samples, seed=seed).min_residual == min(residuals)
            assert sampled_min_ratio(sc, samples=samples, seed=seed) == min(
                max(min(ratios), 0.0), 1.0
            )

    def test_certify_skips_the_ratio(self, monkeypatch):
        sc = GhzScenario(4, 0.3)
        expected = certify(sc, 0.05, samples=5000, seed=2)

        def refuse(*args):
            raise AssertionError("certify reduced the ratio")

        monkeypatch.setattr(epr2, "_min_ratio", refuse)
        assert certify(sc, 0.05, samples=5000, seed=2) == expected

    def test_violated_flag_matches_tolerance(self):
        cert = certify(GhzScenario(2, 0.4), 0.3, samples=5_000, seed=1)
        assert cert.violated == (cert.min_residual < -CERT_TOLERANCE)
        assert isinstance(cert, DecompositionCertificate)

    def test_kernel_against_scalar_oracle(self):
        # Replays the first sample rows through the public scalar functions
        # (both phase extremes, all patterns) and compares minima.
        sc = GhzScenario(3, 0.37)
        w = 0.15
        samples = 60
        thetas = certification_thetas(11, 0, samples, sc.n)
        model = LocalModel(sc)
        naive = math.inf
        for row in thetas:
            for pat in all_outcome_patterns(sc.n):
                pl = local_prob(model, row, pat)
                for phi0 in (math.pi, 0.0):
                    ctx = MeasurementContext.from_angles(
                        row, [phi0] + [0.0] * (sc.n - 1)
                    )
                    naive = min(naive, joint_prob_ghz(sc, ctx, pat) - w * pl)
        kernel, _ = _residual_extrema(sc, w, thetas, outcome_sign_matrix(sc.n))
        assert abs(kernel - naive) < 1e-12

    def test_kernel_matches_dense_reference_bit_for_bit(self):
        for n in range(2, 9):
            rows = certification_thetas(n, 0, 300, n)
            # exact zeros, right angles and pi exercise the sgn(0) and
            # saturated branches of the local model
            rows[:3] = [[0.0] * n, [math.pi / 2] * n, [math.pi] * n]
            for alpha in (0.0, 0.2, 0.5, math.pi / 4):
                sc = GhzScenario(n, alpha)
                for w in (0.0, 0.5, 1.0):
                    got = _residual_extrema(sc, w, rows)
                    assert got == _dense_residual_extrema(sc, w, rows)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_kernel_matches_dense_reference_at_large_n(self, n):
        rows = certification_thetas(n, 0, 64, n)
        rows[:3] = [[0.0] * n, [math.pi / 2] * n, [math.pi] * n]
        for alpha in (0.0, 0.2, math.pi / 4):
            sc = GhzScenario(n, alpha)
            for w in (0.0, 0.5, 1.0):
                assert _residual_extrema(sc, w, rows) == _dense_residual_extrema(sc, w, rows)

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_oracle_reduces_across_chunks(self, n):
        # _residual_extrema reduces its rows chunk by chunk, from +inf: over
        # more rows than one chunk, and with no row of exact zeros, both of
        # its values are the np.prod reference's, also where they lie above 0.
        rows = certification_thetas(n + 20, 0, 2 * _kernel._chunk_rows(n) + 3, n)
        for alpha in (0.2, 0.5):
            sc = GhzScenario(n, alpha)
            for w in (0.0, 0.05, 1.0):
                got = _residual_extrema(sc, w, rows)
                assert got == _dense_residual_extrema(sc, w, rows)
                assert got[1] > 0.0 and (w > 0.0 or got[0] > 0.0)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_buffered_kron_matches_broadcast_reference(self, n):
        rng = np.random.default_rng(n)
        for rows in (1, 37):
            plus, minus = rng.uniform(size=(2, n, rows))
            out, spare = np.empty(2**n * rows), np.empty(2**n * rows)
            got = _kernel._kron_rows(plus, minus, out, spare)
            assert np.shares_memory(got, out)
            assert np.array_equal(got, _broadcast_kron_rows(plus, minus))

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_buffers_serve_a_full_chunk_then_a_tail(self, n):
        rng = np.random.default_rng(n)
        buffers = np.empty(2**n * 37), np.empty(2**n * 37)
        for rows in (37, 5):
            plus, minus = rng.uniform(size=(2, n, rows))
            got = _kernel._kron_rows(plus, minus, *buffers)
            assert np.array_equal(got, _broadcast_kron_rows(plus, minus))

    @pytest.mark.parametrize("n", [3, 9, 12])
    def test_chunk_budget_leaves_results_unchanged(self, monkeypatch, n):
        sc = GhzScenario(n, 0.3)
        w = lower_bound(sc)

        def scans():
            return (certify(sc, w, samples=64, seed=4),
                    sampled_min_ratio(sc, samples=64, seed=4))

        default = scans()
        # 32 MiB per array, and one n = 12 sample row per chunk
        for budget in (32 * 2**20, 8 * 2**12):
            monkeypatch.setattr(_kernel, "_CERT_CHUNK_BYTES", budget)
            assert scans() == default

    def test_kernel_refuses_other_patterns(self):
        sc = GhzScenario(3, 0.3)
        rows = certification_thetas(0, 0, 4, 3)
        with pytest.raises(ValueError):
            _residual_extrema(sc, 0.1, rows, outcome_sign_matrix(3)[::-1])
        with pytest.raises(ValueError):
            _residual_extrema(sc, 0.1, rows, outcome_sign_matrix(3)[:4])

    @pytest.mark.parametrize("n", [11, 12])
    def test_large_n_certifies_in_bounded_memory(self, n):
        sc = GhzScenario(n, math.pi / 12)
        w = lower_bound(sc)
        tracemalloc.start()
        try:
            cert = certify(sc, w, samples=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not cert.violated
        assert peak < 256 * 2**20

    @pytest.mark.parametrize("n", [11, 12])
    def test_certification_arrays_stay_cache_sized(self, n):
        sc = GhzScenario(n, math.pi / 12)
        w = lower_bound(sc)
        for scan in (lambda: certify(sc, w, samples=2048),
                     lambda: sampled_min_ratio(sc, samples=2048)):
            tracemalloc.start()
            try:
                scan()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_sample_stream_is_per_index(self):
        whole = certification_thetas(5, 0, 200, 4)
        assert np.array_equal(certification_thetas(5, 37, 1, 4)[0], whole[37])
        assert np.array_equal(certification_thetas(5, 100, 50, 4), whole[100:150])
        assert whole.min() >= 0.0 and whole.max() < math.pi
        assert not np.array_equal(
            certification_thetas(5, 0, 200, 4), certification_thetas(6, 0, 200, 4)
        )

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            certify(GhzScenario(2, 0.1), 1.5)
        with pytest.raises(ValueError):
            certify(GhzScenario(2, 0.1), -0.1)

    @pytest.mark.parametrize("bad", [{"samples": 1000.0}, {"samples": "1000"},
                                     {"seed": 1.5}, {"seed": None}])
    def test_rejects_non_integral_samples_and_seed(self, bad):
        name = next(iter(bad))
        sc = GhzScenario(3, 0.3)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            certify(sc, 0.1, **bad)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            certify([sc], [0.1], **bad)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            sampled_min_ratio(sc, **bad)

    def test_numpy_integer_samples_and_seed_are_plain_ints(self):
        sc = GhzScenario(3, 0.3)
        cert = certify(sc, 0.1, samples=np.int64(500), seed=np.uint8(3))
        assert cert == certify(sc, 0.1, samples=500, seed=3)
        assert type(cert.samples) is int and type(cert.seed) is int
        assert sampled_min_ratio(sc, samples=np.int32(500), seed=np.int64(3)) == (
            sampled_min_ratio(sc, samples=500, seed=3))

    def test_sampled_min_ratio_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            sampled_min_ratio(GhzScenario(3, 0.3), samples=-5)

    def test_sampled_min_ratio_certifiable(self):
        sc = GhzScenario(3, 0.3)
        w = sampled_min_ratio(sc, samples=20_000, seed=9)
        assert 0.0 <= w <= 1.0
        cert = certify(sc, w, samples=20_000, seed=9)
        assert not cert.violated
        # and it beats the lower bound only within tolerance
        assert w >= lower_bound(sc) - 1e-9


class TestCertifySequence:
    """certify over equal-length sequences: one pass, each certificate as alone."""

    ALPHAS = (0.0, 0.2, math.pi / 4)
    WEIGHTS = (1.0, 0.3, 0.05)

    def _batch_and_singles(self, n, samples, seed):
        scenarios = [GhzScenario(n, alpha) for alpha in self.ALPHAS]
        ws = self.WEIGHTS
        batch = certify(scenarios, ws, samples=samples, seed=seed)
        singles = [certify(sc, w, samples=samples, seed=seed)
                   for sc, w in zip(scenarios, ws)]
        return batch, singles

    @pytest.mark.parametrize("n", range(2, 13))
    def test_each_certificate_equals_the_single_call(self, n):
        batch, singles = self._batch_and_singles(n, 3000 if n <= 8 else 300, 5)
        assert isinstance(batch, list)
        assert batch == singles
        assert [repr(c.min_residual) for c in batch] == [
            repr(c.min_residual) for c in singles]

    @pytest.mark.parametrize("n", [3, 9, 12])
    def test_equal_under_other_chunk_sizes(self, monkeypatch, n):
        # Single calls keep their values under these sizes
        # (TestCertify::test_chunk_budget_leaves_results_unchanged).
        scenarios = [GhzScenario(n, alpha) for alpha in self.ALPHAS]
        default, singles = self._batch_and_singles(n, 64, 4)
        assert default == singles
        for budget in (chunk_bytes(n, 512), 32 * 2**20, 8 * 2**12):
            with monkeypatch.context() as patch:
                patch.setattr(_kernel, "_CERT_CHUNK_BYTES", budget)
                assert certify(scenarios, self.WEIGHTS, samples=64, seed=4) == default

    def test_alpha_free_half_runs_once_per_chunk(self, monkeypatch):
        # The chunk size is read at call time, and the alpha-free half runs
        # once per chunk however many scenarios share the pass.  The row
        # bound is off, so that every chunk is read.
        monkeypatch.setattr(_kernel, "_CERT_CHUNK_BYTES", chunk_bytes(3, 512))
        monkeypatch.setattr(_kernel, "_surviving_rows", lambda *args: None)
        scenarios = [GhzScenario(3, alpha) for alpha in self.ALPHAS]
        builds, _ = k_builds(scenarios, 10_000, 7, list(self.WEIGHTS))
        assert builds == 4 + 20

    def test_batch_memory_does_not_grow_with_the_scenarios(self):
        # Each block's rows are read within that block, so 100 scenarios at
        # 8 parties, whose rows take every path, peak below twice the memory
        # of one.
        def peak(alphas):
            scenarios = [GhzScenario(8, float(alpha)) for alpha in alphas]
            tracemalloc.start()
            try:
                certify(scenarios, [0.5] * len(scenarios), samples=2048, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alphas = np.linspace(0.05, math.pi / 4 - 0.05, 100)
        assert peak(alphas) < 2 * peak(alphas[:1])

    def test_refuses_mixed_party_counts(self):
        with pytest.raises(ValueError, match="one party count"):
            certify([GhzScenario(3, 0.2), GhzScenario(4, 0.2)], [0.1, 0.1])

    def test_refuses_unequal_lengths(self):
        with pytest.raises(ValueError, match="2 scenarios and 3 weights"):
            certify([GhzScenario(3, 0.2)] * 2, [0.1] * 3)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_checks_every_weight_before_computing(self, monkeypatch, bad):
        def refuse(*args):
            raise AssertionError("computed before checking every weight")

        monkeypatch.setattr(epr2, "_min_residuals", refuse)
        monkeypatch.setattr(epr2, "factor_pieces", refuse)
        with pytest.raises(ValueError, match="w must lie in"):
            certify([GhzScenario(3, a) for a in self.ALPHAS], [0.1, 0.2, bad])

    @pytest.mark.parametrize("pairing, form", [
        ("sequence, number", "w must be a sequence of real numbers"),
        ("scenario, sequence", "w must be a real number for one scenario"),
        ("sequence, string", "w must be a sequence of real numbers"),
        ("sequence, strings", "w must be a sequence of real numbers"),
        ("number, number", "scenario must be a GhzScenario or a sequence of them"),
        ("strings, sequence", "scenario must be a GhzScenario or a sequence of them"),
    ])
    def test_refuses_other_argument_pairings(self, monkeypatch, pairing, form):
        def refuse(*args):
            raise AssertionError("computed before checking the arguments")

        monkeypatch.setattr(epr2, "_min_residuals", refuse)
        sc = GhzScenario(3, 0.2)
        scenario, w = {
            "sequence, number": ([sc, sc], 0.5),
            "scenario, sequence": (sc, [0.5]),
            "sequence, string": ([sc, sc], "ab"),
            "sequence, strings": ([sc, sc], ["0.5", "0.5"]),
            "number, number": (3, 0.5),
            "strings, sequence": (["ab"], [0.5]),
        }[pairing]
        with pytest.raises(ValueError, match=form):
            certify(scenario, w)

    def test_accepts_numpy_weights(self):
        scenarios = [GhzScenario(3, alpha) for alpha in self.ALPHAS]
        expected = certify(scenarios, list(self.WEIGHTS), samples=500, seed=1)
        assert certify(scenarios, np.array(self.WEIGHTS), samples=500, seed=1) == expected
        assert certify(scenarios[1], np.float64(0.3), samples=500, seed=1) == expected[1]

    def test_empty_sequence_gives_empty_list(self):
        assert certify([], [], samples=1000, seed=3) == []
        assert certify((), ()) == []

    def test_never_reduces_the_ratio(self, monkeypatch):
        scenarios = [GhzScenario(4, alpha) for alpha in self.ALPHAS]
        expected = certify(scenarios, self.WEIGHTS, samples=5000, seed=2)

        def refuse(*args):
            raise AssertionError("certify reduced the ratio")

        monkeypatch.setattr(epr2, "_min_ratio", refuse)
        assert certify(scenarios, self.WEIGHTS, samples=5000, seed=2) == expected

    @pytest.mark.parametrize("n", [11, 12])
    def test_stays_cache_sized(self, n):
        scenarios = [GhzScenario(n, alpha) for alpha in self.ALPHAS]
        ws = [lower_bound(sc) for sc in scenarios]
        tracemalloc.start()
        try:
            certificates = certify(scenarios, ws, samples=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(c.violated for c in certificates)
        assert peak < 8 * 2**20


class TestNonlocalPart:
    def test_degenerate_weight_zero(self):
        sc = GhzScenario(2, 0.4)
        ctx = MeasurementContext.from_angles([0.7, 2.1], [1.0, 0.3])
        pat = OutcomePattern((1, -1))
        assert nonlocal_prob(sc, 0.0, ctx, pat) == joint_prob_ghz(sc, ctx, pat)

    def test_normalized(self):
        sc = GhzScenario(2, math.pi / 12)
        rng = np.random.default_rng(21)
        for _ in range(20):
            ctx = MeasurementContext.from_angles(
                rng.uniform(0, math.pi, 2), rng.uniform(0, 2 * math.pi, 2)
            )
            total = sum(
                nonlocal_prob(sc, 0.5, ctx, pat) for pat in all_outcome_patterns(2)
            )
            assert abs(total - 1.0) < 1e-12

    def test_vanishes_at_common_zero(self):
        sc = GhzScenario(2, math.pi / 6)
        w = 1.0 - math.sin(math.pi / 3)
        t0 = theta0(sc)
        ctx = MeasurementContext.from_angles([t0, t0], [math.pi, 0.0])
        assert abs(nonlocal_prob(sc, w, ctx, OutcomePattern((1, 1)))) < 1e-9

    def test_nonnegative_at_certified_weight(self):
        sc = GhzScenario(3, 0.3)
        w = lower_bound(sc)
        rng = np.random.default_rng(22)
        for _ in range(30):
            ctx = MeasurementContext.from_angles(
                rng.uniform(0, math.pi, 3), rng.uniform(0, 2 * math.pi, 3)
            )
            for pat in all_outcome_patterns(3):
                assert nonlocal_prob(sc, w, ctx, pat) >= -1e-12

    def test_rejects_weight_one(self):
        sc = GhzScenario(2, 0.1)
        ctx = MeasurementContext.from_angles([0.1, 0.2], [0.0, 0.0])
        with pytest.raises(ValueError):
            nonlocal_prob(sc, 1.0, ctx, OutcomePattern((1, 1)))
