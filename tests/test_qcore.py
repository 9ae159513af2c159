"""Tests for the quantum probability core: state, projectors, both oracles."""

import math

import numpy as np
import pytest

import ghzlocal
from ghzlocal import epr2
from ghzlocal.qcore import (
    BlochDirection,
    GhzScenario,
    MeasurementContext,
    OutcomePattern,
    all_outcome_patterns,
    diagonal_prob,
    ghz_state,
    joint_prob_dense,
    joint_prob_ghz,
    cos_theta0,
    projector,
    theta0,
)
from ghzlocal.bounds import mabk_implied_upper


def random_config(rng, n=None):
    n = int(rng.integers(2, 7)) if n is None else n
    scenario = GhzScenario(n, float(rng.uniform(0.0, math.pi / 4)))
    context = MeasurementContext.from_angles(
        rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n)
    )
    pattern = OutcomePattern(tuple(int(s) for s in rng.choice((-1, 1), n)))
    return scenario, context, pattern


class TestDomainTypes:
    def test_scenario_rejects_bad_n(self):
        with pytest.raises(ValueError):
            GhzScenario(1, 0.1)
        with pytest.raises(ValueError):
            GhzScenario(13, 0.1)

    @pytest.mark.parametrize("n", [3.0, 3.5, np.float64(3.0), "3", None])
    def test_scenario_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError, match="party count must be an integer"):
            GhzScenario(n, 0.2)

    def test_scenario_stores_numpy_integer_n_as_int(self):
        sc = GhzScenario(np.int64(3), 0.2)
        assert type(sc.n) is int
        assert sc == GhzScenario(3, 0.2)
        assert hash(sc) == hash(GhzScenario(3, 0.2))

    def test_scenario_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            GhzScenario(3, -0.01)
        with pytest.raises(ValueError):
            GhzScenario(3, math.pi / 4 + 0.01)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_scenario_snaps_alpha_just_above_pi_over_4(self, n):
        above = [math.nextafter(math.pi / 4, 1.0)]
        while math.nextafter(above[-1], 1.0) <= math.pi / 4 + 1e-15:
            above.append(math.nextafter(above[-1], 1.0))
        assert len(above) == 9
        for alpha in above:
            sc = GhzScenario(n, alpha)
            assert sc == GhzScenario(n, math.pi / 4)
            assert cos_theta0(sc) <= 0.0
            assert math.pi / 2 <= theta0(sc) <= math.pi
            assert mabk_implied_upper(sc) == 0.0

    def test_direction_theta_range_and_phi_mod(self):
        with pytest.raises(ValueError):
            BlochDirection(-0.1, 0.0)
        with pytest.raises(ValueError):
            BlochDirection(math.pi + 0.1, 0.0)
        d = BlochDirection(0.3, 2.0 * math.pi + 1.0)
        assert abs(d.phi - 1.0) < 1e-12

    def test_outcome_pattern_rejects_non_signs(self):
        with pytest.raises(ValueError):
            OutcomePattern((1, 0))
        assert OutcomePattern.all_plus(3).r == (1, 1, 1)

    def test_all_outcome_patterns_count(self):
        assert len(list(all_outcome_patterns(4))) == 16


class TestGhzState:
    def test_product_state(self):
        amp = ghz_state(GhzScenario(2, 0.0))
        assert np.allclose(amp, [1.0, 0.0, 0.0, 0.0])

    def test_maximally_entangled(self):
        amp = ghz_state(GhzScenario(2, math.pi / 4))
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(amp, [r, 0.0, 0.0, r])

    def test_three_party_amplitudes(self):
        amp = ghz_state(GhzScenario(3, math.pi / 6))
        assert abs(amp[0] - math.cos(math.pi / 6)) < 1e-15
        assert abs(amp[7] - 0.5) < 1e-15
        assert np.all(amp[1:7] == 0.0)

    def test_normalized(self):
        amp = ghz_state(GhzScenario(5, 0.37))
        assert abs(np.vdot(amp, amp).real - 1.0) < 1e-12

    def test_rejects_beyond_dense_range(self):
        amp = ghz_state(GhzScenario(12, 0.1))
        assert amp.shape == (4096,)
        assert np.count_nonzero(amp) == 2
        assert abs(np.vdot(amp, amp).real - 1.0) < 1e-12
        with pytest.raises(ValueError):
            ghz_state(GhzScenario(13, 0.1))


class TestProjector:
    def test_z_axis(self):
        pi = projector(BlochDirection(0.0, 0.0), +1)
        assert np.allclose(pi, np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_axis(self):
        pi = projector(BlochDirection(math.pi / 2, 0.0), +1)
        assert np.allclose(pi, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_y_axis_minus(self):
        pi = projector(BlochDirection(math.pi / 2, math.pi / 2), -1)
        expected = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert np.allclose(pi, expected, atol=1e-15)
        # idempotent, and an eigenprojector of sigma_y with eigenvalue -1
        assert np.allclose(pi @ pi, pi, atol=1e-15)
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert np.allclose(sigma_y @ pi, -pi, atol=1e-14)

    def test_projector_algebra(self):
        rng = np.random.default_rng(5)
        eye = np.eye(2)
        for _ in range(50):
            d = BlochDirection(float(rng.uniform(0, math.pi)),
                               float(rng.uniform(0, 2 * math.pi)))
            plus, minus = projector(d, +1), projector(d, -1)
            assert np.max(np.abs(plus + minus - eye)) < 1e-15
            assert np.max(np.abs(plus @ plus - plus)) < 1e-15
            assert np.max(np.abs(plus.conj().T - plus)) < 1e-15
            assert abs(np.trace(plus).real - 1.0) < 1e-15

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            projector(BlochDirection(0.1, 0.2), 0)


class TestDenseProbability:
    def test_aligned_product_state(self):
        sc = GhzScenario(3, 0.0)
        ctx = MeasurementContext.from_angles([0.0] * 3, [0.0] * 3)
        p = joint_prob_dense(ghz_state(sc), ctx, OutcomePattern.all_plus(3))
        assert abs(p - 1.0) < 1e-14

    def test_y_y_perfect_anticorrelation(self):
        # <sigma_y x sigma_y> = -1 for (|00> + |11>)/sqrt2, checked directly
        # on the 4x4 tensor product, so (+1, +1) can never occur.
        sc = GhzScenario(2, math.pi / 4)
        state = ghz_state(sc)
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        expectation = np.vdot(state, np.kron(sigma_y, sigma_y) @ state).real
        assert abs(expectation + 1.0) < 1e-14
        ctx = MeasurementContext.from_angles(
            [math.pi / 2] * 2, [math.pi / 2] * 2
        )
        p = joint_prob_dense(state, ctx, OutcomePattern((1, 1)))
        assert abs(p) < 1e-14

    def test_completeness_ghz(self):
        rng = np.random.default_rng(11)
        sc = GhzScenario(3, math.pi / 6)
        ctx = MeasurementContext.from_angles(
            rng.uniform(0, math.pi, 3), rng.uniform(0, 2 * math.pi, 3)
        )
        state = ghz_state(sc)
        total = sum(joint_prob_dense(state, ctx, p) for p in all_outcome_patterns(3))
        assert abs(total - 1.0) < 1e-12

    def test_completeness_random_states(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4, 5, 6):
            state = rng.normal(size=2**n) + 1.0j * rng.normal(size=2**n)
            state /= np.linalg.norm(state)
            ctx = MeasurementContext.from_angles(
                rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)
            )
            total = sum(
                joint_prob_dense(state, ctx, p) for p in all_outcome_patterns(n)
            )
            assert abs(total - 1.0) < 1e-12

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            sc, ctx, pat = random_config(rng)
            p = joint_prob_dense(ghz_state(sc), ctx, pat)
            assert -1e-15 <= p <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        sc = GhzScenario(3, 0.2)
        ctx = MeasurementContext.from_angles([0.1] * 2, [0.0] * 2)
        with pytest.raises(ValueError):
            joint_prob_dense(ghz_state(sc), ctx, OutcomePattern.all_plus(2))

    def test_rejects_unnormalized_state(self):
        ctx = MeasurementContext.from_angles([0.1] * 2, [0.0] * 2)
        with pytest.raises(ValueError):
            joint_prob_dense(np.array([1.0, 0, 0, 1.0]), ctx,
                             OutcomePattern.all_plus(2))


class TestClosedForm:
    def test_y_y_zero_at_phase_sum_pi(self):
        sc = GhzScenario(2, math.pi / 4)
        ctx = MeasurementContext.from_angles(
            [math.pi / 2] * 2, [math.pi / 2] * 2
        )
        assert abs(joint_prob_ghz(sc, ctx, OutcomePattern((1, 1)))) < 1e-14

    def test_product_state_aligned(self):
        sc = GhzScenario(2, 0.0)
        ctx = MeasurementContext.from_angles([0.0, 0.0], [0.3, 1.1])
        assert abs(joint_prob_ghz(sc, ctx, OutcomePattern((1, 1))) - 1.0) < 1e-14

    def test_three_party_matches_dense(self):
        sc = GhzScenario(3, math.pi / 12)
        ctx = MeasurementContext.from_angles(
            [math.pi / 3] * 3, [math.pi / 3] * 3
        )
        pat = OutcomePattern.all_plus(3)
        dense = joint_prob_dense(ghz_state(sc), ctx, pat)
        assert abs(joint_prob_ghz(sc, ctx, pat) - dense) < 1e-10

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            sc, ctx, pat = random_config(rng)
            dense = joint_prob_dense(ghz_state(sc), ctx, pat)
            closed = joint_prob_ghz(sc, ctx, pat)
            worst = max(worst, abs(dense - closed))
        assert worst <= 1e-10

    def test_phase_enters_only_through_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sc, ctx, pat = random_config(rng)
            delta = float(rng.uniform(-3.0, 3.0))
            phis = ctx.phis.copy()
            phis[0] += delta
            phis[1] -= delta
            shifted = MeasurementContext.from_angles(ctx.thetas, phis)
            assert abs(
                joint_prob_ghz(sc, ctx, pat) - joint_prob_ghz(sc, shifted, pat)
            ) < 1e-12

    def test_pi_on_one_phase_flips_the_interference_term(self):
        # cos(phi + pi) = -cos(phi): the shifted and unshifted values average
        # to the interference-free value at phase sum pi/2.
        rng = np.random.default_rng(5)
        for _ in range(500):
            sc, ctx, pat = random_config(rng)
            phis = ctx.phis.copy()
            phis[0] += math.pi
            shifted = MeasurementContext.from_angles(ctx.thetas, phis)
            quarter = MeasurementContext.from_angles(
                ctx.thetas, [math.pi / 2] + [0.0] * (sc.n - 1)
            )
            total = joint_prob_ghz(sc, shifted, pat) + joint_prob_ghz(sc, ctx, pat)
            assert abs(total - 2.0 * joint_prob_ghz(sc, quarter, pat)) < 1e-12

    def test_outcome_flip_equals_theta_reflection(self):
        # Flipping outcomes on a subset S equals reflecting those thetas and
        # adding |S| * pi to one phase.
        rng = np.random.default_rng(4)
        for _ in range(50):
            sc, ctx, pat = random_config(rng)
            n = sc.n
            flip = rng.choice((True, False), n)
            if not flip.any():
                flip[0] = True
            flipped_pat = OutcomePattern(
                tuple(-r if f else r for r, f in zip(pat.r, flip))
            )
            thetas = ctx.thetas.copy()
            thetas[flip] = math.pi - thetas[flip]
            phis = ctx.phis.copy()
            phis[0] += math.pi * int(flip.sum())
            reflected = MeasurementContext.from_angles(thetas, phis)
            assert abs(
                joint_prob_ghz(sc, ctx, flipped_pat)
                - joint_prob_ghz(sc, reflected, pat)
            ) < 1e-12


class TestDiagonal:
    def test_balanced_zero(self):
        assert diagonal_prob(GhzScenario(2, math.pi / 4), math.pi / 2) < 1e-30

    def test_three_party_at_zero_angle(self):
        for alpha in (0.0, 0.2, math.pi / 4):
            p = diagonal_prob(GhzScenario(3, alpha), 0.0)
            assert abs(p - math.cos(alpha) ** 2) < 1e-14

    def test_frozen_value_at_pi_third(self):
        # [cos(pi/4) cos^2(pi/6) - sin(pi/4) sin^2(pi/6)]^2 = 1/8
        p = diagonal_prob(GhzScenario(2, math.pi / 4), math.pi / 3)
        assert abs(p - 0.125) < 1e-12
        sc = GhzScenario(2, math.pi / 4)
        ctx = MeasurementContext.from_angles(
            [math.pi / 3] * 2, [math.pi, 0.0]
        )
        dense = joint_prob_dense(ghz_state(sc), ctx, OutcomePattern.all_plus(2))
        assert abs(p - dense) < 1e-12

    def test_matches_closed_form_on_grid(self):
        for n, alpha in ((2, 0.3), (3, math.pi / 12), (5, 0.7), (4, 0.0)):
            sc = GhzScenario(n, alpha)
            pat = OutcomePattern.all_plus(n)
            for theta in np.linspace(0.0, math.pi, 101):
                phis = [math.pi] + [0.0] * (n - 1)
                ctx = MeasurementContext.from_angles([float(theta)] * n, phis)
                assert abs(
                    diagonal_prob(sc, float(theta)) - joint_prob_ghz(sc, ctx, pat)
                ) < 1e-12

    def test_three_party_trig_form(self):
        # (1/16) [cos(a - 3t/2) + 3 cos(a + t/2)]^2
        for alpha in np.linspace(0.0, math.pi / 4, 21):
            sc = GhzScenario(3, float(alpha))
            for theta in np.linspace(0.0, math.pi, 201):
                reference = (
                    math.cos(alpha - 1.5 * theta)
                    + 3.0 * math.cos(alpha + 0.5 * theta)
                ) ** 2 / 16.0
                assert abs(diagonal_prob(sc, float(theta)) - reference) < 1e-12

    def test_zero_locus_single_sign_change(self):
        # The diagonal amplitude changes sign exactly once on (0, pi), at the
        # vanishing angle, for every entangled alpha.
        from ghzlocal.qcore import _diagonal_amplitude

        for n in (2, 3, 5):
            for alpha in (0.05, math.pi / 12, 0.6, math.pi / 4):
                sc = GhzScenario(n, alpha)
                grid = np.linspace(1e-6, math.pi - 1e-6, 20001)
                signs = np.sign(_diagonal_amplitude(sc, grid))
                changes = np.count_nonzero(np.diff(signs) != 0)
                assert changes == 1
                t0 = theta0(sc)
                assert diagonal_prob(sc, t0) < 1e-25
                for theta in (t0 - 0.3, t0 + 0.2):
                    if 0.0 < theta < math.pi:
                        assert diagonal_prob(sc, theta) > 1e-8

    def test_rejects_theta_out_of_range(self):
        with pytest.raises(ValueError):
            diagonal_prob(GhzScenario(2, 0.1), -0.2)

    def test_array_matches_scalar_calls(self):
        # Not ==: scalar and array x ** k may round differently.
        grid = np.linspace(0.0, math.pi, 301)
        for n, alpha in ((2, 0.3), (3, math.pi / 12), (8, 0.5), (12, math.pi / 4)):
            sc = GhzScenario(n, alpha)
            got = diagonal_prob(sc, grid)
            assert isinstance(got, np.ndarray) and got.shape == grid.shape
            want = [diagonal_prob(sc, float(t)) for t in grid]
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        assert isinstance(diagonal_prob(GhzScenario(2, 0.3), 0.5), float)

    def test_empty_array_gives_empty_array(self):
        got = diagonal_prob(GhzScenario(3, 0.3), np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,)

    def test_array_rejects_nan_and_out_of_range(self):
        sc = GhzScenario(3, 0.3)
        for bad in (math.nan, -1e-12, math.pi + 1e-9):
            with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
                diagonal_prob(sc, np.array([0.1, bad, 0.2]))


class TestVanishingAngle:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_exact_at_maximal_entanglement(self, n):
        # The float tan(pi/4) is 1 - 1.1e-16; the formula alone gives
        # -5.6e-17 at n = 2 and 3.
        sc = GhzScenario(n, math.pi / 4)
        assert cos_theta0(sc) == 0.0
        assert theta0(sc) == math.pi / 2

    def test_one_function_behind_every_public_name(self):
        assert ghzlocal.theta0 is theta0
        assert epr2.theta0 is theta0
