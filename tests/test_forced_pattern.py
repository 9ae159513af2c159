"""Tests of the forced-pattern lemma that the certificate row bound rests on.

At every angle row, the least ratio P_Q / P_L over the outcome patterns with
P_L > 0 sits at the forced pattern, where every party takes the outcome of
the sign of its cosine (proof in ``_kernel._surviving_rows``).  With
``x_j = |cos t_j|``, ``d_j = min(t_j, pi - t_j) / 2`` and ``c0 = |cos t0|``,
that ratio is

    F = prod g_j * (cos a - sin a prod tan d_j)^2,

``g_j = (1 + x_j) / (1 + x_j / c0)`` on the band (``x_j < c0``), else
``(1 + x_j) / 2``.  These tests hold the dense oracle
``epr2._residual_extrema`` to F, and check at 50 digits the closed form of
every pattern's ratio that the proof starts from.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzlocal import epr2
from ghzlocal.qcore import GhzScenario, cos_theta0, outcome_sign_matrix

from certification_rows import special_angles, ulps_from

PROPERTIES = settings(max_examples=300, deadline=None, derandomize=True, database=None)

U = 2.0**-53


def _forced_ratio(scenario, row):
    """F of one row, at 50 digits from its float angles."""
    with mpmath.workdps(50):
        c0, a = mpmath.mpf(abs(cos_theta0(scenario))), mpmath.mpf(scenario.alpha)
        g, r = mpmath.mpf(1), mpmath.mpf(1)
        for t in map(mpmath.mpf, row):
            x = abs(mpmath.cos(t))
            g *= (1 + x) / (1 + x / c0) if x < c0 else (1 + x) / 2
            r *= mpmath.tan(min(t, mpmath.pi - t) / 2)
        return g * (mpmath.cos(a) - mpmath.sin(a) * r) ** 2


def _oracle_rounding(scenario, row):
    """How far, relative, the dense oracle's float ratio may lie below the
    exact one: 64 n u over the least of the row's brackets
    ``1 - tan a prod r_j`` and of its band parties' ``1 - tau_j``, the
    quantities whose cancellation the kernel's rounding is divided by."""
    n, c0 = scenario.n, abs(cos_theta0(scenario))
    d = np.minimum(row, math.pi - row) / 2
    x = np.abs(np.cos(row))
    band = x < c0
    with np.errstate(divide="ignore", over="ignore"):
        flipped = np.where(band, 1.0 / np.tan(d), np.tan(d))
    least = min(abs(1.0 - math.tan(scenario.alpha) * float(np.prod(flipped))),
                min((1.0 - x[band] / c0).tolist(), default=1.0))
    return 64 * n * U / max(least, 1e-300)


@st.composite
def rows(draw):
    """(scenario, (rows, n) angles): rows at 0, pi/2 and pi, at the band
    edges a few ulps either way, drawn, or all on the diagonal."""
    n = draw(st.integers(2, 12))
    alpha = draw(st.one_of(st.sampled_from([1e-12, 1e-6, 1e-3, 0.3, math.pi / 4 - 1e-6]),
                           st.floats(1e-9, math.pi / 4 - 1e-9)))
    scenario = GhzScenario(n, alpha)
    c0 = abs(cos_theta0(scenario))
    edge = math.acos(c0)
    specials = special_angles([c0]) + [ulps_from(e, k) for e in (edge, math.pi - edge)
                                       for k in (-3, -1, 1, 3)]
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi),
                      st.floats(edge, math.pi - edge))
    if draw(st.booleans()):
        return scenario, np.array([[draw(angle)] * n])
    return scenario, np.array([draw(st.lists(angle, min_size=n, max_size=n))])


@PROPERTIES
@given(rows())
@example((GhzScenario(3, 0.3), np.array([[1.34, 1.35, 1.36]])))
@example((GhzScenario(2, 0.3), np.array([[1.2, 1.2]])))
def test_the_least_ratio_is_the_forced_ratio(case):
    # The dense oracle reads every pattern with P_L > 1e-12; none lies
    # below F by more than its rounding.  At 2 parties on the band
    # diagonal every pattern of the band has the ratio F, the lower bound.
    scenario, row = case
    least = epr2._residual_extrema(scenario, 0.5, row)[1]
    forced = float(_forced_ratio(scenario, row[0]))
    assert least >= forced * (1.0 - 1e-12 - _oracle_rounding(scenario, row[0]))


def _exact_cos_t0(scenario):
    """|cos t0| from ``tan d = tan(a)^(1/n)`` at the band edge: ``(1 - eps^2) / (1 + eps^2)``."""
    eps2 = mpmath.tan(mpmath.mpf(scenario.alpha)) ** (mpmath.mpf(2) / scenario.n)
    return (1 - eps2) / (1 + eps2)


def _pattern_ratio(scenario, row, signs):
    """P_Q / P_L at one pattern, at the worst phase, from K, Kr and P_L."""
    a, c0 = mpmath.mpf(scenario.alpha), _exact_cos_t0(scenario)
    k = kr = pl = mpmath.mpf(1)
    for t, s in zip(map(mpmath.mpf, row), signs):
        c, h = mpmath.cos(t), t / 2
        tau = min(max(c / c0, -1), 1) if c0 else mpmath.sign(c)
        k *= mpmath.cos(h) if s > 0 else mpmath.sin(h)
        kr *= mpmath.sin(h) if s > 0 else mpmath.cos(h)
        pl *= (1 + s * tau) / 2
    return (mpmath.cos(a) * k - mpmath.sin(a) * kr) ** 2 / pl if pl > 0 else None


def _closed_form(scenario, row, signs):
    """The ratio at a pattern as the proof writes it, 50 digits:
    ``cos^2 a prod_sat 1/(1 + e_j^2) prod_band (1 - eps^2)/(1 - r_j^2) (1 - prod r_j)^2``
    with ``e_j = tan d_j``, ``eps = tan(a)^(1/n)``, and ``r_j = eps e_j`` at
    the outcome of the sign of the cosine, ``eps / e_j`` at the other."""
    n, a = scenario.n, mpmath.mpf(scenario.alpha)
    eps = mpmath.tan(a) ** (mpmath.mpf(1) / n)
    ratio, product = mpmath.cos(a) ** 2, mpmath.mpf(1)
    for t, s in zip(map(mpmath.mpf, row), signs):
        e = mpmath.tan(min(t, mpmath.pi - t) / 2)
        forced = (s > 0) == (mpmath.cos(t) >= 0)
        if e <= eps:
            if not forced:
                return None
            ratio /= 1 + e**2
            r = eps * e
        else:
            r = eps * e if forced else eps / e
            ratio *= (1 - eps**2) / (1 - r**2)
        product *= r
    return ratio * (1 - product) ** 2


@pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
def test_the_closed_form_of_each_ratio_to_50_digits(n):
    # The proof's closed form equals the ratio from K, Kr and P_L at every
    # pattern with P_L > 0, to 50 digits, on rows drawn from the band and
    # around it; no pattern's ratio lies below the forced one.  The
    # scenario's |cos t0| is the exact one here, whose band edge is
    # tan d = tan(a)^(1/n).
    rng = np.random.default_rng(n)
    patterns = outcome_sign_matrix(n)
    if n > 6:
        patterns = patterns[rng.choice(len(patterns), 64, replace=False)]
    with mpmath.workdps(60):
        for alpha in (1e-3, 0.2, 0.6):
            scenario = GhzScenario(n, alpha)
            edge = math.acos(abs(cos_theta0(scenario)))
            for row in rng.uniform(edge * 0.7, math.pi - edge * 0.7, (4, n)):
                forced = None
                for signs in [np.where(np.cos(row) >= 0, 1, -1)] + list(patterns):
                    direct = _pattern_ratio(scenario, row, signs)
                    closed = _closed_form(scenario, row, signs)
                    assert (direct is None) == (closed is None)
                    if direct is None:
                        continue
                    assert abs(direct - closed) <= mpmath.mpf(10)**-50 * closed
                    forced = direct if forced is None else forced
                    assert direct >= forced * (1 - mpmath.mpf(10)**-45)
