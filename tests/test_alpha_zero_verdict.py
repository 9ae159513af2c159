"""Tests of the proven alpha = 0 verdict and of the cosine bound at every n.

At alpha = 0 the state is a product state, its local model is its own
distribution, and every certificate residual is ``(1 - w) P_L >= 0`` up to
rounding of at most ``epr2._alpha_zero_rounding(n)``.  ``point`` and
``scan`` take that row's verdict from the bound and certify the other
rows; with alpha = 0 out of the batch, a sample's cosine is computed only
where some scenario may leave its party unsaturated, at every n.  These
tests hold the bound to the kernel, pin which scenarios the CLI samples,
and hold batches whose largest ``|cos theta0|`` is just below 1 to the
dense reference.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzlocal import _kernel, cli, epr2
from ghzlocal.epr2 import CERT_TOLERANCE, certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import MAX_PARTIES, GhzScenario, cos_theta0

from certification_rows import certification_rows, piece_extrema, special_angles, pass_pieces
from cli_calls import record_calls
from test_epr2 import _dense_residual_extrema

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the rounding bound


def test_the_bound_lies_inside_the_tolerance_at_every_party_count():
    assert epr2._alpha_zero_rounding(MAX_PARTIES) < CERT_TOLERANCE


@pytest.mark.parametrize("n", range(2, MAX_PARTIES + 1))
def test_product_state_certificates_stay_within_the_bound(n):
    scenarios = [GhzScenario(n, alpha) for alpha in (0.0, -0.0) for _ in range(3)]
    ws = [1.0, 0.5, 0.0] * 2
    samples = 4000 if n <= 8 else 500
    for seed in (0, 1, 2):
        for certificate in certify(scenarios, ws, samples=samples, seed=seed):
            assert certificate.min_residual >= -epr2._alpha_zero_rounding(n)
            assert not certificate.violated


@st.composite
def product_state_rows(draw):
    """(n, (rows, n) angles): 0, pi, pi/2 and their neighbours, and any angle."""
    n = draw(st.integers(2, MAX_PARTIES))
    specials = [0.0, 5e-324, 1e-300, 3.5e-16, 1e-8, math.pi / 2, math.pi]
    specials += [float(np.nextafter(t, d)) for t in (math.pi / 2, math.pi) for d in (0.0, 4.0)]
    angle = st.one_of(st.sampled_from([min(t, math.pi) for t in specials]),
                      st.floats(0.0, math.pi, allow_nan=False))
    rows = draw(st.integers(1, 4))
    return n, np.array(draw(st.lists(angle, min_size=n * rows, max_size=n * rows))).reshape(
        rows, n)


@PROPERTIES
@given(product_state_rows(), st.sampled_from([0.0, -0.0]), st.sampled_from([1.0, 0.5, 0.0]))
def test_the_bound_holds_at_every_setting(case, alpha, w):
    # The dense kernel's residual at any angles, not only the sampled ones.
    n, thetas = case
    residual, _ = epr2._residual_extrema(GhzScenario(n, alpha), w, thetas)
    assert residual >= -epr2._alpha_zero_rounding(n)


# ---------------------------------------------------------------------------
# the CLI's choice of scenarios


def test_scan_samples_every_scenario_but_alpha_zero_in_order(capsys, monkeypatch, tmp_path):
    calls = record_calls(monkeypatch, tmp_path, "certify")
    assert cli.main(["scan", "--n", "3,7", "--alpha-steps", "4", "--samples", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    alphas = [float(a) for a in np.linspace(0.0, math.pi / 4, 4)]
    # Groups may certify in parallel processes, so only their order can vary.
    assert sorted((call.scenarios for call in calls()), key=lambda scs: scs[0].n) == [
        [GhzScenario(n, a) for a in alphas[1:]] for n in (3, 7)]
    assert [line.split(",")[5] for line in lines] == ["true"] * 8
    assert [line.split(",")[:3] for line in lines[::4]] == [["3", "0", "1"], ["7", "0", "1"]]


@pytest.mark.parametrize("alpha", ["0", "-0.0", "-1e-7"])
def test_point_at_alpha_zero_samples_nothing(alpha, capsys, monkeypatch, tmp_path):
    # -1e-7 snaps to 0.0; -0.0 stays -0.0, which equals 0.0.
    calls = record_calls(monkeypatch, tmp_path, "certify")
    assert cli.main(["point", "--n", "5", f"--alpha={alpha}", "--samples", "2000"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert [call.scenarios for call in calls()] == [[]]
    assert (row["w_lower"], row["certified"]) == (1.0, True)


def test_point_away_from_alpha_zero_samples_its_scenario(capsys, monkeypatch, tmp_path):
    calls = record_calls(monkeypatch, tmp_path, "certify")
    assert cli.main(["point", "--n", "5", "--alpha", "1e-12", "--samples", "2000"]) == 0
    assert [call.scenarios for call in calls()] == [[GhzScenario(5, 1e-12)]]
    assert json.loads(capsys.readouterr().out)["certified"] is True


# ---------------------------------------------------------------------------
# batches whose largest |cos theta0| is just below 1

NEAR_ZERO_ALPHAS = (1e-12, 1e-9, 1e-3, 0.3)


@pytest.mark.parametrize("n", range(2, 7))
def test_near_zero_batches_are_single_calls_and_dense_minima(n):
    scenarios = [GhzScenario(n, alpha) for alpha in NEAR_ZERO_ALPHAS]
    samples, seed = 3000, 13
    for w in ("lower_bound", 0.5, 1.0):
        ws = [lower_bound(sc) if w == "lower_bound" else w for sc in scenarios]
        batch = certify(scenarios, ws, samples=samples, seed=seed)
        for sc, weight, certificate in zip(scenarios, ws, batch):
            assert repr(certificate) == repr(certify(sc, weight, samples=samples, seed=seed))
            dense = [_dense_residual_extrema(sc, weight, rows)
                     for rows in certification_rows(n, samples, seed)]
            assert certificate.min_residual == min(residual for residual, _ in dense)
            ratio = min(max(min(ratio for _, ratio in dense), 0.0), 1.0)
            assert repr(sampled_min_ratio(sc, samples=samples, seed=seed)) == repr(ratio)


@st.composite
def edge_batches(draw):
    """(scenarios, weights, (rows, n) angles) at 2 to 8 parties, with angles at
    the edge of the batch's cosine stand-ins and at each scenario's band edges."""
    n = draw(st.integers(2, 8))
    alpha = st.one_of(st.sampled_from(NEAR_ZERO_ALPHAS), st.floats(1e-15, math.pi / 4))
    weight = st.sampled_from(["lower_bound", 0.5, 1.0])
    pairs = draw(st.lists(st.tuples(alpha, weight), min_size=1, max_size=4))
    scenarios = [GhzScenario(n, a) for a, _ in pairs]
    ws = [lower_bound(sc) if w == "lower_bound" else w for sc, (_, w) in zip(scenarios, pairs)]
    bounds = [abs(cos_theta0(sc)) for sc in scenarios]
    edge = _kernel._saturation_edge(max(bounds))
    specials = special_angles(bounds) + special_angles([math.cos(edge)] if edge > 0.0 else [])
    angle = st.one_of(st.sampled_from(specials), st.floats(0.0, math.pi, allow_nan=False))
    rows = draw(st.lists(st.lists(angle, min_size=n, max_size=n), min_size=1, max_size=10))
    return scenarios, ws, np.array([[0.0] * n] + rows)


@PROPERTIES
@given(edge_batches(), st.sampled_from([1, 3, None]))
def test_stand_in_cosines_change_no_minimum(batch, chunk_rows):
    # The pass over a block with the batch's stand-in cosines, split for
    # every row that can skip the dense kernel, equals the dense
    # reference; the theta = 0 row puts the residual's 0.0 in both.
    scenarios, ws, thetas = batch
    pieces = pass_pieces(scenarios, thetas, chunk_rows)
    assert piece_extrema(pieces, ws) == [epr2._residual_extrema(sc, w, thetas)
                                         for sc, w in zip(scenarios, ws)]
