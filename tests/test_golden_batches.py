"""Byte-for-byte pins of batched ``certify`` and of ``sampled_min_ratio`` at 2 to 12 parties.

``data/certify_batches_seed29.json`` holds ``repr(min_residual)`` of one
``certify`` batch of eleven alphas per party count and weight (each
scenario's lower bound, and 0.5), and ``sampled_min_ratio`` at three
alphas per party count, all recorded before certification ran one path
at every n.  The alphas reach both ends of the domain, 1e-12 off them,
and the interior, so the batches mix rows of every kind: dense, with a
few unsaturated parties, and with at most one.  The command lines that
pin batches through the CLI, such as the n = 6, 7, 8 scan, are listed in
``data/pinned_commands.txt`` (``test_pinned_commands.py``).
"""

import json
import pathlib

import pytest

from ghzlocal.epr2 import certify, lower_bound, sampled_min_ratio
from ghzlocal.qcore import GhzScenario

DATA = pathlib.Path(__file__).parent / "data"
RECORD = json.loads((DATA / "certify_batches_seed29.json").read_text())


def _weight(scenario, w):
    return lower_bound(scenario) if w == "lower_bound" else w


@pytest.mark.parametrize("case", RECORD["certify"], ids=lambda c: f"n{c['n']}-w{c['w']}")
def test_batch_minima_are_pinned(case):
    scenarios = [GhzScenario(case["n"], alpha) for alpha in RECORD["alphas"]]
    ws = [_weight(sc, case["w"]) for sc in scenarios]
    batch = certify(scenarios, ws, samples=case["samples"], seed=RECORD["seed"])
    assert [repr(c.min_residual) for c in batch] == case["min_residuals"]


@pytest.mark.parametrize("case", RECORD["sampled_min_ratio"],
                         ids=lambda c: f"n{c['n']}-alpha{c['alpha']}")
def test_sampled_min_ratio_is_pinned(case):
    scenario = GhzScenario(case["n"], case["alpha"])
    got = sampled_min_ratio(scenario, samples=case["samples"], seed=RECORD["seed"])
    assert repr(got) == case["value"]
