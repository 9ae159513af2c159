"""Byte-for-byte pins of ``ghzlocal point`` and ``scan`` rows at alpha = 0 from 6 parties on.

At alpha = 0 the state is a product state and its row is certified from a
rounding bound, not from samples; these files, recorded while every row
was still sampled, pin that the printed rows did not change.  The scan
also holds interior and alpha = pi/4 rows of the same n, certified in the
same call as before.  The exit code is part of the pin.
"""

import pathlib

import pytest

from ghzlocal import cli

DATA = pathlib.Path(__file__).parent / "data"

# (file name, argv, exit code)
CASES = [
    ("point_n12_alpha0.json", ["point", "--n", "12", "--alpha", "0"], 0),
    ("scan_n6-7-12_steps3_samples2048_seed5.csv",
     ["scan", "--n", "6,7,12", "--alpha-steps", "3", "--samples", "2048", "--seed", "5"], 0),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_alpha_zero_output_is_pinned(name, argv, code, capsys):
    assert cli.main(argv) == code
    assert capsys.readouterr().out == (DATA / name).read_text()
