"""Byte-for-byte pins of ``ghzlocal certify`` from 7 to 12 parties.

Each file under ``tests/data/certify/`` holds the stdout of one command
line, recorded before the certification kernel's live path was rebuilt;
the exit code is part of the pin.  The cases reach the dense kernel (alpha
near 0), the live path (interior alphas) and the all-saturated end
(alpha = pi/4), at the bound that ``ghzlocal point`` prints and at w = 0.5,
where the residual is negative and depends on every evaluated entry.
"""

import pathlib

import pytest

from ghzlocal import cli

DATA = pathlib.Path(__file__).parent / "data" / "certify"

# (file stem, n, alpha, w, samples, seed, exit code)
CASES = [
    ("certify_n7_alpha0.001_bound", 7, "0.001", "0.4022233250815113", 20000, 5, 0),
    ("certify_n7_alpha0.001_w0.5", 7, "0.001", "0.5", 20000, 5, 3),
    ("certify_n7_alpha0_w0.5", 7, "0.0", "0.5", 8000, 4, 0),
    ("certify_n8_alpha0.3_bound", 8, "0.3", "0.008650529268117749", 16384, 3, 0),
    ("certify_n8_alpha0.3_w0.5", 8, "0.3", "0.5", 16384, 3, 3),
    ("certify_n9_alpha0.6_w0.5", 9, "0.6", "0.5", 8192, 2, 3),
    ("certify_n9_alpha_pi4_bound", 9, "0.7853981633974483", "0.0", 8192, 8, 0),
    ("certify_n12_alpha0.2_w0.5", 12, "0.2", "0.5", 2000, 1, 3),
    ("certify_n12_alpha_pi4_w0.5", 12, "0.7853981633974483", "0.5", 2000, 9, 3),
]


@pytest.mark.parametrize("stem, n, alpha, w, samples, seed, code", CASES,
                         ids=[case[0] for case in CASES])
def test_certify_output_is_pinned(stem, n, alpha, w, samples, seed, code, capsys):
    argv = ["certify", "--n", str(n), "--alpha", alpha, "--w", w,
            "--samples", str(samples), "--seed", str(seed)]
    assert cli.main(argv) == code
    assert capsys.readouterr().out == (DATA / f"{stem}.json").read_text()


def test_every_pinned_file_has_a_case():
    assert sorted(p.stem for p in DATA.glob("*.json")) == sorted(case[0] for case in CASES)
