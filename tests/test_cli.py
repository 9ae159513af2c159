"""Tests for the command-line interface: formats, exit codes, determinism."""

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from ghzlocal import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_two_party_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--n", "2", "--alpha", "0.2617994",
            "--samples", "20000",
        )
        assert code == 0
        row = json.loads(out)
        assert abs(row["w_lower"] - 0.5) < 1e-6
        assert row["w_upper_chen"] is None
        assert row["certified"] is True
        assert row["mabk_implied"] == "one"

    def test_three_party_anchor(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--n", "3", "--alpha", "0.2617994",
            "--samples", "20000",
        )
        assert code == 0
        row = json.loads(out)
        assert abs(row["w_lower"] - 0.28) < 0.005
        assert abs(row["w_upper_chen"] - 0.8819660) < 1e-6

    def test_three_party_maximal(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--n", "3", "--alpha", "0.7853982",
            "--samples", "10000",
        )
        assert code == 0
        row = json.loads(out)
        assert row["w_lower"] <= 1e-6
        assert abs(row["w_upper_chen"] - 0.585786) < 1e-5

    def test_twelve_parties_certify(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--n", "12", "--alpha", "0.2617994",
            "--samples", "2048",
        )
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_alpha_in_degrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "point", "--n", "2", "--alpha-deg", "15",
            "--samples", "5000",
        )
        assert code == 0
        row = json.loads(out)
        assert abs(row["alpha"] - math.pi / 12) < 1e-9

    def test_fallback_flags_row_and_exits_3(self, capsys, monkeypatch):
        # Force an uncertifiable first weight; the row must fall back to the
        # sample-certified ratio and be flagged.
        monkeypatch.setattr(cli, "lower_bound", lambda sc, grid_points: 0.9)
        code, out, _ = run_cli(
            capsys, "point", "--n", "2", "--alpha", "0.5235988",
            "--samples", "5000",
        )
        assert code == 3
        row = json.loads(out)
        assert row["certified"] is False
        assert row["w_lower"] < 0.9
        assert abs(row["w_lower"] - (1.0 - math.sin(math.pi / 3))) < 0.05

    def test_fallback_runs_one_certify_and_one_ratio_scan(self, capsys, monkeypatch):
        # The fallen-back row is flagged whatever a second verdict would
        # say, so the fallback weight is not certified again.
        calls = {"certify": 0, "sampled_min_ratio": 0}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "lower_bound", lambda sc, grid_points: 0.9)
        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        code, out, _ = run_cli(
            capsys, "point", "--n", "3", "--alpha", "0.3", "--samples", "2000",
        )
        assert code == 3
        assert json.loads(out)["certified"] is False
        assert calls == {"certify": 1, "sampled_min_ratio": 1}


class TestScan:
    def test_three_step_two_party(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--alpha-steps", "3",
            "--samples", "5000",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,alpha,w_lower,w_upper_chen,mabk_implied,certified"
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        alphas = [float(r[1]) for r in rows]
        assert abs(alphas[1] - math.pi / 8) < 1e-8
        w = [float(r[2]) for r in rows]
        assert abs(w[0] - 1.0) < 1e-9
        assert abs(w[1] - (1.0 - math.sin(math.pi / 4))) < 1e-6
        assert w[2] <= 1e-6
        assert all(r[3] == "" for r in rows)  # no chen bound at n = 2

    def test_fallback_flags_row_and_exits_3(self, capsys, monkeypatch):
        # As for point: every row falls back from the uncertifiable weight,
        # the whole table is still written, and the exit code is 3.
        monkeypatch.setattr(cli, "lower_bound", lambda sc, grid_points: 0.9)
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--alpha-steps", "2",
            "--samples", "2000",
        )
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        # alpha = 0 certifies 0.9 (P_L = P_Q); alpha = pi/4 falls back
        assert [r[5] for r in rows] == ["true", "false"]
        assert float(rows[1][2]) < 0.9

    def test_csv_formatting(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2,3", "--alpha-steps", "3",
            "--samples", "2000",
        )
        assert code == 0
        assert "\r" not in out
        assert out.endswith("\n")
        lines = out.splitlines()
        assert len(lines) == 7
        # 9 significant digits: pi/8 prints as 0.392699082
        assert lines[2].split(",")[1] == "0.392699082"
        n3_rows = [line for line in lines[1:] if line.startswith("3,")]
        assert all(line.split(",")[3] != "" for line in n3_rows)
        assert all(line.split(",")[5] in ("true", "false") for line in lines[1:])

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3", "--alpha-steps", "4",
            "--samples", "2000", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert set(rows[0]) == {
            "n", "alpha", "w_lower", "w_upper_chen", "mabk_implied", "certified"
        }

    def test_row_invariants(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2,4", "--alpha-steps", "6",
            "--samples", "2000", "--format", "json",
        )
        assert code == 0
        for row in json.loads(out):
            assert 0.0 <= row["w_lower"] <= 1.0
            assert row["mabk_implied"] in ("zero", "one", "unknown")
            if row["w_upper_chen"] is not None:
                assert row["w_lower"] <= row["w_upper_chen"] + 1e-6

    def test_svg_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3,4", "--alpha-steps", "11",
            "--samples", "2000", "--format", "svg",
        )
        assert code == 0
        root = ET.fromstring(out)
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2
        for poly in polylines:
            assert len(poly.get("points").split()) == 11

    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = cli.main([
                "scan", "--n", "2,3", "--alpha-steps", "7",
                "--samples", "2000", "--seed", "7", "--out", str(path),
            ])
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_checks_every_n_before_computing(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "certify", lambda *args, **kw: calls.append(args))
        code, out, err = run_cli(capsys, "scan", "--n", "8,13", "--alpha-steps", "11")
        assert code == 2
        assert out == ""
        assert "party count must be in [2, 12], got 13" in err
        assert calls == []

    def test_rejects_bad_steps(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "2", "--alpha-steps", "1")
        assert code == 2
        assert "alpha-steps" in err


class TestCertifyCommand:
    def test_certified_exact_weight(self, capsys):
        # w must be the exact bound 1 - sin(2a) for the alpha actually passed;
        # certification is sharp, so even a decimal rounded up by 3e-8 would
        # (correctly) be flagged.
        alpha = 0.5235988
        w = 1.0 - math.sin(2.0 * alpha)
        code, out, _ = run_cli(
            capsys, "certify", "--n", "2", "--alpha", repr(alpha),
            "--w", repr(w), "--samples", "100000",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violated"] is False
        assert payload["min_residual"] >= -1e-9

    def test_rounded_up_weight_is_flagged(self, capsys):
        # 0.134 overclaims the bound 0.13397... by 2.6e-5, beyond the
        # certification tolerance.
        code, out, _ = run_cli(
            capsys, "certify", "--n", "2", "--alpha", "0.5236",
            "--w", "0.134", "--samples", "20000",
        )
        assert code == 3
        assert json.loads(out)["violated"] is True

    def test_overclaimed_weight_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--n", "2", "--alpha", "0.5236",
            "--w", "0.9", "--samples", "5000",
        )
        assert code == 3
        assert json.loads(out)["violated"] is True

    def test_product_state_fully_local(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--n", "4", "--alpha", "0",
            "--w", "1.0", "--samples", "5000",
        )
        assert code == 0
        assert json.loads(out)["violated"] is False


class TestSelftest:
    def test_all_suites_pass(self, capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "selftest", "--quick")
        elapsed = time.perf_counter() - start
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 4
        assert all(line.startswith("ok") for line in lines)
        assert elapsed < 5.0

    def test_full_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert all(line.startswith("ok") for line in out.splitlines() if line)

    def test_negative_control_fails(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--quick", "--flip-phase-sign")
        assert code != 0
        assert any(
            line.startswith("FAIL") and "oracle-equivalence" in line
            for line in out.splitlines()
        )


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_alpha(self, capsys):
        assert run_cli(capsys, "point", "--n", "2")[0] == 2

    def test_alpha_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "point", "--n", "2", "--alpha", "2.0")
        assert code == 2
        assert err.strip() != ""
        assert len(err.splitlines()) == 1

    def test_bad_n(self, capsys):
        code, _, err = run_cli(
            capsys, "point", "--n", "1", "--alpha", "0.1", "--samples", "100"
        )
        assert code == 2
        assert "party count" in err

    def test_huge_grid_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(
                capsys, "point", "--n", "3", "--alpha", "0.3",
                "--grid-points", "10000001",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == "" and "10000000" in err
        assert peak < 8 * 2**20  # the grid alone would take 80 MB

    def test_bad_format(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--n", "2", "--alpha-steps", "3", "--format", "png"
        )
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "row.json"
        code = cli.main([
            "point", "--n", "2", "--alpha", "0.1", "--samples", "1000",
            "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["n"] == 2
