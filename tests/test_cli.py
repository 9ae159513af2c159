"""Tests for the command-line interface: formats, exit codes, determinism."""

import json
import math
import os
import threading
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from ghzlocal import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def count_calls(monkeypatch, tmp_path, *names):
    """Wrap each named ``cli`` function with a call counter; returns a
    function that gives the counts.  Each call appends a line to a file
    under ``tmp_path``, so the calls of the processes a scan forks count."""
    log = tmp_path / "calls.log"
    log.touch()

    def counted(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            with open(log, "a") as handle:
                handle.write(name + "\n")
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, counted(name))
    return lambda: {name: log.read_text().split().count(name) for name in names}


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

    def test_fallback_runs_one_certify_and_one_ratio_scan(self, capsys, monkeypatch, tmp_path):
        # The fallen-back row is flagged whatever a second verdict would
        # say, so the fallback weight is not certified again.
        monkeypatch.setattr(cli, "lower_bound", lambda sc, grid_points: 0.9)
        calls = count_calls(monkeypatch, tmp_path, "certify", "sampled_min_ratio")
        code, out, _ = run_cli(
            capsys, "point", "--n", "3", "--alpha", "0.3", "--samples", "2000",
        )
        assert code == 3
        assert json.loads(out)["certified"] is False
        assert calls() == {"certify": 1, "sampled_min_ratio": 1}


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

    def test_one_certify_per_n_entry(self, capsys, monkeypatch, tmp_path):
        calls = count_calls(monkeypatch, tmp_path, "certify", "sampled_min_ratio")
        code, _, _ = run_cli(
            capsys, "scan", "--n", "2,3,2", "--alpha-steps", "4",
            "--samples", "2000",
        )
        assert code == 0
        assert calls() == {"certify": 3, "sampled_min_ratio": 0}

    def test_ratio_scan_only_on_rows_that_fell_back(self, capsys, monkeypatch, tmp_path):
        # 0.9 certifies at alpha = 0 only (P_L = P_Q there), so two of the
        # three rows of each n fall back.
        monkeypatch.setattr(cli, "lower_bound", lambda sc, grid_points: 0.9)
        calls = count_calls(monkeypatch, tmp_path, "certify", "sampled_min_ratio")
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2,3", "--alpha-steps", "3",
            "--samples", "2000",
        )
        assert code == 3
        assert [line.split(",")[5] for line in out.splitlines()[1:]] == [
            "true", "false", "false"] * 2
        assert calls() == {"certify": 2, "sampled_min_ratio": 4}

    def test_repeated_n_rows_follow_the_given_order(self, capsys):
        def data_rows(n_list):
            code, out, _ = run_cli(
                capsys, "scan", "--n", n_list, "--alpha-steps", "3",
                "--samples", "2000",
            )
            assert code == 0
            return out.splitlines()[1:]

        together = data_rows("3,2,3")
        assert together == data_rows("3") + data_rows("2") + data_rows("3")
        assert [row.split(",")[0] for row in together] == ["3"] * 3 + ["2"] * 3 + ["3"] * 3

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

    @pytest.mark.parametrize("steps", ["100001", str(10**12)])
    def test_rejects_more_steps_than_the_limit_before_certifying(self, steps, tmp_path, capsys,
                                                                  monkeypatch):
        # scan keeps every row until it prints, so its memory grows with the
        # steps: above the limit it refuses, before --out or any certify call.
        calls = count_calls(monkeypatch, tmp_path, "certify")
        path = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "scan", "--n", "3", "--alpha-steps", steps,
                                 "--out", str(path))
        assert (code, out) == (2, "")
        assert err == "error: --alpha-steps must be at most 100000\n"
        assert calls() == {"certify": 0}
        assert not path.exists()

    def test_accepts_the_step_limit(self, monkeypatch, capsys):
        # The limit itself passes the check: the scan starts on its scenarios.
        def started(n, alpha):
            raise ValueError("scan started")

        monkeypatch.setattr(cli, "GhzScenario", started)
        code, _, err = run_cli(capsys, "scan", "--n", "3", "--alpha-steps", "100000")
        assert (code, err) == (2, "error: scan started\n")


def certify_pids(monkeypatch, tmp_path, fail=lambda scenarios: None):
    """Wrap ``cli.certify`` to log the pid of each call to a file under
    ``tmp_path``, then call ``fail(scenarios)``; returns a function that
    gives the set of pids."""
    log = tmp_path / "pids.log"
    log.touch()
    original = cli.certify

    def logged(scenarios, ws, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        fail(scenarios)
        return original(scenarios, ws, **kwargs)

    monkeypatch.setattr(cli, "certify", logged)
    return lambda: set(map(int, log.read_text().split()))


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelScan:
    """Groups certified in forked processes: the serial loop's bytes, errors
    and exit codes, and no child left behind."""

    @pytest.mark.parametrize("n_list, cpus, fmt", [
        ("2,3,2", 2, "csv"),
        ("3,7", 2, "csv"),
        ("2,3,4,5,2", 2, "json"),  # more groups than CPUs
        ("5,4,3,2", 3, "csv"),
    ])
    def test_output_is_the_serial_output(self, capsys, monkeypatch, tmp_path,
                                         n_list, cpus, fmt):
        argv = ["scan", "--n", n_list, "--alpha-steps", "5", "--samples", "3000",
                "--seed", "11", "--format", fmt]
        use_cpus(monkeypatch, 1)
        serial = run_cli(capsys, *argv)
        use_cpus(monkeypatch, cpus)
        pids = certify_pids(monkeypatch, tmp_path)
        assert run_cli(capsys, *argv) == serial
        assert serial[0] == 0
        assert len(pids()) == min(cpus, len(n_list.split(",")))
        assert_no_child_left()

    @pytest.mark.parametrize("raising_n", [2, 3])  # a child's group, the caller's
    def test_a_value_error_is_the_serial_usage_error(self, capsys, monkeypatch, tmp_path,
                                                     raising_n):
        def fail(scenarios):
            if scenarios[0].n == raising_n:
                raise ValueError("w must lie in [0, 1], got 2")

        argv = ["scan", "--n", "2,3", "--alpha-steps", "3", "--samples", "1000"]
        pids = certify_pids(monkeypatch, tmp_path, fail)
        use_cpus(monkeypatch, 1)
        serial = run_cli(capsys, *argv)
        assert serial == (2, "", "error: w must lie in [0, 1], got 2\n")
        use_cpus(monkeypatch, 2)
        (tmp_path / "pids.log").write_text("")
        assert run_cli(capsys, *argv) == serial
        assert len(pids()) == 2
        assert_no_child_left()

    def test_a_child_without_a_result_is_an_error(self, capsys, monkeypatch, tmp_path):
        parent = os.getpid()

        def die(scenarios):
            if os.getpid() != parent:
                os._exit(1)

        use_cpus(monkeypatch, 2)
        certify_pids(monkeypatch, tmp_path, die)
        with pytest.raises(RuntimeError, match="exited without a result"):
            cli.main(["scan", "--n", "2,3", "--alpha-steps", "3", "--samples", "1000"])
        assert capsys.readouterr().out == ""
        assert_no_child_left()

    def test_serial_without_fork_affinity_or_a_single_thread(self, capsys, monkeypatch,
                                                             tmp_path):
        argv = ["scan", "--n", "2,3", "--alpha-steps", "3", "--samples", "1000"]
        use_cpus(monkeypatch, 2)
        pids = certify_pids(monkeypatch, tmp_path)
        expected = run_cli(capsys, *argv)
        assert len(pids()) == 2
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            (tmp_path / "pids.log").write_text("")
            assert run_cli(capsys, *argv) == expected
            assert pids() == {os.getpid()}
        with monkeypatch.context() as patch:
            patch.delattr(os, "sched_getaffinity")
            (tmp_path / "pids.log").write_text("")
            assert run_cli(capsys, *argv) == expected
            assert pids() == {os.getpid()}
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            (tmp_path / "pids.log").write_text("")
            assert run_cli(capsys, *argv) == expected
            assert pids() == {os.getpid()}
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert_no_child_left()


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

    @pytest.mark.parametrize("command", [
        ("point", "--n", "2", "--alpha", "0.1"),
        ("scan", "--n", "2", "--alpha-steps", "3"),
        ("certify", "--n", "2", "--alpha", "0.1", "--w", "0.5"),
    ])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, command):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *command, "--samples", "1000", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write --out") and str(path) in err
        assert len(err.splitlines()) == 1
        assert not path.parent.exists()

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "row.json"
        code = cli.main([
            "point", "--n", "2", "--alpha", "0.1", "--samples", "1000",
            "--out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["n"] == 2

    def test_unwritable_out_is_refused_before_certifying(self, tmp_path, capsys, monkeypatch):
        calls = count_calls(monkeypatch, tmp_path, "certify")
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "scan", "--n", "2,3", "--alpha-steps", "3",
                                 "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out")
        assert calls() == {"certify": 0}

    @pytest.mark.parametrize("bad", [
        ("--n", "2,13", "--alpha-steps", "3"),
        ("--n", "2,3", "--alpha-steps", "3", "--grid-points", "5"),
        ("--n", "2,3", "--alpha-steps", "1"),
    ])
    def test_refused_input_leaves_out_untouched(self, tmp_path, capsys, bad):
        kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
        kept.write_text("keep\n")
        for path in (kept, missing):
            code, _, err = run_cli(capsys, "scan", *bad, "--out", str(path))
            assert code == 2 and err.startswith("error: ")
        assert kept.read_text() == "keep\n"
        assert not missing.exists()
