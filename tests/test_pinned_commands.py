"""Byte-for-byte pins of ``ghzlocal`` command lines, on the serial and the forked path.

``data/pinned_commands.txt`` lists each pinned command line with its exit
code and the file under ``data/`` that holds its stdout, recorded by
earlier versions of the package.  Each line runs through ``cli.main``
with one usable CPU, the serial loop, and with two, where a scan of two
groups or more certifies them in two processes.  Either way it must print
the file byte for byte, return the exit code, write nothing to stderr and
leave no child process.
"""

import os
import pathlib

import pytest

from ghzlocal import cli

from cli_calls import assert_no_child_left, record_calls, use_cpus

DATA = pathlib.Path(__file__).parent / "data"
REGISTRY = DATA / "pinned_commands.txt"
# The files under data/ that are no command's output: the registry, and
# the library-level record of test_golden_batches.py.
NOT_OUTPUTS = {REGISTRY.name, "certify_batches_seed29.json"}

LINES = [(int(code), name, argv) for code, name, *argv in
         (line.split() for line in REGISTRY.read_text().splitlines()
          if line and not line.startswith("#"))]


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "fork"])
@pytest.mark.parametrize("code, name, argv", LINES,
                         ids=[pathlib.PurePath(name).stem for _, name, _ in LINES])
def test_pinned_command(code, name, argv, cpus, capsys, monkeypatch, tmp_path):
    use_cpus(monkeypatch, cpus)
    recorded = record_calls(monkeypatch, tmp_path, "certify")
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out.encode() == (DATA / name).read_bytes()
    assert err == ""
    assert_no_child_left()
    # One certify call per group, the groups shared by as many processes
    # as there are CPUs, the calling one included.
    calls = recorded()
    pids = {call.pid for call in calls}
    assert os.getpid() in pids and len(pids) == min(cpus, len(calls))


def test_every_output_file_is_pinned_once():
    outputs = [path.relative_to(DATA).as_posix() for path in DATA.rglob("*")
               if path.is_file() and path.name not in NOT_OUTPUTS]
    assert sorted(name for _, name, _ in LINES) == sorted(outputs)
