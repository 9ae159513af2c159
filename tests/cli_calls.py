"""Helpers for tests of the CLI's processes.

A recorder of ``cli`` function calls, which appends one JSON line per call
to a file, so that a call made in a process that ``scan`` forks is recorded
like one made in the test's own process; a patched count of usable CPUs,
which picks the serial path (1) or the forked one; and a check that no
child process is left.
"""

import json
import os
from typing import NamedTuple

import pytest

from ghzlocal import cli
from ghzlocal.qcore import GhzScenario


class Call(NamedTuple):
    name: str
    pid: int
    scenarios: list


def record_calls(monkeypatch, tmp_path, *names, before=lambda scenarios: None):
    """Wrap each named ``cli`` function, whose first argument is a scenario or
    a list of them, to log its name, the calling pid and the ``[n, alpha]`` of
    each scenario, then call ``before(scenarios)``.  Returns a function that
    gives the list of :class:`Call` so far; ``clear=True`` empties the log
    after reading it."""
    log = tmp_path / "calls.log"
    log.write_text("")

    def recorded(name, original):
        def wrapper(scenario, *args, **kwargs):
            scenarios = [scenario] if isinstance(scenario, GhzScenario) else scenario
            line = json.dumps([name, os.getpid(), [[sc.n, sc.alpha] for sc in scenarios]])
            with open(log, "a") as handle:
                handle.write(line + "\n")
            before(scenarios)
            return original(scenario, *args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))

    def calls(clear=False):
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        if clear:
            log.write_text("")
        return [Call(name, pid, [GhzScenario(n, alpha) for n, alpha in pairs])
                for name, pid, pairs in lines]

    return calls


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
