"""The verify runner: each check once, serially, in registry order.

A crashing check is covered through the CLI in ``test_cli.py``.
"""

import threading

from corekit import verify
from corekit.report import CheckReport


def test_run_suite_runs_each_check_once_in_order(monkeypatch):
    events = []

    def check(name):
        def fn(t_max, n_max):
            events.append(("run", name, threading.get_ident()))
            return CheckReport(check=name, params={"t_max": t_max, "n_max": n_max})

        return fn

    names = ["kernel.zeta", "kernel.alpha", "kernel.mu"]
    monkeypatch.setitem(verify.SUITES, "kernel", {name: check(name) for name in names})
    reports = verify.run_suite(
        "kernel", t_max=3, n_max=5, progress=lambda name: events.append(("start", name))
    )
    caller = threading.get_ident()
    assert events == [e for name in names for e in (("start", name), ("run", name, caller))]
    assert [r.check for r in reports] == sorted(names)
    assert all(r.params == {"t_max": 3, "n_max": 5} and r.elapsed_ms > 0 for r in reports)

