"""Test-session plumbing: a cold drift memo for every test, and
per-criterion pass/fail summary lines."""

import pytest

from oemsim import sweep


@pytest.fixture(autouse=True)
def cold_drift_memo():
    """Each test starts with no decomposed drift held from an earlier one, so
    eigen call counts and LAPACK failures are the test's own."""
    sweep._DRIFT_MEMO.clear()

_CRITERION_OUTCOMES = {}

_STATUS = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        _CRITERION_OUTCOMES[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_CRITERION_OUTCOMES):
        status = _STATUS.get(_CRITERION_OUTCOMES[name], "????")
        terminalreporter.write_line(f"{status}  {name}")
