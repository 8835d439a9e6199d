"""Terminal summary for the acceptance gate, and the hypothesis profile.

Collects the outcome of every test_criterion_* test in test_acceptance.py
and prints one PASS/FAIL line per criterion after the run. Property tests
draw the same examples on every run, so a failure reproduces, and have no
per-example deadline.
"""

import re

from hypothesis import settings

# no test of the suite checks timing, and an example that writes files can
# run past hypothesis' per-example deadline on a loaded host
settings.register_profile("icis", derandomize=True, deadline=None)
settings.load_profile("icis")

_CRITERIA = {
    1: "analytic gradients match central finite differences (1e-4 relative)",
    2: "cosine losses invariant to target-row scale; equal seeds train bit-identically",
    3: "noiseless linear oracle recovered (ZSL >= 90, H >= 60; frozen 100.0/100.0 +-2)",
    4: "correlated-descriptor task: base unseen acc < cosine, pooled entropy rises",
    5: "harmonic mean and entropy pinned values",
    6: "seen logits bit-identical across injection of 50 classes",
    7: "flat 20-epoch trace stops at 20; 1e-3/epoch slope never stops in 40",
    8: "single-seen baselines exact; simplex solver matches bordered KKT oracle",
    9: "real-data reproduction (conditional on ICIS_CUB_DIR)",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_outcomes: dict = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _outcomes[number] = "FAIL"
    elif report.skipped:
        _outcomes.setdefault(number, "SKIP")
    elif report.when == "call" and report.passed:
        _outcomes.setdefault(number, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        status = _outcomes.get(number, "NOT RUN")
        terminalreporter.write_line(
            f"ACCEPTANCE {number}: {status} - {_CRITERIA[number]}")
