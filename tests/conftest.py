"""Shared fixtures and the acceptance-criterion result banner.

Expensive randomized suites (polyhedra oracle comparisons, transformation
agreement) run once per session and are shared between their unit tests and
the acceptance tests.  Acceptance test outcomes are echoed at the end of the
run as one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hornchain.parser import parse_program

FIXTURES = Path(__file__).parent / "fixtures"
# The benchmark's workload generator (``import gen``), read-only; it does not
# import hornchain.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


def fixture_text(name: str) -> str:
    return FIXTURES.joinpath(name).read_text()


# -- parsed example programs ------------------------------------------------


@pytest.fixture(scope="session")
def twophase():
    return parse_program(fixture_text("twophase.chc"))


@pytest.fixture(scope="session")
def twophase_scaled():
    return parse_program(fixture_text("twophase_scaled.chc"))


@pytest.fixture(scope="session")
def twophase_unfolded():
    return parse_program(fixture_text("twophase_unfolded.chc"))


@pytest.fixture(scope="session")
def twophase_qa():
    return parse_program(fixture_text("twophase_qa.chc"))


@pytest.fixture(scope="session")
def twophase_split_query():
    return parse_program(fixture_text("twophase_split_query.chc"))


@pytest.fixture(scope="session")
def twophase_model_text():
    return fixture_text("twophase_model.txt")


@pytest.fixture(scope="session")
def twophase_thresholds_text():
    return fixture_text("twophase_unfolded.thresholds.txt")


# -- shared randomized suites -------------------------------------------------


@pytest.fixture(scope="session")
def polyhedra_suites():
    from oracles import run_polyhedra_suites

    return run_polyhedra_suites(20260815)


@pytest.fixture(scope="session")
def transform_suite():
    from randprog import run_transform_suite

    return run_transform_suite(20260815, want=200)


# -- acceptance banner ---------------------------------------------------------

CRITERIA = {
    "test_criterion_1": "1 (end-to-end safety proof with the exact model)",
    "test_criterion_2": "2 (scale invariance of iteration count and runtime)",
    "test_criterion_3": "3 (transformation goldens)",
    "test_criterion_4": "4 (transformations preserve bounded derivability)",
    "test_criterion_5": "5 (polyhedra operations vs independent oracles)",
    "test_criterion_6": "6 (thresholds fixture and degradation without them)",
}

_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name in CRITERIA:
        _results[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(CRITERIA):
        outcome = _results.get(name, "NOT RUN")
        terminalreporter.write_line(f"CRITERION {CRITERIA[name]}: {outcome}")
