"""Acceptance criteria, one test per numbered check.

Each test reruns the shared registry entry, so `pytest -v` prints one
pass/fail line per criterion and the `verify suite` command reports the
same outcomes.  A test fails either on a wrong result or on blowing the
check's wall-clock budget.
"""

import os
import subprocess
import sys
from pathlib import Path

from tck.acceptance import all_checks, run_check

CHECKS = {check.number: check for check in all_checks()}


def _run(number):
    outcome = run_check(CHECKS[number])
    assert outcome.passed, outcome.details
    assert outcome.seconds < outcome.budget_seconds, (
        f"criterion {number} took {outcome.seconds:.2f}s, "
        f"budget {outcome.budget_seconds:.0f}s"
    )
    return outcome


def test_criterion_01_integer_spectrum():
    _run(1)


def test_criterion_02_zn_fullness():
    _run(2)


def test_criterion_03_abelian_oracle():
    _run(3)


def test_criterion_04_inner_twist_invariance():
    _run(4)


def test_criterion_05_isogredience_counts():
    _run(5)


def test_criterion_06_projection_inequality():
    _run(6)


def test_criterion_07_chevalley_relations():
    _run(7)


def test_criterion_08_torus_diagonal_form():
    _run(8)


def test_criterion_09_witness_disjointness():
    _run(9)


def test_criterion_10_telescoping_identity():
    _run(10)


def test_criterion_11_obstruction_certificate():
    _run(11)


def test_criterion_12_heisenberg_spectrum():
    _run(12)


def test_criterion_13_metabelian_table():
    _run(13)


def test_broken_routes_fail_under_optimized_python():
    # python -O strips assert statements; the criteria must fail regardless
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import tck.acceptance as acceptance\n"
        "acceptance.reidemeister_zn = lambda matrix: 7\n"
        "acceptance.metabelian_spectrum = lambda *args: None\n"
        "checks = {check.number: check for check in acceptance.all_checks()}\n"
        "print([acceptance.run_check(checks[n]).passed for n in (1, 13)])\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[False, False]"
