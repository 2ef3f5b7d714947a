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

import pytest

import tck.roots
import tck.witness
from tck.acceptance import all_checks, run_check

CHECKS = {check.number: check for check in all_checks()}

# Each criterion's summary, which `verify suite` prints; a reworded or
# recounted criterion changes its output.
DETAILS = {
    1: "R(-id) = 2, R(id) = infinity",
    2: "every m in 1..50 realized on Z^2, determinant route agrees",
    3: "100 brute-force/cokernel comparisons agree",
    4: "132 inner twists leave R unchanged",
    5: "S(id): Q8 = 4, D4 = 4, SL(2,3) = 4; all automorphism routes agree",
    6: "10 (G, N) instances, 20 projections satisfy R >= R-bar",
    7: "7056 relations verified over A1, A2, A3, B2, G2",
    8: "120 torus matrices diagonal with character entries; A1 sample diag(4, 1/4, 1)",
    9: "6 witnesses for A2, A3(rev), B2, D4(ord-3): entry and product supports disjoint",
    10: "1000 randomized telescoping instances hold",
    11: "A2: 48 certified; A3 reversal: 180 certified; swap product: 48 certified; "
        "pattern determinants all 0",
    12: "3 finite values all even; 48 oracle/cokernel comparisons agree; [[0,1],[1,1]] gives 2",
    13: "p=3 equal-units: 4 in, 6 out; p=2 reciprocal-pair: 6 in, 4 in, 8 out; "
        "generic: only infinity",
}


def _run(number):
    outcome = run_check(CHECKS[number])
    assert outcome.passed, outcome.details
    assert outcome.details == DETAILS[number]
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


def _bump_first_exponent(rows):
    return ((rows[0][0] + 1, *rows[0][1:]), *rows[1:])


def _perturb_collapse(monkeypatch):
    collapse = tck.witness._collapse
    monkeypatch.setattr(tck.witness, "_collapse",
                        lambda cycle, rows, m: _bump_first_exponent(collapse(cycle, rows, m)))


def _perturb_pairings(monkeypatch):
    # criterion 9 imports build_root_system from tck.roots when it runs
    build = tck.roots.build_root_system

    def bumped(text):
        rs = build(text)
        rs.pairings = _bump_first_exponent(rs.pairings)
        return rs

    monkeypatch.setattr(tck.roots, "build_root_system", bumped)


@pytest.mark.parametrize("perturb", [_perturb_collapse, _perturb_pairings],
                         ids=["collapse", "pairings"])
def test_criterion_09_checks_the_rows_the_certificate_reads(perturb, monkeypatch):
    # one exponent off in the rows that the certificate reads fails the
    # criterion
    perturb(monkeypatch)
    assert not run_check(CHECKS[9]).passed


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
        "import tck.acceptance as acceptance, tck.spectrum as spectrum\n"
        "spectrum.reidemeister_zn = lambda matrix: 7\n"
        "spectrum.metabelian_spectrum = lambda *args: None\n"
        "checks = {check.number: check for check in acceptance.all_checks()}\n"
        "print([acceptance.run_check(checks[n]).passed for n in (1, 13)])\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "[False, False]"
