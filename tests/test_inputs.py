"""The two input gates of tck.errors, at every public int and rational parameter.

Each wrong-kind call below was accepted or ended in an untyped error before
its parameter passed a gate: floats and bools were converted without a
word, or reached an arithmetic or indexing step that raised TypeError.
"""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from tck import (
    ChevalleyAutomorphism,
    DomainError,
    ExtendedCount,
    GroupAutomorphism,
    Polynomial,
    ProductAutomorphism,
    RationalFunction,
    ScalingAutomorphism,
    abelian_oracle_count,
    build_root_system,
    closure,
    cokernel_order_mod,
    diagram_symmetries,
    generate_witnesses,
    group_from_descriptor,
    heisenberg_group,
    heisenberg_oracle,
    lamplighter_r_infinity,
    metabelian_spectrum,
    obstruction_check,
    project_product_to_first_factor,
    reduce_mod_p,
    reduced_obstruction_check,
    telescoping_product_check,
    twisted_power_product,
    zn_fullness_witness,
)
from tck.errors import integer, rational

A2 = build_root_system("A2")
WITNESSES = generate_witnesses(A2, 4)
SCALING = ScalingAutomorphism((2,))
GRAPH = ChevalleyAutomorphism(A2, graph=next(s for s in diagram_symmetries(A2) if s.order == 2))
S3 = closure([(1, 0, 2), (1, 2, 0)])
S3_ID = GroupAutomorphism.identity(S3)
ROOTS = len(A2.roots)
SHEAR = ((1, 1), (0, 1))
T = Polynomial.variable(1, 0)
T_OVER_1 = RationalFunction.variable(1, 0)


def _certify(index=3, diagonal=None):
    """The verdict, through the diagonal part's reduction when one is given:
    the certificate's correction comes from the diagonal part."""
    if diagonal is None:
        return obstruction_check(A2, WITNESSES, None, SCALING, index).verdict
    phi = ChevalleyAutomorphism(A2, diagonal=diagonal, field=SCALING)
    reduction = project_product_to_first_factor(ProductAutomorphism([phi], (0,)), WITNESSES)
    return reduced_obstruction_check(reduction, index).verdict


WRONG_KINDS = {
    "metabelian float r, s": (lambda: metabelian_spectrum(0.5, 2.0, 2), "unsupported scalar"),
    "metabelian string r, s": (lambda: metabelian_spectrum("1/2", "2", 2), "unsupported scalar"),
    "metabelian bool r, s": (lambda: metabelian_spectrum(True, True, 3), "unsupported scalar"),
    "metabelian float p": (lambda: metabelian_spectrum(2, Fraction(1, 2), 2.0),
                           "^2.0 is not prime: 2.0 is not an int$"),
    "metabelian prime 7.0": (lambda: metabelian_spectrum(1, 1, 7.0), "7.0 is not an int"),
    # the correction's entries enter as the diagonal part's, through its gate
    "correction float": (lambda: _certify(diagonal=[0.5] * ROOTS), "unsupported scalar"),
    "correction string": (lambda: _certify(diagonal=["1/3"] * ROOTS), "unsupported scalar"),
    "correction bool": (lambda: _certify(diagonal=[True] * ROOTS), "unsupported scalar"),
    "index bool": (lambda: _certify(index=True), "True is not an int"),
    "index float": (lambda: _certify(index=3.0), "3.0 is not an int"),
    "witness count bool": (lambda: generate_witnesses(A2, True), "True is not an int"),
    "witness count float": (lambda: generate_witnesses(A2, 2.0), "2.0 is not an int"),
    "power product bool entries": (lambda: twisted_power_product(GRAPH, [True] * ROOTS, 2),
                                   "unsupported scalar True"),
    "power product bool m": (lambda: twisted_power_product(GRAPH, [1] * ROOTS, True),
                             "True is not an int"),
    "power product float m": (lambda: twisted_power_product(GRAPH, [1] * ROOTS, 2.0),
                              "2.0 is not an int"),
    "reduce bool entry": (lambda: reduce_mod_p([[True, 2]], 3), "unsupported scalar True"),
    "reduce prime 7.0": (lambda: reduce_mod_p([[1, 2]], 7.0), "7.0 is not an int"),
    "lamplighter float": (lambda: lamplighter_r_infinity(4.0), "4.0 is not an int"),
    "heisenberg float": (lambda: heisenberg_group(2.0), "modulus must be at least 2: 2.0"),
    "heisenberg oracle float": (lambda: heisenberg_oracle([[0, 1], [1, 1]], 3.0),
                                "3.0 is not an int"),
    "abelian oracle float": (lambda: abelian_oracle_count([[-1]], 2.0), "2.0 is not an int"),
    "cokernel float": (lambda: cokernel_order_mod([[2]], 2.5), "2.5 is not an int"),
    "telescoping float": (lambda: telescoping_product_check(S3, S3_ID, (1, 0, 2), (1, 2, 0), 2.0),
                          "2.0 is not an int"),
    "fullness float m": (lambda: zn_fullness_witness(2, 3.0),
                         "^target count must be at least 1: 3.0 is not an int$"),
    "fullness bool n": (lambda: zn_fullness_witness(True, 3), "True is not an int"),
    "extended count float": (lambda: ExtendedCount(2.0), "2.0 is not an int"),
    "member bool": (lambda: metabelian_spectrum(1, 1, 3).contains(True), "True is not an int"),
    "permutation bools": (lambda: ProductAutomorphism([GRAPH, GRAPH], (True, 0)),
                          "does not rearrange"),
    "closure modulus float": (lambda: closure([SHEAR], modulus=7.0),
                              "^matrix encoding needs an int modulus >= 2: 7.0 is not an int$"),
    "closure modulus bool": (lambda: closure([SHEAR], modulus=True), "True is not an int"),
    # the message names no value, which could not be formatted
    "closure modulus past the digit limit": (lambda: closure([SHEAR], modulus=-10**5000),
                                             "^matrix encoding needs an int modulus >= 2$"),
    "descriptor modulus past the digit limit": (
        lambda: group_from_descriptor({"encoding": "matmod", "modulus": -10**5000,
                                       "generators": [[[1, 1], [0, 1]]]}),
        "^matmod modulus must be an integer >= 2$"),
    "polynomial power float": (lambda: T ** 2.0, "2.0 is not an int"),
    "polynomial power string": (lambda: T ** "2", "'2' is not an int"),
    "polynomial power bool": (lambda: T ** True, "True is not an int"),
    "polynomial power negative": (lambda: T ** -1, "needs a RationalFunction"),
    "rational function power float": (lambda: T_OVER_1 ** 2.0, "2.0 is not an int"),
    "rational function power string": (lambda: T_OVER_1 ** "2", "'2' is not an int"),
    "rational function power bool": (lambda: T_OVER_1 ** True, "True is not an int"),
}


@pytest.mark.parametrize("case", WRONG_KINDS.values(), ids=WRONG_KINDS.keys())
def test_wrong_kinds_are_domain_errors(case):
    call, message = case
    with pytest.raises(DomainError, match=message):
        call()


# Results recorded before the gates, for the same calls on ints and Fractions.
VALID = {
    "metabelian": (lambda: metabelian_spectrum(2, Fraction(1, 2), 2).set_form,
                   "{2*(2^l - 1), 2*(2^l + 1) : l >= 1} U {4} U {infinity}"),
    # diagonal parts with values -1 and 1/3 at both simple roots
    "certify int correction": (lambda: _certify(diagonal=[(-1) ** (sum(b) % 2) for b in A2.roots]),
                               "obstructed"),
    "certify Fraction correction": (
        lambda: _certify(diagonal=[Fraction(1, 3) ** sum(b) for b in A2.roots]), "obstructed"),
    "certify index 2": (lambda: _certify(index=2), "inconclusive"),
    "witness count": (lambda: WITNESSES.primes, ((2, 3), (5, 7), (11, 13), (17, 19))),
    "power product": (lambda: twisted_power_product(GRAPH, [1, 2, Fraction(1, 3), 1, 1, 1], 2),
                      (2, 2, Fraction(1, 9), 1, 1, 1)),
    "reduce": (lambda: reduce_mod_p([[1, Fraction(1, 2)]], 3), [[1, 2]]),
    "lamplighter": (lambda: lamplighter_r_infinity(4), True),
    "heisenberg": (lambda: len(heisenberg_group(2)), 8),
    "cokernel": (lambda: cokernel_order_mod([[2]], 4), 2),
    "telescoping": (lambda: telescoping_product_check(S3, S3_ID, (1, 0, 2), (1, 2, 0), 2), True),
    "fullness": (lambda: zn_fullness_witness(2, 3), [[0, 1], [-1, -1]]),
    "member": (lambda: metabelian_spectrum(1, 1, 3).contains(4), True),
    "closure modulus": (lambda: len(closure([SHEAR], modulus=7)), 7),
    "polynomial power": (lambda: T ** 2 == T * T, True),
    "rational function power": (lambda: T_OVER_1 ** -2 == (T_OVER_1 ** 2).reciprocal(), True),
}


@pytest.mark.parametrize("case", VALID.values(), ids=VALID.keys())
def test_ints_and_fractions_give_the_same_results(case):
    call, expected = case
    assert call() == expected


def test_gates_pass_exact_values_through():
    x = Fraction(3, 4)
    assert rational(x) is x
    assert rational(-7) == Fraction(-7) and type(rational(-7)) is Fraction
    assert integer(5, 5, "unused") == 5
    with pytest.raises(DomainError, match="^count too small$"):
        integer(4, 5, "count too small")
    for value in (True, 5.0, "5", None, Fraction(5)):
        message = re.escape(f"count too small: {value!r} is not an int")
        with pytest.raises(DomainError, match=f"^{message}$"):
            integer(value, 5, "count too small")
        if not isinstance(value, Fraction):
            with pytest.raises(DomainError, match="^unsupported scalar"):
                rational(value)


def _bool_isinstance_calls(tree):
    """Line numbers of isinstance(x, bool) and isinstance(x, (..., bool, ...))."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1:]
            if kinds and isinstance(kinds[0], ast.Tuple):
                kinds = kinds[0].elts
            if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                yield node.lineno


def test_only_the_gates_test_for_bool():
    # The rule "an int, not a bool" lives in tck.errors; a module that spells
    # it again has left the gates.
    package = Path(__file__).resolve().parents[1] / "src" / "tck"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             if path.name != "errors.py"
             for line in _bool_isinstance_calls(ast.parse(path.read_text()))]
    assert found == []
    assert list(_bool_isinstance_calls(ast.parse("isinstance(x, (int, bool))"))) == [1]
