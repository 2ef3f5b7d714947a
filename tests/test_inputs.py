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
    ResourceLimitError,
    ScalingAutomorphism,
    abelian_oracle_count,
    build_root_system,
    closure,
    cokernel_order_mod,
    diagram_symmetries,
    exponent_vector,
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
    subgroup,
    telescoping_product_check,
    zn_fullness_witness,
)
from tck.errors import decimal, integer, rational
from tck.fields import _is_prime
from tck.linalg import _strip_power

A2 = build_root_system("A2")
WITNESSES = generate_witnesses(A2, 4)
SCALING = ScalingAutomorphism((2,))
GRAPH = ChevalleyAutomorphism(A2, graph=next(s for s in diagram_symmetries(A2) if s.order == 2))
S3 = closure([(1, 0, 2), (1, 2, 0)])
S3_ID = GroupAutomorphism.identity(S3)
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
    "correction float": (lambda: _certify(diagonal=[0.5] * A2.rank), "unsupported scalar"),
    "correction string": (lambda: _certify(diagonal=["1/3"] * A2.rank), "unsupported scalar"),
    "correction bool": (lambda: _certify(diagonal=[True] * A2.rank), "unsupported scalar"),
    "index bool": (lambda: _certify(index=True), "True is not an int"),
    "index float": (lambda: _certify(index=3.0), "3.0 is not an int"),
    "witness count bool": (lambda: generate_witnesses(A2, True), "True is not an int"),
    "witness count float": (lambda: generate_witnesses(A2, 2.0), "2.0 is not an int"),
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
    # a float result, a float computed before the refusal, a bool accepted,
    # or an untyped TypeError or AttributeError before the gates
    "scaling power float": (lambda: SCALING ** 1.5, "1.5 is not an int"),
    "scaling power bool": (lambda: SCALING ** True, "True is not an int"),
    "scaling identity bool": (lambda: ScalingAutomorphism.identity(True), "True is not an int"),
    "scaling compose int": (lambda: SCALING.compose(5), "composes with a ScalingAutomorphism"),
    "exponent base float": (lambda: exponent_vector(6, [2.0, 3]), "2.0 is not an int"),
    "polynomial variable bool": (lambda: Polynomial.variable(True, 0), "True is not an int"),
    "polynomial variable float": (lambda: Polynomial.variable(1.0, 0), "1.0 is not an int"),
    "polynomial variable index bool": (lambda: Polynomial.variable(2, True), "True is not an int"),
    "rational function int denominator": (lambda: RationalFunction(T, 5),
                                          "quotient of two Polynomials"),
    "closure int": (lambda: closure(5), "'int' object is not iterable"),
    "closure int generator": (lambda: closure([5]), "'int' object is not iterable"),
    "closure int matrix": (lambda: closure([5], modulus=7), "'int' object is not iterable"),
    "subgroup int": (lambda: subgroup(S3, 5), "must be iterable, not int"),
    # accepted, or an untyped error when the automorphism was used
    "chevalley int root system": (lambda: ChevalleyAutomorphism(5), "needs a RootSystem"),
    "chevalley int field part": (lambda: ChevalleyAutomorphism(A2, field=5),
                                 "field part must be a ScalingAutomorphism"),
    "chevalley int diagonal part": (lambda: ChevalleyAutomorphism(A2, diagonal=5),
                                    "^diagonal part needs 2 simple-root values$"),
    "product int factors": (lambda: ProductAutomorphism(5, (0,)), "sequence of factors"),
    "product None permutation": (lambda: ProductAutomorphism([GRAPH], None), "and a permutation"),
    "product int factor": (lambda: ProductAutomorphism([5], (0,)),
                           "factor 0 is not a Chevalley automorphism"),
    # the zero polynomial is the constant 0
    "polynomial zero float": (lambda: Polynomial.constant(1.5, 0), "1.5 is not an int"),
    "polynomial constant float": (lambda: Polynomial.constant(1.5, 2), "1.5 is not an int"),
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
    "certify int correction": (lambda: _certify(diagonal=(-1, -1)), "obstructed"),
    "certify Fraction correction": (lambda: _certify(diagonal=(Fraction(1, 3),) * 2),
                                    "obstructed"),
    "certify index 2": (lambda: _certify(index=2), "inconclusive"),
    "witness count": (lambda: WITNESSES.primes, ((2, 3), (5, 7), (11, 13), (17, 19))),
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
    "scaling power": (lambda: (SCALING ** -2).scalars, (Fraction(1, 4),)),
    "exponent base": (lambda: exponent_vector(Fraction(4, 3), [2, 3]), [2, -1]),
    "subgroup": (lambda: len(subgroup(S3, [(1, 0, 2)])), 2),
    # the ungated cores that the gated callers above run on ints
    "is_prime": (lambda: [n for n in range(-2, 12) if _is_prime(n)], [2, 3, 5, 7, 11]),
    "strip_power": (lambda: _strip_power(-24, 2), (3, -3)),
    "polynomial zero": (lambda: Polynomial.constant(2, 0).nvars, 2),
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


HUGE = 10**5000  # more digits than Python prints
HUGE_BOUND = r"2\^16609"

# Each call formatted its value into the message before any gate ran, so it
# ended in an untyped ValueError from the int/str digit limit; the messages
# of printable values are unchanged.
PAST_THE_DIGIT_LIMIT = {
    "witness count": (lambda: generate_witnesses(A2, HUGE), ResourceLimitError,
                      "^witness count exceeds closure cap 200000 at 2 primes per witness$"),
    "negative witness count": (lambda: generate_witnesses(A2, -HUGE), DomainError,
                               f"^at least one witness is required, got <= -{HUGE_BOUND}$"),
    "witness count 0": (lambda: generate_witnesses(A2, 0), DomainError,
                        "^at least one witness is required, got 0$"),
    "metabelian prime": (lambda: metabelian_spectrum(1, 1, HUGE), DomainError,
                         f"^primality of >= {HUGE_BOUND} is only decided below "
                         "3317044064679887385961981$"),
    "negative metabelian prime": (lambda: metabelian_spectrum(1, 1, -HUGE), DomainError,
                                  f"^<= -{HUGE_BOUND} is not prime$"),
    "reduce prime": (lambda: reduce_mod_p([[1]], HUGE), DomainError,
                     f"^primality of >= {HUGE_BOUND} is only decided below "),
    "reduce prime 4": (lambda: reduce_mod_p([[1]], 4), DomainError, "^4 is not prime$"),
    "reduce prime 10**30": (lambda: reduce_mod_p([[1]], 10**30), DomainError,
                            f"^primality of {10**30} is only decided below "
                            "3317044064679887385961981$"),
    "primality": (lambda: _is_prime(HUGE), DomainError, f"^primality of >= {HUGE_BOUND} "),
    "certificate index": (lambda: _certify(index=HUGE), DomainError,
                          f"^index >= {HUGE_BOUND} outside the witness range 1..4$"),
    "int gate": (lambda: integer(Fraction(HUGE), 1, "count"), DomainError,
                 "^count: a Fraction past the digit limit is not an int$"),
    "rational gate": (lambda: rational([HUGE]), DomainError,
                      "^unsupported scalar a list past the digit limit$"),
}


@pytest.mark.parametrize("case", PAST_THE_DIGIT_LIMIT.values(), ids=PAST_THE_DIGIT_LIMIT.keys())
def test_values_past_the_digit_limit_end_in_typed_errors(case, monkeypatch):
    call, error, message = case
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    with pytest.raises(error, match=message):
        call()


def test_decimal_bounds_what_it_cannot_print():
    assert decimal(-5) == "-5" and decimal(Fraction(1, 2)) == "1/2"
    assert decimal("2", repr) == "'2'"
    assert decimal(2 ** 20000) == ">= 2^20000"
    assert decimal(-2 ** 20000 - 1) == "<= -2^20000"
    assert decimal((HUGE,)) == "a tuple past the digit limit"


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
