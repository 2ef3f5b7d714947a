"""Command line surface: JSON reports, exit codes, determinism."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tck
import tck.cli
from tck.acceptance import all_checks
from tck.cli import main
from tck.errors import ConsistencyError, DomainError, ResourceLimitError


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    assert out.count("\n") == 0, "exactly one JSON document per invocation"
    return code, json.loads(out)


def test_root_info(capsys):
    code, report = run_cli(capsys, ["root", "info", "A2"])
    assert code == 0
    assert report["status"] == "ok"
    assert report["version"] == tck.__version__
    payload = report["payload"]
    assert payload["type"] == "A2"
    assert payload["rank"] == 2
    assert payload["root_count"] == 6
    assert payload["positive_count"] == 3
    assert [1, 1] in payload["roots"]
    assert payload["cartan"] == [[2, -1], [-1, 2]]
    assert payload["symmetry_orders"] == [1, 2]


def test_root_info_rejects_unknown_type(capsys):
    code, report = run_cli(capsys, ["root", "info", "Z9"])
    assert code == 1
    assert report["status"] == "error"
    assert report["payload"]["code"] == "domain-error"
    assert report["payload"]["message"]


@pytest.mark.parametrize("name", ["A12", "D16", "A24"])
def test_root_info_past_rank_eight_is_quick(capsys, name):
    # the diagram symmetries come from a search that prunes on the Cartan
    # matrix, not from all rank! permutations
    start = time.perf_counter()
    code, report = run_cli(capsys, ["root", "info", name])
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert report["payload"]["symmetry_orders"] == [1, 2]


@pytest.mark.parametrize("name, tail", [
    ("A60", "of width 13838400 counts 216225"),
    # a rank of 3000 digits parses, and its width has too many digits to print
    ("A" + "9" * 3000, "of width >= 2^39863 counts >= 2^39857")], ids=["A60", "3000-digits"])
def test_root_info_past_the_budget_is_one_resource_limit_document(capsys, monkeypatch, name,
                                                                  tail):
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    start = time.perf_counter()
    code, report = run_cli(capsys, ["root", "info", name])
    assert time.perf_counter() - start < 1.0
    assert (code, report["status"]) == (1, "error")
    assert report["payload"] == {
        "code": "resource-limit",
        "message": f"root system {name} exceeds closure cap 200000: one adjoint element {tail}"}


@pytest.mark.parametrize("text", ["A\u00b2", "A" + "1" * 5000], ids=["superscript", "5000-digits"])
def test_root_info_rejects_unparsable_ranks(capsys, text):
    code, report = run_cli(capsys, ["root", "info", text])
    assert code == 1
    assert report["payload"]["code"] == "domain-error"
    assert report["payload"]["message"].startswith("cannot parse root system type")


def test_chevalley_gen_torus_element(capsys):
    code, report = run_cli(
        capsys,
        ["chevalley", "gen", "--type", "A1", "--kind", "h", "--root", "1", "--t", "2"],
    )
    assert code == 0
    assert report["payload"]["matrix"] == [[4, 0, 0], [0, "1/4", 0], [0, 0, 1]]
    assert report["payload"]["t"] == 2


def test_chevalley_gen_rational_parameter(capsys):
    code, report = run_cli(
        capsys,
        ["chevalley", "gen", "--type", "A2", "--kind", "x", "--root", "1,0", "--t", "1/3"],
    )
    assert code == 0
    assert report["payload"]["t"] == "1/3"
    flattened = [e for row in report["payload"]["matrix"] for e in row]
    assert "1/3" in flattened or "-1/3" in flattened


def test_chevalley_gen_rejects_non_integer_root(capsys):
    code, report = run_cli(
        capsys,
        ["chevalley", "gen", "--type", "A2", "--kind", "x", "--root", "1,a", "--t", "2"],
    )
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


def _write_s3(tmp_path):
    group_file = tmp_path / "s3.json"
    group_file.write_text(
        json.dumps({"encoding": "perm", "generators": [[1, 0, 2], [1, 2, 0]]})
    )
    aut_file = tmp_path / "id.json"
    aut_file.write_text(json.dumps({"images": [[1, 0, 2], [1, 2, 0]]}))
    return str(group_file), str(aut_file)


def test_twisted_subcommands(capsys, tmp_path):
    group_file, aut_file = _write_s3(tmp_path)
    code, report = run_cli(
        capsys, ["twisted", "classes", "--group", group_file, "--aut", aut_file]
    )
    assert code == 0
    assert report["payload"] == {"group_order": 6, "count": 3, "class_sizes": [1, 2, 3]}

    code, report = run_cli(
        capsys, ["twisted", "reidemeister", "--group", group_file, "--aut", aut_file]
    )
    assert report["payload"]["reidemeister"] == 3

    code, report = run_cli(
        capsys, ["twisted", "isogredience", "--group", group_file, "--aut", aut_file]
    )
    assert report["payload"]["isogredience"] == 3


@pytest.mark.parametrize("descriptor", [
    {"encoding": "perm", "generators": ["ab"]},
    {"encoding": "matmod", "modulus": 3, "generators": [[["a", 0], [0, 1]]]},
    # S3 with one generator's entries as a float, bools or numeric strings
    {"encoding": "perm", "generators": [[1.5, 0, 2], [1, 2, 0]]},
    {"encoding": "perm", "generators": [[True, False, 2], [1, 2, 0]]},
    {"encoding": "perm", "generators": [["1", "0", "2"], [1, 2, 0]]},
    # not nested lists, or a modulus that is not an integer >= 2
    {"encoding": "perm", "generators": 5},
    {"encoding": "perm", "generators": [5]},
    {"encoding": "matmod", "modulus": 7, "generators": [[5]]},
    {"encoding": "matmod", "modulus": "7", "generators": [[[1, 1], [0, 1]]]},
    {"encoding": "matmod", "modulus": 7.0, "generators": [[[1, 1], [0, 1]]]},
    {"encoding": "matmod", "modulus": True, "generators": [[[1, 1], [0, 1]]]},
])
def test_twisted_rejects_non_integer_generators(capsys, tmp_path, descriptor):
    _, aut_file = _write_s3(tmp_path)
    group_file = tmp_path / "bad.json"
    group_file.write_text(json.dumps(descriptor))
    code, report = run_cli(
        capsys, ["twisted", "classes", "--group", str(group_file), "--aut", aut_file]
    )
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


@pytest.mark.parametrize("images", [5, [5, 6], [[1.0, 0, 2], [1, 2, 0]]])
def test_twisted_rejects_hostile_images(capsys, tmp_path, images):
    group_file, _ = _write_s3(tmp_path)
    aut_file = tmp_path / "bad-aut.json"
    aut_file.write_text(json.dumps({"images": images}))
    code, report = run_cli(
        capsys, ["twisted", "classes", "--group", group_file, "--aut", str(aut_file)]
    )
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


def test_twisted_long_matrix_order_hits_the_cap(capsys, tmp_path, monkeypatch):
    group_file = tmp_path / "fibonacci.json"
    group_file.write_text(json.dumps(
        {"encoding": "matmod", "modulus": 1000003, "generators": [[[0, 1], [1, 1]]]}))
    aut_file = tmp_path / "fibonacci-id.json"
    aut_file.write_text(json.dumps({"images": [[[0, 1], [1, 1]]]}))
    monkeypatch.setenv("TCK_CLOSURE_CAP", "20000")
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["twisted", "classes", "--group", str(group_file), "--aut", str(aut_file)]
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert report["payload"]["code"] == "resource-limit"


def test_twisted_isogredience_on_a_large_center_is_fast(capsys, tmp_path):
    # a cyclic group of order 5003: every element is central
    group_file = tmp_path / "cyclic.json"
    group_file.write_text(json.dumps(
        {"encoding": "matmod", "modulus": 10007, "generators": [[[2, 0], [0, 1]]]}))
    aut_file = tmp_path / "square.json"
    aut_file.write_text(json.dumps({"images": [[[4, 0], [0, 1]]]}))
    start = time.perf_counter()
    code, report = run_cli(
        capsys, ["twisted", "isogredience", "--group", str(group_file), "--aut", str(aut_file)]
    )
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert report["payload"] == {"group_order": 5003, "isogredience": 1}


def test_twisted_missing_file(capsys, tmp_path):
    code, report = run_cli(
        capsys,
        ["twisted", "classes", "--group", str(tmp_path / "nope.json"), "--aut",
         str(tmp_path / "nope.json")],
    )
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


def test_spectrum_zn(capsys):
    code, report = run_cli(capsys, ["spectrum", "zn", "--matrix", "[[-1]]"])
    assert (code, report["payload"]["reidemeister"]) == (0, 2)
    code, report = run_cli(capsys, ["spectrum", "zn", "--matrix", "[[1]]"])
    assert report["payload"]["reidemeister"] == "infinity"
    code, report = run_cli(capsys, ["spectrum", "zn", "--matrix", '[[1, 2], [1, "1/2"]]'])
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


def test_spectrum_heisenberg(capsys):
    code, report = run_cli(capsys, ["spectrum", "heisenberg", "--matrix", "[[0,1],[1,1]]"])
    assert (code, report["payload"]["reidemeister"]) == (0, 2)


def test_spectrum_lamplighter(capsys):
    code, report = run_cli(capsys, ["spectrum", "lamplighter", "--n", "6"])
    assert report["payload"]["r_infinity"] is True
    code, report = run_cli(capsys, ["spectrum", "lamplighter", "--n", "5"])
    assert report["payload"]["r_infinity"] is False


def test_spectrum_metabelian_membership(capsys):
    code, report = run_cli(
        capsys,
        ["spectrum", "metabelian", "--r", "1", "--s", "1", "--p", "3", "--member", "4"],
    )
    assert code == 0
    payload = report["payload"]
    assert payload["case"] == "equal-units"
    assert payload["prime"] == 3
    assert payload["member"] == {"value": 4, "contained": True}
    code, report = run_cli(
        capsys,
        ["spectrum", "metabelian", "--r", "2", "--s", "1/2", "--p", "2", "--member", "8"],
    )
    assert report["payload"]["case"] == "reciprocal-pair"
    assert report["payload"]["member"]["contained"] is False


def test_witness_run(capsys):
    code, report = run_cli(
        capsys,
        ["witness", "run", "--type", "A2", "--count", "6", "--trdeg", "1",
         "--scale", "2", "--index", "3"],
    )
    assert code == 0
    payload = report["payload"]
    assert payload["verdict"] == "obstructed"
    assert payload["bound"] == 2
    assert payload["generators"] == [64]
    assert payload["uncertified"] == []
    assert len(payload["certified"]) == 48
    sample = payload["certified"][0]
    assert set(sample) == {"position", "block", "eigencharacter"}
    # exact rationals ride as strings
    assert any(
        isinstance(entry["eigencharacter"], str) for entry in payload["certified"]
    )


def test_witness_run_inconclusive(capsys):
    code, report = run_cli(
        capsys,
        ["witness", "run", "--type", "A2", "--count", "6", "--trdeg", "1",
         "--scale", "2", "--index", "2"],
    )
    assert code == 0
    assert report["payload"]["verdict"] == "inconclusive"
    assert report["payload"]["certified"] == []


def test_witness_run_never_factors_the_scale(capsys):
    # an 81-digit semiprime with two 40-digit factors: membership is decided
    # by gcds, so the run costs no more than with a small scale
    semiprime = 164237133631580406985004262040589820542381302753364924441891396761952478374632453
    start = time.perf_counter()
    code, report = run_cli(
        capsys,
        ["witness", "run", "--type", "A2", "--count", "4", "--trdeg", "1",
         "--scale", str(semiprime), "--index", "3"],
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert report["payload"]["verdict"] == "obstructed"
    assert report["payload"]["generators"] == [str(semiprime ** 6)]


def test_witness_scale_broadcast_mismatch(capsys):
    code, report = run_cli(
        capsys,
        ["witness", "run", "--type", "A2", "--count", "6", "--trdeg", "2",
         "--scale", "2,3,5", "--index", "4"],
    )
    assert code == 1
    assert report["payload"]["code"] == "domain-error"


@pytest.mark.parametrize("at_cap, past_cap, far_past", [
    # one field scalar per degree
    (["--count", "3", "--trdeg", "50"], ["--count", "3", "--trdeg", "51"],
     ["--count", "3", "--trdeg", "9" * 4000]),
    # two primes per A2 witness
    (["--count", "25", "--trdeg", "1"], ["--count", "26", "--trdeg", "1"],
     ["--count", "9" * 4000, "--trdeg", "1"]),
])
def test_witness_run_past_the_budget_is_one_resource_limit_document(capsys, monkeypatch, at_cap,
                                                                   past_cap, far_past):
    monkeypatch.setenv("TCK_CLOSURE_CAP", "50")
    run = ["witness", "run", "--type", "A2", "--scale", "2", "--index", "3"]
    code, report = run_cli(capsys, run + at_cap)
    assert code == 0 and report["status"] == "ok"
    for past in (past_cap, far_past):
        start = time.perf_counter()
        code, report = run_cli(capsys, run + past)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert report["payload"]["code"] == "resource-limit"
        assert "closure cap 50" in report["payload"]["message"]


def test_verify_filter_and_warning(capsys):
    code, report = run_cli(capsys, ["verify", "suite", "--filter", "integer-spectrum"])
    assert code == 0
    checks = report["payload"]["checks"]
    assert len(checks) == 1
    assert checks[0]["passed"] is True
    assert checks[0]["within_budget"] is True
    assert "seconds" not in checks[0]

    code, report = run_cli(capsys, ["verify", "suite", "--filter", "nonexistent"])
    assert code == 0
    assert report["payload"]["checks"] == []
    assert "no checks match" in report["payload"]["warning"]


def test_verify_timing_flag(capsys):
    code, report = run_cli(
        capsys, ["--timing", "verify", "suite", "--filter", "integer-spectrum"]
    )
    assert code == 0
    assert "timing_ms" in report
    assert "seconds" in report["payload"]["checks"][0]


def test_byte_identical_reports(capsys):
    main(["root", "info", "D4"])
    first = capsys.readouterr().out
    main(["root", "info", "D4"])
    second = capsys.readouterr().out
    assert first == second
    main(["witness", "run", "--type", "A2", "--count", "4", "--trdeg", "1",
          "--scale", "2", "--index", "3"])
    third = capsys.readouterr().out
    main(["witness", "run", "--type", "A2", "--count", "4", "--trdeg", "1",
          "--scale", "2", "--index", "3"])
    assert capsys.readouterr().out == third


# stdout of `witness run --type E6 --count 6 --trdeg 1 --scale 2 --index 3`
# (642043 bytes, 5616 certified entries), recorded from the Fraction-per-entry
# route; no golden document is as long
E6_WITNESS_RUN_SHA256 = "e9dfda72c57315e1e5fbaf998f63696b4a34704138605a7153bb87e2cbeecdd0"


def test_long_witness_run_is_byte_pinned(capsys):
    code = main(["witness", "run", "--type", "E6", "--count", "6", "--trdeg", "1",
                 "--scale", "2", "--index", "3"])
    out = capsys.readouterr().out.encode()
    assert code == 0 and len(out) == 642043
    assert hashlib.sha256(out).hexdigest() == E6_WITNESS_RUN_SHA256


_INT64 = 2**63 - 1
_ratio_parts = st.one_of(st.integers(-10**6, 10**6), st.integers(-2**70, 2**70),
                         st.sampled_from((_INT64, _INT64 + 1, -_INT64, -_INT64 - 1)))


def _fraction_text(num, den):
    """The encoder's contract on its own: an int within +-(2^63 - 1), else
    the text of the Fraction."""
    x = Fraction(num, den)
    return x.numerator if x.denominator == 1 and abs(x) <= _INT64 else str(x)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_ratio_parts, _ratio_parts.filter(bool), st.integers(1, 10**6))
@example(0, -5, 1).via("zero over a negative denominator")
@example(2**63, 1, 1).via("one past int64")
@example(-2**63, 1, 1).via("one past -int64")
@example(2**64, -2, 3).via("a reduced int past int64 with a negative denominator")
@example(_INT64, 3, 1).via("int64 over 3")
def test_ratio_text_matches_the_fraction_text(num, den, scale):
    # unreduced pairs, both signs, reduced denominators of 1 and values past
    # int64 give the Fraction's int or text; an int and its text differ, so
    # the type is compared too
    for pair in ((num, den), (num * scale, den * scale), (num * den, den), (num * den, -den),
                 (num, 1)):
        assert tck.cli._encode(*pair) == _fraction_text(*pair)


def test_ratio_text_past_the_digit_limit_is_a_resource_limit():
    big = 10**5000 + 1  # coprime to 3, with more digits than Python prints
    for pair in ((-2 * big, -6), (big, 3), (big, 1), (3, big)):
        with pytest.raises(ResourceLimitError, match="too many digits to print"):
            tck.cli._encode(*pair)


@pytest.mark.parametrize("type_, kind, root, t", [
    ("A1", "h", "1", "2"), ("A2", "x", "1,0", "1/3"), ("B2", "h", "1,1", "-2/3"),
    ("G2", "n", "-3,-2", "5/7"), ("G2", "x", "3,1", "-4/3"),
])
def test_chevalley_gen_reads_the_scaled_rows(capsys, monkeypatch, type_, kind, root, t):
    from tck.chevalley import h_alpha, n_alpha, x_alpha
    from tck.linalg import ScaledMatrix

    rs = tck.build_root_system(type_)
    builder = {"x": x_alpha, "n": n_alpha, "h": h_alpha}[kind]
    dense = builder(rs, tuple(map(int, root.split(","))), Fraction(t)).dense()
    expected = [[_fraction_text(x.numerator, x.denominator) for x in row] for row in dense]

    def forbidden(*args):
        raise AssertionError("dense view built")

    monkeypatch.setattr(ScaledMatrix, "dense", forbidden)
    code, report = run_cli(capsys, ["chevalley", "gen", "--type", type_, "--kind", kind,
                                    f"--root={root}", f"--t={t}"])
    assert code == 0 and report["payload"]["matrix"] == expected


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


@pytest.fixture(scope="module")
def recorded_descriptors(tmp_path_factory):
    """The descriptor files the recorded twisted documents were run on,
    written by the benchmark's own helper."""
    directory = tmp_path_factory.mktemp("descriptors")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        importlib.import_module("clijobs").write_descriptors(directory)
    return directory


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_cli_matches_recorded_output(capsys, monkeypatch, recorded_descriptors, key):
    # perfbench/golden.json holds the sha256 and exit code of each recorded
    # CLI document, run in the descriptors' directory; the in-process bytes
    # must match them
    monkeypatch.chdir(recorded_descriptors)
    code = main(key.split())
    out = capsys.readouterr().out.encode()
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out).hexdigest() == GOLDEN[key]["sha256"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as failure:
        main(["root", "improvise"])
    assert failure.value.code == 2
    with pytest.raises(SystemExit) as failure:
        main(["spectrum", "lamplighter", "--n", "six"])
    assert failure.value.code == 2


def test_big_integers_ride_as_strings(capsys):
    code, report = run_cli(capsys, ["spectrum", "zn", "--matrix",
                                    json.dumps([[0, 1], [-1, -(10**19)]])])
    assert code == 0
    value = report["payload"]["reidemeister"]
    assert isinstance(value, str)
    assert value == str(10**19 + 2)
    member = str(10**23 - 1)
    code, report = run_cli(capsys, ["spectrum", "metabelian", "--r", "2", "--s", "1/2",
                                    "--p", "2", "--member", member])
    assert code == 0
    assert report["payload"]["member"] == {"value": member, "contained": False}


ERROR_CODES = [(DomainError, "domain-error"), (ResourceLimitError, "resource-limit"),
               (ConsistencyError, "internal-inconsistency")]


@pytest.mark.parametrize("error, code", ERROR_CODES, ids=lambda e: getattr(e, "__name__", e))
def test_each_error_class_prints_its_code(capsys, monkeypatch, error, code):
    def failing(args):
        raise error("raised by the handler")

    monkeypatch.setattr(tck.cli, "_run_root_info", failing)
    exit_code, report = run_cli(capsys, ["root", "info", "A2"])
    assert error.code == code
    assert (exit_code, report["status"]) == (1, "error")
    assert report["payload"] == {"code": code, "message": "raised by the handler"}


def _clijobs_constant(name):
    """A constant of perfbench/clijobs.py, read from its source, not imported."""
    source = PERFBENCH / "clijobs.py"
    return next(ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name])


def test_error_codes_are_the_codes_the_benchmark_accepts():
    # perfbench/clijobs.py counts a failing job as typed when its code is in
    # TYPED_CODES
    assert {code for _, code in ERROR_CODES} == set(_clijobs_constant("TYPED_CODES"))


@pytest.mark.parametrize("argv", _clijobs_constant("KNOWN_DEFECTS"), ids=" ".join)
def test_known_defects_end_in_one_typed_document(capsys, monkeypatch, recorded_descriptors,
                                                 argv):
    # the benchmark passes a KNOWN_DEFECTS job once the CLI answers it with
    # one typed-error document, exit 1, inside the child's wall limit
    monkeypatch.chdir(recorded_descriptors)
    monkeypatch.delenv("TCK_CLOSURE_CAP", raising=False)
    start = time.perf_counter()
    exit_code, report = run_cli(capsys, list(argv))
    assert time.perf_counter() - start < _clijobs_constant("WALL_LIMIT_S")
    assert (exit_code, report["status"]) == (1, "error")
    assert report["payload"]["code"] in _clijobs_constant("TYPED_CODES")


FIVE_THOUSAND_DIGITS = "9" * 5000


@pytest.mark.parametrize("argv, code", [
    # 10**4400 has more digits than Python prints by default
    (["chevalley", "gen", "--type", "A1", "--kind", "x", "--root", "1", "--t", "1e4400"],
     "domain-error"),
    # building 10**100000000 alone would run for minutes
    (["chevalley", "gen", "--type", "A1", "--kind", "x", "--root", "1", "--t", "1e100000000"],
     "domain-error"),
    # the generators are scale**6, far past the digit limit
    (["witness", "run", "--type", "A2", "--count", "4", "--trdeg", "1", "--scale", "1e800",
      "--index", "3"], "resource-limit"),
    (["spectrum", "zn", "--matrix", f"[[{FIVE_THOUSAND_DIGITS}]]"], "domain-error"),
], ids=["t-1e4400", "t-1e100000000", "witness-scale-1e800", "zn-5000-digits"])
def test_numbers_past_the_digit_limit_end_in_a_typed_error(capsys, argv, code):
    start = time.perf_counter()
    exit_code, report = run_cli(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert (exit_code, report["payload"]["code"]) == (1, code)


def test_descriptor_past_the_digit_limit_ends_in_a_typed_error(capsys, tmp_path):
    _, aut_file = _write_s3(tmp_path)
    group_file = tmp_path / "huge.json"
    group_file.write_text('{"encoding": "perm", "generators": [[%s, 0, 2]]}'
                          % FIVE_THOUSAND_DIGITS)
    start = time.perf_counter()
    exit_code, report = run_cli(
        capsys, ["twisted", "classes", "--group", str(group_file), "--aut", aut_file])
    assert time.perf_counter() - start < 2.0
    assert (exit_code, report["payload"]["code"]) == (1, "domain-error")


def _nested_inputs(tmp_path):
    """Deeply nested JSON arrays in each place the CLI parses JSON."""
    group_file, aut_file = _write_s3(tmp_path)
    deep_group, deep_aut = tmp_path / "deep-group.json", tmp_path / "deep-aut.json"
    deep_group.write_text("[" * 200000)
    deep_aut.write_text("[" * 3000)
    return {
        "zn-matrix": ["spectrum", "zn", "--matrix", "[" * 5000],
        "heisenberg-matrix": ["spectrum", "heisenberg", "--matrix", "[" * 5000],
        "group-file": ["twisted", "reidemeister", "--group", str(deep_group), "--aut", aut_file],
        "aut-file": ["twisted", "reidemeister", "--group", group_file, "--aut", str(deep_aut)],
    }


@pytest.mark.parametrize("name", ["zn-matrix", "heisenberg-matrix", "group-file", "aut-file"])
def test_deeply_nested_json_ends_in_a_typed_error(capsys, tmp_path, name):
    # the JSON decoder meets the recursion limit; that is invalid input, not a traceback
    start = time.perf_counter()
    exit_code, report = run_cli(capsys, _nested_inputs(tmp_path)[name])
    assert time.perf_counter() - start < 2.0
    assert (exit_code, report["payload"]["code"]) == (1, "domain-error")
    assert "is not valid JSON" in report["payload"]["message"]


def _prime_cycles(degree):
    """A permutation of range(degree) with cycles of lengths 2, 3, 5, ..., 19
    (order 9699690) and every other point fixed."""
    perm, start = list(range(degree)), 0
    for length in (2, 3, 5, 7, 11, 13, 17, 19):
        for k in range(length):
            perm[start + k] = start + (k + 1) % length
        start += length
    return perm


def test_wide_permutations_count_their_width_against_the_cap(capsys, tmp_path):
    # 200000 elements of 1000 slots each would exhaust memory before an
    # element count stopped them; each counts ceil(1000 / 64) = 16
    perm = _prime_cycles(1000)
    group_file, aut_file = tmp_path / "wide.json", tmp_path / "wide-id.json"
    group_file.write_text(json.dumps({"encoding": "perm", "generators": [perm]}))
    aut_file.write_text(json.dumps({"images": [perm]}))
    start = time.perf_counter()
    exit_code, report = run_cli(
        capsys, ["twisted", "reidemeister", "--group", str(group_file), "--aut", str(aut_file)])
    assert time.perf_counter() - start < 2.0
    assert (exit_code, report["payload"]["code"]) == (1, "resource-limit")
    assert report["payload"]["message"] == (
        "closure exceeded cap 200000; partial size 12500 at width 1000 (16 per element)")


# Descriptor and matrix fuzzing.  A value is built as a Python object and
# written with json.dumps; _BIG stands for an int past the int/str digit limit
# and _DEEP for a nesting deeper than the decoder's recursion limit, which
# json.dumps cannot write, so they are spliced into the text.
_BIG, _DEEP = "<big>", "<deep>"
_SPLICES = {f'"{_BIG}"': "9" * 5000, f'"{_DEEP}"': "[" * 3000 + "]" * 3000}
_WRONG_KINDS = st.one_of(st.text(max_size=3), st.floats(allow_nan=False), st.booleans(),
                         st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                         st.just(_BIG), st.just(_DEEP))
_RAGGED = st.recursive(st.integers(-3, 9) | _WRONG_KINDS, lambda inner: st.lists(inner, max_size=4),
                       max_leaves=12)
_MODULUS = st.one_of(st.integers(-3, 12), st.integers(2, 10**30), st.booleans(), st.just(_BIG),
                     _WRONG_KINDS)


def _square(size, entries=st.integers(-6, 6)):
    return st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size)


@st.composite
def _unimodular(draw):
    # triangular with unit diagonal, rows in either order: determinant +-1
    size = draw(st.integers(1, 4))
    rows = [[draw(st.integers(-5, 5)) if j > i else
             draw(st.sampled_from([1, -1])) if j == i else 0 for j in range(size)]
            for i in range(size)]
    return rows[::draw(st.sampled_from([1, -1]))]


@st.composite
def _twisted_call(draw):
    """A twisted command with a group descriptor and an automorphism: a group
    of permutations (degree up to 2000) or of matrices (up to 4x4), or a
    hostile descriptor; images that are the generators, a reordering of
    them, fresh elements of the same shape, or hostile values."""
    command = draw(st.sampled_from(["classes", "reidemeister", "isogredience"]))
    kind = draw(st.sampled_from(["perm", "matmod", "hostile"]))
    if kind == "perm":
        degree = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 64, 65, 500, 1999, 2000]))

        def element():
            # a seeded shuffle, so a degree near 2000 costs one draw
            perm = list(range(degree))
            random.Random(draw(st.integers(0, 2**32))).shuffle(perm)
            return perm
    elif kind == "matmod":
        size = draw(st.integers(1, 4))

        def element():
            return draw(_square(size))
    if kind == "hostile":
        generators = []
        group = draw(st.dictionaries(st.sampled_from(["encoding", "generators", "modulus"]),
                                     st.sampled_from(["perm", "matmod"]) | _RAGGED, max_size=3)
                     | _RAGGED)
    else:
        generators = [element() for _ in range(draw(st.integers(0, 2)))]
        group = {"encoding": kind, "generators": generators}
        if kind == "matmod":
            group["modulus"] = draw(_MODULUS)
    images = draw(st.sampled_from(["same", "reversed", "fresh", "hostile"]))
    if images == "same" or images == "reversed":
        images = generators[::1 if images == "same" else -1]
    elif images == "fresh" and kind != "hostile":
        images = [element() for _ in generators]
    else:
        images = draw(_RAGGED)
    return command, group, draw(st.just({"images": images}) | _RAGGED)


def _spliced(value) -> str:
    text = json.dumps(value)
    for placeholder, splice in _SPLICES.items():
        text = text.replace(placeholder, splice)
    return text


_MATRIX_TEXT = st.one_of(
    _unimodular().map(json.dumps),
    st.integers(1, 4).flatmap(lambda n: _square(n, st.integers(-6, 6) | st.sampled_from(
        ["1/2", "-3", "1e3", "x", "1/0"]))).map(json.dumps),
    _RAGGED.map(_spliced), st.text(max_size=8),
    st.integers(1, 6000).map(lambda depth: "[" * depth),
)
_FUZZ_CALL = st.one_of(_twisted_call(),
                       st.tuples(st.sampled_from(["zn", "heisenberg"]), _MATRIX_TEXT))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(call=_FUZZ_CALL)
def test_hostile_descriptors_and_matrices_end_in_one_typed_document(tmp_path_factory, call):
    # hypothesis runs the body many times, so the function-scoped capsys and
    # monkeypatch give way to their context-manager forms, and every example
    # rewrites the same two files
    folder = tmp_path_factory.getbasetemp()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()) as out:
        patch.setenv("TCK_CLOSURE_CAP", "200")
        if call[0] in ("zn", "heisenberg"):
            argv = ["spectrum", call[0], "--matrix", call[1]]
        else:
            group_file, aut_file = folder / "fuzz-group.json", folder / "fuzz-aut.json"
            group_file.write_text(_spliced(call[1]))
            aut_file.write_text(_spliced(call[2]))
            argv = ["twisted", call[0], "--group", str(group_file), "--aut", str(aut_file)]
        start = time.perf_counter()
        exit_code = main(argv)
        elapsed = time.perf_counter() - start
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, "exactly one JSON document per invocation"
    report = json.loads(lines[0])
    assert exit_code in (0, 1) and elapsed < 2.0
    if exit_code:
        assert report["payload"]["code"] in {code for _, code in ERROR_CODES}
    else:
        assert report["status"] == "ok"


# Argv fuzzing for the commands that take their input on the command line.
# Text never starts with "-", which argparse would read as an option such as
# -h, whose help page is no JSON document.
_TEXT = st.text(max_size=4).filter(lambda text: not text.startswith("-"))
_ODD_TYPES = st.sampled_from(["A0", "B1", "D3", "E9", "A25", "a2", "A", "2", ""]) | _TEXT
_ODD_NUMBERS = st.sampled_from(["-3/4", "1/0", "x", "", "9" * 5000, "1,,2"]) | _TEXT
_NUMBERS = st.integers(-3, 9).map(str) | st.sampled_from(["1/2", "2e3", "1e-2"])
# a scale list that starts with "-" would read as an option
_SCALES = _NUMBERS | st.lists(st.integers(1, 9).map(str) | st.just("1/2"),
                               min_size=2, max_size=3).map(",".join)


def _ints(high, *past):
    """1..high, or an int out of range or a value that is no int; past holds
    further ints out of range."""
    return st.integers(1, high).map(str), st.sampled_from(
        ["-1", "0", str(high + 1), "x", "1.5", "", "9" * 5000, *past])


@st.composite
def _argv(draw):
    """A root info, chevalley gen or witness run call whose values are well
    formed, but for at most one: out of range, malformed or text."""
    command = draw(st.sampled_from([("root", "info"), ("chevalley", "gen"), ("witness", "run")]))
    name = draw(st.sampled_from(["A1", "A2", "B3", "C3", "D4", "G2", "F4", "E6"]))
    rank = int(name[1:])
    # a simple root, or the sum of the simple roots or its negative: roots of
    # every connected diagram
    root = draw(st.sampled_from([[int(j == k) for j in range(rank)] for k in range(rank)]
                                + [[1] * rank, [-1] * rank]))
    if command == ("root", "info"):
        options = {"": (st.just(name) | st.just("E8"), _ODD_TYPES)}
    elif command == ("chevalley", "gen"):
        options = {"--type": (st.just(name), _ODD_TYPES),
                   "--kind": (st.sampled_from(["x", "n", "h"]), _TEXT),
                   "--root": (st.just(",".join(map(str, root))), _TEXT | st.lists(
                       st.integers(-2, 2), max_size=4).map(lambda c: ",".join(map(str, c)))),
                   "--t": (_NUMBERS, _ODD_NUMBERS)}
    else:
        # a degree or a count past the cap of 3000, and one that parses but
        # has 4000 digits
        options = {"--type": (st.just(name), _ODD_TYPES), "--count": _ints(8, "9" * 4000),
                   "--trdeg": _ints(4, "3001", "9" * 4000), "--scale": (_SCALES, _ODD_NUMBERS),
                   "--index": _ints(8)}
    odd = draw(st.none() | st.sampled_from(list(options)))
    argv = list(command)
    for option, (valid, wrong) in options.items():
        value = draw(wrong if odd is not None and option == odd else valid)
        argv += [option, value] if option else [value]
    return argv


def _assert_one_typed_document(argv):
    """main(argv) prints one document, ok or a domain or resource error,
    within 2 s under a closure cap of 3000, or argparse refuses the call with
    exit 2 and prints nothing on stdout."""
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        patch.setenv("TCK_CLOSURE_CAP", "3000")
        start = time.perf_counter()
        try:
            exit_code = main(argv)
        except SystemExit as stop:
            exit_code = stop.code
        elapsed = time.perf_counter() - start
    assert elapsed < 2.0, argv
    if exit_code == 2:
        assert out.getvalue() == "", argv
        return
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, argv
    report = json.loads(lines[0])
    if exit_code == 0:
        assert report["status"] == "ok", argv
    else:
        assert exit_code == 1 and report["status"] == "error", argv
        assert report["payload"]["code"] in ("domain-error", "resource-limit"), argv


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(argv=_argv())
def test_command_line_values_end_in_one_typed_document(argv):
    _assert_one_typed_document(argv)


_CHECK_NAMES = [check.name for check in all_checks()]
_UNITS = st.sampled_from(["1", "-1", "2", "-2", "1/2", "-1/2", "3", "1/3", "9", "1/9", "4/9"])


@st.composite
def _spectrum_and_verify_argv(draw):
    """A spectrum lamplighter, spectrum metabelian or verify suite call whose
    values are well formed, but for at most one."""
    command = draw(st.sampled_from([("spectrum", "lamplighter"), ("spectrum", "metabelian"),
                                    ("verify", "suite")]))
    if command == ("spectrum", "lamplighter"):
        options = {"--n": _ints(12, "9" * 4000)}
    elif command == ("spectrum", "metabelian"):
        # a prime past the exact primality bound, and a member of 4000 digits
        options = {"--r": (_UNITS, _ODD_NUMBERS), "--s": (_UNITS, _ODD_NUMBERS),
                   "--p": (st.sampled_from(["2", "3", "5", "7"]), st.sampled_from(
                       ["1", "4", "9", "-3", "x", "1.5", "", "9" * 5000,
                        "3317044064679887385961981"])),
                   "--member": (st.none() | st.integers(1, 200).map(str),
                                st.sampled_from(["0", "-2", "x", "", "9" * 4000]))}
    else:
        # the cheap criteria, or text that names none, which runs no check;
        # any other filter could run the whole suite
        options = {"--filter": (
            st.sampled_from(["integer-spectrum", "zn-fullness", "metabelian-table"]),
            _TEXT.filter(lambda text: not any(text in name for name in _CHECK_NAMES)))}
    odd = draw(st.none() | st.sampled_from(list(options)))
    argv = list(command)
    for option, (valid, wrong) in options.items():
        value = draw(wrong if option == odd else valid)
        if value is not None:
            argv += [option, value]
    return argv


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(argv=_spectrum_and_verify_argv())
def test_spectrum_and_verify_values_end_in_one_typed_document(argv):
    _assert_one_typed_document(argv)


# each call's exit code and the sha256 prefixes of its stdout and stderr
# (_NONE for an empty stream) at 80 columns, recorded from a parser that
# added every command's subcommands on every call: building only the named
# command's must print the same bytes
_NONE = "e3b0c44298fc1c14"
PARSER_BYTES = {
    "": (2, _NONE, "ef077b0ff6fd557a"),
    "--help": (0, "e90f02f57214012d", _NONE),
    "-h root": (0, "e90f02f57214012d", _NONE),
    "--timing": (2, _NONE, "ef077b0ff6fd557a"),
    "bogus": (2, _NONE, "1fef05dabea69e94"),
    "--bogus root info A2": (2, _NONE, "336e3c2fda279be0"),
    "root info A2 --bogus": (2, _NONE, "336e3c2fda279be0"),
    "root --help": (0, "03a6c6b070583aa8", _NONE),
    "root info --help": (0, "7d3416ad538db1ef", _NONE),
    "root": (2, _NONE, "322688515b318176"),
    "root info": (2, _NONE, "8f3c7db7e12d045c"),
    "chevalley --help": (0, "05a920e2912626e6", _NONE),
    "chevalley gen --help": (0, "e9d1c6868a1c7ec1", _NONE),
    "chevalley gen --type A2 --kind q --root 1,0 --t 2": (2, _NONE, "add9cb40fa8280fd"),
    "twisted --help": (0, "079d8429afecdbbd", _NONE),
    "twisted classes --help": (0, "4c020379c0274035", _NONE),
    "twisted reidemeister --help": (0, "f85f594ea49e2447", _NONE),
    "twisted isogredience --help": (0, "88c2e7519e17136d", _NONE),
    "twisted classes --group g.json": (2, _NONE, "fa5d5d42d5c9d1dc"),
    "spectrum --help": (0, "5dd777d296d9bcf6", _NONE),
    "spectrum zn --help": (0, "c3f1557463a21272", _NONE),
    "spectrum heisenberg --help": (0, "347b31b930457531", _NONE),
    "spectrum lamplighter --help": (0, "074019689c3c79bd", _NONE),
    "spectrum metabelian --help": (0, "5ab6749f347c675e", _NONE),
    "spectrum lamplighter --n x": (2, _NONE, "870535610e15e497"),
    "witness --help": (0, "1ab0ab05b206540c", _NONE),
    "witness run --help": (0, "766fa73439eae517", _NONE),
    "witness run --type A2 --count 4": (2, _NONE, "3f8a248302ac366d"),
    "verify --help": (0, "4293dd04a09990bc", _NONE),
    "verify suite --help": (0, "a87cf822d38d005e", _NONE),
    "verify bogus": (2, _NONE, "5f6b834399fb8e2a"),
}


@pytest.mark.parametrize("call", sorted(PARSER_BYTES))
def test_help_usage_and_errors_keep_their_bytes(call, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            exit_code = main(call.split())
        except SystemExit as stop:
            exit_code = stop.code
    digests = [hashlib.sha256(s.getvalue().encode()).hexdigest()[:16] for s in (out, err)]
    assert (exit_code, *digests) == PARSER_BYTES[call]


SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_loaded_by(statements, cwd=None):
    """The modules a fresh interpreter holds after running `statements`
    that it did not hold before."""
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statements}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_imports_only_the_standard_library():
    # tck.cli alone loads no other submodule; tck.acceptance loads them all
    loaded = {m.split(".")[0] for m in _modules_loaded_by("import tck.cli, tck.acceptance")}
    assert "tck" in loaded
    assert [m for m in loaded if m != "tck" and m not in sys.stdlib_module_names] == []


COMMAND_MODULES = {
    "root info A2": {"errors", "roots"},
    "chevalley gen --type A2 --kind x --root 1,0 --t 2": {"errors", "linalg", "roots", "chevalley"},
    "twisted classes --group s3.json --aut id.json": {"errors", "twisted"},
    "spectrum zn --matrix [[2,1],[1,1]]": {"errors", "linalg", "spectrum"},
    "spectrum metabelian --r 2 --s 1/2 --p 2 --member 6": {"errors", "fields", "linalg", "spectrum"},
    "witness run --type A2 --count 4 --trdeg 1 --scale 2 --index 3":
        {"errors", "fields", "linalg", "roots", "witness"},
    "verify suite --filter zn-fullness": {"errors", "linalg", "spectrum", "acceptance"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES), ids=lambda c: " ".join(c.split()[:2]))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    _write_s3(tmp_path)
    loaded = _modules_loaded_by(
        f"import tck.cli\nassert tck.cli.main({command.split()!r}) == 0", cwd=tmp_path)
    expected = {"tck", "tck.cli"} | {f"tck.{m}" for m in COMMAND_MODULES[command]}
    assert {m for m in loaded if m.split(".")[0] == "tck"} == expected
    # the records are tck's own, so no command loads dataclasses and, through
    # it, inspect
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_package_namespace_is_complete():
    assert len(tck.__all__) == len(set(tck.__all__)) == 65
    for name in tck.__all__:
        value = getattr(tck, name)
        home = value.__module__  # INFINITY's is its class's, tck.spectrum
        assert home == f"tck.{tck._HOME[name]}", name
        assert value is getattr(importlib.import_module(home), name), name
    namespace = {}
    exec("from tck import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tck.__all__)
    assert set(tck.__all__) <= set(dir(tck))
    assert not hasattr(tck, "no_such_name")


class _ClosedPipe:
    """A stdout whose reader has gone away, as after `tck ... | head -c 100`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_ends_quietly_with_a_nonzero_exit(monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["chevalley", "gen", "--type", "E8", "--kind", "x",
                 "--root", "1,0,0,0,0,0,0,0", "--t", "2"]) == 1
    # nothing is left for the flush at interpreter exit to retry
    assert sys.stdout is None
