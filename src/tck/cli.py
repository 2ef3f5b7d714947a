"""Command line front end: JSON in, JSON out, exact values throughout.

Every invocation prints one JSON document: {"status": "ok", "payload": ...}
on success, {"status": "error", "payload": {"code", "message"}} on failure,
exit code 0 or 1 (argparse itself exits 2 on usage problems; a reader that
closes stdout early gets exit code 1 and no traceback).  Numbers are written
from integers: non-integer rationals and integers beyond 64-bit range as
strings, so exact values survive any JSON consumer.  Output carries no
timing unless --timing is passed; identical invocations then produce
byte-identical documents.
"""

import argparse
import json
import sys
import time
from fractions import Fraction
from math import gcd

from . import __version__
from .errors import ConsistencyError, DomainError, ResourceLimitError, closure_cap

# Each handler imports the modules it runs, so a cold call loads only those.

_INT64_MAX = 2**63 - 1


def _encode(num: int, den: int = 1):
    """num / den for ints with den != 0, reduced by one gcd: an int within
    int64, otherwise the text "p" or "p/q"."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    if den == 1 and -_INT64_MAX <= num <= _INT64_MAX:
        return num
    try:
        return f"{num}" if den == 1 else f"{num}/{den}"
    except ValueError as exc:  # past the int/str conversion digit limit
        raise ResourceLimitError(f"a result has too many digits to print: {exc}") from exc


def _encode_count(count):
    return _encode(count.value) if count.is_finite else "infinity"


def _parse_rational(text: str) -> Fraction:
    # Fraction builds 10**exponent whatever its size, so a decimal form is
    # held to the int/str digit limit before it is built
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    mantissa, _, exponent = text.lower().partition("e")
    try:
        digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
        if "/" in mantissa or digits <= limit:
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc
    raise DomainError(f"{text!r} has more than {limit} digits")


def _parse_matrix(text: str):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or too many digits
        raise DomainError(f"matrix is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise DomainError("matrix must be a nonempty array of arrays")
    out = []
    for row in data:
        parsed = []
        for entry in row:
            if type(entry) not in (int, str):
                raise DomainError(f"matrix entries must be integers or 'p/q' strings, got {entry!r}")
            parsed.append(entry if type(entry) is int else _parse_rational(entry))
        out.append(parsed)
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # malformed, too deep, or too many digits
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path} must hold a JSON object")
    return data


def _run_root_info(args):
    from .roots import build_root_system, diagram_symmetries

    rs = build_root_system(args.type)
    payload = {
        "type": str(rs.type),
        "rank": rs.rank,
        "root_count": len(rs.roots),
        "positive_count": len(rs.positive_roots),
        "roots": [list(r) for r in rs.roots],
        "cartan": [list(row) for row in rs.cartan],
        "symmetry_orders": sorted(s.order for s in diagram_symmetries(rs)),
    }
    return payload, 0


def _run_chevalley_gen(args):
    from .chevalley import h_alpha, n_alpha, x_alpha
    from .roots import build_root_system

    rs = build_root_system(args.type)
    try:
        root = tuple(int(c) for c in args.root.split(","))
    except ValueError as exc:
        raise DomainError(f"--root must be comma-separated integers, got {args.root!r}") from exc
    t = _parse_rational(args.t)
    builder = {"x": x_alpha, "n": n_alpha, "h": h_alpha}[args.kind]
    matrix = builder(rs, root, t)
    columns, den = range(len(matrix.rows)), matrix.den
    payload = {
        "type": str(rs.type),
        "kind": args.kind,
        "root": list(root),
        "t": _encode(t.numerator, t.denominator),
        "matrix": [[_encode(row[j], den) if j in row else 0 for j in columns]
                   for row in matrix.rows],
    }
    return payload, 0


def _load_group_and_automorphism(args):
    from .twisted import automorphism_from_descriptor, group_from_descriptor

    group = group_from_descriptor(_load_json(args.group))
    phi = automorphism_from_descriptor(group, _load_json(args.aut))
    return group, phi


def _run_twisted_classes(args):
    from .twisted import twisted_classes

    group, phi = _load_group_and_automorphism(args)
    blocks = twisted_classes(group, phi)
    payload = {
        "group_order": len(group),
        "count": len(blocks),
        "class_sizes": sorted(map(len, blocks)),
    }
    return payload, 0


def _run_twisted_reidemeister(args):
    from .twisted import reidemeister_number

    group, phi = _load_group_and_automorphism(args)
    payload = {"group_order": len(group), "reidemeister": reidemeister_number(group, phi)}
    return payload, 0


def _run_twisted_isogredience(args):
    from .twisted import isogredience_count

    group, phi = _load_group_and_automorphism(args)
    result = isogredience_count(group, phi)
    payload = {"group_order": len(group), "isogredience": result.count}
    return payload, 0


def _run_spectrum_zn(args):
    from .spectrum import reidemeister_zn

    matrix = _parse_matrix(args.matrix)
    payload = {"reidemeister": _encode_count(reidemeister_zn(matrix))}
    return payload, 0


def _run_spectrum_heisenberg(args):
    from .spectrum import heisenberg_reidemeister

    matrix = _parse_matrix(args.matrix)
    payload = {"reidemeister": _encode_count(heisenberg_reidemeister(matrix))}
    return payload, 0


def _run_spectrum_lamplighter(args):
    from .spectrum import lamplighter_r_infinity

    payload = {"r_infinity": lamplighter_r_infinity(args.n)}
    return payload, 0


def _run_spectrum_metabelian(args):
    from .spectrum import metabelian_spectrum

    descriptor = metabelian_spectrum(
        _parse_rational(args.r), _parse_rational(args.s), args.p
    )
    payload = {
        "case": descriptor.case,
        "prime": descriptor.prime,
        "set": descriptor.set_form,
    }
    if args.member is not None:
        payload["member"] = {
            "value": _encode(args.member),
            "contained": descriptor.contains(args.member),
        }
    return payload, 0


def _run_witness(args):
    from .fields import ScalingAutomorphism
    from .roots import build_root_system
    from .witness import generate_witnesses, obstruction_check

    rs = build_root_system(args.type)
    # the field part holds one scalar per degree, each worked through the
    # certificate, so the degree is charged against the closure cap first
    cap = closure_cap()
    if args.trdeg > cap:
        raise ResourceLimitError(f"transcendence degree exceeds closure cap {cap} at one "
                                 "scalar per degree")
    scalars = [_parse_rational(part) for part in args.scale.split(",")]
    if len(scalars) == 1 and args.trdeg > 1:
        scalars = scalars * args.trdeg
    if len(scalars) != args.trdeg:
        raise DomainError(
            f"--scale provides {len(scalars)} values for transcendence degree {args.trdeg}"
        )
    scaling = ScalingAutomorphism(tuple(scalars))
    witnesses = generate_witnesses(rs, args.count)
    certificate = obstruction_check(rs, witnesses, None, scaling, args.index)
    payload = {
        "type": str(rs.type),
        "count": witnesses.count,
        "index": certificate.index,
        "bound": certificate.bound,
        "verdict": certificate.verdict,
        "family_size": certificate.family_size,
        "generators": [_encode(g.numerator, g.denominator) for g in certificate.generators],
        "certified": [
            {"position": [m, n], "block": block, "eigencharacter": _encode(num, den)}
            for m, n, block, num, den in certificate.entries.integer_entries()
        ],
        "uncertified": [list(position) for position in certificate.uncertified],
    }
    return payload, 0


def _run_verify(args):
    from .acceptance import run_suite

    outcomes = run_suite(args.filter)
    checks = []
    for outcome in outcomes:
        entry = {
            "number": outcome.number,
            "name": outcome.name,
            "passed": outcome.passed,
            "within_budget": outcome.within_budget,
            "budget_seconds": outcome.budget_seconds,
            "details": outcome.details,
        }
        if args.timing:
            entry["seconds"] = round(outcome.seconds, 3)
        checks.append(entry)
    failing = [c["number"] for c in checks if not (c["passed"] and c["within_budget"])]
    payload = {
        "checks": checks,
        "passed": len(checks) - len(failing),
        "failed": len(failing),
    }
    if failing:
        payload["failing"] = failing
    if args.filter is not None and not checks:
        payload["warning"] = f"no checks match filter {args.filter!r}"
    return payload, 1 if failing else 0


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is named, with its help, so usage,
    help and errors read the same; only the command that argv names gets its
    subcommands and their options, and every command does when it names none."""
    parser = argparse.ArgumentParser(
        prog="tck",
        description="Exact twisted-conjugacy toolkit: root systems, Chevalley "
                    "generators, finite twisted classes, Reidemeister spectra, "
                    "and obstruction certificates.",
    )
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    commands = parser.add_subparsers(dest="command", required=True)
    names = ("root", "chevalley", "twisted", "spectrum", "witness", "verify")
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)

    def add(name, text):
        """The command's subcommand group, or None when argv names another."""
        command = commands.add_parser(name, help=text)
        if chosen == name or chosen not in names:
            return command.add_subparsers(dest="subcommand", required=True)
        return None

    if root_sub := add("root", "root system data"):
        info = root_sub.add_parser("info", help="roots, Cartan matrix, symmetries")
        info.add_argument("type", help="root system type, e.g. A2")
        info.set_defaults(handler=_run_root_info)

    if chevalley_sub := add("chevalley", "adjoint generator matrices"):
        gen = chevalley_sub.add_parser("gen", help="x/n/h generator for a root and parameter")
        gen.add_argument("--type", required=True)
        gen.add_argument("--kind", required=True, choices=("x", "n", "h"))
        gen.add_argument("--root", required=True, help="simple-root coefficients, e.g. 1,0")
        gen.add_argument("--t", required=True, help="parameter as integer or p/q")
        gen.set_defaults(handler=_run_chevalley_gen)

    if twisted_sub := add("twisted", "finite twisted conjugacy"):
        for name, handler in (
            ("classes", _run_twisted_classes),
            ("reidemeister", _run_twisted_reidemeister),
            ("isogredience", _run_twisted_isogredience),
        ):
            sub = twisted_sub.add_parser(name)
            sub.add_argument("--group", required=True, help="path to a group descriptor JSON")
            sub.add_argument("--aut", required=True, help="path to an automorphism JSON")
            sub.set_defaults(handler=handler)

    if spectrum_sub := add("spectrum", "Reidemeister spectra"):
        zn = spectrum_sub.add_parser("zn", help="free abelian lattice automorphism")
        zn.add_argument("--matrix", required=True, help="integer matrix as JSON")
        zn.set_defaults(handler=_run_spectrum_zn)
        heis = spectrum_sub.add_parser("heisenberg", help="integral Heisenberg automorphism")
        heis.add_argument("--matrix", required=True, help="unimodular 2x2 integer matrix as JSON")
        heis.set_defaults(handler=_run_spectrum_heisenberg)
        lamp = spectrum_sub.add_parser("lamplighter")
        lamp.add_argument("--n", required=True, type=int)
        lamp.set_defaults(handler=_run_spectrum_lamplighter)
        meta = spectrum_sub.add_parser("metabelian")
        meta.add_argument("--r", required=True, help="first diagonal unit, e.g. 2 or 1/2")
        meta.add_argument("--s", required=True, help="second diagonal unit")
        meta.add_argument("--p", required=True, type=int, help="inverted prime")
        meta.add_argument("--member", type=int, help="test membership of this value")
        meta.set_defaults(handler=_run_spectrum_metabelian)

    if witness_sub := add("witness", "obstruction certificates"):
        run = witness_sub.add_parser("run")
        run.add_argument("--type", required=True)
        run.add_argument("--count", required=True, type=int)
        run.add_argument("--trdeg", required=True, type=int)
        run.add_argument("--scale", required=True,
                         help="field scalars, one rational or a comma list")
        run.add_argument("--index", required=True, type=int)
        run.set_defaults(handler=_run_witness)

    if verify_sub := add("verify", "acceptance checks"):
        suite = verify_sub.add_parser("suite")
        suite.add_argument("--filter", help="run only checks whose name contains this")
        suite.set_defaults(handler=_run_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    start = time.perf_counter()
    try:
        payload, exit_code = args.handler(args)
        report = {"status": "ok", "payload": payload, "version": __version__}
    except (DomainError, ResourceLimitError, ConsistencyError) as failure:
        report = {"status": "error", "version": __version__,
                  "payload": {"code": failure.code, "message": str(failure)}}
        exit_code = 1
    if args.timing:
        report["timing_ms"] = int((time.perf_counter() - start) * 1000)
    try:
        print(json.dumps(report, sort_keys=True), flush=True)
    except BrokenPipeError:
        # the reader closed stdout; with no stdout left, the flush at exit
        # does not try the closed pipe again
        sys.stdout = None
        return 1
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
