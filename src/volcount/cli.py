"""Command-line surface: tables, certificates, and the self-verification suite.

Verbs
-----
primes     family prime lists with their verified conditions
forms      pairwise non-commensurability certificate matrix for a family
subgroups  enumeration against the recursion, with the growth floor
graphs     canonical tables, common-cover matrix, distinguishing words
assemble   read a decorated graph, print its closed descriptor document
count      volume-budget report, optionally emitting every descriptor
selftest   run all release criteria

forms, assemble and count take the form dimension --n >= 3, with no cap;
primes takes at most MAX_PRIME_COUNT primes and forms at most MAX_FORM_COUNT
members.

Default output is a human table; every verb takes --json, which switches to the
structured document {"status": ..., "payload": ...}.  Identical inputs produce
byte-identical output.  Exit codes: 0 success, 1 verification failure (a failed
release check or internal self-check) or internal error, 2 usage error (bad
arguments or input, a value past a cap, or an --emit-descriptors directory that
cannot be written), 141 (128 + SIGPIPE) when the reader closes stdout early, as
in `volcount ... | head`; that case prints no traceback.  _refuse reports every
exit 1 or 2, argparse's too: the error document under --json, else a line on
stderr, naming an outside value of more than 100 characters by its length.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from math import factorial

from .acceptance import run_all
from .assembler import (
    assemble,
    budget_index,
    count_lower_bound,
    default_parcel,
    descriptor_to_json,
    emit_descriptors,
    growth_floor,
)
from .decorated_graphs import graph_from_text, has_common_decorated_cover
from .exact_arith import _digit_limit, _digit_limit_refusal, _named, _past_digit_limit, _printable
from .form_families import (
    FAMILY_NAMES,
    certificate_matrix,
    family_members,
    reference_primes,
    search_primes,
)
from .free_groups import MAX_INDEX, distinguishing_word, enumerate_subgroups, hall_count

# Pairwise subcommands (covers, distinguish) scan a_k^2 pairs.  a_5^2 is
# about 2.1 * 10^5 pairs at 3.2-3.5 us per pair for a cover decision and
# 4.7-4.8 us for a distinguishing word (all index-5 pairs, three passes,
# Python 3.11.7, 2-vCPU VM), 0.7-1 s a run; a_6^2 is 1.2 * 10^7 pairs, about
# a minute, so the pairwise cap sits below the enumeration cap.
MAX_PAIRWISE_INDEX = 4
MAX_EMIT_INDEX = 5
# Neither count is an index.  20,000 family primes take 0.7 s (isotropic)
# and 2.1 s (anisotropic), and a certificate matrix of 200 members 0.55 s,
# four times as long per doubling (Python 3.11.7, 2-vCPU VM).
MAX_PRIME_COUNT = 20_000
MAX_FORM_COUNT = 200

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1
BROKEN_PIPE = 141


class UsageError(Exception):
    pass


class _ArgumentError(Exception):
    """An argparse error, with the parser that raised it: (message, parser)."""


class _Parser(argparse.ArgumentParser):
    # Its subparsers are _Parser too; _run reports their errors.
    def error(self, message):
        raise _ArgumentError(message, self)


def _unreadable(text: str, kind: str) -> argparse.ArgumentTypeError:
    # A numeral past the digit limit is refused by the text's length, not echoed.
    if _past_digit_limit(text):
        return argparse.ArgumentTypeError(_digit_limit_refusal(text))
    return argparse.ArgumentTypeError(f"not {kind}: {_named(text)}")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as error:
            raise _unreadable(text, "an integer") from error
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}")
        return value

    return parse


_positive_int = _int_at_least(1)
# The form families q_a and r_a are defined for n >= 3.
_dimension = _int_at_least(3)


# Fraction(text) builds 10^|e| for an exponent e in full: seconds once |e| is
# in the millions.  Python caps a mantissa at 4,300 digits, so past this cap a
# budget is far off the default parcels' scale [5, 7790), with more digits
# than str() prints; it reads as 0 or +-10^(+-4301), of its sign and on its
# side of the scale, which budget_index refuses as it would the budget.
_MAX_BUDGET_EXPONENT = 10**4
_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _budget(text: str) -> Fraction:
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(e := int(exponent[1])) > _MAX_BUDGET_EXPONENT:
            # The text is a rational number exactly when it is one with e0.
            mantissa = Fraction(text[: exponent.start()] + "e0")
            return ((mantissa > 0) - (mantissa < 0)) * Fraction(10) ** (4301 if e > 0 else -4301)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise _unreadable(text, "a rational number") from error


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="volcount",
        description="Certified counting of glued-block manifold descriptors.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    primes = verbs.add_parser("primes", help="list family primes with conditions")
    primes.add_argument("family", choices=FAMILY_NAMES)
    primes.add_argument("count", type=_positive_int)
    primes.add_argument("--verify", action="store_true", help="assert the frozen reference lists")

    forms = verbs.add_parser("forms", help="certificate matrix for a form family")
    forms.add_argument("family", choices=FAMILY_NAMES)
    forms.add_argument("--n", type=_dimension, default=4, help="dimension (rank n+1)")
    forms.add_argument("--count", type=_positive_int, default=6)

    subgroups = verbs.add_parser("subgroups", help="index counts by two routes")
    subgroups.add_argument("k", type=_positive_int)

    graphs = verbs.add_parser("graphs", help="decorated graph machinery at index k")
    graphs.add_argument("k", type=_positive_int)
    graphs.add_argument("subcommand", choices=("enumerate", "covers", "distinguish"))

    assemble_cmd = verbs.add_parser("assemble", help="descriptor for a graph file")
    assemble_cmd.add_argument("graph", nargs="?", default="-", help="graph text file, - for stdin")
    assemble_cmd.add_argument("--n", type=_dimension, default=4)
    assemble_cmd.add_argument("--compact", action="store_true")

    count = verbs.add_parser("count", help="volume-budget descriptor count")
    count.add_argument("--v", type=_budget, required=True, help="volume budget (rational)")
    count.add_argument("--n", type=_dimension, default=4)
    count.add_argument("--compact", action="store_true")
    count.add_argument("--emit-descriptors", metavar="DIR", default=None)

    verbs.add_parser("selftest", help="run every release criterion")

    # Last, so that every usage line and help text ends with it.
    for verb in verbs.choices.values():
        verb.add_argument("--json", action="store_true")
    return parser


def _cmd_primes(args):
    _require_at_most(args.count, MAX_PRIME_COUNT, "prime search", "count")
    reports = search_primes(args.family, args.count)
    if args.verify:
        expected = reference_primes(args.family)[: args.count]
        primes = tuple(r.prime for r in reports[: len(expected)])
        if primes != expected:
            raise RuntimeError(f"prime list {primes} differs from reference {expected}")
    lines = []
    for report in reports:
        conditions = " ".join(f"{k}={v}" for k, v in sorted(report.conditions.items()))
        lines.append(f"{report.prime:6d}  {conditions}")
    # json.dumps sorts the keys, so a dataclass's fields are the document's.
    return {"family": args.family, "reports": [asdict(r) for r in reports]}, lines


def _cmd_forms(args):
    _require_at_most(args.count, MAX_FORM_COUNT, "certificate matrix", "count")
    primes, forms = family_members(args.family, args.count, args.n)
    matrix = certificate_matrix(forms)
    inconclusive = []
    lines = [f"family={args.family} n={args.n} parameters={' '.join(map(str, primes))}"]
    for i, row in enumerate(matrix):
        cells = []
        for j, certificate in enumerate(row):
            if i == j:
                cells.append("-")
            elif certificate is None:
                cells.append("??")
                inconclusive.append((i, j))
            elif certificate.method == "epsilon_at_prime":
                cells.append(f"eps@{certificate.witness_prime}")
            else:
                cells.append("disc")
        lines.append(" ".join(f"{cell:>8}" for cell in cells))
    payload = {
        "family": args.family,
        "n": args.n,
        "parameters": primes,
        "certificates": [
            [None if certificate is None else asdict(certificate) for certificate in row]
            for row in matrix
        ],
    }
    if inconclusive:
        raise RuntimeError(f"inconclusive pairs: {inconclusive}")
    return payload, lines


def _require_at_most(value: int, cap: int, what: str, unit: str = "index") -> None:
    if value > cap:
        raise UsageError(f"{what} is capped at {unit} {cap} (got {_named(value)})")


def _cmd_subgroups(args):
    _require_at_most(args.k, MAX_INDEX, "enumeration")
    rows = []
    lines = []
    for k in range(1, args.k + 1):
        enumerated = len(enumerate_subgroups(k))
        recursion = hall_count(k)
        floor = growth_floor(k)
        if enumerated != recursion:
            raise RuntimeError(
                f"k={k}: enumeration gives {enumerated}, recursion gives {recursion}"
            )
        rows.append({"k": k, "subgroups": enumerated, "floor": floor})
        lines.append(f"k={k}  subgroups={enumerated}  floor={floor}")
    return {"rows": rows}, lines


def _cmd_graphs(args):
    _require_at_most(args.k, MAX_INDEX, "enumeration")
    if args.subcommand != "enumerate":
        _require_at_most(args.k, MAX_PAIRWISE_INDEX, "pairwise subcommands")
    tables = enumerate_subgroups(args.k)
    if args.subcommand == "enumerate":
        lines = [f"k={args.k} tables={len(tables)}"]
        for i, table in enumerate(tables):
            lines.append(
                f"{i:5d}  a: {' '.join(map(str, table.perm_a))}"
                f"  b: {' '.join(map(str, table.perm_b))}"
            )
        payload = {
            "k": args.k,
            "tables": [
                {"perm_a": list(t.perm_a), "perm_b": list(t.perm_b)} for t in tables
            ],
        }
        return payload, lines

    if args.subcommand == "covers":
        matrix = []
        shared = 0
        for i, g1 in enumerate(tables):
            row = []
            for j, g2 in enumerate(tables):
                has = has_common_decorated_cover(g1, g2).has_cover
                row.append(has)
                if i != j and has:
                    shared += 1
            matrix.append(row)
        lines = [f"k={args.k} graphs={len(tables)} off_diagonal_with_cover={shared}"]
        for row in matrix:
            lines.append(" ".join("T" if value else "." for value in row))
        payload = {"k": args.k, "matrix": matrix, "off_diagonal_with_cover": shared}
        if shared:
            raise RuntimeError(f"{shared} distinct pairs share a cover")
        if not all(matrix[i][i] for i in range(len(tables))):
            raise RuntimeError("some graph has no cover in common with itself")
        return payload, lines

    # distinguish
    words = []
    lines = [f"k={args.k} tables={len(tables)}"]
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            word = distinguishing_word(tables[i], tables[j])
            if word is None:
                raise RuntimeError(f"tables {i} and {j} admit no distinguishing word")
            words.append({"i": i, "j": j, "word": str(word)})
            lines.append(f"{i:5d} {j:5d}  {word}")
    payload = {"k": args.k, "words": words}
    return payload, lines


def _cmd_assemble(args):
    # A byte outside ASCII raises UnicodeDecodeError, a ValueError, not an
    # OSError.  newline="" keeps a "\r" for graph_from_text to refuse.
    try:
        if args.graph == "-":
            text = sys.stdin.read()
        else:
            with open(args.graph, "r", encoding="ascii", newline="") as handle:
                text = handle.read()
        graph = graph_from_text(text)
    except (OSError, UnicodeDecodeError) as error:
        raise UsageError(f"cannot read graph file: {error}") from error
    except ValueError as error:
        raise UsageError(str(error)) from error
    # The writer's document, its final newline aside, is the --json payload too.
    text = descriptor_to_json(assemble(graph, default_parcel(args.n, args.compact))).rstrip("\n")
    return text, [text]


def _cmd_count(args):
    parcel = default_parcel(args.n, args.compact)
    try:
        k = budget_index(args.v, parcel)
    except ValueError as error:
        raise UsageError(str(error)) from error
    if args.emit_descriptors is not None:
        _require_at_most(k, MAX_EMIT_INDEX, "descriptor emission")
    # Only under a lowered digit limit: a_k >= k!, so a k! that str() cannot
    # print refuses before the count, and a_k itself after it.
    unprintable = UsageError(
        f"descriptor count at index {k} is past this Python's int-to-str"
        f" limit of {_digit_limit():,} digits"
    )
    if not _printable(factorial(k)):
        raise unprintable
    report = count_lower_bound(args.v, parcel)
    if not _printable(report.descriptor_count):  # the floor bound is no larger
        raise unprintable
    lines = [
        f"volume_budget = {report.volume_budget}",
        f"max_block_volume = {report.max_block_volume}",
        f"k = {report.k}",
        f"descriptors = {report.descriptor_count}",
        f"floor_bound = {report.floor_bound}",
    ]
    payload = {
        "volume_budget": str(report.volume_budget),
        "max_block_volume": str(report.max_block_volume),
        "k": report.k,
        "descriptor_count": report.descriptor_count,
        "floor_bound": report.floor_bound,
    }
    if args.emit_descriptors is not None:
        try:
            written = emit_descriptors(report.k, parcel, args.emit_descriptors)
        except OSError as error:
            raise UsageError(f"cannot write descriptors: {error}") from error
        if written != report.descriptor_count:
            raise RuntimeError(
                f"emitted {written} descriptors, expected {report.descriptor_count}"
            )
        lines.append(f"emitted = {written} -> {args.emit_descriptors}")
        payload["emitted"] = written
        payload["directory"] = args.emit_descriptors
    return payload, lines


def _cmd_selftest(args):
    results = run_all(stream=None if args.json else sys.stdout)
    payload = {
        "results": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ]
    }
    if not all(r.passed for r in results):
        failed = [r.number for r in results if not r.passed]
        raise RuntimeError(f"criteria failed: {failed}")
    return payload, [f"{len(results)} criteria passed"]


_HANDLERS = {
    "primes": _cmd_primes,
    "forms": _cmd_forms,
    "subgroups": _cmd_subgroups,
    "graphs": _cmd_graphs,
    "assemble": _cmd_assemble,
    "count": _cmd_count,
    "selftest": _cmd_selftest,
}


def _emit(status: str, payload, lines, as_json: bool) -> None:
    """Print the lines, or under --json json.dumps({"status": status, "payload":
    payload}, sort_keys=True, indent=2).  A str payload is JSON text as that
    json.dumps gives it, nested by indenting its lines after the first."""
    if as_json:
        if not isinstance(payload, str):
            payload = json.dumps(payload, sort_keys=True, indent=2)
        nested = payload.replace("\n", "\n  ")
        print(f'{{\n  "payload": {nested},\n  "status": {json.dumps(status)}\n}}')
    else:
        for line in lines:
            print(line)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush of the
        # unwritten rest cannot raise again at exit.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return BROKEN_PIPE


def _refuse(as_json: bool, code: int, prefix: str, message: str) -> int:
    """Print a failure, as the error document under --json or else on stderr; return code."""
    if as_json:
        _emit("error", {"error": message}, [], True)
    else:
        print(prefix + message, file=sys.stderr)
    return code


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _ArgumentError as error:
        message, parser = error.args
        # argparse echoes in full a refused token, or its value after "=" or -h;
        # the longest go first, lest a shorter one split an echo that holds it.
        echoes = {e for t in argv for e in (t, t.partition("=")[2], t.lstrip("-h"))}
        for echo in sorted(echoes, key=len, reverse=True):
            message = message.replace(echo, _named(echo, str))
        # --json or an abbreviation of it, as argparse would have read it.
        as_json = any(token.startswith("--j") and "--json".startswith(token) for token in argv)
        prefix = f"{parser.format_usage()}{parser.prog}: error: "
        return _refuse(as_json, USAGE_ERROR, prefix, message)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else USAGE_ERROR
    try:
        payload, lines = _HANDLERS[args.verb](args)
    except UsageError as error:
        return _refuse(args.json, USAGE_ERROR, "usage error: ", str(error))
    except (RuntimeError, ValueError) as error:
        # A RuntimeError is a failed release check or self-check.  Bad arguments
        # and input become UsageError, so a ValueError here is an internal error.
        kind = "internal error" if isinstance(error, ValueError) else "verification failure"
        return _refuse(args.json, VERIFICATION_FAILURE, f"{kind}: ", str(error))
    _emit("ok", payload, lines, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
