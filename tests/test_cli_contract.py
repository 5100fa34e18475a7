"""The contract of every command line, drawn from the parser itself.

cli.main runs in-process on argv built from cli._parser(): any verb, and for
each of its arguments a choice, or a value from the pool of the argument's
type function (a path, for a plain string), or junk.  The argv may then lose
a token or gain a stray one.  assemble reads a small graph file edited at up
to three places, from its path or from stdin.  selftest's nine criteria take
a second, so run_all is replaced by a stub that reports one passed and one
failed criterion, which reaches the verification-failure exit.  Whatever the
outcome:

- the exit code is 0, 1 or 2;
- stderr holds no traceback and no Python-internal digit-limit text;
- stderr, and under --json the error document, is at most 1,000 bytes
  however long the input: a refusal names a long value by its length;
- under --json, stdout holds exactly one JSON document.

--help is left out: it prints its text under --json too.  The examples are
derandomized and their number fixed, so the module is deterministic and
takes a few seconds; they reach every verb and every option.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from volcount import cli
from volcount.acceptance import CriterionResult
from volcount.decorated_graphs import graph_to_text
from volcount.free_groups import DecoratedGraph, enumerate_subgroups

LONG = "1" * 5000  # past Python's 4,300-digit limit
JUNK = ["", "x", "-1", "0", "1.5", "1_0", " 2", "٣", "0x10", LONG, "-" + LONG]
# The values an argument takes, by its type function, or by its name for a
# path.  GRAPH, MISSING and EMIT stand for a graph file, a path to nothing and
# a directory.  The int pool holds the caps of forms --count and of primes'
# count, and the values past them.
POOLS = {
    cli._positive_int: ["1", "2", "3", "5", "8", "200", "201", "20000", "20001"],
    cli._dimension: ["3", "4", "5", "1000000"],
    cli._budget: ["5", "30", "99", "61/2", "4.5", "1e1", "1e99999", "1e-99999", "1/0", "nan",
                  "9" * 4000, "-" + "9" * 4000],
    "graph": ["GRAPH", "-", "MISSING"],
    "emit_descriptors": ["EMIT", "GRAPH"],
}
# Inserted into or written over a graph text.
GRAPH_PIECES = ["0", "1", "2", "9", " ", "\n", "\r", "\t", "-", "+", "_", "x", "é",
                "٣", "9" * 40, "9" * 4000, LONG]
GRAPHS = [
    DecoratedGraph(table.vertex_count, table.perm_a, table.perm_b, colored)
    for k in (1, 2, 3)
    for table in enumerate_subgroups(k)[:4]
    for colored in ({0}, set(), set(range(k)))
]

(_SUBPARSERS,) = (
    action for action in cli._parser()._actions
    if isinstance(action, argparse._SubParsersAction)
)
ARGUMENTS = {
    verb: [action for action in parser._actions if not isinstance(action, argparse._HelpAction)]
    for verb, parser in _SUBPARSERS.choices.items()
}
OPTIONS = {
    verb: {action.option_strings[0] for action in actions if action.option_strings}
    for verb, actions in ARGUMENTS.items()
}
STRAYS = ["--bogus", "extra", "-x", "--js", "--v=1", LONG, "--compact=" + LONG, "-h" + LONG,
          *sorted(set().union(*OPTIONS.values()))]


def _values(action) -> list[str]:
    if action.choices:
        return [*action.choices, "q", LONG]
    if action.type is None:
        return POOLS[action.dest]
    return POOLS[action.type] + JUNK


@st.composite
def graph_texts(draw):
    """A small graph's text, edited at up to three places."""
    text = graph_to_text(draw(st.sampled_from(GRAPHS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(["", *GRAPH_PIECES]))
        cut = draw(st.integers(0, 2))  # characters the piece replaces
        text = text[:at] + piece + text[at + cut :]
    return text


@st.composite
def command_lines(draw):
    """argv for one verb, and the graph text that GRAPH and stdin hold."""
    verb = draw(st.sampled_from(sorted(ARGUMENTS)))
    argv = [verb]
    for action in ARGUMENTS[verb]:
        if action.option_strings:
            if not action.required and draw(st.booleans()):
                continue
            argv.append(action.option_strings[0])
            if action.nargs == 0:
                continue
        elif action.nargs == "?" and draw(st.booleans()):
            continue
        argv.append(draw(st.sampled_from(_values(action))))
    edit = draw(st.sampled_from(["none", "none", "drop", "stray"]))
    at = draw(st.integers(0, len(argv)))
    if edit == "drop" and at < len(argv):
        del argv[at]
    elif edit == "stray":
        argv.insert(at, draw(st.sampled_from(STRAYS)))
    return argv, draw(graph_texts()) if verb == "assemble" else ""


def _run_all_stub(stream=None):
    return [
        CriterionResult(1, "stub", True, "passed", 0.0, 1.0),
        CriterionResult(2, "stub", False, "failed", 0.0, 1.0),
    ]


def _invoke(argv, text, directory: Path):
    """Exit code, stdout and stderr of cli.main; stdin and GRAPH hold text."""
    path = directory / "input.graph"
    path.write_bytes(text.encode("utf-8"))
    paths = {"GRAPH": path, "MISSING": directory / "missing.graph", "EMIT": directory / "emit"}
    argv = [str(paths.get(token, token)) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch("sys.stdin", io.StringIO(text)), mock.patch.object(
            cli, "run_all", _run_all_stub
        ):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(code, out, err, argv) -> bool:
    """Assert the contract of one outcome; whether it was under --json."""
    assert code in (0, 1, 2), (argv, code, err[:500])
    for stream in (out, err):
        assert "Traceback" not in stream and "Exceeds the limit" not in stream, argv
    assert len(err.encode()) <= 1000, (argv, err[:500])
    # --json or an abbreviation of it, as argparse reads it.
    as_json = any(token.startswith("--j") and "--json".startswith(token) for token in argv)
    if as_json:
        document = json.loads(out)  # exactly one document: json.loads refuses extra data
        assert document["status"] == ("ok" if code == 0 else "error"), argv
        assert code == 0 or len(out.encode()) <= 1000, (argv, out[:500])
    return as_json


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def test_every_outcome_keeps_the_contract(directory):
    outcomes, reached = set(), set()

    @given(command_lines())
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def check(command):
        argv, text = command
        code, out, err = _invoke(argv, text, directory)
        outcomes.add((code, _check(code, out, err, argv)))
        if argv and argv[0] in OPTIONS:
            reached.add(argv[0])
            reached.update((argv[0], token) for token in argv if token in OPTIONS[argv[0]])

    check()
    # The examples are not vacuous: they reach every verb and option, and
    # each exit code in both modes.
    every_option = {(verb, option) for verb, options in OPTIONS.items() for option in options}
    assert set(OPTIONS) | every_option <= reached
    assert {(code, as_json) for code in (0, 1, 2) for as_json in (False, True)} <= outcomes


def _graph(vertices: int, row_a: str, row_b: str) -> str:
    return f"{vertices}\n{row_a}\n{row_b}\n0\n"


@pytest.mark.parametrize(
    "argv, text, refusal",
    [
        (["subgroups", "x" * 100_000], "", "argument k: not an integer: <100,000 characters>"),
        (
            ["assemble", "GRAPH"],
            _graph(20_000, " ".join(["1"] * 20_000), " ".join(map(str, range(20_000)))),
            "perm_a=<60,000 characters> is not a permutation of 0..19999",
        ),
        (
            ["count", "--v", "1" * 4000],
            "",
            "descriptor count is capped at index 1557 (got <3,999 characters>)",
        ),
        (
            ["subgroups", "9" * 4000],
            "",
            "enumeration is capped at index 7 (got <4,000 characters>)",
        ),
        (
            ["assemble", "GRAPH"],
            _graph(2, "9" * 4000 + " 0", "0 1"),
            "perm_a=<4,005 characters> is not a permutation of 0..1",
        ),
    ],
    ids=["long-text", "long-row", "long-budget", "long-index", "long-entry"],
)
def test_a_long_value_is_named_by_its_length(directory, argv, text, refusal):
    # Each once echoed its value in full: 100,100, 60,054, 4,060, 4,053 and
    # 4,055 bytes of stderr.
    code, out, err = _invoke(argv, text, directory)
    assert (code, out) == (2, "") and err.endswith(f": {refusal}\n")
    _check(code, out, err, argv)
    code, out, err = _invoke(argv + ["--json"], text, directory)
    assert (code, err) == (2, "")
    assert json.loads(out) == {"status": "error", "payload": {"error": refusal}}
    _check(code, out, err, argv + ["--json"])
