"""The contract of every cheap command line, drawn from the parser's grammar.

cli.main runs in-process on argv for the cheap verbs: primes, forms,
subgroups up to index 5, graphs up to index 3, assemble of mutated small
graph files, and count with small budgets, each with and without --json.
Each argument is a valid small value, an edge value or malformed text, and
the argv itself may lose a token or gain a stray one.  Whatever the
outcome:

- the exit code is 0, 1 or 2;
- stderr holds no traceback and no Python-internal digit-limit text, and
  it is at most 1,000 bytes longer than the input: a refusal may echo the
  value it refuses (a budget, a permutation row), but nothing more;
- under --json, stdout holds exactly one JSON document.

--help is left out of the grammar: it prints its text under --json too.
The examples are derandomized and their number fixed, so the module is
deterministic and takes a few seconds.
"""

import contextlib
import io
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from volcount.cli import main
from volcount.decorated_graphs import graph_to_text
from volcount.form_families import FAMILY_NAMES
from volcount.free_groups import DecoratedGraph, enumerate_subgroups

LONG = "1" * 5000  # past Python's 4,300-digit limit
JUNK = ["", "x", "-1", "0", "1.5", "1_0", " 2", "٣", "0x10", LONG, "-" + LONG]
SMALL = ["1", "2", "3"]
FAMILIES = st.sampled_from([*FAMILY_NAMES, "q", LONG])
DIMENSIONS = st.one_of(st.sampled_from(["3", "4", "5", "1000000"]), st.sampled_from(JUNK))
BUDGETS = st.one_of(
    st.sampled_from(["5", "30", "99", "61/2", "4.5", "1e1"]),
    st.sampled_from(["1e99999", "1e-99999", "1/0", "nan", "9" * 4000, "-" + "9" * 4000, *JUNK]),
)
STRAYS = ["--bogus", "--n", "--json", "--js", "--compact", "extra", "-x", "--v=1"]
# Inserted into or written over a graph text.
GRAPH_PIECES = ["0", "1", "2", "9", " ", "\n", "\r", "\t", "-", "+", "_", "x", "é",
                "٣", "9" * 40, "9" * 4000, LONG]
GRAPHS = [
    DecoratedGraph(table.vertex_count, table.perm_a, table.perm_b, colored)
    for k in (1, 2, 3)
    for table in enumerate_subgroups(k)[:4]
    for colored in ({0}, set(), set(range(k)))
]


def _numeral(valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(JUNK))


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
    """argv for one cheap verb, and the graph text that assemble reads."""
    verb = draw(st.sampled_from(["primes", "forms", "subgroups", "graphs", "assemble", "count"]))
    text = ""
    if verb == "primes":
        argv = ["primes", draw(FAMILIES), draw(_numeral(SMALL))]
        argv += draw(st.sampled_from([[], ["--verify"]]))
    elif verb == "forms":
        argv = ["forms", draw(FAMILIES), "--n", draw(DIMENSIONS)]
        argv += ["--count", draw(_numeral(SMALL))]
    elif verb == "subgroups":
        argv = ["subgroups", draw(_numeral(["1", "3", "5", "8", "9" * 4000]))]
    elif verb == "graphs":
        argv = ["graphs", draw(_numeral(["1", "2", "3", "5", "8"]))]
        argv += [draw(st.sampled_from(["enumerate", "covers", "distinguish", "walk"]))]
    elif verb == "assemble":
        text = draw(graph_texts())
        argv = ["assemble", "GRAPH", "--n", draw(DIMENSIONS)]
        argv += draw(st.sampled_from([[], ["--compact"]]))
    else:
        argv = ["count", "--v", draw(BUDGETS), "--n", draw(DIMENSIONS)]
        argv += draw(st.sampled_from([[], ["--compact"]]))
    edit = draw(st.sampled_from(["none", "none", "drop", "stray"]))
    at = draw(st.integers(0, len(argv)))
    if edit == "drop" and at < len(argv):
        del argv[at]
    elif edit == "stray":
        argv.insert(at, draw(st.sampled_from(STRAYS)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv, text


def _invoke(argv, text, directory: Path):
    """Exit code, stdout and stderr of cli.main; GRAPH names a file holding text."""
    path = directory / "input.graph"
    path.write_bytes(text.encode("utf-8"))
    argv = [str(path) if token == "GRAPH" else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def test_every_outcome_keeps_the_contract(directory):
    outcomes = set()

    @given(command_lines())
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    def check(command):
        argv, text = command
        code, out, err = _invoke(argv, text, directory)
        assert code in (0, 1, 2), (argv, code, err[:500])
        for stream in (out, err):
            assert "Traceback" not in stream and "Exceeds the limit" not in stream, argv
        assert len(err.encode()) <= 1000 + sum(map(len, argv)) + len(text), argv
        as_json = any(token.startswith("--j") and "--json".startswith(token) for token in argv)
        if as_json:
            document = json.loads(out)  # exactly one document: json.loads refuses extra data
            assert document["status"] == ("ok" if code == 0 else "error"), argv
        outcomes.add((code, as_json))

    check()
    # The grammar is not vacuous: it reaches success and refusal in both modes.
    assert {(0, False), (0, True), (2, False), (2, True)} <= outcomes
