import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cli_manifest import GRAPH_FILES
from volcount import assembler, cli, form_families, free_groups
from volcount.cli import BROKEN_PIPE, VERIFICATION_FAILURE, main
from volcount.decorated_graphs import DecoratedGraph

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


# The refusals of a budget whose k or v has more digits than str() prints.
PAST_CAP = "descriptor count is capped at index 1557 (got <past Python's 4,300-digit limit>)"
BELOW_SCALE = "volume budget <past Python's 4,300-digit limit> is below the one-block scale 5"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrimes:
    def test_isotropic_golden(self, capsys):
        code, out, err = run(["primes", "isotropic", "2"], capsys)
        assert code == 0 and err == ""
        assert out == (
            "     5  legendre_minus_one=1 legendre_two=-1\n"
            "    13  legendre_minus_one=1 legendre_two=-1\n"
        )

    def test_verify_passes(self, capsys):
        code, _, _ = run(["primes", "anisotropic", "6", "--verify"], capsys)
        assert code == 0

    def test_json_document(self, capsys):
        code, out, _ = run(["primes", "anisotropic", "1", "--json"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["status"] == "ok"
        assert document["payload"]["reports"][0]["prime"] == 17

    def test_zero_count_is_usage_error(self, capsys):
        code, _, err = run(["primes", "isotropic", "0"], capsys)
        assert code == 2
        assert "at least 1" in err


class TestForms:
    def test_matrix_header_and_witnesses(self, capsys):
        code, out, _ = run(["forms", "isotropic", "--n", "4", "--count", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family=isotropic n=4 parameters=5 13 29"
        assert lines[1].split() == ["-", "eps@5", "eps@5"]
        assert lines[2].split() == ["eps@13", "-", "eps@13"]

    def test_even_rank_uses_discriminant(self, capsys):
        code, out, _ = run(["forms", "isotropic", "--n", "5", "--count", "2"], capsys)
        assert code == 0
        assert out.splitlines()[1].split() == ["-", "disc"]

    def test_single_form_trivial(self, capsys):
        code, out, _ = run(["forms", "isotropic", "--count", "1"], capsys)
        assert code == 0
        assert out.splitlines()[1].strip() == "-"

    def test_anisotropic(self, capsys):
        code, out, _ = run(["forms", "anisotropic", "--count", "2"], capsys)
        assert code == 0
        assert "eps@17" in out

    @pytest.mark.parametrize("family", ["isotropic", "anisotropic"])
    def test_json_golden(self, family, capsys):
        # Every certificate string at n = 5, as the coefficient-product code
        # wrote them.
        code, out, _ = run(["forms", family, "--n", "5", "--json"], capsys)
        assert code == 0
        assert out == (GOLDEN / f"forms_{family}_n5.json").read_text()

    def test_uncertified_pair_fails(self, capsys, monkeypatch):
        # One off-diagonal pair left uncertified: q_13 against q_37.
        certify = form_families.noncommensurability_certificate

        def one_gap(f1, f2):
            return None if (f1.a, f2.a) == (13, 37) else certify(f1, f2)

        monkeypatch.setattr(form_families, "noncommensurability_certificate", one_gap)
        code, out, err = run(["forms", "isotropic"], capsys)
        assert code == VERIFICATION_FAILURE and out == ""
        assert err == "verification failure: inconclusive pairs: [(1, 3)]\n"
        code, out, err = run(["forms", "isotropic", "--json"], capsys)
        assert code == VERIFICATION_FAILURE and err == ""
        document = json.loads(out)
        assert document["status"] == "error"
        assert document["payload"]["error"] == "inconclusive pairs: [(1, 3)]"

    def test_answers_past_the_old_cap(self, capsys):
        # --n was capped at 100 while a certificate cost n^2 symbols.  Every
        # certificate depends on n only through the parity of the rank, so
        # each matrix is the one at a small n of the same parity; only the
        # header and the "n" field change.
        for family in ("isotropic", "anisotropic"):
            for n, small in ((101, 5), (10**6, 4)):
                start = time.perf_counter()
                code, out, err = run(["forms", family, "--n", str(n)], capsys)
                # A backstop, not a benchmark: the run takes well under a
                # second, and this host's speed drifts by up to 1.7x.
                assert time.perf_counter() - start < 10
                assert code == 0 and err == ""
                _, expected, _ = run(["forms", family, "--n", str(small)], capsys)
                assert out == expected.replace(f" n={small} ", f" n={n} ", 1)
                code, out, err = run(["forms", family, "--n", str(n), "--json"], capsys)
                assert code == 0 and err == ""
                _, expected, _ = run(["forms", family, "--n", str(small), "--json"], capsys)
                document, expected = json.loads(out), json.loads(expected)
                assert document["payload"]["n"] == n
                expected["payload"]["n"] = n
                assert document == expected


class TestSubgroups:
    def test_golden(self, capsys):
        code, out, _ = run(["subgroups", "3"], capsys)
        assert code == 0
        assert out == (
            "k=1  subgroups=1  floor=1\n"
            "k=2  subgroups=3  floor=2\n"
            "k=3  subgroups=13  floor=6\n"
        )

    def test_cap(self, capsys):
        code, _, err = run(["subgroups", "8"], capsys)
        assert code == 2
        assert "capped" in err

    def test_index_past_the_digit_limit_is_not_echoed(self, capsys):
        # 5,001 digits were once refused as "not an integer" and echoed in full.
        k = "1" * 5001
        refusal = (
            "argument k: a numeral past Python's 4,300-digit limit (a text of 5,001 characters)"
        )
        code, out, err = run(["subgroups", k], capsys)
        assert code == 2 and out == ""
        assert err.endswith(f"volcount subgroups: error: {refusal}\n")
        assert len(err.encode()) < 300
        code, out, err = run(["subgroups", k, "--json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": refusal}}


class TestGraphs:
    def test_enumerate_golden(self, capsys):
        code, out, _ = run(["graphs", "2", "enumerate"], capsys)
        assert code == 0
        assert out == (
            "k=2 tables=3\n"
            "    0  a: 0 1  b: 1 0\n"
            "    1  a: 1 0  b: 0 1\n"
            "    2  a: 1 0  b: 1 0\n"
        )

    def test_covers_all_false_off_diagonal(self, capsys):
        code, out, _ = run(["graphs", "2", "covers"], capsys)
        assert code == 0
        assert out == (
            "k=2 graphs=3 off_diagonal_with_cover=0\n"
            "T . .\n"
            ". T .\n"
            ". . T\n"
        )

    def test_distinguish_golden(self, capsys):
        code, out, _ = run(["graphs", "2", "distinguish"], capsys)
        assert code == 0
        assert out == (
            "k=2 tables=3\n"
            "    0     1  a\n"
            "    0     2  a\n"
            "    1     2  b\n"
        )

    def test_single_subgroup_empty(self, capsys):
        code, out, _ = run(["graphs", "1", "distinguish"], capsys)
        assert code == 0
        assert out == "k=1 tables=1\n"

    def test_enumeration_cap(self, capsys):
        code, _, err = run(["graphs", "9", "enumerate"], capsys)
        assert code == 2

    def test_pairwise_cap_is_tighter(self, capsys):
        code, _, err = run(["graphs", "5", "covers"], capsys)
        assert code == 2
        assert "pairwise" in err
        code, _, _ = run(["graphs", "5", "enumerate"], capsys)
        assert code == 0


class TestAssemble:
    def test_from_file(self, capsys, tmp_path):
        path = tmp_path / "loop.graph"
        path.write_text("1\n0\n0\n0\n")
        code, out, _ = run(["assemble", str(path)], capsys)
        assert code == 0
        document = json.loads(out)
        assert len(document["instances"]) == 5
        assert len(document["gluings"]) == 6
        assert document["volume_bound"] == "5"
        assert document["parcel_id"] == "isotropic-n4"

    def test_compact_parcel(self, capsys, tmp_path):
        path = tmp_path / "loop.graph"
        path.write_text("1\n0\n0\n0\n")
        code, out, _ = run(["assemble", str(path), "--compact"], capsys)
        assert code == 0
        assert json.loads(out)["parcel_id"] == "anisotropic-n4"

    def test_only_json_mode_decodes_the_document(self, capsys, tmp_path, monkeypatch):
        # Text mode prints the document as written; decoding it once took
        # about half of an assemble run on a 20,000-vertex graph.
        path = tmp_path / "two.graph"
        path.write_text("2\n1 0\n0 1\n0\n")
        _, as_json, _ = run(["assemble", str(path), "--json"], capsys)
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or loads(text))
        code, out, err = run(["assemble", str(path)], capsys)
        assert (code, err, decoded) == (0, "", [])
        assert json.loads(as_json)["payload"] == json.loads(out)

    def test_deterministic_output(self, capsys, tmp_path):
        path = tmp_path / "two.graph"
        path.write_text("2\n1 0\n0 1\n0\n")
        _, first, _ = run(["assemble", str(path)], capsys)
        _, second, _ = run(["assemble", str(path)], capsys)
        assert first == second

    def test_missing_file(self, capsys):
        code, _, err = run(["assemble", "/nonexistent.graph"], capsys)
        assert code == 2

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2\n1 0\n")
        code, _, err = run(["assemble", str(path)], capsys)
        assert code == 2

    def test_non_ascii_file(self, capsys, tmp_path, monkeypatch):
        # A byte outside ASCII is an unreadable graph file, not an internal
        # error, whether the graph comes from a file or from stdin.
        path = tmp_path / "accent.graph"
        path.write_bytes("1\n0\n0\n0 \u00e9\n".encode("utf-8"))
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot read graph file: 'ascii' codec")
        assert err.count("\n") == 1
        code, out, err = run(["assemble", str(path), "--json"], capsys)
        assert code == 2 and err == ""
        document = json.loads(out)
        assert document["status"] == "error"
        assert document["payload"]["error"].startswith("cannot read graph file: ")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1\n0\n\xff\n"), "utf-8"))
        code, out, err = run(["assemble"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot read graph file: 'utf-8' codec")

    def test_number_tokens_are_ascii_digit_runs(self, capsys, tmp_path):
        # int() reads "1_0" as 10; graph_to_text never writes it.
        path = tmp_path / "underscore.graph"
        path.write_text("1_0\n1 2 3 4 5 6 7 8 9 0\n0 1 2 3 4 5 6 7 8 9\n0\n")
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == "usage error: malformed graph text\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1\x1c0\n0\t1\n\x0b0\r\n", "malformed graph text"),
            ("2\n1  0\n0 1\n0\n", "malformed graph text"),
            ("2\r\n1 0\r\n0 1\r\n0\r\n", "malformed graph text"),
            ("2\r1 0\r0 1\r0\r", "graph text needs four lines"),
            ("2\n1 0\n0 1\n1 0\n", "graph text differs from the text the writer gives its graph"),
        ],
        ids=["other-whitespace", "double-space", "crlf", "cr", "unsorted-colored"],
    )
    def test_only_the_writers_graph_text(self, capsys, tmp_path, text, message):
        # These once assembled with exit 0.
        path = tmp_path / "spaced.graph"
        path.write_bytes(text.encode("ascii"))
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"
        code, out, err = run(["assemble", str(path), "--json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": message}}

    def test_disconnected_graph(self, capsys, tmp_path):
        # Both rows fix both vertices: two components, which no graph has.
        message = "the permutation pair does not act transitively"
        path = tmp_path / "apart.graph"
        path.write_text("2\n0 1\n0 1\n0\n")
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"
        code, out, err = run(["assemble", str(path), "--json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": message}}

    def test_repeated_colored_vertex(self, capsys, tmp_path):
        path = tmp_path / "repeat.graph"
        path.write_text("2\n1 0\n0 1\n0 0\n")
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert "repeats" in err

    def test_vertex_count_past_the_digit_limit(self, capsys, tmp_path):
        # Once refused in Python's own words: "Exceeds the limit (4300 digits)...".
        text = "1" * 5000 + "\n0\n0\n0\n"
        message = (
            "graph text has a numeral past Python's 4,300-digit limit"
            " (a text of 5,007 characters)"
        )
        path = tmp_path / "long.graph"
        path.write_text(text)
        code, out, err = run(["assemble", str(path)], capsys)
        assert code == 2 and out == ""
        assert err == f"usage error: {message}\n"
        code, out, err = run(["assemble", str(path), "--json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": message}}


# Text with quotes, backslashes, newlines, non-ASCII and lone surrogates.
_TEXT = st.one_of(
    st.text(st.characters() | st.characters(categories=["Cs"])),
    st.sampled_from(['"', "\\", "\n", "\u00e9\u20ac", "\U0001f600", "\ud800", ""]),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_TEXT, children, max_size=3),
    max_leaves=12,
)


def _envelope(status, payload) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(status, payload, [], True)
    return out.getvalue()


class TestJsonEnvelope:
    # _emit nests the payload's JSON text by hand; the document must be
    # json.dumps's.
    @given(st.sampled_from(["ok", "error"]), st.dictionaries(_TEXT, _JSON_VALUES, max_size=4))
    @example("ok", {"": [], "{}": {}, '"\\\n': ["\ud800", {}, []], "\u00e9": {"a": "\n"}})
    @settings(max_examples=200, deadline=None)
    def test_dict_payload_or_its_text_nests_as_json_dumps(self, status, payload):
        expected = json.dumps({"status": status, "payload": payload}, sort_keys=True, indent=2)
        assert _envelope(status, payload) == expected + "\n"
        text = json.dumps(payload, sort_keys=True, indent=2)
        assert _envelope(status, text) == expected + "\n"

    @pytest.mark.parametrize("name", ["three.txt", "seventeen.txt"])
    def test_assemble_payload_is_the_decoded_document(self, capsys, tmp_path, name):
        # The old route, json.loads of the document and then json.dumps, is
        # the oracle.
        path = tmp_path / name
        path.write_text(GRAPH_FILES[name])
        _, document, _ = run(["assemble", str(path)], capsys)
        code, out, err = run(["assemble", str(path), "--json"], capsys)
        oracle = {"status": "ok", "payload": json.loads(document)}
        assert (code, err) == (0, "")
        assert out == json.dumps(oracle, sort_keys=True, indent=2) + "\n"


class TestCount:
    def test_golden_budget_30(self, capsys):
        code, out, _ = run(["count", "--v", "30"], capsys)
        assert code == 0
        assert out == (
            "volume_budget = 30\n"
            "max_block_volume = 1\n"
            "k = 6\n"
            "descriptors = 3447\n"
            "floor_bound = 216\n"
        )

    def test_rational_budget(self, capsys):
        code, out, _ = run(["count", "--v", "21/2"], capsys)
        assert code == 0
        assert "k = 2" in out

    def test_too_small(self, capsys):
        code, _, err = run(["count", "--v", "3"], capsys)
        assert code == 2
        assert "below" in err

    def test_emit(self, capsys, tmp_path):
        out_dir = tmp_path / "emitted"
        code, out, _ = run(
            ["count", "--v", "20", "--emit-descriptors", str(out_dir)], capsys
        )
        assert code == 0
        assert "emitted = 71" in out
        assert len(list(out_dir.glob("descriptor_*.json"))) == 71

    def test_emit_cap(self, capsys, tmp_path):
        code, _, err = run(
            ["count", "--v", "30", "--emit-descriptors", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "emission" in err

    def test_unwritable_emit_directory(self, capsys, tmp_path):
        # A directory under a regular file once ended in a NotADirectoryError
        # traceback and exit 1.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["count", "--v", "20", "--emit-descriptors", str(blocker / "sub")]
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage error: cannot write descriptors:")
        assert len(err.splitlines()) == 1
        code, out, err = run(argv + ["--json"], capsys)
        assert code == 2 and err == ""
        document = json.loads(out)
        assert document["status"] == "error"
        assert document["payload"]["error"].startswith("cannot write descriptors:")

    def test_count_past_a_lowered_digit_limit_is_a_usage_error(self, capsys):
        # a_400 has 872 digits: under a limit of 640, printing it once ended
        # in an internal error that carried Python's own text.
        message = (
            "descriptor count at index 400 is past this Python's int-to-str limit of 640 digits"
        )
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            plain = run(["count", "--v", "2000"], capsys)
            as_json = run(["count", "--v", "2000", "--json"], capsys)
            within = run(["count", "--v", "1500"], capsys)
        finally:
            sys.set_int_max_str_digits(previous)
        assert plain == (2, "", f"usage error: {message}\n")
        document = {"status": "error", "payload": {"error": message}}
        assert as_json == (2, json.dumps(document, sort_keys=True, indent=2) + "\n", "")
        assert within[0] == 0 and "k = 300\n" in within[1]

    def test_refusals_name_a_lowered_digit_limit(self, capsys, monkeypatch, tmp_path):
        # Under a limit of 640 digits these once named Python's default of
        # 4,300, misnamed a long numeral as "not an integer" or "not a
        # rational number", leaked Python's own "Exceeds the limit" text
        # from the reader, or ran Hall's recursion at index 1400 for 13 s
        # before refusing.  a_k >= k!, and 311! has 642 digits, so only
        # k = 310 (310! of 640 digits, a_310 of 642) is counted first.
        long = "1" * 700
        graph_file = tmp_path / "long.graph"
        graph_file.write_text(long + "\n0\n0\n0\n")
        loop = DecoratedGraph(1, (0,), (0,), frozenset({0}))
        parcel = assembler.default_parcel(4, compact=False)
        document = json.loads(assembler.descriptor_to_json(assembler.assemble(loop, parcel)))
        document["volume_bound"] = int(long)
        text = json.dumps(document, sort_keys=True, indent=2) + "\n"
        counted = []
        monkeypatch.setattr(
            assembler, "hall_count", lambda k: counted.append(k) or free_groups.hall_count(k)
        )
        argvs = [
            ["count", "--v", "1e700"],
            ["count", "--v", long],
            ["subgroups", long],
            ["count", "--v", "7000"],
            ["count", "--v", "1555"],
            ["count", "--v", "1550"],
            ["assemble", str(graph_file)],
        ]
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            runs = [run(argv, capsys) for argv in argvs]
            with pytest.raises(ValueError) as refused:
                assembler.descriptor_from_json(text)
        finally:
            sys.set_int_max_str_digits(previous)
        numeral = "a numeral past Python's 640-digit limit"
        past = "past this Python's int-to-str limit of 640 digits"
        refusals = [
            "usage error: descriptor count is capped at index 1557"
            " (got <past Python's 640-digit limit>)",
            f"argument --v: {numeral} (a text of 700 characters)",
            f"argument k: {numeral} (a text of 700 characters)",
            f"usage error: descriptor count at index 1400 is {past}",
            f"usage error: descriptor count at index 311 is {past}",
            f"usage error: descriptor count at index 310 is {past}",
            f"usage error: graph text has {numeral} (a text of 707 characters)",
        ]
        for (code, out, err), refusal in zip(runs, refusals):
            assert code == 2 and out == ""
            assert err.endswith(refusal + "\n") and "Exceeds the limit" not in err
        assert str(refused.value) == f"document has {numeral} (a text of {len(text):,} characters)"
        assert counted == [310]

    def test_index_cap_checked_before_counting(self, capsys, monkeypatch):
        # count --v 8000 (k = 1600) once ran Hall's recursion for ~21 s
        # before printing the count failed.
        def no_count(k):
            raise AssertionError(f"hall_count({k}) ran")

        monkeypatch.setattr(assembler, "hall_count", no_count)
        code, out, err = run(["count", "--v", "8000"], capsys)
        assert code == 2 and out == ""
        assert f"capped at index {assembler.MAX_COUNT_INDEX} (got 1600)" in err
        budget = str(5 * (assembler.MAX_COUNT_INDEX + 1))
        code, _, err = run(["count", "--v", budget], capsys)
        assert code == 2
        assert "capped" in err

    @pytest.mark.parametrize(
        "budget, message",
        [
            ("1e10000000", PAST_CAP),
            ("1E+999999999", PAST_CAP),
            ("1e4400", PAST_CAP),
            ("1e-10000000", BELOW_SCALE),
            ("-1e10000000", BELOW_SCALE),
            ("1e-4400", BELOW_SCALE),
            ("0e10000000", "volume budget 0 is below the one-block scale 5"),
        ],
        ids=["huge", "huge-signed", "past-printable", "tiny", "negative", "tiny-printable", "zero"],
    )
    def test_off_scale_budget_refused_unbuilt(self, capsys, monkeypatch, budget, message):
        # Each once exited 2 with Python's digit-limit text, and past an
        # exponent of 10^4 only after Fraction built 10^|e| in full (11 s
        # for 1e10000000).  A mantissa has at most 4,300 digits, so such a
        # budget is far off the scale [5, 7790) and is refused unbuilt.
        def fraction(text, *rest):
            if isinstance(text, str) and len(text.rpartition("e")[2]) > 5:
                raise AssertionError(f"Fraction({text!r}) built")
            return Fraction(text, *rest)

        monkeypatch.setattr(cli, "Fraction", fraction)
        code, out, err = run(["count", f"--v={budget}"], capsys)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        code, out, err = run(["count", f"--v={budget}", "--json"], capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": message}}

    @pytest.mark.parametrize("budget", ["1e1e10000000", "1/2e10000000", "1e1__0000000"])
    def test_malformed_exponent_is_not_a_number(self, capsys, budget):
        code, out, err = run(["count", f"--v={budget}"], capsys)
        assert code == 2 and out == ""
        assert f"not a rational number: {budget!r}" in err

    @pytest.mark.parametrize(
        "budget",
        [
            "1" * 5000,
            "1" * 5000 + "e99999",
            "1e" + "1" * 5000,
            "1." + "2" * 5000,
            "1_" * 4400 + "1",
        ],
        ids=["mantissa", "mantissa-exponent", "exponent", "decimal", "underscores"],
    )
    def test_budget_past_the_digit_limit_is_not_echoed(self, capsys, budget):
        # 5,000 digits were once echoed in full, 5,172 bytes of stderr.
        refusal = f"4,300-digit limit (a text of {len(budget):,} characters)"
        code, out, err = run(["count", f"--v={budget}"], capsys)
        assert code == 2 and out == "" and refusal in err
        assert len(err.encode()) < 300
        code, out, err = run(["count", f"--v={budget}", "--json"], capsys)
        assert code == 2 and err == "" and refusal in json.loads(out)["payload"]["error"]
        assert len(out.encode()) < 300

    def test_budget_exponents_near_the_cap_are_read(self, capsys):
        # A 4,300-digit mantissa brings an exponent past 4,300 back on the scale.
        for budget in ("0." + "0" * 4299 + "1e4301", "1" * 4300 + "e-4297", "1e0000000001"):
            code, out, err = run(["count", "--v", budget], capsys)
            assert code == 0 and err == "", budget
            assert out.startswith("volume_budget = ")

    def test_json_error_document(self, capsys):
        code, out, _ = run(["count", "--v", "3", "--json"], capsys)
        assert code == 2
        document = json.loads(out)
        assert document["status"] == "error"


class TestSelfCheckFailure:
    @pytest.fixture
    def broken_primes(self, monkeypatch):
        def handler(args):
            raise RuntimeError("modular square root failed self-check")

        monkeypatch.setitem(cli._HANDLERS, "primes", handler)

    def test_text(self, capsys, broken_primes):
        code, out, err = run(["primes", "isotropic", "2"], capsys)
        assert code == VERIFICATION_FAILURE
        assert out == ""
        assert err == "verification failure: modular square root failed self-check\n"

    def test_json_document(self, capsys, broken_primes):
        code, out, err = run(["primes", "isotropic", "2", "--json"], capsys)
        assert code == VERIFICATION_FAILURE
        assert err == ""
        assert json.loads(out) == {
            "status": "error",
            "payload": {"error": "modular square root failed self-check"},
        }


class TestInternalError:
    @pytest.fixture
    def failing_forms(self, monkeypatch):
        def handler(args):
            raise ValueError("internal fault")

        monkeypatch.setitem(cli._HANDLERS, "forms", handler)

    def test_text(self, capsys, failing_forms):
        code, out, err = run(["forms", "isotropic"], capsys)
        assert code == VERIFICATION_FAILURE
        assert out == ""
        assert err == "internal error: internal fault\n"

    def test_json_document(self, capsys, failing_forms):
        code, out, err = run(["forms", "isotropic", "--json"], capsys)
        assert code == VERIFICATION_FAILURE and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": "internal fault"}}


class TestUsage:
    def test_no_verb(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["forms", "isotropic", "--n", "2"],
            ["forms", "anisotropic", "--n", "0"],
            ["assemble", "--n", "2"],
            ["count", "--v", "30", "--n", "1"],
        ],
    )
    def test_dimension_below_three(self, capsys, argv):
        # Rejected by the parser, before any verb runs.
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert "--n: must be at least 3" in err

    @pytest.mark.parametrize(
        "argv",
        [["assemble", "-"], ["count", "--v", "30"]],
        ids=["assemble", "count"],
    )
    def test_answers_past_the_old_cap(self, capsys, monkeypatch, argv):
        # default_parcel certifies as forms does; --n was capped at 100.  The
        # volume unit is the largest block volume at every n, so only the
        # parcel id changes.
        for n in (101, 10**6):
            for compact, tag in (([], "isotropic"), (["--compact"], "anisotropic")):
                for as_json in ([], ["--json"]):
                    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n1 0\n0 1\n0\n"))
                    start = time.perf_counter()
                    code, out, err = run(argv + ["--n", str(n)] + compact + as_json, capsys)
                    # A backstop, not a benchmark.
                    assert time.perf_counter() - start < 10
                    assert code == 0 and err == ""
                    monkeypatch.setattr(sys, "stdin", io.StringIO("2\n1 0\n0 1\n0\n"))
                    _, expected, _ = run(argv + ["--n", "4"] + compact + as_json, capsys)
                    assert out == expected.replace(f'"{tag}-n4"', f'"{tag}-n{n}"')
                    if argv[0] == "assemble":
                        assert f'"parcel_id": "{tag}-n{n}"' in out
                    else:
                        assert "3447" in out

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "selftest" in out

    def test_help_under_json_prints_its_text(self, capsys):
        code, out, err = run(["count", "--help", "--json"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("usage: volcount count [-h] --v V")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["count", "--v", "1/2x", "--json"], "argument --v: not a rational number: '1/2x'"),
            (["subgroups", "--json"], "the following arguments are required: k"),
            (["graphs", "2", "walk", "--js"], "argument subcommand: invalid choice: 'walk' "
             "(choose from 'enumerate', 'covers', 'distinguish')"),
            (["primes", "isotropic", "2", "--json", "--bogus"], "unrecognized arguments: --bogus"),
        ],
        ids=["type", "missing", "choice-abbreviated-flag", "unrecognized"],
    )
    def test_argument_errors_under_json_are_documents(self, capsys, argv, message):
        # argparse's own errors once printed usage text and no JSON document.
        code, out, err = run(argv, capsys)
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "error", "payload": {"error": message}}
        without_json = [token for token in argv if not token.startswith("--j")]
        code, out, err = run(without_json, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: volcount") and err.endswith(f"error: {message}\n")


class TestCapsBeforeWork:
    # README: the caps are checked before any work starts.  "graphs 5 covers"
    # once enumerated all 461 tables, and "count --v 7785 --emit-descriptors"
    # ran hall_count(1557) for ~17 s, before refusing.
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"work started at {args}")

        for module in (cli, assembler, free_groups):
            monkeypatch.setattr(module, "enumerate_subgroups", refuse)
            monkeypatch.setattr(module, "hall_count", refuse)
        monkeypatch.setattr(cli, "search_primes", refuse)
        monkeypatch.setattr(cli, "family_members", refuse)

    CASES = [
        (["subgroups", "8"], "enumeration is capped at index 7 (got 8)"),
        (["graphs", "8", "enumerate"], "enumeration is capped at index 7 (got 8)"),
        (["graphs", "5", "covers"], "pairwise subcommands is capped at index 4 (got 5)"),
        (["graphs", "5", "distinguish"], "pairwise subcommands is capped at index 4 (got 5)"),
        (["count", "--v", "7790"], "descriptor count is capped at index 1557 (got 1558)"),
        (
            ["count", "--v", "30", "--emit-descriptors", "DIR"],
            "descriptor emission is capped at index 5 (got 6)",
        ),
        (["primes", "isotropic", "20001"], "prime search is capped at count 20000 (got 20001)"),
        (
            ["forms", "anisotropic", "--count", "201"],
            "certificate matrix is capped at count 200 (got 201)",
        ),
    ]

    @pytest.mark.parametrize(
        "argv, message", CASES, ids=["-".join(a).replace("--", "") for a, _ in CASES]
    )
    def test_refused_before_any_work(self, capsys, tmp_path, argv, message):
        argv = [str(tmp_path / "out") if arg == "DIR" else arg for arg in argv]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")
        code, out, err = run(argv + ["--json"], capsys)
        document = {"status": "error", "payload": {"error": message}}
        assert (code, out, err) == (2, json.dumps(document, sort_keys=True, indent=2) + "\n", "")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv", [["primes", "anisotropic", "20000"], ["forms", "isotropic", "--count", "200"]]
    )
    def test_the_cap_itself_is_served(self, capsys, argv):
        with pytest.raises(AssertionError, match="work started"):
            run(argv, capsys)


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError


class TestClosedPipe:
    def test_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["primes", "isotropic", "3"]) == BROKEN_PIPE
        assert capsys.readouterr().err == ""

    def test_reader_gone_before_output(self):
        # The reader closes its end before the child writes anything, so
        # every write fails with EPIPE; nothing may reach stderr.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        process = subprocess.Popen(
            [sys.executable, "-m", "volcount.cli", "primes", "isotropic", "200"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        process.stdout.close()
        err = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) == BROKEN_PIPE
        assert err == b""
