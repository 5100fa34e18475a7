"""The release gate: every numbered criterion runs here, one line per result.

Each test executes one criterion (frozen values, oracle cross-checks,
exhaustive small-index sweeps) and enforces its wall-clock budget; the
printed line carries the measured time and the verifying detail.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from volcount import acceptance
from volcount.acceptance import (
    CRITERIA,
    _random_nonzero_fraction,
    format_line,
    run_criterion,
    solvability_oracle_odd,
)
from volcount.assembler import (
    _check_closed,
    _gluing_refs,
    _instance_refs,
    _pick,
    _ref,
    slots_for_kind,
)
from volcount.free_groups import enumerate_subgroups

_IDS = [f"{number}-{name}" for number, name, _, _ in CRITERIA]


@pytest.mark.parametrize("number", [entry[0] for entry in CRITERIA], ids=_IDS)
def test_criterion(number):
    result = run_criterion(number)
    print(format_line(result))
    assert result.passed, format_line(result)
    assert result.seconds < result.budget_seconds


def _three_fraction_draw(rng, prime=None):
    # The gate's original input generator, kept as the oracle for its inputs.
    numerator = rng.choice([n for n in range(-40, 41) if n])
    value = Fraction(numerator, rng.randrange(1, 24))
    if prime is not None:
        value *= Fraction(prime) ** rng.randrange(-2, 3)
    return value


# Every prime argument the criteria pass: the Hilbert places, the product-
# formula and oracle choices, and the p = 1 (mod 4) scaling list.
_GATE_PRIMES = (None, 2, 3, 5, 7, 11, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


@pytest.mark.parametrize("seed", (0, 1003, 1004, 2**31 - 1))
def test_gate_inputs_match_the_three_fraction_oracle(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(200):
        for prime in _GATE_PRIMES:
            value = _random_nonzero_fraction(new, prime)
            assert type(value) is Fraction
            assert value == _three_fraction_draw(old, prime)
        assert new.getstate() == old.getstate()


def _full_solvability_scan(a_red, b_red, p):
    # The oracle's original scan over every (x, y) in [0, p^2)^2.
    modulus = p * p
    squares = {(z * z) % modulus for z in range(modulus)}
    for x in range(modulus):
        x_term = a_red * x * x
        x_unit = x % p != 0
        for y in range(modulus):
            if not x_unit and y % p == 0:
                continue
            if (x_term + b_red * y * y) % modulus in squares:
                return 1
    return -1


@pytest.mark.parametrize("p", (3, 5))
def test_class_scan_matches_the_full_scan(p):
    # Every nonzero residue mod p^2 is a reduced argument (valuation 0 or 1),
    # and the oracle reduces it to itself.
    verdicts = {}
    for a in range(1, p * p):
        for b in range(1, p * p):
            verdict = solvability_oracle_odd(Fraction(a), Fraction(b), p)
            assert verdict == _full_solvability_scan(a, b, p), (a, b)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert verdicts[1] and verdicts[-1]


def _rows(pieces) -> list:
    return [row for piece in pieces for row in json.loads(f"[{piece}]")]


def _split(piece: str) -> list[str]:
    # A piece of several rows as pieces of one row each.
    return [json.dumps(row) for row in _rows([piece])]


def _dropping_last_gluing(graph):
    # The last piece holds the edge gluing rows; its last row goes.
    instances, gluings, *lists = _pick(graph)
    return instances, gluings[:-1] + _split(gluings[-1])[:-1], *lists


def _repeating_first_gluing(graph):
    instances, gluings, *lists = _pick(graph)
    return instances, gluings[:-1] + _split(gluings[-1])[:-1] + gluings[:1], *lists


@pytest.mark.parametrize(
    "pick, refusal",
    [
        (_dropping_last_gluing, "descriptor is not closed: 2 slots unglued"),
        (_repeating_first_gluing, "slot ('v0', 0) glued more than once"),
    ],
    ids=["dropped", "repeated"],
)
def test_criterion_9_fails_on_an_open_document(monkeypatch, pick, refusal):
    # The slot refs decide, and _check_closed's message names the fault.
    monkeypatch.setattr(acceptance, "_pick", pick)
    result = run_criterion(9)
    assert not result.passed
    assert result.detail == f"ValueError: {refusal}"


def test_criterion_9_keeps_its_pieces_within_the_table_bounds():
    # The bounds _check_closed states, and criterion 9's distinct pieces and
    # refs, all of which stay kept through the pass.
    tables = (_instance_refs, _gluing_refs, _ref)
    for table in tables:
        table.cache_clear()
    assert run_criterion(9).passed
    kept = [table.cache_info() for table in tables]
    assert [info.maxsize for info in kept] == [512, 128, 1024]
    assert [info.currsize for info in kept] == [405, 74, 72]


def _closed_by_counting(instances, gluings) -> bool:
    # The oracle: closed exactly when the instance slot refs, with text ids,
    # are distinct, and the glued refs, with int slots, are those refs, each
    # glued once.
    try:
        slots = Counter(
            (instance_id, slot)
            for instance_id, kind, _ in _rows(instances)
            for slot in range(slots_for_kind(kind))
        )
        glued = Counter(tuple(end) for end1, end2 in _rows(gluings) for end in (end1, end2))
        typed = all(type(i) is str for i, _ in slots) and all(type(s) is int for _, s in glued)
    except (TypeError, ValueError):
        return False
    return typed and set(slots.values()) <= {1} and glued == slots


def _verdict_of_check_closed(instances, gluings) -> bool:
    try:
        _check_closed(instances, gluings)
    except (TypeError, ValueError):
        return False
    return True


# Pieces of one row that no document of the writer holds: a second v0, an
# unknown kind, an instance no gluing reaches, a slot past a vertex's four,
# gluings of an unknown instance, and malformed rows.  A look-alike edit
# spells a piece's first slot as a float, or as a bool when it is 0 or 1.
_FOREIGN_INSTANCES = ('["v0", "V0", "again"]', '["x", "C", "x"]', '["x", "V0", "x"]', '[]')
_FOREIGN_GLUINGS = ('[["v0", 4], ["x", 0]]', '[["x", 0], ["x", 1]]', '[["v0", 0]]', '[[0, 0], 1]')
_SLOT = re.compile(r'("[^"]*",\s*)([0-9]+)')


def _look_alike(piece: str, as_bool: bool) -> str:
    def spell(match):
        slot = match[2]
        text = ("false", "true")[int(slot)] if as_bool and slot in ("0", "1") else f"{slot}.0"
        return match[1] + text

    return _SLOT.sub(spell, piece, count=1)


@st.composite
def _edited_pieces(draw):
    # A document's pieces of index <= 3, with up to three pieces dropped,
    # repeated, moved, replaced by foreign ones, given a look-alike slot or
    # split into their rows, so that later edits reach single rows.
    tables = [t for k in (1, 2, 3) for t in enumerate_subgroups(k)]
    instances, gluings = map(list, _pick(draw(st.sampled_from(tables)))[:2])
    for _ in range(draw(st.integers(0, 3))):
        pieces, foreign = draw(
            st.sampled_from(((instances, _FOREIGN_INSTANCES), (gluings, _FOREIGN_GLUINGS)))
        )
        i = draw(st.integers(0, len(pieces) - 1)) if pieces else 0
        edit = draw(st.sampled_from(("drop", "repeat", "move", "foreign", "look-alike", "split")))
        if edit == "drop" and pieces:
            del pieces[i]
        elif edit == "repeat" and pieces:
            pieces.insert(draw(st.integers(0, len(pieces))), pieces[i])
        elif edit == "move" and pieces:
            pieces.insert(draw(st.integers(0, len(pieces) - 1)), pieces.pop(i))
        elif edit == "look-alike" and pieces:
            pieces[i] = _look_alike(pieces[i], draw(st.booleans()))
        elif edit == "split" and pieces:
            pieces[i : i + 1] = _split(pieces[i])
        else:
            pieces.insert(i, draw(st.sampled_from(foreign)))
    return instances, gluings


@given(st.lists(_edited_pieces(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_slot_refs_agree_with_check_closed(documents):
    # The kept refs serve every document, as in criterion 9.
    for instances, gluings in documents:
        assert _verdict_of_check_closed(instances, gluings) == _closed_by_counting(instances, gluings)
