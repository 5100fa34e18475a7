import hashlib
import json
import sys
from fractions import Fraction
from itertools import islice, permutations, product
from math import factorial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from volcount import assembler, form_families
from volcount.assembler import (
    BLOCK_KINDS,
    CommensurabilityVerdict,
    ManifoldDescriptor,
    Parcel,
    _CACHED_SIZE,
    _check_closed,
    _coloring_rows,
    _permutation_rows,
    _total_volume,
    assemble,
    commensurability_verdict,
    count_lower_bound,
    default_parcel,
    descriptor_from_json,
    descriptor_to_json,
    descriptors_for_index,
    emit_descriptors,
    slots_for_kind,
    trace_word,
    volume_bound,
)
from volcount.decorated_graphs import DecoratedGraph, from_subgroup, has_common_decorated_cover
from volcount.form_families import (
    REFERENCE_ANISOTROPIC_PRIMES,
    REFERENCE_ISOTROPIC_PRIMES,
    make_q,
    make_r,
)
from volcount.free_groups import (
    Word,
    _bfs,
    distinguishing_word,
    enumerate_subgroups,
    hall_count,
)


def with_block_volumes(parcel: Parcel, volumes) -> Parcel:
    """Copy of the parcel with the six block volumes replaced."""
    assert len(volumes) == 6
    return Parcel(parcel.parcel_id, parcel.forms, volumes)


LOOP = DecoratedGraph(1, (0,), (0,), frozenset({0}))
TWO = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0}))


def _cycle_graph(k, step, colored):
    """Connected: a is the k-cycle, b multiplies by step (coprime to k)."""
    return DecoratedGraph(
        k, [(v + 1) % k for v in range(k)], [(v * step) % k for v in range(k)], colored
    )


# Sizes past _CACHED_SIZE, whose tables are built for one pattern.
SEVENTEEN = _cycle_graph(17, 5, {0, 16})
FORTY = _cycle_graph(40, 3, set())
# Sizes past the enumeration cap whose rows are still kept.
TWELVE = _cycle_graph(12, 5, {0, 7})
SIXTEEN = _cycle_graph(16, 3, {0})


def _document(graph, parcel):
    return json.loads(descriptor_to_json(assemble(graph, parcel)))


def _dumps(document):
    """The document in the writer's layout, so the reader refuses it only for its content."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _pieces(document):
    """The document's rows as pieces of one row each, as _check_closed reads them."""
    return tuple([json.dumps(row) for row in document[key]] for key in ("instances", "gluings"))


def _assert_rejected(document, refusal):
    # _check_closed names the fault; the reader refuses the text.
    with pytest.raises(ValueError) as refused:
        _check_closed(*_pieces(document))
    assert str(refused.value) == refusal
    with pytest.raises(ValueError):
        descriptor_from_json(_dumps(document))


@pytest.fixture(scope="module")
def parcel():
    return default_parcel(4, compact=False)


@pytest.fixture(scope="module")
def compact_parcel():
    return default_parcel(4, compact=True)


class TestParcels:
    def test_default_isotropic(self, parcel):
        assert parcel.parcel_id == "isotropic-n4"
        assert parcel.forms == tuple(make_q(p, 4) for p in (5, 13, 29, 37, 53, 61))
        assert parcel.volumes == (1,) * 6
        assert parcel.max_volume == 1
        assert parcel.dimension == 4
        assert not parcel.compact

    def test_default_compact(self, compact_parcel):
        assert compact_parcel.parcel_id == "anisotropic-n4"
        assert compact_parcel.forms == tuple(
            make_r(p, 4) for p in (17, 41, 97, 137, 193, 241)
        )
        assert compact_parcel.compact

    def test_certificates_complete(self, parcel, compact_parcel):
        for p in (parcel, compact_parcel):
            for i in range(6):
                for j in range(6):
                    entry = p.certificates[i][j]
                    assert (entry is None) == (i == j)
            assert p.certificates == form_families.certificate_matrix(p.forms)

    def test_slot_counts(self):
        assert [slots_for_kind(kind) for kind in BLOCK_KINDS] == [4, 4, 2, 2, 2, 2]

    def test_volume_override(self, parcel):
        bumped = with_block_volumes(parcel, (1, 1, 1, 1, 1, 2))
        assert bumped.max_volume == 2
        assert bumped.volumes == (1, 1, 1, 1, 1, 2)
        assert bumped.parcel_id == parcel.parcel_id
        assert bumped.certificates == parcel.certificates

    def test_parcel_validation(self, parcel):
        with pytest.raises(ValueError, match="exactly six forms"):
            Parcel("x", parcel.forms[:5])
        with pytest.raises(ValueError, match="exactly six forms"):
            Parcel("x", parcel.forms, (1,) * 5)
        with pytest.raises(ValueError, match="FamilyForm"):
            Parcel("x", parcel.forms[:5] + ("q_61",))
        # A repeated member leaves its pairs uncertified.
        with pytest.raises(RuntimeError, match="requires certified block pairs"):
            Parcel("x", parcel.forms[:5] + parcel.forms[:1])

    def test_parcel_id_is_text(self, parcel):
        # A parcel with the id 5 once built, and the writer then raised
        # TypeError on each of its descriptors.
        with pytest.raises(ValueError, match="^a parcel id is a str, not 5$"):
            Parcel(5, parcel.forms)

    def test_mixed_families_refused(self, parcel, compact_parcel):
        with pytest.raises(ValueError, match="different families"):
            Parcel("x", parcel.forms[:5] + compact_parcel.forms[5:])

    def test_mixed_dimensions_refused(self, parcel):
        with pytest.raises(ValueError, match="different ranks"):
            Parcel("x", parcel.forms[:5] + (make_q(61, 5),))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize(
        "make, primes, compact",
        [(make_q, REFERENCE_ISOTROPIC_PRIMES, False), (make_r, REFERENCE_ANISOTROPIC_PRIMES, True)],
        ids=["q", "r"],
    )
    def test_dimension_and_compact_follow_the_forms(self, n, make, primes, compact):
        built = Parcel("x", [make(p, n) for p in primes])
        assert (built.dimension, built.compact) == (n, compact)
        assert built.forms == default_parcel(n, compact).forms

    @pytest.mark.parametrize("compact", [False, True])
    def test_uncertified_pair_refused(self, monkeypatch, compact):
        # One off-diagonal pair left uncertified, the second block against the fifth.
        certify = form_families.noncommensurability_certificate
        _, forms = form_families.family_members("anisotropic" if compact else "isotropic", 6, 4)

        def one_gap(f1, f2):
            return None if (f1, f2) == (forms[1], forms[4]) else certify(f1, f2)

        monkeypatch.setattr(form_families, "noncommensurability_certificate", one_gap)
        with pytest.raises(RuntimeError, match="requires certified block pairs"):
            default_parcel(4, compact)

    def test_block_validation(self, parcel):
        for volume in (0, -1, Fraction(-1, 2)):
            with pytest.raises(ValueError, match="volumes must be positive"):
                with_block_volumes(parcel, (1, 1, volume, 1, 1, 1))


class TestAssembly:
    def test_one_vertex_shape(self, parcel):
        document = _document(LOOP, parcel)
        assert len(document["instances"]) == 5
        # 12 slot ends matched in pairs.
        assert len(document["gluings"]) == 6
        kinds = sorted(kind for _, kind, _ in document["instances"])
        assert kinds == ["A_minus", "A_plus", "B_minus", "B_plus", "V1"]

    def test_instance_count_scales(self, parcel):
        for k in (1, 2, 3, 4):
            table = enumerate_subgroups(k)[0]
            document = _document(from_subgroup(table, frozenset({0})), parcel)
            assert len(document["instances"]) == 5 * k
            assert len(document["gluings"]) == 6 * k

    def test_vertex_kinds_follow_colors(self, parcel):
        document = _document(TWO, parcel)
        kinds = {instance_id: kind for instance_id, kind, _ in document["instances"]}
        assert kinds["v0"] == "V1" and kinds["v1"] == "V0"

    def test_closedness_exhaustive_small_indices(self, parcel):
        # Every slot glued exactly once, for all graphs of index <= 4 under
        # both decorations.
        for k in (1, 2, 3, 4):
            for table in enumerate_subgroups(k):
                for colored in (frozenset({0}), frozenset()):
                    graph = from_subgroup(table, colored)
                    document = _document(graph, parcel)
                    _check_closed(*_pieces(document))
                    assert volume_bound(assemble(graph, parcel), parcel) == 5 * k

    def test_volume_is_stored_as_given(self, parcel):
        volume = Fraction(7, 3)
        assert ManifoldDescriptor(TWO, "p", volume).volume_bound is volume
        assert assemble(TWO, parcel).volume_bound == 10
        stored = ManifoldDescriptor(TWO, "p", 10).volume_bound
        assert type(stored) is Fraction and stored == 10

    def test_assemble_equals_the_checked_descriptor(self, parcel):
        # assemble and the reader hand the one constructor a Fraction, which
        # it stores as it is; each result must be the value it gives the
        # volume as an int or a Fraction.
        priced = with_block_volumes(parcel, [Fraction(1, 2), 3, Fraction(5, 7), 1, 2, 4])
        cases = [(t, parcel, 5 * k) for k in range(1, 7) for t in enumerate_subgroups(k)]
        # SEVENTEEN has 15 plain and 2 colored vertices.
        priced_volume = 15 * Fraction(1, 2) + 2 * 3 + 17 * (Fraction(5, 7) + 1 + 2 + 4)
        cases += [(SEVENTEEN, parcel, 85), (SEVENTEEN, priced, priced_volume)]
        for graph, given_parcel, volume in cases:
            checked = ManifoldDescriptor(graph, given_parcel.parcel_id, volume)
            for descriptor in (
                assemble(graph, given_parcel),
                descriptor_from_json(descriptor_to_json(checked), given_parcel),
            ):
                assert descriptor == checked and hash(descriptor) == hash(checked)
                assert repr(descriptor) == repr(checked)
                assert type(descriptor.volume_bound) is Fraction
                assert not hasattr(descriptor, "__dict__")

    def test_parcel_id_is_text(self):
        # Once built, and then the writer raised TypeError.
        with pytest.raises(ValueError, match="^a parcel id is a str, not 5$"):
            ManifoldDescriptor(enumerate_subgroups(3)[0], 5, 10)

    def test_source_graph_is_a_decorated_graph(self):
        # Once built, and then the writer raised AttributeError.
        with pytest.raises(ValueError, match="^a source graph is a DecoratedGraph, not 'x'$"):
            ManifoldDescriptor("x", "p", 10)

    @pytest.mark.parametrize(
        "volume, named",
        [(-5, "'-5'"), (0, "'0'"), (Fraction(-1, 2), "'-1/2'")],
        ids=["negative", "zero", "negative-fraction"],
    )
    def test_volume_is_positive(self, volume, named):
        # Once built, into a document that its reader then refused.
        with pytest.raises(ValueError) as refusal:
            ManifoldDescriptor(TWO, "p", volume)
        assert str(refusal.value) == f"volume_bound {named} is not positive"

    def test_disconnected_rejected(self, parcel):
        # assemble takes connected graphs, and no other graph can be built.
        with pytest.raises(ValueError, match="does not act transitively"):
            DecoratedGraph(2, (0, 1), (0, 1), frozenset())

    def test_unglued_slot_rejected(self, parcel):
        document = _document(LOOP, parcel)
        document["gluings"].pop()
        _assert_rejected(document, "descriptor is not closed: 2 slots unglued")

    def test_doubly_glued_slot_rejected(self, parcel):
        document = _document(LOOP, parcel)
        document["gluings"][-1] = document["gluings"][0]
        _assert_rejected(document, "slot ('v0', 0) glued more than once")

    def test_duplicate_instance_rejected(self, parcel):
        document = _document(LOOP, parcel)
        document["instances"].append(["v0", "V0", "dup"])
        _assert_rejected(document, "duplicate instance id v0")

    def test_unknown_instance_rejected(self, parcel):
        document = _document(LOOP, parcel)
        document["gluings"][0][0][0] = "v9"
        _assert_rejected(document, "gluing references unknown instance v9")

    @pytest.mark.parametrize("slot", [-1, 4])
    def test_slot_out_of_range_rejected(self, parcel, slot):
        document = _document(LOOP, parcel)
        document["gluings"][0][0][1] = slot
        _assert_rejected(document, f"slot {slot} out of range for v0")

    @pytest.mark.parametrize("slot", [True, 1.0, "1", [1]], ids=["bool", "float", "text", "list"])
    def test_slot_that_is_not_an_int_rejected(self, parcel, slot):
        # A slot is an int: True == 1.0 == 1, yet neither is one.
        document = _document(enumerate_subgroups(2)[0], parcel)
        row = document["gluings"].index([["v0", 1], ["a0+", 1]])
        document["gluings"][row] = [["v0", slot], ["a0+", 1]]
        _assert_rejected(document, f"slot {('v0', slot)!r} is not an int slot of a text id")

    def test_closed_but_underived_pattern_rejected(self, parcel):
        # Closed lists that are still not the ones the graph derives.
        reordered = _document(TWO, parcel)
        reordered["gluings"].reverse()
        relabeled = _document(TWO, parcel)
        relabeled["instances"][0][2] = "vertex 9"
        for document in (reordered, relabeled):
            _check_closed(*_pieces(document))
            with pytest.raises(ValueError):
                descriptor_from_json(_dumps(document))


class TestVolumeBound:
    def test_equal_volumes_give_equality(self, parcel):
        for k in (1, 2, 3):
            table = enumerate_subgroups(k)[0]
            descriptor = assemble(from_subgroup(table, frozenset({0})), parcel)
            assert volume_bound(descriptor, parcel) == 5 * k

    def test_mixed_volumes_stay_below_cap(self, parcel):
        mixed = with_block_volumes(parcel, (1, 1, 1, 1, 1, 2))
        for table in enumerate_subgroups(3):
            descriptor = assemble(from_subgroup(table, frozenset({0})), mixed)
            assert volume_bound(descriptor, mixed) <= 5 * 3 * 2

    def test_another_parcels_descriptor_rejected(self, parcel, compact_parcel):
        # The two parcels price LOOP alike, so only the parcel id tells them apart.
        descriptor = assemble(LOOP, parcel)
        with pytest.raises(ValueError, match="must come from the given parcel"):
            volume_bound(descriptor, compact_parcel)


class TestTracing:
    def test_empty_word_stays_home(self, parcel):
        descriptor = assemble(TWO, parcel)
        result = trace_word(descriptor, Word(()))
        assert result.kinds == ("V1",)
        assert result.terminal_kind == "V1"
        assert result.crossings == 0

    def test_forward_letter(self, parcel):
        descriptor = assemble(TWO, parcel)
        result = trace_word(descriptor, Word((0,)))
        assert result.kinds == ("V1", "A_minus", "A_plus", "V0")
        assert result.crossings == 3

    def test_inverse_letter_enters_plus_side(self, parcel):
        descriptor = assemble(TWO, parcel)
        result = trace_word(descriptor, Word((1,)))
        assert result.kinds == ("V1", "A_plus", "A_minus", "V0")

    def test_matches_a_trace_through_the_permutations(self, parcel):
        # The reference steps back along a permutation by search and names
        # each edge block from the letter; the traced kinds must agree for
        # every word of length <= 3 on every graph of index 3 and 4.
        words = [Word(letters) for n in range(4) for letters in product(range(4), repeat=n)]
        for table in enumerate_subgroups(3) + enumerate_subgroups(4):
            graph = from_subgroup(table, frozenset({0}))
            descriptor = assemble(graph, parcel)
            for word in words:
                v, kinds = 0, ["V1"]
                for letter in word.letters:
                    perm, block = (graph.perm_a, "A") if letter < 2 else (graph.perm_b, "B")
                    if letter % 2 == 0:
                        v, sides = perm[v], ("minus", "plus")
                    else:
                        v, sides = perm.index(v), ("plus", "minus")
                    kinds += [f"{block}_{side}" for side in sides]
                    kinds.append("V1" if v == 0 else "V0")
                assert trace_word(descriptor, word).kinds == tuple(kinds)

    def test_crossing_count(self, parcel):
        descriptor = assemble(TWO, parcel)
        for letters in ((0,), (0, 2), (0, 3, 0, 2), (2, 2, 2, 2)):
            word = Word(letters)
            assert trace_word(descriptor, word).crossings == 3 * len(word)

    def test_decoration_required(self, parcel):
        uncolored = assemble(DecoratedGraph(1, (0,), (0,), frozenset()), parcel)
        with pytest.raises(ValueError):
            trace_word(uncolored, Word((0,)))
        two_colored = assemble(
            DecoratedGraph(2, (1, 0), (0, 1), frozenset({0, 1})), parcel
        )
        with pytest.raises(ValueError):
            trace_word(two_colored, Word((0,)))

    def test_distinguishing_word_separates_terminals(self, parcel):
        tables = enumerate_subgroups(2)
        descriptors = [
            assemble(from_subgroup(t, frozenset({0})), parcel) for t in tables
        ]
        word = distinguishing_word(tables[0], tables[1])
        t0 = trace_word(descriptors[0], word)
        t1 = trace_word(descriptors[1], word)
        assert {t0.terminal_kind, t1.terminal_kind} == {"V0", "V1"}


class TestCounting:
    def test_frozen_budget_30(self, parcel):
        report = count_lower_bound(Fraction(30), parcel)
        assert report.k == 6
        assert report.descriptor_count == 3447
        assert report.floor_bound == 216

    def test_one_block_budget(self, parcel):
        report = count_lower_bound(Fraction(5), parcel)
        assert (report.k, report.descriptor_count, report.floor_bound) == (1, 1, 1)

    def test_budget_too_small(self, parcel):
        with pytest.raises(ValueError):
            count_lower_bound(Fraction(4), parcel)

    @pytest.mark.parametrize(
        "v, message",
        [
            (Fraction(10**4400), r"capped at index 1557 \(got <past Python's 4,300-digit limit>\)"),
            (Fraction(1, 10**4400), "volume budget <past Python's 4,300-digit limit> is below the one"),
            (Fraction(-(10**4400)), "volume budget <past Python's 4,300-digit limit> is below"),
            (Fraction(10**4300 + 1, 10**4300), "volume budget <past Python's 4,300-digit limit> is"),
        ],
        ids=["huge", "tiny", "negative", "long-fraction"],
    )
    def test_refusal_names_the_scale_past_printable_digits(self, parcel, v, message):
        # A budget or index past the 4,300 digits str() prints once raised
        # Python's own digit-limit error from the refusal message.
        with pytest.raises(ValueError, match=message):
            count_lower_bound(v, parcel)

    @pytest.mark.parametrize(
        "v, refusal",
        [
            (Fraction(10**4000), "capped at index 1557 (got <4,000 characters>)"),
            (Fraction(-(10**4000)), "volume budget <4,002 characters> is below the one-block"),
            (Fraction(1, 10**4000), "volume budget <4,003 characters> is below the one-block"),
        ],
        ids=["long-index", "long-negative", "long-fraction"],
    )
    def test_refusal_names_a_long_budget_or_index_by_its_length(self, parcel, v, refusal):
        # Each was once spelled in full: 4,000 digits and more.
        with pytest.raises(ValueError) as caught:
            count_lower_bound(v, parcel)
        assert refusal in str(caught.value)

    def test_monotone_in_budget(self, parcel):
        counts = [count_lower_bound(v, parcel).descriptor_count for v in (5, 10, 17, 25, 30)]
        assert counts == sorted(counts)

    def test_volume_scale_shifts_threshold(self, parcel):
        halved = with_block_volumes(parcel, [Fraction(1, 2)] * 6)
        assert count_lower_bound(Fraction(15), halved).k == 6

    def test_descriptor_stream_matches_count(self, parcel):
        assert sum(1 for _ in descriptors_for_index(3, parcel)) == 13

    def test_bracket_holds_against_the_recursion(self):
        # k! <= a_k <= k * k!, proved in the assembler docstring.
        for k in range(1, 401):
            assert factorial(k) <= hall_count(k) <= k * factorial(k), k

    def test_bracket_holds_against_enumeration(self):
        for k in range(1, 8):
            assert factorial(k) <= len(enumerate_subgroups(k)) <= k * factorial(k), k

    @pytest.mark.parametrize("shift", [-1, 1], ids=["below-k!", "above-k*k!"])
    def test_count_outside_the_bracket_raises(self, parcel, monkeypatch, shift):
        # At k = 6, k! = 720 and k * k! = 4320 bracket a_6 = 3447.
        wrong = 720 - 1 if shift < 0 else 4320 + 1
        monkeypatch.setattr(assembler, "hall_count", lambda k: wrong)
        with pytest.raises(RuntimeError, match=r"outside \[k!, k \* k!\]"):
            count_lower_bound(Fraction(30), parcel)


class TestSerialization:
    def test_round_trip_exact(self, parcel):
        descriptor = assemble(TWO, parcel)
        text = descriptor_to_json(descriptor)
        back = descriptor_from_json(text)
        assert descriptor_to_json(back) == text
        assert back == descriptor

    def test_document_is_stable(self, parcel):
        descriptor = assemble(LOOP, parcel)
        assert descriptor_to_json(descriptor) == descriptor_to_json(descriptor)
        assert descriptor_to_json(descriptor).endswith("\n")

    def test_fractional_volume_survives(self, parcel):
        halved = with_block_volumes(parcel, [Fraction(1, 2)] * 6)
        descriptor = assemble(LOOP, halved)
        back = descriptor_from_json(descriptor_to_json(descriptor))
        assert back.volume_bound == Fraction(5, 2)

    def test_volumes_round_trip_under_a_raised_or_lifted_digit_limit(self):
        # Each part of the volume may have as many digits as the running
        # limit allows, and any number when the limit is off.
        previous = sys.get_int_max_str_digits()
        try:
            for limit, volumes in (
                (10_000, [10**5000, Fraction(7, 10**4999), Fraction(10**9999, 3)]),
                (0, [10**12000]),
            ):
                sys.set_int_max_str_digits(limit)
                for volume in volumes:
                    descriptor = ManifoldDescriptor(LOOP, "p", volume)
                    assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor
        finally:
            sys.set_int_max_str_digits(previous)

    def test_emit_writes_all_files(self, parcel, tmp_path):
        written = emit_descriptors(2, parcel, tmp_path)
        files = sorted(tmp_path.glob("descriptor_*.json"))
        assert written == len(files) == 3
        for path in files:
            descriptor = descriptor_from_json(path.read_text())
            assert volume_bound(descriptor, parcel) == 10


class TestParcelAwareRead:
    def test_edited_volume_is_refused_with_the_parcel(self, parcel):
        document = _document(LOOP, parcel)
        assert document["volume_bound"] == "5"
        document["volume_bound"] = "7/3"
        text = _dumps(document)
        with pytest.raises(ValueError, match="volume_bound '7/3'"):
            descriptor_from_json(text, parcel)
        assert descriptor_from_json(text).volume_bound == Fraction(7, 3)

    def test_foreign_parcel_is_refused(self, parcel, compact_parcel):
        text = descriptor_to_json(assemble(TWO, compact_parcel))
        with pytest.raises(ValueError, match="names parcel 'anisotropic-n4'"):
            descriptor_from_json(text, parcel)
        assert descriptor_from_json(text, compact_parcel) == assemble(TWO, compact_parcel)

    def test_priced_parcel_reads_its_own_documents(self, parcel):
        priced = with_block_volumes(parcel, [Fraction(1, 3), 2, 1, 1, Fraction(3, 2), 1])
        text = descriptor_to_json(assemble(TWO, priced))
        assert descriptor_from_json(text, priced).volume_bound == Fraction(34, 3)
        with pytest.raises(ValueError):
            descriptor_from_json(text, parcel)


def _dumps_document(descriptor):
    """The document as json.dumps writes it: the oracle for the fixed writer."""
    graph = descriptor.source_graph
    instances, gluings = _pattern_as_documented(graph)
    document = {
        "graph": {
            "vertices": graph.vertex_count,
            "perm_a": list(graph.perm_a),
            "perm_b": list(graph.perm_b),
            "colored": sorted(graph.colored),
        },
        "parcel_id": descriptor.parcel_id,
        "instances": instances,
        "gluings": gluings,
        "volume_bound": str(descriptor.volume_bound),
    }
    return _dumps(document)


@st.composite
def connected_graphs(draw, max_degree=7):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    perm_a = draw(st.permutations(range(n)))
    perm_b = draw(st.permutations(range(n)))
    colored = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    assume(len(_bfs((perm_a, perm_b), 0)[0]) == n)
    return DecoratedGraph(n, perm_a, perm_b, colored)


positive_volumes = st.fractions(min_value=Fraction(1, 720), max_value=1000, max_denominator=720)
parcel_ids = st.one_of(st.text(), st.sampled_from(["isotropic-n4", "anisotropic-n4"]))


def _pattern_as_documented(graph):
    """A document's rows, as JSON values, spelled out from _pick's docstring one row at a time."""
    k = graph.vertex_count
    instances = [[f"v{v}", "V1" if v in graph.colored else "V0", f"vertex {v}"] for v in range(k)]
    for x, perm in (("a", graph.perm_a), ("b", graph.perm_b)):
        for v in range(k):
            serves = f"{x}-edge {v}->{perm[v]}"
            instances.append([f"{x}{v}-", f"{x.upper()}_minus", serves])
            instances.append([f"{x}{v}+", f"{x.upper()}_plus", serves])
    gluings = []
    for v in range(k):
        (a_tail,) = [u for u in range(k) if graph.perm_a[u] == v]
        (b_tail,) = [u for u in range(k) if graph.perm_b[u] == v]
        gluings.append([[f"v{v}", 0], [f"a{v}-", 0]])
        gluings.append([[f"v{v}", 1], [f"a{a_tail}+", 1]])
        gluings.append([[f"v{v}", 2], [f"b{v}-", 0]])
        gluings.append([[f"v{v}", 3], [f"b{b_tail}+", 1]])
    for x in ("a", "b"):
        for v in range(k):
            gluings.append([[f"{x}{v}-", 1], [f"{x}{v}+", 0]])
    return instances, gluings


def _written_rows(graph, parcel):
    document = _document(graph, parcel)
    return document["instances"], document["gluings"]


class TestGluingPattern:
    # Degrees past the enumeration cap and past _coloring_rows's cache size,
    # so sizes evict one another between examples.
    @given(connected_graphs(max_degree=12))
    @example(LOOP)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_documented_pattern(self, parcel, graph):
        assert _written_rows(graph, parcel) == _pattern_as_documented(graph)


class TestPatternRows:
    def test_large_graph_round_trip(self, parcel):
        graph = _cycle_graph(3000, 7, {0, 5})
        cached = _coloring_rows.cache_info(), _permutation_rows.cache_info()
        descriptor = assemble(graph, parcel)
        assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor
        assert _written_rows(graph, parcel) == _pattern_as_documented(graph)
        assert (_coloring_rows.cache_info(), _permutation_rows.cache_info()) == cached

    @pytest.mark.parametrize("graph", [SEVENTEEN, FORTY], ids=["17", "40"])
    def test_writer_examples_stay_uncached(self, parcel, graph):
        # TestWriter's examples of these sizes cover the uncached tables.
        assert graph.vertex_count > _CACHED_SIZE
        cached = _coloring_rows.cache_info(), _permutation_rows.cache_info()
        descriptor_to_json(assemble(graph, parcel))
        assert (_coloring_rows.cache_info(), _permutation_rows.cache_info()) == cached

    def test_kept_rows_share_storage(self):
        # Two index-6 a-permutations with the edge 0 -> 1: vertex 1's a-in
        # gluing row is the same object in both entries.
        first = _permutation_rows(0, (1, 0, 2, 3, 4, 5))
        second = _permutation_rows(0, (1, 2, 3, 4, 5, 0))
        assert len(first) == 3 and len(_coloring_rows(6, frozenset({0}))) == 5
        assert json.loads(first[1][1]) == [["v1", 1], ["a0+", 1]]
        assert first[1][1] is second[1][1]

    def test_rows_past_the_cached_size_are_built_afresh(self):
        # Python 3.12 never frees an interned string, so rows that are not
        # kept are not interned: each call builds its own.
        first, second = (_permutation_rows.__wrapped__(0, SEVENTEEN.perm_a) for _ in "12")
        assert first == second
        assert all(row is not again for row, again in zip(first[1], second[1]))

    @pytest.mark.parametrize("graph", [SIXTEEN, SEVENTEEN], ids=["16", "17"])
    def test_colorings_around_the_cached_size_match_json_dumps(self, parcel, graph):
        for colored in _colorings(2):
            recolored = DecoratedGraph(graph.vertex_count, graph.perm_a, graph.perm_b, colored)
            descriptor = assemble(recolored, parcel)
            assert descriptor_to_json(descriptor) == _dumps_document(descriptor)

    def test_permutation_rows_stay_within_their_bound(self, parcel):
        # Each graph brings two new keys, (0, perm) and (1, perm o cycle);
        # the pair generates the 8-cycle, so the graph is connected.
        bound = _permutation_rows.cache_info().maxsize
        cycle = [(v + 1) % 8 for v in range(8)]
        graphs = [
            DecoratedGraph(8, perm, [perm[w] for w in cycle], {0})
            for perm in islice(permutations(range(8)), bound // 2 + 10)
        ]
        for graph in graphs:
            descriptor_to_json(assemble(graph, parcel))
            assert _permutation_rows.cache_info().currsize <= bound
        assert _permutation_rows.cache_info().currsize == bound
        # The first graphs' rows were evicted, and are rendered again.
        for graph in graphs[:3] + graphs[-3:]:
            descriptor = assemble(graph, parcel)
            assert descriptor_to_json(descriptor) == _dumps_document(descriptor)
        _permutation_rows.cache_clear()


def _colorings(k):
    return [frozenset(v for v in range(k) if mask >> v & 1) for mask in range(2**k)]


class TestRenderedOnce:
    def test_every_coloring_of_one_pair_interleaved(self, parcel):
        # One index-4 permutation pair under all 16 colorings, each write
        # followed by another index-4 graph under a coloring of its own.
        tables = enumerate_subgroups(4)
        pair, others = tables[10], tables[:10] + tables[11:]
        colorings = _colorings(4)
        for n, colored in enumerate(colorings):
            other = others[(7 * n) % len(others)]
            for graph in (
                from_subgroup(pair, colored),
                from_subgroup(other, colorings[(5 * n + 3) % len(colorings)]),
            ):
                descriptor = assemble(graph, parcel)
                assert descriptor_to_json(descriptor) == _dumps_document(descriptor)

    def test_a_seen_graph_formats_nothing(self, parcel, compact_parcel, monkeypatch):
        # An equal graph under another parcel: only parcel_id and the volume differ.
        first = _cycle_graph(13, 2, {1, 4})
        second = DecoratedGraph(13, first.perm_a, first.perm_b, {4, 1})
        caches = (_coloring_rows, _permutation_rows)
        descriptor_to_json(assemble(first, parcel))
        misses = [cache.cache_info().misses for cache in caches]
        formatted = []
        int_list = assembler._int_list
        monkeypatch.setattr(
            assembler, "_int_list", lambda values: formatted.append(values) or int_list(values)
        )
        descriptor = assemble(second, compact_parcel)
        text = descriptor_to_json(descriptor)
        assert formatted == []
        assert [cache.cache_info().misses for cache in caches] == misses
        monkeypatch.undo()
        assert text == _dumps_document(descriptor)

    def test_only_graphs_up_to_the_cached_size_are_kept(self, parcel):
        fresh = with_block_volumes(parcel, [1] * 6)
        cached = _coloring_rows.cache_info()
        for graph in (SEVENTEEN, FORTY):
            descriptor = assemble(graph, fresh)
            assert volume_bound(descriptor, fresh) == 5 * graph.vertex_count
            descriptor_to_json(descriptor)
        assert _coloring_rows.cache_info() == cached
        assert fresh._volumes == {}
        descriptor_to_json(assemble(SIXTEEN, fresh))
        assert fresh._volumes == {(16, 1): 80}
        consulted = _coloring_rows.cache_info()
        assert consulted.hits + consulted.misses == cached.hits + cached.misses + 1


class TestWriter:
    @given(connected_graphs(), st.lists(positive_volumes, min_size=6, max_size=6), parcel_ids)
    @example(LOOP, [1] * 6, 'quote " backslash \\ tab \t nul \x00 \x1f')
    @example(TWO, [Fraction(1, 3)] * 6, "non-ASCII: \u00e9\u20ac\U0001f600 \ud800")
    @example(DecoratedGraph(3, (1, 2, 0), (0, 1, 2), frozenset()), [1] * 6, "")
    @example(TWELVE, [1, Fraction(5, 2), 1, 1, 1, Fraction(1, 2)], "isotropic-n4")
    @example(SIXTEEN, [1] * 6, "anisotropic-n4")
    @example(SEVENTEEN, [Fraction(1, 3), 2, 1, 1, Fraction(3, 2), 1], "isotropic-n4")
    @example(FORTY, [1] * 6, "anisotropic-n4")
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, parcel, graph, volumes, parcel_id):
        built = assemble(graph, with_block_volumes(parcel, volumes))
        descriptor = ManifoldDescriptor(graph, parcel_id, built.volume_bound)
        text = descriptor_to_json(descriptor)
        assert text == _dumps_document(descriptor)
        assert descriptor_from_json(text) == descriptor

    @given(
        connected_graphs(),
        st.text(),
        st.one_of(st.integers(), st.fractions(), st.sampled_from([0, -5, Fraction(0)])),
    )
    @example(LOOP, "p", -5)
    @example(TWO, "isotropic-n4", Fraction(-7, 3))
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_descriptor_reads_back(self, graph, parcel_id, volume):
        # Every descriptor the constructor builds writes a document that
        # reads back equal; a volume <= 0 is refused when it is built.
        try:
            descriptor = ManifoldDescriptor(graph, parcel_id, volume)
        except ValueError as refusal:
            assert volume <= 0 and str(refusal).endswith("is not positive")
            return
        assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_enumerated_tables_match_json_dumps(self, parcel, k, data):
        tables = enumerate_subgroups(k)
        table = tables[data.draw(st.integers(min_value=0, max_value=len(tables) - 1))]
        colored = data.draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
        descriptor = assemble(from_subgroup(table, colored), parcel)
        assert descriptor_to_json(descriptor) == _dumps_document(descriptor)

    @given(connected_graphs(), st.lists(positive_volumes, min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_total_volume_is_the_plain_sum(self, parcel, graph, volumes):
        priced = with_block_volumes(parcel, volumes)
        k, colored = graph.vertex_count, len(graph.colored)
        counts = (k - colored, colored, k, k, k, k)
        plain = sum(
            (count * volume for count, volume in zip(counts, priced.volumes)), Fraction(0)
        )
        assert _total_volume(graph, priced) == plain
        assert volume_bound(assemble(graph, priced), priced) == plain

    def test_volume_over_the_cap_raises(self, parcel):
        # Real volumes never exceed the cap 5k * V; TWO's volume 34/3 does
        # once the parcel's stored largest block volume is lowered to 1, cap 10.
        priced = with_block_volumes(parcel, [Fraction(1, 3), 2, 1, 1, Fraction(3, 2), 1])
        object.__setattr__(priced, "max_volume", Fraction(1))
        with pytest.raises(RuntimeError, match=r"^volume 34/3 exceeds the cap 10$"):
            assemble(TWO, priced)
        descriptor = ManifoldDescriptor(TWO, priced.parcel_id, Fraction(34, 3))
        with pytest.raises(RuntimeError, match=r"^volume 34/3 exceeds the cap 10$"):
            volume_bound(descriptor, priced)
        assert priced._volumes == {}

    def test_parcels_sharing_an_id_keep_their_own_volumes(self, parcel):
        # Same parcel_id, other block prices: each parcel's kept volumes are its own.
        plain = with_block_volumes(parcel, [1] * 6), (5, 10)
        priced = (
            with_block_volumes(parcel, [Fraction(1, 3), 2, 1, 1, Fraction(3, 2), 1]),
            (Fraction(13, 2), Fraction(34, 3)),
        )
        assert plain[0].parcel_id == priced[0].parcel_id
        for given, volumes in (plain, priced, plain, priced, plain):
            for graph, volume in zip((LOOP, TWO), volumes):
                descriptor = assemble(graph, given)
                assert descriptor.volume_bound == volume
                assert volume_bound(descriptor, given) == volume
                text = descriptor_to_json(descriptor)
                assert descriptor_from_json(text, given).volume_bound == volume


class TestParcelVolumeTerms:
    # One priced parcel each with a volume of denominator 3, 2 and 720.
    @pytest.mark.parametrize(
        "volumes",
        [
            [Fraction(1, 3), 2, 1, 1, Fraction(3, 2), 1],
            [1, 1, Fraction(5, 2), 1, 1, Fraction(1, 2)],
            [Fraction(719, 720), Fraction(1, 720), 3, Fraction(7, 3), Fraction(1, 2), 1],
        ],
    )
    @pytest.mark.parametrize("graph", [LOOP, TWO, SEVENTEEN], ids=["loop", "two", "seventeen"])
    def test_stored_terms_match_the_blocks(self, parcel, volumes, graph):
        priced = with_block_volumes(parcel, volumes)
        assert priced.max_volume == max(priced.volumes)
        assert priced.max_volume == max(Fraction(v) for v in volumes)
        k, colored = graph.vertex_count, len(graph.colored)
        counts = (k - colored, colored, k, k, k, k)
        plain = sum(
            (count * volume for count, volume in zip(counts, priced.volumes)), Fraction(0)
        )
        assert _total_volume(graph, priced) == plain
        assert _total_volume(graph, parcel) == 5 * k


def _malformed_documents(parcel):
    """(what is wrong, text) pairs of LOOP documents that must be refused."""
    valid = _document(LOOP, parcel)

    def edited(**changes):
        document = json.loads(json.dumps(valid))
        for key, value in changes.items():
            if "." in key:
                outer, inner = key.split(".")
                document[outer][inner] = value
            else:
                document[key] = value
        return _dumps(document)

    # Each edit below is the only difference from a document that reads back.
    assert descriptor_from_json(edited()) == assemble(LOOP, parcel)
    missing_graph = {key: value for key, value in valid.items() if key != "graph"}
    return [
        ("not json", "{"),
        ("a list", _dumps([valid])),
        ("a string", _dumps("graph")),
        ("missing graph", _dumps(missing_graph)),
        ("the compact layout", json.dumps(valid)),
        ("graph a list", edited(graph=[1])),
        ("zero denominator", edited(volume_bound="1/0")),
        ("negative volume", edited(volume_bound="-5")),
        ("zero volume", edited(volume_bound="0")),
        ("float volume", edited(volume_bound=5.5)),
        ("infinite volume", edited(volume_bound=float("inf"))),
        ("integer volume", edited(volume_bound=5)),
        ("volume not a number", edited(volume_bound="five")),
        ("integer parcel_id", edited(parcel_id=3)),
        ("nested colored", edited(**{"graph.colored": [[0]]})),
        ("integer perm_a", edited(**{"graph.perm_a": 5})),
        ("string vertices", edited(**{"graph.vertices": "1"})),
        ("boolean vertices", edited(**{"graph.vertices": True})),
        ("float perm entry", edited(**{"graph.perm_b": [0.0]})),
        ("no vertices", edited(**{"graph.vertices": 0, "graph.perm_a": [], "graph.perm_b": []})),
        ("colored outside", edited(**{"graph.colored": [1]})),
        ("instances a number", edited(instances=7)),
        ("volume not in lowest terms", edited(volume_bound="10/2")),
        ("volume with a leading zero", edited(volume_bound="05")),
        ("colored repeated", edited(**{"graph.colored": [0, 0]})),
        ("an extra key", edited(comment="x")),
        ("an extra graph key", edited(**{"graph.name": "loop"})),
    ]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)

# The byte-level fuzz's seeds: the documents of the first index-1..3 graphs,
# each with its basepoint, no vertex or every vertex colored.
_SEED_GRAPHS = [
    DecoratedGraph(k, table.perm_a, table.perm_b, frozenset(colored))
    for k in (1, 2, 3)
    for table in enumerate_subgroups(k)[:4]
    for colored in ({0}, set(), set(range(k)))
]
# Written into a document: JSON's punctuation, digits, escapes and bytes
# outside ASCII.
_DOCUMENT_PIECES = ["0", "7", "-", '"', ",", ":", "[", "]", "{", "}", " ", "\n", "\\", "/",
                    "e", "é", "\x00"]


@st.composite
def byte_edited_documents(draw, parcel):
    """A seed document edited one to three times from its "graph" line on,
    the part the reader decodes (an edit before it meets only the byte
    check): truncated, a piece inserted, a few characters deleted, the
    "graph" or "parcel_id" line repeated at a line break, or a run of 4,000
    or 5,000 digits spliced in."""
    text = descriptor_to_json(assemble(draw(st.sampled_from(_SEED_GRAPHS)), parcel))
    for _ in range(draw(st.integers(1, 3))):
        places = range(max(text.find('\n  "graph": '), 0), len(text) + 1)
        edit = draw(st.sampled_from(["truncate", "insert", "delete", "repeat", "digits"]))
        if edit == "repeat":
            start = text.find(draw(st.sampled_from(['\n  "graph": ', '\n  "parcel_id": '])))
            if start < 0:
                continue
            piece = "\n" + text[start + 1 :].partition("\n")[0]
            places = [i for i in places if text[i : i + 1] == "\n"]
        elif edit == "digits":  # beside a digit of the graph or of the last two lines
            piece = "9" * draw(st.sampled_from([4000, 5000]))
            rows = range(text.find('\n  "instances": '), text.rfind('\n  "parcel_id": '))
            places = [i for i in places if text[i : i + 1].isdigit() and i not in rows]
        else:
            piece = draw(st.sampled_from(_DOCUMENT_PIECES))
        if not places:
            continue
        at = draw(st.sampled_from(places))
        if edit == "truncate":
            text = text[:at]
        elif edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 8)) :]
        else:
            text = text[:at] + piece + text[at:]
    return text


def _no_fraction(*args):
    raise AssertionError(f"Fraction{args} built")


class TestMalformedDocuments:
    def test_disconnected_graph_refused(self, parcel):
        # TWO's document with b's row as its a-row: both rows fix every
        # vertex, so the graph has two components and cannot be built.
        text = descriptor_to_json(assemble(TWO, parcel))
        row = '"perm_a": [\n      {},\n      {}\n    ]'
        edited = text.replace(row.format(1, 0), row.format(0, 1))
        assert edited != text
        for given_parcel in (None, parcel):
            with pytest.raises(ValueError, match="does not act transitively"):
                descriptor_from_json(edited, given_parcel)

    @pytest.mark.parametrize("vertex", [1.0, True], ids=["float", "bool"])
    def test_colored_vertices_are_ints(self, parcel, vertex):
        # Equal to the vertex 1; the writer would spell them 1.0 and true.
        document = _document(DecoratedGraph(2, (1, 0), (0, 1), {1}), parcel)
        document["graph"]["colored"] = [vertex]
        for given_parcel in (None, parcel):
            with pytest.raises(ValueError, match="colored vertices must be vertices"):
                descriptor_from_json(_dumps(document), given_parcel)

    @pytest.mark.parametrize(
        "key, value",
        [("vertices", 7), ("perm_a", [7]), ("perm_b", [0, 7]), ("colored", [7]),
         ("volume_bound", "7")],
    )
    def test_integers_past_the_digit_limit(self, parcel, key, value, monkeypatch):
        # json reads an int literal with int(), and the reader a volume's
        # parts: 5,000 digits were once refused in Python's own words,
        # "Exceeds the limit (4300 digits)...", and a volume of 5,000 digits
        # as not spelled.  No Fraction is built.
        document = _document(LOOP, parcel)
        (document if key == "volume_bound" else document["graph"])[key] = value
        text = _dumps(document).replace("7", "1" * 5000)
        assert len(text) == len(_dumps(document)) + 4999
        message = (
            "document has a numeral past Python's 4,300-digit limit"
            f" (a text of {len(text):,} characters)"
        )
        monkeypatch.setattr(assembler, "Fraction", _no_fraction)
        for given_parcel in (None, parcel):
            with pytest.raises(ValueError) as refusal:
                descriptor_from_json(text, given_parcel)
            assert str(refusal.value) == message

    @pytest.mark.parametrize("count", [True, 1.0], ids=["bool", "float"])
    def test_vertex_count_is_an_int(self, parcel, count):
        # Equal to the vertex count 1; the writer would spell them True and 1.0.
        document = _document(DecoratedGraph(1, (0,), (0,), {0}), parcel)
        document["graph"]["vertices"] = count
        for given_parcel in (None, parcel):
            with pytest.raises(ValueError, match="degree must be an int"):
                descriptor_from_json(_dumps(document), given_parcel)

    @pytest.mark.parametrize(
        "volume", ["1e10000000", "1e4400", "1E5", "5.0", "+5", " 5", "5\n", "\u0665"]
    )
    def test_volume_spelling_refused_before_parsing(self, parcel, volume, monkeypatch):
        # The writer spells a volume as str(Fraction) does: digits, or digits
        # "/" digits.  Fraction("1e10000000") once took 12.7 s to build the
        # number the byte check then refused.
        text = _dumps(dict(_document(LOOP, parcel), volume_bound=volume))
        monkeypatch.setattr(assembler, "Fraction", _no_fraction)
        for given_parcel in (None, parcel):
            with pytest.raises(ValueError, match="volume_bound is not spelled"):
                descriptor_from_json(text, given_parcel)

    def test_each_is_a_value_error(self, parcel):
        for what, text in _malformed_documents(parcel):
            try:
                descriptor_from_json(text)
            except ValueError:
                continue
            pytest.fail(f"accepted a document with {what}")

    @given(
        st.sampled_from(["graph", "graph.vertices", "graph.perm_a", "graph.perm_b",
                         "graph.colored", "parcel_id", "volume_bound", "instances", "gluings"]),
        st.one_of(st.just(KeyError), json_values),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_edit_reads_back_or_is_a_value_error(self, parcel, key, value):
        document = _document(LOOP, parcel)
        outer, _, inner = key.partition(".")
        holder, name = (document[outer], inner) if inner else (document, outer)
        if value is KeyError:
            del holder[name]
        else:
            holder[name] = value
        text = _dumps(document)
        try:
            descriptor = descriptor_from_json(text)
        except ValueError:
            return
        assert descriptor_to_json(descriptor) == text

    @pytest.mark.parametrize(
        "field, value, refusal",
        [
            ("parcel_id", "p" * 5000, "document names parcel <5,000 characters>, not 'isotropic"),
            ("volume_bound", "-" + "9" * 4000, "volume_bound <4,001 characters> is not positive"),
            ("volume_bound", "9" * 4000, "volume_bound <4,000 characters> is not the volume"),
        ],
        ids=["parcel_id", "negative-volume", "other-volume"],
    )
    def test_a_long_value_is_named_by_its_length(self, parcel, field, value, refusal):
        # Each was once quoted in full.
        text = _dumps(dict(_document(LOOP, parcel), **{field: value}))
        with pytest.raises(ValueError) as caught:
            descriptor_from_json(text, parcel)
        assert str(caught.value).startswith(refusal)

    @given(st.data(), st.booleans())
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_byte_edits_read_back_or_are_short_value_errors(self, parcel, data, with_parcel):
        # Only a ValueError escapes, its message is at most 1,000 characters
        # however long the document, and never Python's digit-limit text.
        text = data.draw(byte_edited_documents(parcel))
        try:
            descriptor = descriptor_from_json(text, parcel if with_parcel else None)
        except ValueError as error:
            message = str(error)
            assert len(message) <= 1000 and "Exceeds the limit" not in message, message[:500]
            return
        assert descriptor_to_json(descriptor) == text


def _graph_line(text):
    """The document's top-level "graph" entry, from its line break to its comma."""
    return text[text.index('\n  "graph": ') : text.index('\n  "instances": ')]


class TestPartialDecode:
    """The reader decodes only the graph and the parcel_id line onwards."""

    def test_texts_around_the_decoded_lines_are_refused(self, parcel):
        text = descriptor_to_json(assemble(LOOP, parcel))
        other = descriptor_to_json(assemble(TWO, parcel))
        line = '\n  "parcel_id": '
        refused = {
            "its graph repeated first": "{" + _graph_line(text) + text[1:],
            "another graph first": "{" + _graph_line(other) + text[1:],
            "parcel_id repeated": text.replace(line, line + '"isotropic-n4",' + line),
            "another parcel_id first": text.replace(line, line + '"x",' + line),
            "an extra final newline": text + "\n",
            "no final newline": text[:-1],
        }
        for what, edited in refused.items():
            # Every edit leaves JSON that json.loads reads as the LOOP document.
            assert json.loads(edited) == json.loads(text), what
            with pytest.raises(ValueError):
                descriptor_from_json(edited)
        assert descriptor_from_json(text) == assemble(LOOP, parcel)

    def test_only_text_is_read(self, parcel):
        text = descriptor_to_json(assemble(LOOP, parcel))
        for value in (None, text.encode("ascii")):
            with pytest.raises(ValueError, match="is text"):
                descriptor_from_json(value)

    def test_volume_is_parsed_once(self, parcel, monkeypatch):
        text = descriptor_to_json(assemble(TWO, parcel))
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        descriptor = descriptor_from_json(text)
        monkeypatch.undo()
        volume = descriptor.volume_bound
        assert built == [(volume.numerator, volume.denominator)]
        # What the one parse refuses is still a ValueError.
        written = json.dumps(str(descriptor.volume_bound))
        for volume in ("null", "[1]", '"1/x"', '"1/0"'):
            with pytest.raises(ValueError):
                descriptor_from_json(text.replace(written, volume))

    def test_markers_inside_parcel_id_round_trip(self, parcel):
        parcel_id = 'p\n  "graph": {"vertices": 2},\n  "parcel_id": "q"'
        descriptor = ManifoldDescriptor(TWO, parcel_id, 10)
        text = descriptor_to_json(descriptor)
        assert descriptor_from_json(text) == descriptor


# sha256 over the concatenated index-5 documents (isotropic parcel, n = 4) in
# enumeration order.
INDEX5_DOCUMENTS_SHA256 = "ce884cbc08f96e307afefc543383b7e9d559e85f60732432bb3b815e6875eba3"


class TestGoldenDocuments:
    @pytest.mark.parametrize("name", ["LOOP", "TWO"])
    def test_verbatim_document(self, parcel, name):
        graph, document = GOLDEN[name]
        assert descriptor_to_json(assemble(graph, parcel)) == document
        assert descriptor_to_json(descriptor_from_json(document)) == document

    def test_index5_digest(self, parcel):
        digest = hashlib.sha256()
        count = 0
        for descriptor in descriptors_for_index(5, parcel):
            digest.update(descriptor_to_json(descriptor).encode("ascii"))
            count += 1
        assert count == 461
        assert digest.hexdigest() == INDEX5_DOCUMENTS_SHA256


# Every connected graph of at most 3 vertices under every coloring: 2 of
# one vertex, 12 of two and 208 of three.
SMALL_GRAPHS = [
    DecoratedGraph(n, perm_a, perm_b, {v for v in range(n) if mask >> v & 1})
    for n in (1, 2, 3)
    for perm_a in permutations(range(n))
    for perm_b in permutations(range(n))
    if len(_bfs((perm_a, perm_b), 0)[0]) == n
    for mask in range(2**n)
]
KEY_ROUTE = "subgroup keys of the source graphs compared"
COVER_ROUTE = "source graphs searched for a common decorated cover"


class TestVerdicts:
    def test_same_graph_commensurable(self, parcel):
        d1 = assemble(TWO, parcel)
        relabeled = DecoratedGraph(2, (1, 0), (0, 1), frozenset({1}))
        d2 = assemble(relabeled, parcel)
        verdict = commensurability_verdict(d1, d2, parcel)
        assert verdict.commensurable
        assert verdict.checked == ("parcel certificates complete", KEY_ROUTE)
        assert verdict.assumed  # geometric steps are declared, not computed

    def test_matches_the_cover_decision_on_every_small_pair(self, parcel):
        assert len(SMALL_GRAPHS) == 222
        descriptors = [assemble(graph, parcel) for graph in SMALL_GRAPHS]
        wrong = [
            (d1.source_graph, d2.source_graph)
            for d1 in descriptors
            for d2 in descriptors
            if commensurability_verdict(d1, d2, parcel).commensurable
            != has_common_decorated_cover(d1.source_graph, d2.source_graph).has_cover
        ]
        assert wrong == []

    @pytest.mark.parametrize(
        "g1, g2, commensurable",
        [
            # A loop colored at its vertex, and its 2-fold cover colored at both.
            (LOOP, DecoratedGraph(2, (1, 0), (0, 1), {0, 1}), True),
            # An uncolored loop and an uncolored 2-cycle: the cycle covers the loop.
            (DecoratedGraph(1, (0,), (0,), set()), DecoratedGraph(2, (1, 0), (0, 1), set()), True),
            # Colored against uncolored: no cover is color-consistent.
            (TWO, DecoratedGraph(2, (1, 0), (0, 1), set()), False),
        ],
        ids=["double-cover", "uncolored", "one-side-colored"],
    )
    def test_graphs_without_one_colored_vertex_take_the_cover_route(
        self, parcel, g1, g2, commensurable
    ):
        verdict = commensurability_verdict(assemble(g1, parcel), assemble(g2, parcel), parcel)
        assert verdict.commensurable is commensurable
        assert verdict.checked == ("parcel certificates complete", COVER_ROUTE)

    def test_different_graphs_not_commensurable(self, parcel):
        d1 = assemble(LOOP, parcel)
        d2 = assemble(TWO, parcel)
        verdict = commensurability_verdict(d1, d2, parcel)
        assert not verdict.commensurable
        assert verdict.checked[1] == KEY_ROUTE

    def test_dimension_three_is_an_assumption(self, parcel):
        # The paper builds in dimension four and higher; n = 3 is outside it.
        low = default_parcel(3, compact=False)
        verdict = commensurability_verdict(assemble(TWO, low), assemble(LOOP, low), low)
        assert verdict.assumed[:2] == commensurability_verdict(
            assemble(TWO, parcel), assemble(LOOP, parcel), parcel
        ).assumed
        assert verdict.assumed[2:] == ("dimension 3 lies below the paper's four and higher",)

    def test_shared_verdicts_equal_fresh_ones(self, parcel):
        assumed = (
            "blocks glue along the shared boundary form",
            "torsion-free finite levels chosen for all blocks",
        )
        low = default_parcel(3, compact=False)
        double = DecoratedGraph(2, (1, 0), (0, 1), {0, 1})
        uncolored = DecoratedGraph(2, (1, 0), (0, 1), set())
        cases = [
            (TWO, DecoratedGraph(2, (1, 0), (0, 1), {1}), True, KEY_ROUTE),
            (LOOP, TWO, False, KEY_ROUTE),
            (LOOP, double, True, COVER_ROUTE),
            (TWO, uncolored, False, COVER_ROUTE),
        ]
        for given_parcel, extra in (
            (parcel, ()),
            (low, ("dimension 3 lies below the paper's four and higher",)),
        ):
            for g1, g2, commensurable, route in cases:
                d1, d2 = assemble(g1, given_parcel), assemble(g2, given_parcel)
                verdict = commensurability_verdict(d1, d2, given_parcel)
                fresh = CommensurabilityVerdict(
                    commensurable, ("parcel certificates complete", route), assumed + extra
                )
                assert verdict == fresh and hash(verdict) == hash(fresh)
                assert repr(verdict) == repr(fresh)
                assert commensurability_verdict(d1, d2, given_parcel) is verdict

    def test_parcel_mismatch_rejected(self, parcel, compact_parcel):
        d1 = assemble(LOOP, parcel)
        d2 = assemble(LOOP, compact_parcel)
        with pytest.raises(ValueError):
            commensurability_verdict(d1, d2, parcel)


# Documents as written at the commit that introduced this test.
LOOP_DOCUMENT = """\
{
  "gluings": [
    [
      [
        "v0",
        0
      ],
      [
        "a0-",
        0
      ]
    ],
    [
      [
        "v0",
        1
      ],
      [
        "a0+",
        1
      ]
    ],
    [
      [
        "v0",
        2
      ],
      [
        "b0-",
        0
      ]
    ],
    [
      [
        "v0",
        3
      ],
      [
        "b0+",
        1
      ]
    ],
    [
      [
        "a0-",
        1
      ],
      [
        "a0+",
        0
      ]
    ],
    [
      [
        "b0-",
        1
      ],
      [
        "b0+",
        0
      ]
    ]
  ],
  "graph": {
    "colored": [
      0
    ],
    "perm_a": [
      0
    ],
    "perm_b": [
      0
    ],
    "vertices": 1
  },
  "instances": [
    [
      "v0",
      "V1",
      "vertex 0"
    ],
    [
      "a0-",
      "A_minus",
      "a-edge 0->0"
    ],
    [
      "a0+",
      "A_plus",
      "a-edge 0->0"
    ],
    [
      "b0-",
      "B_minus",
      "b-edge 0->0"
    ],
    [
      "b0+",
      "B_plus",
      "b-edge 0->0"
    ]
  ],
  "parcel_id": "isotropic-n4",
  "volume_bound": "5"
}
"""

TWO_DOCUMENT = """\
{
  "gluings": [
    [
      [
        "v0",
        0
      ],
      [
        "a0-",
        0
      ]
    ],
    [
      [
        "v0",
        1
      ],
      [
        "a1+",
        1
      ]
    ],
    [
      [
        "v0",
        2
      ],
      [
        "b0-",
        0
      ]
    ],
    [
      [
        "v0",
        3
      ],
      [
        "b0+",
        1
      ]
    ],
    [
      [
        "v1",
        0
      ],
      [
        "a1-",
        0
      ]
    ],
    [
      [
        "v1",
        1
      ],
      [
        "a0+",
        1
      ]
    ],
    [
      [
        "v1",
        2
      ],
      [
        "b1-",
        0
      ]
    ],
    [
      [
        "v1",
        3
      ],
      [
        "b1+",
        1
      ]
    ],
    [
      [
        "a0-",
        1
      ],
      [
        "a0+",
        0
      ]
    ],
    [
      [
        "a1-",
        1
      ],
      [
        "a1+",
        0
      ]
    ],
    [
      [
        "b0-",
        1
      ],
      [
        "b0+",
        0
      ]
    ],
    [
      [
        "b1-",
        1
      ],
      [
        "b1+",
        0
      ]
    ]
  ],
  "graph": {
    "colored": [
      0
    ],
    "perm_a": [
      1,
      0
    ],
    "perm_b": [
      0,
      1
    ],
    "vertices": 2
  },
  "instances": [
    [
      "v0",
      "V1",
      "vertex 0"
    ],
    [
      "v1",
      "V0",
      "vertex 1"
    ],
    [
      "a0-",
      "A_minus",
      "a-edge 0->1"
    ],
    [
      "a0+",
      "A_plus",
      "a-edge 0->1"
    ],
    [
      "a1-",
      "A_minus",
      "a-edge 1->0"
    ],
    [
      "a1+",
      "A_plus",
      "a-edge 1->0"
    ],
    [
      "b0-",
      "B_minus",
      "b-edge 0->0"
    ],
    [
      "b0+",
      "B_plus",
      "b-edge 0->0"
    ],
    [
      "b1-",
      "B_minus",
      "b-edge 1->1"
    ],
    [
      "b1+",
      "B_plus",
      "b-edge 1->1"
    ]
  ],
  "parcel_id": "isotropic-n4",
  "volume_bound": "10"
}
"""

GOLDEN = {"LOOP": (LOOP, LOOP_DOCUMENT), "TWO": (TWO, TWO_DOCUMENT)}
