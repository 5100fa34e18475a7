"""Assembly of closed-manifold descriptors from decorated graphs.

A parcel is six pairwise non-commensurable members of one form family, the
forms of its six block kinds:

    V1, V0     vertex blocks with 4 boundary slots (colored / plain vertices)
    A-, A+     the ordered pair of edge blocks for a-edges, 2 slots each
    B-, B+     the ordered pair for b-edges

One family and dimension means the restrictions to the x_1 = 0 hyperplane
coincide, and the parcel computes a non-commensurability certificate for
every pair of distinct blocks.

Assembling a connected decorated graph with k vertices instantiates one
vertex block per vertex (V1 when colored) and one minus/plus block pair per
edge, for 5k block instances, then glues boundary slots in a fixed scan
order: each vertex exposes (a-out, a-in, b-out, b-in), each edge runs
source -> minus -> plus -> target.  The result is a closed descriptor: every
slot is glued exactly once.  The graph alone fixes these instances and
gluings, so a descriptor stores only the graph, the parcel id and the
volume; the lists are derived when a document is written, and a document
reads back only if its text is exactly what the writer emits.  Tracing a
word through a descriptor crosses three block boundaries per letter, and
the kind of the terminal vertex block (V1 against V0) is the observable
that separates descriptors.

count_lower_bound turns a volume budget v into k = floor(v / (5 * V)) with V
the largest block volume, reports the number a_k of index-k subgroups, and
checks k! <= a_k <= k * k! and the ceil(k^(k/2)) growth floor.  By Hall,
a_k = t_k / (k - 1)! with t_k the transitive pairs (sigma, tau) on k points;
t_k >= (k - 1)! k! as every pair with sigma a k-cycle is transitive, and
t_k <= (k!)^2.  The floor follows: (k!)^2 = prod_i i (k + 1 - i) >= k^k.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import factorial, floor, isqrt
from sys import intern

from .decorated_graphs import DecoratedGraph, has_common_decorated_cover
from .exact_arith import _digit_limit_refusal, _named, _require_rational
from .form_families import FamilyForm, certificate_matrix, family_members, family_name
from .free_groups import MAX_INDEX, Word, enumerate_subgroups, hall_count

VERTEX_KINDS = ("V0", "V1")
EDGE_KINDS = ("A_minus", "A_plus", "B_minus", "B_plus")
BLOCK_KINDS = VERTEX_KINDS + EDGE_KINDS


def slots_for_kind(kind: str) -> int:
    if kind in VERTEX_KINDS:
        return 4
    if kind in EDGE_KINDS:
        return 2
    raise ValueError(f"unknown block kind {kind!r}")


@dataclass(frozen=True)
class Parcel:
    """Six pairwise non-commensurable members of one form family, one per block kind.

    forms[i] and volumes[i] belong to the block of kind BLOCK_KINDS[i].  The
    forms share the family and dimension that compact and dimension report,
    and differ only in the coefficient a of x_1, so their restriction to
    x_1 = 0 is the same for all six: that licenses mixed gluings.  certificates[i][j]
    is noncommensurability_certificate(forms[i], forms[j]), computed here; an
    uncertified pair of distinct blocks is refused.  The block spaces
    themselves (torsion-free finite-level subgroups) are assumed, not
    computed, and listed in every CommensurabilityVerdict.

    A graph's volume depends only on its shape, (vertex count, colored
    count), so each parcel keeps the volumes of the shapes it has assembled,
    cap checked once when built (see _total_volume).  They are kept on the
    instance, not by parcel_id, as parcels that share an id may price their
    blocks differently.
    """

    parcel_id: str
    forms: tuple[FamilyForm, ...]
    volumes: tuple[Fraction, ...] = (Fraction(1),) * 6
    certificates: tuple = field(init=False, repr=False, compare=False)
    max_volume: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.parcel_id) is not str:
            raise ValueError(f"a parcel id is a str, not {_named(self.parcel_id)}")
        forms, volumes = tuple(self.forms), tuple(self.volumes)
        if len(forms) != 6 or len(volumes) != 6:
            raise ValueError("a parcel needs exactly six forms and six volumes")
        for volume in volumes:
            _require_rational(volume)
        volumes = tuple(map(Fraction, volumes))
        if not all(isinstance(form, FamilyForm) for form in forms):
            raise ValueError("the forms of a parcel must be FamilyForm values")
        if min(volumes) <= 0:
            raise ValueError("block volumes must be positive")
        # Refuses mixed families and mixed dimensions with a ValueError.
        certificates = certificate_matrix(forms)
        if any(certificates[i][j] is None for i in range(6) for j in range(6) if i != j):
            raise RuntimeError("parcel construction requires certified block pairs")
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "certificates", certificates)
        object.__setattr__(self, "max_volume", max(volumes))
        object.__setattr__(self, "_volumes", {})

    @property
    def dimension(self) -> int:
        return self.forms[0].n

    @property
    def compact(self) -> bool:
        return self.forms[0].compact


def default_parcel(n: int, compact: bool) -> Parcel:
    """Parcel of a family's first six members in dimension n, all volumes 1.

    Non-compact: the isotropic family over Q at the first six primes
    p = 5 (mod 8).  Compact: the anisotropic family over Q(sqrt(2)) at the
    first six primes p = 1 (mod 8) with 2 not a fourth power.
    """
    family = family_name(compact)
    return Parcel(f"{family}-n{n}", family_members(family, 6, n)[1])


@dataclass(frozen=True, slots=True, init=False)
class ManifoldDescriptor:
    """A closed gluing pattern of block instances over a decorated graph.

    The graph fixes the pattern: one block instance per vertex and two per
    edge, glued in the scan order that _pick spells out.  Its document is
    the text descriptor_to_json writes, the only text that reads back.  The
    one constructor, which assemble and the reader call too, refuses with a
    ValueError a source graph that is not a DecoratedGraph, a parcel id that
    is not a str and a volume that is not a positive int or Fraction (an int
    is stored as a Fraction), so a descriptor whose volume str() prints reads back.
    """

    source_graph: DecoratedGraph
    parcel_id: str
    volume_bound: Fraction

    def __init__(self, source_graph, parcel_id, volume_bound):
        if type(volume_bound) is not Fraction:
            _require_rational(volume_bound)
            volume_bound = Fraction(volume_bound)
        if volume_bound.numerator <= 0:
            raise ValueError(f"volume_bound {_named(str(volume_bound))} is not positive")
        if not isinstance(source_graph, DecoratedGraph):
            raise ValueError(f"a source graph is a DecoratedGraph, not {_named(source_graph)}")
        if type(parcel_id) is not str:
            raise ValueError(f"a parcel id is a str, not {_named(parcel_id)}")
        _set_source_graph(self, source_graph)
        _set_parcel_id(self, parcel_id)
        _set_volume_bound(self, volume_bound)


# The slots' own setters, bound once, as for DecoratedGraph.
_set_source_graph = ManifoldDescriptor.source_graph.__set__
_set_parcel_id = ManifoldDescriptor.parcel_id.__set__
_set_volume_bound = ManifoldDescriptor.volume_bound.__set__


def _instance_row(instance_id: str, kind: str, serves: str) -> str:
    # Rows of the indent=2 layout.  Instance ids, kinds, "serves" texts and
    # slots are digits, letters, '-', '+', '>' and spaces, none of which JSON
    # escapes.
    return f'    [\n      "{instance_id}",\n      "{kind}",\n      "{serves}"\n    ]'


def _gluing_row(id1: str, slot1: int, id2: str, slot2: int) -> str:
    return (
        f'    [\n      [\n        "{id1}",\n        {slot1}\n      ],'
        f'\n      [\n        "{id2}",\n        {slot2}\n      ]\n    ]'
    )


def _int_list(values) -> str:
    # A list of ints under a "graph" key, at the document's third level.
    if not values:
        return "[]"
    return "[\n      " + ",\n      ".join(map(str, values)) + "\n    ]"


# Patterns are written and read for graphs of a handful of sizes at a time
# (index <= 7 in the pipeline), so a few entries keep every row hot.  The
# two tables hold a few rows per vertex, so only graphs of up to
# _CACHED_SIZE vertices are kept; a larger graph, which only a single graph
# file or document brings, has its rows built for its one document.
_CACHED_SIZE = 16


# Every enumerated table is colored at its basepoint 0, so the pipeline
# writes one coloring per size; other callers bring a few at a time.  An
# entry of 16 vertices, its key included, takes about 9.5 KB under
# tracemalloc, so the 64 entries take at most about 0.6 MB.
@lru_cache(maxsize=64)
def _coloring_rows(k: int, colored: frozenset[int]):
    """The rows of a k-vertex document that no permutation sets, kept per size and coloring.

    Returns (vertex_text, colored_text, a_out, b_out, edge_text): the
    instance rows of the vertices v, V1 when v is colored, joined; the
    "colored" list; the gluing rows of each v's a-out and b-out slot to the
    minus block of the edge leaving v; and the minus-to-plus gluing rows of
    every edge, a-edges first, joined.
    """
    vertex_text = ",\n".join(
        _instance_row(f"v{v}", VERTEX_KINDS[v in colored], f"vertex {v}") for v in range(k)
    )
    a_out = tuple(_gluing_row(f"v{v}", 0, f"a{v}-", 0) for v in range(k))
    b_out = tuple(_gluing_row(f"v{v}", 2, f"b{v}-", 0) for v in range(k))
    edge_text = ",\n".join(
        _gluing_row(f"{x}{v}-", 1, f"{x}{v}+", 0) for x in "ab" for v in range(k)
    )
    return vertex_text, _int_list(sorted(colored)), a_out, b_out, edge_text


# One entry per letter for every permutation of degree MAX_INDEX, so an
# enumeration's rows (1,216 distinct at index 7) all stay; each entry holds
# one joined text, references to interned rows and one _int_list text.
# Only graphs of up to _CACHED_SIZE vertices are kept: an entry of 16
# vertices, its key and its share of the rows included, takes about 2.8 KB
# under tracemalloc, so the full cache takes at most about 28 MB.  A row
# does not depend on the graph size, so kept entries share at most 512
# distinct in-slot rows (one per letter and edge v -> w), about 0.07 MB.
@lru_cache(maxsize=2 * factorial(MAX_INDEX))
def _permutation_rows(x: int, perm: tuple[int, ...]):
    """The rows the x-permutation sets (x = 0 for a, 1 for b), kept per letter and permutation.

    Returns (edge_text, ins, perm_text): its 2k edge instance rows (the
    minus and plus rows of each x-edge v -> perm[v], in v order) joined, its
    k in-slot gluing rows (vertex w's x-in slot to the plus block of the
    x-edge that ends at w) and its _int_list text.  The in-slot rows of a
    kept entry are interned, so kept entries that share an edge share its
    row; a larger graph's are not, as Python 3.12 never frees an interned
    string.
    """
    letter, minus_kind, plus_kind = "ab"[x], *EDGE_KINDS[2 * x : 2 * x + 2]
    instances, ins = [], [None] * len(perm)
    for v, w in enumerate(perm):
        serves = f"{letter}-edge {v}->{w}"
        instances.append(_instance_row(f"{letter}{v}-", minus_kind, serves))
        instances.append(_instance_row(f"{letter}{v}+", plus_kind, serves))
        ins[w] = _gluing_row(f"v{w}", 2 * x + 1, f"{letter}{v}+", 1)
    if len(perm) <= _CACHED_SIZE:
        ins = tuple(map(intern, ins))
    return ",\n".join(instances), ins, _int_list(perm)


def _pick(graph: DecoratedGraph):
    """The pieces of the graph's document, each one row or more joined by ",\n".

    Returns (instances, gluings, colored, perm_a, perm_b): the vertex, a-edge
    and b-edge instance rows as three joined texts; the 4k per-vertex gluing
    rows in slot scan order, then the edge gluing rows joined; and the texts
    of the three "graph" lists.  Joined in order, the pieces give these rows.
    Instances [id, kind, serves]: vertex v -> ["v{v}", V1 or V0,
    "vertex {v}"] for every v; then the a-edge leaving v -> ["a{v}-",
    "A_minus", "a-edge {v}->{w}"] and ["a{v}+", "A_plus", same], w its head,
    for every v; then likewise b.  Gluings [[id, slot], [id, slot]]: per
    vertex v in the slot scan order, slot 0 (a-out) to slot 0 of "a{v}-",
    slot 1 (a-in) to slot 1 of "a{u}+" for the a-edge u -> v, slots 2 and 3
    likewise for b; then per edge, a-edges before b-edges, slot 1 of its
    minus block to slot 0 of its plus block.  An x-self-loop at v consumes
    both x-slots of v.  Only _pick reads _coloring_rows and
    _permutation_rows; past _CACHED_SIZE vertices it builds the pieces afresh.
    """
    k = graph.vertex_count
    if k <= _CACHED_SIZE:
        coloring, permutation = _coloring_rows, _permutation_rows
    else:
        coloring, permutation = _coloring_rows.__wrapped__, _permutation_rows.__wrapped__
    vertex_text, colored, a_out, b_out, edge_text = coloring(k, graph.colored)
    a_edges, a_in, perm_a = permutation(0, graph.perm_a)
    b_edges, b_in, perm_b = permutation(1, graph.perm_b)
    # Slice assignment interleaves the four slot lists; the last piece stays.
    gluings = [edge_text] * (4 * k + 1)
    gluings[0:-1:4], gluings[1::4], gluings[2::4], gluings[3::4] = a_out, a_in, b_out, b_in
    return (vertex_text, a_edges, b_edges), gluings, colored, perm_a, perm_b


def _rows(piece: str) -> list:
    return json.loads("[" + piece + "]")


# True and 1.0 equal 1, yet neither is a slot: with text ids and int slots,
# refs are equal exactly when the rows' values are.  The table is typed,
# lest 1.0 find 1's entry; 1,024 entries take about 0.3 MB (tracemalloc).
# Refs are not interned, as Python 3.12 never frees an interned string.
@lru_cache(maxsize=1024, typed=True)
def _ref(instance_id: str, slot: int) -> str:
    if type(instance_id) is not str or type(slot) is not int:
        raise ValueError(f"slot {(instance_id, slot)!r} is not an int slot of a text id")
    return repr((instance_id, slot))


# The slot refs of a piece, kept per distinct piece, each ref one _ref text
# that the pieces share.  Criterion 9, the one caller in the package, meets
# 405 distinct instance pieces, 74 gluing pieces and 72 refs in its 3,447
# index-6 documents, 0.16 MB under tracemalloc.  An entry holds its piece
# and 8 bytes a ref: the 512 longest instance pieces of index 7 (873
# characters at most) take about 0.65 MB, and 128 gluing pieces of up to
# index 7 (1,342 characters at most) at most about 0.2 MB.  A longer piece's
# entry grows with its text.
@lru_cache(maxsize=512)
def _instance_refs(piece: str) -> tuple[str, ...]:
    rows = _rows(piece)
    return tuple(_ref(id_, slot) for id_, kind, _ in rows for slot in range(slots_for_kind(kind)))


@lru_cache(maxsize=128)
def _gluing_refs(piece: str) -> tuple[str, ...]:
    return tuple(_ref(*end) for end1, end2 in _rows(piece) for end in (end1, end2))


def _check_closed(instances, gluings) -> None:
    """Raise ValueError unless every slot of every instance is glued exactly once.

    instances and gluings are sequences of pieces as _pick lays them out,
    rows joined by ",\n"; a row on its own is also a piece.  Slot refs
    decide: a document is closed exactly when its instance refs are
    distinct (every instance has a slot 0, so its ids are too) and its
    glued refs are as many and the same.  Each distinct piece is read
    once, into tables of at most 1,024 refs, 512 instance pieces and 128
    gluing pieces, about 0.3, 0.65 and 0.2 MB at most on the pieces of
    documents up to index 7.  Only a document found open has its rows
    walked, to name its fault; a malformed row raises ValueError or
    TypeError.
    """
    try:
        slots = list(chain.from_iterable(map(_instance_refs, instances)))
        glued = list(chain.from_iterable(map(_gluing_refs, gluings)))
        refs = set(slots)
        if len(refs) == len(slots) == len(glued) and refs == set(glued):
            return
    except (TypeError, ValueError):
        pass
    expected: dict[str, int] = {}
    for instance_id, kind, _ in chain.from_iterable(map(_rows, instances)):
        if instance_id in expected:
            raise ValueError(f"duplicate instance id {instance_id}")
        expected[instance_id] = slots_for_kind(kind)
    seen: set = set()
    for end1, end2 in chain.from_iterable(map(_rows, gluings)):
        for instance_id, slot in (end1, end2):
            if instance_id not in expected:
                raise ValueError(f"gluing references unknown instance {instance_id}")
            # The body alone: the table's hash would refuse a list slot
            # before the check could name it.
            ref = _ref.__wrapped__(instance_id, slot)
            if not 0 <= slot < expected[instance_id]:
                raise ValueError(f"slot {slot} out of range for {instance_id}")
            if ref in seen:
                raise ValueError(f"slot {ref} glued more than once")
            seen.add(ref)
    # The refs found the document open, so a walk that meets no fault
    # leaves a slot unglued.
    raise ValueError(f"descriptor is not closed: {sum(expected.values()) - len(seen)} slots unglued")


def _total_volume(graph: DecoratedGraph, parcel: Parcel) -> Fraction:
    """The parcel's volume for the graph's shape; RuntimeError past the 5k * V cap.

    One V0 block per plain vertex, one V1 per colored vertex and one block
    of each edge kind per vertex.  Built and checked against the cap once
    per shape (vertex count, colored count) and kept in the parcel's
    _volumes for graphs of up to _CACHED_SIZE vertices, at most 152 shapes;
    a larger graph's is built and checked on every call.
    """
    k, colored = graph.vertex_count, len(graph.colored)
    volume = parcel._volumes.get((k, colored))
    if volume is None:
        plain_volume, colored_volume, *edge_volumes = parcel.volumes
        volume = (k - colored) * plain_volume + colored * colored_volume + k * sum(edge_volumes)
        if volume > 5 * k * parcel.max_volume:
            raise RuntimeError(f"volume {volume} exceeds the cap {5 * k * parcel.max_volume}")
        if k <= _CACHED_SIZE:
            parcel._volumes[k, colored] = volume
    return volume


def assemble(graph: DecoratedGraph, parcel: Parcel) -> ManifoldDescriptor:
    """Instantiate and glue parcel blocks along a connected decorated graph.

    The 5k instances and 6k gluings follow from the graph (see _pick), so
    the descriptor keeps only the graph, the parcel id and the exact volume;
    the lists appear only in the document descriptor_to_json writes.  The
    volume is the Fraction the parcel keeps for the graph's shape
    (_total_volume), shared by every descriptor of that shape.
    """
    return ManifoldDescriptor(graph, parcel.parcel_id, _total_volume(graph, parcel))


def volume_bound(descriptor: ManifoldDescriptor, parcel: Parcel) -> Fraction:
    """Exact sum of instance volumes from the descriptor's own parcel; asserts the 5k * V cap.

    The volume is the parcel's for the graph's shape, checked against the
    cap when the parcel first built it (_total_volume).
    """
    if descriptor.parcel_id != parcel.parcel_id:
        raise ValueError("descriptor must come from the given parcel")
    return _total_volume(descriptor.source_graph, parcel)


@dataclass(frozen=True)
class TraceResult:
    """Block kinds visited along a word, starting at the colored vertex block."""

    kinds: tuple[str, ...]
    terminal_kind: str
    crossings: int


# The kinds a letter crosses, by letter (a, a^-1, b, b^-1) and then by the
# color of the vertex it ends at: its two edge blocks, the minus block first
# for a generator and the plus block first for an inverse, then that vertex.
_LETTER_KINDS = tuple(
    tuple(edges + (vertex,) for vertex in VERTEX_KINDS)
    for edges in (
        ("A_minus", "A_plus"),
        ("A_plus", "A_minus"),
        ("B_minus", "B_plus"),
        ("B_plus", "B_minus"),
    )
)


def trace_word(descriptor: ManifoldDescriptor, word: Word) -> TraceResult:
    """Follow a word through the assembled blocks.

    Starts at the graph's basepoint, its one colored vertex (block kind V1).  Each
    letter crosses three boundaries: vertex block -> minus -> plus -> vertex
    block, traversed plus-first when the letter is an inverse.  The vertex
    reached is read off the graph's step tables, so an inverse letter costs
    what a generator does.  The terminal vertex kind records whether the word
    closed up at the colored vertex.
    """
    graph = descriptor.source_graph
    v = base = graph.basepoint
    steps = graph.steps()
    kinds = ["V1"]
    for letter in word.letters:
        v = steps[letter][v]
        kinds += _LETTER_KINDS[letter][v == base]
    return TraceResult(tuple(kinds), kinds[-1], len(kinds) - 1)


@dataclass(frozen=True)
class CountReport:
    """Volume-budget counting report: block count, descriptors, growth floor."""

    volume_budget: Fraction
    max_block_volume: Fraction
    k: int
    descriptor_count: int
    floor_bound: int


# a_1557 has 4,300 digits and a_1558 has 4,303: the largest count that
# Python's default int-to-str limit still prints.
MAX_COUNT_INDEX = 1557


def growth_floor(k: int) -> int:
    """The growth floor ceil(k^(k/2)), exactly."""
    power = k**k
    root = isqrt(power)
    return root if root * root == power else root + 1


def budget_index(v, parcel: Parcel) -> int:
    """k = floor(v / (5 V)); ValueError below the one-block scale, then past MAX_COUNT_INDEX."""
    _require_rational(v)
    v = Fraction(v)
    unit = 5 * parcel.max_volume
    if v < unit:
        raise ValueError(f"volume budget {_named(v, str)} is below the one-block scale {unit}")
    k = floor(v / unit)
    if k > MAX_COUNT_INDEX:
        raise ValueError(f"descriptor count is capped at index {MAX_COUNT_INDEX} (got {_named(k)})")
    return k


def count_lower_bound(v, parcel: Parcel) -> CountReport:
    """Descriptors affordable within volume v: k = floor(v / (5 V)) vertices.

    Reports the exact index-k subgroup count a_k and the floor ceil(k^(k/2));
    raises RuntimeError unless k! <= a_k <= k * k! and a_k >= the floor, and
    ValueError, before any count is computed, where budget_index does.
    """
    k = budget_index(v, parcel)
    count = hall_count(k)
    if not factorial(k) <= count <= k * factorial(k):
        raise RuntimeError(f"subgroup count at index {k} is outside [k!, k * k!]")
    bound = growth_floor(k)
    if count < bound:
        raise RuntimeError(f"subgroup count {count} fell below the floor {bound}")
    return CountReport(Fraction(v), parcel.max_volume, k, count, bound)


def descriptors_for_index(k: int, parcel: Parcel):
    """Yield the descriptor of every index-k subgroup graph, basepoint colored.

    Enumeration order is the canonical subgroup scan order, so repeated runs
    yield an identical sequence.
    """
    for table in enumerate_subgroups(k):
        yield assemble(table, parcel)


def emit_descriptors(k: int, parcel: Parcel, directory) -> int:
    """Write every index-k descriptor under directory; returns the file count.

    Files are named descriptor_00000.json .. in enumeration order.
    """
    os.makedirs(directory, exist_ok=True)
    count = 0
    for index, descriptor in enumerate(descriptors_for_index(k, parcel)):
        path = os.path.join(directory, f"descriptor_{index:05d}.json")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(descriptor_to_json(descriptor))
        count += 1
    return count


@dataclass(frozen=True)
class CommensurabilityVerdict:
    """Descriptor-level verdict with the hypotheses that back it.

    Commensurable means the source graphs have a common decorated cover.
    checked lists hypotheses verified here, the deciding route among them;
    assumed lists geometric inputs taken on trust (block spaces glue along
    their shared boundary type, and torsion-free levels exist).
    """

    commensurable: bool
    checked: tuple[str, ...]
    assumed: tuple[str, ...]


# A verdict takes a handful of forms: two answers, two routes, and the few
# dimensions parcels are built in.
@lru_cache(maxsize=32)
def _verdict(commensurable: bool, route: str, dimension: int) -> CommensurabilityVerdict:
    assumed = (
        "blocks glue along the shared boundary form",
        "torsion-free finite levels chosen for all blocks",
    )
    if dimension < 4:
        assumed += (f"dimension {dimension} lies below the paper's four and higher",)
    return CommensurabilityVerdict(commensurable, ("parcel certificates complete", route), assumed)


def commensurability_verdict(
    d1: ManifoldDescriptor, d2: ManifoldDescriptor, parcel: Parcel
) -> CommensurabilityVerdict:
    """Decided by subgroup keys when each source graph has one colored vertex,
    which the decorated_graphs lemma makes exact, else by the cover decision.

    Verdicts are frozen and shared: equal answers on the same route and
    dimension are one value."""
    if d1.parcel_id != parcel.parcel_id or d2.parcel_id != parcel.parcel_id:
        raise ValueError("descriptors must come from the given parcel")
    g1, g2 = d1.source_graph, d2.source_graph
    if len(g1.colored) == len(g2.colored) == 1:
        same = g1.canonical_key() == g2.canonical_key()
        route = "subgroup keys of the source graphs compared"
    else:
        same = has_common_decorated_cover(g1, g2).has_cover
        route = "source graphs searched for a common decorated cover"
    return _verdict(same, route, parcel.dimension)


def descriptor_to_json(descriptor: ManifoldDescriptor) -> str:
    """Stable JSON document for a descriptor; keys sorted, volumes exact.

    The text is byte-identical to json.dumps(document, sort_keys=True,
    indent=2) + "\n".  Setting indent makes json.dumps skip the C encoder and
    run the pure-Python one token by token, so this writer joins the pieces
    _pick lays out, which are rendered once for graphs of up to
    _CACHED_SIZE vertices: per size and coloring, and per letter and
    permutation (at most 2 * factorial(MAX_INDEX) = 10,080 entries, about
    28 MB).  Per document it joins only those pieces, 4k + 1 gluing pieces
    and three instance pieces, writes the keys in sorted order by hand and
    escapes the caller's strings with the same encode_basestring_ascii that
    json.dumps applies.  descriptor_from_json accepts exactly this text.
    """
    instances, gluings, colored, perm_a, perm_b = _pick(descriptor.source_graph)
    instance_text, gluing_text = ",\n".join(instances), ",\n".join(gluings)
    return (
        f'{{\n  "gluings": [\n{gluing_text}\n  ],\n'
        f'  "graph": {{\n'
        f'    "colored": {colored},\n'
        f'    "perm_a": {perm_a},\n'
        f'    "perm_b": {perm_b},\n'
        f'    "vertices": {descriptor.source_graph.vertex_count}\n'
        f'  }},\n'
        f'  "instances": [\n{instance_text}\n  ],\n'
        f'  "parcel_id": {encode_basestring_ascii(descriptor.parcel_id)},\n'
        f'  "volume_bound": {encode_basestring_ascii(str(descriptor.volume_bound))}\n'
        f'}}\n'
    )


# The two top-level lines the reader decodes from.  Inside a JSON string a
# newline is always escaped, so in the writer's text each marker occurs once,
# at the start of its key's line: the graph's near the start, the parcel_id
# line just before the volume_bound line that ends the text.
_GRAPH_LINE = '\n  "graph": '
_PARCEL_LINE = '\n  "parcel_id": '
_raw_decode = json.JSONDecoder().raw_decode


def _read(document: str, read, *args):
    # read(*args) on a part of document.  json and the volume's parts read
    # ints with int(), whose refusal past Python's int-to-str limit is a
    # plain ValueError, not a JSONDecodeError, in Python's own words.
    try:
        return read(*args)
    except json.JSONDecodeError:
        raise
    except ValueError as error:
        raise ValueError(f"document has {_digit_limit_refusal(document)}") from error


# str(Fraction)'s spelling, checked first, with the numerator and the
# denominator as groups: Fraction("1e10000000") builds 10^10^7.  int() checks
# a part against the running int-to-str limit before it converts it.
_VOLUME_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _line_start(search, marker: str) -> int:
    start = search(marker)
    if start < 0:
        raise ValueError(f"document has no top-level {marker.strip()} line")
    return start


def descriptor_from_json(text: str, parcel: Parcel | None = None) -> ManifoldDescriptor:
    """Read a descriptor document back.

    Raises ValueError, and only ValueError, unless text is exactly what
    descriptor_to_json writes for the descriptor it names, so writing the
    result reproduces the text; the graph's and the descriptor's own
    constructors refuse a graph that is not connected, a parcel_id that is
    not text and a volume_bound that is not positive.  Given the parcel the
    document was assembled from, it must also name that parcel and carry
    the volume the parcel's blocks give its graph.

    Only what the descriptor is rebuilt from is decoded: the graph object
    at the first top-level "graph" line, and parcel_id and volume_bound
    from the last top-level "parcel_id" line to the end of the text; the
    instances and gluings rows are never parsed.  The byte check makes this
    partial decode safe: any text it accepts is the writer's output for the
    rebuilt descriptor, so a marker found in the wrong place (a repeated
    key, another layout) yields other bytes and a ValueError.
    """
    if not isinstance(text, str):
        raise ValueError(f"a descriptor document is text, not {type(text).__name__}")
    try:
        graph_start = _line_start(text.find, _GRAPH_LINE) + len(_GRAPH_LINE)
        spec = _read(text, _raw_decode, text, graph_start)[0]
        graph = DecoratedGraph(spec["vertices"], spec["perm_a"], spec["perm_b"], spec["colored"])
        tail = _read(text, _raw_decode, "{" + text[_line_start(text.rfind, _PARCEL_LINE) :])[0]
        parcel_id, volume_text = tail["parcel_id"], tail["volume_bound"]
        spelled = _VOLUME_TEXT.fullmatch(volume_text)
        if spelled is None:
            raise ValueError("volume_bound is not spelled as the writer spells a Fraction")
        # Built here, once, from the two parts; the byte check refuses a
        # volume not in lowest terms.
        numerator, denominator = spelled.groups()
        volume = Fraction(_read(text, int, numerator), _read(text, int, denominator or "1"))
        descriptor = ManifoldDescriptor(graph, parcel_id, volume)
        written = descriptor_to_json(descriptor)
    except (KeyError, TypeError, OverflowError, ZeroDivisionError, RecursionError) as error:
        raise ValueError(f"malformed descriptor document: {error!r}") from error
    if written != text:
        raise ValueError("document differs from the text the writer gives its descriptor")
    if parcel is not None:
        if parcel_id != parcel.parcel_id:
            named = _named(parcel_id)
            raise ValueError(f"document names parcel {named}, not {parcel.parcel_id!r}")
        if volume != _total_volume(graph, parcel):
            named = _named(str(volume))
            raise ValueError(f"volume_bound {named} is not the volume the parcel gives")
    return descriptor


__all__ = [
    "BLOCK_KINDS",
    "CommensurabilityVerdict",
    "CountReport",
    "ManifoldDescriptor",
    "Parcel",
    "TraceResult",
    "assemble",
    "budget_index",
    "commensurability_verdict",
    "count_lower_bound",
    "default_parcel",
    "descriptor_from_json",
    "descriptor_to_json",
    "descriptors_for_index",
    "emit_descriptors",
    "growth_floor",
    "trace_word",
    "volume_bound",
]
