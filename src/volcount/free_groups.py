"""Finite-index subgroups of the rank-2 free group as decorated graphs.

A decorated graph is a pair of vertex permutations (the a-edges and b-edges)
together with the set of colored vertices; DecoratedGraph is the one type
that stores, validates and keys such a pair.  A subgroup of index k is its
Schreier coset graph colored at the basepoint alone: the permutations its
generators induce on the k cosets, with the subgroup itself the stabilizer
of coset 0.  Two subgroups are equal exactly when their graphs are
isomorphic.

Every decorated graph is connected: the constructor refuses a pair that
does not act transitively, as a manifold glued along the graph must be
connected.  A graph colored at one vertex, its basepoint, has a canonical
key: the graph relabeled breadth-first from the basepoint, letters in the
order a, a^-1, b, b^-1.  An isomorphism maps basepoint to basepoint and
is then forced, as in a deterministic automaton, so two such graphs have
equal keys exactly when their subgroups are equal.  The key is computed once per
graph and stored on it; a canonical table is its own key.  Graphs with no
colored vertex or several are compared by the common-cover decision.

enumerate_subgroups generates every index-k subgroup exactly once by
backtracking over partially defined tables: slots are filled coset by coset
in that letter order and a fresh coset always receives the smallest unused label, so
completed tables are canonical by construction.  They skip the checked
constructor's permutation and transitivity checks and share one coloring
set and one tuple per distinct row (at index 7, 1,216 rows serve 29,093
tables); the test test_enumerated_tables_are_valid_and_canonical (indices 1..7)
and selftest criterion 6 (indices 1..6) re-check every table through
subgroup_table.  hall_count evaluates Marshall Hall's recursion

    a_k = k * k! - sum_{i=1}^{k-1} (k - i)! * a_i

which the enumeration must reproduce.

product_search, the one breadth-first search of the product of two coset
actions, serves distinguishing_word and the cover decision of decorated_graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Iterable

from .exact_arith import _named, _require_int

# Letter codes; the integer order is the lexicographic order used throughout.
_LETTER_CHARS = "aAbB"  # uppercase marks the inverse of a generator

MAX_INDEX = 7  # desk-scale cap for enumeration

BASEPOINT = 0
_BASEPOINT_ONLY = frozenset({BASEPOINT})  # shared by every enumerated table


# Looked up by value: there are k! permutations of degree k, 5,040 at
# MAX_INDEX, so graphs that share a row share its inverse in their stored
# step tables.
@lru_cache(maxsize=factorial(MAX_INDEX))
def _inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, image in enumerate(perm):
        inv[image] = i
    return tuple(inv)


def _validate_permutations(degree: int, perm_a, perm_b) -> None:
    """Raise ValueError unless degree is an int >= 1 and both rows permute
    0..degree-1.

    The degree and the entries must be ints, not merely equal to them:
    1.0 == 1, and _inverse_permutation, looked up by value, would answer
    (1.0, 0) with the inverse of (1, 0); a degree True would be written out
    as True.
    """
    if type(degree) is not int:
        raise ValueError(f"degree must be an int, got {_named(degree)}")
    if degree < 1:
        raise ValueError(f"degree must be at least 1, got {_named(degree)}")
    for name, perm in (("perm_a", perm_a), ("perm_b", perm_b)):
        if (
            len(perm) != degree
            or set(map(type, perm)) != {int}
            or sorted(perm) != list(range(degree))
        ):
            raise ValueError(
                f"{name}={_named(perm)} is not a permutation of 0..{_named(degree - 1)}"
            )


def _bfs(steps, start: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first discovery from `start`, letters in the order a, a^-1, b, b^-1.

    Returns the orbit of `start` in discovery order and the labeling
    old vertex -> position in that order.
    """
    label = {start: 0}
    order = [start]
    for v in order:
        for images in steps:
            image = images[v]
            if image not in label:
                label[image] = len(order)
                order.append(image)
    return order, label


def _coloring(vertex_count: int, colored: Iterable[int]) -> frozenset[int]:
    # Ints only, as in _validate_permutations: 1.0 and True equal vertices.
    colored = frozenset(colored)
    if not colored <= set(range(vertex_count)) or any(type(v) is not int for v in colored):
        raise ValueError("colored vertices must be vertices")
    return colored


@dataclass(frozen=True, slots=True, init=False)
class DecoratedGraph:
    """Connected edge-labeled 4-regular graph with a set of colored vertices.

    Equality, hashing and repr see only the four fields; the stored key and
    step tables, None until first asked for, take no part.
    """

    vertex_count: int
    perm_a: tuple[int, ...]
    perm_b: tuple[int, ...]
    colored: frozenset[int]
    _canonical_key: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _steps: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __init__(self, vertex_count, perm_a, perm_b, colored):
        """The checked constructor: validate, then fill each slot once, as _trusted does."""
        perm_a, perm_b = tuple(perm_a), tuple(perm_b)
        _validate_permutations(vertex_count, perm_a, perm_b)
        # Forward steps suffice: a and b generate a finite group.
        if len(_bfs((perm_a, perm_b), 0)[0]) != vertex_count:
            raise ValueError("the permutation pair does not act transitively")
        _set_vertex_count(self, vertex_count)
        _set_perm_a(self, perm_a)
        _set_perm_b(self, perm_b)
        _set_colored(self, _coloring(vertex_count, colored))
        _set_canonical_key(self, None)
        _set_steps(self, None)

    @classmethod
    def _trusted(cls, vertex_count, perm_a, perm_b, colored):
        """A graph whose fields the caller vouches for; nothing is checked."""
        graph = object.__new__(cls)
        _set_vertex_count(graph, vertex_count)
        _set_perm_a(graph, perm_a)
        _set_perm_b(graph, perm_b)
        _set_colored(graph, colored)
        _set_canonical_key(graph, None)
        _set_steps(graph, None)
        return graph

    @property
    def basepoint(self) -> int:
        """The colored vertex; ValueError unless exactly one vertex is colored."""
        if len(self.colored) != 1:
            raise ValueError(f"a basepoint needs one colored vertex, not {len(self.colored)}")
        (vertex,) = self.colored
        return vertex

    def steps(self):
        """Images of every vertex under the four letters, in letter order.

        Computed once per graph and stored, as the canonical key is.
        """
        steps = self._steps
        if steps is None:
            perm_a, perm_b = self.perm_a, self.perm_b
            steps = (perm_a, _inverse_permutation(perm_a), perm_b, _inverse_permutation(perm_b))
            _set_steps(self, steps)
        return steps

    def canonical_key(self) -> tuple:
        """(k, perm_a, perm_b, (0,)) relabeled from the basepoint: the subgroup key."""
        key = self._canonical_key
        if key is None:
            order, label = _bfs(self.steps(), self.basepoint)
            perm_a, perm_b = self.perm_a, self.perm_b
            # A canonical table keeps its own rows, so its key shares their storage.
            if order != list(range(self.vertex_count)):
                perm_a = tuple([label[perm_a[v]] for v in order])
                perm_b = tuple([label[perm_b[v]] for v in order])
            key = (self.vertex_count, perm_a, perm_b, (0,))
            _set_canonical_key(self, key)
        return key


# The slots' own setters, bound once: both constructors fill a frozen graph,
# and the stored facts are filled in, through them, at about half the cost
# of object.__setattr__ by name.
_set_vertex_count = DecoratedGraph.vertex_count.__set__
_set_perm_a = DecoratedGraph.perm_a.__set__
_set_perm_b = DecoratedGraph.perm_b.__set__
_set_colored = DecoratedGraph.colored.__set__
_set_canonical_key = DecoratedGraph._canonical_key.__set__
_set_steps = DecoratedGraph._steps.__set__


def subgroup_table(degree: int, perm_a, perm_b) -> DecoratedGraph:
    """The coset table of a subgroup: its Schreier graph colored at the basepoint.

    Raises ValueError unless the pair permutes 0..degree-1 and acts transitively.
    """
    return DecoratedGraph(degree, perm_a, perm_b, _BASEPOINT_ONLY)


def enumerate_subgroups(k: int) -> list[DecoratedGraph]:
    """All index-k subgroups, each as its canonical table, in search order.

    Backtracking over coset tables: the next undefined slot in scan order
    (coset ascending; letters a, a^-1, b, b^-1) is filled either with an
    existing coset lacking the matching inverse edge, smallest first, or
    with the next unused label, larger than every existing one.  So the
    tables come strictly increasing in their scan key (a[v], a^-1[v], b[v],
    b^-1[v]) for v = 0..k-1, the order of emitted file names and listings.
    _fill counts its fills to know when a table closes.  Every completed
    table with exactly k cosets is canonical, and each subgroup appears
    exactly once.  The tables share one coloring set and one tuple per
    distinct row.
    """
    if type(k) is not int or not 1 <= k <= MAX_INDEX:
        raise ValueError(f"index must be an int in 1..{MAX_INDEX}, got {k!r}")
    # Column order realizes the letter order a, a^-1, b, b^-1; a letter's
    # partner column is its inverse's.
    columns = tuple([-1] * k for _ in range(4))
    partners = (columns[1], columns[0], columns[3], columns[2])
    tables: list[DecoratedGraph] = []
    _fill(k, columns, partners, {}, tables, 0, 1, 0)
    return tables


def _fill(k, columns, partners, rows, tables, slot: int, used: int, depth: int) -> None:
    """Complete the partial table of enumerate_subgroups in every way.

    depth counts the fills so far.  Each fill sets two entries, a slot and
    its partner's, so the table is closed on `used` cosets exactly when
    depth == 2 * used, and no leaf scans the slots that are left.  A fill
    that would close the table short of k cosets is never made, and at
    used == k the last fill is forced, so it is made in place and its table
    kept with no further call.  rows interns finished rows.  A module-level
    function, since a recursive closure is a reference cycle that would keep
    the tables alive after the caller drops them.  The search state comes as
    separate arguments: unpacking it from one tuple on every call made index
    7 2-6% slower.
    """
    # The table is open, so an undefined slot of a used coset lies ahead.
    while columns[slot % 4][slot // 4] != -1:
        slot += 1
    vertex, column = slot // 4, slot % 4
    col, partner = columns[column], partners[column]
    if depth + 1 < 2 * used:
        for target in range(used):
            if partner[target] == -1:
                col[vertex] = target
                partner[target] = vertex
                _fill(k, columns, partners, rows, tables, slot + 1, used, depth + 1)
                col[vertex] = -1
                partner[target] = -1
    elif used == k:
        # This slot and one partner entry are all that is left undefined.
        target = partner.index(-1)
        col[vertex] = target
        partner[target] = vertex
        row_a, row_b = tuple(columns[0]), tuple(columns[2])
        tables.append(DecoratedGraph._trusted(
            k, rows.setdefault(row_a, row_a), rows.setdefault(row_b, row_b), _BASEPOINT_ONLY
        ))
        col[vertex] = -1
        partner[target] = -1
    if used < k:
        target = used
        col[vertex] = target
        partner[target] = vertex
        _fill(k, columns, partners, rows, tables, slot + 1, used + 1, depth + 1)
        col[vertex] = -1
        partner[target] = -1


_HALL_COUNTS: list[int] = []  # a_1, a_2, ..., as far as any call has needed


def hall_count(k: int) -> int:
    """Number of index-k subgroups of the rank-2 free group (Hall's recursion)."""
    _require_int(k)
    if k < 1:
        raise ValueError(f"index must be positive, got {k}")
    for j in range(len(_HALL_COUNTS) + 1, k + 1):
        # Horner's rule: sum_{i<j} (j - i)! a_i = 1 (a_{j-1} + 2 (a_{j-2} + ...
        # + (j - 1) a_1)), so each step multiplies by a small int.
        acc = 0
        for m, a_i in zip(range(j - 1, 0, -1), _HALL_COUNTS):
            acc = (acc + a_i) * m
        _HALL_COUNTS.append(j * factorial(j) - acc)
    return _HALL_COUNTS[k - 1]


@dataclass(frozen=True, slots=True)
class Word:
    """A word in the generators; letters are codes in {0: a, 1: a^-1, 2: b, 3: b^-1}."""

    letters: tuple[int, ...]

    def __post_init__(self):
        _set_letters(self, tuple(self.letters))
        # Ints only: 1.0 and True equal letter codes.
        if any(type(letter) is not int or not 0 <= letter <= 3 for letter in self.letters):
            raise ValueError(f"invalid letter codes in {self.letters!r}")

    @classmethod
    def _trusted(cls, letters: tuple[int, ...]):
        """A word whose letters the caller vouches for: a tuple of codes 0..3."""
        word = object.__new__(cls)
        _set_letters(word, letters)
        return word

    def __str__(self) -> str:
        if not self.letters:
            return "e"
        return "".join(_LETTER_CHARS[letter] for letter in self.letters)

    def __len__(self) -> int:
        return len(self.letters)


_set_letters = Word.letters.__set__


def _trace(steps, v: int, letters) -> int:
    for letter in letters:
        v = steps[letter][v]
    return v


def product_search(moves, colored1, colored2, seed, reached: dict):
    """Breadth-first search from seed of the product of two coset actions.

    moves lists (letter, images1, images2): a letter code and its images of
    every vertex in the two graphs, expanded in that order.  reached, which
    callers may share across seeds, maps each pair found to (seed, parent,
    letter), the seed to (seed, None, None).  Returns the pairs recorded, in
    discovery order, and the pair the search stopped at: the first whose
    color bits (membership in colored1, colored2) differ or that an earlier
    seed reached, or None when the pairs are seed's consistent component.
    """
    if seed in reached:
        return [], seed
    reached[seed] = (seed, None, None)
    pairs = [seed]
    for pair in pairs:
        i, j = pair
        for letter, images1, images2 in moves:
            image = (images1[i], images2[j])
            entry = reached.get(image)
            if entry is None:
                reached[image] = (seed, pair, letter)
                pairs.append(image)
                if (image[0] in colored1) != (image[1] in colored2):
                    return pairs, image
            elif entry[0] != seed:
                return pairs, image
    return pairs, None


def distinguishing_word(h1: DecoratedGraph, h2: DecoratedGraph) -> Word | None:
    """Shortest word lying in exactly one of the two subgroups; None iff the
    subgroups are equal, i.e. the graphs are isomorphic.

    Each graph is colored at one vertex, its basepoint, and stands for the
    subgroup of the words whose path from the basepoint returns there.  The
    product search from the basepoint pair expands a, a^-1, b, b^-1 in that
    order, so its first clash ends the least of the shortest separators.
    The membership asymmetry of the result is asserted before returning.
    """
    base1, base2 = h1.basepoint, h2.basepoint
    steps1, steps2 = h1.steps(), h2.steps()
    start = (base1, base2)
    moves = ((0, steps1[0], steps2[0]), (1, steps1[1], steps2[1]),
             (2, steps1[2], steps2[2]), (3, steps1[3], steps2[3]))
    reached: dict = {}
    pair = product_search(moves, h1.colored, h2.colored, start, reached)[1]
    if pair is None:
        return None
    letters: list[int] = []
    while pair != start:
        _, pair, letter = reached[pair]
        letters.append(letter)
    letters.reverse()
    # Search move codes, so the word needs no check of its own.
    word = Word._trusted(tuple(letters))
    if (_trace(steps1, base1, letters) == base1) == (_trace(steps2, base2, letters) == base2):
        raise RuntimeError(f"separator {word} failed its membership check")
    return word
