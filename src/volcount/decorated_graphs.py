"""Covers and the common-cover decision for decorated graphs.

DecoratedGraph, the permutation pair with its coloring, lives in
free_groups together with the subgroup key of a graph colored at one
vertex; every such graph is connected.  A subgroup table there is already
the Schreier graph colored at its basepoint; from_subgroup returns a table
as is for its own coloring and checks any other one.

Covering maps in the permutation encoding are color-preserving vertex maps
commuting with both permutations; local bijectivity on edge stars is
automatic.  The common-cover decision looks for a color-consistent
connected component of the fiber product, which is decisive: any common
decorated cover maps onto such a component, and conversely a consistent
component is itself a common decorated cover.

The fiber product has vertex set V1 x V2 with both permutations acting
coordinatewise; it is in general disconnected, and the decision never
builds it.  Projection lemma: a component of it is closed under both
coordinatewise permutations, so, both graphs being connected, it projects
onto each factor and meets (c1, y) for every vertex c1 of the first graph
and (x, c2) for every vertex c2 of the second.  Hence if exactly one graph
has colored vertices no component is consistent, if neither has any every
component is, and otherwise only components through a colored pair
(c1, c2) can be.  For the Schreier graphs of subgroups H1 and H2, colored
at their basepoints b1 and b2, the one candidate is the component through
(b1, b2), the graph of their intersection (Stallings, "Topology of finite
graphs", Invent. Math. 1983).  Its pairs are (b1.w, b2.w) over the words w,
so it is consistent exactly when H1 = H2, that is when the canonical keys
are equal.  free_groups.product_search explores each candidate from its
colored pair and abandons it at the first pair whose two color bits
differ, or that the search of an earlier seed reached: a consistent
component is explored in full, so that one was inconsistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exact_arith import _digit_limit_refusal
from .free_groups import DecoratedGraph, product_search

_INT_TYPE = frozenset({int})


def from_subgroup(table: DecoratedGraph, colored: Iterable[int]) -> DecoratedGraph:
    """The Schreier graph of the subgroup with the given vertices colored.

    The table itself for its own coloring; any other, and a coloring of
    vertices that only equal ints (0.0, False), goes through the checked
    constructor.
    """
    colored = frozenset(colored)
    if colored == table.colored and _INT_TYPE.issuperset(map(type, colored)):
        return table
    return DecoratedGraph(table.vertex_count, table.perm_a, table.perm_b, colored)


def check_cover(cover: DecoratedGraph, base: DecoratedGraph, vertex_map: Sequence[int]) -> bool:
    """Verify that vertex_map is a decorated covering of base by cover.

    Requires commuting with both permutations and color preservation in
    both directions on every fiber element.  Local bijectivity is automatic
    in the permutation encoding, and so is surjectivity: the image is closed
    under both permutations, and the base is connected.
    """
    m = tuple(vertex_map)
    if len(m) != cover.vertex_count:
        return False
    for image in m:
        if type(image) is not int:
            raise ValueError(f"vertex map entries must be ints, got {image!r}")
        if not 0 <= image < base.vertex_count:
            return False
    for x in range(cover.vertex_count):
        if m[cover.perm_a[x]] != base.perm_a[m[x]]:
            return False
        if m[cover.perm_b[x]] != base.perm_b[m[x]]:
            return False
        if (x in cover.colored) != (m[x] in base.colored):
            return False
    return True


@dataclass(frozen=True)
class CommonCoverDecision:
    """Outcome of the common-decorated-cover search, with a witness if found."""

    has_cover: bool
    witness: DecoratedGraph | None = None
    witness_map1: tuple[int, ...] | None = None
    witness_map2: tuple[int, ...] | None = None


def has_common_decorated_cover(g1: DecoratedGraph, g2: DecoratedGraph) -> CommonCoverDecision:
    """Decide whether two decorated graphs share a decorated cover.

    A component C of the fiber product is color-consistent when the two
    pullback colorings agree on C; such a C, so colored, covers both inputs.
    If no component is consistent, no common decorated cover exists: any
    common cover would admit a map to the fiber product whose image is a
    component, forcing the pullback colorings to agree there.

    By the projection lemma (module docstring) only the components through
    colored pairs (c1, c2) are candidates, or the component of (0, 0) when
    neither graph is colored; no component is one when exactly one graph is
    colored.  Candidates are explored from their colored pairs in encoded
    order i * |V2| + j, each abandoned at its first color clash.  The
    witness is the consistent component with the smallest encoded vertex,
    relabeled in increasing encoded order and colored by pulling back g1's
    coloring: the first consistent component of the whole product.
    """
    # Forward moves suffice: a and b generate a finite group.
    moves = ((0, g1.perm_a, g2.perm_a), (2, g1.perm_b, g2.perm_b))
    colored1, colored2 = g1.colored, g2.colored
    if bool(colored1) != bool(colored2):
        return CommonCoverDecision(False)
    # Pairs (i, j) in lexicographic order, which is the encoded order.
    seeds = sorted(itertools.product(colored1, colored2)) or [(0, 0)]
    reached: dict = {}
    best = None
    for seed in seeds:
        component, stop = product_search(moves, colored1, colored2, seed, reached)
        if stop is None and (best is None or min(component) < min(best)):
            best = component
    if best is None:
        return CommonCoverDecision(False)

    order = sorted(best)
    index = {pair: new for new, pair in enumerate(order)}
    perm_a = tuple(index[g1.perm_a[i], g2.perm_a[j]] for i, j in order)
    perm_b = tuple(index[g1.perm_b[i], g2.perm_b[j]] for i, j in order)
    map1, map2 = zip(*order)
    colored = frozenset(new for new, i in enumerate(map1) if i in colored1)
    witness = DecoratedGraph(len(order), perm_a, perm_b, colored)
    if not (check_cover(witness, g1, map1) and check_cover(witness, g2, map2)):
        raise RuntimeError("fiber-product witness failed the covering check")
    return CommonCoverDecision(True, witness, map1, map2)


def graph_to_text(graph: DecoratedGraph) -> str:
    """Line format: vertex count, a-row, b-row, sorted colored list; one per line."""
    lines = [
        str(graph.vertex_count),
        " ".join(str(v) for v in graph.perm_a),
        " ".join(str(v) for v in graph.perm_b),
        " ".join(str(v) for v in sorted(graph.colored)),
    ]
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> DecoratedGraph:
    """Inverse of graph_to_text: exactly its four lines, then only blank lines."""
    lines = text.split("\n")
    if len(lines) < 4:
        raise ValueError("graph text needs four lines")
    if any(line.strip() for line in lines[4:]):
        raise ValueError("graph text has more than four lines")
    rows = [line.split(" ") if line else [] for line in lines[:4]]
    # int() also takes "1_0", "+2", non-ASCII digits and padding whitespace.
    if len(rows[0]) != 1 or not all(v.isascii() and v.isdigit() for row in rows for v in row):
        raise ValueError("malformed graph text")
    try:
        (n,), perm_a, perm_b, colored = ([int(v) for v in row] for row in rows)
    except ValueError as error:  # only the digit limit refuses an ASCII digit run
        raise ValueError(f"graph text has {_digit_limit_refusal(text)}") from error
    if len(set(colored)) != len(colored):
        raise ValueError("colored list repeats a vertex")
    graph = DecoratedGraph(n, tuple(perm_a), tuple(perm_b), frozenset(colored))
    # What still parses but differs: leading zeros, an unsorted colored list.
    if graph_to_text(graph) != "\n".join(lines[:4]) + "\n":
        raise ValueError("graph text differs from the text the writer gives its graph")
    return graph
