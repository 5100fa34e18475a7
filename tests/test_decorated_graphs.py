from functools import cache
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from volcount import decorated_graphs, free_groups
from volcount.decorated_graphs import (
    CommonCoverDecision,
    DecoratedGraph,
    check_cover,
    from_subgroup,
    graph_from_text,
    graph_to_text,
    has_common_decorated_cover,
)
from volcount.free_groups import _bfs, distinguishing_word, enumerate_subgroups, product_search

# Small fixed graphs used throughout: the three 2-vertex Schreier graphs.
SWAP_A = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0}))
SWAP_B = DecoratedGraph(2, (0, 1), (1, 0), frozenset({0}))
SWAP_BOTH = DecoratedGraph(2, (1, 0), (1, 0), frozenset({0}))
LOOP = DecoratedGraph(1, (0,), (0,), frozenset({0}))


def _orbits(perm_a, perm_b):
    """Orbits of a raw permutation pair, each sorted, by least vertex."""
    remaining, orbits = set(range(len(perm_a))), []
    while remaining:
        order, _ = _bfs((perm_a, perm_b), min(remaining))
        remaining.difference_update(order)
        orbits.append(tuple(sorted(order)))
    return orbits


def relabeled(graph, relabel):
    inverse = [0] * graph.vertex_count
    for i, image in enumerate(relabel):
        inverse[image] = i
    return DecoratedGraph(
        graph.vertex_count,
        tuple(relabel[graph.perm_a[inverse[v]]] for v in range(graph.vertex_count)),
        tuple(relabel[graph.perm_b[inverse[v]]] for v in range(graph.vertex_count)),
        frozenset(relabel[v] for v in graph.colored),
    )


def recolored(graph, colored):
    return DecoratedGraph(graph.vertex_count, graph.perm_a, graph.perm_b, colored)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecoratedGraph(2, (0, 0), (0, 1), frozenset())
        with pytest.raises(ValueError):
            DecoratedGraph(2, (1, 0), (0, 1), frozenset({2}))
        # Rejected by the permutation-pair check subgroup tables go through too.
        with pytest.raises(ValueError, match="degree must be at least 1"):
            DecoratedGraph(0, (), (), frozenset())
        with pytest.raises(ValueError, match="is not a permutation"):
            DecoratedGraph(2, (1, 0), (0.0, 1), frozenset())

    def test_from_subgroup(self):
        table = enumerate_subgroups(2)[0]
        graph = from_subgroup(table, frozenset({0}))
        assert graph.vertex_count == 2
        assert (graph.perm_a, graph.perm_b) == (table.perm_a, table.perm_b)

    def test_connectivity(self):
        # Connected through b alone, and through a alone.
        DecoratedGraph(3, (0, 1, 2), (1, 2, 0), frozenset())
        DecoratedGraph(3, (1, 2, 0), (0, 1, 2), frozenset())
        with pytest.raises(ValueError, match="does not act transitively"):
            DecoratedGraph(2, (0, 1), (0, 1), frozenset())
        with pytest.raises(ValueError, match="does not act transitively"):
            DecoratedGraph(3, (1, 0, 2), (0, 1, 2), frozenset({2}))

    @pytest.mark.parametrize(
        "args",
        [(True, (0,), (0,), {0}), (2.0, (1, 0), (0, 1), {0})],
        ids=["bool", "float"],
    )
    def test_vertex_count_is_an_int(self, args):
        # True == 1 and 2.0 == 2, yet graph_to_text and descriptor_to_json
        # would write them as True and 2.0, neither of them JSON.
        with pytest.raises(ValueError, match="degree must be an int"):
            DecoratedGraph(*args)

    @pytest.mark.parametrize("vertex", [1.0, True], ids=["float", "bool"])
    def test_colored_vertices_are_ints(self, vertex):
        # Equal to the vertex 1, yet the writers would spell them 1.0 and True.
        with pytest.raises(ValueError, match="colored vertices must be vertices"):
            DecoratedGraph(2, (1, 0), (0, 1), {vertex})
        with pytest.raises(ValueError, match="colored vertices must be vertices"):
            from_subgroup(SWAP_A, {vertex})
        with pytest.raises(ValueError, match="colored vertices must be vertices"):
            from_subgroup(enumerate_subgroups(2)[0], {0, vertex})

    def test_from_subgroup_matches_the_validating_constructor(self):
        for k in range(1, 6):
            for table in enumerate_subgroups(k):
                for colored in (frozenset({table.basepoint}), frozenset(range(1, k, 2))):
                    graph = from_subgroup(table, colored)
                    checked = DecoratedGraph(k, table.perm_a, table.perm_b, colored)
                    assert graph == checked
                    if len(colored) == 1:  # only a one-colored graph has a key
                        assert graph.canonical_key() == checked.canonical_key()
        table = enumerate_subgroups(3)[0]
        for colored in ({3}, {-1}, {0, 5}):
            with pytest.raises(ValueError, match="colored vertices must be vertices"):
                from_subgroup(table, colored)

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        )
    )
    @example(((0, 1, 2), (1, 2, 0)))  # connected through b alone
    @example(((1, 2, 0), (0, 1, 2)))  # connected through a alone
    @example(((1, 0, 2), (0, 1, 2)))  # intransitive
    @settings(max_examples=300, deadline=None)
    def test_connectivity_counts_one_component(self, pair):
        # The constructor searches from vertex 0 alone; the oracle counts
        # the orbits through every vertex.
        perm_a, perm_b = pair
        if len(_orbits(perm_a, perm_b)) == 1:
            assert DecoratedGraph(len(perm_a), perm_a, perm_b, frozenset()).perm_a == tuple(perm_a)
        else:
            with pytest.raises(ValueError, match="does not act transitively"):
                DecoratedGraph(len(perm_a), perm_a, perm_b, frozenset())


class TestIsomorphism:
    # Graphs colored at one vertex are isomorphic exactly when their
    # subgroup keys are equal.
    def test_relabeling_preserves_isomorphism_class(self):
        for graph in (SWAP_A, SWAP_B, SWAP_BOTH):
            assert graph.canonical_key() == relabeled(graph, (1, 0)).canonical_key()

    def test_distinct_subgroup_graphs_differ(self):
        graphs = [from_subgroup(t, frozenset({0})) for t in enumerate_subgroups(3)]
        for i, g1 in enumerate(graphs):
            for j, g2 in enumerate(graphs):
                assert (g1.canonical_key() == g2.canonical_key()) == (i == j)

    def test_vertex_count_mismatch(self):
        assert SWAP_A.canonical_key() != LOOP.canonical_key()


# Cached so that an exhaustive pairwise comparison does each search once per
# graph; a frozen graph hashes and compares by its fields.
@cache
def _anchored_encoding(graph, start):
    order, label = _bfs(graph.steps(), start)
    perm_a = tuple(label[graph.perm_a[v]] for v in order)
    perm_b = tuple(label[graph.perm_b[v]] for v in order)
    colored = tuple(new for new, v in enumerate(order) if v in graph.colored)
    return (len(order), perm_a, perm_b, colored)


def anchored_map_isomorphic(g1, g2):
    """The anchored-map isomorphism search: the oracle for canonical keys.

    Anchor vertex 0 of g1 and try each same-colored vertex of g2 as its
    image; the extension is unique, so equality of the two anchored
    encodings decides.
    """
    if g1.vertex_count != g2.vertex_count:
        return False
    target = _anchored_encoding(g1, 0)
    return any(
        (v in g2.colored) == (0 in g1.colored) and _anchored_encoding(g2, v) == target
        for v in range(g2.vertex_count)
    )


@st.composite
def any_graphs(draw, n):
    """An n-vertex graph with an empty, partial or full coloring."""
    perm_a, perm_b = (tuple(draw(st.permutations(range(n)))) for _ in "ab")
    assume(len(_orbits(perm_a, perm_b)) == 1)
    coloring = draw(st.sampled_from(("empty", "partial", "full")))
    if coloring == "partial":
        colored = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=max(1, n - 1)))
    else:
        colored = frozenset(range(n) if coloring == "full" else ())
    return DecoratedGraph(n, perm_a, perm_b, colored)


def relabeling_classes(n):
    """Every n-vertex graph colored at one vertex, grouped into its classes
    under relabeling.

    The pairs that do not act transitively are not decorated graphs.
    """
    classes = {}
    for perm_a in permutations(range(n)):
        for perm_b in permutations(range(n)):
            if len(_orbits(perm_a, perm_b)) > 1:
                continue
            for basepoint in range(n):
                graph = DecoratedGraph(n, perm_a, perm_b, {basepoint})
                orbit = frozenset(
                    (g.perm_a, g.perm_b, g.colored)
                    for g in (relabeled(graph, r) for r in permutations(range(n)))
                )
                classes.setdefault(orbit, []).append(graph)
    return list(classes.values())


class TestCanonicalKey:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_key_per_relabeling_class(self, n):
        classes = relabeling_classes(n)
        keys = [{graph.canonical_key() for graph in graphs} for graphs in classes]
        assert all(len(class_keys) == 1 for class_keys in keys)
        assert len(set().union(*keys)) == len(classes)

    @pytest.mark.parametrize("colored", [set(), {0, 1}], ids=["none", "two"])
    def test_needs_exactly_one_colored_vertex(self, colored):
        # Only a graph colored at one vertex stands for a subgroup.
        graph = DecoratedGraph(2, (1, 0), (0, 1), colored)
        with pytest.raises(ValueError, match="needs one colored vertex"):
            graph.canonical_key()

    def test_basepoint_colored_schreier_graphs_share_the_table(self):
        for k in range(1, 6):
            for table in enumerate_subgroups(k):
                graph = from_subgroup(table, frozenset({0}))
                size, perm_a, perm_b, colored = graph.canonical_key()
                assert (size, perm_a, perm_b, colored) == (k, table.perm_a, table.perm_b, (0,))
                assert perm_a is graph.perm_a and perm_b is graph.perm_b

    def test_matches_the_oracle_on_every_small_graph_colored_at_one_vertex(self):
        # 330 graphs: each table of index <= 4 colored at each of its vertices.
        graphs = [
            from_subgroup(table, frozenset({v}))
            for k in range(1, 5)
            for table in enumerate_subgroups(k)
            for v in range(k)
        ]
        assert len(graphs) == 330
        for g1 in graphs:
            for g2 in graphs:
                same_key = g1.canonical_key() == g2.canonical_key()
                assert same_key == anchored_map_isomorphic(g1, g2)

    def test_computed_once(self):
        graph = DecoratedGraph(3, (1, 2, 0), (0, 2, 1), frozenset({1}))
        assert graph.canonical_key() is graph.canonical_key()
        assert graph == DecoratedGraph(3, (1, 2, 0), (0, 2, 1), frozenset({1}))


class TestCovers:
    def test_double_cover_of_loop(self):
        cover = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0, 1}))
        assert check_cover(cover, LOOP, (0, 0))

    def test_color_mismatch_fails(self):
        cover = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0}))
        assert not check_cover(cover, LOOP, (0, 0))

    def test_bad_maps_fail(self):
        base = SWAP_A
        cover = DecoratedGraph(4, (1, 0, 3, 2), (2, 3, 0, 1), frozenset({0, 2}))
        assert check_cover(cover, base, (0, 1, 0, 1))
        # Breaks a-commutation at vertex 0.
        assert not check_cover(cover, base, (0, 0, 1, 1))
        # Commutes with both permutations but sends a colored vertex to an
        # uncolored one.
        assert not check_cover(cover, base, (1, 0, 1, 0))

    def test_surjectivity_required(self):
        # A map commuting with both permutations has an image closed under
        # them, so every map the check accepts is onto the connected base.
        graphs = [
            from_subgroup(table, colored)
            for k in range(1, 4)
            for table in enumerate_subgroups(k)
            for colored in (frozenset(), frozenset({0}))
        ]
        accepted = 0
        for cover in graphs:
            for base in graphs:
                for m in product(range(base.vertex_count), repeat=cover.vertex_count):
                    if check_cover(cover, base, m):
                        accepted += 1
                        assert set(m) == set(range(base.vertex_count))
        assert accepted > len(graphs)


def _fiber_product(g1, g2):
    """Pairs (i, j) in encoded order i * |V2| + j, and the coordinatewise a- and b-rows."""
    n2 = g2.vertex_count
    pairs = [(i, j) for i in range(g1.vertex_count) for j in range(n2)]
    perm_a = tuple(g1.perm_a[i] * n2 + g2.perm_a[j] for i, j in pairs)
    perm_b = tuple(g1.perm_b[i] * n2 + g2.perm_b[j] for i, j in pairs)
    return pairs, perm_a, perm_b


def _reference_decision(g1, g2):
    """The decision read off the whole fiber product: its first consistent component."""
    pairs, perm_a, perm_b = _fiber_product(g1, g2)
    for component in _orbits(perm_a, perm_b):
        if not all((pairs[x][0] in g1.colored) == (pairs[x][1] in g2.colored) for x in component):
            continue
        index = {old: new for new, old in enumerate(component)}
        witness = DecoratedGraph(
            len(component),
            tuple(index[perm_a[old]] for old in component),
            tuple(index[perm_b[old]] for old in component),
            frozenset(index[old] for old in component if pairs[old][0] in g1.colored),
        )
        map1 = tuple(pairs[old][0] for old in component)
        map2 = tuple(pairs[old][1] for old in component)
        return CommonCoverDecision(True, witness, map1, map2)
    return CommonCoverDecision(False)


def colored_graphs(max_degree=6):
    """A graph of degree 1..max_degree with an empty, partial or full coloring."""
    return st.integers(min_value=1, max_value=max_degree).flatmap(any_graphs)


@st.composite
def graph_pairs(draw):
    """Two colored graphs; in half the pairs the second relabels the first.

    A relabeled copy shares covers with the original and, when a
    color-preserving symmetry exists, has several consistent components.
    """
    g1 = draw(colored_graphs())
    if draw(st.booleans()):
        return g1, draw(colored_graphs())
    relabel = draw(st.permutations(range(g1.vertex_count)))
    return g1, relabeled(g1, tuple(relabel))


@st.composite
def multiply_colored_pairs(draw):
    """Pairs as graph_pairs draws them, with at least two colored pairs.

    One graph is colored at two or more of its vertices, the other at one
    or more; in half the pairs the other relabels the first, and either
    may come first.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    many = recolored(draw(any_graphs(n)), draw(st.frozensets(st.integers(0, n - 1), min_size=2)))
    if draw(st.booleans()):
        other = draw(colored_graphs())
        colored = draw(st.frozensets(st.integers(0, other.vertex_count - 1), min_size=1))
        other = recolored(other, colored)
    else:
        other = relabeled(many, tuple(draw(st.permutations(range(n)))))
    return (many, other) if draw(st.booleans()) else (other, many)


class TestCommonCoverDecision:
    @given(graph_pairs())
    # One component, two colored pairs: the search from (0, 0) clashes at
    # once, and the one from (0, 1) meets (0, 0) again before any clash.
    @example((LOOP, DecoratedGraph(3, (2, 1, 0), (1, 0, 2), frozenset({0, 1}))))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_whole_fiber_product(self, pair):
        g1, g2 = pair
        decision = has_common_decorated_cover(g1, g2)
        assert decision == _reference_decision(g1, g2)

    @given(multiply_colored_pairs())
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def test_searches_return_each_product_pair_at_most_once(self, pair):
        # One map shared across seeds bounds a decision by |V1| * |V2| pairs.
        g1, g2 = pair
        returned = []

        def recording(*args):
            pairs, stop = product_search(*args)
            returned.extend(pairs)
            return pairs, stop

        with mock.patch.object(decorated_graphs, "product_search", recording):
            decision = has_common_decorated_cover(g1, g2)
        assert len(set(returned)) == len(returned) <= g1.vertex_count * g2.vertex_count
        if decision.has_cover:
            assert set(zip(decision.witness_map1, decision.witness_map2)) <= set(returned)

    def test_witness_is_the_smallest_consistent_component(self):
        # The 4-cycle a = +1, b = +2 colored at 1 and 3, against its
        # relabeling by 1 <-> 3.  The symmetries x -> x and x -> x + 2 keep
        # the coloring, so two components are consistent: the one through
        # (0, 0) comes first in the product, but the smallest colored pair
        # (1, 1) lies in the other one, through (0, 2).
        g1 = DecoratedGraph(4, (1, 2, 3, 0), (2, 3, 0, 1), frozenset({1, 3}))
        g2 = relabeled(g1, (0, 3, 2, 1))
        decision = has_common_decorated_cover(g1, g2)
        assert decision == _reference_decision(g1, g2)
        assert decision.witness_map1 == (0, 1, 2, 3)
        assert decision.witness_map2 == (0, 3, 2, 1)

    def test_one_side_colored(self):
        uncolored = DecoratedGraph(2, (1, 0), (0, 1), frozenset())
        assert has_common_decorated_cover(SWAP_A, uncolored) == CommonCoverDecision(False)
        assert has_common_decorated_cover(uncolored, SWAP_A) == CommonCoverDecision(False)

    def test_every_no_is_the_plain_no(self):
        # Every connected graph on 1-3 vertices under every coloring.
        graphs = [
            DecoratedGraph(n, perm_a, perm_b, frozenset(v for v in range(n) if mask >> v & 1))
            for n in (1, 2, 3)
            for perm_a in permutations(range(n))
            for perm_b in permutations(range(n))
            if len(_bfs((perm_a, perm_b), 0)[0]) == n
            for mask in range(2**n)
        ]
        nos = [
            decision
            for g1 in graphs
            for g2 in graphs
            if not (decision := has_common_decorated_cover(g1, g2)).has_cover
        ]
        plain = CommonCoverDecision(False)
        assert len(nos) > 1000
        assert all(no == plain and hash(no) == hash(plain) for no in nos)
        assert repr(nos[0]) == repr(plain)
        assert len({id(no) for no in nos}) == 1  # one shared value

    def test_uncolored_pair_takes_the_origin_component(self):
        uncolored = DecoratedGraph(2, (1, 0), (0, 1), frozenset())
        # The product's a-steps pair (0, 0) with (1, 1) and (0, 1) with (1, 0).
        _, perm_a, perm_b = _fiber_product(uncolored, uncolored)
        assert _orbits(perm_a, perm_b) == [(0, 3), (1, 2)]
        decision = has_common_decorated_cover(uncolored, uncolored)
        assert decision.witness == uncolored
        assert (decision.witness_map1, decision.witness_map2) == ((0, 1), (0, 1))

    def test_distinct_pairs_share_nothing(self):
        graphs = [SWAP_A, SWAP_B, SWAP_BOTH]
        for i, g1 in enumerate(graphs):
            for j, g2 in enumerate(graphs):
                decision = has_common_decorated_cover(g1, g2)
                assert decision.has_cover == (i == j)

    def test_witness_is_validated_cover(self):
        decision = has_common_decorated_cover(SWAP_A, SWAP_A)
        assert decision.has_cover
        assert check_cover(decision.witness, SWAP_A, decision.witness_map1)
        assert check_cover(decision.witness, SWAP_A, decision.witness_map2)

    def test_fully_colored_pair(self):
        g1 = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0, 1}))
        g2 = DecoratedGraph(2, (0, 1), (1, 0), frozenset({0, 1}))
        assert has_common_decorated_cover(g1, g2).has_cover

    def test_uncolored_pair(self):
        g1 = DecoratedGraph(2, (1, 0), (0, 1), frozenset())
        g2 = DecoratedGraph(2, (0, 1), (1, 0), frozenset())
        assert has_common_decorated_cover(g1, g2).has_cover

    def test_disconnected_input_rejected(self):
        # The decision takes connected graphs, and no other graph can be built.
        with pytest.raises(ValueError, match="does not act transitively"):
            DecoratedGraph(2, (0, 1), (0, 1), frozenset())

    def test_decisions_never_consult_canonical_keys(self, monkeypatch):
        # The cover decision and the separating word decide every pair of
        # index <= 4 on their own, so agreement with the key-based verdict is
        # a check from two sources.
        tables = [table for k in range(1, 5) for table in enumerate_subgroups(k)]
        graphs = [from_subgroup(table, frozenset({table.basepoint})) for table in tables]

        def refuse(self):
            raise AssertionError("canonical key consulted")

        monkeypatch.setattr(DecoratedGraph, "canonical_key", refuse)
        for i, (t1, g1) in enumerate(zip(tables, graphs)):
            for j, (t2, g2) in enumerate(zip(tables, graphs)):
                assert has_common_decorated_cover(g1, g2).has_cover == (i == j)
                assert (distinguishing_word(t1, t2) is None) == (i == j)

    def test_cross_index_pairs(self):
        small = from_subgroup(enumerate_subgroups(2)[0], frozenset({0}))
        for table in enumerate_subgroups(4):
            graph = from_subgroup(table, frozenset({0}))
            assert not has_common_decorated_cover(small, graph).has_cover


class TestSerialization:
    def test_format(self):
        assert graph_to_text(SWAP_A) == "2\n1 0\n0 1\n0\n"

    def test_round_trip_frozen(self):
        for graph in (SWAP_A, SWAP_B, SWAP_BOTH, LOOP):
            text = graph_to_text(graph)
            back = graph_from_text(text)
            assert graph_to_text(back) == text
            assert back.canonical_key() == graph.canonical_key()

    @given(
        st.integers(min_value=0, max_value=70),
        st.sets(st.integers(min_value=0, max_value=3)),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, index, colored):
        table = enumerate_subgroups(4)[index]
        graph = from_subgroup(table, frozenset(colored))
        text = graph_to_text(graph)
        back = graph_from_text(text)
        assert (back.vertex_count, back.perm_a, back.perm_b, back.colored) == (
            graph.vertex_count,
            graph.perm_a,
            graph.perm_b,
            graph.colored,
        )
        assert graph_to_text(back) == text

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            graph_from_text("2\n1 0\n")
        with pytest.raises(ValueError):
            graph_from_text("2\n1 x\n0 1\n\n")

    @pytest.mark.parametrize("value", [b"1\n0\n0\n0\n", None, 4], ids=["bytes", "none", "int"])
    def test_only_text_is_read(self, value):
        # Each once raised TypeError or AttributeError.
        with pytest.raises(ValueError, match=f"^graph text is text, not {type(value).__name__}$"):
            graph_from_text(value)

    @pytest.mark.parametrize(
        "text",
        [
            "1_0\n1 2 3 4 5 6 7 8 9 0\n0 1 2 3 4 5 6 7 8 9\n\n",
            "2\n1 0\n0 1_0\n0\n",
            "+2\n1 0\n0 1\n0\n",
            "2\n1 +0\n0 1\n\n",
            "2\n1 0\n0 1\n\u0660\n",
            "\u0662\n1 0\n0 1\n0\n",
        ],
        ids=[
            "underscore-count",
            "underscore-row",
            "plus-count",
            "plus-row",
            "arabic-indic-colored",
            "arabic-indic-count",
        ],
    )
    def test_only_ascii_digit_runs_parse(self, text):
        # int() takes every one of these tokens; graph_to_text writes none.
        with pytest.raises(ValueError, match="malformed graph text"):
            graph_from_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            "2\n1\x1c0\n0\t1\n\x0b0\r\n",
            "2\n1\x1c0\n0 1\n0\n",
            "2\n1 0\n0\t1\n0\n",
            "2\n1 0\n0 1\n\x0b0\n",
            "2\r\n1 0\r\n0 1\r\n0\r\n",
            "2\n1  0\n0 1\n0\n",
            "2\n1 0\n0  1\n0\n",
            " 2\n1 0\n0 1\n0\n",
            "2\n1 0 \n0 1\n0\n",
            "2\n1 0\n0 1\n \n",
        ],
        ids=[
            "mixed-separators",
            "file-separator",
            "tab",
            "vertical-tab",
            "crlf",
            "double-space-a",
            "double-space-b",
            "leading-space",
            "trailing-space",
            "space-only-colored",
        ],
    )
    def test_only_single_spaces_separate_tokens(self, text):
        # str.split() once took any whitespace; graph_to_text writes single
        # spaces between tokens and none around them.
        with pytest.raises(ValueError, match="malformed graph text"):
            graph_from_text(text)

    @pytest.mark.parametrize(
        "text",
        ["02\n1 0\n0 1\n0\n", "2\n01 0\n0 1\n0\n", "2\n1 0\n0 1\n1 0\n"],
        ids=["leading-zero-count", "leading-zero-row", "unsorted-colored"],
    )
    def test_only_the_writers_lines_parse(self, text):
        with pytest.raises(ValueError, match="differs from the text the writer gives"):
            graph_from_text(text)

    @given(colored_graphs(max_degree=8))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, graph):
        assert graph_from_text(graph_to_text(graph)) == graph

    def test_trailing_blank_lines_accepted(self):
        assert graph_from_text("2\n1 0\n0 1\n0") == SWAP_A
        assert graph_from_text("2\n1 0\n0 1\n0\n\n \n") == SWAP_A

    @pytest.mark.parametrize(
        "text",
        [
            "1" * 5000 + "\n0\n0\n0\n",
            "1\n0\n" + "0" * 4301 + "\n0\n",
            "1\n0\n0\n" + "1" * 5000 + "\n",
        ],
        ids=["count", "leading-zeros-row", "colored"],
    )
    def test_numerals_past_the_digit_limit(self, text):
        # Once refused in Python's own words, "Exceeds the limit (4300 digits)...".
        message = (
            "graph text has a numeral past Python's 4,300-digit limit"
            f" (a text of {len(text):,} characters)"
        )
        with pytest.raises(ValueError) as refusal:
            graph_from_text(text)
        assert str(refusal.value) == message

    def test_repeated_colored_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            graph_from_text("2\n1 0\n0 1\n0 0\n")

    def test_extra_lines_rejected(self):
        with pytest.raises(ValueError, match="more than four lines"):
            graph_from_text("2\n1 0\n0 1\n0\n1\n")
        with pytest.raises(ValueError, match="more than four lines"):
            graph_from_text(graph_to_text(SWAP_A) + "\n" + graph_to_text(SWAP_B))
