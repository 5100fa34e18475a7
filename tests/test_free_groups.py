import gc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from volcount import free_groups
from volcount.assembler import (
    assemble,
    default_parcel,
    descriptor_from_json,
    descriptor_to_json,
    trace_word,
)
from volcount.free_groups import (
    MAX_INDEX,
    DecoratedGraph,
    Word,
    distinguishing_word,
    enumerate_subgroups,
    hall_count,
    product_search,
    subgroup_table,
    _bfs,
    _inverse_permutation,
)

HALL_VALUES = (1, 3, 13, 71, 461, 3447, 29093)
PAST_LIMIT = "<past Python's 4,300-digit limit>"  # how a refusal names an unprintable int


def trace_vertex(table: DecoratedGraph, word: Word) -> int:
    """Endpoint of the path reading the word from the basepoint.

    Steps through the permutations themselves, an inverse letter by a
    search, so it shares nothing with the production step tables.
    """
    v = table.basepoint
    for letter in word.letters:
        perm = table.perm_a if letter < 2 else table.perm_b
        v = perm[v] if letter % 2 == 0 else perm.index(v)
    return v


def word_membership(table: DecoratedGraph, word: Word) -> bool:
    """Whether the word lies in the subgroup: its path returns to the basepoint."""
    return trace_vertex(table, word) == table.basepoint


def brute_force_tables(k):
    """Every transitive pair of permutations, deduplicated up to basepoint-
    preserving relabeling.  Independent of the production backtracking."""
    seen = {}
    for perm_a in permutations(range(k)):
        for perm_b in permutations(range(k)):
            reached = {0}
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for image in (perm_a[v], perm_b[v]):
                    if image not in reached:
                        reached.add(image)
                        frontier.append(image)
            if len(reached) != k:
                continue
            table = subgroup_table(k, perm_a, perm_b)
            seen[table.canonical_key()] = table
    return list(seen.values())


class TestCounts:
    def test_hall_recursion_values(self):
        assert tuple(hall_count(k) for k in range(1, 8)) == HALL_VALUES

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_enumeration_matches_brute_force(self, k):
        enumerated = enumerate_subgroups(k)
        brute = brute_force_tables(k)
        assert len(enumerated) == len(brute) == hall_count(k)
        assert {t.canonical_key() for t in enumerated} == {
            t.canonical_key() for t in brute
        }

    @pytest.mark.parametrize("k", [5, 6])
    def test_enumeration_matches_recursion(self, k):
        assert len(enumerate_subgroups(k)) == hall_count(k)

    @pytest.mark.parametrize("k", range(1, MAX_INDEX + 1))
    def test_enumerated_tables_are_valid_and_canonical(self, k):
        # The enumerator builds its tables without the constructor's checks.
        tables = enumerate_subgroups(k)
        assert len(tables) == hall_count(k)
        for t in tables:
            assert subgroup_table(t.vertex_count, t.perm_a, t.perm_b) == t
            assert t.canonical_key() == (k, t.perm_a, t.perm_b, (0,))
            assert not hasattr(t, "__dict__")
            # One coloring set serves the whole enumeration.
            assert t.colored is tables[0].colored
        assert len({t.canonical_key() for t in tables}) == len(tables)
        # The stored key takes no part in equality or hashing: a table whose
        # key is stored equals a fresh copy.
        fresh = DecoratedGraph(k, t.perm_a, t.perm_b, frozenset({0}))
        assert t == fresh and hash(t) == hash(fresh)
        parcel = default_parcel(4, compact=False)
        read_back = descriptor_from_json(descriptor_to_json(assemble(t, parcel))).source_graph
        for graph in (fresh, read_back):
            assert not hasattr(graph, "__dict__")

    @pytest.mark.parametrize("k", range(1, MAX_INDEX + 1))
    def test_enumeration_is_in_scan_key_order(self, k):
        # Strictly increasing in (a[v], a^-1[v], b[v], b^-1[v]) for v = 0..k-1,
        # the order that file names and enumerate listings follow.
        def scan_key(table):
            inverse_a = {w: v for v, w in enumerate(table.perm_a)}
            inverse_b = {w: v for v, w in enumerate(table.perm_b)}
            return tuple(
                image
                for v in range(k)
                for image in (table.perm_a[v], inverse_a[v], table.perm_b[v], inverse_b[v])
            )

        keys = [scan_key(t) for t in enumerate_subgroups(k)]
        assert len(keys) == hall_count(k)
        assert all(earlier < later for earlier, later in zip(keys, keys[1:]))

    def test_growth_floor(self):
        for k in range(1, 13):
            assert hall_count(k) ** 2 >= k**k

    def test_hall_count_refusals_leave_the_table_alone(self):
        # The recursion's table grows only for an accepted index.
        hall_count(7)
        before = list(free_groups._HALL_COUNTS)
        for k in (True, 3.0, float(len(before) + 5), 0, -4):
            for _ in range(2):
                with pytest.raises(ValueError):
                    hall_count(k)
        assert free_groups._HALL_COUNTS == before
        assert hall_count(len(before) + 2) > hall_count(len(before) + 1) > before[-1]
        assert free_groups._HALL_COUNTS[: len(before)] == before

    def test_index_cap(self):
        with pytest.raises(ValueError):
            enumerate_subgroups(MAX_INDEX + 1)
        with pytest.raises(ValueError):
            enumerate_subgroups(0)

    @pytest.mark.parametrize("k", [True, 2.0], ids=["bool", "float"])
    def test_index_is_an_int(self, k):
        # True would give a table whose vertex count is written out as True.
        with pytest.raises(ValueError, match="index must be an int"):
            enumerate_subgroups(k)

    @pytest.mark.parametrize("k", range(1, MAX_INDEX + 1))
    def test_rows_are_shared(self, k):
        tables = enumerate_subgroups(k)
        rows = [row for t in tables for row in (t.perm_a, t.perm_b)]
        # One object per distinct value, a-rows and b-rows alike.
        assert len({id(row) for row in rows}) == len(set(rows))
        for t in tables:
            key = t.canonical_key()
            assert key[1] is t.perm_a and key[2] is t.perm_b
        if k == MAX_INDEX:
            assert len({t.perm_a for t in tables}) == 354
            assert len({t.perm_b for t in tables}) == 1180
            assert len(set(rows)) == 1216

    def test_tables_leave_no_cyclic_garbage(self):
        # Freed by reference counting alone once the caller drops them.
        gc.collect()
        gc.disable()
        try:
            for k in range(1, MAX_INDEX + 1):
                assert len(enumerate_subgroups(k)) == hall_count(k)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSubgroupTable:
    def test_canonical_invariance_under_relabeling(self):
        table = enumerate_subgroups(4)[17]
        k = table.vertex_count
        for relabel in permutations(range(k)):
            if relabel[0] != 0:
                continue  # basepoint must stay put
            inverse = [0] * k
            for i, image in enumerate(relabel):
                inverse[image] = i
            perm_a = tuple(relabel[table.perm_a[inverse[v]]] for v in range(k))
            perm_b = tuple(relabel[table.perm_b[inverse[v]]] for v in range(k))
            assert subgroup_table(k, perm_a, perm_b).canonical_key() == table.canonical_key()

    def test_intransitive_rejected(self):
        with pytest.raises(ValueError, match="does not act transitively"):
            subgroup_table(2, (0, 1), (0, 1))

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_transitive_pairs(self, pair):
        perm_a, perm_b = pair
        n = len(perm_a)
        # All four letters, where the constructor steps forward only.
        inverse_a, inverse_b = (tuple(sorted(range(n), key=p.__getitem__)) for p in pair)
        orbit, _ = _bfs((perm_a, inverse_a, perm_b, inverse_b), 0)
        if len(orbit) == n:
            table = subgroup_table(n, perm_a, perm_b)
            assert (table.perm_a, table.perm_b) == (tuple(perm_a), tuple(perm_b))
            assert table.basepoint == 0
        else:
            with pytest.raises(ValueError, match="does not act transitively"):
                subgroup_table(n, perm_a, perm_b)

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            subgroup_table(0, (), ())

    @pytest.mark.parametrize(
        "degree, perm_a, refusal",
        [
            ("x" * 5000, (0,), "degree must be an int, got <5,000 characters>"),
            (-(10**5000), (0,), f"degree must be at least 1, got {PAST_LIMIT}"),
            (10**5000, (0,), f"perm_a=(0,) is not a permutation of 0..{PAST_LIMIT}"),
            (10**4000, (0,), "perm_a=(0,) is not a permutation of 0..<4,000 characters>"),
            (1, (10**5000,), f"perm_a={PAST_LIMIT} is not a permutation of 0..0"),
            (2, (1,) * 5000, "perm_a=<15,000 characters> is not a permutation of 0..1"),
        ],
        ids=["text-degree", "negative-degree", "huge-degree", "long-degree", "huge-entry",
             "long-row"],
    )
    def test_refusal_names_a_long_value_by_its_length(self, degree, perm_a, refusal):
        # Each was once quoted in full, or raised Python's digit-limit error.
        with pytest.raises(ValueError) as caught:
            subgroup_table(degree, perm_a, (0,))
        assert str(caught.value) == refusal

    @pytest.mark.parametrize(
        "perm_a", [(1.0, 0), (True, False), (1, 0.0)], ids=["float", "bool", "float-zero"]
    )
    def test_entries_equal_to_ints_rejected(self, perm_a):
        # Each row equals (1, 0), whose inverse a lookup by value would return.
        with pytest.raises(ValueError, match="is not a permutation"):
            subgroup_table(2, perm_a, (0, 1))

    def test_checked_graph_is_the_trusted_graph(self):
        # The checked constructor fills the same slots _trusted fills.
        for t in enumerate_subgroups(4):
            k = t.vertex_count
            for colored in (frozenset(), frozenset({0}), frozenset(range(k))):
                checked = DecoratedGraph(k, list(t.perm_a), iter(t.perm_b), set(colored))
                trusted = DecoratedGraph._trusted(k, t.perm_a, t.perm_b, colored)
                assert checked == trusted and hash(checked) == hash(trusted)
                assert repr(checked) == repr(trusted)
                assert (type(checked.perm_a), type(checked.perm_b)) == (tuple, tuple)
                assert type(checked.colored) is frozenset
                assert not hasattr(checked, "__dict__")
        by_keyword = DecoratedGraph(vertex_count=2, perm_a=(1, 0), perm_b=(0, 1), colored=())
        assert by_keyword == DecoratedGraph._trusted(2, (1, 0), (0, 1), frozenset())

    def test_inverse_permutation_inverts(self):
        for k in range(1, 7):
            identity = tuple(range(k))
            for perm in permutations(identity):
                inverse = _inverse_permutation(perm)
                assert tuple(perm[inverse[v]] for v in identity) == identity
                assert tuple(inverse[perm[v]] for v in identity) == identity

    def test_hashable_and_distinct(self):
        tables = enumerate_subgroups(3)
        assert len({hash(t) for t in tables}) > 1
        assert len(set(tables)) == 13


class TestWords:
    def test_string_round_trip(self):
        for letters, text in (((0,), "a"), ((0, 3), "aB"), ((0, 2, 1, 3), "abAB"), ((), "e")):
            assert str(Word(letters)) == text

    def test_invalid_letters_rejected(self):
        for letters in ((4,), (-1,), (0, 5)):
            with pytest.raises(ValueError, match="invalid letter codes"):
                Word(letters)

    def test_letters_that_only_equal_codes_are_refused(self):
        # 1.0 once built a word that str() could not print, and True one
        # equal to Word((1,)).
        for letters in ((1.0,), (True,), (0, 2.0)):
            with pytest.raises(ValueError, match="invalid letter codes"):
                Word(letters)

    def test_tracing(self):
        # Index-2 subgroup where a swaps the cosets and b fixes them.
        table = subgroup_table(2, (1, 0), (0, 1))
        assert trace_vertex(table, Word((0,))) == 1
        assert trace_vertex(table, Word((0, 0))) == 0
        assert trace_vertex(table, Word((2,))) == 0
        assert word_membership(table, Word((0, 0)))
        assert not word_membership(table, Word((0,)))


class TestDistinguishingWords:
    def test_identical_tables_inseparable(self):
        table = enumerate_subgroups(3)[5]
        assert distinguishing_word(table, table) is None

    def test_frozen_example(self):
        tables = enumerate_subgroups(2)
        word = distinguishing_word(tables[0], tables[1])
        assert word is not None and str(word) == "a"

    @pytest.mark.parametrize("k1,k2", [(2, 2), (2, 3), (3, 3), (1, 4)])
    def test_separates_membership(self, k1, k2):
        tables1, tables2 = enumerate_subgroups(k1), enumerate_subgroups(k2)
        for t1 in tables1:
            for t2 in tables2:
                word = distinguishing_word(t1, t2)
                if t1.canonical_key() == t2.canonical_key():
                    assert word is None
                else:
                    assert word_membership(t1, word) != word_membership(t2, word)

    def test_word_is_shortest(self):
        # Brute-check minimality against all words up to the returned length.
        tables = enumerate_subgroups(3)
        for i in (0, 3, 7):
            for j in (1, 5, 12):
                word = distinguishing_word(tables[i], tables[j])
                for length in range(1, len(word)):
                    for candidate in product(range(4), repeat=length):
                        w = Word(candidate)
                        assert word_membership(tables[i], w) == word_membership(
                            tables[j], w
                        )

    def test_basepoint_is_the_one_colored_vertex(self):
        table = enumerate_subgroups(2)[0]
        parcel = default_parcel(4, compact=False)
        for colored in (frozenset(), frozenset({0, 1})):
            graph = DecoratedGraph(2, table.perm_a, table.perm_b, colored)
            for call in (
                lambda: graph.basepoint,
                lambda: distinguishing_word(graph, table),
                lambda: distinguishing_word(table, graph),
                lambda: trace_word(assemble(graph, parcel), Word((0,))),
            ):
                with pytest.raises(ValueError, match="needs one colored vertex"):
                    call()
        assert DecoratedGraph(2, table.perm_a, table.perm_b, frozenset({1})).basepoint == 1

    def test_read_back_graphs_give_the_same_words(self):
        # Every pair of index <= 4: the graphs that descriptor documents read
        # back as separate exactly as the enumerated tables do.
        parcel = default_parcel(4, compact=False)
        tables = [t for k in range(1, 5) for t in enumerate_subgroups(k)]
        graphs = [
            descriptor_from_json(descriptor_to_json(assemble(t, parcel))).source_graph
            for t in tables
        ]
        assert all(g is not t and g == t for g, t in zip(graphs, tables))
        for t1, g1 in zip(tables, graphs):
            for t2, g2 in zip(tables, graphs):
                assert distinguishing_word(g1, g2) == distinguishing_word(t1, t2)

    def test_failed_membership_check_raises(self, monkeypatch):
        # A trace that never leaves the basepoint puts every word in both.
        monkeypatch.setattr(free_groups, "_trace", lambda steps, v, letters: v)
        tables = enumerate_subgroups(2)
        with pytest.raises(RuntimeError, match="failed its membership check"):
            distinguishing_word(tables[0], tables[1])

    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_membership_asymmetry_random_pairs(self, i, j):
        tables = enumerate_subgroups(3)
        word = distinguishing_word(tables[i], tables[j])
        if i == j:
            assert word is None
        else:
            assert word is not None
            assert word_membership(tables[i], word) != word_membership(tables[j], word)


def _moves(g1: DecoratedGraph, g2: DecoratedGraph, letters) -> tuple:
    steps1, steps2 = g1.steps(), g2.steps()
    return tuple((letter, steps1[letter], steps2[letter]) for letter in letters)


class TestProductSearch:
    def test_four_letters_stop_at_the_frozen_word(self):
        # The index-2 tables of test_frozen_example: a fixes coset 0 in the
        # first and moves it in the second, so the first letter clashes.
        t1, t2 = enumerate_subgroups(2)[:2]
        moves, reached = _moves(t1, t2, range(4)), {}
        pairs, stop = product_search(moves, t1.colored, t2.colored, (0, 0), reached)
        assert pairs == [(0, 0), (0, 1)] and stop == (0, 1)
        assert reached == {(0, 0): ((0, 0), None, None), (0, 1): ((0, 0), (0, 0), 0)}
        assert str(distinguishing_word(t1, t2)) == "a"

    def test_forward_moves_give_the_component_of_a_consistent_seed(self):
        # The 4-cycle a = +1, b = +2 against itself: the component of (1, 1)
        # is the diagonal, reached by a, b, then b from (2, 2).
        graph = DecoratedGraph(4, (1, 2, 3, 0), (2, 3, 0, 1), frozenset({1, 3}))
        moves, reached = _moves(graph, graph, (0, 2)), {}
        pairs, stop = product_search(moves, graph.colored, graph.colored, (1, 1), reached)
        assert stop is None
        assert pairs == [(1, 1), (2, 2), (3, 3), (0, 0)]
        assert reached == {
            (1, 1): ((1, 1), None, None),
            (2, 2): ((1, 1), (1, 1), 0),
            (3, 3): ((1, 1), (1, 1), 2),
            (0, 0): ((1, 1), (2, 2), 2),
        }

    def test_a_shared_map_stops_at_an_earlier_seeds_pair(self):
        # The @example of TestCommonCoverDecision: one component, two colored
        # pairs.  (0, 0) clashes at (0, 2) by a; from (0, 1), a loops and b
        # meets (0, 0), which the first search reached.
        loop = DecoratedGraph(1, (0,), (0,), frozenset({0}))
        graph = DecoratedGraph(3, (2, 1, 0), (1, 0, 2), frozenset({0, 1}))
        moves, reached = _moves(loop, graph, (0, 2)), {}

        def search(seed):
            return product_search(moves, loop.colored, graph.colored, seed, reached)

        assert search((0, 0)) == ([(0, 0), (0, 2)], (0, 2))
        assert search((0, 1)) == ([(0, 1)], (0, 0))
        assert reached[(0, 0)] == ((0, 0), None, None)
        assert search((0, 0)) == ([], (0, 0))
