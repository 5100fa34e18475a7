"""Every public entry point refuses int and rational look-alikes.

The walk covers the callables volcount/__init__.py re-exports, Word among
them.  Each case is a call that is accepted and the position of one int or
rational argument in it.  The walk puts True, a float equal to the value
and, for an int, a Fraction equal to it (for a rational, its text) in that
position, makes the call twice (a refusal is never answered from a cache)
and expects ValueError both times.  A re-exported callable that takes no
such argument is listed in NO_INT_ARGUMENTS with the reason, so a new
export must be placed in one table or the other.
"""

from fractions import Fraction

import pytest

import volcount
from volcount import (
    DecoratedGraph,
    FamilyForm,
    ManifoldDescriptor,
    Parcel,
    Place,
    Word,
    check_cover,
    count_lower_bound,
    default_parcel,
    emit_descriptors,
    enumerate_subgroups,
    factor_int,
    from_subgroup,
    hall_count,
    hasse_witt,
    hilbert,
    is_prime,
    legendre_symbol,
    make_q,
    make_r,
    odd_place,
    padic_valuation,
    search_primes_anisotropic,
    search_primes_isotropic,
    sqrt_mod,
    squarefree_part,
    subgroup_table,
)

PARCEL = default_parcel(4, compact=False)
SWAP_A = DecoratedGraph(2, (1, 0), (0, 1), frozenset({0}))
DIRECTORY = object()  # stands for the test's temporary directory

# (function, accepted arguments, path to the argument, "int" or "rational").
# A path indexes the arguments, then into a sequence argument.
CASES = [
    (count_lower_bound, (30, PARCEL), (0,), "rational"),
    (default_parcel, (4, False), (0,), "int"),
    (emit_descriptors, (1, PARCEL, DIRECTORY), (0,), "int"),
    (DecoratedGraph, (2, (1, 0), (0, 1), (0,)), (0,), "int"),
    (DecoratedGraph, (2, (1, 0), (0, 1), (0,)), (1, 0), "int"),
    (DecoratedGraph, (2, (1, 0), (0, 1), (0,)), (2, 1), "int"),
    (DecoratedGraph, (2, (1, 0), (0, 1), (0,)), (3, 0), "int"),
    (check_cover, (SWAP_A, SWAP_A, (0, 1)), (2, 1), "int"),
    (from_subgroup, (SWAP_A, (1,)), (1, 0), "int"),
    (factor_int, (12,), (0,), "int"),
    (is_prime, (7,), (0,), "int"),
    (legendre_symbol, (2, 7), (0,), "int"),
    (legendre_symbol, (2, 7), (1,), "int"),
    (padic_valuation, (12, 3), (0,), "rational"),
    (padic_valuation, (12, 3), (1,), "int"),
    (sqrt_mod, (2, 7), (0,), "int"),
    (sqrt_mod, (2, 7), (1,), "int"),
    (squarefree_part, (12,), (0,), "rational"),
    (FamilyForm, ("q", 5, 4), (1,), "int"),
    (FamilyForm, ("q", 5, 4), (2,), "int"),
    (make_q, (5, 4), (0,), "int"),
    (make_q, (5, 4), (1,), "int"),
    (make_r, (17, 4), (0,), "int"),
    (make_r, (17, 4), (1,), "int"),
    (search_primes_isotropic, (2,), (0,), "int"),
    (search_primes_anisotropic, (2,), (0,), "int"),
    (Word, ((0, 2),), (0, 1), "int"),
    (enumerate_subgroups, (3,), (0,), "int"),
    (hall_count, (3,), (0,), "int"),
    (subgroup_table, (2, (1, 0), (0, 1)), (0,), "int"),
    (subgroup_table, (2, (1, 0), (0, 1)), (1, 1), "int"),
    (subgroup_table, (2, (1, 0), (0, 1)), (2, 0), "int"),
    (Place, (5,), (0,), "int"),
    (odd_place, (5,), (0,), "int"),
    (hilbert, (3, 5, odd_place(5)), (0,), "rational"),
    (hilbert, (3, 5, odd_place(5)), (1,), "rational"),
    (hasse_witt, ((1, 2, 3), odd_place(5)), (0, 2), "rational"),
]

NO_INT_ARGUMENTS = {
    # Records the package builds from values it has already checked.
    "CountReport": "result record",
    "TraceResult": "result record",
    "NonCommensurabilityCertificate": "result record",
    "PrimalityRangeError": "exception class",
    # Their arguments are graphs, descriptors, forms, parcels, words or text.
    "Parcel": "no int argument",
    "ManifoldDescriptor": "no int argument",
    "assemble": "no int argument",
    "commensurability_verdict": "no int argument",
    "descriptor_from_json": "no int argument",
    "descriptor_to_json": "no int argument",
    "trace_word": "no int argument",
    "volume_bound": "no int argument",
    "graph_from_text": "no int argument",
    "graph_to_text": "no int argument",
    "has_common_decorated_cover": "no int argument",
    "noncommensurability_certificate": "no int argument",
    "distinguishing_word": "no int argument",
}


def _replace(args: tuple, path: tuple, value) -> tuple:
    head, *rest = path
    inner = _replace(args[head], tuple(rest), value) if rest else value
    return args[:head] + (inner,) + args[head + 1:]


def _at(args: tuple, path: tuple):
    for index in path:
        args = args[index]
    return args


def _look_alikes(value, kind: str) -> list:
    # Fraction(text) parses, so a rational's text is a look-alike too.
    return [True, float(value), Fraction(value) if kind == "int" else str(value)]


WALK = [
    (function, args, path, substitute)
    for function, args, path, kind in CASES
    for substitute in _look_alikes(_at(args, path), kind)
]


def test_every_export_is_walked_or_listed():
    exported = {
        name
        for name in dir(volcount)
        if not name.startswith("_") and callable(getattr(volcount, name))
    }
    walked = {function.__name__ for function, *_ in CASES}
    assert walked.isdisjoint(NO_INT_ARGUMENTS)
    assert exported == walked | set(NO_INT_ARGUMENTS)


@pytest.mark.parametrize(
    "function, args",
    [case[:2] for case in CASES],
    ids=[f"{function.__name__}{path}" for function, _, path, _ in CASES],
)
def test_accepted_call(function, args, tmp_path):
    function(*(tmp_path if arg is DIRECTORY else arg for arg in args))


@pytest.mark.parametrize(
    "function, args, path, substitute",
    WALK,
    ids=[f"{function.__name__}{path}={value!r}" for function, _, path, value in WALK],
)
def test_look_alike_is_refused(function, args, path, substitute, tmp_path):
    args = tuple(tmp_path if arg is DIRECTORY else arg for arg in _replace(args, path, substitute))
    for _ in range(2):
        with pytest.raises(ValueError):
            function(*args)


@pytest.mark.parametrize("vertex", [0.0, False, Fraction(0)], ids=repr)
def test_own_coloring_look_alike_is_refused(vertex):
    # The walk's from_subgroup case recolors SWAP_A; these equal its own
    # coloring {0}, for which from_subgroup returns the table itself.
    for _ in range(2):
        with pytest.raises(ValueError, match="colored vertices must be vertices"):
            from_subgroup(SWAP_A, {vertex})
