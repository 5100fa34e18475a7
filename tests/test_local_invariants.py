from dataclasses import fields
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from volcount import local_invariants
from volcount.exact_arith import (
    _PRIMALITY_BOUND as PSI_12,
    PrimalityRangeError,
    is_prime,
    is_square_rational,
    legendre_symbol,
    padic_valuation,
    sqrt_mod,
    squarefree_part,
)
from volcount.local_invariants import (
    DYADIC,
    REAL,
    Place,
    _class_product,
    discriminant_class,
    hasse_witt,
    hilbert,
    odd_place,
)

nonzero_fractions = st.fractions(max_denominator=60).filter(lambda x: x != 0)


def place_id(place: Place) -> str:
    """The place's name in test ids: real, dyadic or p=<prime>."""
    return {None: "real", 2: "dyadic"}.get(place.prime, f"p={place.prime}")


def patch_kernel(monkeypatch, prime, kernel) -> None:
    """Make kernel the one hilbert and hasse_witt look up for prime."""
    if prime in local_invariants._KERNELS:
        monkeypatch.setitem(local_invariants._KERNELS, prime, kernel)
    else:
        monkeypatch.setattr(local_invariants, "_ODD_KERNEL", kernel)


def _hart_one_line(n: int, rounds: int = 256) -> int | None:
    """A proper factor of composite n by Hart's one-line method, or None.

    It splits n = p * q within a few rounds when q / p is near a ratio of
    small integers.  Composites that pass many Miller-Rabin bases, psi_12 =
    p * (2p - 1) among them, are built with that shape.
    """
    for i in range(1, rounds + 1):
        s = isqrt(n * i - 1) + 1
        m = s * s % n
        t = isqrt(m)
        if t * t == m:
            d = gcd(s - t, n)
            if 1 < d < n:
                return d
    return None


def _pollard_brent(n: int, batch: int = 128) -> int:
    """A proper factor of composite n by Brent's rho (BIT 1980).

    One gcd per batch of steps, taken of the product of the differences; a
    batch that overshoots to n is replayed step by step.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                saved = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = gcd(q, n)
                k += batch
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = gcd(abs(x - saved), n)
        if d != n:
            return d
        c += 1


def prime_factors(n: int) -> list[int]:
    """The prime factors of n >= 1 with multiplicity, independently of factor_int.

    The product formula's oracle: its fractions have unbounded numerators,
    past factor_int's 10**12.  Composites are split by Hart's method, then
    Brent's rho.  A cofactor at or above psi_12, where is_prime certifies
    nothing, that Hart's method cannot split must show a Fermat witness to
    base 41, the first prime past the twelve bases, before rho runs on it,
    so that rho is never left looping on a prime.
    """
    factors, pending = [], [n]
    while pending:
        m = pending.pop()
        if m == 1:
            continue
        if m < PSI_12 and is_prime(m):
            factors.append(m)
            continue
        d = _hart_one_line(m)
        if d is None:
            assert m < PSI_12 or pow(41, m - 1, m) != 1, f"{m} is past psi_12 and may be prime"
            d = _pollard_brent(m)
        pending += [d, m // d]
    assert all(is_prime(p) for p in factors) and prod(factors) == n
    return factors

ALL_SQUARES_MOD_64 = {z * z % 64 for z in range(64)}
ODD_SQUARES_MOD_64 = {z * z % 64 for z in range(1, 64, 2)}


def dyadic_solvability_oracle(a: Fraction, b: Fraction) -> int:
    """Brute scan: ax^2 + by^2 = z^2 solvable mod 64 with x, y, z not all even.

    Coefficients are first reduced modulo squares to integers of 2-adic
    valuation 0 or 1; then 64 = 2^6 is enough precision for a primitive
    solution to lift (some variable with an odd value has a partial
    derivative of valuation at most 2).
    """

    def reduced(x: Fraction) -> int:
        decomposition = padic_valuation(x, 2)
        unit = decomposition.unit_part
        residue = (unit.numerator * unit.denominator) % 64
        return (2 ** (decomposition.exponent % 2) * residue) % 64

    a_red, b_red = reduced(a), reduced(b)
    for x in range(64):
        x_term = a_red * x * x
        for y in range(64):
            # x, y both even forces z odd for primitivity.
            targets = ODD_SQUARES_MOD_64 if x % 2 == 0 and y % 2 == 0 else ALL_SQUARES_MOD_64
            if (x_term + b_red * y * y) % 64 in targets:
                return 1
    return -1


class TestHilbertFrozenValues:
    def test_real(self):
        assert hilbert(Fraction(-1), Fraction(-1), REAL) == -1
        assert hilbert(Fraction(-1), Fraction(2), REAL) == 1
        assert hilbert(Fraction(3), Fraction(5), REAL) == 1

    def test_dyadic(self):
        assert hilbert(Fraction(-1), Fraction(-1), DYADIC) == -1
        assert hilbert(Fraction(2), Fraction(7), DYADIC) == 1
        assert hilbert(Fraction(2), Fraction(5), DYADIC) == -1
        assert hilbert(Fraction(1, 2), Fraction(1, 2), DYADIC) == 1

    def test_odd(self):
        assert hilbert(Fraction(5), Fraction(-2), odd_place(5)) == -1
        assert hilbert(Fraction(13), Fraction(-2), odd_place(5)) == 1
        assert hilbert(Fraction(2), Fraction(3), odd_place(7)) == 1

    def test_dispatch(self):
        assert hilbert(Fraction(-1), Fraction(-1), REAL) == -1
        assert hilbert(Fraction(-1), Fraction(-1), DYADIC) == -1
        assert hilbert(Fraction(-1), Fraction(-1), odd_place(5)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert(Fraction(0), Fraction(1), REAL)


class TestSquareClasses:
    """The class functions against the public route: padic_valuation, then
    the unit's Legendre symbol at an odd prime or its residue mod 8 at 2."""

    @given(nonzero_fractions, st.integers(-4, 4), st.sampled_from((3, 5, 7, 11, 13, 10007)))
    def test_odd_class(self, x, exponent, p):
        x *= Fraction(p) ** exponent
        decomposition = padic_valuation(x, p)
        unit = decomposition.unit_part
        residue = unit.numerator * pow(unit.denominator, -1, p)
        expected = (decomposition.exponent % 2, legendre_symbol(residue, p))
        assert local_invariants._odd_class(x, p) == expected

    @given(nonzero_fractions, st.integers(-4, 4))
    def test_dyadic_class(self, x, exponent):
        x *= Fraction(2) ** exponent
        decomposition = padic_valuation(x, 2)
        unit = decomposition.unit_part
        expected = (decomposition.exponent % 2, unit.numerator * pow(unit.denominator, -1, 8) % 8)
        assert local_invariants._dyadic_class(x, 2) == expected

    @given(st.integers().filter(bool) | nonzero_fractions)
    def test_real_class(self, x):
        assert local_invariants._real_class(x, None) == (-1 if x < 0 else 1)

    @pytest.mark.parametrize(
        "x, refusal",
        [
            (0, "Hilbert symbols are defined on nonzero arguments only"),
            (Fraction(0), "Hilbert symbols are defined on nonzero arguments only"),
            (True, "expected an int or a Fraction, got True"),
            (0.5, "expected an int or a Fraction, got 0.5"),
            ("1/2", "expected an int or a Fraction, got '1/2'"),
        ],
    )
    @pytest.mark.parametrize("place", (REAL, DYADIC, odd_place(7)), ids=place_id)
    def test_refusals(self, x, refusal, place):
        for a, b in ((x, 3), (3, x)):
            with pytest.raises(ValueError) as refused:
                hilbert(a, b, place)
            assert str(refused.value) == refusal


class TestPlaces:
    def test_odd_place_validates(self):
        with pytest.raises(ValueError):
            odd_place(2)
        with pytest.raises(ValueError):
            odd_place(9)
        assert odd_place(7) == Place(7)

    def test_a_float_prime_is_a_value_error(self):
        # One check serves exact_arith and the places: 5.0 equals a prime
        # but is refused before any modular arithmetic sees it.
        for call in (
            lambda: legendre_symbol(2, 5.0),
            lambda: sqrt_mod(2, 17.0),
            lambda: odd_place(5.0),
        ):
            with pytest.raises(ValueError, match="is not an odd prime"):
                call()

    def test_place_identity(self):
        # A place is its prime and nothing else.
        assert [field.name for field in fields(Place)] == ["prime"]
        assert REAL.prime is None
        assert DYADIC.prime == 2

    def test_hand_built_place_is_validated_on_use(self):
        # A Place built without odd_place is checked when it is built, so the
        # symbols never see a bad one.
        for prime in (9, 2.0, True):
            with pytest.raises(ValueError, match=f"{prime} is not an odd prime"):
                Place(prime)
        assert Place(7) == odd_place(7)

    def test_integer_coefficients_kept(self):
        # int and Fraction coefficients give the same invariants.
        coefficients = [5, 1, 1, -2]
        as_fractions = [Fraction(c) for c in coefficients]
        for place in (REAL, DYADIC, odd_place(5), odd_place(3)):
            assert hasse_witt(coefficients, place) == hasse_witt(as_fractions, place)
        assert discriminant_class(coefficients) == discriminant_class(as_fractions) == -10


# Place(*args) and the place it names, or ValueError where no place has that prime.
PLACES_BY_PRIME = [
    ((), REAL),
    ((None,), REAL),
    ((2,), DYADIC),
    ((7,), odd_place(7)),
    ((10007,), odd_place(10007)),
] + [((prime,), ValueError) for prime in (0, 1, 4, 9, -3, 2.0, 3.0, True, "3")]


@pytest.mark.parametrize(
    "args, expected", PLACES_BY_PRIME, ids=[f"Place{args!r}" for args, _ in PLACES_BY_PRIME]
)
def test_a_place_is_named_by_its_prime(args, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="is not an odd prime"):
            Place(*args)
    else:
        assert Place(*args) == expected


# Each rational argument, given a value that is neither an int nor a Fraction.
RATIONAL_LOOK_ALIKES = [
    (hilbert, (True, 3, REAL)),
    (hilbert, (0.5, 3, odd_place(5))),
    (hilbert, ("1/2", 3, DYADIC)),
    (hilbert, (3, 2.0, DYADIC)),
    (hasse_witt, ([1.0, 2, 3], odd_place(5))),
    (hasse_witt, ([1, Fraction(1, 2), "3"], REAL)),
    (discriminant_class, ([2.0, 3],)),
    (squarefree_part, (12.0,)),
    (squarefree_part, (True,)),
    (squarefree_part, ("12",)),
    (padic_valuation, (12.0, 3)),
    (is_square_rational, (4.0,)),
    (is_square_rational, (True,)),
]


@pytest.mark.parametrize(
    "function, args",
    RATIONAL_LOOK_ALIKES,
    ids=[f"{f.__name__}{args!r}" for f, args in RATIONAL_LOOK_ALIKES],
)
def test_rational_arguments_refuse_look_alikes(function, args):
    # Twice, so a refusal is seen not to be cached.
    for _ in range(2):
        with pytest.raises(ValueError, match="expected an int or a Fraction, got"):
            function(*args)


class TestHilbertProperties:
    @given(nonzero_fractions, nonzero_fractions, st.sampled_from((3, 5, 7, 11)))
    def test_symmetry(self, a, b, p):
        for place in (REAL, DYADIC, odd_place(p)):
            assert hilbert(a, b, place) == hilbert(b, a, place)

    @given(nonzero_fractions, nonzero_fractions)
    def test_dyadic_against_solvability(self, a, b):
        assert hilbert(a, b, DYADIC) == dyadic_solvability_oracle(a, b)

    def test_dyadic_oracle_on_unit_grid(self):
        # Exhaustive over odd units and their doubles, covering all valuation
        # and residue combinations the formula branches on.
        values = [Fraction(u) for u in (1, 3, 5, 7, -1, -3, -5, -7)]
        values += [2 * v for v in values[:8]]
        for a in values:
            for b in values:
                assert hilbert(a, b, DYADIC) == dyadic_solvability_oracle(a, b), (a, b)

    @given(nonzero_fractions, nonzero_fractions)
    # psi_12 and psi_12 // 2 once failed this test: as an uncertified prime,
    # and by overrunning the deadline while being factored.
    @example(Fraction(PSI_12), Fraction(-(PSI_12 - 1)))
    @example(Fraction(PSI_12 // 2), Fraction(-3, 7))
    @settings(max_examples=60)
    def test_product_formula(self, a, b):
        support = {
            p
            for value in (a, b)
            for p in prime_factors(abs(value.numerator * value.denominator))
            if p != 2
        }
        product = hilbert(a, b, REAL) * hilbert(a, b, DYADIC)
        for p in sorted(support):
            product *= hilbert(a, b, odd_place(p))
        assert product == 1

    @given(nonzero_fractions, st.sampled_from((3, 5, 7, 11, 13)))
    def test_symbol_trivial_off_support(self, b, p):
        # Units make the odd formula collapse to exponent zero.
        a = Fraction(p - 1)
        if b.numerator % p == 0 or b.denominator % p == 0:
            return
        assert hilbert(a, b, odd_place(p)) == 1


ODD_PLACES = tuple(odd_place(p) for p in (3, 5, 7, 11, 13))
SYMBOL_PLACES = (REAL, DYADIC) + ODD_PLACES


def reference_hilbert(a, b, place: Place) -> int:
    """The module-docstring formulas on padic_valuation's decompositions.

    Units are reduced through the inverse of their denominator, not through
    numerator * denominator as the library does.
    """
    a, b = Fraction(a), Fraction(b)
    if place.prime is None:
        return -1 if a < 0 and b < 0 else 1
    p = place.prime
    da, db = padic_valuation(a, p), padic_valuation(b, p)
    n, m = da.exponent, db.exponent

    def residue(unit: Fraction, modulus: int) -> int:
        return unit.numerator * pow(unit.denominator, -1, modulus) % modulus

    if p == 2:
        u, v = residue(da.unit_part, 8), residue(db.unit_part, 8)
        eps = {w: (w - 1) // 2 % 2 for w in (1, 3, 5, 7)}
        omega = {w: (w * w - 1) // 8 % 2 for w in (1, 3, 5, 7)}
        exponent = eps[u] * eps[v] + n * omega[v] + m * omega[u]
        return -1 if exponent % 2 else 1
    minus_one = legendre_symbol(-1, p)
    u = legendre_symbol(residue(da.unit_part, p), p)
    v = legendre_symbol(residue(db.unit_part, p), p)
    return minus_one ** (n * m % 2) * u ** (m % 2) * v ** (n % 2)


def pairwise_hasse_witt(coefficients, place: Place) -> int:
    """The Hasse-Witt oracle: hilbert over every index pair i < j."""
    result = 1
    for i in range(len(coefficients)):
        for j in range(i + 1, len(coefficients)):
            result *= hilbert(coefficients[i], coefficients[j], place)
    return result


@st.composite
def scaled_rationals(draw, p: int):
    """A nonzero int or Fraction, either sign, times p^e for e in [-2, 2]."""
    base = draw(
        st.one_of(
            st.integers(min_value=-10**6, max_value=10**6).filter(bool),
            nonzero_fractions,
        )
    )
    e = draw(st.integers(min_value=-2, max_value=2))
    if isinstance(base, int) and e >= 0:
        return base * p**e
    return base * Fraction(p) ** e


class TestHilbertAgainstReference:
    @given(st.sampled_from(SYMBOL_PLACES), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, place, data):
        p = place.prime or 3  # the real place sees multiples of 3^e
        a = data.draw(scaled_rationals(p))
        b = data.draw(scaled_rationals(p))
        assert hilbert(a, b, place) == reference_hilbert(a, b, place)

    @given(st.sampled_from((DYADIC,) + ODD_PLACES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_hasse_witt_is_pairwise_product(self, place, data):
        coefficients = data.draw(st.lists(scaled_rationals(place.prime), min_size=1, max_size=6))
        assert hasse_witt(coefficients, place) == pairwise_hasse_witt(coefficients, place)

    @pytest.mark.parametrize("place", SYMBOL_PLACES, ids=place_id)
    @pytest.mark.parametrize("zero", (0, Fraction(0)))
    def test_zero_rejected_everywhere(self, place, zero):
        for a, b in ((zero, 3), (Fraction(-2, 7), zero)):
            with pytest.raises(ValueError, match="nonzero"):
                hilbert(a, b, place)

    @pytest.mark.parametrize("p", (2, 9))
    def test_odd_symbol_rejects_non_odd_prime(self, p):
        # The odd-prime symbol is reached only through a validated place.
        with pytest.raises(ValueError, match="not an odd prime"):
            hilbert(Fraction(3), 5, odd_place(p))


class TestHasseWitt:
    def test_frozen_family_values(self):
        q5 = (Fraction(5), 1, 1, 1, Fraction(-2))
        q13 = (Fraction(13), 1, 1, 1, Fraction(-2))
        assert hasse_witt(q5, odd_place(5)) == -1
        assert hasse_witt(q13, odd_place(5)) == 1

    def test_rank_one_is_empty_product(self):
        assert hasse_witt((Fraction(7),), REAL) == 1

    @given(
        st.lists(nonzero_fractions, min_size=2, max_size=5),
        st.permutations(range(5)),
    )
    @settings(max_examples=60)
    def test_reordering_invariance(self, coefficients, order):
        # The pairwise product does not depend on the diagonal ordering.
        indices = [i for i in order if i < len(coefficients)]
        shuffled = tuple(coefficients[i] for i in indices)
        for place in (REAL, DYADIC, odd_place(3)):
            assert hasse_witt(shuffled, place) == hasse_witt(tuple(coefficients), place)

    @given(
        st.lists(
            st.tuples(nonzero_fractions, st.integers(min_value=-3, max_value=3)),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from((3, 5, 13, 17, 97)),
    )
    @settings(max_examples=150)
    def test_equals_pairwise_product(self, scaled, p):
        # Coefficients carry powers of p, so p divides some and not others;
        # the other places see the same coefficients.
        coefficients = tuple(c * Fraction(p) ** e for c, e in scaled)
        for place in (odd_place(p), odd_place(7), odd_place(10007), DYADIC, REAL):
            assert hasse_witt(coefficients, place) == pairwise_hasse_witt(coefficients, place)


def class_representative(place: Place, c) -> Fraction:
    """A rational in the square class c of the place, as the kernel names it."""
    p = place.prime
    if p is None:
        return Fraction(c)
    v, unit = c
    if p != 2:
        # The least positive residue, or non-residue, mod p.
        unit = next(u for u in range(1, p) if legendre_symbol(u, p) == unit)
    return Fraction(p) ** v * unit


def place_classes(place: Place) -> list:
    if place.prime is None:
        return [1, -1]
    units = (1, 3, 5, 7) if place.prime == 2 else (1, -1)
    return [(v, u) for v in (0, 1) for u in units]


CLASS_PLACES = (REAL, DYADIC, odd_place(3), odd_place(5), odd_place(13), odd_place(17))


class TestClassCounts:
    """hasse_witt works on square-class counts; the pairwise product is its oracle."""

    @given(st.sampled_from(CLASS_PLACES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hasse_witt_matches_pairwise_on_repeated_classes(self, place, data):
        # Ranks 1..30 drawn from eight values, so classes repeat, and scaled
        # by squares, so equal classes come from unequal coefficients.
        p = place.prime or 3
        pool = data.draw(st.lists(scaled_rationals(p), min_size=1, max_size=8))
        coefficients = data.draw(
            st.lists(
                st.tuples(st.sampled_from(pool), st.sampled_from((1, 4, Fraction(1, 9), p * p))),
                min_size=1,
                max_size=30,
            )
        )
        coefficients = [c * square for c, square in coefficients]
        assert hasse_witt(coefficients, place) == pairwise_hasse_witt(coefficients, place)

    @pytest.mark.parametrize("place", CLASS_PLACES, ids=place_id)
    def test_every_pair_of_classes_at_every_multiplicity_parity(self, place):
        # Multiplicities 1..4 cover every parity of m and of C(m, 2).
        classes = place_classes(place)
        for c in classes:
            for d in classes:
                for m in range(1, 5):
                    for k in range(0 if c == d else 1, 5):
                        counts = {c: m} if c == d else {c: m, d: k}
                        coefficients = [class_representative(place, c)] * m
                        if c != d:
                            coefficients += [class_representative(place, d)] * k
                        expected = pairwise_hasse_witt(coefficients, place)
                        assert _class_product(counts, place.prime) == expected, (counts, place)
                        assert hasse_witt(coefficients, place) == expected

    @given(st.sampled_from(CLASS_PLACES), st.data())
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_pairwise_on_random_counts(self, place, data):
        classes = place_classes(place)
        size = len(classes)
        multiplicities = data.draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=size, max_size=size)
        )
        counts = {c: m for c, m in zip(classes, multiplicities) if m}
        coefficients = [class_representative(place, c) for c, m in counts.items() for _ in range(m)]
        assert _class_product(counts, place.prime) == pairwise_hasse_witt(coefficients, place)

    @pytest.mark.parametrize("place", CLASS_PLACES, ids=place_id)
    def test_squares_are_padding(self, place, monkeypatch):
        # Every symbol against a square is 1: padding a list with the squares
        # 1, 4 and 9/4 keeps its invariant, and the kernel evaluates no
        # symbol for them.
        squares = 1 if place.prime is None else (0, 1)
        base = [class_representative(place, c) for c in place_classes(place) if c != squares] * 3
        paddings = [[], [1], [4, Fraction(9, 4)], [1, 4, Fraction(9, 4)] * 3]
        expected = [pairwise_hasse_witt(base + padding, place) for padding in paddings]
        kernel = local_invariants._KERNELS.get(place.prime, local_invariants._ODD_KERNEL)
        calls = []
        counting = kernel._replace(symbol=lambda *args: calls.append(args) or kernel.symbol(*args))
        patch_kernel(monkeypatch, place.prime, counting)
        evaluated = []
        for padding, value in zip(paddings, expected):
            calls.clear()
            assert hasse_witt(base + padding, place) == value
            evaluated.append(len(calls))
        assert evaluated[0] > 0 and set(evaluated) == {evaluated[0]}

    def test_real_place_counts_the_negatives(self):
        for negatives in range(8):
            coefficients = [-1] * negatives + [3] * (7 - negatives)
            expected = -1 if negatives * (negatives - 1) // 2 % 2 else 1
            assert hasse_witt(coefficients, REAL) == expected


class TestLocalEquivalence:
    def test_discriminant_class(self):
        assert discriminant_class((Fraction(5), 1, 1, 1, Fraction(-2))) == -10
        # The product, about 6.4 * 10**11, is factored just below 10**12.
        assert discriminant_class([97**3, 89**3]) == 97 * 89
        # Products of 10**12 and above are refused, composite or prime.
        for coefficients in ([10007**3, 10009**3], [2**89 - 1]):
            with pytest.raises(PrimalityRangeError):
                discriminant_class(coefficients)

    def test_scaled_discriminant_same_class(self):
        # Scaling every coefficient by the square 4 keeps the discriminant
        # class and, pair by pair, every Hilbert symbol.
        q = (Fraction(3), Fraction(5))
        scaled = (Fraction(12), Fraction(20))
        assert discriminant_class(q) == discriminant_class(scaled) == 15
        for place in (REAL, DYADIC, odd_place(3), odd_place(5)):
            assert hasse_witt(q, place) == hasse_witt(scaled, place)
