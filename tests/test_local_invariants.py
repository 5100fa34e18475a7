from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from volcount.exact_arith import factor_int, legendre_symbol, padic_valuation
from volcount.local_invariants import (
    DYADIC,
    REAL,
    Place,
    discriminant_class,
    hasse_witt,
    hilbert,
    hilbert_dyadic,
    hilbert_odd_p,
    hilbert_real,
    odd_place,
)

nonzero_fractions = st.fractions(max_denominator=60).filter(lambda x: x != 0)

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
        assert hilbert_real(Fraction(-1), Fraction(-1)) == -1
        assert hilbert_real(Fraction(-1), Fraction(2)) == 1
        assert hilbert_real(Fraction(3), Fraction(5)) == 1

    def test_dyadic(self):
        assert hilbert_dyadic(Fraction(-1), Fraction(-1)) == -1
        assert hilbert_dyadic(Fraction(2), Fraction(7)) == 1
        assert hilbert_dyadic(Fraction(2), Fraction(5)) == -1
        assert hilbert_dyadic(Fraction(1, 2), Fraction(1, 2)) == 1

    def test_odd(self):
        assert hilbert_odd_p(Fraction(5), Fraction(-2), 5) == -1
        assert hilbert_odd_p(Fraction(13), Fraction(-2), 5) == 1
        assert hilbert_odd_p(Fraction(2), Fraction(3), 7) == 1

    def test_dispatch(self):
        assert hilbert(Fraction(-1), Fraction(-1), REAL) == -1
        assert hilbert(Fraction(-1), Fraction(-1), DYADIC) == -1
        assert hilbert(Fraction(-1), Fraction(-1), odd_place(5)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert(Fraction(0), Fraction(1), REAL)


class TestPlaces:
    def test_odd_place_validates(self):
        with pytest.raises(ValueError):
            odd_place(2)
        with pytest.raises(ValueError):
            odd_place(9)
        assert odd_place(7) == Place("odd_prime", 7)

    def test_place_identity(self):
        assert REAL.kind == "real"
        assert DYADIC.prime == 2

    def test_hand_built_place_is_validated_on_use(self):
        # A Place built without odd_place is checked when it is built, so the
        # symbols never see a bad one; hilbert_odd_p takes a raw prime and
        # checks it on every call, also when both valuations are odd.
        for prime in (9, 2, None):
            with pytest.raises(ValueError, match=f"{prime} is not an odd prime"):
                Place("odd_prime", prime)
        for a, b in ((1, 2), (9, 3)):
            with pytest.raises(ValueError, match="9 is not an odd prime"):
                hilbert_odd_p(a, b, 9)
        for prime in (3, None):
            with pytest.raises(ValueError, match="the dyadic place has prime 2"):
                Place("dyadic", prime)
        with pytest.raises(ValueError, match="unknown place kind 'archimedean'"):
            Place("archimedean")
        assert Place("odd_prime", 7) == odd_place(7)

    def test_integer_coefficients_kept(self):
        # int and Fraction coefficients give the same invariants.
        coefficients = [5, 1, 1, -2]
        as_fractions = [Fraction(c) for c in coefficients]
        for place in (REAL, DYADIC, odd_place(5), odd_place(3)):
            assert hasse_witt(coefficients, place) == hasse_witt(as_fractions, place)
        assert discriminant_class(coefficients) == discriminant_class(as_fractions) == -10


class TestHilbertProperties:
    @given(nonzero_fractions, nonzero_fractions, st.sampled_from((3, 5, 7, 11)))
    def test_symmetry(self, a, b, p):
        for place in (REAL, DYADIC, odd_place(p)):
            assert hilbert(a, b, place) == hilbert(b, a, place)

    @given(nonzero_fractions, nonzero_fractions)
    def test_dyadic_against_solvability(self, a, b):
        assert hilbert_dyadic(a, b) == dyadic_solvability_oracle(a, b)

    def test_dyadic_oracle_on_unit_grid(self):
        # Exhaustive over odd units and their doubles, covering all valuation
        # and residue combinations the formula branches on.
        values = [Fraction(u) for u in (1, 3, 5, 7, -1, -3, -5, -7)]
        values += [2 * v for v in values[:8]]
        for a in values:
            for b in values:
                assert hilbert_dyadic(a, b) == dyadic_solvability_oracle(a, b), (a, b)

    @given(nonzero_fractions, nonzero_fractions)
    @settings(max_examples=60)
    def test_product_formula(self, a, b):
        support = {
            p
            for value in (a, b)
            for p in factor_int(value.numerator * value.denominator)
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
        assert hilbert_odd_p(a, b, p) == 1


ODD_PLACES = tuple(odd_place(p) for p in (3, 5, 7, 11, 13))
SYMBOL_PLACES = (REAL, DYADIC) + ODD_PLACES


def reference_hilbert(a, b, place: Place) -> int:
    """The module-docstring formulas on padic_valuation's decompositions.

    Units are reduced through the inverse of their denominator, not through
    numerator * denominator as the library does.
    """
    a, b = Fraction(a), Fraction(b)
    if place.kind == "real":
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
        pairwise = 1
        for i in range(len(coefficients)):
            for j in range(i + 1, len(coefficients)):
                pairwise *= hilbert(coefficients[i], coefficients[j], place)
        assert hasse_witt(coefficients, place) == pairwise

    @pytest.mark.parametrize("place", SYMBOL_PLACES, ids=str)
    @pytest.mark.parametrize("zero", (0, Fraction(0)))
    def test_zero_rejected_everywhere(self, place, zero):
        for a, b in ((zero, 3), (Fraction(-2, 7), zero)):
            with pytest.raises(ValueError, match="nonzero"):
                hilbert(a, b, place)

    @pytest.mark.parametrize("p", (2, 9))
    def test_odd_symbol_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            hilbert_odd_p(Fraction(3), 5, p)


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
            pairwise = 1
            for i in range(len(coefficients)):
                for j in range(i + 1, len(coefficients)):
                    pairwise *= hilbert(coefficients[i], coefficients[j], place)
            assert hasse_witt(coefficients, place) == pairwise


class TestLocalEquivalence:
    def test_discriminant_class(self):
        assert discriminant_class((Fraction(5), 1, 1, 1, Fraction(-2))) == -10
        # The product, about 1.0 * 10**24, lies past psi_12, where a
        # Miller-Rabin witness still proves it composite and rho splits it.
        assert discriminant_class([10007**3, 10009**3]) == 10007 * 10009
        # A prime past psi_12 passes every base, so it stays uncertified.
        with pytest.raises(ValueError):
            discriminant_class([2**89 - 1])

    def test_scaled_discriminant_same_class(self):
        # Scaling every coefficient by the square 4 keeps the discriminant
        # class and, pair by pair, every Hilbert symbol.
        q = (Fraction(3), Fraction(5))
        scaled = (Fraction(12), Fraction(20))
        assert discriminant_class(q) == discriminant_class(scaled) == 15
        for place in (REAL, DYADIC, odd_place(3), odd_place(5)):
            assert hasse_witt(q, place) == hasse_witt(scaled, place)
