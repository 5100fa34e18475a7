from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from volcount.exact_arith import factor_int, padic_valuation
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
    locally_equivalent,
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

    def test_family_members_differ_at_witness(self):
        q5 = (Fraction(5), 1, 1, 1, Fraction(-2))
        q13 = (Fraction(13), 1, 1, 1, Fraction(-2))
        assert not locally_equivalent(q5, q13, odd_place(5))
        assert locally_equivalent(q5, q5, odd_place(5))

    def test_scaled_discriminant_same_class(self):
        q = (Fraction(3), Fraction(5))
        scaled = (Fraction(12), Fraction(20))  # multiplied by 4
        for place in (REAL, DYADIC, odd_place(3), odd_place(5)):
            assert locally_equivalent(q, scaled, place)
