from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from volcount.exact_arith import (
    PrimalityRangeError,
    _named,
    factor_int,
    is_prime,
    is_square_rational,
    legendre_symbol,
    padic_valuation,
    sqrt_mod,
    squarefree_part,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 97, 193)
class TestPrimality:
    def test_small_values(self):
        primes_below_40 = [n for n in range(40) if is_prime(n)]
        assert primes_below_40 == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_large_inputs_rejected(self):
        # psi_12, the least strong pseudoprime to all twelve bases, is the
        # first input outside the certified range.  The error is raised on
        # every call: the memo never stores it.
        for _ in range(2):
            with pytest.raises(PrimalityRangeError, match="certified only below psi_12"):
                is_prime(318665857834031151167461)
        assert issubclass(PrimalityRangeError, ValueError)
        assert is_prime((1 << 64) + 13)
        assert is_prime((1 << 61) - 1)  # Mersenne prime within range

    def test_matches_sieve_twice(self):
        # The second pass is answered partly from the memo; both must agree
        # with an Eratosthenes sieve on every n below 2 * 10**5.
        limit = 200_000
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, isqrt(limit - 1) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
        for _ in range(2):
            assert [n for n in range(limit) if is_prime(n)] == [
                n for n in range(limit) if sieve[n]
            ]

    def test_memo_is_bounded_and_typed(self):
        assert is_prime.cache_info().maxsize is not None
        # A float is never answered from an int's entry: 41.0 reaches the
        # int check and is refused.
        assert is_prime(41)
        with pytest.raises(ValueError, match="expected an int, got 41.0"):
            is_prime(41.0)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial


# Each int argument of each entry point, given a bool or a float equal to an int.
INT_LOOK_ALIKES = [
    (is_prime, (7.0,)),
    (is_prime, (True,)),
    (factor_int, (12.0,)),
    (factor_int, (True,)),
    (legendre_symbol, (True, 7)),
    (legendre_symbol, (2.0, 7)),
    (legendre_symbol, (2, 7.0)),
    (sqrt_mod, (2.0, 7)),
    (sqrt_mod, (True, 7)),
    (sqrt_mod, (2, True)),
    (padic_valuation, (12, 3.0)),
    (padic_valuation, (12, True)),
]


@pytest.mark.parametrize(
    "function, args", INT_LOOK_ALIKES, ids=lambda x: getattr(x, "__name__", None) or repr(x)
)
def test_int_arguments_refuse_look_alikes(function, args):
    # Twice, so a refusal is seen not to be cached.
    for _ in range(2):
        with pytest.raises(ValueError, match=r"expected an int, got|is not an odd prime"):
            function(*args)


class TestLegendreAndSqrt:
    def test_frozen_values(self):
        assert legendre_symbol(2, 17) == 1
        assert sqrt_mod(2, 17) == 6
        assert sqrt_mod(2, 5) is None
        assert legendre_symbol(-1, 5) == 1
        assert legendre_symbol(2, 5) == -1

    @given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=10**6))
    def test_sqrt_inverts_squaring(self, p, u):
        if u % p == 0:
            u += 1
        root = sqrt_mod(u, p)
        if legendre_symbol(u, p) == 1:
            assert root is not None
            assert root * root % p == u % p
            assert root <= p - root  # smaller of the two roots
        else:
            assert root is None

    def test_sqrt_matches_brute_force_below_200(self):
        # Every odd prime p < 200, the p = 3 (mod 4) half among them, and
        # every unit: the smaller root, or None for a non-residue.
        for p in filter(is_prime, range(3, 200, 2)):
            smaller_root = {}
            for x in range(1, (p + 1) // 2):
                smaller_root[x * x % p] = x
            for u in range(1, p):
                assert sqrt_mod(u, p) == smaller_root.get(u)

    @given(
        st.sampled_from(ODD_PRIMES),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=10**4),
    )
    def test_legendre_multiplicative(self, p, u, v):
        if u % p == 0 or v % p == 0:
            return
        assert legendre_symbol(u * v, p) == legendre_symbol(u, p) * legendre_symbol(v, p)


class TestFactorization:
    def test_known_factorizations(self):
        assert factor_int(1) == {}
        assert factor_int(2**5 * 3 * 49) == {2: 5, 3: 1, 7: 2}
        assert factor_int(-12) == {2: 2, 3: 1}  # sign is discarded
        assert factor_int(10007 * 10009) == {10007: 1, 10009: 1}
        # Above 10**12: refused, not factored.
        with pytest.raises(PrimalityRangeError, match=r"only below 10\*\*12"):
            factor_int(10007**5)
        with pytest.raises(ValueError, match="0 has no factorization"):
            factor_int(0)

    def test_edges_of_the_factoring_range(self):
        assert factor_int(10**12 - 1) == {3: 3, 7: 1, 11: 1, 13: 1, 37: 1, 101: 1, 9901: 1}
        assert factor_int(999999999989) == {999999999989: 1}  # the largest prime below 10**12
        # Both factors lie past 10**4, where trial division used to hand over.
        assert factor_int(-999983 * 1000003) == {999983: 1, 1000003: 1}
        for n in (10**12, -(10**12)):
            with pytest.raises(PrimalityRangeError, match=r"only below 10\*\*12"):
                factor_int(n)
        # squarefree_part factors numerator times denominator: 7 * 10**12.
        with pytest.raises(PrimalityRangeError):
            squarefree_part(Fraction(10**12, 7))

    @given(st.integers(min_value=2, max_value=10**9))
    def test_reconstructs_input(self, n):
        factors = factor_int(n)
        product = 1
        for prime, exponent in factors.items():
            assert is_prime(prime)
            product *= prime**exponent
        assert product == n

    @given(st.fractions(max_denominator=500).filter(lambda x: x != 0))
    def test_squarefree_part_is_square_quotient(self, x):
        if abs(x.numerator * x.denominator) >= 10**12:
            with pytest.raises(PrimalityRangeError):
                squarefree_part(x)
            return
        part = squarefree_part(x)
        assert is_square_rational(x / part)
        assert all(e == 1 for q, e in factor_int(abs(part)).items())

    def test_square_detection(self):
        assert is_square_rational(Fraction(49, 121))
        assert not is_square_rational(Fraction(-49, 121))
        assert not is_square_rational(Fraction(2))


class TestPadicValuation:
    def test_frozen_example(self):
        decomposition = padic_valuation(Fraction(12, 25), 5)
        assert decomposition.exponent == -2
        assert decomposition.unit_part == 12

    @given(
        st.sampled_from((3, 5, 7, 13)),
        st.fractions(max_denominator=10**4).filter(lambda x: x != 0),
    )
    def test_decomposition_identity(self, p, x):
        decomposition = padic_valuation(x, p)
        unit = decomposition.unit_part
        assert unit.numerator % p != 0 and unit.denominator % p != 0
        assert x == Fraction(p) ** decomposition.exponent * unit

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            padic_valuation(Fraction(0), 5)


class TestNamed:
    @pytest.mark.parametrize(
        "value, spell, named",
        [
            ("x" * 98, repr, "'" + "x" * 98 + "'"),  # 100 characters quoted
            ("x" * 99, repr, "<99 characters>"),  # a str goes by its own length
            (10**99, repr, "1" + "0" * 99),
            (10**100, repr, "<101 characters>"),
            (Fraction(-(10**99)), str, "<101 characters>"),
            ((0,) * 40, repr, "<120 characters>"),
            (10**5000, repr, "<past Python's 4,300-digit limit>"),
            ((1, 10**5000), repr, "<past Python's 4,300-digit limit>"),
        ],
        ids=["short-text", "long-text", "short-int", "long-int", "long-fraction", "long-row",
             "past-limit", "row-past-limit"],
    )
    def test_short_text_or_its_length(self, value, spell, named):
        assert _named(value, spell) == named
