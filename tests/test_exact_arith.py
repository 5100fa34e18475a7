from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from volcount.exact_arith import (
    PrimalityRangeError,
    QSqrt2,
    SQRT2,
    factor_int,
    is_prime,
    is_square_rational,
    legendre_symbol,
    padic_valuation,
    split_prime_valuation,
    sqrt_mod,
    squarefree_part,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 97, 193)
# Odd primes at which 2 is a square, so Q(sqrt(2)) has two places over p.
SPLIT_PRIMES = (7, 17, 23, 31, 41)


def embed_sqrt2_mod_p(x: QSqrt2, p: int, root: int) -> int:
    """Residue of x in F_p under the embedding sending sqrt(2) to root.

    The unit-residue oracle for split_prime_valuation.  It maps each part on
    its own and rejects x whose denominators meet p, and x of positive
    valuation (residue zero): the valuation must be taken out first.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    if not 0 < root < p or (root * root - 2) % p != 0:
        raise ValueError(f"{root} is not a square root of 2 modulo {p}")
    c, d = x.rational_part, x.sqrt2_part
    if c.denominator % p == 0 or d.denominator % p == 0:
        raise ValueError(f"denominator of {x} is divisible by {p}")
    residue = (
        c.numerator * pow(c.denominator, -1, p) + d.numerator * pow(d.denominator, -1, p) * root
    ) % p
    if residue == 0:
        raise ValueError(f"{x} has positive valuation at {p}; decompose before embedding")
    return residue


@st.composite
def pure_split_inputs(draw):
    """(x, p, root) with x = c or x = d * sqrt(2), scaled by p^e, e in [-3, 3]."""
    p = draw(st.sampled_from(SPLIT_PRIMES))
    smaller = sqrt_mod(2, p)
    root = draw(st.sampled_from((smaller, p - smaller)))
    part = draw(st.fractions(max_denominator=60).filter(bool))
    part *= Fraction(p) ** draw(st.integers(min_value=-3, max_value=3))
    x = QSqrt2.of(part, 0) if draw(st.booleans()) else QSqrt2.of(0, part)
    return x, p, root


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
        # A float is never answered from an int's entry: 41.0 still reaches
        # the modular exponentiation, which rejects it, as it did unmemoized.
        assert is_prime(41)
        with pytest.raises(TypeError):
            is_prime(41.0)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial


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


class TestSplitPrimeEmbedding:
    def test_frozen_embedding(self):
        assert embed_sqrt2_mod_p(QSqrt2.of(1, 1), 17, 6) == 7

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            embed_sqrt2_mod_p(QSqrt2.of(1, 1), 17, 5)

    def test_rational_prime_splits(self):
        # 17 = (5 + 2 sqrt2)(5 - 2 sqrt2); the factor vanishing at root 6
        # carries the whole valuation.
        exponent, unit = split_prime_valuation(QSqrt2.of(17, 0), 17, 6)
        assert exponent == 1
        assert unit % 17 != 0
        # The vanishing factor itself: 5 + 2*sqrt2 maps to 5 + 12 = 0 mod 17,
        # so the unit embedding refuses it.
        with pytest.raises(ValueError):
            embed_sqrt2_mod_p(QSqrt2.of(5, 2), 17, 6)

    def test_unit_valuation_zero(self):
        exponent, unit = split_prime_valuation(SQRT2, 17, 6)
        assert exponent == 0 and unit == 6

    @given(pure_split_inputs())
    def test_pure_elements_match_lifting(self, case):
        # c and d * sqrt(2) are decomposed exactly: the unit's residue must
        # be the oracle's embedding of x / p^m.
        x, p, root = case
        exponent, unit = split_prime_valuation(x, p, root)
        scale = Fraction(p) ** -exponent
        unit_part = QSqrt2.of(x.rational_part * scale, x.sqrt2_part * scale)
        assert unit == embed_sqrt2_mod_p(unit_part, p, root)

    def test_mixed_elements_refused(self):
        assert split_prime_valuation(QSqrt2.of(Fraction(34, 3), 0), 17, 6) == (1, 2 * pow(3, -1, 17) % 17)
        assert split_prime_valuation(QSqrt2.of(0, -17), 17, 11) == (1, -11 % 17)
        for x in (QSqrt2.of(5, 2), QSqrt2.of(1, 1), QSqrt2.of(Fraction(1, 17), -3)):
            with pytest.raises(ValueError, match="neither rational nor"):
                split_prime_valuation(x, 17, 6)

    @given(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=1, max_value=50),
        st.booleans(),
    )
    def test_valuation_additive_in_prime_powers(self, e, c, rational):
        x = QSqrt2.of(c, 0) if rational else QSqrt2.of(0, c)
        scaled = QSqrt2.of(x.rational_part * Fraction(17) ** e, x.sqrt2_part * Fraction(17) ** e)
        base_exponent, base_unit = split_prime_valuation(x, 17, 6)
        exponent, unit = split_prime_valuation(scaled, 17, 6)
        # 17 factors as two conjugate primes; the tracked one sees v(17) = 1
        # and the conjugate factor is a local unit there.
        assert exponent == base_exponent + e
        assert unit == base_unit
