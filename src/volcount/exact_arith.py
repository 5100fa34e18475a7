"""Exact arithmetic over Q.

Deterministic primality, Legendre symbols, Tonelli-Shanks modular square
roots, integer factorization below 10**12 by trial division, and p-adic
valuations.  Everything is arbitrary-precision integer or fraction
arithmetic; no floating point is used anywhere in this package.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

# The twelve prime Miller-Rabin bases 2..37 are deterministic below
# psi_12 = 318665857834031151167461 (about 3.2 * 10**23), the least strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMALITY_BOUND = 318665857834031151167461
# Trial division up to sqrt(n) stays below 10**6 divisors.
_FACTOR_BOUND = 10**12


class PrimalityRangeError(ValueError):
    """An input past the certified range.

    is_prime raises it at or above psi_12, where the twelve bases certify
    nothing; factor_int raises it at or above 10**12, past the trial
    division it is built on.
    """


def _require_int(x) -> None:
    # The one check of every int argument: True and 7.0 equal ints but are refused.
    if type(x) is not int:
        raise ValueError(f"expected an int, got {x!r}")


def _require_rational(x) -> None:
    # The one check of every rational argument: True, 0.5 and "1/2" are refused, not converted.
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError(f"expected an int or a Fraction, got {x!r}")


def _digit_limit() -> int:
    # Python's running int-to-str limit in digits; 0 when off, or before 3.10.7.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_digit_limit(text: str) -> bool:
    # A run of digits, underscores aside, past the limit: a numeral int() refuses.
    limit = _digit_limit()
    return bool(limit) and re.search(rf"\d{{{limit + 1}}}", text.replace("_", "")) is not None


def _printable(n: int) -> bool:
    # Whether str() prints the int n under the running limit.
    limit = _digit_limit()
    return not limit or abs(n) < 10**limit


def _digit_limit_refusal(text: str) -> str:
    # int() and Fraction() refuse a numeral past the running limit in
    # Python's own words; a refusal names the length of the text it is in.
    limit, length = _digit_limit(), len(text)
    return f"a numeral past Python's {limit:,}-digit limit (a text of {length:,} characters)"


# A refusal spells out an outside value of at most this many characters, as
# every value of a desk-scale run is (a budget, an index, a 16-vertex graph's
# row of 56), and names a longer one by its length: a refusal then stays a
# short line however long its input.
_NAMED_LENGTH = 100


def _named(value, spell=repr) -> str:
    """An outside value as a refusal names it: spell(value) while that text is
    short, else the length of the value, if a str, or of the text."""
    try:
        text = spell(value)
    except ValueError:  # str() prints no int past the running digit limit
        return f"<past Python's {_digit_limit():,}-digit limit>"
    if len(text) <= _NAMED_LENGTH:
        return text
    return f"<{len(value if isinstance(value, str) else text):,} characters>"


# Legendre symbols and valuations re-test the same few primes over and over,
# while a prime search tests each candidate once: a small bounded memo keeps
# the former and lets the latter pass through.  typed=True keeps True and 7.0
# from being answered from an int's entry, so they reach the int check; an
# error is never cached, so a refused input raises on every call.
@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < psi_12 (about 3.2 * 10**23)."""
    _require_int(n)
    if n >= _PRIMALITY_BOUND:
        raise PrimalityRangeError(
            f"primality test is certified only below psi_12 = {_PRIMALITY_BOUND}, got {n}"
        )
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    # Odd n > 37 here: each base a must pass the strong test for n - 1 = d * 2^s.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    # An int first, so that is_prime never sees a look-alike and the message
    # names the prime.
    if type(p) is not int or p == 2 or not is_prime(p):
        raise ValueError(f"{p!r} is not an odd prime")


def legendre_symbol(u: int, p: int) -> int:
    """Legendre symbol (u|p) in {-1, 0, 1} by Euler's criterion.

    Requires an odd prime p; returns 0 exactly when p divides u.
    """
    _require_odd_prime(p)
    _require_int(u)
    return _euler_criterion(u, p)


def _euler_criterion(u: int, p: int) -> int:
    # (u|p) from u^((p-1)/2) mod p; p is an odd prime the caller validated.
    e = pow(u % p, (p - 1) // 2, p)
    if e == 0:
        return 0
    return 1 if e == 1 else -1


def sqrt_mod(u: int, p: int) -> int | None:
    """Smaller square root of u modulo an odd prime p, or None.

    Returns the representative in [0, p/2]; None when u is a non-residue,
    0 when p divides u.  Every result is re-multiplied as a self-check.
    """
    _require_odd_prime(p)
    _require_int(u)
    u %= p
    if u == 0:
        return 0
    if _euler_criterion(u, p) == -1:
        return None
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _euler_criterion(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(u, (q + 1) // 2, p)
    t = pow(u, q, p)
    m = s
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    r = min(r, p - r)
    if r * r % p != u:
        raise RuntimeError(f"modular square root failed self-check for ({u}, {p})")
    return r


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: multiplicity}, for 0 < |n| < 10**12.

    Wheel trial division up to sqrt(|n|).  The pipeline factors family
    parameters, criterion 3's fractions and coefficient products, none past a
    few million; at or above _FACTOR_BOUND it raises PrimalityRangeError.
    """
    _require_int(n)
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    if n >= _FACTOR_BOUND:
        raise PrimalityRangeError(f"factorization is certified only below 10**12, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def squarefree_part(x: Fraction | int) -> int:
    """The square-free integer representing x modulo nonzero rational squares."""
    _require_rational(x)
    if x == 0:
        raise ValueError("0 has no square-free part")
    n = x.numerator * x.denominator
    result = -1 if n < 0 else 1
    for p, e in factor_int(n).items():
        if e % 2:
            result *= p
    return result


def is_square_rational(x: Fraction | int) -> bool:
    """True iff x is the square of a rational number."""
    _require_rational(x)
    if x < 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


@dataclass(frozen=True)
class ValuationDecomposition:
    """x = p**exponent * unit_part with unit_part a p-adic unit."""

    exponent: int
    unit_part: Fraction


def padic_valuation(x: Fraction | int, p: int) -> ValuationDecomposition:
    """Decompose nonzero rational x as p^m * u with v_p(u) = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    _require_rational(x)
    if x == 0:
        raise ValueError("the zero element has no finite valuation")
    m, num, den = _strip_prime(x.numerator, x.denominator, p)
    return ValuationDecomposition(m, Fraction(num, den))


def _strip_prime(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(m, num', den') with num/den = p^m * num'/den' and p dividing neither.

    num and den must be nonzero; p is not validated here.
    """
    m = 0
    while num % p == 0:
        num //= p
        m += 1
    while den % p == 0:
        den //= p
        m -= 1
    return m, num, den
