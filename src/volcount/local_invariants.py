"""Local invariants of diagonal quadratic forms over Q.

Hilbert symbols at the real place, at odd primes, and at 2; the Hasse-Witt
invariant as the product of pairwise symbols; and square-free discriminant
classes.

At an odd prime p, for a = p^n * u and b = p^m * v with units u, v:

    (a, b)_p = (-1|p)^(n*m) * (u|p)^m * (v|p)^n

At 2, for a = 2^n * u and b = 2^m * v with odd u, v:

    (a, b)_2 = (-1)^(eps(u) eps(v) + n omega(v) + m omega(u))

with eps(u) = (u - 1)/2 and omega(u) = (u^2 - 1)/8 taken mod 2.  At the real
place the symbol is -1 exactly when both arguments are negative.

Symbols are computed on the integer numerator and denominator of each
argument, with no unit Fraction built: for a unit u = r/s, (u|p) is the
Legendre symbol of r * s mod p, and u mod 8 is r * s mod 8, because an odd s
is its own inverse mod 8.

A symbol depends only on the square classes of its arguments and is
bimultiplicative (Serre, A Course in Arithmetic, III.1.2).  So with m_c
coefficients in class c, the Hasse-Witt invariant is a product over the
classes, at a cost that does not grow with the rank:

    prod_{i<j} (a_i, a_j) = prod_c (c, c)^C(m_c, 2) * prod_{c<d} (c, d)^(m_c m_d).

A class is (v mod 2, (u|p)) at an odd prime, (v mod 2, u mod 8) at 2, and
the sign at the real place.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exact_arith import (
    Rational,
    _euler_criterion,
    _require_odd_prime,
    _strip_prime,
    squarefree_part,
)


@dataclass(frozen=True)
class Place:
    """A place of Q: the real place, an odd prime, or the dyadic place.

    Validated once, at construction, so the symbols trust its prime.
    """

    kind: str  # "real" | "odd_prime" | "dyadic"
    prime: int | None = None

    def __post_init__(self):
        if self.kind == "odd_prime":
            _require_odd_prime(self.prime)
        elif self.kind == "dyadic":
            if self.prime != 2:
                raise ValueError(f"the dyadic place has prime 2, not {self.prime}")
        elif self.kind != "real":
            raise ValueError(f"unknown place kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "odd_prime":
            return f"p={self.prime}"
        return self.kind


REAL = Place("real")
DYADIC = Place("dyadic", 2)


# Certificates revisit the few primes that divide their family parameters.
@lru_cache(maxsize=256, typed=True)
def odd_place(p: int) -> Place:
    return Place("odd_prime", p)


def _nonzero_terms(x) -> tuple[int, int]:
    # Numerator and denominator of x, read straight off an int or a Fraction.
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    num = x.numerator
    if num == 0:
        raise ValueError("Hilbert symbols are defined on nonzero arguments only")
    return num, x.denominator


def hilbert_real(a: Rational, b: Rational) -> int:
    """(a, b) at the real place: -1 iff both arguments are negative."""
    a_num, _ = _nonzero_terms(a)
    b_num, _ = _nonzero_terms(b)
    return -1 if a_num < 0 and b_num < 0 else 1


def _odd_class(x: Rational, p: int) -> tuple[int, int]:
    # The square class (v_p(x) mod 2, (u|p)) of x = p^v * u with u a p-adic
    # unit; p is an odd prime validated by the caller (or by its Place).
    m, num, den = _strip_prime(*_nonzero_terms(x), p)
    return m % 2, _euler_criterion(num * den, p)


def hilbert_odd_p(a: Rational, b: Rational, p: int) -> int:
    """(a, b) at an odd prime p via the valuation/Legendre formula."""
    _require_odd_prime(p)
    return hilbert_odd_from_parts(*_odd_class(a, p), *_odd_class(b, p), p)


def hilbert_odd_from_parts(n: int, legendre_u: int, m: int, legendre_v: int, p: int) -> int:
    """(p^n u, p^m v)_p from the valuations and the units' Legendre symbols,
    at an odd prime p the caller has validated."""
    result = 1
    if n % 2 and m % 2:
        result *= _euler_criterion(-1, p)
    if m % 2:
        result *= legendre_u
    if n % 2:
        result *= legendre_v
    return result


def _dyadic_class(x: Rational) -> tuple[int, int]:
    # The square class (v_2(x) mod 2, u mod 8) of x = 2^v * u with u a 2-adic unit.
    m, num, den = _strip_prime(*_nonzero_terms(x), 2)
    return m % 2, num * den % 8


def _dyadic_from_parts(x: tuple[int, int], y: tuple[int, int]) -> int:
    (n, u), (m, v) = x, y
    eps_u, eps_v = (u % 4 == 3), (v % 4 == 3)
    omega_u, omega_v = (u in (3, 5)), (v in (3, 5))
    exponent = (eps_u and eps_v) + n * omega_v + m * omega_u
    return -1 if exponent % 2 else 1


def hilbert_dyadic(a: Rational, b: Rational) -> int:
    """(a, b) at the dyadic place via the eps/omega unit formula."""
    return _dyadic_from_parts(_dyadic_class(a), _dyadic_class(b))


def hilbert(a: Rational, b: Rational, place: Place) -> int:
    """Hilbert symbol (a, b) at the given place of Q."""
    if place.kind == "real":
        return hilbert_real(a, b)
    if place.kind == "dyadic":
        return hilbert_dyadic(a, b)
    p = place.prime
    return hilbert_odd_from_parts(*_odd_class(a, p), *_odd_class(b, p), p)


def _coefficients_of(coefficients) -> tuple[Rational | int, ...]:
    # int and Fraction entries are kept, anything else becomes a Fraction.
    out = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coefficients)
    if not out:
        raise ValueError("a diagonal form needs at least one coefficient")
    if any(c == 0 for c in out):
        raise ValueError("diagonal coefficients must be nonzero")
    return out


def _class_product(counts: Mapping, place: Place) -> int:
    """The module docstring's class-count product over {class: m_c}, each class once.

    Only symbols with an odd exponent are evaluated: (c, c) when m_c = 2 or 3
    (mod 4), and (c, d) when m_c and m_d are both odd.  The class of squares,
    (0, 1) at a prime and +1 at the real place, is skipped: every symbol
    against it is 1.
    """
    if place.kind == "odd_prime":
        p = place.prime
        symbol = lambda c, d: hilbert_odd_from_parts(*c, *d, p)  # noqa: E731
    else:
        symbol = _dyadic_from_parts if place.kind == "dyadic" else hilbert_real
    squares = 1 if place.kind == "real" else (0, 1)
    result, odd_classes = 1, []
    for c, m in counts.items():
        if c == squares:
            continue
        if m & 2:
            result *= symbol(c, c)
        if m & 1:
            for d in odd_classes:
                result *= symbol(d, c)
            odd_classes.append(c)
    return result


def hasse_witt(coefficients: Sequence[Rational], place: Place) -> int:
    """Product of hilbert(a_i, a_j, place) over index pairs i < j, 1 at rank 1,
    taken over the counts of the coefficients' square classes."""
    coeffs = _coefficients_of(coefficients)
    if place.kind == "odd_prime":
        classes = Counter(_odd_class(c, place.prime) for c in coeffs)
    elif place.kind == "dyadic":
        classes = Counter(map(_dyadic_class, coeffs))
    else:
        classes = Counter(1 if c > 0 else -1 for c in coeffs)
    return _class_product(classes, place)


def discriminant_class(coefficients: Sequence[Rational]) -> int:
    """Square-free integer representing the product of the coefficients."""
    coeffs = _coefficients_of(coefficients)
    product = Fraction(1)
    for c in coeffs:
        product *= c
    return squarefree_part(product)
