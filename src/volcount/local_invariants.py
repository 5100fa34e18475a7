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

A place is named by its prime, None at the real place.  The real place, 2
and the odd primes each have one kernel: its square-class function, its
symbol on two classes, and its class of squares, against which every symbol
is 1.  hilbert and hasse_witt look the kernel up once, by the prime.  Each
square-class function is one body, with no calls on its way: it refuses
what is not a nonzero int or Fraction (testing the type inline and calling
_require_rational only for its refusal), strips the prime and reads the
unit's residue.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .exact_arith import _euler_criterion, _require_odd_prime, _require_rational, squarefree_part


@dataclass(frozen=True)
class Place:
    """A place of Q, named by its prime: None (real), 2 (dyadic) or an odd prime."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and (type(self.prime) is not int or self.prime != 2):
            _require_odd_prime(self.prime)


REAL = Place()
DYADIC = Place(2)


def odd_place(p: int) -> Place:
    _require_odd_prime(p)  # Place(2) is the dyadic place
    return Place(p)


_ZERO_ARGUMENT = "Hilbert symbols are defined on nonzero arguments only"


def _real_class(x: Fraction, _prime: None) -> int:
    # The sign of x.
    if type(x) is not int and type(x) is not Fraction:
        _require_rational(x)
    num = x.numerator
    if not num:
        raise ValueError(_ZERO_ARGUMENT)
    return -1 if num < 0 else 1


def _real_symbol(c: int, d: int, _prime: None) -> int:
    return -1 if c < 0 and d < 0 else 1


def _odd_class(x: Fraction, p: int) -> tuple[int, int]:
    # The square class (v_p(x) mod 2, (u|p)) of x = p^v * u with u a p-adic
    # unit; p is an odd prime validated by the caller (or by its Place).
    if type(x) is not int and type(x) is not Fraction:
        _require_rational(x)
    num, den = x.numerator, x.denominator
    if not num:
        raise ValueError(_ZERO_ARGUMENT)
    parity = 0
    while not num % p:
        num //= p
        parity ^= 1
    while not den % p:
        den //= p
        parity ^= 1
    # Euler's criterion on the unit r * s of u = r/s: p divides neither.
    return parity, 1 if pow(num * den % p, p >> 1, p) == 1 else -1


def _odd_symbol(c: tuple[int, int], d: tuple[int, int], p: int) -> int:
    # (p^n u, p^m v)_p from the classes (n, (u|p)) and (m, (v|p)).
    (n, legendre_u), (m, legendre_v) = c, d
    return (_euler_criterion(-1, p) if n and m else 1) * legendre_u**m * legendre_v**n


def _dyadic_class(x: Fraction, p: int) -> tuple[int, int]:
    # The square class (v_2(x) mod 2, u mod 8) of x = 2^v * u with u a 2-adic
    # unit; p is the dyadic place's prime 2.
    if type(x) is not int and type(x) is not Fraction:
        _require_rational(x)
    num, den = x.numerator, x.denominator
    if not num:
        raise ValueError(_ZERO_ARGUMENT)
    # n & -n is 2^v_2(n), whose bit length is v_2(n) + 1.
    two_num, two_den = num & -num, den & -den
    return (two_num.bit_length() + two_den.bit_length()) & 1, num // two_num * (den // two_den) % 8


def _dyadic_symbol(c: tuple[int, int], d: tuple[int, int], _prime: int) -> int:
    (n, u), (m, v) = c, d
    eps_u, eps_v = (u % 4 == 3), (v % 4 == 3)
    omega_u, omega_v = (u in (3, 5)), (v in (3, 5))
    exponent = (eps_u and eps_v) + n * omega_v + m * omega_u
    return -1 if exponent % 2 else 1


class _Kernel(NamedTuple):
    square_class: Callable  # (x, prime) -> the square class of a nonzero rational x
    symbol: Callable  # (class, class, prime) -> the Hilbert symbol of two classes
    squares: object  # the class of squares


_KERNELS = {
    None: _Kernel(_real_class, _real_symbol, 1),
    2: _Kernel(_dyadic_class, _dyadic_symbol, (0, 1)),
}
_ODD_KERNEL = _Kernel(_odd_class, _odd_symbol, (0, 1))


def hilbert(a: Fraction, b: Fraction, place: Place) -> int:
    """Hilbert symbol (a, b) at the given place of Q."""
    p = place.prime
    square_class, symbol, _ = _KERNELS.get(p, _ODD_KERNEL)
    return symbol(square_class(a, p), square_class(b, p), p)


def _coefficients_of(coefficients) -> tuple[Fraction, ...]:
    # Each entry must be an int or a Fraction; nothing is converted.
    out = tuple(coefficients)
    if not out:
        raise ValueError("a diagonal form needs at least one coefficient")
    for c in out:
        _require_rational(c)
    if any(c == 0 for c in out):
        raise ValueError("diagonal coefficients must be nonzero")
    return out


def _class_product(counts: Mapping, p: int | None) -> int:
    """The module docstring's class-count product over {class: m_c}, each class once.

    Only symbols with an odd exponent are evaluated: (c, c) when m_c = 2 or 3
    (mod 4), and (c, d) when m_c and m_d are both odd.  The class of squares
    is skipped: every symbol against it is 1.  p is the prime of a place, or
    an odd prime the caller has validated.
    """
    _, symbol, squares = _KERNELS.get(p, _ODD_KERNEL)
    result, odd_classes = 1, []
    for c, m in counts.items():
        if c == squares:
            continue
        if m & 2:
            result *= symbol(c, c, p)
        if m & 1:
            for d in odd_classes:
                result *= symbol(d, c, p)
            odd_classes.append(c)
    return result


def hasse_witt(coefficients: Sequence[Fraction], place: Place) -> int:
    """Product of hilbert(a_i, a_j, place) over index pairs i < j, 1 at rank 1,
    taken over the counts of the coefficients' square classes."""
    p, coeffs = place.prime, _coefficients_of(coefficients)
    square_class = _KERNELS.get(p, _ODD_KERNEL).square_class
    return _class_product(Counter([square_class(c, p) for c in coeffs]), p)


def discriminant_class(coefficients: Sequence[Fraction]) -> int:
    """Square-free integer representing the product of the coefficients."""
    coeffs = _coefficients_of(coefficients)
    product = Fraction(1)
    for c in coeffs:
        product *= c
    return squarefree_part(product)
