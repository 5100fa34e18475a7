"""Exact arithmetic over Q and Q(sqrt(2)).

Deterministic primality, Legendre symbols, Tonelli-Shanks modular square
roots, integer factorization, p-adic valuations, and valuations with unit
residues of c and d * sqrt(2) in Q(sqrt(2)) at rational primes where 2 is a
quadratic residue.
Everything is arbitrary-precision integer or fraction arithmetic; no
floating point is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

# Rationals are stdlib fractions: always in lowest terms, denominator > 0.
Rational = Fraction

# The twelve prime Miller-Rabin bases 2..37 are deterministic below
# psi_12 = 318665857834031151167461 (about 3.2 * 10**23), the least strong
# pseudoprime to all of them, and the thirteen bases 2..41 below psi_13 =
# 3317044064679887385961981 (about 3.3 * 10**24), the least strong
# pseudoprime to those (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMALITY_BOUND = 318665857834031151167461
_THIRTEEN_BASES = _MILLER_RABIN_BASES + (41,)
_THIRTEEN_BASE_BOUND = 3317044064679887385961981
_RHO_BATCH = 128
_HART_ROUNDS = 256


class PrimalityRangeError(ValueError):
    """An input past the certified range.

    is_prime raises it at or above psi_12, where the twelve bases certify
    nothing; factor_int raises it for a cofactor at or above psi_13 that
    passes all thirteen bases and that it cannot split.
    """


# Legendre symbols and valuations re-test the same few primes over and over,
# while a prime search tests each candidate once: a small bounded memo keeps
# the former and lets the latter pass through.  typed=True keeps a float from
# being answered from an int's entry; an error is never cached, so an input
# outside the certified range raises on every call.
@lru_cache(maxsize=1024, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < psi_12 (about 3.2 * 10**23)."""
    if n >= _PRIMALITY_BOUND:
        raise PrimalityRangeError(
            f"primality test is certified only below psi_12 = {_PRIMALITY_BOUND}, got {n}"
        )
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n, _MILLER_RABIN_BASES)


def _strong_probable_prime(n: int, bases) -> bool:
    """False when some base is a Miller-Rabin witness that odd n > max(bases) is composite."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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
    if p == 2:
        raise ValueError("p = 2 is not an odd prime; use the dyadic routines")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def legendre_symbol(u: int, p: int) -> int:
    """Legendre symbol (u|p) in {-1, 0, 1} by Euler's criterion.

    Requires an odd prime p; returns 0 exactly when p divides u.
    """
    _require_odd_prime(p)
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
    u %= p
    if u == 0:
        return 0
    if legendre_symbol(u, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(u, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while legendre_symbol(z, p) != -1:
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
    """Prime factorization of |n| as {prime: multiplicity}; n must be nonzero.

    Trial division up to 10**4 followed by Brent's variant of Pollard rho for
    any remaining composite cofactor.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    n = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f < 10_000:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    if n > 1:
        for p in _factor_large(n):
            factors[p] = factors.get(p, 0) + 1
    return factors


def _factor_large(n: int) -> list[int]:
    # n has no prime factor below 10**4 here.  At or above psi_12 a witness
    # among the bases 2..41 still proves n composite, and passing all
    # thirteen proves n prime below psi_13.  At or above psi_13 a cofactor
    # passing all thirteen is split if Hart's method finds a factor (psi_13
    # itself is p * (2p - 1)) and is otherwise left uncertified.
    if n == 1:
        return []
    if n < _PRIMALITY_BOUND:
        if is_prime(n):
            return [n]
        d = _pollard_brent(n)
    elif not _strong_probable_prime(n, _THIRTEEN_BASES):
        d = _hart_one_line(n, _HART_ROUNDS) or _pollard_brent(n)
    elif n < _THIRTEEN_BASE_BOUND:
        return [n]
    else:
        d = _hart_one_line(n, _HART_ROUNDS)
        if d is None:
            raise PrimalityRangeError(
                f"cofactor {n} is at least psi_13 = {_THIRTEEN_BASE_BOUND} and passes the "
                "Miller-Rabin bases 2..41, so its primality is not certified"
            )
    return _factor_large(d) + _factor_large(n // d)


def _hart_one_line(n: int, rounds: int) -> int | None:
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


def _pollard_brent(n: int) -> int:
    """A proper factor of composite n by Brent's rho (BIT 1980).

    One gcd per batch of _RHO_BATCH steps, taken of the product of the
    differences; a batch that overshoots to n is replayed step by step.
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
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                d = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = gcd(abs(x - saved), n)
        if d != n:
            return d
        c += 1


def squarefree_part(x: Rational | int) -> int:
    """The square-free integer representing x modulo nonzero rational squares."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no square-free part")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    result = sign
    for p, e in factor_int(n).items():
        if e % 2:
            result *= p
    return result


def is_square_rational(x: Rational | int) -> bool:
    """True iff x is the square of a rational number."""
    x = Fraction(x)
    if x < 0:
        return False
    a, b = x.numerator, x.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


@dataclass(frozen=True)
class ValuationDecomposition:
    """x = p**exponent * unit_part with unit_part a p-adic unit."""

    exponent: int
    unit_part: Rational


def padic_valuation(x: Rational | int, p: int) -> ValuationDecomposition:
    """Decompose nonzero rational x as p^m * u with v_p(u) = 0."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


@dataclass(frozen=True)
class QSqrt2:
    """Element rational_part + sqrt2_part * sqrt(2) of the field Q(sqrt(2))."""

    rational_part: Rational
    sqrt2_part: Rational

    def __post_init__(self):
        object.__setattr__(self, "rational_part", _as_fraction(self.rational_part))
        object.__setattr__(self, "sqrt2_part", _as_fraction(self.sqrt2_part))

    @classmethod
    def of(cls, rational_part=0, sqrt2_part=0) -> "QSqrt2":
        return cls(Fraction(rational_part), Fraction(sqrt2_part))

    def __bool__(self) -> bool:
        return bool(self.rational_part or self.sqrt2_part)

    def _coerce(self, other) -> "QSqrt2 | None":
        if isinstance(other, QSqrt2):
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt2(Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QSqrt2(self.rational_part + o.rational_part, self.sqrt2_part + o.sqrt2_part)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.rational_part, -self.sqrt2_part)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c, d = self.rational_part, self.sqrt2_part
        e, f = o.rational_part, o.sqrt2_part
        return QSqrt2(c * e + 2 * d * f, c * f + d * e)

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt2":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return QSqrt2(self.rational_part / n, -self.sqrt2_part / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "QSqrt2":
        """Image under the field automorphism sqrt(2) -> -sqrt(2)."""
        return QSqrt2(self.rational_part, -self.sqrt2_part)

    def norm(self) -> Rational:
        """Field norm to Q: rational_part^2 - 2 * sqrt2_part^2."""
        return self.rational_part**2 - 2 * self.sqrt2_part**2

    def sign(self) -> int:
        """Sign of the real number rational_part + sqrt2_part * 1.414..., exactly."""
        c, d = self.rational_part, self.sqrt2_part
        if d == 0:
            return (c > 0) - (c < 0)
        if c == 0:
            return 1 if d > 0 else -1
        if (c > 0) == (d > 0):
            return 1 if c > 0 else -1
        # Opposite signs: the term with larger square dominates (c^2 = 2 d^2
        # is impossible for nonzero rationals since sqrt(2) is irrational).
        if c * c == 2 * d * d:
            raise RuntimeError("irrationality violated")
        dominant = c if c * c > 2 * d * d else d
        return 1 if dominant > 0 else -1

    def __str__(self) -> str:
        c, d = self.rational_part, self.sqrt2_part
        if d == 0:
            return str(c)
        if d == 1:
            s2 = "sqrt2"
        elif d == -1:
            s2 = "-sqrt2"
        else:
            s2 = f"{d}*sqrt2"
        if c == 0:
            return s2
        return f"{c}{'+' if not s2.startswith('-') else ''}{s2}"


SQRT2 = QSqrt2.of(0, 1)


def split_prime_valuation(x: QSqrt2, p: int, root: int) -> tuple[int, int]:
    """Valuation and unit residue of x at the place of Q(sqrt(2)) chosen by root.

    The prime p must split, i.e. root^2 = 2 (mod p).  Returns (m, u) with
    x = p^m * (unit) and u the unit's residue in F_p.  x must be c or
    d * sqrt(2), the only shapes the family coefficients take: p is stripped
    from c or d, and for d * sqrt(2) the unit is multiplied by root, because
    sqrt(2) is a unit at a split odd prime (its square 2 is prime to p) with
    residue root.  A mixed element c + d * sqrt(2) raises ValueError.
    """
    _require_odd_prime(p)
    if not 0 < root < p or (root * root - 2) % p != 0:
        raise ValueError(f"{root} is not a square root of 2 modulo {p}")
    if not x:
        raise ValueError("the zero element has no finite valuation")
    c, d = x.rational_part, x.sqrt2_part
    if not d:
        m, num, den = _strip_prime(c.numerator, c.denominator, p)
        return m, num * pow(den, -1, p) % p
    if not c:
        m, num, den = _strip_prime(d.numerator, d.denominator, p)
        return m, num * pow(den, -1, p) * root % p
    raise ValueError(f"{x} is neither rational nor a rational multiple of sqrt2")
