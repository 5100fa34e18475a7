"""Two parametrized families of diagonal quadratic forms and their certificates.

The isotropic family over Q, for a parameter a >= 1 and dimension n >= 3:

    q_a = a x_1^2 + x_2^2 + ... + x_n^2 - 2 x_{n+1}^2

and the anisotropic family over Q(sqrt(2)):

    r_a = a x_1^2 + x_2^2 + ... + x_n^2 - sqrt(2) x_{n+1}^2.

A family member is represented by what defines it, a FamilyForm(family, a,
n); no coefficient tuple is built.  Members of one family and dimension
differ only in a, so they share the restriction to the hyperplane x_1 = 0,
which is what makes mixed gluings of the assembled pieces possible.

One record per family, found by its name ("isotropic", "anisotropic") or
its letter ("q", "r"), holds everything that tells the two apart; no other
code branches on the family.  It says whether blocks are compact (r_a is
anisotropic), and which primes parametrize the family: p = 5 (mod 8) for q,
so (-1|p) = 1 and (2|p) = -1; p = 1 (mod 8) for r with 2 *not* a fourth power
mod p, decided by Euler's criterion 2^((p-1)/4) != 1 and independently by
Gauss's (no p = x^2 + 64 y^2), which must agree on every candidate.  For the
certificates it holds the square scales s such that a positive rational x is
a square of the field exactly when some s x is a rational square, (1,) over
Q and (1, 2) over Q(sqrt(2)); the modulus, 4 or 8, of the odd-rank witness
primes p = 1 (mod m); and the last coefficient l over Q_p at such a prime,
-2, or the unit -root for a square root of 2 mod p.

At an odd prime p not dividing l, the Hasse-Witt invariant of
(a, 1, ..., 1, l) is (l|p)^(v_p(a)): (a, l) is the only pair of coefficients
whose symbol can be -1.  Every epsilon is computed from square-class counts,
at a cost independent of n, and checked against this closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt
from typing import Callable, NamedTuple

from .exact_arith import (
    _require_int,
    factor_int,
    is_prime,
    legendre_symbol,
    sqrt_mod,
    squarefree_part,
)
from .local_invariants import _class_product, _odd_class

# First six members of each prime family; the searches below regenerate them
# and the selftest verifies the match.
REFERENCE_ISOTROPIC_PRIMES = (5, 13, 29, 37, 53, 61)
REFERENCE_ANISOTROPIC_PRIMES = (17, 41, 97, 137, 193, 241)


@dataclass(frozen=True)
class FamilyForm:
    """The member of family "q" or "r" with parameter a in dimension n.

    family "q" is q_a = (a, 1, ..., 1, -2) over Q and family "r" is
    r_a = (a, 1, ..., 1, -sqrt(2)) over Q(sqrt(2)), each of rank n + 1.
    The fields are checked once, when the value is built.  What a certificate
    needs of one member alone, its witness primes and its discriminant, is
    worked out once per value, so a matrix over N members factors each member
    once however large N is.
    """

    family: str
    a: int
    n: int

    def __post_init__(self):
        _lookup(_BY_LETTER, self.family)
        _require_int(self.a)
        _require_int(self.n)
        if self.a < 1:
            raise ValueError(f"the family parameter must be positive, got {self.a}")
        if self.n < 3:
            raise ValueError(f"the dimension parameter must be at least 3, got {self.n}")

    @property
    def rank(self) -> int:
        return self.n + 1

    @property
    def compact(self) -> bool:
        """Whether blocks built from this member are compact, as r_a's are."""
        return _BY_LETTER[self.family].compact

    @cached_property
    def _witness_primes(self) -> tuple[int, ...]:
        # The odd prime divisors of a at which the odd-rank certificate looks.
        modulus = _BY_LETTER[self.family].witness_modulus
        return tuple(sorted(p for p in factor_int(self.a) if p % modulus == 1))

    @cached_property
    def _discriminant(self) -> str:
        return _BY_LETTER[self.family].discriminant(self.a)


def make_q(a: int, n: int) -> FamilyForm:
    """The isotropic family member (a, 1, ..., 1, -2) of rank n + 1 over Q."""
    return FamilyForm("q", a, n)


def make_r(a: int, n: int) -> FamilyForm:
    """The anisotropic family member (a, 1, ..., 1, -sqrt(2)) over Q(sqrt(2))."""
    return FamilyForm("r", a, n)


def _member_epsilon(a: int, n: int, p: int, last: tuple[int, int]) -> int:
    # Hasse-Witt invariant of (a, 1, ..., 1, l) at an odd prime p not dividing
    # l, whose square class (0, (l|p)) is last: the class-count product, which
    # must equal the closed form (l|p)^(v_p(a)).  The caller checks a, n, p.
    a_class = _member_class(a, p)
    counts = {(0, 1): n - 1}
    for c in (a_class, last):
        counts[c] = counts.get(c, 0) + 1
    product = _class_product(counts, p)
    closed = last[1] if a_class[0] else 1
    if closed != product:
        raise RuntimeError(
            f"closed form {closed} disagrees with the class-count product {product} "
            f"for (a={a}, n={n}, p={p}, last class {last})"
        )
    return product


def epsilon_q_at(a: int, n: int, p: int) -> int:
    """Hasse-Witt invariant of q_a over the p-adics, p an odd prime: (-2|p)^(v_p(a))."""
    make_q(a, n)  # checks a and n
    return _member_epsilon(a, n, p, (0, legendre_symbol(-2, p)))


@dataclass(frozen=True)
class NonCommensurabilityCertificate:
    """Witnessed proof that two family members are inequivalent up to scaling.

    method is "discriminant_ratio" (even rank: the discriminant is a scaling
    invariant and the two classes differ) or "epsilon_at_prime" (odd rank:
    the Hasse-Witt invariants differ at witness_prime, where every scalar
    lambda satisfies (lambda, lambda)_p = 1 so epsilon is a scaling
    invariant).  detail records the two differing invariant values.
    """

    method: str
    witness_prime: int | None
    detail: tuple[str, str]


def _require_forms(forms) -> None:
    # Checked before any cache is consulted, so a look-alike of a member is
    # never answered with that member's facts.
    for form in forms:
        if not isinstance(form, FamilyForm):
            raise ValueError(f"certificates compare FamilyForm values, got {form!r}")


def noncommensurability_certificate(
    f1: FamilyForm, f2: FamilyForm
) -> NonCommensurabilityCertificate | None:
    """Certify that no scalar multiple of f2 is equivalent to f1, if possible.

    Even rank: the discriminant class is invariant under scaling, and the
    ratio of discriminants is the ratio of parameters, so a ratio that is no
    square of the family's field certifies.  Odd rank: scan the family's
    witness primes dividing either parameter; at such p every scalar has
    (lambda, lambda)_p = 1, so differing epsilon values certify.  None when no
    scanned invariant separates the forms: the check never proves
    commensurability.
    """
    _require_forms((f1, f2))
    if f1.family != f2.family:
        raise ValueError("cannot compare forms from different families")
    if f1.n != f2.n:
        raise ValueError("cannot compare forms of different ranks")
    a1, a2, n = f1.a, f2.a, f1.n

    if f1.rank % 2 == 0:
        # a1 / a2 = a1 a2 / a2^2 is a square times s exactly when s a1 a2 is.
        product = a1 * a2
        for s in _BY_LETTER[f1.family].square_scales:
            if isqrt(s * product) ** 2 == s * product:
                return None
        return NonCommensurabilityCertificate(
            "discriminant_ratio", None, (f1._discriminant, f2._discriminant)
        )

    # The witness primes of a1 in order, then those of a2 not yet seen.
    for p in dict.fromkeys(f1._witness_primes + f2._witness_primes):
        last = _last_class(f1.family, p)
        e1 = _member_epsilon(a1, n, p, last)
        e2 = _member_epsilon(a2, n, p, last)
        if e1 != e2:
            return NonCommensurabilityCertificate("epsilon_at_prime", p, (str(e1), str(e2)))
    return None


# Bounds the two square-class caches below.  Certificates compare the members
# of a few families, so a few hundred parameters, and as many witness primes,
# cover every pair a run certifies.  Only square classes are kept here, never
# an epsilon or a certificate; a member's own facts live on the member.
_CACHE_SIZE = 256


@lru_cache(maxsize=_CACHE_SIZE)
def _last_class(letter: str, p: int) -> tuple[int, int]:
    # The square class of the family's last coefficient over Q_p, at a
    # witness prime p: for r, one square root of 2 per prime.
    return _odd_class(_BY_LETTER[letter].last_at(p), p)


# The square class of a parameter a at an odd prime p.  A member meets its
# own witness prime in every pair of its matrix row, at each odd rank.
_member_class = lru_cache(maxsize=_CACHE_SIZE)(_odd_class)


def certificate_matrix(forms) -> tuple[tuple[NonCommensurabilityCertificate | None, ...], ...]:
    """Entry [i][j] is noncommensurability_certificate(forms[i], forms[j]).

    Every entry is computed, the diagonal too, where a form never separates
    from itself; an off-diagonal None is a pair no scanned invariant
    separates.  Anything but FamilyForm values is refused before any entry.
    """
    forms = tuple(forms)
    _require_forms(forms)
    return tuple(tuple(noncommensurability_certificate(f1, f2) for f2 in forms) for f1 in forms)


@dataclass(frozen=True)
class PrimeSearchReport:
    """One family prime and its verified conditions, {name: value in {-1, 0, 1}}."""

    prime: int
    conditions: dict


def gauss_representation(p: int) -> tuple[int, int] | None:
    """The representation p = x^2 + 64 y^2 with x, y >= 0, if one exists."""
    _require_int(p)
    for y in range(isqrt(p // 64) + 1):
        rest = p - 64 * y * y
        x = isqrt(rest)
        if x * x == rest:
            return (x, y)
    return None


def two_is_fourth_power(p: int) -> bool:
    """Whether 2 is a biquadratic residue mod p = 1 (mod 8), dual-checked.

    Euler's criterion 2^((p-1)/4) = 1 and Gauss's criterion (existence of
    p = x^2 + 64 y^2) are evaluated independently and must agree.
    """
    if p % 8 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 8")
    by_euler = pow(2, (p - 1) // 4, p) == 1
    representation = gauss_representation(p)
    if by_euler != (representation is not None):
        raise RuntimeError(
            f"biquadratic criteria disagree at p={p}: Euler says {by_euler}, "
            f"representation is {representation}"
        )
    return by_euler


class _Family(NamedTuple):
    """What tells one form family apart; the module docstring gives the fields' meaning."""

    name: str  # as the CLI and parcel ids spell it
    letter: str  # FamilyForm.family
    compact: bool
    reference_primes: tuple[int, ...]
    first_candidate: int  # the search tests first_candidate + 8 i
    excluded: Callable | None  # p -> whether a prime candidate is skipped
    expected: dict  # {condition name: value} every family prime meets
    square_scales: tuple[int, ...]
    witness_modulus: int
    last_at: Callable  # witness prime p -> the last coefficient over Q_p
    discriminant: Callable  # a -> the coefficient product, as text


# The symbol conditions of the prime searches, by name.
_CONDITIONS = {
    "legendre_minus_one": lambda p: legendre_symbol(-1, p),
    "legendre_two": lambda p: legendre_symbol(2, p),
    "legendre_sqrt2": lambda p: legendre_symbol(sqrt_mod(2, p), p),
}

_FAMILIES = (
    _Family(
        "isotropic", "q", compact=False,
        reference_primes=REFERENCE_ISOTROPIC_PRIMES, first_candidate=5, excluded=None,
        expected={"legendre_minus_one": 1, "legendre_two": -1},
        square_scales=(1,), witness_modulus=4, last_at=lambda p: -2,
        discriminant=lambda a: str(squarefree_part(-2 * a)),
    ),
    _Family(
        "anisotropic", "r", compact=True,
        reference_primes=REFERENCE_ANISOTROPIC_PRIMES, first_candidate=17,
        excluded=two_is_fourth_power,
        expected={"legendre_minus_one": 1, "legendre_two": 1, "legendre_sqrt2": -1},
        square_scales=(1, 2), witness_modulus=8, last_at=lambda p: -sqrt_mod(2, p),
        discriminant=lambda a: "-sqrt2" if a == 1 else f"-{a}*sqrt2",
    ),
)
_BY_NAME = {family.name: family for family in _FAMILIES}
_BY_LETTER = {family.letter: family for family in _FAMILIES}
FAMILY_NAMES = tuple(_BY_NAME)


def _lookup(table: dict, key) -> _Family:
    try:
        return table[key]
    except (KeyError, TypeError):
        known = " and ".join(table)
        raise ValueError(f"unknown form family {key!r}; the families are {known}") from None


def family_name(compact: bool) -> str:
    """The family whose blocks are compact (anisotropic) or not (isotropic)."""
    return next(family.name for family in _FAMILIES if family.compact == bool(compact))


def reference_primes(family: str) -> tuple[int, ...]:
    """The frozen first six primes of the named family."""
    return _lookup(_BY_NAME, family).reference_primes


def _search(family: _Family, count: int) -> list[PrimeSearchReport]:
    # The one search loop: candidates first_candidate + 8 i, each verified.
    _require_int(count)
    if count < 1:
        raise ValueError("count must be positive")
    reports = []
    p = family.first_candidate
    while len(reports) < count:
        if is_prime(p) and not (family.excluded and family.excluded(p)):
            conditions = {name: _CONDITIONS[name](p) for name in family.expected}
            if conditions != family.expected:
                raise RuntimeError(f"symbol conditions failed at p={p}: {conditions}")
            reports.append(PrimeSearchReport(p, conditions))
        p += 8
    return reports


def search_primes(family: str, count: int) -> list[PrimeSearchReport]:
    """The first `count` primes of the named family, with verified symbol conditions."""
    return _search(_lookup(_BY_NAME, family), count)


def search_primes_isotropic(count: int) -> list[PrimeSearchReport]:
    """The first `count` primes p = 5 (mod 8), with verified symbol conditions."""
    return _search(_BY_NAME["isotropic"], count)


def search_primes_anisotropic(count: int) -> list[PrimeSearchReport]:
    """The first `count` primes p = 1 (mod 8) where 2 is not a fourth power."""
    return _search(_BY_NAME["anisotropic"], count)


def family_members(family: str, count: int, n: int) -> tuple[list[int], list[FamilyForm]]:
    """The first `count` primes of the named family and its members of dimension n at them."""
    record = _lookup(_BY_NAME, family)
    primes = [report.prime for report in _search(record, count)]
    return primes, [FamilyForm(record.letter, p, n) for p in primes]
