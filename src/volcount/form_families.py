"""Two parametrized families of diagonal quadratic forms and their certificates.

The isotropic family over Q, for a parameter a >= 1 and dimension n >= 3:

    q_a = a x_1^2 + x_2^2 + ... + x_n^2 - 2 x_{n+1}^2

and the anisotropic family over Q(sqrt(2)):

    r_a = a x_1^2 + x_2^2 + ... + x_n^2 - sqrt(2) x_{n+1}^2.

A family member is represented by what defines it, a FamilyForm(family, a,
n); no coefficient tuple is built.  Members of one family and dimension
differ only in a, so they share the restriction to the hyperplane x_1 = 0,
which is what makes mixed gluings of the assembled pieces possible.  This
module computes the Hasse-Witt invariant of family members at chosen primes
(from square-class counts at a cost independent of n, checked by a closed form),
decides non-commensurability of two family members by a discriminant-ratio
or epsilon-mismatch certificate, builds the certificate matrix of a list of
members, and searches for the primes that parametrize the two families:

* isotropic family: primes p = 5 (mod 8), so (-1|p) = 1 and (2|p) = -1;
* anisotropic family: primes p = 1 (mod 8) such that 2 is *not* a fourth
  power mod p, decided independently by Euler's criterion 2^((p-1)/4) != 1
  and by Gauss's biquadratic criterion (absence of p = x^2 + 64 y^2).  The
  two criteria must agree on every candidate; disagreement is a fatal
  internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .exact_arith import (
    _euler_criterion,
    factor_int,
    is_prime,
    is_square_rational,
    legendre_symbol,
    sqrt_mod,
    squarefree_part,
)
from .local_invariants import Place, _class_product, _odd_class, odd_place

# First six members of each prime family; the searches below regenerate them
# and the selftest verifies the match.
REFERENCE_ISOTROPIC_PRIMES = (5, 13, 29, 37, 53, 61)
REFERENCE_ANISOTROPIC_PRIMES = (17, 41, 97, 137, 193, 241)


def _check_member_parameters(a: int, n: int) -> None:
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"the family parameter must be a positive integer, got {a!r}")
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"the dimension parameter must be an integer at least 3, got {n!r}")


@dataclass(frozen=True)
class FamilyForm:
    """The member of family "q" or "r" with parameter a in dimension n.

    family "q" is q_a = (a, 1, ..., 1, -2) over Q and family "r" is
    r_a = (a, 1, ..., 1, -sqrt(2)) over Q(sqrt(2)), each of rank n + 1.
    The fields are checked once, when the value is built.
    """

    family: str
    a: int
    n: int

    def __post_init__(self):
        if self.family not in ("q", "r"):
            raise ValueError(f"unknown form family {self.family!r}")
        _check_member_parameters(self.a, self.n)

    @property
    def rank(self) -> int:
        return self.n + 1


def make_q(a: int, n: int) -> FamilyForm:
    """The isotropic family member (a, 1, ..., 1, -2) of rank n + 1 over Q."""
    return FamilyForm("q", a, n)


def make_r(a: int, n: int) -> FamilyForm:
    """The anisotropic family member (a, 1, ..., 1, -sqrt(2)) over Q(sqrt(2))."""
    return FamilyForm("r", a, n)


def _member_epsilon(a: int, n: int, place: Place, last: int) -> tuple[int, int]:
    # v_p(a) mod 2 and the Hasse-Witt invariant of (a, 1, ..., 1, last) at the
    # odd place, from its class counts: the unit class (0, 1) n - 1 times.
    p = place.prime
    a_class = _odd_class(a, p)
    counts = {(0, 1): n - 1}
    for c in (a_class, _odd_class(last, p)):
        counts[c] = counts.get(c, 0) + 1
    return a_class[0], _class_product(counts, place)


def epsilon_q_at(a: int, n: int, p: int) -> int:
    """Hasse-Witt invariant of q_a over the p-adics, p an odd prime.

    When (-1|p) = 1 and (2|p) = -1 the value has the closed form
    (-1)^(v_p(a)); the generic class-count product is computed in every case
    and the two must agree whenever the closed form applies.
    """
    _check_member_parameters(a, n)
    parity, generic = _member_epsilon(a, n, odd_place(p), -2)
    if _euler_criterion(-1, p) == 1 and _euler_criterion(2, p) == -1:
        closed = -1 if parity else 1
        if closed != generic:
            raise RuntimeError(
                f"closed form {closed} disagrees with the generic product {generic} "
                f"for (a={a}, n={n}, p={p})"
            )
    return generic


def epsilon_r_at(a: int, n: int, p: int, root: int) -> int:
    """Hasse-Witt invariant of r_a over the p-adics at a split prime p = 1 mod 8.

    The embedding of Q(sqrt(2)) is the one sending sqrt(2) to root, which
    must satisfy 0 < root < p and root^2 = 2 (mod p).  Computed from the
    class counts of the embedded coefficients and cross-checked against the
    closed form (sqrt(2)|p)^(v_p(a)); the result does not depend on which of
    the two roots is chosen, because (-1|p) = 1.
    """
    if p % 8 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 8")
    if not 0 < root < p or (root * root - 2) % p != 0:
        raise ValueError(f"{root} is not a square root of 2 modulo {p}")
    _check_member_parameters(a, n)
    # sqrt(2) is a unit at a split odd prime (its square 2 is prime to p)
    # with residue root, so -sqrt(2) embeds as the unit -root.
    parity, generic = _member_epsilon(a, n, odd_place(p), -root)
    closed = _euler_criterion(root, p) if parity else 1
    if closed != generic:
        raise RuntimeError(
            f"closed form {closed} disagrees with the embedded product {generic} "
            f"for (a={a}, n={n}, p={p}, root={root})"
        )
    return generic


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


def _square_in_sqrt2_field(x: Fraction) -> bool:
    # A positive rational is a square in Q(sqrt(2)) iff x or x/2 is a square
    # in Q: (c + d sqrt2)^2 is rational only when c*d = 0.
    return is_square_rational(x) or is_square_rational(2 * x)


def noncommensurability_certificate(
    f1: FamilyForm, f2: FamilyForm
) -> NonCommensurabilityCertificate | None:
    """Certify that no scalar multiple of f2 is equivalent to f1, if possible.

    Even rank: the discriminant class is invariant under scaling, and for the
    two families the ratio of discriminants is the ratio of parameters, so a
    non-square ratio certifies.  Odd rank: scan primes p = 1 (mod 4) (= 1 mod
    8 for the sqrt(2) family) dividing either parameter; at such p every
    scalar satisfies (lambda, lambda)_p = 1, so differing epsilon values
    certify.  Returns None when no scanned invariant separates the forms;
    the check is one-sided and never proves commensurability.
    """
    if f1.family != f2.family:
        raise ValueError("cannot compare forms from different families")
    if f1.n != f2.n:
        raise ValueError("cannot compare forms of different ranks")
    family, a1, a2, n = f1.family, f1.a, f2.a, f1.n

    if f1.rank % 2 == 0:
        ratio = Fraction(a1, a2)
        if family == "q":
            separated = not is_square_rational(ratio)
        else:
            separated = not _square_in_sqrt2_field(ratio)
        if not separated:
            return None
        d1 = _discriminant_description(family, a1)
        d2 = _discriminant_description(family, a2)
        return NonCommensurabilityCertificate("discriminant_ratio", None, (d1, d2))

    # The odd prime divisors of a1 in order, then those of a2 not yet seen.
    candidates = dict.fromkeys(p for a in (a1, a2) for p in _odd_prime_divisors(a))
    for p in candidates:
        if family == "q":
            if p % 4 != 1:
                continue
            e1 = epsilon_q_at(a1, n, p)
            e2 = epsilon_q_at(a2, n, p)
        else:
            if p % 8 != 1:
                continue
            root = sqrt_mod(2, p)
            e1 = epsilon_r_at(a1, n, p, root)
            e2 = epsilon_r_at(a2, n, p, root)
        if e1 != e2:
            return NonCommensurabilityCertificate(
                "epsilon_at_prime", p, (str(e1), str(e2))
            )
    return None


# Certificates compare the members of a few families, so a few hundred
# parameters cover every pair a run certifies.
@lru_cache(maxsize=256)
def _odd_prime_divisors(a: int) -> tuple[int, ...]:
    return tuple(sorted(p for p in factor_int(a) if p != 2))


@lru_cache(maxsize=256)
def _discriminant_description(family: str, a: int) -> str:
    # The coefficient product of a family member, at any rank: -2a for q_a
    # (given as its square-free class) and -a * sqrt(2) for r_a.
    if family == "q":
        return str(squarefree_part(-2 * a))
    return "-sqrt2" if a == 1 else f"-{a}*sqrt2"


def certificate_matrix(forms) -> tuple[tuple[NonCommensurabilityCertificate | None, ...], ...]:
    """Entry [i][j] is noncommensurability_certificate(forms[i], forms[j]).

    Every entry is computed, the diagonal too, where a form never separates
    from itself; an off-diagonal None is a pair no scanned invariant
    separates.
    """
    return tuple(tuple(noncommensurability_certificate(f1, f2) for f2 in forms) for f1 in forms)


@dataclass(frozen=True)
class PrimeSearchReport:
    """One family prime with its verified membership conditions.

    conditions maps condition names to values in {-1, 0, 1}.
    """

    prime: int
    conditions: dict


def gauss_representation(p: int) -> tuple[int, int] | None:
    """The representation p = x^2 + 64 y^2 with x, y >= 0, if one exists."""
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


def search_primes_isotropic(count: int) -> list[PrimeSearchReport]:
    """The first `count` primes p = 5 (mod 8), with verified symbol conditions."""
    if count < 1:
        raise ValueError("count must be positive")
    reports = []
    p = 5
    while len(reports) < count:
        if is_prime(p):
            conditions = {
                "legendre_minus_one": legendre_symbol(-1, p),
                "legendre_two": legendre_symbol(2, p),
            }
            if conditions != {"legendre_minus_one": 1, "legendre_two": -1}:
                raise RuntimeError(f"symbol conditions failed at p={p}: {conditions}")
            reports.append(PrimeSearchReport(p, conditions))
        p += 8
    return reports


def search_primes_anisotropic(count: int) -> list[PrimeSearchReport]:
    """The first `count` primes p = 1 (mod 8) where 2 is not a fourth power.

    Membership is decided by the two independent biquadratic criteria (which
    must agree) and recorded through the symbol (sqrt(2)|p) = -1.
    """
    if count < 1:
        raise ValueError("count must be positive")
    reports = []
    p = 17
    while len(reports) < count:
        if is_prime(p) and not two_is_fourth_power(p):
            root = sqrt_mod(2, p)
            conditions = {
                "legendre_minus_one": legendre_symbol(-1, p),
                "legendre_two": legendre_symbol(2, p),
                "legendre_sqrt2": legendre_symbol(root, p),
            }
            expected = {"legendre_minus_one": 1, "legendre_two": 1, "legendre_sqrt2": -1}
            if conditions != expected:
                raise RuntimeError(f"symbol conditions failed at p={p}: {conditions}")
            reports.append(PrimeSearchReport(p, conditions))
        p += 8
    return reports


def family_members(family: str, count: int, n: int) -> tuple[list[int], list[FamilyForm]]:
    """The first `count` primes of a family and its members of dimension n at them.

    family is "isotropic" (q_p over Q) or "anisotropic" (r_p over Q(sqrt(2))).
    """
    if family == "isotropic":
        search, make = search_primes_isotropic, make_q
    else:
        search, make = search_primes_anisotropic, make_r
    primes = [report.prime for report in search(count)]
    return primes, [make(p, n) for p in primes]
