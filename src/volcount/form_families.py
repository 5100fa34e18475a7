"""Two parametrized families of diagonal quadratic forms and their certificates.

The isotropic family over Q, for a parameter a >= 1 and dimension n >= 3:

    q_a = a x_1^2 + x_2^2 + ... + x_n^2 - 2 x_{n+1}^2

and the anisotropic family over Q(sqrt(2)):

    r_a = a x_1^2 + x_2^2 + ... + x_n^2 - sqrt(2) x_{n+1}^2.

Both families share the restriction to the hyperplane x_1 = 0, which is what
makes mixed gluings of the assembled pieces possible.  This module computes
the Hasse-Witt invariant of family members at chosen primes (with a closed
form cross-checked against the generic pairwise product), decides
non-commensurability of two family members by a discriminant-ratio or
epsilon-mismatch certificate, and searches for the primes that parametrize
the two families:

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
    QSqrt2,
    _euler_criterion,
    _strip_prime,
    factor_int,
    is_prime,
    is_square_rational,
    legendre_symbol,
    split_prime_valuation,
    sqrt_mod,
    squarefree_part,
)
from .local_invariants import _odd_pair_product, hasse_witt, odd_place

RATIONAL_FIELD = "rational"
SQRT2_FIELD = "q_sqrt2"

# First six members of each prime family; the searches below regenerate them
# and the selftest verifies the match.
REFERENCE_ISOTROPIC_PRIMES = (5, 13, 29, 37, 53, 61)
REFERENCE_ANISOTROPIC_PRIMES = (17, 41, 97, 137, 193, 241)

_ONE = QSqrt2.of(1)
_MINUS_SQRT2 = QSqrt2.of(0, -1)


@dataclass(frozen=True)
class QuadraticForm:
    """A diagonal form, stored as its coefficient tuple over the named field."""

    field_tag: str  # RATIONAL_FIELD or SQRT2_FIELD
    coefficients: tuple

    def __post_init__(self):
        if self.field_tag not in (RATIONAL_FIELD, SQRT2_FIELD):
            raise ValueError(f"unknown field tag {self.field_tag!r}")
        wanted = Fraction if self.field_tag == RATIONAL_FIELD else QSqrt2
        coeffs = []
        for c in self.coefficients:
            if self.field_tag == RATIONAL_FIELD and isinstance(c, int):
                c = Fraction(c)
            if not isinstance(c, wanted):
                raise ValueError(f"coefficient {c!r} does not live in {self.field_tag}")
            if not c:
                raise ValueError("diagonal coefficients must be nonzero")
            coeffs.append(c)
        if not coeffs:
            raise ValueError("a form needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def rank(self) -> int:
        return len(self.coefficients)


def _check_family_parameters(a: int, n: int) -> None:
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"the family parameter must be a positive integer, got {a!r}")
    if n < 3:
        raise ValueError(f"the dimension parameter must be at least 3, got {n}")


def make_q(a: int, n: int) -> QuadraticForm:
    """The isotropic family member (a, 1, ..., 1, -2) of rank n + 1 over Q."""
    _check_family_parameters(a, n)
    coeffs = (Fraction(a),) + (Fraction(1),) * (n - 1) + (Fraction(-2),)
    return QuadraticForm(RATIONAL_FIELD, coeffs)


def make_r(a: int, n: int) -> QuadraticForm:
    """The anisotropic family member (a, 1, ..., 1, -sqrt(2)) over Q(sqrt(2))."""
    _check_family_parameters(a, n)
    coeffs = (QSqrt2.of(a),) + (_ONE,) * (n - 1) + (_MINUS_SQRT2,)
    return QuadraticForm(SQRT2_FIELD, coeffs)


def restrict_to_hyperplane(form: QuadraticForm) -> QuadraticForm:
    """The form on x_1 = 0: drop the leading coefficient."""
    if form.rank < 2:
        raise ValueError("cannot restrict a rank-1 form")
    return QuadraticForm(form.field_tag, form.coefficients[1:])


def epsilon_q_at(a: int, n: int, p: int, detail: bool = False):
    """Hasse-Witt invariant of q_a over the p-adics, p an odd prime.

    When (-1|p) = 1 and (2|p) = -1 the value has the closed form
    (-1)^(v_p(a)); the generic pairwise product is computed in every case and
    the two must agree whenever the closed form applies.  With detail=True
    returns (value, method) where method names the route taken.
    """
    _check_family_parameters(a, n)
    generic = hasse_witt((a,) + (1,) * (n - 1) + (-2,), odd_place(p))
    closed_form_applies = _euler_criterion(-1, p) == 1 and _euler_criterion(2, p) == -1
    if closed_form_applies:
        closed = -1 if _strip_prime(a, 1, p)[0] % 2 else 1
        if closed != generic:
            raise RuntimeError(
                f"closed form {closed} disagrees with the generic product {generic} "
                f"for (a={a}, n={n}, p={p})"
            )
    method = "closed_form" if closed_form_applies else "generic"
    return (generic, method) if detail else generic


def epsilon_r_at(a: int, n: int, p: int, root: int) -> int:
    """Hasse-Witt invariant of r_a over the p-adics at a split prime p = 1 mod 8.

    The embedding of Q(sqrt(2)) is the one sending sqrt(2) to root.  Computed
    as the pairwise product over embedded coefficients and cross-checked
    against the closed form (sqrt(2)|p)^(v_p(a)); the result does not depend
    on which of the two roots is chosen, because (-1|p) = 1.
    """
    if p % 8 != 1 or not is_prime(p):
        raise ValueError(f"{p} is not a prime congruent to 1 mod 8")
    _check_family_parameters(a, n)
    # The n - 1 middle coefficients are all 1, so one decomposition serves them.
    distinct = (QSqrt2.of(a), _ONE, _MINUS_SQRT2)
    lead, one, last = (split_prime_valuation(c, p, root) for c in distinct)
    parts = [(m, _euler_criterion(u, p)) for m, u in (lead, *[one] * (n - 1), last)]
    generic = _odd_pair_product(parts, p)
    closed = _euler_criterion(root, p) if _strip_prime(a, 1, p)[0] % 2 else 1
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


def _family_parameter(form: QuadraticForm) -> tuple[str, int]:
    # Compared against ints, which Fraction answers without building anything.
    coeffs = form.coefficients
    if form.field_tag == RATIONAL_FIELD:
        family, lead = "q", coeffs[0]
        shape_ok = all(c == 1 for c in coeffs[1:-1]) and coeffs[-1] == -2
    else:
        family, lead = "r", coeffs[0].rational_part
        last = coeffs[-1]
        shape_ok = (
            coeffs[0].sqrt2_part == 0
            and all(c.rational_part == 1 and c.sqrt2_part == 0 for c in coeffs[1:-1])
            and last.rational_part == 0
            and last.sqrt2_part == -1
        )
    if shape_ok and lead.denominator == 1 and lead.numerator >= 1:
        return family, lead.numerator
    raise ValueError("certificates are defined for members of the q and r families only")


def _square_in_sqrt2_field(x: Fraction) -> bool:
    # A positive rational is a square in Q(sqrt(2)) iff x or x/2 is a square
    # in Q: (c + d sqrt2)^2 is rational only when c*d = 0.
    return is_square_rational(x) or is_square_rational(2 * x)


def noncommensurability_certificate(
    f1: QuadraticForm, f2: QuadraticForm
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
    family1, a1 = _family_parameter(f1)
    family2, a2 = _family_parameter(f2)
    if family1 != family2:
        raise ValueError("cannot compare forms from different families")
    if f1.rank != f2.rank:
        raise ValueError("cannot compare forms of different ranks")

    if f1.rank % 2 == 0:
        ratio = Fraction(a1, a2)
        if family1 == "q":
            separated = not is_square_rational(ratio)
        else:
            separated = not _square_in_sqrt2_field(ratio)
        if not separated:
            return None
        d1 = _discriminant_description(family1, a1)
        d2 = _discriminant_description(family2, a2)
        return NonCommensurabilityCertificate("discriminant_ratio", None, (d1, d2))

    n = f1.rank - 1
    # The odd prime divisors of a1 in order, then those of a2 not yet seen.
    candidates = dict.fromkeys(p for a in (a1, a2) for p in _odd_prime_divisors(a))
    for p in candidates:
        if family1 == "q":
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
    return str(QSqrt2.of(0, -a))


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


def family_members(family: str, count: int, n: int) -> tuple[list[int], list[QuadraticForm]]:
    """The first `count` primes of a family and its members of dimension n at them.

    family is "isotropic" (q_p over Q) or "anisotropic" (r_p over Q(sqrt(2))).
    """
    if family == "isotropic":
        search, make = search_primes_isotropic, make_q
    else:
        search, make = search_primes_anisotropic, make_r
    primes = [report.prime for report in search(count)]
    return primes, [make(p, n) for p in primes]
