"""Release checks: every headline claim of the library as a timed, executable test.

Each criterion either recomputes a frozen value by an independent route
(Gauss representations against Euler's criterion, a brute solvability scan
against the symbol formulas, Hall's recursion against raw enumeration) or
exhausts a finite range outright (all subgroup pairs of index at most 4, the
full 6x6 certificate matrices, every descriptor within a volume budget).
run_all executes the nine criteria in order and reports one pass/fail line
each; a criterion also fails by overrunning its time budget.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

from .assembler import (
    _check_closed,
    _pick,
    assemble,
    count_lower_bound,
    default_parcel,
    descriptor_from_json,
    descriptors_for_index,
    emit_descriptors,
    trace_word,
    volume_bound,
)
from .decorated_graphs import has_common_decorated_cover
from .exact_arith import factor_int, is_prime, padic_valuation
from .form_families import (
    REFERENCE_ANISOTROPIC_PRIMES,
    REFERENCE_ISOTROPIC_PRIMES,
    certificate_matrix,
    epsilon_q_at,
    gauss_representation,
    make_q,
    make_r,
    search_primes_anisotropic,
    search_primes_isotropic,
    two_is_fourth_power,
)
from .free_groups import distinguishing_word, enumerate_subgroups, hall_count, subgroup_table
from .local_invariants import DYADIC, REAL, hasse_witt, hilbert, odd_place


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    budget_seconds: float


def format_line(result: CriterionResult) -> str:
    verdict = "PASS" if result.passed else "FAIL"
    return (
        f"{verdict} {result.number} {result.name:<24}"
        f" {result.seconds:7.2f}s / {result.budget_seconds:.0f}s  {result.detail}"
    )


_NUMERATORS = tuple(n for n in range(-40, 41) if n)


def _random_nonzero_fraction(rng: random.Random, prime: int | None = None) -> Fraction:
    # (numerator / denominator) * prime^e with e in [-2, 2]; p^e is folded
    # into the integer terms so one Fraction is built.
    numerator = rng.choice(_NUMERATORS)
    denominator = rng.randrange(1, 24)
    if prime is not None:
        exponent = rng.randrange(-2, 3)
        if exponent >= 0:
            numerator *= prime**exponent
        else:
            denominator *= prime**-exponent
    return Fraction(numerator, denominator)


def solvability_oracle_odd(a: Fraction, b: Fraction, p: int) -> int:
    """Hilbert symbol at an odd prime by brute solvability search mod p^2.

    Reduce each argument modulo squares to an integer of valuation 0 or 1,
    then scan for (x, y), not both divisible by p, making ax^2 + by^2 a
    square mod p^2.  A solution found this way lifts (the gradient has a unit
    coordinate), and a p-adic solution scales to one the scan finds, so the
    scan's verdict equals the symbol.  x and y enter only through their
    squares mod p^2 and whether p divides them, so the scan runs over those
    classes, about a quarter of the (x, y) pairs.
    """
    modulus = p * p

    def reduced(x: Fraction) -> int:
        decomposition = padic_valuation(x, p)
        unit = decomposition.unit_part
        residue = (unit.numerator * unit.denominator) % modulus
        return (p ** (decomposition.exponent % 2) * residue) % modulus

    a_red = reduced(a)
    b_red = reduced(b)
    squares = {(z * z) % modulus for z in range(modulus)}
    classes = {((z * z) % modulus, z % p != 0) for z in range(modulus)}
    for x_square, x_unit in classes:
        x_term = a_red * x_square
        for y_square, y_unit in classes:
            if (x_unit or y_unit) and (x_term + b_red * y_square) % modulus in squares:
                return 1
    return -1


def _criterion_prime_lists() -> str:
    iso_reports, aniso_reports = search_primes_isotropic(6), search_primes_anisotropic(6)
    isotropic = tuple(report.prime for report in iso_reports)
    anisotropic = tuple(report.prime for report in aniso_reports)
    assert isotropic == REFERENCE_ISOTROPIC_PRIMES == (5, 13, 29, 37, 53, 61)
    assert anisotropic == REFERENCE_ANISOTROPIC_PRIMES == (17, 41, 97, 137, 193, 241)
    for report in iso_reports:
        assert report.conditions == {"legendre_minus_one": 1, "legendre_two": -1}
    for report in aniso_reports:
        assert report.conditions["legendre_sqrt2"] == -1
        assert gauss_representation(report.prime) is None
    return f"isotropic {isotropic}, anisotropic {anisotropic}"


def _criterion_gauss_agreement() -> str:
    checked = 0
    for p in range(17, 10_000, 8):
        if not is_prime(p):
            continue
        two_is_fourth_power(p)  # raises if the two criteria disagree
        checked += 1
    assert checked > 250  # sanity: the range really was scanned
    return f"{checked} primes = 1 (mod 8) below 10^4, zero disagreements"


_HILBERT_PLACES = (REAL, DYADIC, odd_place(3), odd_place(5), odd_place(7), odd_place(11), odd_place(13))


def _criterion_hilbert_suite() -> str:
    rng = random.Random(1003)
    for place in _HILBERT_PLACES:
        scale = place.prime  # None at the real place
        for _ in range(1000):
            a = _random_nonzero_fraction(rng, scale)
            a2 = _random_nonzero_fraction(rng, scale)
            b = _random_nonzero_fraction(rng, scale)
            symbol = hilbert(a, b, place)
            assert hilbert(a * a2, b, place) == symbol * hilbert(a2, b, place)
            assert hilbert(a * a, b, place) == 1
            assert symbol == hilbert(a, -a * b, place)

    place_of = cache(odd_place)  # one validated place per prime
    for _ in range(1000):
        a = _random_nonzero_fraction(rng, rng.choice((None, 2, 3, 5)))
        b = _random_nonzero_fraction(rng, rng.choice((None, 2, 3, 5)))
        support = {
            p
            for value in (a, b)
            for p in factor_int(abs(value.numerator * value.denominator))
            if p % 2 == 1
        }
        product = hilbert(a, b, REAL) * hilbert(a, b, DYADIC)
        for p in support:
            product *= hilbert(a, b, place_of(p))
        assert product == 1

    oracle_checks = 0
    for _ in range(200):
        p = rng.choice((3, 5, 7, 11, 13))
        a = _random_nonzero_fraction(rng, p)
        b = _random_nonzero_fraction(rng, p)
        assert hilbert(a, b, place_of(p)) == solvability_oracle_odd(a, b, p)
        oracle_checks += 1
    return f"7000 identity triples, 1000 product-formula pairs, {oracle_checks} oracle matches"


def _criterion_scaling_invariance() -> str:
    rng = random.Random(1004)
    primes_1_mod_4 = (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)
    for _ in range(500):
        rank = rng.choice((3, 5, 7))
        p = rng.choice(primes_1_mod_4)
        coefficients = tuple(_random_nonzero_fraction(rng, rng.choice((None, p))) for _ in range(rank))
        scalar = _random_nonzero_fraction(rng, rng.choice((None, p)))
        scaled = tuple(scalar * c for c in coefficients)
        place = odd_place(p)
        assert hasse_witt(scaled, place) == hasse_witt(coefficients, place)
    return "500 random odd-rank forms, epsilon unchanged under scaling at p = 1 (mod 4)"


def _certified_matrix(forms, expected_method: str) -> None:
    for i, row in enumerate(certificate_matrix(forms)):
        for j, certificate in enumerate(row):
            if i == j:
                assert certificate is None
            else:
                assert certificate is not None, (i, j)
                assert certificate.method == expected_method, (i, j, certificate.method)


def _criterion_certificate_matrices() -> str:
    q_forms = [make_q(p, 4) for p in REFERENCE_ISOTROPIC_PRIMES]
    _certified_matrix(q_forms, "epsilon_at_prime")
    q_even = [make_q(p, 5) for p in REFERENCE_ISOTROPIC_PRIMES]
    _certified_matrix(q_even, "discriminant_ratio")
    r_forms = [make_r(p, 4) for p in REFERENCE_ANISOTROPIC_PRIMES]
    _certified_matrix(r_forms, "epsilon_at_prime")
    # The diagonal symbol pattern: epsilon dips to -1 exactly at the form's own prime.
    for l, p in enumerate(REFERENCE_ISOTROPIC_PRIMES):
        for m, a in enumerate(REFERENCE_ISOTROPIC_PRIMES):
            expected = -1 if l == m else 1
            assert epsilon_q_at(a, 4, p) == expected, (p, a)
    return "three 6x6 matrices fully certified; epsilon = -1 exactly on the diagonal prime"


def _criterion_subgroup_counts() -> str:
    expected = (1, 3, 13, 71, 461, 3447)
    for k, value in enumerate(expected, start=1):
        assert hall_count(k) == value
        tables = enumerate_subgroups(k)
        assert len(tables) == value
        # Enumerated tables are built unchecked; each must pass the checks.
        for t in tables:
            subgroup_table(t.vertex_count, t.perm_a, t.perm_b)
            assert t.canonical_key() == (k, t.perm_a, t.perm_b, (0,)), t
    for k in range(1, 41):
        assert hall_count(k) ** 2 >= k**k, k
    return f"a_1..a_6 = {expected} by both routes; a_k^2 >= k^k up to k = 40"


def _tables_up_to_4():
    tables = []
    for k in range(1, 5):
        tables.extend(enumerate_subgroups(k))
    return tables


def _criterion_cover_exhaustive() -> str:
    tables = _tables_up_to_4()
    assert len(tables) == 88
    pairs = 0
    for i in range(len(tables)):
        decision = has_common_decorated_cover(tables[i], tables[i])
        assert decision.has_cover and decision.witness is not None
        for j in range(i + 1, len(tables)):
            assert not has_common_decorated_cover(tables[i], tables[j]).has_cover, (i, j)
            pairs += 1
    assert pairs == 88 * 87 // 2
    return f"{pairs} distinct pairs share no decorated cover; 88 self-pairs do"


def _criterion_trace_separates() -> str:
    parcel = default_parcel(4, compact=False)
    tables = _tables_up_to_4()
    descriptors = [assemble(t, parcel) for t in tables]
    pairs = 0
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            word = distinguishing_word(tables[i], tables[j])
            assert word is not None, (i, j)
            trace_i = trace_word(descriptors[i], word)
            trace_j = trace_word(descriptors[j], word)
            assert {trace_i.terminal_kind, trace_j.terminal_kind} == {"V0", "V1"}, (i, j)
            assert trace_i.crossings == trace_j.crossings == 3 * len(word)
            pairs += 1
    return f"{pairs} pairs separated by terminal block kind, 3|w| crossings each"


def _criterion_counting_pipeline() -> str:
    parcel = default_parcel(4, compact=False)
    report = count_lower_bound(Fraction(30), parcel)
    assert (report.k, report.descriptor_count, report.floor_bound) == (6, 3447, 216)
    validated = 0
    for descriptor in descriptors_for_index(6, parcel):
        _check_closed(*_pick(descriptor.source_graph)[:2])
        assert volume_bound(descriptor, parcel) == 30
        validated += 1
    assert validated == 3447

    emit_report = count_lower_bound(Fraction(25), parcel)
    assert emit_report.k == 5 and emit_report.descriptor_count == 461
    with tempfile.TemporaryDirectory() as directory:
        written = emit_descriptors(emit_report.k, parcel, directory)
        files = sorted(Path(directory).glob("descriptor_*.json"))
        assert written == len(files) == 461
        sample = descriptor_from_json(files[0].read_text(), parcel)
        assert volume_bound(sample, parcel) == 25
    return "v=30: k=6, 3447 >= 216, all descriptors closed; v=25 emits 461 files"


CRITERIA = (
    (1, "prime-lists", 1.0, _criterion_prime_lists),
    (2, "gauss-agreement", 5.0, _criterion_gauss_agreement),
    (3, "hilbert-suite", 10.0, _criterion_hilbert_suite),
    (4, "scaling-invariance", 5.0, _criterion_scaling_invariance),
    (5, "certificate-matrices", 2.0, _criterion_certificate_matrices),
    (6, "subgroup-counts", 30.0, _criterion_subgroup_counts),
    (7, "cover-exhaustive", 60.0, _criterion_cover_exhaustive),
    (8, "trace-separates", 60.0, _criterion_trace_separates),
    (9, "counting-pipeline", 120.0, _criterion_counting_pipeline),
)


def run_criterion(number: int) -> CriterionResult:
    for criterion_number, name, budget, function in CRITERIA:
        if criterion_number == number:
            break
    else:
        raise ValueError(f"no criterion numbered {number}")
    start = time.perf_counter()
    try:
        detail = function()
        failed = None
    except Exception as error:  # noqa: BLE001 -- a criterion failure is data here
        detail = f"{type(error).__name__}: {error}"
        failed = error
    elapsed = time.perf_counter() - start
    passed = failed is None and elapsed < budget
    if failed is None and elapsed >= budget:
        detail += f" [exceeded {budget:.0f}s budget]"
    return CriterionResult(number, name, passed, detail, elapsed, budget)


def run_all(stream=None) -> list[CriterionResult]:
    results = []
    for number, _, _, _ in CRITERIA:
        result = run_criterion(number)
        results.append(result)
        if stream is not None:
            print(format_line(result), file=stream, flush=True)
    return results


__all__ = [
    "CRITERIA",
    "CriterionResult",
    "format_line",
    "run_all",
    "run_criterion",
    "solvability_oracle_odd",
]
