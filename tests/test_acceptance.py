"""The release gate: every numbered criterion runs here, one line per result.

Each test executes one criterion (frozen values, oracle cross-checks,
exhaustive small-index sweeps) and enforces its wall-clock budget; the
printed line carries the measured time and the verifying detail.
"""

import random
from fractions import Fraction

import pytest

from volcount.acceptance import (
    CRITERIA,
    _random_nonzero_fraction,
    format_line,
    run_criterion,
    solvability_oracle_odd,
)

_IDS = [f"{number}-{name}" for number, name, _, _ in CRITERIA]


@pytest.mark.parametrize("number", [entry[0] for entry in CRITERIA], ids=_IDS)
def test_criterion(number):
    result = run_criterion(number)
    print(format_line(result))
    assert result.passed, format_line(result)
    assert result.seconds < result.budget_seconds


def _three_fraction_draw(rng, prime=None):
    # The gate's original input generator, kept as the oracle for its inputs.
    numerator = rng.choice([n for n in range(-40, 41) if n])
    value = Fraction(numerator, rng.randrange(1, 24))
    if prime is not None:
        value *= Fraction(prime) ** rng.randrange(-2, 3)
    return value


# Every prime argument the criteria pass: the Hilbert places, the product-
# formula and oracle choices, and the p = 1 (mod 4) scaling list.
_GATE_PRIMES = (None, 2, 3, 5, 7, 11, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


@pytest.mark.parametrize("seed", (0, 1003, 1004, 2**31 - 1))
def test_gate_inputs_match_the_three_fraction_oracle(seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(200):
        for prime in _GATE_PRIMES:
            value = _random_nonzero_fraction(new, prime)
            assert type(value) is Fraction
            assert value == _three_fraction_draw(old, prime)
        assert new.getstate() == old.getstate()


def _full_solvability_scan(a_red, b_red, p):
    # The oracle's original scan over every (x, y) in [0, p^2)^2.
    modulus = p * p
    squares = {(z * z) % modulus for z in range(modulus)}
    for x in range(modulus):
        x_term = a_red * x * x
        x_unit = x % p != 0
        for y in range(modulus):
            if not x_unit and y % p == 0:
                continue
            if (x_term + b_red * y * y) % modulus in squares:
                return 1
    return -1


@pytest.mark.parametrize("p", (3, 5))
def test_class_scan_matches_the_full_scan(p):
    # Every nonzero residue mod p^2 is a reduced argument (valuation 0 or 1),
    # and the oracle reduces it to itself.
    verdicts = {}
    for a in range(1, p * p):
        for b in range(1, p * p):
            verdict = solvability_oracle_odd(Fraction(a), Fraction(b), p)
            assert verdict == _full_solvability_scan(a, b, p), (a, b)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert verdicts[1] and verdicts[-1]
