"""Coefficient fields: primality of the modulus and the raw-value protocol."""

from fractions import Fraction

import pytest

from truncas.errors import TruncasError
from truncas.fields import QQ, FpElement, PrimeField, is_prime


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_ten_thousand():
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if _trial_division(n)
    ]


@pytest.mark.parametrize("n", [2**31 - 1, 2047, 1373653, 25326001])
def test_is_prime_large_and_strong_pseudoprimes(n):
    # 2047 fools base 2; 1373653 bases 2 and 3; 25326001 bases 2, 3 and 5
    assert is_prime(n) == _trial_division(n)


def test_prime_field_modulus_checks():
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    with pytest.raises(TruncasError, match="not prime"):
        PrimeField(25326001)
    with pytest.raises(TruncasError, match="below 2"):
        PrimeField(2**61 - 1)


def test_unwrap_wrap_round_trip():
    F7 = PrimeField(7)
    assert F7.unwrap(F7(5)) == 5
    assert F7.wrap(5 * 6 + 3 * 4) == F7(0)
    assert isinstance(F7.wrap(-1), FpElement) and F7.wrap(-1) == F7(6)
    q = Fraction(-3, 4)
    assert QQ.unwrap(q) is q and QQ.wrap(q) is q
