"""Exact coefficient fields: the rationals and prime fields.

Field elements support the usual operators, so polynomial and series code
can stay field-agnostic.  Rational coefficients are plain ``Fraction``
values; prime-field coefficients are small wrapper objects carrying their
modulus.  No floating point appears anywhere.

Inner loops may skip the element objects: every field has ``unwrap(c)``,
the raw value (the ``Fraction`` itself for Q, the residue for F_p), and
``wrap(v)``, which turns a sum of products of raw values back into a field
element (identity for Q, reduction mod p for F_p).

Row reduction keeps each row as integer numerators over one common row
denominator, so its inner loops do plain ``int`` arithmetic in every field.
Four row hooks sit next to ``unwrap``/``wrap``:

- ``scale_row(row, rhs)`` -> ``(den, nums, rhs_num)``: the row in.  Over Q
  ``den`` is the lcm of the denominators; over F_p the numerators are the
  residues and ``den`` is 1.
- ``cancel_factors(num, pden)`` -> ``(a, b)``: integers with
  ``a * num == b * pden`` in the field, so ``a * row - b * prow`` cancels
  the column where a row holds ``num`` and a stored row holds its pivot
  numerator ``pden``.  Over Q ``num / pden`` in lowest terms, ``b / a``;
  over F_p ``a`` is 1 and ``b`` is the residue of ``num``, so numerators
  grow by additions only.
- ``canonical_row(den, nums, rhs)``: the unique representative of the
  row's values, with zero entries dropped.  Over Q the content gcd of
  ``den``, every numerator and ``rhs`` is divided out and ``den > 0``; over
  F_p everything is multiplied by ``den^-1 mod p``, reduced, and ``den``
  is 1.
- ``unscale(num, den)``: one field element out of a canonical row,
  ``Fraction(num, den)`` over Q and ``wrap(num)`` over F_p.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import TruncasError


_MR_BASES = (2, 3, 5, 7)
_MR_LIMIT = 3_215_031_751  # least strong pseudoprime to all of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751 (covers p < 2**31)."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is exact only below {_MR_LIMIT}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers; elements are ``Fraction`` values."""

    characteristic = 0

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def __call__(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, FpElement):
            raise TruncasError("cannot coerce a prime-field element into Q")
        return Fraction(value)

    @staticmethod
    def unwrap(c):
        """Raw value for plain-number kernels: the ``Fraction`` itself."""
        return c

    @staticmethod
    def wrap(v):
        """Field element from a raw value computed by ``unwrap``-based arithmetic."""
        return v

    @staticmethod
    def scale_row(row, rhs):
        """(den, integer numerators, rhs numerator) with den the lcm of the denominators."""
        # Fraction's slots, not its properties: a property read is a Python call,
        # which doubled this hook's time; row values over Q are always Fractions
        den = lcm(rhs._denominator, *[v._denominator for v in row.values()])
        if den == 1:
            return 1, {c: v._numerator for c, v in row.items()}, rhs._numerator
        nums = {c: v._numerator * (den // v._denominator) for c, v in row.items()}
        return den, nums, rhs._numerator * (den // rhs._denominator)

    @staticmethod
    def cancel_factors(num, pden):
        """(pden, num) divided by their gcd."""
        g = gcd(num, pden)
        return pden // g, num // g

    @staticmethod
    def canonical_row(den, nums, rhs):
        """Zeros dropped, content gcd divided out, den > 0."""
        g = gcd(den, rhs, *nums.values())
        if den < 0:
            g = -g
        if g != 1 or 0 in nums.values():
            nums = {c: v // g for c, v in nums.items() if v}
        return den // g, nums, rhs // g

    @staticmethod
    def unscale(num, den) -> Fraction:
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class FpElement:
    """An element of F_p.  Arithmetic stays within one modulus."""

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _check(self, other):
        if not isinstance(other, FpElement) or other.p != self.p:
            raise TruncasError("mixed-field arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FpElement(self.r + other.r, self.p)

    def __sub__(self, other):
        other = self._check(other)
        return FpElement(self.r - other.r, self.p)

    def __mul__(self, other):
        other = self._check(other)
        return FpElement(self.r * other.r, self.p)

    def __truediv__(self, other):
        other = self._check(other)
        if other.r == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.r * pow(other.r, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.r, self.p)

    def __pow__(self, n: int):
        return FpElement(pow(self.r, n, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, FpElement) and other.p == self.p and other.r == self.r

    def __hash__(self):
        return hash((self.r, self.p))

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return str(self.r)


class PrimeField:
    """The field F_p for a fixed prime p < 2**31."""

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TruncasError(f"modulus {p} is not prime")
        if p >= 2**31:
            raise TruncasError("prime modulus must be below 2**31")
        if not is_prime(p):
            raise TruncasError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def __call__(self, value) -> FpElement:
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise TruncasError("mixed-field coercion")
            return value
        if isinstance(value, int):
            return FpElement(value, self.p)
        if isinstance(value, Fraction):
            num = FpElement(value.numerator, self.p)
            den = FpElement(value.denominator, self.p)
            return num / den
        raise TruncasError(f"cannot coerce {value!r} into F_{self.p}")

    @staticmethod
    def unwrap(c) -> int:
        """Raw value for plain-number kernels: the residue."""
        return c.r

    def wrap(self, v: int) -> FpElement:
        """Field element from any integer combination of residues; reduces mod p."""
        return FpElement(v, self.p)

    @staticmethod
    def scale_row(row, rhs):
        """(1, residues, rhs residue)."""
        return 1, {c: v.r for c, v in row.items()}, rhs.r

    def cancel_factors(self, num, pden):
        """(1, num mod p); stored rows have den 1."""
        return 1, num % self.p

    def canonical_row(self, den, nums, rhs):
        """Everything times den^-1, reduced mod p, zeros dropped; den becomes 1."""
        p = self.p
        inv = pow(den, -1, p)
        nums = {c: r for c, v in nums.items() if (r := v * inv % p)}
        return 1, nums, rhs * inv % p

    def unscale(self, num, den) -> FpElement:
        return FpElement(num, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = Rationals()
