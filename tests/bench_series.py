"""Layer microbenchmarks for polynomial and series arithmetic.

Run with ``PYTHONPATH=src python -m pytest tests/bench_series.py --benchmark-only``.
The file name keeps it out of the default test collection.

Operands are drawn once from fixed seeds:

- polynomial products at parse size (two 3-term bivariate factors) and at
  40 terms in 4 variables of total degree below 6, over Q and F_(2^31-1);
- dense series products over F_(2^31-1) in one variable at order 200 and
  over Q in two variables at order 16, and the inverses of the same
  operands with a unit constant term;
- dense series products on each side of the packed kernel's crossover
  (``series.PACKED_MIN_FILL``): over F_(2^31-1) in two variables at orders
  8 and 12 (packed) and in three variables at order 6 (graded loop), and
  over Q in one variable at order 100 (packed);
- the Hensel residual F(x, f) of the Catalan code u - 1 - x1*u^2 at its
  own lift to order 64 over F_(2^31-1), the ``substitute`` each Newton
  step makes.
"""

import random
from fractions import Fraction

import pytest

from truncas.fields import QQ, PrimeField
from truncas.hensel import HenselCode, lift
from truncas.series import Polynomial, Ring, TruncatedSeries, iter_exponents, substitute
from truncas.textio import parse_poly_text

from oracles import naive_convolution

FP = PrimeField(2**31 - 1)


def _coefficient(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return field(rng.randrange(field.p))


def _sparse_polynomial(rng, ring, nterms, below):
    exponents = list(iter_exponents(ring.nvars, below))
    terms = {e: _coefficient(rng, ring.field) for e in rng.sample(exponents, nterms)}
    return Polynomial(ring, terms)


def _dense_series(rng, ring, order):
    terms = {e: _coefficient(rng, ring.field) for e in iter_exponents(ring.nvars, order)}
    terms[ring.zero_exp()] = ring.field(1)
    return TruncatedSeries(ring, terms, order)


def _polynomial_operands():
    cases = {}
    for name, field in (("q", QQ), ("fp", FP)):
        ring = Ring(field, ("x1", "x2"))
        cases[f"parse-{name}"] = (
            parse_poly_text("x1 + 2*x2 - 3", ring),
            parse_poly_text("x1*x2 - x2^2 + 1/2", ring),
        )
        rng = random.Random(40)
        ring = Ring(field, ("x1", "x2", "x3", "x4"))
        cases[f"40x4-{name}"] = (
            _sparse_polynomial(rng, ring, 40, 6),
            _sparse_polynomial(rng, ring, 40, 6),
        )
    return cases


def _series_operands():
    rng = random.Random(200)
    uni = Ring(FP, ("x1",))
    bi = Ring(QQ, ("x1", "x2"))
    return {
        "fp-1var-c200": (_dense_series(rng, uni, 200), _dense_series(rng, uni, 200)),
        "q-2var-c16": (_dense_series(rng, bi, 16), _dense_series(rng, bi, 16)),
    }


def _crossover_operands():
    rng = random.Random(8)
    cases = {}
    for name, field, nvars, order in (
        ("fp-2var-c8", FP, 2, 8),
        ("fp-2var-c12", FP, 2, 12),
        ("fp-3var-c6", FP, 3, 6),
        ("q-1var-c100", QQ, 1, 100),
    ):
        ring = Ring(field, ("x1", "x2", "x3")[:nvars])
        cases[name] = (_dense_series(rng, ring, order), _dense_series(rng, ring, order))
    return cases


POLYNOMIALS = _polynomial_operands()
SERIES = _series_operands()
PRODUCTS = {**SERIES, **_crossover_operands()}


@pytest.mark.parametrize("case", sorted(POLYNOMIALS))
def test_polynomial_mul(benchmark, case):
    f, g = POLYNOMIALS[case]
    product = benchmark(f.__mul__, g)
    assert product == Polynomial(f.ring, naive_convolution(f.terms, g.terms, 10**6))


@pytest.mark.parametrize("case", sorted(PRODUCTS))
def test_series_mul(benchmark, case):
    f, g = PRODUCTS[case]
    product = benchmark(f.__mul__, g)
    assert product.terms == naive_convolution(f.terms, g.terms, product.known_order)


@pytest.mark.parametrize("case", sorted(SERIES))
def test_series_invert(benchmark, case):
    f, _ = SERIES[case]
    inverse = benchmark(f.invert)
    assert f * inverse == TruncatedSeries.const(f.ring, 1, f.known_order)


def test_hensel_residual_substitute(benchmark):
    ring = Ring(FP, ("x1",))
    big = ring.extend(("u",))
    code = HenselCode(ring, parse_poly_text("u - 1 - x1*u^2", big), FP(1))
    f = lift(code, 64)
    images = [ring.variable_series(0, 64), f]
    residual = benchmark(substitute, code.poly, images)
    assert residual.is_zero() and residual.known_order == 64
