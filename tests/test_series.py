"""Series-core arithmetic, precision rules, and printing."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from truncas.errors import CompositionIllDefined, NonUnit, RingMismatch, TruncasError
from truncas.fields import QQ, PrimeField
from truncas.groebner import PolyIdeal
from truncas.morphisms import AlgebraMorphism
from truncas.series import (
    PACKED_MIN_FILL,
    Polynomial,
    Ring,
    TruncatedSeries,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    exponents_of_degree,
    format_terms,
    iter_exponents,
    substitute,
    total_degree,
    _packed_product,
)
from truncas.textio import parse_poly_text

from oracles import (
    geometric_series,
    naive_convolution,
    parse_series_text,
    recursive_exponents_of_degree,
    textbook_compose,
)

R2 = Ring(QQ, ("x1", "x2"))
R1 = Ring(QQ, ("x1",))
RY = Ring(QQ, ("y1",))


def ts(ring, terms, order):
    return TruncatedSeries(ring, {e: Fraction(c) for e, c in terms.items()}, order)


def test_add_cancellation():
    f = ts(R2, {(0, 0): 1, (1, 0): 1}, 5)
    g = ts(R2, {(0, 0): -1, (0, 1): 1}, 5)
    assert f + g == ts(R2, {(1, 0): 1, (0, 1): 1}, 5)


def test_add_precision_rule():
    f = ts(R2, {(1, 0): 1}, 3)
    g = ts(R2, {(2, 0): 1}, 7)
    out = f + g
    assert out.known_order == 3
    assert out == ts(R2, {(1, 0): 1, (2, 0): 1}, 3)


def test_add_identity():
    f = ts(R2, {(1, 1): 3}, 4)
    assert f + TruncatedSeries.zero(R2, 4) == f


def test_mul_difference_of_squares():
    f = ts(R1, {(0,): 1, (1,): 1}, 5)
    g = ts(R1, {(0,): 1, (1,): -1}, 5)
    assert f * g == ts(R1, {(0,): 1, (2,): -1}, 5)


def test_mul_precision_gains_from_valuation():
    f = ts(R2, {(1, 0): 1}, 3)
    g = ts(R2, {(0, 1): 1}, 3)
    out = f * g
    assert out.known_order == 4
    # brute-force convolution at order 4 agrees
    assert out.terms == naive_convolution(f.terms, g.terms, 4)


def test_mul_identity():
    f = ts(R2, {(1, 0): 2, (0, 2): -1}, 6)
    one = TruncatedSeries.const(R2, 1, 6)
    assert f * one == f


def test_ring_mismatch():
    f = ts(R2, {(0, 0): 1}, 3)
    g = ts(R1, {(0,): 1}, 3)
    with pytest.raises(RingMismatch):
        f + g  # noqa: B018


def test_invert_geometric():
    f = ts(R1, {(0,): 1, (1,): -1}, 4)
    assert f.invert().terms == geometric_series(4)


def test_invert_constant():
    f = TruncatedSeries.const(R1, 2, 5)
    assert f.invert() == TruncatedSeries.const(R1, Fraction(1, 2), 5)


def test_invert_nonunit():
    with pytest.raises(NonUnit):
        ts(R1, {(1,): 1}, 4).invert()


def test_invert_correctness_property():
    rng = random.Random(7)
    for _ in range(10):
        terms = {(0,): Fraction(rng.randint(1, 5))}
        for k in range(1, 7):
            terms[(k,)] = Fraction(rng.randint(-4, 4))
        f = TruncatedSeries(R1, terms, 8)
        prod = f * f.invert()
        assert prod.constant_term() == 1
        assert all(total_degree(e) == 0 for e in prod.terms)


def test_substitute_monomial_images():
    f = Polynomial(R2, {(1, 1): Fraction(1)})
    ry2 = Ring(QQ, ("y1", "y2"))
    y1 = ry2.variable_series(0, 6)
    y1y2 = TruncatedSeries(ry2, {(1, 1): Fraction(1)}, 6)
    out = substitute(f, [y1, y1y2])
    assert out.terms == {(2, 1): Fraction(1)}


def test_substitute_identity():
    f = Polynomial(R1, {(1,): Fraction(1)})
    g = TruncatedSeries(RY, {(1,): Fraction(2), (3,): Fraction(-1)}, 5)
    assert substitute(f, [g]) == g


def test_substitute_expansion_oracle():
    # f = 1 + t + t^2 + t^3 at order 4, image y + y^2
    f = ts(R1, {(0,): 1, (1,): 1, (2,): 1, (3,): 1}, 4)
    img = ts(RY, {(1,): 1, (2,): 1}, 4)
    out = substitute(f, [img])
    # direct expansion: sum_{d<4} (y + y^2)^d
    acc = {(0,): Fraction(1)}
    power = {(0,): Fraction(1)}
    for _ in range(1, 4):
        power = naive_convolution(power, {(1,): Fraction(1), (2,): Fraction(1)}, 4)
        for e, c in power.items():
            acc[e] = acc.get(e, Fraction(0)) + c
    acc = {e: c for e, c in acc.items() if c}
    assert out.known_order == 4
    assert out.terms == acc
    assert out.terms == {(0,): 1, (1,): 1, (2,): 2, (3,): 3}


def test_substitute_requires_positive_valuation_for_series():
    f = ts(R1, {(0,): 1, (1,): 1}, 4)
    img = ts(RY, {(0,): 1, (1,): 1}, 4)
    with pytest.raises(CompositionIllDefined):
        substitute(f, [img])


def test_substitute_truncate_commutes():
    rng = random.Random(3)
    for _ in range(5):
        fterms = {
            (a,): Fraction(rng.randint(-3, 3))
            for a in range(6)
        }
        f = TruncatedSeries(R1, fterms, 6)
        img = TruncatedSeries(
            RY, {(k,): Fraction(rng.randint(-2, 2)) for k in range(1, 6)}, 6
        )
        c = 3
        lhs = substitute(f, [img]).truncate(c)
        rhs = substitute(f.truncate(c), [img.truncate(c)])
        assert lhs.terms == rhs.terms
        assert lhs.known_order == rhs.known_order == c


def test_nested_support():
    f = ts(R2, {(1, 0): 1, (1, 1): 1}, 4)
    assert f.nested_support_ok(2)
    assert not f.nested_support_ok(1)
    g = ts(R2, {(0, 1): 1}, 4)
    assert not g.nested_support_ok(1)
    assert TruncatedSeries.zero(R2, 4).nested_support_ok(0)


def test_truncate_and_valuation():
    f = ts(R2, {(1, 0): 1, (2, 1): 5}, 6)
    assert f.valuation() == 1
    t = f.truncate(2)
    assert t.known_order == 2 and t.terms == {(1, 0): Fraction(1)}
    assert TruncatedSeries.zero(R2, 4).valuation() == 4


def test_polynomial_derivative():
    p = Polynomial(R2, {(2, 1): Fraction(3), (0, 1): Fraction(1)})
    dp = p.derivative(0)
    assert dp == Polynomial(R2, {(1, 1): Fraction(6)})


def test_ring_axioms_randomized():
    # term-exact distributivity and associativity below the derived orders
    rng = random.Random(11)

    def rand_series():
        terms = {}
        for e in iter_exponents(2, 8):
            if rng.random() < 0.3:
                terms[e] = Fraction(rng.randint(-5, 5))
        return TruncatedSeries(R2, terms, 8)

    for _ in range(8):
        f, g, h = rand_series(), rand_series(), rand_series()
        left = (f + g) + h
        right = f + (g + h)
        assert left == right
        lhs = f * (g + h)
        rhs = f * g + f * h
        cut = min(lhs.known_order, rhs.known_order)
        assert lhs.truncate(cut) == rhs.truncate(cut)
        la = (f * g) * h
        ra = f * (g * h)
        cut = min(la.known_order, ra.known_order)
        assert la.truncate(cut) == ra.truncate(cut)


def test_prime_field_arithmetic():
    F7 = PrimeField(7)
    R = Ring(F7, ("x1",))
    f = TruncatedSeries(R, {(0,): F7(3), (1,): F7(5)}, 4)
    inv = f.invert()
    prod = f * inv
    assert prod.constant_term() == F7(1)
    assert all(total_degree(e) == 0 for e in prod.terms)


def test_prime_field_fraction_coercion():
    F7 = PrimeField(7)
    assert F7(Fraction(1, 2)) == F7(4)  # 2*4 = 8 = 1 mod 7
    with pytest.raises(TruncasError):
        PrimeField(6)


@pytest.mark.parametrize(
    "terms,order",
    [
        ({}, 3),
        ({(1, 0): Fraction(1)}, 5),
        ({(0, 0): Fraction(-1, 2), (2, 1): Fraction(3)}, 7),
        ({(1, 1): Fraction(-1)}, 4),
    ],
)
def test_series_print_parse_roundtrip(terms, order):
    f = TruncatedSeries(R2, terms, order)
    text = format_terms(f, order=f.known_order)
    back = parse_series_text(text, R2)
    assert back == f


def test_poly_print_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(12):
        terms = {}
        for e in iter_exponents(2, 5):
            if rng.random() < 0.4:
                terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Polynomial(R2, terms)
        assert parse_poly_text(format_terms(p), R2) == p


def test_canonical_print_order():
    p = Polynomial(
        R2,
        {(0, 1): Fraction(1), (1, 0): Fraction(1), (0, 0): Fraction(1), (2, 0): Fraction(1)},
    )
    assert format_terms(p) == "1 + x1 + x2 + x1^2"


# ---------------------------------------------------------------------------
# graded raw-coefficient kernel against textbook oracles


def _pairwise_mul(f, g):
    """Textbook product: every term pair, kept when it lands below the order."""
    order = min(f.known_order + g.valuation(), g.known_order + f.valuation())
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            if total_degree(e1) + total_degree(e2) >= order:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e)
            s = c1 * c2 if s is None else s + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return TruncatedSeries(f.ring, out, order)


KERNEL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
F7 = PrimeField(7)


def _coefficients(field):
    if field == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=5)
    return st.integers(0, 6).map(field)


@st.composite
def rings(draw):
    field = draw(st.sampled_from([QQ, F7]))
    n = draw(st.integers(1, 3))
    return Ring(field, ("x1", "x2", "x3")[:n])


@st.composite
def series_in(draw, ring, unit=False):
    """A sparse series with a drawn known_order and, unless ``unit``, valuation."""
    order = draw(st.integers(1, 9))
    exponents = st.tuples(*[st.integers(0, order - 1)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, _coefficients(ring.field), max_size=10))
    if unit:
        terms[ring.zero_exp()] = draw(_coefficients(ring.field).filter(bool))
    else:
        val = draw(st.integers(0, order))
        terms = {e: c for e, c in terms.items() if total_degree(e) >= val}
    return TruncatedSeries(ring, terms, order)


@st.composite
def series_pairs(draw):
    ring = draw(rings())
    return draw(series_in(ring)), draw(series_in(ring))


@KERNEL_SETTINGS
@given(series_pairs())
def test_mul_matches_pairwise_oracle(pair):
    f, g = pair
    assert f * g == _pairwise_mul(f, g)


@KERNEL_SETTINGS
@given(rings().flatmap(lambda ring: series_in(ring, unit=True)))
def test_invert_is_inverse_below_order(f):
    assert f * f.invert() == TruncatedSeries.const(f.ring, 1, f.known_order)


@KERNEL_SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 9)] * n), min_size=2, max_size=2)))
def test_exponent_helpers_match_elementwise_definitions(pair):
    a, b = pair
    assert exp_add(a, b) == tuple(x + y for x, y in zip(a, b))
    assert exp_sub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert exp_divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert exp_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))


def test_exponents_of_degree_match_recursive_enumeration():
    for n in range(5):
        for d in range(9):
            got = exponents_of_degree(n, d)
            assert got == tuple(recursive_exponents_of_degree(n, d))
            assert len(got) == (comb(n + d - 1, d) if n else int(d == 0))
        expected = [e for d in range(9) for e in recursive_exponents_of_degree(n, d)]
        assert list(iter_exponents(n, 9)) == expected


# ---------------------------------------------------------------------------
# polynomial arithmetic and composition against textbook oracles

NO_TRUNCATION = 10**6  # above every degree the strategies below can reach


@st.composite
def polynomials_in(draw, ring, degree=3, max_size=6):
    """The zero polynomial, a constant, or a sparse polynomial of partial degrees <= degree."""
    coefficients = _coefficients(ring.field)
    shape = draw(st.integers(0, 4))  # 0: zero, 1: constant, otherwise sparse
    if shape == 0:
        return Polynomial.zero(ring)
    if shape == 1:
        return Polynomial.const(ring, draw(coefficients))
    exponents = st.tuples(*[st.integers(0, degree)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=max_size))
    return Polynomial(ring, terms)


@st.composite
def polynomial_pairs(draw):
    """Two polynomials over one ring; the second may cancel some terms of the first."""
    ring = draw(rings())
    f, g = draw(polynomials_in(ring)), draw(polynomials_in(ring))
    if f.terms and draw(st.booleans()):
        cancelled = draw(st.sets(st.sampled_from(sorted(f.terms)), min_size=1))
        g = Polynomial(ring, {**g.terms, **{e: -f.terms[e] for e in cancelled}})
    return f, g


def _textbook_sum(f_terms, g_terms):
    out = dict(f_terms)
    for e, c in g_terms.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if c}


@KERNEL_SETTINGS
@given(polynomial_pairs())
def test_polynomial_arithmetic_matches_textbook_oracle(pair):
    f, g = pair
    ring = f.ring
    negated = {e: -c for e, c in g.terms.items()}
    assert f + g == Polynomial(ring, _textbook_sum(f.terms, g.terms))
    assert f - g == Polynomial(ring, _textbook_sum(f.terms, negated))
    assert -g == Polynomial(ring, negated)
    assert f * g == Polynomial(ring, naive_convolution(f.terms, g.terms, NO_TRUNCATION))
    for c in {g.constant_term(), ring.field(3)}:
        assert f.scale(c) == Polynomial(ring, {e: c * v for e, v in f.terms.items()})


@st.composite
def compositions(draw):
    """f over x1..xn with one polynomial image per variable over y1..ym."""
    field = draw(st.sampled_from([QQ, F7]))
    source = Ring(field, ("x1", "x2", "x3")[: draw(st.integers(1, 3))])
    target = Ring(field, ("y1", "y2")[: draw(st.integers(1, 2))])
    f = draw(polynomials_in(source, degree=2))
    images = [draw(polynomials_in(target, degree=2, max_size=4)) for _ in source.names]
    return f, images


@KERNEL_SETTINGS
@given(compositions())
def test_substitute_lifted_polynomials_matches_composition_oracle(case):
    f, images = case
    top = max((total_degree(e) for e in f.terms), default=0)
    below = 1 + top * max(max(g.total_deg(), 0) for g in images)
    out = substitute(f, [g.as_series(below) for g in images])
    assert out.known_order >= below
    assert out.terms == textbook_compose(f, images)


@KERNEL_SETTINGS
@given(compositions())
def test_exact_well_definedness_matches_composition_oracle(case):
    f, images = case
    source, target = f.ring, images[0].ring
    value = Polynomial(target, textbook_compose(f, images))
    I = PolyIdeal(source, [f])
    assert AlgebraMorphism(source, target, images, I=I).well_defined() == value.is_zero()
    J = PolyIdeal(target, [value])
    assert AlgebraMorphism(source, target, images, I=I, J=J).well_defined()


# ---------------------------------------------------------------------------
# packed (Kronecker) product against the same oracle

FP31 = PrimeField(2**31 - 1)
# prime powers, so a few denominators already have a large lcm
LCM_HEAVY = (1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 49)
MAX_ORDER = {1: 40, 2: 12, 3: 7}  # dense operands reach both sides of the crossover


def _dense_coefficient_source(field, rng):
    """A function drawing one coefficient, with a drawn size, sign and denominator mix."""
    if field != QQ:
        low = rng.choice([0, field.p - 9])  # uniform residues, or the top ones
        return lambda: field(rng.randrange(low, field.p))
    size = rng.choice([9, 2**63, 2**64, 2**80])
    sign = rng.choice([(-1, 1), (1,), (-1,)])
    dens = rng.choice([(1,), tuple(range(1, 10)), LCM_HEAVY])

    def coefficient():
        num = rng.randint(-9, 9) if size == 9 else size + rng.randint(-9, 9)
        return Fraction(rng.choice(sign) * num, rng.choice(dens))

    return coefficient


def _dense_series(ring, rng, order):
    """Empty, constant, or dense above a drawn valuation with drawn gaps and density."""
    coefficient = _dense_coefficient_source(ring.field, rng)
    shape = rng.choice(["dense"] * 6 + ["constant", "empty"])
    if shape == "empty":
        return TruncatedSeries.zero(ring, order)
    if shape == "constant":
        return TruncatedSeries(ring, {ring.zero_exp(): coefficient()}, order)
    val = rng.choice([0] * 4 + [1, order // 2, order - 1])
    gaps = {rng.randrange(order) for _ in range(rng.choice([0, 0, 1, 2]))}  # degrees left empty
    density = rng.choice([1.0, 1.0, 0.8, 0.4])
    terms = {
        e: coefficient()
        for e in iter_exponents(ring.nvars, order)
        if total_degree(e) >= val and total_degree(e) not in gaps and rng.random() < density
    }
    return TruncatedSeries(ring, terms, order)


@st.composite
def dense_series_pairs(draw):
    """Two series over Q, F_7 or F_(2^31-1); the operands come from a drawn seed.

    Hypothesis favours small draws, which would rarely reach the packed
    product, so only the field, the variable count and the seed are drawn.
    """
    field = draw(st.sampled_from([QQ, F7, FP31]))
    ring = Ring(field, ("x1", "x2", "x3")[: draw(st.integers(1, 3))])
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = rng.randint(1, MAX_ORDER[ring.nvars])
    other = rng.choice([order, rng.randint(1, MAX_ORDER[ring.nvars])])
    return _dense_series(ring, rng, order), _dense_series(ring, rng, other)


@settings(KERNEL_SETTINGS, max_examples=200)
@given(dense_series_pairs())
def test_packed_product_matches_pairwise_oracle(pair):
    f, g = pair
    expected = _pairwise_mul(f, g)
    fill = len(f.terms) * len(g.terms) / (2 * expected.known_order - 1) ** f.ring.nvars
    event("f * g packed" if fill >= PACKED_MIN_FILL else "f * g graded")
    assert f * g == expected
    below = expected.known_order
    assert _packed_product(f.terms, g.terms, f.ring.field, below, f.ring.nvars) == expected.terms
    # a polynomial product keeps the top degree, which is exactly below - 1
    p, q = Polynomial(f.ring, f.terms), Polynomial(g.ring, g.terms)
    exact = naive_convolution(p.terms, q.terms, NO_TRUNCATION)
    assert p * q == Polynomial(f.ring, exact)
    if p.terms and q.terms:
        assert _packed_product(
            p.terms, q.terms, f.ring.field, p.total_deg() + q.total_deg() + 1, f.ring.nvars
        ) == exact


@pytest.mark.parametrize(
    "field,nvars,order,packed",
    [
        (FP31, 1, 5, False),
        (FP31, 1, 6, True),
        (FP31, 2, 5, False),
        (FP31, 2, 6, True),
        (FP31, 3, 6, False),
        (QQ, 1, 100, True),
        (QQ, 3, 8, True),
    ],
)
def test_dense_products_on_both_sides_of_the_crossover(field, nvars, order, packed):
    rng = random.Random(order)
    ring = Ring(field, ("x1", "x2", "x3")[:nvars])
    exponents = list(iter_exponents(nvars, order))
    if field == QQ:
        draws = [{e: Fraction(rng.randint(-99, 99), rng.choice(LCM_HEAVY)) for e in exponents}
                 for _ in range(2)]
    else:
        draws = [{e: field(rng.randrange(field.p)) for e in exponents} for _ in range(2)]
    f, g = (TruncatedSeries(ring, terms, order) for terms in draws)
    fill = len(f.terms) * len(g.terms) / (2 * order - 1) ** nvars
    assert (fill >= PACKED_MIN_FILL) == packed
    assert f * g == _pairwise_mul(f, g)
