"""Hensel codes: validation, Newton lifting, implicit solving."""

import math
from fractions import Fraction

import pytest

from truncas.errors import InvalidCode, NotSimpleRoot
from truncas.fields import QQ, PrimeField
from truncas.hensel import HenselCode, implicit_solve, lift, lift_with_steps, validate
from truncas.series import Polynomial, Ring, TruncatedSeries, substitute, total_degree

from oracles import catalan_numbers, reversion_of_t_plus_t2, sqrt_one_plus_t

RX = Ring(QQ, ("x1",))
RXU = RX.extend(("u",))


def poly(ring, terms):
    return Polynomial(ring, {e: Fraction(c) for e, c in terms.items()})


def sqrt_code():
    # u^2 - (1 + x1), seed 1
    return HenselCode(RX, poly(RXU, {(0, 2): 1, (0, 0): -1, (1, 0): -1}), 1)


def catalan_code():
    # u - 1 - x1 u^2, seed 1
    return HenselCode(RX, poly(RXU, {(0, 1): 1, (0, 0): -1, (1, 2): -1}), 1)


def test_validate_simple_root():
    ok, _ = validate(sqrt_code())
    assert ok


def test_validate_derivative_vanishes():
    code = HenselCode(RX, poly(RXU, {(0, 2): 1, (1, 0): -1}), 0)  # u^2 - x1 at 0
    ok, reason = validate(code)
    assert not ok and "simple" in reason


def test_validate_seed_not_root():
    code = HenselCode(RX, poly(RXU, {(0, 1): 1, (1, 0): -1}), 1)  # u - x1 at 1
    ok, reason = validate(code)
    assert not ok and "root" in reason


def test_lift_sqrt_matches_binomial_series():
    f = lift(sqrt_code(), 4)
    assert f.terms == sqrt_one_plus_t(4)
    assert f.terms == {
        (0,): 1,
        (1,): Fraction(1, 2),
        (2,): Fraction(-1, 8),
        (3,): Fraction(1, 16),
    }


def test_lift_linear_code_short_circuit():
    # u - (1 + 2 x1 + x1^3): explicit root, one step
    code = HenselCode(
        RX, poly(RXU, {(0, 1): 1, (0, 0): -1, (1, 0): -2, (3, 0): -1}), 1
    )
    f, steps = lift_with_steps(code, 6)
    assert steps <= 1
    assert f.terms == {(0,): 1, (1,): 2, (3,): 1}


def test_lift_catalan():
    f = lift(catalan_code(), 5)
    cat = catalan_numbers(5)
    assert f.terms == {(k,): Fraction(cat[k]) for k in range(5)}


def test_lift_invalid_code():
    bad = HenselCode(RX, poly(RXU, {(0, 2): 1, (1, 0): -1}), 0)
    with pytest.raises(InvalidCode):
        lift(bad, 3)


@pytest.mark.parametrize("c", [1, 2, 3, 7, 16, 33, 64])
def test_residual_and_step_count(c):
    for make in (sqrt_code, catalan_code):
        code = make()
        f, steps = lift_with_steps(code, c)
        assert f.known_order == c
        assert steps <= math.ceil(math.log2(c)) + 1 if c > 1 else steps <= 1
        xs = RX.variable_series(0, c)
        residual = substitute(code.poly, [xs, f])
        assert all(total_degree(e) >= c for e in residual.terms)


def test_lift_idempotence():
    code = sqrt_code()
    f64 = lift(code, 64)
    f10 = lift(sqrt_code(), 10)
    assert f64.truncate(10) == f10


def test_sqrt_symmetry_of_roots():
    plus = lift(sqrt_code(), 12)
    minus_code = HenselCode(RX, poly(RXU, {(0, 2): 1, (0, 0): -1, (1, 0): -1}), -1)
    minus = lift(minus_code, 12)
    assert (plus + minus).is_zero()


def test_cache_extends_monotonically():
    code = catalan_code()
    lift(code, 8)
    assert code._cache.known_order >= 8
    f4 = lift(code, 4)
    assert f4.known_order == 4
    assert lift(code, 8).truncate(4) == f4


def test_implicit_solve_linear():
    # u - y1 - z1 over (y1, z1, u)
    ryz = Ring(QQ, ("y1", "z1"))
    g = poly(ryz.extend(("u",)), {(0, 0, 1): 1, (1, 0, 0): -1, (0, 1, 0): -1})
    out = implicit_solve(g, 4)
    assert out.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_implicit_solve_resubstitution():
    # u + y1 u^2 - z1 = 0
    ryz = Ring(QQ, ("y1", "z1"))
    big = ryz.extend(("u",))
    g = poly(big, {(0, 0, 1): 1, (1, 0, 2): 1, (0, 1, 0): -1})
    out = implicit_solve(g, 4)
    assert out.constant_term() == 0
    ys = ryz.variable_series(0, 4)
    zs = ryz.variable_series(1, 4)
    residual = substitute(g, [ys, zs, out])
    assert all(total_degree(e) >= 4 for e in residual.terms)


def test_implicit_solve_reversion():
    ry = Ring(QQ, ("y1",))
    g = poly(ry.extend(("u",)), {(0, 2): 1, (0, 1): 1, (1, 0): -1})  # u^2 + u - y1
    out = implicit_solve(g, 4)
    assert out.terms == reversion_of_t_plus_t2(4)
    assert out.terms == {(1,): 1, (2,): -1, (3,): 2}


def test_implicit_solve_rejects_non_simple_root():
    ry = Ring(QQ, ("y1",))
    g = poly(ry.extend(("u",)), {(0, 2): 1, (1, 0): -1})  # u^2 - y1
    with pytest.raises(NotSimpleRoot):
        implicit_solve(g, 3)


def _reference_lift(code, c):
    """Newton iteration that inverts F_u(f) at the full doubled order each step."""
    ring = code.ring
    F = code.poly
    Fu = F.derivative(code.unknown_index)
    f = TruncatedSeries.const(ring, code.seed, 1)
    steps = 0
    while f.known_order < c:
        target = min(2 * f.known_order, c)
        cand = TruncatedSeries(ring, f.terms, target)
        images = [ring.variable_series(i, target) for i in range(ring.nvars)] + [cand]
        corr = substitute(F, images) * substitute(Fu, images).invert()
        f = TruncatedSeries(ring, (cand - corr).terms, target)
        steps += 1
    return f, steps


@pytest.mark.parametrize("field,nx,c", [(QQ, 2, 24), (PrimeField(2**31 - 1), 1, 64)])
def test_cubic_lift_matches_full_precision_newton(field, nx, c):
    # u^3 - 2u + 1 + (x terms), seed 1: F(0, 1) = 0 and F_u(0, 1) = 1
    ring = Ring(field, ("x1", "x2")[:nx])
    big = ring.extend(("u",))
    z = (0,) * nx
    terms = {z + (3,): 1, z + (1,): -2, z + (0,): 1}
    for i in range(nx):
        e = tuple(int(j == i) for j in range(nx))
        terms[e + (0,)] = i - 1
        terms[e + (2,)] = 2
        terms[tuple(2 * k for k in e) + (1,)] = 3
    code = HenselCode(ring, Polynomial(big, {e: field(v) for e, v in terms.items()}), 1)
    assert lift_with_steps(code, c) == _reference_lift(code, c)
