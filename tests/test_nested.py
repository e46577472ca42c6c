"""Nested truncated solving, homogenization, division, implicit linearization."""

import random
from fractions import Fraction

import pytest

from truncas.errors import (
    NonUnit,
    NotRegular,
    NotTransverse,
    PrecisionTooLow,
    TargetNotSolution,
)
from truncas.fields import QQ, PrimeField
from truncas.hensel import HenselCode, lift
from truncas.modules import syzygies
from truncas.nested import (
    NestedLinearSystem,
    NestedProfile,
    approximate,
    division_working_order,
    homogenize,
    implicit_linear,
    recover_from_homogeneous,
    regularity_order,
    residual,
    solve_nested,
    weierstrass_divide,
)
from truncas.series import (
    Polynomial,
    Ring,
    TruncatedSeries,
    iter_exponents,
    substitute,
    total_degree,
)

from oracles import DenseNestedOracle, is_solution, residual_free

R2 = Ring(QQ, ("x1", "x2"))
R3 = Ring(QQ, ("x1", "x2", "x3"))


def series(ring, terms, order):
    return TruncatedSeries(ring, {e: Fraction(c) for e, c in terms.items()}, order)


def one(ring, order):
    return TruncatedSeries.const(ring, 1, order)


def split_system(c=4):
    x1 = R2.variable_series(0, c)
    x2 = R2.variable_series(1, c)
    return NestedLinearSystem([[one(R2, c), one(R2, c)]], [x1 + x2], NestedProfile((1, 2)), c)


def test_split_by_variable():
    sys_ = split_system()
    sol = solve_nested(sys_)
    assert sol.solvable
    assert is_solution(sys_, sol.particular)
    # the affine set contains (x1, x2)
    want = [R2.variable_series(0, 4), R2.variable_series(1, 4)]
    assert is_solution(sys_, want)
    # nullspace consists of (-g(x1), g(x1)) profiles
    for vec in sol.nullspace_basis:
        assert vec[0].nested_support_ok(1)
        assert (vec[0] + vec[1]).is_zero()


def test_unsolvable_with_obstruction_degree():
    sys_ = NestedLinearSystem(
        [[one(R2, 2)]], [R2.variable_series(1, 2)], NestedProfile((1,)), 2
    )
    sol = solve_nested(sys_)
    assert not sol.solvable
    assert sol.obstruction_degree == 1


def test_implicit_function_equation_system():
    # f y2 + x2 - y1 = 0 with f = x2 - x1: unique solution (x1, -1) below deg 4
    c = 5
    f = R2.variable_series(1, c) - R2.variable_series(0, c)
    sys_ = NestedLinearSystem(
        [[one(R2, c).scale(-1), f]],
        [R2.variable_series(1, c).scale(-1)],
        NestedProfile((1, 2)),
        c,
    )
    sol = solve_nested(sys_)
    assert sol.solvable
    assert is_solution(sys_, sol.particular)
    want = [R2.variable_series(0, c), one(R2, c).scale(-1)]
    assert is_solution(sys_, want)
    # every truncated solution agrees with (x1, -1) below degree 4
    for vec in sol.nullspace_basis:
        for comp in vec:
            assert all(total_degree(e) >= 4 for e in comp.terms)
    diff0 = sol.particular[0] - want[0]
    diff1 = sol.particular[1] - want[1]
    assert all(total_degree(e) >= 4 for e in diff0.terms)
    assert all(total_degree(e) >= 4 for e in diff1.terms)


def test_precision_too_low():
    with pytest.raises(PrecisionTooLow):
        NestedLinearSystem([[one(R2, 2)]], [one(R2, 2)], NestedProfile((1,)), 4)


def random_system(rng, ring, m, p, c, hensel_entry=False):
    def rand_entry(order):
        terms = {}
        for e in iter_exponents(ring.nvars, 3):
            if rng.random() < 0.5:
                terms[e] = Fraction(rng.randint(-3, 3))
        return TruncatedSeries(ring, terms, order)

    T = [[rand_entry(c) for _ in range(m)] for _ in range(p)]
    b = [rand_entry(c) for _ in range(p)]
    sigma = tuple(rng.randint(1, ring.nvars) for _ in range(m))
    return NestedLinearSystem(T, b, NestedProfile(sigma), c)


def test_dense_oracle_agreement():
    rng = random.Random(101)
    for trial in range(12):
        ring = R2 if trial % 2 else R3
        sys_ = random_system(rng, ring, rng.randint(1, 3), rng.randint(1, 2), 4)
        sol = solve_nested(sys_)
        oracle = DenseNestedOracle(sys_.T, sys_.b, sys_.profile.sigma, sys_.c)
        solvable, nullity, particular = oracle.analyze()
        assert sol.solvable == solvable
        if solvable:
            assert len(sol.nullspace_basis) == nullity
            assert is_solution(sys_, sol.particular)
            vec = oracle.particular_as_series(particular, sys_.c)
            assert residual_free(sys_.T, sys_.b, vec, sys_.c)


def test_downward_consistency():
    rng = random.Random(55)
    for _ in range(6):
        sys_ = random_system(rng, R2, 2, 2, 5)
        sol = solve_nested(sys_)
        if not sol.solvable:
            continue
        low = NestedLinearSystem(sys_.T, sys_.b, sys_.profile, 3)
        truncated = [comp.truncate(3) for comp in sol.particular]
        assert is_solution(low, truncated)


def test_homogenize_shape():
    sys_ = split_system()
    hom = homogenize(sys_)
    assert hom.profile.sigma == (1, 1, 2)
    assert hom.m == 3
    assert all(e.is_zero() for e in hom.b)
    # leading column is -b
    assert (hom.T[0][0] + sys_.b[0]).is_zero()


def test_homogenize_of_homogeneous_appends_free_unknown():
    c = 3
    sys_ = NestedLinearSystem(
        [[one(R2, c)]], [TruncatedSeries.zero(R2, c)], NestedProfile((2,)), c
    )
    hom = homogenize(sys_)
    sol = solve_nested(hom)
    assert sol.solvable
    # y0 is unconstrained: some nullspace vector moves it
    assert any(not vec[0].is_zero() for vec in sol.nullspace_basis)


def pin_component(sys_, comp, value_series):
    pins = {}
    bound = sys_.profile.sigma[comp]
    for alpha in iter_exponents(bound, sys_.c):
        full = alpha + (0,) * (sys_.ring.nvars - bound)
        pins[(comp, full)] = value_series.coefficient(full)
    return pins


def test_homogenize_solve_recover_pipeline():
    sys_ = split_system()
    hom = homogenize(sys_)
    pins = pin_component(hom, 0, one(R2, sys_.c))
    sol = solve_nested(hom, pins=pins)
    assert sol.solvable
    recovered = recover_from_homogeneous(sol, sys_.c)
    assert is_solution(sys_, recovered)


def test_recover_divides_by_unit():
    c = 4
    y0 = one(R2, c) + R2.variable_series(0, c)
    y1 = R2.variable_series(0, c) * y0
    y1 = TruncatedSeries(R2, y1.terms, c)
    from truncas.nested import SolutionSet

    sol = SolutionSet("solvable", None, [y0, y1], [], c)
    out = recover_from_homogeneous(sol, c)
    assert out[0] == R2.variable_series(0, c)


def test_recover_nonunit():
    from truncas.nested import SolutionSet

    sol = SolutionSet("solvable", None, [R2.variable_series(0, 3)], [], 3)
    with pytest.raises(NonUnit):
        recover_from_homogeneous(sol, 3)


def test_approximate_returns_target_when_orders_match():
    sys_ = split_system()
    target = [R2.variable_series(0, 4), R2.variable_series(1, 4)]
    sol = approximate(sys_, target)
    assert sol.solvable
    assert sol.particular[0] == target[0]
    assert sol.particular[1] == target[1]


def test_approximate_pins_low_degrees():
    c = 2
    x1 = R2.variable_series(0, 5)
    x2 = R2.variable_series(1, 5)
    work = NestedLinearSystem(
        [[one(R2, 5), one(R2, 5)]], [x1 + x2], NestedProfile((1, 2)), c
    )
    cube = TruncatedSeries(R2, {(3, 0): Fraction(1)}, 5)
    target = [x1 + cube, x2 - cube]
    sol = approximate(work, target)
    assert sol.solvable and sol.validity_order == 5
    for i in range(2):
        diff = sol.particular[i] - target[i]
        assert all(total_degree(e) >= c for e in diff.terms)
    assert residual_free(
        [[one(R2, 5), one(R2, 5)]], [x1 + x2], sol.particular, 5
    )


def test_approximate_rejects_non_solution():
    sys_ = split_system()
    bad = [R2.variable_series(0, 4), R2.variable_series(0, 4)]
    with pytest.raises(TargetNotSolution):
        approximate(sys_, bad)


def test_nullspace_contains_truncated_syzygies():
    # full-profile homogeneous system: syzygy columns are truncated solutions
    c = 5
    x1 = Polynomial(R2, {(1, 0): Fraction(1)})
    x2 = Polynomial(R2, {(0, 1): Fraction(1)})
    T = [[x1, x2]]
    sys_ = NestedLinearSystem(
        [[x1.as_series(c), x2.as_series(c)]],
        [TruncatedSeries.zero(R2, c)],
        NestedProfile((2, 2)),
        c,
    )
    sol = solve_nested(sys_)
    syz = syzygies(T)
    from truncas.linalg import RowReducer

    cols = {}
    for i in range(2):
        for e in iter_exponents(2, c):
            cols[(i, e)] = len(cols)
    red = RowReducer(QQ)
    for vec in sol.nullspace_basis:
        row = {}
        for i, comp in enumerate(vec):
            for e, v in comp.terms.items():
                row[cols[(i, e)]] = v
        red.add(row)
    for svec in syz.gens:
        row = {}
        for i, p in enumerate(svec):
            for e, v in p.terms.items():
                if total_degree(e) < c:
                    row[cols[(i, e)]] = v
        assert red.member(row)


def test_prime_field_system():
    F5 = PrimeField(5)
    R = Ring(F5, ("x1", "x2"))
    c = 3
    onef = TruncatedSeries.const(R, 1, c)
    rhs = R.variable_series(0, c) + R.variable_series(1, c)
    sys_ = NestedLinearSystem([[onef, onef]], [rhs], NestedProfile((1, 2)), c)
    sol = solve_nested(sys_)
    assert sol.solvable
    assert is_solution(sys_, sol.particular)


# ---------------------------------------------------------------------------
# division


def test_regularity_order_detection():
    c = 8
    f = series(R2, {(0, 2): 1, (1, 0): -1}, c)  # x2^2 - x1: d = 2
    assert regularity_order(f) == 2
    g = series(R2, {(1, 1): 1}, c)  # x1 x2 only: no pure x2 term
    with pytest.raises(NotRegular):
        regularity_order(g)


@pytest.mark.parametrize(
    "f_terms,g_terms,c,q_terms,a_list",
    [
        # x2 = (x2 - x1)*1 + x1
        ({(0, 1): 1, (1, 0): -1}, {(0, 1): 1}, 6, {(0, 0): 1}, [{(1,): 1}]),
        # x2^3 = (x2^2 - x1)*x2 + 0 + x1*x2
        ({(0, 2): 1, (1, 0): -1}, {(0, 3): 1}, 6, {(0, 1): 1}, [{}, {(1,): 1}]),
    ],
)
def test_weierstrass_examples(f_terms, g_terms, c, q_terms, a_list):
    d = max(e[1] for e in f_terms if e[0] == 0)
    w = division_working_order(c, d)
    f = series(R2, f_terms, w)
    g = series(R2, g_terms, w)
    q, remainders = weierstrass_divide(f, g, c)
    assert q.terms == {e: Fraction(v) for e, v in q_terms.items()}
    assert len(remainders) == len(a_list)
    for rem, want in zip(remainders, a_list):
        assert rem.terms == {e: Fraction(v) for e, v in want.items()}


def test_weierstrass_monomial_divisor():
    # f = x2: q = (g - g(x1, 0)) / x2, a0 = g(x1, 0)
    c = 5
    w = division_working_order(c, 1)
    f = series(R2, {(0, 1): 1}, w)
    g = series(R2, {(0, 0): 3, (1, 0): 1, (1, 1): 2, (0, 2): 1}, w)
    q, (a0,) = weierstrass_divide(f, g, c)
    assert a0.terms == {(0,): Fraction(3), (1,): Fraction(1)}
    assert q.terms == {(1, 0): Fraction(2), (0, 1): Fraction(1)}


def test_weierstrass_residual_and_uniqueness():
    rng = random.Random(91)
    c = 6
    for trial in range(5):
        d = rng.randint(1, 2)
        w = division_working_order(c, d)
        f_terms = {(0, d): Fraction(1)}
        for e in iter_exponents(2, 4):
            if e != (0, d) and rng.random() < 0.4:
                coeff = Fraction(rng.randint(-3, 3))
                if coeff and (total_degree(e) > 0 or coeff != 0):
                    if total_degree(e) == 0:
                        continue  # keep f(0) = 0 so d stays the regularity order
                    if e[0] == 0 and e[1] < d:
                        continue
                    f_terms[e] = coeff
        g_terms = {
            e: Fraction(rng.randint(-4, 4))
            for e in iter_exponents(2, 5)
            if rng.random() < 0.5
        }
        f = TruncatedSeries(R2, f_terms, w)
        g = TruncatedSeries(R2, g_terms, w)
        if not g.terms:
            continue
        q, rems = weierstrass_divide(f, g, c)
        q2, rems2 = weierstrass_divide(f, g, c, column_shuffle_seed=trial + 1)
        assert q == q2 and rems == rems2
        # residual below c vanishes
        acc = g.scale(-1) + f * q
        for k, a in enumerate(rems):
            lifted = TruncatedSeries(
                R2, {e + (k,): v for e, v in a.terms.items()}, a.known_order
            )
            acc = acc + lifted
        assert all(total_degree(e) >= c for e in acc.terms)


def test_weierstrass_precision_requirement():
    f = series(R2, {(0, 2): 1, (1, 0): -1}, 7)
    g = series(R2, {(0, 3): 1}, 7)
    with pytest.raises(PrecisionTooLow):
        weierstrass_divide(f, g, 6)


def test_implicit_linear_examples():
    c = 5
    w = division_working_order(c, 1)
    f1 = R2.variable_series(1, w) - R2.variable_series(0, w)
    h, u = implicit_linear(f1, c)
    assert h.terms == {(1,): Fraction(1)}
    assert u.terms == {(0, 0): Fraction(-1)}

    f2 = R2.variable_series(1, w)
    h2, u2 = implicit_linear(f2, c)
    assert h2.is_zero()
    assert u2.terms == {(0, 0): Fraction(-1)}

    x1 = R2.variable_series(0, w)
    f3 = R2.variable_series(1, w) - x1 * x1
    f3 = TruncatedSeries(R2, f3.terms, w)
    h3, u3 = implicit_linear(f3, c)
    assert h3.terms == {(2,): Fraction(1)}
    assert u3.terms == {(0, 0): Fraction(-1)}


def test_implicit_linear_matches_hensel_route():
    # f = x2 + x1 x2 - x1: solve f(x1, h(x1)) = 0 for h via a Hensel code
    c = 6
    w = division_working_order(c, 1)
    f = series(R2, {(0, 1): 1, (1, 1): 1, (1, 0): -1}, w)
    h, u = implicit_linear(f, c)
    rx = Ring(QQ, ("x1",))
    code_poly = Polynomial(
        rx.extend(("u",)), {(0, 1): Fraction(1), (1, 1): Fraction(1), (1, 0): Fraction(-1)}
    )
    code = HenselCode(rx, code_poly, 0)
    assert lift(code, c) == h
    # residual check: f*u + x2 - h == 0 below c
    lifted_h = TruncatedSeries(R2, {e + (0,): v for e, v in h.terms.items()}, c)
    res = f.truncate(c) * u + R2.variable_series(1, c) - lifted_h
    assert all(total_degree(e) >= c for e in res.terms)


def test_implicit_linear_rejects_tangent():
    f = series(R2, {(1, 0): 1}, 6)  # no x2 direction
    with pytest.raises(NotTransverse):
        implicit_linear(f, 4)
    g = series(R2, {(0, 0): 1, (0, 1): 1}, 6)
    with pytest.raises(NotTransverse):
        implicit_linear(g, 4)


def test_homogenize_literal_example():
    # T = [1], b = [x1] becomes T' = [-x1, 1], b' = [0]
    c = 3
    sys_ = NestedLinearSystem(
        [[one(R2, c)]], [R2.variable_series(0, c)], NestedProfile((1,)), c
    )
    hom = homogenize(sys_)
    assert hom.T[0][0] == R2.variable_series(0, c).scale(-1)
    assert hom.T[0][1] == one(R2, c)
    assert hom.b[0].is_zero()


def test_direct_solution_extends_homogeneously():
    sys_ = split_system()
    sol = solve_nested(sys_)
    hom = homogenize(sys_)
    extended = [one(R2, sys_.c)] + sol.particular
    assert is_solution(hom, extended)


def test_profile_permutation_identity():
    profile = NestedProfile((2, 1, 2, 1))
    perm = profile.permutation()
    assert sorted(perm) == [0, 1, 2, 3]
    values = [profile.sigma[i] for i in perm]
    assert values == sorted(values)
    # applying then inverting is the identity
    inverse = [0] * len(perm)
    for pos, idx in enumerate(perm):
        inverse[idx] = pos
    data = ["a", "b", "c", "d"]
    permuted = [data[i] for i in perm]
    assert [permuted[inverse[i]] for i in range(4)] == data


def test_constant_only_unknown():
    # sigma entry 0 restricts the unknown to constants
    c = 3
    sys_ = NestedLinearSystem(
        [[one(R2, c)]], [one(R2, c)], NestedProfile((0,)), c
    )
    sol = solve_nested(sys_)
    assert sol.solvable
    assert sol.particular[0] == one(R2, c)
    assert sol.nullspace_basis == []
    bad = NestedLinearSystem(
        [[one(R2, c)]], [one(R2, c) + R2.variable_series(0, c)], NestedProfile((0,)), c
    )
    sol2 = solve_nested(bad)
    assert not sol2.solvable and sol2.obstruction_degree == 1


def test_weierstrass_univariate():
    R1 = Ring(QQ, ("x1",))
    c = 4
    w = division_working_order(c, 2)
    x = R1.variable_series(0, w)
    f = x * x + x * x * x  # x^2 (1 + x): regular of order 2
    f = TruncatedSeries(R1, f.terms, w)
    g = TruncatedSeries(R1, {(3,): Fraction(1), (0,): Fraction(1)}, w)
    q, (a0, a1) = weierstrass_divide(f, g, c)
    # remainders are constants over the empty leading block
    assert a0.ring.nvars == 0 and a1.ring.nvars == 0
    assert a0.terms == {(): Fraction(1)}
    # residual check below c
    acc = g.scale(-1) + f * q
    acc = acc + TruncatedSeries(R1, {(0,): a0.coefficient(())}, c)
    acc = acc + TruncatedSeries(R1, {(1,): a1.coefficient(())}, c)
    assert all(total_degree(e) >= c for e in acc.terms)


def test_obstruction_at_degree_zero():
    c = 3
    sys_ = NestedLinearSystem(
        [[R2.variable_series(0, c)]], [one(R2, c)], NestedProfile((2,)), c
    )
    sol = solve_nested(sys_)
    assert not sol.solvable and sol.obstruction_degree == 0


def layered_division_oracle(f, g, c, d):
    """Textbook constructive division for n = 2, written independently.

    Everything is lists of x2-coefficients per x1-layer; each layer's
    quotient comes from dividing the accumulated dividend by the unit part
    of f(0, x2) after stripping x2^d.
    """
    height = f.known_order  # generous common height for all layers

    def layer(series, k):
        return [series.coefficient((k, j)) for j in range(height)]

    def u_mul(a, b):
        out = [Fraction(0)] * height
        for i, av in enumerate(a):
            if not av:
                continue
            for j, bv in enumerate(b):
                if i + j < height and bv:
                    out[i + j] += av * bv
        return out

    def u_sub(a, b):
        return [x - y for x, y in zip(a, b)]

    def u_inv(a):
        out = [Fraction(0)] * height
        out[0] = 1 / a[0]
        for k in range(1, height):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += a[i] * out[k - i]
            out[k] = -out[0] * acc
        return out

    f0 = layer(f, 0)
    unit = f0[d:] + [Fraction(0)] * d  # f(0,x2)/x2^d
    unit_inv = u_inv(unit)
    f_layers = [layer(f, k) for k in range(c)]
    q_layers, rem_layers = [], []
    for L in range(c):
        dividend = layer(g, L)
        for k in range(1, L + 1):
            dividend = u_sub(dividend, u_mul(f_layers[k], q_layers[L - k]))
        rem_layers.append(dividend[:d])
        shifted = dividend[d:] + [Fraction(0)] * d
        q_layers.append(u_mul(shifted, unit_inv))
    q_terms = {}
    for L in range(c):
        for j, v in enumerate(q_layers[L]):
            if v and L + j < c:
                q_terms[(L, j)] = v
    a_terms = [dict() for _ in range(d)]
    for L in range(c):
        for k in range(d):
            v = rem_layers[L][k]
            if v:
                a_terms[k][(L,)] = v
    return q_terms, a_terms


def test_weierstrass_matches_layered_oracle():
    rng = random.Random(606)
    c = 5
    for trial in range(8):
        d = rng.randint(1, 3)
        w = division_working_order(c, d)
        f_terms = {(0, d): Fraction(rng.choice([1, 2, -1]))}
        for e in iter_exponents(2, 4):
            if sum(e) == 0 or (e[0] == 0 and e[1] <= d):
                continue
            if rng.random() < 0.4:
                v = Fraction(rng.randint(-3, 3))
                if v:
                    f_terms[e] = v
        g_terms = {}
        for e in iter_exponents(2, 5):
            if rng.random() < 0.5:
                v = Fraction(rng.randint(-4, 4))
                if v:
                    g_terms[e] = v
        f = TruncatedSeries(R2, f_terms, w)
        g = TruncatedSeries(R2, g_terms, w)
        if not g.terms:
            continue
        assert regularity_order(f) == d
        q, rems = weierstrass_divide(f, g, c)
        oq, oa = layered_division_oracle(f, g, c, d)
        assert q.terms == oq
        for k in range(d):
            assert rems[k].terms == oa[k]
