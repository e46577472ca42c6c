"""Module intersections, idealization routes, syzygies, shift functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncas.errors import TruncasError
from truncas.fields import QQ, PrimeField
from truncas.groebner import PolyIdeal, eliminate_ideal, mod_leading
from truncas.modules import (
    ModuleOrder,
    PolyModule,
    chevalley_beta,
    module_buchberger,
    module_contains,
    module_intersect_zero_block,
    module_intersection,
    nagata_idealize,
    nagata_route_zero_block,
    syzygies,
    vec_to_elem,
)
from truncas.series import Polynomial, Ring

from oracles import ideals_equal, modules_equal, per_beta_chevalley_truncated

RX = Ring(QQ, ("x1",))
R2 = Ring(QQ, ("x1", "x2"))
RXY = Ring(QQ, ("x1", "y"), nx=1)


def poly(ring, terms):
    return Polynomial(ring, {e: Fraction(c) for e, c in terms.items()})


def test_intersect_zero_block_forces_zero():
    # M = span{(y, x1)}: y a = 0 forces a = 0
    M = PolyModule(RXY, 2, [[RXY.variable(1), RXY.variable(0)]])
    assert module_intersect_zero_block(M, 1).is_zero()


def test_intersect_zero_block_coprime_leads_across_components():
    # lead terms x1*e0 and y*e0 are coprime, yet the s-vector (0, y) is no
    # consequence of them: the product criterion must not fire for rank > 1
    x, y = RXY.variable(0), RXY.variable(1)
    one, zero = Polynomial.const(RXY, 1), Polynomial.zero(RXY)
    M = PolyModule(RXY, 2, [[x, one], [y, zero]])
    assert module_intersect_zero_block(M, 1).gens == [[y]]


def test_intersect_zero_block_syzygy():
    x = RX.variable(0)
    one = Polynomial.const(RX, 1)
    zero = Polynomial.zero(RX)
    M = PolyModule(RX, 2, [[x, one], [zero, x]])
    result = module_intersect_zero_block(M, 1)
    assert modules_equal(result, PolyModule(RX, 1, [[x]]))


def test_intersect_zero_block_full_ring():
    one = Polynomial.const(RX, 1)
    zero = Polynomial.zero(RX)
    M = PolyModule(RX, 2, [[zero, one]])
    result = module_intersect_zero_block(M, 1)
    assert modules_equal(result, PolyModule(RX, 1, [[one]]))


def test_module_intersection_tag_construction():
    x = RX.variable(0)
    one = Polynomial.const(RX, 1)
    A = PolyModule(RX, 1, [[x]])
    B = PolyModule(RX, 1, [[x * x]])
    meet = module_intersection(A, B)
    assert modules_equal(meet, B)
    # intersection with the full module gives back A
    full = PolyModule(RX, 1, [[one]])
    assert modules_equal(module_intersection(A, full), A)


def test_nagata_idealize_generators():
    M = PolyModule(RXY, 2, [[RXY.variable(1), RXY.variable(0)]])
    ideal = nagata_idealize(M, 1)
    assert ideal.ring.names == ("x1", "y", "z1", "w1")
    texts = sorted(repr(g) for g in ideal.gens)
    assert texts == sorted(["x1*w1 + y*z1", "z1^2", "z1*w1", "w1^2"])


def test_nagata_route_matches_direct_intersection():
    cases = []
    x = RX.variable(0)
    one = Polynomial.const(RX, 1)
    zero = Polynomial.zero(RX)
    cases.append((PolyModule(RX, 2, [[x, one], [zero, x]]), 1))
    cases.append((PolyModule(RX, 2, [[zero, one]]), 1))
    cases.append((PolyModule(RX, 2, [[x, x * x]]), 1))
    a = R2.variable(0)
    b = R2.variable(1)
    one2 = Polynomial.const(R2, 1)
    zero2 = Polynomial.zero(R2)
    cases.append((PolyModule(R2, 2, [[a, b]]), 1))
    cases.append((PolyModule(R2, 3, [[a, b, one2], [zero2, a, b]]), 2))
    for M, p in cases:
        route = nagata_route_zero_block(M, p)
        direct = module_intersect_zero_block(M, p)
        assert modules_equal(route, direct)


def test_nagata_route_zero_for_mixed_ring_example():
    M = PolyModule(RXY, 2, [[RXY.variable(1), RXY.variable(0)]])
    assert nagata_route_zero_block(M, 1).is_zero()
    assert module_intersect_zero_block(M, 1).is_zero()


def test_nagata_rank_one_reduces_to_ideal_elimination():
    # p = 0: idealization of an ideal reproduces its elimination ideal
    I = PolyIdeal(RXY, [poly(RXY, {(0, 1): 1, (1, 0): -1}), poly(RXY, {(0, 2): 1})])
    M = PolyModule(RXY, 1, [[g] for g in I.gens])
    route = nagata_route_zero_block(M, 0)
    elim = eliminate_ideal(I)
    route_ideal = PolyIdeal(Ring(QQ, ("x1",)), [vec[0] for vec in route.gens])
    assert ideals_equal(route_ideal, elim)


def test_syzygies_koszul():
    a = R2.variable(0)
    b = R2.variable(1)
    S = syzygies([[a, b]])
    assert modules_equal(S, PolyModule(R2, 2, [[b, -a]]))


def test_syzygies_trivial_cases():
    a = R2.variable(0)
    S = syzygies([[a, -a]])
    one = Polynomial.const(R2, 1)
    assert modules_equal(S, PolyModule(R2, 2, [[one, one]]))
    assert syzygies([[Polynomial.const(R2, 1)]]).is_zero()


def test_syzygies_verified_exactly():
    rng = random.Random(71)
    for _ in range(5):
        T = [
            [
                Polynomial(
                    R2,
                    {
                        e: Fraction(rng.randint(-2, 2))
                        for e in [(0, 0), (1, 0), (0, 1), (1, 1)]
                        if rng.random() < 0.6
                    },
                )
                for _ in range(3)
            ]
            for _ in range(2)
        ]
        S = syzygies(T)
        for vec in S.gens:
            for r in range(2):
                acc = Polynomial.zero(R2)
                for j in range(3):
                    acc = acc + T[r][j] * vec[j]
                assert acc.is_zero()


# ---------------------------------------------------------------------------
# shift function


def test_chevalley_exact_principal():
    M = PolyModule(RX, 1, [[RX.variable(0)]])
    for c in range(1, 11):
        assert chevalley_beta(M, 1, c, "exact").beta == c


def test_chevalley_exact_two_block():
    M = PolyModule(R2, 2, [[R2.variable(0), R2.variable(1)]])
    for c in range(1, 8):
        assert chevalley_beta(M, 1, c, "exact").beta == c


def test_chevalley_zero_module():
    M = PolyModule(RX, 1, [])
    for c in (1, 2, 5):
        assert chevalley_beta(M, 1, c, "exact").beta == 0
        assert chevalley_beta(M, 1, c, "truncated").beta == 0


def test_chevalley_degenerate_back_block():
    # M entirely inside the back block: shift 0 at every c
    one = Polynomial.const(RX, 1)
    zero = Polynomial.zero(RX)
    M = PolyModule(RX, 2, [[zero, one]])
    for c in (1, 3):
        assert chevalley_beta(M, 1, c, "exact").beta == 0


def test_chevalley_monotone_and_truncated_agrees():
    M1 = PolyModule(RX, 1, [[RX.variable(0)]])
    M2 = PolyModule(R2, 2, [[R2.variable(0), R2.variable(1)]])
    for M, p in ((M1, 1), (M2, 1)):
        prev = 0
        for c in range(1, 8):
            exact = chevalley_beta(M, p, c, "exact").beta
            assert exact >= prev
            prev = exact
            trunc = chevalley_beta(M, p, c, "truncated", working_order=c + 4)
            assert trunc.beta == exact
            assert trunc.working_order == c + 4


def test_chevalley_truncated_below_exact_and_stabilizes():
    # mixed module where the front block needs a genuine shift
    x = RX.variable(0)
    one = Polynomial.const(RX, 1)
    zero = Polynomial.zero(RX)
    M = PolyModule(RX, 2, [[x * x, one], [zero, x]])
    for c in range(1, 5):
        exact = chevalley_beta(M, 1, c, "exact").beta
        values = [
            chevalley_beta(M, 1, c, "truncated", working_order=D).beta
            for D in range(c + 1, c + 7)
        ]
        assert all(v <= exact for v in values)
        assert values[-1] == exact and values[-2] == exact


def test_chevalley_truncated_refuses_working_order_below_c():
    M = PolyModule(RX, 1, [[RX.variable(0)]])
    assert chevalley_beta(M, 1, 3, "truncated", working_order=3).beta == 3
    with pytest.raises(TruncasError, match="working order must be at least"):
        chevalley_beta(M, 1, 3, "truncated", working_order=2)


@pytest.mark.parametrize("mode", ["exact", "truncated"])
@pytest.mark.parametrize("p", [-1, 3])
def test_chevalley_refuses_block_sizes_out_of_range(mode, p):
    M = PolyModule(R2, 2, [[R2.variable(0), R2.variable(1)]])
    with pytest.raises(TruncasError, match="invalid block sizes"):
        chevalley_beta(M, p, 2, mode)


@st.composite
def shift_problems(draw):
    """(module, p, c, D): up to 3 generators of sparse entries of degree <= 6.

    Sizes come from ``sampled_from``, largest first: derandomized integer
    draws cluster at their lower bound, where D = c and p = 0 decide little,
    and a wrong front ranking shows only with p >= 2.
    """
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(2**31 - 1)]))
    n = draw(st.sampled_from([3, 2, 1]))
    ring = Ring(field, tuple(f"x{k}" for k in range(1, n + 1)))
    rank = draw(st.sampled_from([3, 2, 1]))
    exponent = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field)
    terms = st.one_of(st.dictionaries(exponent, coeff, min_size=1, max_size=3), st.just({}))
    entry = terms.map(lambda t: Polynomial(ring, t))
    vector = st.lists(entry, min_size=rank, max_size=rank)
    gens = [draw(vector) for _ in range(draw(st.integers(0, 3)))]
    c = draw(st.sampled_from([4, 3, 2, 1]))
    p = draw(st.sampled_from(range(rank, -1, -1)))
    return PolyModule(ring, rank, gens), p, c, c + draw(st.sampled_from([4, 3, 2, 1, 0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shift_problems())
def test_chevalley_truncated_matches_per_beta_intersections(problem):
    M, p, c, D = problem
    res = chevalley_beta(M, p, c, "truncated", working_order=D)
    assert (res.beta, res.working_order) == (per_beta_chevalley_truncated(M, p, c, D), D)


def test_module_buchberger_reduces_own_spairs():
    order = ModuleOrder()
    x = R2.variable(0)
    y = R2.variable(1)
    one = Polynomial.const(R2, 1)
    gens = [
        vec_to_elem([x, y]),
        vec_to_elem([y, x]),
        vec_to_elem([x * y, one]),
    ]
    gb = module_buchberger(gens, order)
    for g in gens:
        assert module_contains(gb, order, g)


def test_nagata_idealize_zero_module():
    M = PolyModule(RX, 2, [])
    ideal = nagata_idealize(M, 1)
    # only the quadratic slack monomials remain
    assert sorted(repr(g) for g in ideal.gens) == sorted(["z1^2", "z1*w1", "w1^2"])


def test_module_buchberger_criterion_randomized():
    # every same-component s-vector of an emitted basis reduces to zero
    rng = random.Random(303)
    order = ModuleOrder()
    from truncas.modules import mod_normal_form
    from truncas.series import exp_lcm as _lcm, exp_sub as _sub, exp_add as _add

    for trial in range(8):
        gens = []
        for _ in range(3):
            vec = []
            for _ in range(2):
                terms = {}
                for e in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
                    if rng.random() < 0.45:
                        terms[e] = Fraction(rng.randint(-2, 2))
                vec.append(Polynomial(R2, terms))
            if any(not p.is_zero() for p in vec):
                gens.append(vec_to_elem(vec))
        if not gens:
            continue
        gb = module_buchberger(gens, order)
        for i in range(len(gb)):
            for j in range(i):
                (ci, ei), (cj, ej) = (
                    mod_leading(gb[i], order)[0],
                    mod_leading(gb[j], order)[0],
                )
                if ci != cj:
                    continue
                lcm = _lcm(ei, ej)
                s = {}
                lci = gb[i][(ci, ei)]
                lcj = gb[j][(cj, ej)]
                for (comp, e), v in gb[i].items():
                    s[(comp, _add(e, _sub(lcm, ei)))] = v / lci
                for (comp, e), v in gb[j].items():
                    key = (comp, _add(e, _sub(lcm, ej)))
                    cur = s.get(key)
                    nxt = -v / lcj if cur is None else cur - v / lcj
                    if nxt:
                        s[key] = nxt
                    elif cur is not None:
                        del s[key]
                assert not mod_normal_form(s, gb, order)
        # the basis still generates the input
        for g in gens:
            assert module_contains(gb, order, g)


def test_module_intersection_is_contained_and_idempotent():
    rng = random.Random(505)
    order = ModuleOrder()
    for trial in range(6):
        def rand_module():
            gens = []
            for _ in range(rng.randint(1, 2)):
                vec = []
                for _ in range(2):
                    terms = {}
                    for e in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                        if rng.random() < 0.5:
                            terms[e] = Fraction(rng.randint(-2, 2))
                    vec.append(Polynomial(R2, terms))
                gens.append(vec)
            return PolyModule(R2, 2, gens)

        A = rand_module()
        B = rand_module()
        meet = module_intersection(A, B)
        gb_a = module_buchberger([vec_to_elem(v) for v in A.gens], order)
        gb_b = module_buchberger([vec_to_elem(v) for v in B.gens], order)
        for vec in meet.gens:
            elem = vec_to_elem(vec)
            assert module_contains(gb_a, order, elem)
            assert module_contains(gb_b, order, elem)
        assert modules_equal(module_intersection(A, A), A)


def test_module_intersection_with_zero():
    A = PolyModule(R2, 2, [[R2.variable(0), R2.variable(1)]])
    Z = PolyModule(R2, 2, [])
    assert module_intersection(A, Z).is_zero()


def test_chevalley_p_zero_is_degenerate():
    # no front block: everything is already in the front-zero part
    M = PolyModule(RX, 1, [[RX.variable(0)]])
    for c in (1, 3):
        assert chevalley_beta(M, 0, c, "exact").beta == 0


def test_module_routes_over_prime_field():
    F7 = PrimeField(7)
    R = Ring(F7, ("x1", "x2"))
    a, b = R.variable(0), R.variable(1)
    three = Polynomial.const(R, 3)
    S = syzygies([[a, three * b]])
    assert modules_equal(S, PolyModule(R, 2, [[three * b, -a]]))
    A = PolyModule(R, 2, [[a, b], [b * b, three]])
    B = PolyModule(R, 2, [[three * a, three * b], [a * b, a]])
    meet = module_intersection(A, B)
    assert not meet.is_zero()
    assert modules_equal(module_intersection(A, A), A)
    order = ModuleOrder()
    gbs = [module_buchberger([vec_to_elem(v) for v in M.gens], order)
           for M in (S, A, B, meet)]
    for gb in gbs:
        assert all(mod_leading(g, order)[1] == F7.one for g in gb)
    for vec in meet.gens:
        assert module_contains(gbs[1], order, vec_to_elem(vec))
        assert module_contains(gbs[2], order, vec_to_elem(vec))
