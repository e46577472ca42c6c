"""Buchberger engine, elimination ideals, truncated completion comparison."""

import random
from fractions import Fraction
from functools import cmp_to_key
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncas.fields import QQ, PrimeField
from truncas.groebner import (
    GroebnerBasis,
    ModuleOrder,
    PolyIdeal,
    buchberger,
    eliminate_ideal,
    ideal_low_degree_space,
    module_buchberger,
    subspace_column_ranks,
    truncated_completion_elimination,
    truncated_multiple_rows,
    vec_to_elem,
)
from truncas.modules import module_contains
from truncas.linalg import spans_equal
from truncas.orders import GREVLEX, LEX, BlockOrder
from truncas.series import (
    Polynomial,
    Ring,
    TruncatedSeries,
    exp_lcm,
    exp_sub,
    iter_exponents,
)

from oracles import (
    ideals_equal,
    textbook_mod_normal_form,
    textbook_module_buchberger,
    textbook_truncated_multiple_rows,
)

RXY = Ring(QQ, ("x1", "y"), nx=1)
RX = Ring(QQ, ("x1",))


def poly(ring, terms):
    return Polynomial(ring, {e: Fraction(c) for e, c in terms.items()})


def test_buchberger_containment():
    g1 = poly(RX, {(2,): 1})
    g2 = poly(RX, {(1,): 1})
    gb = buchberger([g1, g2])
    assert [repr(g) for g in gb] == ["x1"]


def test_buchberger_empty():
    assert len(buchberger([])) == 0


def test_buchberger_block_order_spoly():
    # (y - x1, y^2) under y >> x1 contains x1^2
    f = poly(RXY, {(0, 1): 1, (1, 0): -1})
    g = poly(RXY, {(0, 2): 1})
    gb = buchberger([f, g], BlockOrder([1], 2))
    assert any(p == poly(RXY, {(2, 0): 1}) for p in gb)


def leading_term(p, order):
    """(exponent, coefficient) of the leading term of a nonzero polynomial."""
    exp = max(p.terms, key=order.key)
    return exp, p.terms[exp]


def _spoly(f, g, order):
    """Textbook S-polynomial lcm/lt(f) * f - lcm/lt(g) * g, for checking bases."""
    (ef, cf), (eg, cg) = leading_term(f, order), leading_term(g, order)
    lcm = exp_lcm(ef, eg)
    one = f.ring.field.one
    tf = Polynomial(f.ring, {exp_sub(lcm, ef): one / cf})
    tg = Polynomial(g.ring, {exp_sub(lcm, eg): one / cg})
    return tf * f - tg * g


def test_buchberger_criterion_every_spair_reduces():
    rng = random.Random(13)
    for trial in range(6):
        gens = []
        for _ in range(3):
            terms = {}
            for e in iter_exponents(2, 4):
                if rng.random() < 0.35:
                    terms[e] = Fraction(rng.randint(-3, 3))
            p = Polynomial(RXY, terms)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        for order in (GREVLEX, LEX, BlockOrder([1], 2)):
            gb = buchberger(gens, order)
            elems = list(gb)
            for i in range(len(elems)):
                for j in range(i):
                    s = _spoly(elems[i], elems[j], order)
                    assert gb.normal_form(s).is_zero()
            # reduced: no term of one element divisible by another's lead
            for i, p in enumerate(elems):
                for j, q in enumerate(elems):
                    if i == j:
                        continue
                    lt, _ = leading_term(q, order)
                    assert not any(
                        all(a <= b for a, b in zip(lt, e)) for e in p.terms
                    )


def test_normal_form_is_canonical_for_membership():
    f = poly(RXY, {(0, 1): 1, (1, 0): -1})
    g = poly(RXY, {(0, 2): 1})
    gb = buchberger([f, g], BlockOrder([1], 2))
    assert gb.contains(poly(RXY, {(2, 0): 1}))
    assert gb.contains(f * f + g)
    assert not gb.contains(poly(RXY, {(1, 0): 1}))


@pytest.mark.parametrize(
    "gens,expected",
    [
        ([{(0, 1): 1, (1, 0): -1}, {(0, 2): 1}], [{(2, 0): 1}]),  # (y-x1, y^2)
        ([{(1, 0): 1, (0, 2): -1}], []),  # (x1 - y^2): nothing eliminable
        ([{(1, 0): 1}], [{(1, 0): 1}]),  # (x1): already y-free
    ],
)
def test_eliminate_ideal(gens, expected):
    ideal = PolyIdeal(RXY, [poly(RXY, t) for t in gens])
    elim = eliminate_ideal(ideal)
    want = [poly(RX, {e[:1]: c for e, c in t.items()}) for t in expected]
    assert ideals_equal(elim, PolyIdeal(RX, want))


def test_eliminate_ideal_prime_field():
    F7 = PrimeField(7)
    R = Ring(F7, ("x1", "y"), nx=1)
    f = Polynomial(R, {(0, 1): F7(1), (1, 0): F7(-1)})
    g = Polynomial(R, {(0, 2): F7(1)})
    elim = eliminate_ideal(PolyIdeal(R, [f, g]))
    sub = Ring(F7, ("x1",))
    assert ideals_equal(elim, PolyIdeal(sub, [Polynomial(sub, {(2,): F7(1)})]))


def test_ideal_low_degree_space():
    # degree-below-c members of (x1^2) in one variable: x1^2, x1^3, x1^4
    ideal = PolyIdeal(RX, [poly(RX, {(2,): 1})])
    basis = ideal_low_degree_space(ideal, 5)
    rows = [{e[0]: v for e, v in b.terms.items()} for b in basis]
    want = [{2: Fraction(1)}, {3: Fraction(1)}, {4: Fraction(1)}]
    assert spans_equal(rows, want, QQ)


def test_ideal_low_degree_space_excludes_partial_truncations():
    # (x1^3 - x2^2) in two variables: x2^2 alone is not a member below degree 4
    r2 = Ring(QQ, ("x1", "x2"))
    ideal = PolyIdeal(r2, [poly(r2, {(3, 0): 1, (0, 2): -1})])
    basis = ideal_low_degree_space(ideal, 4)
    rank = {e: i for i, e in enumerate(iter_exponents(2, 4))}
    rows = [{rank[e]: v for e, v in b.terms.items()} for b in basis]
    gen_row = {rank[(3, 0)]: Fraction(1), rank[(0, 2)]: Fraction(-1)}
    assert spans_equal(rows, [gen_row], QQ)


@pytest.mark.parametrize("nx,ny", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_column_ranking_restricts_across_a_schedule(nx, ny):
    # below a smaller working order the largest order's ranking keeps the
    # relative order of a ranking built there, with the kept block last
    ring = Ring(QQ, ("x1", "x2", "y1", "y2")[: nx + ny], nx=nx)
    c, top = 3, 8
    top_rank, top_first, top_kept = subspace_column_ranks(ring, c, top)
    for cprime in range(c, top + 1):
        rank_of, first_kept, kept = subspace_column_ranks(ring, c, cprime)
        assert sorted(rank_of, key=top_rank.get) == sorted(rank_of, key=rank_of.get)
        assert {e for e, r in rank_of.items() if r >= first_kept} == {
            e for e in rank_of if top_rank[e] >= top_first
        }
        assert list(kept.values()) == list(top_kept.values())
        assert sorted(kept) == list(range(first_kept, len(rank_of)))
    assert list(top_kept.values()) == list(iter_exponents(nx, c))


@pytest.mark.parametrize(
    "gens,c,cprime,expected",
    [
        ([{(0, 1): 1, (1, 0): -1}, {(0, 2): 1}], 3, 8, [{(0,): 0, (2,): 1}]),
        ([{(1, 0): 1, (0, 2): -1}], 3, 10, []),  # zero ideal
    ],
)
def test_truncated_completion_elimination_examples(gens, c, cprime, expected):
    ideal = PolyIdeal(RXY, [poly(RXY, t) for t in gens])
    basis = truncated_completion_elimination(ideal, c, cprime)
    want = [poly(RX, t) for t in expected]
    rank = {e: i for i, e in enumerate(iter_exponents(1, c))}
    rows_a = [{rank[e]: v for e, v in b.terms.items()} for b in basis]
    rows_b = [{rank[e]: v for e, v in w.terms.items()} for w in want if not w.is_zero()]
    assert spans_equal(rows_a, rows_b, QQ)


def test_truncated_completion_elimination_unit_ideal():
    ideal = PolyIdeal(RXY, [Polynomial.const(RXY, 1)])
    basis = truncated_completion_elimination(ideal, 2, 4)
    assert len(basis) == 2  # all x-monomials below degree 2


def test_truncated_elimination_stabilizes_to_exact():
    ideal = PolyIdeal(RXY, [poly(RXY, {(0, 1): 1, (1, 0): -1}), poly(RXY, {(0, 2): 1})])
    elim = eliminate_ideal(ideal)
    for c in range(1, 6):
        rank = {e: i for i, e in enumerate(iter_exponents(1, c))}
        exact_rows = [
            {rank[e]: v for e, v in g.terms.items()}
            for g in ideal_low_degree_space(elim, c)
        ]
        prev = None
        stabilized_at = None
        for cprime in range(c, 17):
            basis = truncated_completion_elimination(ideal, c, cprime)
            rows = [{rank[e]: v for e, v in b.terms.items()} for b in basis]
            if spans_equal(rows, exact_rows, QQ):
                stabilized_at = cprime
                break
            prev = rows
        assert stabilized_at is not None


def test_block_order_front_dominates():
    # any monomial touching the front block beats every back-only monomial
    order = BlockOrder([1], 2)  # front = y
    front_touching = [(0, 1), (3, 1), (1, 2)]
    back_only = [(1, 0), (5, 0), (2, 0)]
    for ft in front_touching:
        for bo in back_only:
            assert order.key(ft) > order.key(bo)


def _grevlex_cmp(a, b):
    """Higher degree wins; at equal degree, the smaller last differing entry wins."""
    if sum(a) != sum(b):
        return sum(a) - sum(b)
    diff = [x - y for x, y in zip(a, b) if x != y]
    return -diff[-1] if diff else 0


def _lex_cmp(a, b):
    diff = [x - y for x, y in zip(a, b) if x != y]
    return diff[0] if diff else 0


def _block_cmp(front):
    back = [i for i in range(3) if i not in front]

    def cmp(a, b):
        head = _grevlex_cmp([a[i] for i in front], [b[i] for i in front])
        return head or _grevlex_cmp([a[i] for i in back], [b[i] for i in back])

    return cmp


@pytest.mark.parametrize(
    "order,cmp",
    [(GREVLEX, _grevlex_cmp), (LEX, _lex_cmp)]
    + [(BlockOrder(front, 3), _block_cmp(front)) for front in ([], [1], [0, 2], [0, 1, 2])],
)
def test_order_keys_sort_as_defined(order, cmp):
    exps = list(iter_exponents(3, 6))
    assert sorted(exps, key=order.key) == sorted(exps, key=cmp_to_key(cmp))


def test_reduced_basis_is_a_fixed_point():
    f = poly(RXY, {(0, 1): 1, (1, 0): -1})
    g = poly(RXY, {(0, 2): 1})
    for order in (GREVLEX, BlockOrder([1], 2)):
        gb = buchberger([f, g], order)
        again = buchberger(list(gb), order)
        assert [p.terms for p in gb] == [p.terms for p in again]


def test_elimination_agrees_with_kernel_route():
    # the graph ideal of a polynomial substitution eliminates to the same
    # ideal the morphism analysis reports as the kernel
    from truncas.morphisms import AlgebraMorphism, kernel_exact

    rx = Ring(QQ, ("x1", "x2"))
    ry = Ring(QQ, ("yy",))
    y = ry.variable(0)
    phi = AlgebraMorphism(rx, ry, [y * y, y * y * y])
    big = Ring(QQ, ("x1", "x2", "yy"), nx=2)
    graph = PolyIdeal(
        big,
        [
            poly(big, {(1, 0, 0): 1, (0, 0, 2): -1}),
            poly(big, {(0, 1, 0): 1, (0, 0, 3): -1}),
        ],
    )
    elim = eliminate_ideal(graph)
    kernel = kernel_exact(phi)
    assert ideals_equal(elim, kernel)


# ---------------------------------------------------------------------------
# the graded row builder against the per-term textbook loop

ROW_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def row_builder_cases(draw):
    """(generators, below, rank map): polynomials, series and zeros in 1-3 variables."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    n = draw(st.integers(1, 3))
    ring = Ring(field, ("x1", "x2", "x3")[:n], nx=draw(st.integers(1, n)))
    below = draw(st.integers(0, 6))
    coeff = st.integers(-3, 3).filter(bool).map(field)
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["poly", "series", "zero"]))
        order = max(below, 1) + draw(st.integers(0, 2))
        top = order if kind == "series" else 8
        exps = st.tuples(*[st.integers(0, top)] * n).filter(lambda e: sum(e) < top)
        terms = {} if kind == "zero" else draw(st.dictionaries(exps, coeff, max_size=6))
        if kind == "series":
            gens.append(TruncatedSeries(ring, terms, order))
        else:
            gens.append(Polynomial(ring, terms))
    if draw(st.booleans()):
        rank_of = {e: i for i, e in enumerate(iter_exponents(n, below))}
    else:
        rank_of = subspace_column_ranks(ring, draw(st.integers(0, below)), below)[0]
    return gens, below, rank_of


@ROW_SETTINGS
@given(row_builder_cases())
def test_row_builder_matches_textbook_oracle(case):
    gens, below, rank_of = case
    labels, oracle_labels = [], []
    rows = truncated_multiple_rows(gens, below, rank_of, labels)
    assert rows == textbook_truncated_multiple_rows(gens, below, rank_of, oracle_labels)
    assert labels == oracle_labels


# ---------------------------------------------------------------------------
# the engine against plain Buchberger with the chain criterion

ENGINE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def engine_cases(draw):
    """(elements, order factory, queries): ideals, rank-2 modules or tag constructions."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    kind = draw(st.sampled_from(["ideal", "module", "tag"]))
    n = draw(st.integers(1, 3))
    rank = 1 if kind == "ideal" else draw(st.integers(1, 2))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3]).map(field)
    exps = st.sampled_from(list(iter_exponents(n, 4)))
    monos = st.tuples(st.integers(0, rank - 1), exps)

    def elements(count):
        return [draw(st.dictionaries(monos, coeff, min_size=1, max_size=4)) for _ in range(count)]

    gens = elements(draw(st.integers(1, 4)))
    queries = elements(draw(st.integers(1, 3)))
    if kind == "ideal":
        order = draw(st.sampled_from(["grevlex", "lex", "block"]))
        front = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))

        def make_order():
            term = {"grevlex": GREVLEX, "lex": LEX, "block": BlockOrder(front, n)}[order]
            return ModuleOrder(term)

    elif kind == "module":
        def make_order():
            return ModuleOrder()

    else:
        # module_intersection's construction: t*a for a in A, (1 - t)*b for b in B
        split = draw(st.integers(0, len(gens)))
        tagged = [{(c, e + (1,)): v for (c, e), v in g.items()} for g in gens[:split]]
        for g in gens[split:]:
            elem = {(c, e + (0,)): v for (c, e), v in g.items()}
            elem.update({(c, e + (1,)): -v for (c, e), v in g.items()})
            tagged.append(elem)
        gens = tagged
        queries = [{(c, e + (0,)): v for (c, e), v in q.items()} for q in queries]

        def make_order():
            return ModuleOrder(tag_index=n)

    # a member among the queries: a generator times a monomial in the first n variables
    shift = draw(exps) + (0,) * (kind == "tag")
    pick = draw(st.sampled_from(gens))
    queries.append({(c, tuple(map(add, e, shift))): v for (c, e), v in pick.items()})
    return gens, make_order, queries


@ENGINE_SETTINGS
@given(engine_cases())
def test_module_buchberger_matches_textbook_oracle(case):
    gens, make_order, queries = case
    order, oracle_order = make_order(), make_order()
    gb = module_buchberger(gens, order)
    expected = textbook_module_buchberger(gens, oracle_order)
    assert gb == expected
    for q in queries:
        assert module_contains(gb, order, q) == (
            not textbook_mod_normal_form(q, expected, oracle_order)
        )
