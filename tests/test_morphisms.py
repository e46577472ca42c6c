"""Morphism kernels (exact and truncated), injectivity, preimages."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncas.errors import NonPolynomialImages, PrecisionTooLow
from truncas.fields import QQ, PrimeField
from truncas.groebner import PolyIdeal, ideal_low_degree_space
from truncas.linalg import spans_equal
from truncas.morphisms import (
    AlgebraMorphism,
    check_strong_injectivity,
    kernel_exact,
    preimage,
    truncated_completion_kernel,
)
from truncas.series import (
    Polynomial,
    Ring,
    TruncatedSeries,
    iter_exponents,
    substitute,
    total_degree,
)

from oracles import (
    ideals_equal,
    kernel_certificate,
    per_order_kernel,
    per_order_preimage,
    same_span_modulo,
    textbook_compose,
)

RX1 = Ring(QQ, ("x1",))
RX2 = Ring(QQ, ("x1", "x2"))
RX3 = Ring(QQ, ("x1", "x2", "x3"))
RY1 = Ring(QQ, ("y",))
RY2 = Ring(QQ, ("y1", "y2"))

Y = RY1.variable(0)


def fold_morphism():
    return AlgebraMorphism(RX2, RY1, [Y, Y])


def cusp_morphism():
    return AlgebraMorphism(RX2, RY1, [Y * Y, Y * Y * Y])


def graph_morphism():
    y1 = RY1.variable(0)
    return AlgebraMorphism(RX2, RY1, [y1, y1 * y1])


def iso_morphism():
    return AlgebraMorphism(RX2, RY2, [RY2.variable(0), RY2.variable(1)])


def exp_truncated(order):
    terms = {}
    coeff = Fraction(1)
    for j in range(order):
        if j:
            coeff = coeff / j
        terms[(0, j)] = coeff
    return TruncatedSeries(RY2, terms, order)


def gabrielov_morphism(order):
    y1 = RY2.variable(0)
    y2 = RY2.variable(1)
    img3 = y1.as_series(order + 1) * exp_truncated(order)
    return AlgebraMorphism(RX3, RY2, [y1, y1 * y2, img3.truncate(order)])


def test_kernel_exact_examples():
    assert [repr(g) for g in kernel_exact(fold_morphism()).gens] == ["x1 - x2"]
    assert kernel_exact(iso_morphism()).is_zero()
    assert kernel_exact(AlgebraMorphism(RX1, RY1, [Y * Y])).is_zero()
    cusp = kernel_exact(cusp_morphism())
    want = PolyIdeal(RX2, [Polynomial(RX2, {(3, 0): Fraction(1), (0, 2): Fraction(-1)})])
    assert ideals_equal(cusp, want)
    graph = kernel_exact(graph_morphism())
    want2 = PolyIdeal(RX2, [Polynomial(RX2, {(0, 1): Fraction(1), (2, 0): Fraction(-1)})])
    assert ideals_equal(graph, want2)


def test_kernel_exact_rejects_series_images():
    phi = gabrielov_morphism(6)
    with pytest.raises(NonPolynomialImages):
        kernel_exact(phi)


def test_kernel_exact_with_quotients():
    # k[x1,x2]/(x2) -> k[y], x1 -> y, x2 -> 0: kernel reduces to 0 mod I
    I = PolyIdeal(RX2, [RX2.variable(1)])
    phi = AlgebraMorphism(RX2, RY1, [Y, Polynomial.zero(RY1)], I=I)
    assert phi.well_defined()
    K = kernel_exact(phi)
    assert K.is_zero()


def test_well_definedness_check():
    # x1 -> y^2 does not respect I = (x1) unless J absorbs it
    I = PolyIdeal(RX1, [RX1.variable(0)])
    phi = AlgebraMorphism(RX1, RY1, [Y * Y], I=I)
    assert not phi.well_defined()
    J = PolyIdeal(RY1, [Y * Y])
    phi2 = AlgebraMorphism(RX1, RY1, [Y * Y], I=I, J=J)
    assert phi2.well_defined()


def test_candidate_space_fold():
    rep = truncated_completion_kernel(fold_morphism(), 2)
    assert rep.stabilized
    assert [repr(b) for b in rep.candidate_basis] == ["x1 - x2"]
    assert rep.dimensions == [1, 1, 1]


def test_candidate_space_identity_empty():
    for c in range(1, 7):
        rep = truncated_completion_kernel(iso_morphism(), c)
        assert rep.stabilized
        assert rep.candidate_basis == []


def test_candidate_certificate_and_residual():
    phi = fold_morphism()
    cprime = 5
    f = RX2.variable(0) - RX2.variable(1)
    mult = kernel_certificate(phi, f, cprime)
    assert mult is not None
    big = Ring(QQ, ("x1", "x2", "y"), nx=2)
    gens = [
        big.variable(0).as_series(cprime) - big.variable(2).as_series(cprime),
        big.variable(1).as_series(cprime) - big.variable(2).as_series(cprime),
    ]
    acc = Polynomial(big, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1)}).as_series(
        cprime
    )
    for g, m in zip(gens, mult):
        acc = acc - g * m
    assert all(total_degree(e) >= cprime for e in acc.terms)


def test_candidate_antichain_in_working_order():
    phi = cusp_morphism()
    c = 4
    rank = {e: i for i, e in enumerate(iter_exponents(2, c))}
    prev = None
    for cprime in range(c, 15):
        rep = truncated_completion_kernel(phi, c, cprimes=[cprime, cprime])
        rows = [
            {rank[e]: v for e, v in b.terms.items()} for b in rep.candidate_basis
        ]
        if prev is not None:
            from truncas.linalg import span_reducer

            red = span_reducer(prev, QQ)
            for row in rows:
                assert red.member(row)
        prev = rows


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
def test_injectivity_equivalence_all_polynomial(c):
    for phi, window in (
        (fold_morphism(), None),
        (iso_morphism(), None),
        (cusp_morphism(), [3 * (c - 1) + 1, 3 * (c - 1) + 3]),
        (graph_morphism(), [2 * (c - 1) + 1, 2 * (c - 1) + 3]),
    ):
        window = [w for w in (window or [c, c + 2, c + 4]) if w >= c] or [c, c + 2]
        result = check_strong_injectivity(phi, c, cprimes=window)
        assert result.stabilized
        assert result.equal


def test_exact_kernel_generators_lie_in_candidates():
    # generators of degree below c coincide with their truncations and are candidates
    phi = cusp_morphism()
    c = 6
    rep = truncated_completion_kernel(phi, c, cprimes=[16, 18])
    rank = {e: i for i, e in enumerate(iter_exponents(2, c))}
    cand_rows = [{rank[e]: v for e, v in b.terms.items()} for b in rep.candidate_basis]
    from truncas.linalg import span_reducer

    red = span_reducer(cand_rows, QQ)
    for g in rep.exact_kernel.gens:
        assert g.total_deg() < c
        assert red.member({rank[e]: v for e, v in g.terms.items()})


def test_gabrielov_window():
    # stabilized windows are empty; larger targets keep shrinking within reach
    for c in range(1, 6):
        cps = [cp for cp in (c, c + 2, c + 4) if cp <= 9]
        if len(cps) < 2:
            cps = [c, c + 2]
        phi = gabrielov_morphism(9)
        rep = truncated_completion_kernel(phi, c, cprimes=cps)
        if rep.stabilized:
            assert rep.candidate_basis == []
        else:
            assert rep.dimensions == sorted(rep.dimensions, reverse=True)


def test_gabrielov_requires_known_images():
    phi = gabrielov_morphism(5)
    with pytest.raises(PrecisionTooLow):
        truncated_completion_kernel(phi, 3, cprimes=[7, 9])


def test_preimage_examples():
    phi = AlgebraMorphism(RX1, RY1, [Y * Y])
    f = preimage(phi, Y * Y * Y * Y, 6)
    assert f is not None and f.terms == {(2,): Fraction(1)}
    assert preimage(phi, Y, 2) is None
    zero = preimage(phi, Polynomial.zero(RY1), 4)
    assert zero is not None and zero.is_zero()


def test_preimage_respects_j():
    # target k[y]/(y^2): y^2 pulls back to 0, so preimage of y^2 exists and is 0 mod J
    J = PolyIdeal(RY1, [Y * Y])
    phi = AlgebraMorphism(RX1, RY1, [Y], J=J)
    f = preimage(phi, Y * Y, 4)
    assert f is not None
    img = substitute(f, [Y.as_series(4)])
    # residual must be in J + (y)^4
    diff = img - (Y * Y).as_series(4)
    # reduce x.. check by certificate space: diff should be multiple of y^2
    assert all(e[0] >= 2 for e in diff.terms)


def test_preimage_verified_by_substitution():
    phi = cusp_morphism()
    b = Y ** 6
    f = preimage(phi, b, 7)
    assert f is not None
    img = substitute(f, [(Y * Y).as_series(7), (Y * Y * Y).as_series(7)])
    diff = img - b.as_series(7)
    assert all(total_degree(e) >= 7 for e in diff.terms)


def test_well_definedness_with_series_images():
    # identified variables with a shared series image respect I = (x1 - x2)
    from truncas.groebner import PolyIdeal

    img = TruncatedSeries(RY1, {(1,): Fraction(1), (3,): Fraction(2)}, 8)
    I = PolyIdeal(RX2, [RX2.variable(0) - RX2.variable(1)])
    phi = AlgebraMorphism(RX2, RY1, [img, img], I=I)
    assert phi.well_defined()
    other = TruncatedSeries(RY1, {(1,): Fraction(1)}, 8)
    phi2 = AlgebraMorphism(RX2, RY1, [img, other], I=I)
    assert not phi2.well_defined()


def test_kernel_over_prime_field():
    from truncas.fields import PrimeField

    F5 = PrimeField(5)
    rx = Ring(F5, ("x1", "x2"))
    ry = Ring(F5, ("y",))
    y = ry.variable(0)
    phi = AlgebraMorphism(rx, ry, [y, y])
    K = kernel_exact(phi)
    want = PolyIdeal(rx, [Polynomial(rx, {(1, 0): F5(1), (0, 1): F5(-1)})])
    assert ideals_equal(K, want)
    rep = truncated_completion_kernel(phi, 2)
    assert rep.stabilized
    assert len(rep.candidate_basis) == 1


def test_constant_candidate_flags_unit_ideal():
    # J = (1): the zero ring; the candidate space picks up the constant 1
    J = PolyIdeal(RY1, [Polynomial.const(RY1, 1)])
    phi = AlgebraMorphism(RX1, RY1, [Y], J=J)
    rep = truncated_completion_kernel(phi, 2)
    rank = {e: i for i, e in enumerate(iter_exponents(1, 2))}
    rows = [{rank[e]: v for e, v in b.terms.items()} for b in rep.candidate_basis]
    from truncas.linalg import span_reducer

    red = span_reducer(rows, QQ)
    assert red.member({rank[(0,)]: Fraction(1)})


def test_candidate_soundness_across_corpus():
    # every reported candidate has a multiplier certificate whose
    # resubstitution leaves nothing below the working order
    corpus = [fold_morphism(), cusp_morphism(), graph_morphism()]
    for phi in corpus:
        c, cprime = 3, 7
        rep = truncated_completion_kernel(phi, c, cprimes=[cprime, cprime + 2])
        for cand in rep.candidate_basis:
            mult = kernel_certificate(phi, cand, cprime + 2)
            assert mult is not None
            big = Ring(
                QQ, phi.source.names + phi.target.names, nx=phi.source.nvars
            )
            n = phi.source.nvars
            gens = []
            for i, img in enumerate(phi.images):
                xi = big.variable(i).as_series(cprime + 2)
                lifted = Polynomial(
                    big,
                    {(0,) * n + e: v for e, v in img.terms.items()},
                ).as_series(cprime + 2)
                gens.append(xi - lifted)
            acc = Polynomial(
                big, {e + (0,) * (big.nvars - n): v for e, v in cand.terms.items()}
            ).as_series(cprime + 2)
            for g, m in zip(gens, mult):
                acc = acc - g * m
            assert all(total_degree(e) >= cprime + 2 for e in acc.terms)


def test_candidate_space_matches_substitution_oracle():
    # with J = 0 and polynomial images, the feasible space equals
    # {f deg < c : f(images) has no term below cprime}, computed here by
    # exact composition of each monomial and a constraint nullspace
    import random

    from truncas.linalg import RowReducer, spans_equal

    rng = random.Random(424)
    for trial in range(10):
        nx = rng.randint(1, 2)
        ny = rng.randint(1, 2)
        rx = Ring(QQ, tuple(f"x{i+1}" for i in range(nx)))
        ry = Ring(QQ, tuple(f"y{i+1}" for i in range(ny)))
        images = []
        for _ in range(nx):
            terms = {}
            for e in iter_exponents(ny, 4):
                if sum(e) >= 1 and rng.random() < 0.5:
                    terms[e] = Fraction(rng.randint(-2, 2))
            images.append(Polynomial(ry, terms))
        phi = AlgebraMorphism(rx, ry, images)
        c = rng.randint(1, 4)
        cprime = rng.randint(c, c + 5)
        rep = truncated_completion_kernel(phi, c, cprimes=[cprime, cprime])
        monos = list(iter_exponents(nx, c))
        rows = {}
        for k, e in enumerate(monos):
            image = textbook_compose(Polynomial(rx, {e: Fraction(1)}), images)
            for mu, v in image.items():
                if total_degree(mu) < cprime:
                    rows.setdefault(mu, {})[k] = v
        red = RowReducer(QQ)
        for mu in sorted(rows):
            red.add(rows[mu])
        oracle_basis = red.nullspace_basis(range(len(monos)))
        mono_rank = {e: i for i, e in enumerate(monos)}
        cand_rows = [
            {mono_rank[e]: v for e, v in b.terms.items()}
            for b in rep.candidate_basis
        ]
        assert spans_equal(cand_rows, oracle_basis, QQ)


def test_truncated_kernel_with_source_quotient():
    # source k[x1,x2]/(x2): x1 -> y, x2 -> 0; candidates live modulo
    # truncations of I and the quotient kernel is zero
    I = PolyIdeal(RX2, [RX2.variable(1)])
    phi = AlgebraMorphism(RX2, RY1, [Y, Polynomial.zero(RY1)], I=I)
    assert phi.well_defined()
    rep = truncated_completion_kernel(phi, 3, cprimes=[5, 7])
    assert rep.stabilized
    assert rep.candidate_basis == []
    result = check_strong_injectivity(phi, 3, cprimes=[5, 7])
    assert result.equal


def test_truncated_kernel_quotient_reduces_representatives():
    # fold morphism with I = (x1^2): x1 - x2 still generates the quotient kernel
    I = PolyIdeal(RX2, [RX2.variable(0) * RX2.variable(0)])
    J = PolyIdeal(RY1, [Y * Y])
    phi = AlgebraMorphism(RX2, RY1, [Y, Y], I=I, J=J)
    assert phi.well_defined()
    rep = truncated_completion_kernel(phi, 3, cprimes=[5, 7])
    assert rep.stabilized
    rank = {e: i for i, e in enumerate(iter_exponents(2, 3))}
    from truncas.linalg import span_reducer

    i_rows = [{rank[(2, 0)]: Fraction(1)}]  # truncations of (x1^2) below degree 3
    red = span_reducer(
        [{rank[e]: v for e, v in b.terms.items()} for b in rep.candidate_basis]
        + i_rows,
        QQ,
    )
    # the fold relation and the J-absorbed products are all candidates
    assert red.member({rank[(1, 0)]: Fraction(1), rank[(0, 1)]: Fraction(-1)})
    assert red.member({rank[(1, 1)]: Fraction(1)})
    assert red.member({rank[(0, 2)]: Fraction(1)})


# ---------------------------------------------------------------------------
# the shared schedule ranking against a fresh ranking per working order

ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def comparator_cases(draw):
    """(phi, c, schedule, preimage target) over Q or F_7, with optional I and J."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rx = Ring(field, tuple(f"x{i+1}" for i in range(nx)))
    ry = Ring(field, tuple(f"y{i+1}" for i in range(ny)))
    c = draw(st.integers(1, 3))
    cprimes = draw(st.lists(st.integers(c, c + 2), min_size=1, max_size=3, unique=True))
    coeff = st.integers(-2, 2).filter(bool).map(field)

    def terms(ring, low, top):
        exps = st.tuples(*[st.integers(0, top)] * ring.nvars)
        exps = exps.filter(lambda e: low <= sum(e) < top)
        return draw(st.dictionaries(exps, coeff, min_size=1, max_size=3))

    known = max(cprimes) + draw(st.integers(0, 1))
    series = draw(st.booleans())
    images = [
        TruncatedSeries(ry, terms(ry, 1, known), known) if series
        else Polynomial(ry, terms(ry, 1, 4))
        for _ in range(nx)
    ]
    I = J = None
    if draw(st.booleans()):
        I = PolyIdeal(rx, [Polynomial(rx, terms(rx, 1, 4)) for _ in range(draw(st.integers(1, 2)))])
    if draw(st.booleans()):
        J = PolyIdeal(ry, [Polynomial(ry, terms(ry, 1, 4)) for _ in range(draw(st.integers(1, 2)))])
    phi = AlgebraMorphism(rx, ry, images, I=I, J=J)
    b = Polynomial(ry, terms(ry, 0, c + 1))
    if draw(st.booleans()):
        b = b.as_series(c + draw(st.integers(0, 1)))
    return phi, c, cprimes, b


@ORACLE_SETTINGS
@given(comparator_cases())
def test_schedule_ranking_matches_per_order_oracle(case):
    phi, c, cprimes, b = case
    rep = truncated_completion_kernel(phi, c, cprimes)
    basis, dims, stabilized = per_order_kernel(phi, c, sorted(cprimes))
    assert [g.terms for g in rep.candidate_basis] == [g.terms for g in basis]
    assert rep.dimensions == dims
    assert rep.stabilized == stabilized
    if phi.polynomial_images():
        i_gens = [] if phi.I is None else phi.I.gens
        exact_low = ideal_low_degree_space(kernel_exact(phi), c)
        want = same_span_modulo(basis, exact_low, phi.source, c, i_gens)
        assert check_strong_injectivity(phi, c, cprimes).equal == want
    got, want = preimage(phi, b, c), per_order_preimage(phi, b, c)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.terms == want.terms and got.known_order == want.known_order
