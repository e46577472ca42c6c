"""Row reducer against a dense textbook RREF and a field-element oracle, plus span utilities."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from truncas.fields import QQ, PrimeField
from truncas.linalg import RowReducer, span_reducer, spans_equal

from oracles import FieldRowReducer, intersect_spans


def dense_rref_rank_and_consistent(rows, rhs, ncols):
    mat = [[r.get(c, Fraction(0)) for c in range(ncols)] + [v] for r, v in zip(rows, rhs)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    consistent = all(any(row[:ncols]) or not row[ncols] for row in mat)
    return rank, consistent


def random_sparse_system(rng, ncols, nrows, density=0.4):
    rows, rhs = [], []
    for _ in range(nrows):
        row = {
            c: Fraction(rng.randint(-4, 4))
            for c in range(ncols)
            if rng.random() < density
        }
        row = {c: v for c, v in row.items() if v}
        rows.append(row)
        rhs.append(Fraction(rng.randint(-3, 3)))
    return rows, rhs


def test_rank_and_consistency_match_dense():
    rng = random.Random(17)
    for trial in range(30):
        ncols = rng.randint(1, 8)
        nrows = rng.randint(1, 10)
        rows, rhs = random_sparse_system(rng, ncols, nrows)
        red = RowReducer(QQ)
        ok = True
        for row, v in zip(rows, rhs):
            if red.add(row, v) == "inconsistent":
                ok = False
        rank, consistent = dense_rref_rank_and_consistent(rows, rhs, ncols)
        assert ok == consistent
        if consistent:
            assert red.rank == rank


def test_particular_and_nullspace_solve():
    rng = random.Random(23)
    for trial in range(20):
        ncols = rng.randint(2, 7)
        rows, rhs = random_sparse_system(rng, ncols, rng.randint(1, 6), 0.5)
        red = RowReducer(QQ)
        status_ok = all(red.add(r, v) != "inconsistent" for r, v in zip(rows, rhs))
        if not status_ok:
            continue
        part = red.particular_solution()

        def apply(vec):
            return [
                sum((row.get(c, Fraction(0)) * vec.get(c, Fraction(0)) for c in row), Fraction(0))
                for row in rows
            ]

        assert apply(part) == rhs
        for basis_vec in red.nullspace_basis(range(ncols)):
            assert apply(basis_vec) == [Fraction(0)] * len(rows)
        # nullity matches
        rank, _ = dense_rref_rank_and_consistent(rows, rhs, ncols)
        assert len(red.nullspace_basis(range(ncols))) == ncols - rank


def test_member():
    red = RowReducer(QQ)
    r1 = {0: Fraction(1), 1: Fraction(2)}
    r2 = {1: Fraction(1), 2: Fraction(-1)}
    red.add(dict(r1))
    red.add(dict(r2))
    target = {0: Fraction(2), 1: Fraction(5), 2: Fraction(-1)}  # 2*r1 + r2
    assert red.member(target)
    assert not red.member({0: Fraction(1)})


def test_spans_equal():
    a = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    b = [{0: Fraction(1)}, {1: Fraction(3)}]
    assert spans_equal(a, b, QQ)
    assert not spans_equal(a, [{0: Fraction(1)}], QQ)


def test_intersect_spans_matches_manual():
    # A = span{(1,0,0), (0,1,0)}, B = span{(0,1,0), (0,0,1)}: meet = span{(0,1,0)}
    A = [{0: Fraction(1)}, {1: Fraction(1)}]
    B = [{1: Fraction(1)}, {2: Fraction(1)}]
    meet = intersect_spans(A, B, 3, QQ)
    assert spans_equal(meet, [{1: Fraction(1)}], QQ)


def test_intersect_spans_randomized():
    rng = random.Random(31)
    for _ in range(15):
        ncols = rng.randint(2, 6)
        A, _ = random_sparse_system(rng, ncols, rng.randint(1, 4), 0.6)
        B, _ = random_sparse_system(rng, ncols, rng.randint(1, 4), 0.6)
        meet = intersect_spans(A, B, ncols, QQ)
        ra = span_reducer(A, QQ)
        rb = span_reducer(B, QQ)
        for v in meet:
            assert ra.member(v) and rb.member(v)
        # dimension law: dim(A) + dim(B) = dim(A+B) + dim(A∩B)
        rab = span_reducer(A + B, QQ)
        assert ra.rank + rb.rank == rab.rank + len(meet)


def test_prime_field_reduction():
    F5 = PrimeField(5)
    red = RowReducer(F5)
    assert red.add({0: F5(2), 1: F5(1)}, F5(3)) == "pivot"
    # twice the first row with rhs 2*3 = 1 mod 5 is dependent, not inconsistent
    assert red.add({0: F5(4), 1: F5(2)}, F5(1)) == "dependent"
    assert red.add({0: F5(4), 1: F5(2)}, F5(2)) == "inconsistent"
    part = red.particular_solution()
    assert part.get(0, F5(0)) * F5(2) + part.get(1, F5(0)) * F5(1) == F5(3)


# ---------------------------------------------------------------------------
# integer-scaled rows against the field-element oracle

F7 = PrimeField(7)
F_BIG = PrimeField(2**31 - 1)
SCALED_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def sparse_systems(draw):
    """(field, ncols, rows, rhs, queries) with coefficients p/q, |p| <= 6, q <= 5."""
    field = draw(st.sampled_from([QQ, F7, F_BIG]))
    ncols = draw(st.integers(1, 8))
    coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)).map(field)

    def rows(count):
        out = []
        for _ in range(count):
            row = draw(st.dictionaries(st.integers(0, ncols - 1), coeff, max_size=ncols))
            out.append({c: v for c, v in row.items() if v})
        return out

    rows_, queries = rows(draw(st.integers(1, 12))), rows(draw(st.integers(1, 4)))
    rhs = [draw(coeff) for _ in rows_]
    return field, ncols, rows_, rhs, queries


def assert_canonical(red):
    """Every stored row is the unique scaled form of an echelon row."""
    for pcol, nums in red.pivots.items():
        den = red.dens[pcol]
        assert min(nums) == pcol and nums[pcol] == den and den > 0
        assert all(nums.values())
        if red.field == QQ:
            assert gcd(den, red.rhs[pcol], *nums.values()) == 1
        else:
            p = red.field.p
            assert den == 1 and 0 <= red.rhs[pcol] < p
            assert all(0 < v < p for v in nums.values())


def canonical_rows(red):
    """The fully reduced rows, ordered by pivot column."""
    return [red.row(c) for c in sorted(red.pivots)]


def assert_reads_match(red, oracle, ncols):
    """The fully reduced reads equal the oracle's reduced row echelon form.

    Rows are read top down first, so the back-substitution is extended one
    pivot at a time before ``canonical_rows`` reads them all.
    """
    for pcol in sorted(oracle.pivots, reverse=True):
        assert red.row(pcol) == oracle.pivots[pcol]
    assert canonical_rows(red) == oracle.canonical_rows()
    assert red.particular_solution() == oracle.particular_solution()
    assert red.nullspace_basis(range(ncols)) == oracle.nullspace_basis(range(ncols))


@SCALED_SETTINGS
@given(sparse_systems())
def test_scaled_rows_match_field_oracle(system):
    field, ncols, rows, rhs, queries = system
    red = RowReducer(field)
    oracle = FieldRowReducer(field)
    for row, v in zip(rows, rhs):
        assert red.add(row, v) == oracle.add(row, v)
        assert_canonical(red)
        # read after every insert: a reduced form kept past an insert goes stale
        assert_reads_match(red, oracle, ncols)
    for q in queries + rows:
        assert red.reduce(q, field.one) == oracle.reduce(q, field.one)[:2]
        assert red.member(q) == oracle.member(q)
    # without rhs
    plain, plain_oracle = span_reducer(rows, field), FieldRowReducer(field)
    for row in rows:
        plain_oracle.add(row)
    assert_canonical(plain)
    for q in queries:
        assert plain.reduce(q) == plain_oracle.reduce(q)[:2]

