"""Layer microbenchmarks for the truncated comparators' linear algebra.

Run with ``PYTHONPATH=src python -m pytest tests/bench_linalg.py --benchmark-only``.
The file name keeps it out of the default test collection.

The system is the one ``check-injective`` builds for the cusp
x1 -> y^2, x2 -> y^3 at target order 4 and working order 16: the graph
generators x1 - y^2 and x2 - y^3 over Q[x1, x2, y], every monomial below 16
as a column, and the x-only monomials below 4 ranked last (the kept block).
The last case runs the whole ``kernel`` comparator on the same morphism over
the schedule 12, 14, 16, which shares one ranking across the three orders.
"""

from fractions import Fraction

from truncas.fields import QQ
from truncas.groebner import subspace_column_ranks, truncated_multiple_rows
from truncas.linalg import RowReducer
from truncas.morphisms import AlgebraMorphism, truncated_completion_kernel
from truncas.series import Polynomial, Ring

TARGET_ORDER = 4
WORKING_ORDER = 16
RING = Ring(QQ, ("x1", "x2", "y"), nx=2)
GENS = [
    Polynomial(RING, {(1, 0, 0): Fraction(1), (0, 0, 2): Fraction(-1)}),
    Polynomial(RING, {(0, 1, 0): Fraction(1), (0, 0, 3): Fraction(-1)}),
]

RANK_OF, FIRST_KEPT, _ = subspace_column_ranks(RING, TARGET_ORDER, WORKING_ORDER)
ROWS = truncated_multiple_rows(GENS, WORKING_ORDER, RANK_OF)


def insert_and_read_kept():
    """Insert every row, then read the fully reduced rows of the kept block."""
    red = RowReducer(QQ)
    for row in ROWS:
        red.add(row)
    return [red.row(p) for p in sorted(red.pivots) if p >= FIRST_KEPT]


def test_reducer_insert_and_kept_read(benchmark):
    kept = benchmark(insert_and_read_kept)
    # the cusp's kernel below degree 4 is spanned by x1^3 - x2^2
    assert len(kept) == 1


def test_truncated_multiple_rows(benchmark):
    rows = benchmark(truncated_multiple_rows, GENS, WORKING_ORDER, RANK_OF)
    assert rows == ROWS


def test_cusp_kernel_schedule(benchmark):
    y = Ring(QQ, ("y",))
    yy = y.variable(0)
    phi = AlgebraMorphism(Ring(QQ, ("x1", "x2")), y, [yy * yy, yy * yy * yy])
    rep = benchmark(truncated_completion_kernel, phi, TARGET_ORDER, [12, 14, WORKING_ORDER])
    assert rep.stabilized and rep.dimensions == [1, 1, 1]
