"""Layer microbenchmarks for the Buchberger engine.

Run with ``PYTHONPATH=src python -m pytest tests/bench_groebner.py --benchmark-only``.
The file name keeps it out of the default test collection.

The ideal is generated by three dense quadrics in Q[x1, x2, y] with small
integer coefficients from a fixed seed; the module pair is two rank-2
submodules of Q[x1, x2]^2 with two generators each.
"""

import random
from fractions import Fraction

from truncas.fields import QQ
from truncas.groebner import (
    ModuleOrder,
    buchberger,
    mod_normal_form,
    module_buchberger,
    vec_to_elem,
)
from truncas.modules import PolyModule, module_intersection
from truncas.orders import GREVLEX, BlockOrder
from truncas.series import Polynomial, Ring, iter_exponents

RING = Ring(QQ, ("x1", "x2", "y"), nx=2)
RNG = random.Random(2024)


def _dense(ring, below):
    terms = {e: Fraction(RNG.randint(-4, 4)) for e in iter_exponents(ring.nvars, below)}
    return Polynomial(ring, terms)


GENS = [_dense(RING, 3) for _ in range(3)]
BLOCK = BlockOrder([2], 3)

# a fixed reduced basis and elements to reduce against it
ORDER = ModuleOrder(GREVLEX)
BASIS = module_buchberger([vec_to_elem([g]) for g in GENS[:2]], ORDER)
TARGETS = [vec_to_elem([_dense(RING, 5)]) for _ in range(20)]

R2 = Ring(QQ, ("x1", "x2"))
x1, x2 = R2.variable(0), R2.variable(1)
one = Polynomial.const(R2, 1)
A = PolyModule(R2, 2, [[x1 * x1 + x2, x2], [x1 * x2, one + x1]])
B = PolyModule(R2, 2, [[x1, x2 * x2], [x2 - one, x1]])


def reduce_targets():
    return [mod_normal_form(t, BASIS, ORDER) for t in TARGETS]


def test_mod_normal_form(benchmark):
    remainders = benchmark(reduce_targets)
    assert len(remainders) == len(TARGETS)


def test_buchberger_grevlex(benchmark):
    gb = benchmark(buchberger, GENS, GREVLEX)
    assert all(gb.contains(g) for g in GENS)


def test_buchberger_block_order(benchmark):
    gb = benchmark(buchberger, GENS, BLOCK)
    assert all(gb.contains(g) for g in GENS)


def test_module_intersection_rank_two(benchmark):
    meet = benchmark(module_intersection, A, B)
    assert not meet.is_zero()
