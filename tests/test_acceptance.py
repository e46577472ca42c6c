"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every expected value is pinned by an independent oracle computed here (dense
matrices, recurrences, direct substitution) or by exact cross-route
comparison inside the suite.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from truncas.fields import QQ, PrimeField
from truncas.groebner import (
    PolyIdeal,
    eliminate_ideal,
    ideal_low_degree_space,
    truncated_completion_elimination,
)
from truncas.hensel import HenselCode, lift_with_steps
from truncas.linalg import span_reducer, spans_equal
from truncas.modules import (
    PolyModule,
    chevalley_beta,
    module_intersect_zero_block,
    nagata_route_zero_block,
)
from truncas.morphisms import (
    AlgebraMorphism,
    check_strong_injectivity,
    preimage,
    truncated_completion_kernel,
)
from truncas.nested import (
    NestedLinearSystem,
    NestedProfile,
    division_working_order,
    homogenize,
    recover_from_homogeneous,
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

from oracles import DenseNestedOracle, is_solution, modules_equal, residual_free
from test_cli import golden_cases, run_cli, GOLDEN_DIR

import os

R2 = Ring(QQ, ("x1", "x2"))
R3 = Ring(QQ, ("x1", "x2", "x3"))


def announce(number, ok, label):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {label}")
    assert ok, label


# ---------------------------------------------------------------------------
# corpus shared by criteria 1 and 2


def solver_corpus():
    systems = []

    def series(ring, terms, order):
        return TruncatedSeries(ring, {e: Fraction(v) for e, v in terms.items()}, order)

    c = 4
    one2 = TruncatedSeries.const(R2, 1, c)
    x1 = R2.variable_series(0, c)
    x2 = R2.variable_series(1, c)
    systems.append(
        NestedLinearSystem([[one2, one2]], [x1 + x2], NestedProfile((1, 2)), c)
    )
    systems.append(
        NestedLinearSystem([[one2]], [x2], NestedProfile((1,)), 2)
    )
    c5 = 5
    f = R2.variable_series(1, c5) - R2.variable_series(0, c5)
    systems.append(
        NestedLinearSystem(
            [[TruncatedSeries.const(R2, -1, c5), f]],
            [R2.variable_series(1, c5).scale(-1)],
            NestedProfile((1, 2)),
            c5,
        )
    )
    rng = random.Random(2024)
    for trial in range(9):
        ring = (R2, R3)[trial % 2]
        m = rng.randint(1, 4)
        p = rng.randint(1, 3)
        c = rng.randint(2, 6)

        def entry():
            terms = {}
            for e in iter_exponents(ring.nvars, 3):
                if rng.random() < 0.45:
                    terms[e] = Fraction(rng.randint(-3, 3))
            return TruncatedSeries(ring, terms, c)

        T = [[entry() for _ in range(m)] for _ in range(p)]
        b = [entry() for _ in range(p)]
        sigma = tuple(rng.randint(1, ring.nvars) for _ in range(m))
        systems.append(NestedLinearSystem(T, b, NestedProfile(sigma), c))
    return systems


def test_criterion_1_solver_matches_dense_oracle():
    started = time.perf_counter()
    systems = solver_corpus()
    assert len(systems) >= 10
    for sys_ in systems:
        sol = solve_nested(sys_)
        oracle = DenseNestedOracle(sys_.T, sys_.b, sys_.profile.sigma, sys_.c)
        solvable, nullity, _ = oracle.analyze()
        assert sol.solvable == solvable
        if solvable:
            assert len(sol.nullspace_basis) == nullity
            assert is_solution(sys_, sol.particular)
            for vec in sol.nullspace_basis:
                assert residual_free(
                    sys_.T, [TruncatedSeries.zero(sys_.ring, sys_.c)] * sys_.p, vec, sys_.c
                )
    elapsed = time.perf_counter() - started
    announce(
        1,
        elapsed < 10.0,
        f"solver agrees with dense oracle on {len(systems)} systems in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_2_homogenization_pipeline():
    count = 0
    for sys_ in solver_corpus():
        direct = solve_nested(sys_)
        if not direct.solvable:
            continue
        hom = homogenize(sys_)
        pins = {}
        bound = hom.profile.sigma[0]
        for alpha in iter_exponents(bound, sys_.c):
            full = alpha + (0,) * (sys_.ring.nvars - bound)
            pins[(0, full)] = QQ(1) if sum(alpha) == 0 else QQ(0)
        sol = solve_nested(hom, pins=pins)
        assert sol.solvable
        recovered = recover_from_homogeneous(sol, sys_.c)
        assert is_solution(sys_, recovered)
        for i, comp in enumerate(recovered):
            assert comp.nested_support_ok(sys_.profile.sigma[i])
        count += 1
    announce(
        2,
        count >= 5,
        f"homogenize/pin/recover returns residual-free nested solutions on {count} systems",
    )


def test_criterion_3_weierstrass_uniqueness():
    started = time.perf_counter()
    c = 12

    def series(terms, order):
        return TruncatedSeries(R2, {e: Fraction(v) for e, v in terms.items()}, order)

    divisors = [
        {(0, 1): 1, (1, 0): -1},                      # x2 - x1, d = 1
        {(0, 2): 1, (1, 0): -1},                      # x2^2 - x1, d = 2
        {(0, 1): 1},                                  # x2, d = 1
        {(0, 2): 1, (1, 1): 1, (2, 0): 1},            # x2^2 + x1 x2 + x1^2, d = 2
        {(0, 3): 1, (1, 0): -1, (1, 1): 2},           # x2^3 - x1 + 2 x1 x2, d = 3
    ]
    rng = random.Random(7)
    checked = 0
    for terms in divisors:
        d = min(e[1] for e in terms if e[0] == 0)
        w = division_working_order(c, d)
        f = series(terms, w)
        g_terms = {
            e: Fraction(rng.randint(-4, 4))
            for e in iter_exponents(2, 6)
            if rng.random() < 0.6
        }
        g = TruncatedSeries(R2, g_terms, w)
        q, rems = weierstrass_divide(f, g, c)
        q2, rems2 = weierstrass_divide(f, g, c, column_shuffle_seed=99)
        assert q == q2 and rems == rems2
        acc = g.scale(-1) + f * q
        for k, a in enumerate(rems):
            lifted = TruncatedSeries(
                R2, {e + (k,): v for e, v in a.terms.items()}, a.known_order
            )
            acc = acc + lifted
        assert all(total_degree(e) >= c for e in acc.terms)
        assert all(len(rems) == d for _ in [0])
        checked += 1
    elapsed = time.perf_counter() - started
    announce(
        3,
        checked == 5 and elapsed < 5.0,
        f"division unique under permuted pivoting, residual-free below {c}, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_4_hensel_codes():
    started = time.perf_counter()
    rx = Ring(QQ, ("x1",))
    rxu = rx.extend(("u",))
    ry = Ring(QQ, ("y1",))
    ryu = ry.extend(("u",))

    def poly(ring, terms):
        return Polynomial(ring, {e: Fraction(v) for e, v in terms.items()})

    codes = [
        (rx, poly(rxu, {(0, 2): 1, (0, 0): -1, (1, 0): -1}), 1),   # sqrt(1+x)
        (rx, poly(rxu, {(0, 1): 1, (0, 0): -1, (1, 2): -1}), 1),   # catalan
        (ry, poly(ryu, {(0, 2): 1, (0, 1): 1, (1, 0): -1}), 0),    # reversion
    ]
    for c in list(range(1, 17)) + [24, 32, 48, 64]:
        for ring, fpoly, seed in codes:
            code = HenselCode(ring, fpoly, seed)
            lifted, steps = lift_with_steps(code, c)
            bound = (math.ceil(math.log2(c)) + 1) if c > 1 else 1
            assert steps <= bound
            xs = ring.variable_series(0, c)
            res = substitute(fpoly, [xs, lifted])
            assert all(total_degree(e) >= c for e in res.terms)
    elapsed = time.perf_counter() - started
    announce(
        4,
        elapsed < 5.0,
        f"three codes residual-free for c <= 64 with logarithmic step counts, {elapsed:.2f}s (< 5s)",
    )


def elimination_corpus():
    rxy = Ring(QQ, ("x1", "y"), nx=1)
    rxyy = Ring(QQ, ("x1", "y1", "y2"), nx=1)

    def poly(ring, terms):
        return Polynomial(ring, {e: Fraction(v) for e, v in terms.items()})

    return [
        PolyIdeal(rxy, [poly(rxy, {(0, 1): 1, (1, 0): -1}), poly(rxy, {(0, 2): 1})]),
        PolyIdeal(rxy, [poly(rxy, {(1, 0): 1, (0, 2): -1})]),
        PolyIdeal(rxy, [poly(rxy, {(1, 0): 1})]),
        PolyIdeal(
            rxyy,
            [
                poly(rxyy, {(0, 1, 0): 1, (1, 0, 0): -1}),
                poly(rxyy, {(0, 0, 1): 1, (2, 0, 0): -1}),
                poly(rxyy, {(0, 1, 1): 1}),
            ],
        ),
        PolyIdeal(rxy, [poly(rxy, {(0, 2): 1, (1, 0): -1}), poly(rxy, {(0, 3): 1})]),
    ]


def test_criterion_5_strong_elimination_stabilization():
    corpus = elimination_corpus()
    assert len(corpus) >= 5
    for ideal in corpus:
        elim = eliminate_ideal(ideal)
        nx = ideal.ring.nx
        for c in range(1, 9):
            rank = {e: i for i, e in enumerate(iter_exponents(nx, c))}
            exact_rows = [
                {rank[e]: v for e, v in g.terms.items()}
                for g in ideal_low_degree_space(elim, c)
            ]
            found = None
            for cprime in range(c, 17):
                basis = truncated_completion_elimination(ideal, c, cprime)
                rows = [{rank[e]: v for e, v in b.terms.items()} for b in basis]
                if spans_equal(rows, exact_rows, QQ):
                    found = cprime
                    break
            assert found is not None, (ideal.gens, c)
    announce(
        5,
        True,
        "truncated elimination stabilizes to the exact elimination span for c <= 8, cprime <= 16",
    )


def test_criterion_6_nagata_route_equivalence():
    rx = Ring(QQ, ("x1",))
    r2 = R2
    x = rx.variable(0)
    one = Polynomial.const(rx, 1)
    zero = Polynomial.zero(rx)
    a = r2.variable(0)
    b = r2.variable(1)
    one2 = Polynomial.const(r2, 1)
    zero2 = Polynomial.zero(r2)
    corpus = [
        (PolyModule(rx, 2, [[x, one], [zero, x]]), 1),
        (PolyModule(rx, 2, [[zero, one]]), 1),
        (PolyModule(rx, 2, [[x, x * x]]), 1),
        (PolyModule(r2, 2, [[a, b]]), 1),
        (PolyModule(r2, 3, [[a, b, one2], [zero2, a, b]]), 2),
        (PolyModule(r2, 2, [[a * b, a + b], [b, one2]]), 1),
    ]
    for M, p in corpus:
        route = nagata_route_zero_block(M, p)
        direct = module_intersect_zero_block(M, p)
        assert modules_equal(route, direct)
    announce(
        6,
        len(corpus) >= 5,
        f"idealization route matches direct zero-block intersection on {len(corpus)} modules",
    )


def test_criterion_7_chevalley_function():
    rx = Ring(QQ, ("x1",))
    m1 = PolyModule(rx, 1, [[rx.variable(0)]])
    m2 = PolyModule(R2, 2, [[R2.variable(0), R2.variable(1)]])
    for c in range(1, 11):
        for M, p in ((m1, 1), (m2, 1)):
            exact = chevalley_beta(M, p, c, "exact")
            assert exact.beta == c
            trunc = chevalley_beta(M, p, c, "truncated", working_order=c + 4)
            assert trunc.beta == exact.beta
    announce(7, True, "shift function beta(c) = c for both corpus modules, c = 1..10, both modes")


def morphism_corpus():
    rx1 = Ring(QQ, ("x1",))
    ry = Ring(QQ, ("y",))
    y = ry.variable(0)
    ry2 = Ring(QQ, ("y1", "y2"))
    return [
        ("fold", AlgebraMorphism(R2, ry, [y, y]), 1),
        ("iso", AlgebraMorphism(R2, ry2, [ry2.variable(0), ry2.variable(1)]), 1),
        ("cusp", AlgebraMorphism(R2, ry, [y * y, y * y * y]), 3),
        ("square", AlgebraMorphism(rx1, ry, [y * y]), 2),
        ("graph", AlgebraMorphism(R2, ry, [y, y * y]), 2),
    ]


def gabrielov(order):
    ry2 = Ring(QQ, ("y1", "y2"))
    y1 = ry2.variable(0)
    y2 = ry2.variable(1)
    coeff = Fraction(1)
    terms = {}
    for j in range(order):
        if j:
            coeff = coeff / j
        terms[(0, j)] = coeff
    e = TruncatedSeries(ry2, terms, order)
    img3 = (y1.as_series(order + 1) * e).truncate(order)
    return AlgebraMorphism(R3, ry2, [y1, y1 * y2, img3])


def test_criterion_8_strong_injectivity():
    started = time.perf_counter()
    for name, phi, weight in morphism_corpus():
        for c in range(1, 7):
            top = max(c + 4, weight * (c - 1) + 3)
            result = check_strong_injectivity(
                phi, c, cprimes=list(range(c, top + 1, 2)) + [top + 1]
            )
            assert result.stabilized, (name, c)
            assert result.equal, (name, c)
    for c in range(1, 6):
        cps = [cp for cp in (c, c + 2, c + 4) if cp <= 9]
        if len(cps) < 2:
            cps = [c, c + 2]
        rep = truncated_completion_kernel(gabrielov(9), c, cprimes=cps)
        if rep.stabilized:
            assert rep.candidate_basis == [], c
    elapsed = time.perf_counter() - started
    announce(
        8,
        elapsed < 60.0,
        f"stabilized kernel spans equal exact kernels below c <= 6; "
        f"stabilized windows empty for the truncated-exponential morphism, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_9_preimage():
    rx1 = Ring(QQ, ("x1",))
    ry = Ring(QQ, ("y1",))
    y = ry.variable(0)
    phi = AlgebraMorphism(rx1, ry, [y * y])
    f = preimage(phi, y ** 4, 6)
    assert f is not None and f.terms == {(2,): Fraction(1)}
    img = substitute(f, [(y * y).as_series(6)])
    diff = img - (y ** 4).as_series(6)
    assert all(total_degree(e) >= 6 for e in diff.terms)
    assert preimage(phi, y, 2) is None
    announce(9, True, "preimage finds x1^2 for y1^4 and NONE for y1 at order 2")


def test_criterion_10_cli_determinism():
    cases = list(golden_cases())
    assert cases
    for case in cases:
        problem = os.path.join(GOLDEN_DIR, case + ".problem")
        args_path = os.path.join(GOLDEN_DIR, case + ".args")
        argv = [problem]
        if os.path.exists(args_path):
            with open(args_path) as fh:
                argv += fh.read().split()
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
        assert first[0] == 0
        with open(os.path.join(GOLDEN_DIR, case + ".expected")) as fh:
            assert first[1] == fh.read()
    announce(10, True, f"{len(cases)} golden reports byte-identical across consecutive runs")
