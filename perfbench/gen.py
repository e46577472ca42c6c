"""Seeded problem streams, one per workload, with an independent check per problem.

A stream is a sequence of rounds.  Every round holds one problem per slot of
its workload's slot list, so each round has the same mix of task families
and sizes; the seed only chooses coefficients, exponents and seeds of the
problems.  That keeps the cost of a round steady across seeds.  A problem's
check receives the report text and raises ``ReportError`` when the report is
wrong; it never calls the program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from arith import (
    Field,
    ReportError,
    add,
    compose,
    deg,
    embed,
    format_poly,
    mul,
    parse_poly,
    parse_series,
    parse_vector,
    truncate,
    uses_only,
)

PRIME = 2147483647  # 2^31 - 1, the largest modulus the program accepts
CHECK_PRIME = 2**61 - 1  # checks of Q reports compute mod this prime
X = ("x1", "x2", "x3", "x4")


@dataclass
class Problem:
    pid: str
    family: str
    text: str
    flags: list
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# random inputs


def small(rng, top=3) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, top))


def rand_exp(rng, n: int, d: int) -> tuple:
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    bounds = [0] + cuts + [d]
    return tuple(bounds[i + 1] - bounds[i] for i in range(n))


def rand_poly(rng, n: int, nterms: int, dmin: int, dmax: int, top=3) -> dict:
    out = {}
    for _ in range(8 * nterms):
        if len(out) == nterms:
            break
        out[rand_exp(rng, n, rng.randint(dmin, dmax))] = small(rng, top)
    return out


def const(n: int, value) -> dict:
    return {(0,) * n: Fraction(value)} if value else {}


def mono(n: int, i: int, k: int = 1) -> tuple:
    """Exponent of x_(i+1)^k among n variables."""
    return tuple(k if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# report access


class Report:
    """The ``key: value`` lines and ``label = value`` entries of a report."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.entries = dict(line.split(" = ", 1) for line in self.lines if " = " in line)
        self.values = dict(line.split(": ", 1) for line in self.lines
                           if ": " in line and " = " not in line)

    def value(self, key: str) -> str:
        if key not in self.values:
            raise ReportError(f"report has no {key!r} line")
        return self.values[key]

    def item(self, label: str) -> str:
        if label not in self.entries:
            raise ReportError(f"report has no {label!r} entry")
        return self.entries[label]

    def items(self, stem: str, count: int) -> list:
        return [self.item(f"{stem}[{i}]") for i in range(count)]


def expect(cond: bool, what: str):
    if not cond:
        raise ReportError(what)


def vanishes_below(poly: dict, order: int) -> bool:
    return all(deg(e) >= order for e in poly)


def series_of(rep_text: str, names, field, order: int) -> dict:
    terms, got = parse_series(rep_text, names, field)
    expect(got == order, f"series known to {got}, expected {order}")
    return terms


def header(field: Field, ring: str, precision: int) -> str:
    return f"field {field.name}\nring {ring}\nprecision {precision}\n"


# ---------------------------------------------------------------------------
# series families: Hensel codes, implicit linearization, truncation


def gen_lift(rng, field, nx, du, c, nterms, dmag, top=3):
    """F(x, u) = sum_k A_k(x) u^k with F(0, u0) = 0 and F_u(0, u0) = +-dmag.

    Coefficients are at most ``top`` in size; over Q the bit growth of a
    long univariate expansion, and so its cost, varies less with top=1.
    """
    u0 = Fraction(rng.choice((1, -1, 2) if top > 1 else (1, -1)))
    a = [Fraction(0)] * (du + 1)
    for k in range(2, du + 1):
        a[k] = small(rng, top)
    d = rng.choice((1, -1)) * dmag
    a[1] = d - sum(k * a[k] * u0 ** (k - 1) for k in range(2, du + 1))
    a[0] = -sum(a[k] * u0**k for k in range(1, du + 1))
    A = [add(const(nx, a[k]), rand_poly(rng, nx, nterms, 1, 2, top)) for k in range(du + 1)]
    # F(x, u0) gets a nonzero x_i term for every i, so f is dense in all variables
    for i in range(nx):
        e = mono(nx, i)
        rest = sum(A[k].get(e, 0) * u0**k for k in range(1, du + 1))
        A[0][e] = small(rng, top) - rest
    A[0] = {e: cf for e, cf in A[0].items() if cf}
    F = {}
    for k, Ak in enumerate(A):
        for e, cf in Ak.items():
            F[e + (k,)] = cf
    names = X[:nx]
    text = header(field, "x: " + " ".join(names), c)
    text += f"hensel g : {format_poly(F, names + ('u',))} @ {u0}\ntask lift g\n"
    Af = [field.convert(Ak) for Ak in A]
    steps = 1 if du == 1 else (c - 1).bit_length()

    def check(out):
        rep = Report(out)
        expect(rep.value("status") == "OK", "status is not OK")
        f = series_of(rep.item("g"), names, field, c)
        expect(f.get((0,) * nx) == field(u0), "series does not start at the seed")
        acc = Af[du]
        for k in range(du - 1, -1, -1):
            acc = add(mul(acc, f, field, below=c), Af[k])
        expect(not field.clean(truncate(acc, c)), "F(x, f) has a term below the order")
        expect(rep.value("newton steps") == str(steps), f"newton steps differ from {steps}")

    return text, [], check


def gen_implicit(rng, field, n, c, nterms):
    a = small(rng)
    f = add({mono(n, n - 1): a}, rand_poly(rng, n, nterms, 2, 3))
    f = add(f, embed(rand_poly(rng, n - 1, 1, 1, 1), n, 0))
    names = X[:n]
    text = header(field, "x: " + " ".join(names), c)
    text += f"series f = {format_poly(f, names)}\ntask implicit f\n"
    ff = field.convert(f)
    xn = {mono(n, n - 1): field(1)}

    def check(out):
        rep = Report(out)
        expect(rep.value("status") == "OK", "status is not OK")
        h = embed(series_of(rep.item("h"), names[:-1], field, c), n, 0)
        u = series_of(rep.item("u"), names, field, c)
        res = add(add(mul(ff, u, field, below=c), xn), h, scale=-1)
        expect(not field.clean(truncate(res, c)), "f*u + x_n - h has a term below the order")

    return text, [], check


def gen_order(rng, field, n, c, nterms):
    f = rand_poly(rng, n, nterms, 0, c + 3)
    names = X[:n]
    text = header(field, "x: " + " ".join(names), c)
    text += f"series f = {format_poly(f, names)}\ntask order f\n"
    want = field.convert(truncate(f, c))
    val = min((deg(e) for e in want), default=c)

    def check(out):
        rep = Report(out)
        expect(series_of(rep.item("f"), names, field, c) == want, "truncation differs")
        expect(rep.value("valuation lower bound") == str(val), "valuation differs")

    return text, [], check


# ---------------------------------------------------------------------------
# linear families: nested systems, division, truncated comparators


def _matrix_text(T, names):
    rows = ", ".join("[" + ", ".join(format_poly(e, names) for e in row) + "]" for row in T)
    return f"[ {rows} ]"


def _vector_text(v, names):
    return "[ " + ", ".join(format_poly(e, names) for e in v) + " ]"


def _apply(T, y, field, below):
    out = []
    for row in T:
        acc = {}
        for e, yi in zip(row, y):
            acc = add(acc, mul(e, yi, field, below))
        out.append(field.clean(acc))
    return out


def _nested_unknowns(rng, n, sigma, below, nterms):
    return [embed(rand_poly(rng, s, nterms, 0, below - 1), n, 0) for s in sigma]


def _check_solution(rep, names, field, T, b, sigma, order, pinned=None, pin_below=0):
    expect(rep.value("status") == "SOLVABLE", "status is not SOLVABLE")
    expect(rep.value("validity order") == str(order), "validity order differs")
    m = len(sigma)
    Tf = [[field.convert(e) for e in row] for row in T]
    bf = [field.convert(e) for e in b]
    y = [series_of(rep.item(f"y{i + 1}"), names, field, order) for i in range(m)]
    for i, yi in enumerate(y):
        expect(uses_only(yi, sigma[i]), f"y{i + 1} breaks its nesting bound")
    for r, lhs in enumerate(_apply(Tf, y, field, order)):
        expect(not field.clean(add(lhs, truncate(bf[r], order), -1)), "T*y - b is not 0")
    if pinned is not None:
        for yi, ti in zip(y, pinned):
            expect(truncate(yi, pin_below) == field.convert(truncate(ti, pin_below)),
                   "solution leaves its target below the precision")
    dim = int(rep.value("nullspace dimension"))
    for text in rep.items("nullspace", dim):
        v = [series_of(s, names, field, order) for s in parse_vector(text)]
        expect(len(v) == m, "nullspace vector has the wrong length")
        for i, vi in enumerate(v):
            expect(uses_only(vi, sigma[i]), "nullspace vector breaks its nesting bound")
            expect(vanishes_below(vi, pin_below), "nullspace vector moves a pinned term")
        expect(not any(_apply(Tf, v, field, order)), "T*v is not 0 for a nullspace vector")


def gen_solve(rng, field, n, sigma, p, c, kind):
    """kind: 'unit' (small nullity), 'deep' (large nullity) or 'obstruct' (UNSOLVABLE)."""
    m = len(sigma)
    names = X[:n]
    x1 = {mono(n, 0): Fraction(1)}
    T = []
    for r in range(p):
        row = []
        for i in range(m):
            if kind == "unit":
                e = add(const(n, small(rng) if i == r else 0), rand_poly(rng, n, 2, 1, 2))
            elif kind == "deep":
                e = rand_poly(rng, n, 2, 2, 3)
            else:
                e = mul(x1, rand_poly(rng, n, 2, 0, 1), Field())
            row.append(e)
        T.append(row)
    ystar = _nested_unknowns(rng, n, sigma, c, 3)
    b = [truncate(e, c) for e in _apply(T, ystar, Field(), c)]
    k = None
    if kind == "obstruct":
        k = rng.randint(1, 3)
        r = rng.randrange(p)
        b[r] = add(b[r], {mono(n, 1, k): small(rng)})
    text = header(field, "x: " + " ".join(names), c)
    text += f"matrix T = {_matrix_text(T, names)}\nvector b = {_vector_text(b, names)}\n"
    text += "nesting s = " + " ".join(map(str, sigma)) + "\ntask solve-nested T b s\n"

    def check(out):
        rep = Report(out)
        if k is not None:
            expect(rep.value("status") == "UNSOLVABLE", "status is not UNSOLVABLE")
            expect(rep.value("obstruction degree") == str(k), f"obstruction is not at {k}")
            return
        _check_solution(rep, names, field, T, b, sigma, c)

    return text, [], check


def gen_approximate(rng, field, n, sigma, p, c, big_c):
    m = len(sigma)
    names = X[:n]
    T = [[add(const(n, small(rng) if i == r else 0), rand_poly(rng, n, 2, 1, 2))
          for i in range(m)] for r in range(p)]
    target = _nested_unknowns(rng, n, sigma, big_c, 3)
    b = [truncate(e, big_c) for e in _apply(T, target, Field(), big_c)]
    text = header(field, "x: " + " ".join(names), c)
    text += f"matrix T = {_matrix_text(T, names)}\nvector b = {_vector_text(b, names)}\n"
    text += "nesting s = " + " ".join(map(str, sigma)) + "\n"
    text += f"vector t0 = {_vector_text(target, names)}\ntask approximate T b s t0\n"

    def check(out):
        _check_solution(Report(out), names, field, T, b, sigma, big_c, target, c)

    return text, ["--working-order", str(big_c)], check


def gen_homogenize(rng, field, n, sigma, p, c):
    m = len(sigma)
    names = X[:n]
    T = [[rand_poly(rng, n, 2, 0, c) for _ in range(m)] for _ in range(p)]
    b = [rand_poly(rng, n, 3, 0, c) for _ in range(p)]
    text = header(field, "x: " + " ".join(names), c)
    text += f"matrix T = {_matrix_text(T, names)}\nvector b = {_vector_text(b, names)}\n"
    text += "nesting s = " + " ".join(map(str, sigma)) + "\ntask homogenize T b s\n"
    sig = " ".join(map(str, (min(sigma),) + tuple(sigma)))

    def check(out):
        rep = Report(out)
        expect(rep.value("sigma") == sig, "homogenized profile differs")
        for r in range(p):
            want = [{e: -cf for e, cf in b[r].items()}] + T[r]
            got = [series_of(s, names, field, c) for s in parse_vector(rep.item(f"T[{r}]"))]
            expect(got == [field.convert(truncate(e, c)) for e in want], f"T[{r}] differs")
            expect(not series_of(rep.item(f"b[{r}]"), names, field, c), f"b[{r}] is not 0")

    return text, [], check


def gen_weierstrass(rng, field, n, d, c, mixed):
    """f = a x_n^d + b x_n^(d+1) + terms on the fixed support ``mixed``, regular of order d."""
    names = X[:n]
    f = {mono(n, n - 1, d): small(rng), mono(n, n - 1, d + 1): small(rng)}
    f = add(f, fill(rng, mixed))
    g = rand_poly(rng, n, 5, 0, c + 1)
    text = header(field, "x: " + " ".join(names), c)
    text += f"series f = {format_poly(f, names)}\nseries g = {format_poly(g, names)}\n"
    text += "task weierstrass f g\n"
    ff, gf = field.convert(f), field.convert(g)

    def check(out):
        rep = Report(out)
        expect(rep.value("regularity order") == str(d), "regularity order differs")
        q = series_of(rep.item("q"), names, field, c)
        res = add(gf, mul(ff, q, field, below=c), -1)
        for k in range(d):
            a = embed(series_of(rep.item(f"a[{k}]"), names[:-1], field, c), n, 0)
            a = {e[:-1] + (e[-1] + k,): cf for e, cf in a.items()}
            res = add(res, a, -1)
        expect(not field.clean(truncate(res, c)), "g - f*q - sum a_k x_n^k is not 0")

    return text, [], check


def fill(rng, support) -> dict:
    """Random nonzero coefficients +-p/q (p <= 4, q <= 3) on a fixed support.

    A support has few terms, so the coefficients need enough values for a
    run's rounds to find texts that have not occurred yet.
    """
    return {tuple(e): small(rng, 4) / rng.randint(1, 3) for e in support}


def _images(rng, shapes):
    """x_i -> a polynomial in y on the fixed support ``shapes[i]``."""
    return [fill(rng, support) for support in shapes]


def _ynames(ny):
    return ("s", "t")[2 - ny :]


def _ring_text(nx, ny):
    return "x: " + " ".join(X[:nx]) + " ; y: " + " ".join(_ynames(ny))


def _morphism_text(images, ny):
    return " ; ".join(
        f"{X[i]} -> {format_poly(img, _ynames(ny))}" for i, img in enumerate(images)
    )


def _kills(polys, images, field, ny, below=None):
    imf = [field.convert(img) for img in images]
    for g in polys:
        value = compose(g, imf, field, ny, below)
        if below is not None:
            value = truncate(value, below)
        if value:
            return False
    return True


def gen_kernel(rng, field, task, shapes, c, top):
    images = _images(rng, shapes)
    nx, ny = len(shapes), len(shapes[0][0])
    text = header(field, _ring_text(nx, ny), c)
    text += f"morphism phi : {_morphism_text(images, ny)}\ntask {task} phi\n"
    xs = X[:nx]

    def check(out):
        rep = Report(out)
        orders = [int(w) for w in rep.value("working orders").split()]
        expect(orders[-1] == top, "working schedule does not end at the working order")
        exact = [parse_poly(s, xs, field) for s in
                 rep.items("exact", int(rep.value("exact kernel generators")))]
        expect(_kills(exact, images, field, ny), "an exact kernel generator is not killed")
        if task == "kernel":
            dims = rep.value("dimensions").split()
            cands = [parse_poly(s, xs, field) for s in rep.items("candidate", int(dims[-1]))]
            expect(_kills(cands, images, field, ny, top), "a candidate is not killed")
            expect(all(deg(e) < c for g in cands for e in g), "candidate degree too high")
        else:
            expect(rep.value("status") in ("EQUAL", "UNEQUAL"), "unknown status")

    return text, ["--working-order", str(top)], check


def gen_eliminate(rng, field, shapes, c, top):
    images = _images(rng, shapes)
    nx, ny = len(shapes), len(shapes[0][0])
    gens = ", ".join(
        f"{X[i]} - ({format_poly(img, _ynames(ny))})" for i, img in enumerate(images)
    )
    text = header(field, _ring_text(nx, ny), c)
    text += f"ideal I = ( {gens} )\ntask eliminate I\n"
    xs = X[:nx]

    def check(out):
        rep = Report(out)
        elim = [parse_poly(s, xs, field) for s in rep.items("elim", int(rep.value("generators")))]
        expect(_kills(elim, images, field, ny), "an elimination generator is not killed")
        if top is not None:
            key = f"truncated basis (order {c}, working order {top})"
            trunc = [parse_poly(s, xs, field) for s in rep.items("truncated", int(rep.value(key)))]
            expect(_kills(trunc, images, field, ny, top), "a truncated generator is not killed")

    flags = [] if top is None else ["--working-order", str(top)]
    return text, flags, check


def gen_preimage(rng, field, shapes, c):
    images = _images(rng, shapes)
    nx, ny = len(shapes), len(shapes[0][0])
    h = rand_poly(rng, nx, 3, 1, 3)
    b = compose(h, images, Field(), ny)
    text = header(field, _ring_text(nx, ny), c)
    text += f"series b = {format_poly(embed(b, nx + ny, nx), X[:nx] + _ynames(ny))}\n"
    text += f"morphism phi : {_morphism_text(images, ny)}\ntask preimage phi b\n"
    bf = field.convert(b)

    def check(out):
        rep = Report(out)
        expect(rep.value("status") == "OK", "no preimage reported")
        f = series_of(rep.item("f"), X[:nx], field, c)
        value = compose(f, [field.convert(img) for img in images], field, ny, c)
        expect(not field.clean(truncate(add(value, bf, -1), c)), "phi(f) - b is not 0")

    return text, [], check


def _module(rng, shape):
    """Generator vectors with random coefficients on the fixed supports of ``shape``."""
    return [[fill(rng, support) for support in vec] for vec in shape]


def _nvars(shape):
    return len(next(e for vec in shape for support in vec for e in support))


def _module_text(M, names):
    return "{ " + ", ".join("(" + ", ".join(format_poly(e, names) for e in v) + ")"
                            for v in M) + " }"


def gen_chevalley(rng, field, shape, p, c, mode):
    M = _module(rng, shape)
    n = _nvars(shape)
    names = X[:n]
    text = header(field, "x: " + " ".join(names), c)
    text += f"module M = {_module_text(M, names)}\ntask chevalley M {p}\n"

    def check(out):
        rep = Report(out)
        expect(rep.value("mode") == mode, "mode differs")
        for k in range(1, c + 1):
            line = rep.lines[2 + k]
            want = f"c={k} beta="
            expect(line.startswith(want), f"missing shift line for c={k}")
            beta, _, rest = line[len(want):].partition(" ")
            expect(beta.isdigit(), "shift is not a natural number")
            if mode == "truncated":
                expect(rest == f"D={k + 4}", "working order differs")

    flags = ["--mode", "truncated"] if mode == "truncated" else []
    return text, flags, check


# ---------------------------------------------------------------------------
# groebner families: exact elimination, syzygies, module intersections


def gen_syzygies(rng, field, shape):
    T = _module(rng, shape)
    n, m = _nvars(shape), len(shape[0])
    names = X[:n]
    text = header(field, "x: " + " ".join(names), 4)
    text += f"matrix T = {_matrix_text(T, names)}\ntask syzygies T\n"
    Tf = [[field.convert(e) for e in row] for row in T]

    def check(out):
        rep = Report(out)
        for s in rep.items("syz", int(rep.value("generators"))):
            v = [parse_poly(e, names, field) for e in parse_vector(s)]
            expect(len(v) == m, "syzygy has the wrong length")
            expect(not any(_apply(Tf, v, field, None)), "T*s is not 0")

    return text, [], check


def gen_intersect(rng, field, shape, p):
    M = _module(rng, shape)
    n, rank = _nvars(shape), len(shape[0])
    names = X[:n]
    text = header(field, "x: " + " ".join(names), 4)
    text += f"module M = {_module_text(M, names)}\ntask intersect-module M {p}\n"

    def check(out):
        rep = Report(out)
        for s in rep.items("gen", int(rep.value("generators"))):
            v = [parse_poly(e, names, field) for e in parse_vector(s)]
            expect(len(v) == rank - p, "generator has the wrong length")
            expect(any(v), "zero generator")

    return text, [], check


def gen_idealize(rng, field, shape, p):
    M = _module(rng, shape)
    n, rank = _nvars(shape), len(shape[0])
    names = X[:n]
    text = header(field, "x: " + " ".join(names), 4)
    text += f"module M = {_module_text(M, names)}\ntask idealize M {p}\n"
    slack = [f"z{i + 1}" for i in range(p)] + [f"w{j + 1}" for j in range(rank - p)]
    big = names + tuple(slack)
    nb = len(big)
    want = []
    for vec in M:  # generator (v_1..v_rank) becomes sum v_i * slack_i
        acc = {}
        for i, e in enumerate(vec):
            acc = add(acc, {k + mono(rank, i): cf for k, cf in e.items()})
        want.append(field.convert(acc))
    for i in range(rank):  # every quadratic slack monomial
        for j in range(i, rank):
            e = tuple(a + b for a, b in zip(mono(nb, n + i), mono(nb, n + j)))
            want.append({e: field(1)})
    want = sorted(want, key=lambda g: sorted(g.items()))

    def check(out):
        rep = Report(out)
        expect(rep.value("ring") == " ".join(big), "idealized ring differs")
        got = [parse_poly(s, big, field) for s in rep.items("gen", int(rep.value("generators")))]
        expect(sorted(got, key=lambda g: sorted(g.items())) == want, "generators differ")

    return text, [], check


# ---------------------------------------------------------------------------
# workloads: slot lists

FAMILIES = {
    "lift": gen_lift,
    "implicit": gen_implicit,
    "order": gen_order,
    "solve": gen_solve,
    "approximate": gen_approximate,
    "homogenize": gen_homogenize,
    "weierstrass": gen_weierstrass,
    "kernel": gen_kernel,
    "eliminate": gen_eliminate,
    "preimage": gen_preimage,
    "chevalley": gen_chevalley,
    "syzygies": gen_syzygies,
    "intersect": gen_intersect,
    "idealize": gen_idealize,
}

# Slots are listed in rising cost.  Each list has a few slots of one shape
# near its median and near its 90th percentile, so those percentiles fall
# inside a cluster of like problems rather than on a gap between families.
CURVE = [[(2,)], [(3,)]]
CHEV_TRUNC = dict(shape=[[[(1, 0)], [(0, 1)]]], p=1, c=4, mode="truncated")
INJ_CURVE = dict(task="check-injective", shapes=CURVE, c=6, top=16)
LINEAR_SLOTS = [
    ("homogenize", dict(n=2, sigma=(1, 2), p=2, c=10)),
    ("solve", dict(n=2, sigma=(1, 2), p=1, c=12, kind="obstruct")),
    ("solve", dict(n=3, sigma=(1, 3, 2), p=2, c=10, kind="obstruct")),
    ("approximate", dict(n=2, sigma=(1, 2), p=1, c=4, big_c=12)),
    ("weierstrass", dict(n=3, d=2, c=6, mixed=[(1, 0, 0), (0, 1, 1), (1, 1, 0)])),
    ("weierstrass", dict(n=2, d=3, c=12, mixed=[(1, 0), (1, 1), (2, 0)])),
    ("preimage", dict(shapes=[[(1, 0)], [(0, 1), (1, 1)]], c=8)),
    ("eliminate", dict(shapes=CURVE, c=5, top=14)),
    ("preimage", dict(shapes=[[(1,)], [(2,), (3,)]], c=12)),
    ("solve", dict(n=2, sigma=(2, 2, 1), p=2, c=14, kind="unit")),
    ("solve", dict(n=3, sigma=(2, 3, 3), p=2, c=9, kind="deep")),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("solve", dict(n=3, sigma=(3, 3), p=1, c=10, kind="deep")),
    ("chevalley", dict(shape=[[[(1, 0)], [(0, 1)]]], p=1, c=5, mode="truncated")),
    ("weierstrass", dict(n=2, d=2, c=16, mixed=[(1, 0), (1, 1), (2, 1)])),
    ("eliminate", dict(shapes=[[(1,)], [(2,), (3,)]], c=5, top=12)),
    ("kernel", dict(task="kernel", shapes=[[(1, 0)], [(0, 1)], [(1, 1)]], c=4, top=8)),
    ("kernel", dict(task="check-injective", shapes=[[(2,)], [(3,), (4,)]], c=6, top=14)),
    ("kernel", INJ_CURVE),
    ("kernel", INJ_CURVE),
    ("kernel", INJ_CURVE),
    ("kernel", dict(task="kernel", shapes=[[(1,)], [(2,), (3,)]], c=5, top=12)),
    ("kernel", dict(task="check-injective", shapes=CURVE, c=8, top=20)),
]

CURVE_457 = [[(4,)], [(5,)], [(7,)]]
SYZ_ROW = [[(2, 0, 0), (0, 1, 1)], [(0, 2, 0), (1, 0, 1)], [(0, 0, 2), (1, 1, 0)]]
GROEBNER_SLOTS = [
    ("idealize", dict(shape=[[[(1, 0)], [(0, 1)]], [[(0, 2)], [(1, 1)]]], p=1)),
    ("intersect", dict(shape=[[[(1, 0)], [(0, 1)], [(1, 1)]], [[(0, 2)], [(2, 0)], [(1, 0)]],
                              [[(1, 1)], [(0, 2), (1, 0)], [(0, 1)]]], p=1)),
    ("eliminate", dict(shapes=[[(2, 0)], [(1, 1)], [(0, 2)]], c=3, top=None)),
    ("syzygies", dict(shape=[SYZ_ROW + [[(1, 1, 0), (0, 0, 2)]]])),
    ("eliminate", dict(shapes=[[(4,)], [(6,)], [(7,)]], c=3, top=None)),
    ("eliminate", dict(shapes=[[(2, 0)], [(1, 1)], [(0, 3)]], c=3, top=None)),
    ("chevalley", dict(shape=[[[(1, 0)], [(0, 1)]]], p=1, c=4, mode="exact")),
    ("syzygies", dict(shape=[SYZ_ROW, [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)]]])),
    ("syzygies", dict(shape=[[[(2, 0, 0)], [(1, 1, 0)], [(0, 2, 0)], [(0, 0, 2)]],
                             [[(1, 0, 0)], [(0, 1, 0)], [(0, 0, 1)], [(1, 0, 1)]]])),
    ("eliminate", dict(shapes=[[(2,), (3,)], [(3,)], [(4,), (5,)]], c=3, top=None)),
    ("eliminate", dict(shapes=[[(3, 0)], [(2, 1)], [(1, 2)], [(0, 3)]], c=3, top=None)),
    ("eliminate", dict(shapes=[[(3,)], [(4,)], [(5,)]], c=3, top=None)),
    ("chevalley", dict(shape=[[[(1, 0)], [(0, 1)], [(1, 1)]]], p=1, c=4, mode="exact")),
    ("eliminate", dict(shapes=[[(3,)], [(5,)], [(7,)]], c=3, top=None)),
    ("eliminate", dict(shapes=[[(4,)], [(5,)], [(6,)]], c=3, top=None)),
    ("chevalley", dict(shape=[[[(1, 0)], [(0, 1)]], [[(0, 2)], [(1, 1)]]], p=1, c=4, mode="exact")),
    ("eliminate", dict(shapes=[[(2, 0)], [(1, 2)], [(0, 3)]], c=3, top=None)),
    ("eliminate", dict(shapes=[[(3,)], [(4,)], [(5,)], [(7,)]], c=3, top=None)),
    ("eliminate", dict(shapes=CURVE_457, c=3, top=None)),
    ("eliminate", dict(shapes=CURVE_457, c=3, top=None)),
    ("eliminate", dict(shapes=CURVE_457, c=3, top=None)),
    ("chevalley", dict(shape=[[[(1, 0), (0, 1)], [(0, 1)]], [[(0, 2)], [(1, 0)]]], p=1, c=4,
                       mode="exact")),
    ("eliminate", dict(shapes=[[(5,)], [(7,)], [(9,)]], c=3, top=None)),
]

# The series and linear families over F_p.  The 90th percentile falls among
# five univariate lifts to c = 200: their cost moves about half as much with
# the machine's speed drift as that of the multivariate lifts.
FP_SLOTS = [
    ("homogenize", dict(n=2, sigma=(1, 2), p=2, c=10)),
    ("solve", dict(n=2, sigma=(1, 2), p=1, c=12, kind="obstruct")),
    ("order", dict(n=3, c=8, nterms=12)),
    ("implicit", dict(n=2, c=5, nterms=3)),
    ("lift", dict(nx=2, du=1, c=12, nterms=3, dmag=1)),
    ("solve", dict(n=3, sigma=(1, 3, 2), p=2, c=10, kind="obstruct")),
    ("approximate", dict(n=2, sigma=(1, 2), p=1, c=4, big_c=12)),
    ("weierstrass", dict(n=3, d=2, c=6, mixed=[(1, 0, 0), (0, 1, 1), (1, 1, 0)])),
    ("lift", dict(nx=3, du=2, c=6, nterms=3, dmag=1)),
    ("preimage", dict(shapes=[[(1, 0)], [(0, 1), (1, 1)]], c=8)),
    ("lift", dict(nx=1, du=2, c=48, nterms=2, dmag=1, top=1)),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("chevalley", CHEV_TRUNC),
    ("weierstrass", dict(n=2, d=2, c=16, mixed=[(1, 0), (1, 1), (2, 1)])),
    ("solve", dict(n=2, sigma=(2, 2, 1), p=2, c=14, kind="unit")),
    ("lift", dict(nx=2, du=2, c=15, nterms=3, dmag=1)),
    ("solve", dict(n=3, sigma=(3, 3), p=1, c=10, kind="deep")),
    ("lift", dict(nx=1, du=2, c=65, nterms=2, dmag=1, top=1)),
    ("kernel", dict(task="kernel", shapes=[[(1,)], [(2,), (3,)]], c=5, top=12)),
    ("lift", dict(nx=2, du=2, c=20, nterms=3, dmag=1)),
    ("lift", dict(nx=1, du=2, c=200, nterms=2, dmag=1, top=1)),
    ("lift", dict(nx=1, du=2, c=200, nterms=2, dmag=1, top=1)),
    ("lift", dict(nx=1, du=2, c=200, nterms=2, dmag=1, top=1)),
    ("lift", dict(nx=1, du=2, c=200, nterms=2, dmag=1, top=1)),
    ("lift", dict(nx=1, du=2, c=200, nterms=2, dmag=1, top=1)),
]

WORKLOADS = {
    "linear": (0, LINEAR_SLOTS),
    "groebner": (0, GROEBNER_SLOTS),
    "fp": (PRIME, FP_SLOTS),
}


REFERENCE_SEED = "ref"


def round_problems(workload: str, seed, rnd: int, seen: set) -> list:
    """The problems of one round, none of whose texts is in ``seen``.

    Slot i of round r draws from ``Random("workload:seed:r:i:k")`` for
    k = 0, 1, ... until its text is new, then adds the text to ``seen``.  So
    a run repeats no problem text, and the same seed, with the same rounds
    generated before, gives the same problems.  The reference round, the
    seed ``REFERENCE_SEED``, is generated first in every run.
    """
    p, slots = WORKLOADS[workload]
    field = Field(p, f"Fp {p}") if p else Field(CHECK_PRIME, "Q")
    out = []
    for idx, (family, params) in enumerate(slots):
        for k in range(1000):
            rng = random.Random(f"{workload}:{seed}:{rnd}:{idx}:{k}")
            text, flags, check = FAMILIES[family](rng, field, **params)
            if text not in seen:
                break
        else:
            raise RuntimeError(f"{workload} slot {idx}: no new problem text in 1000 draws")
        seen.add(text)
        out.append(Problem(f"r{rnd}.s{idx}", family, text, flags, check))
    return out
