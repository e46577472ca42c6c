"""Algebraic power series as simple-root codes, expanded by Newton iteration.

A code is a defining polynomial F(x, u) together with a seed value u0 such
that F(0, u0) = 0 and dF/du(0, u0) != 0.  Under these conditions a unique
series f with f(0) = u0 and F(x, f) = 0 exists, and Newton iteration with
precision doubling reaches any target order in logarithmically many steps.
"""

from __future__ import annotations

from .errors import InvalidCode, NotSimpleRoot, TruncasError
from .series import Polynomial, Record, Ring, TruncatedSeries, substitute


class HenselCode(Record):
    """Defining polynomial, seed, and a monotonically extended expansion cache.

    ``poly`` lives over ``ring`` extended by one distinguished unknown,
    which is the final variable of ``poly.ring``.
    """

    __slots__ = ("ring", "poly", "seed", "_cache")

    def __init__(self, ring: Ring, poly: Polynomial, seed, _cache: TruncatedSeries = None):
        if poly.ring.nvars != ring.nvars + 1:
            raise TruncasError("defining polynomial must add exactly one unknown")
        if poly.ring.names[: ring.nvars] != ring.names:
            raise TruncasError("defining polynomial must extend the code's ring")
        self.ring, self.poly, self.seed, self._cache = ring, poly, ring.field(seed), _cache

    @property
    def unknown_index(self) -> int:
        return self.ring.nvars


def _eval_origin(code: HenselCode, poly: Polynomial):
    """Evaluate a polynomial over (x, u) at x = 0, u = seed."""
    total = code.ring.field.zero
    for e, c in poly.terms.items():
        if any(e[i] for i in range(code.ring.nvars)):
            continue
        total = total + c * code.seed ** e[code.unknown_index]
    return total


def validate(code: HenselCode):
    """Check both simple-root conditions; returns (ok, reason)."""
    if _eval_origin(code, code.poly):
        return False, "seed is not a root of the defining polynomial at the origin"
    deriv = code.poly.derivative(code.unknown_index)
    if not _eval_origin(code, deriv):
        return False, "u-derivative vanishes at the seed (root is not simple)"
    return True, "simple root at the origin"


def _eval_at(code: HenselCode, poly: Polynomial, f: TruncatedSeries) -> TruncatedSeries:
    order = f.known_order
    images = [code.ring.variable_series(i, order) for i in range(code.ring.nvars)]
    images.append(f)
    return substitute(poly, images)


def _u_degree(code: HenselCode) -> int:
    u = code.unknown_index
    return max((e[u] for e in code.poly.terms), default=0)


def lift_with_steps(code: HenselCode, c: int):
    """Expand the code to order c; returns (series, newton step count)."""
    if c < 1:
        raise TruncasError("target order must be positive")
    ok, reason = validate(code)
    if not ok:
        raise InvalidCode(reason)
    if code._cache is not None and code._cache.known_order >= c:
        return code._cache.truncate(c), 0

    ring = code.ring
    fieldk = ring.field
    u = code.unknown_index
    F = code.poly
    Fu = F.derivative(u)

    if _u_degree(code) == 1:
        # linear code: F = A(x) + B(x) u with B a unit; solve directly
        a_terms, b_terms = {}, {}
        for e, coeff in F.terms.items():
            if e[u] == 0:
                a_terms[e[:u]] = coeff
            else:
                b_terms[e[:u]] = coeff
        A = TruncatedSeries(ring, a_terms, c)
        B = TruncatedSeries(ring, b_terms, c)
        f = (-A) * B.invert()
        f = TruncatedSeries(ring, f.terms, c)
        code._cache = f
        return f, 1

    f = TruncatedSeries.const(ring, code.seed, 1)
    steps = 0
    while f.known_order < c:
        target = min(2 * f.known_order, c)
        # reinterpret at the doubled order: the uncorrected coefficients are
        # provisional, and the Newton update below makes them exact
        cand = TruncatedSeries(ring, f.terms, target)
        num = _eval_at(code, F, cand)
        den = _eval_at(code, Fu, cand)
        # num = F(cand) has no term below its valuation v >= the previous
        # order, so below target num * den^-1 needs den^-1 only below
        # target - v: half precision (von zur Gathen & Gerhard, Modern
        # Computer Algebra, section 9), a quarter of the work for one
        # variable.  The product's terms and known_order are unchanged.
        inv = den.truncate(max(1, target - num.valuation())).invert()
        corr = num * inv
        f = TruncatedSeries(ring, (cand - corr).terms, target)
        steps += 1
    code._cache = f
    return f, steps


def lift(code: HenselCode, c: int) -> TruncatedSeries:
    return lift_with_steps(code, c)[0]


def implicit_solve(G: Polynomial, c: int) -> TruncatedSeries:
    """Solve G(vars, u) = 0 for u as a series vanishing at the origin.

    G is a polynomial whose final variable is the unknown; requires
    G(0, 0) = 0 and a nonvanishing u-derivative at the origin.
    """
    base = Ring(G.ring.field, G.ring.names[:-1])
    code = HenselCode(base, G, base.field.zero)
    ok, reason = validate(code)
    if not ok:
        raise NotSimpleRoot(reason)
    return lift(code, c)
