"""Truncated solving of linear series systems with per-unknown variable bounds.

A system T y = b over a series ring is solved modulo (x)^c by exact linear
algebra on coefficients.  Unknown i is a series supported on the first
sigma(i) variables; its coefficients below degree c become the columns of a
sparse linear system whose rows are indexed by (equation, monomial).  Rows
are inserted degree by degree, so an inconsistency is detected at the least
degree where the truncated equations have no solution.

Division with remainder by a last-variable-regular series rides on the same
row reduction, but its coefficient system is truncated along a staircase:
each layer of leading-block degree is solved to a last-variable height d
above what the next layer needs.  Under that shape the system is uniquely
solvable, so the output cannot depend on pivoting.  Implicit linearization
of a transverse series is the order-one case of the division.
"""

from __future__ import annotations

from .errors import (
    NonUnit,
    NotRegular,
    NotTransverse,
    PrecisionTooLow,
    TargetNotSolution,
    TruncasError,
)
from .linalg import RowReducer
from .series import (
    FrozenRecord,
    Polynomial,
    Record,
    Ring,
    TruncatedSeries,
    exp_add,
    exponents_of_degree,
    iter_exponents,
    total_degree,
)


class NestedProfile(FrozenRecord):
    """Per-unknown variable bounds sigma, with the permutation sorting them."""

    __slots__ = ("sigma",)

    def __init__(self, sigma: tuple):
        if any(s < 0 for s in sigma):
            raise TruncasError("sigma entries must be nonnegative")
        object.__setattr__(self, "sigma", sigma)

    @property
    def m(self) -> int:
        return len(self.sigma)

    def permutation(self):
        """Indices ordering the unknowns by weakly increasing sigma (stable)."""
        return tuple(sorted(range(self.m), key=lambda i: (self.sigma[i], i)))

    def validate_for(self, ring: Ring):
        if any(s > ring.nvars for s in self.sigma):
            raise TruncasError("sigma entry exceeds the variable count")


def _coerce_entry(entry, ring: Ring, c: int) -> TruncatedSeries:
    if isinstance(entry, TruncatedSeries):
        if entry.ring != ring:
            raise TruncasError("system entries live in different rings")
        if entry.known_order < c:
            raise PrecisionTooLow(
                f"entry known to order {entry.known_order} < required {c}"
            )
        return entry
    if isinstance(entry, Polynomial):
        if entry.ring != ring:
            raise TruncasError("system entries live in different rings")
        return entry.as_series(c)
    raise TruncasError(f"cannot use {entry!r} as a system entry")


class NestedLinearSystem:
    """T y = b modulo (x)^c with a nesting profile on the unknowns."""

    def __init__(self, T, b, profile: NestedProfile, c: int):
        if c < 1:
            raise TruncasError("precision must be positive")
        if not T or not T[0]:
            raise TruncasError("empty system")
        first = T[0][0]
        ring = first.ring
        profile.validate_for(ring)
        m = profile.m
        if any(len(row) != m for row in T):
            raise TruncasError("matrix width disagrees with the nesting profile")
        if len(b) != len(T):
            raise TruncasError("right side length disagrees with the matrix")
        self.ring = ring
        self.c = c
        self.profile = profile
        self.T = [[_coerce_entry(e, ring, c) for e in row] for row in T]
        self.b = [_coerce_entry(e, ring, c) for e in b]

    @property
    def m(self) -> int:
        return self.profile.m

    @property
    def p(self) -> int:
        return len(self.T)


class SolutionSet(Record):
    """Truncated solution set: a particular solution plus a nullspace basis."""

    __slots__ = ("status", "obstruction_degree", "particular", "nullspace_basis", "validity_order")

    def __init__(self, status, obstruction_degree, particular, nullspace_basis, validity_order):
        self.status = status  # "solvable" or "unsolvable"
        self.obstruction_degree, self.validity_order = obstruction_degree, validity_order
        self.particular, self.nullspace_basis = particular, nullspace_basis

    @property
    def solvable(self) -> bool:
        return self.status == "solvable"


def _unknown_columns(sys: NestedLinearSystem):
    """Assign column ranks to the coefficient unknowns u_{i,alpha}."""
    cols = []
    for i in range(sys.m):
        bound = sys.profile.sigma[i]
        for alpha in iter_exponents(bound, sys.c):
            full = alpha + (0,) * (sys.ring.nvars - bound)
            cols.append((i, full))
    return cols, {key: rank for rank, key in enumerate(cols)}


def solve_nested(sys: NestedLinearSystem, pins=None) -> SolutionSet:
    """Solve the truncated system; pins force specific coefficient unknowns.

    ``pins`` maps (unknown index, exponent) to field values; the values are
    added as extra equations before the coefficient equations.
    """
    field = sys.ring.field
    c = sys.c
    n = sys.ring.nvars
    cols, rank_of = _unknown_columns(sys)

    red = RowReducer(field)
    if pins:
        for (i, alpha), value in sorted(pins.items()):
            key = (i, tuple(alpha))
            if key not in rank_of:
                raise TruncasError(f"pinned unknown {key} outside the system")
            st = red.add({rank_of[key]: field.one}, field(value))
            if st == "inconsistent":
                raise TruncasError("contradictory pins")

    # row for equation r and monomial gamma: sum over i, terms of T[r][i]
    rows = {}  # (r, gamma) -> dict col -> coeff
    for r in range(sys.p):
        for i in range(sys.m):
            entry = sys.T[r][i]
            if entry.is_zero():
                continue
            bound = sys.profile.sigma[i]
            for alpha in iter_exponents(bound, c):
                full = alpha + (0,) * (n - bound)
                col = rank_of[(i, full)]
                base_deg = total_degree(alpha)
                for e, coeff in entry.terms.items():
                    gamma = exp_add(e, full)
                    if base_deg + total_degree(e) >= c:
                        continue
                    row = rows.setdefault((r, gamma), {})
                    cur = row.get(col)
                    nxt = coeff if cur is None else cur + coeff
                    if nxt:
                        row[col] = nxt
                    elif cur is not None:
                        del row[col]

    obstruction = None
    for d in range(c):
        for gamma in exponents_of_degree(n, d):
            for r in range(sys.p):
                row = rows.get((r, gamma), {})
                rhs = sys.b[r].coefficient(gamma)
                if not row and not rhs:
                    continue
                st = red.add(row, rhs)
                if st == "inconsistent":
                    obstruction = d
                    break
            if obstruction is not None:
                break
        if obstruction is not None:
            break

    if obstruction is not None:
        return SolutionSet("unsolvable", obstruction, None, [], c)

    key_of = {rank: key for key, rank in rank_of.items()}
    particular = _columns_to_vector(red.particular_solution(), key_of, sys)
    basis_vecs = red.nullspace_basis([rank_of[key] for key in cols])
    nullspace = [_columns_to_vector(v, key_of, sys) for v in basis_vecs]
    return SolutionSet("solvable", None, particular, nullspace, c)


def _columns_to_vector(values, key_of, sys: NestedLinearSystem):
    """Series vector of a column-ranked solution; ``key_of`` maps rank to (i, exponent)."""
    terms = [dict() for _ in range(sys.m)]
    for col, val in values.items():
        if val:
            i, full = key_of[col]
            terms[i][full] = val
    return [TruncatedSeries(sys.ring, t, sys.c) for t in terms]


def residual(sys: NestedLinearSystem, vec) -> list:
    """T·vec − b as series; all entries have known order >= c."""
    out = []
    for r in range(sys.p):
        acc = sys.b[r].scale(-1)
        for i in range(sys.m):
            acc = acc + sys.T[r][i] * vec[i]
        out.append(acc)
    return out


def approximate(sys: NestedLinearSystem, target) -> SolutionSet:
    """Solve at the target's order, agreeing with the target below degree c.

    The target must itself solve the system modulo (x)^C where C is the
    least known order among its components (C >= c).  Its coefficients below
    degree c are pinned, so every reported solution extends the target.
    """
    if len(target) != sys.m:
        raise TruncasError("target length disagrees with the system")
    big_c = min(t.known_order for t in target)
    if big_c < sys.c:
        raise PrecisionTooLow("target is known to a lower order than the system")
    work = NestedLinearSystem(sys.T, sys.b, sys.profile, big_c)
    for i, t in enumerate(target):
        if t.ring != sys.ring:
            raise TruncasError("target lives in a different ring")
        if not t.nested_support_ok(sys.profile.sigma[i]):
            raise TargetNotSolution("target violates the nesting profile")
    if not all(
        all(total_degree(e) >= big_c for e in res.terms)
        for res in residual(work, list(target))
    ):
        raise TargetNotSolution("target does not solve the system at its order")
    pins = {}
    for i in range(sys.m):
        bound = sys.profile.sigma[i]
        for alpha in iter_exponents(bound, sys.c):
            full = alpha + (0,) * (sys.ring.nvars - bound)
            pins[(i, full)] = target[i].coefficient(full)
    return solve_nested(work, pins=pins)


def homogenize(sys: NestedLinearSystem) -> NestedLinearSystem:
    """Append a fresh unknown y0 multiplying −b; the right side becomes 0.

    y0's bound is the least sigma value, the first entry once the unknowns
    are permuted into weakly increasing order.
    """
    sigma0 = min(sys.profile.sigma) if sys.profile.sigma else sys.ring.nvars
    new_sigma = (sigma0,) + tuple(sys.profile.sigma)
    zero = TruncatedSeries.zero(sys.ring, sys.c)
    T2 = [[sys.b[r].scale(-1)] + list(sys.T[r]) for r in range(sys.p)]
    b2 = [zero for _ in range(sys.p)]
    return NestedLinearSystem(T2, b2, NestedProfile(new_sigma), sys.c)


def recover_from_homogeneous(sol: SolutionSet, c: int) -> list:
    """Divide the trailing components by the leading one (y0)."""
    if not sol.solvable:
        raise TruncasError("cannot recover from an unsolvable solution set")
    vec = sol.particular
    y0 = vec[0]
    if not y0.constant_term():
        raise NonUnit("leading component vanishes at the origin")
    inv = y0.invert()
    return [(inv * comp).truncate(c) for comp in vec[1:]]


# ---------------------------------------------------------------------------
# division with remainder and implicit linearization


def regularity_order(f: TruncatedSeries) -> int:
    """Least d with f(0,...,0,x_n) having a nonzero x_n^d coefficient."""
    n = f.ring.nvars
    best = None
    for e, _ in f.terms.items():
        if all(x == 0 for x in e[: n - 1]):
            d = e[n - 1]
            if best is None or d < best:
                best = d
    if best is None:
        raise NotRegular(
            "series is not regular in the last variable below its known order"
        )
    return best


def division_working_order(c: int, d: int) -> int:
    """Input order needed to pin the division output below total degree c.

    The x1^k coefficient of a remainder term reflects dividend data of total
    degree about d*k, so plain c+d padding is not enough once d >= 2.
    """
    return max(c, c * d + 1)


def weierstrass_divide(
    f: TruncatedSeries, g: TruncatedSeries, c: int, column_shuffle_seed=None
):
    """Write g = f q + sum_k a_k x_n^k mod (x)^c with the a_k free of x_n.

    The coefficient unknowns are layered by degree in the leading variables
    x', with the x_n-height of layer L running d levels above what layer
    L+1 needs; under that staircase truncation the linear system has a
    unique solution, so the outcome does not depend on pivoting.  The
    returned q and a_k are the truncations below degree c of the unique
    formal division result.
    """
    if f.ring != g.ring:
        raise TruncasError("dividend and divisor live in different rings")
    ring = f.ring
    n = ring.nvars
    d = regularity_order(f)
    w = division_working_order(c, d)
    if f.known_order < w or g.known_order < w:
        raise PrecisionTooLow(
            f"division at order {c} with regularity {d} needs inputs known to {w}"
        )
    if d == 0:
        q = (g * f.invert()).truncate(c)
        return q, []

    field = ring.field

    def height(layer: int) -> int:
        return 1 + (c - 1 - layer) * d

    # column ranks: quotient unknowns (x'-exponent alpha, x_n-degree j) with
    # j < height(|alpha|), then remainder unknowns (k, alpha)
    cols = []
    for alpha in iter_exponents(n - 1, c):
        for j in range(height(total_degree(alpha))):
            cols.append(("q", alpha, j))
    for k in range(d):
        for alpha in iter_exponents(n - 1, c):
            cols.append(("a", k, alpha))
    order = list(range(len(cols)))
    if column_shuffle_seed is not None:
        import random  # only pivoting-invariance checks shuffle; keep it off the CLI's import

        random.Random(column_shuffle_seed).shuffle(order)
    rank_of = {cols[idx]: rank for rank, idx in enumerate(order)}

    rows = {}  # (alpha, t) -> {col: coeff}

    def bump(alpha, t, col, coeff):
        if total_degree(alpha) >= c or t >= height(total_degree(alpha)) + d:
            return
        row = rows.setdefault((alpha, t), {})
        cur = row.get(col)
        nxt = coeff if cur is None else cur + coeff
        if nxt:
            row[col] = nxt
        elif cur is not None:
            del row[col]

    for key in cols:
        if key[0] == "q":
            _, beta, j = key
            col = rank_of[key]
            for e, coeff in f.terms.items():
                bump(exp_add(beta, e[: n - 1]), j + e[n - 1], col, coeff)
        else:
            _, k, beta = key
            bump(beta, k, rank_of[key], field.one)

    red = RowReducer(field)
    eq_keys = sorted(rows, key=lambda key: (total_degree(key[0]) + key[1], key))
    for eqk in eq_keys:
        alpha, t = eqk
        rhs = g.coefficient(alpha + (t,))
        st = red.add(rows[eqk], rhs)
        if st == "inconsistent":
            raise TruncasError("division system unexpectedly inconsistent")
    # the staircase system also has equations with empty rows: they assert
    # g-coefficients that no unknown can reach are zero; those cannot occur
    # for a divisor with this regularity order, but check the rhs anyway
    if len(red.pivots) != len(cols):
        raise TruncasError("division system unexpectedly underdetermined")

    values = red.particular_solution()
    q_terms, a_terms = {}, [dict() for _ in range(d)]
    for key in cols:
        val = values.get(rank_of[key])
        if not val:
            continue
        if key[0] == "q":
            _, alpha, j = key
            if total_degree(alpha) + j < c:
                q_terms[alpha + (j,)] = val
        else:
            _, k, alpha = key
            if total_degree(alpha) < c:
                a_terms[k][alpha] = val
    sub = ring.restrict(n - 1)
    q = TruncatedSeries(ring, q_terms, c)
    remainders = [TruncatedSeries(sub, t, c) for t in a_terms]
    return q, remainders


def implicit_linear(f: TruncatedSeries, c: int):
    """Unique nested pair (h, u) with f·u + x_n − h ≡ 0 mod (x)^c, h free of x_n.

    Dividing x_n by f (regular of order 1) gives x_n = f q + a0, so
    h = a0 and u = −q.
    """
    n = f.ring.nvars
    if f.constant_term():
        raise NotTransverse("series does not vanish at the origin")
    if not f.coefficient(f.ring.unit_exp(n - 1)):
        raise NotTransverse("last-variable derivative vanishes at the origin")
    w = division_working_order(c, 1)
    if f.known_order < w:
        raise PrecisionTooLow(f"implicit linearization at order {c} needs order {w}")
    xn = f.ring.variable_series(n - 1, f.known_order)
    q, remainders = weierstrass_divide(f, xn, c)
    return remainders[0], -q
