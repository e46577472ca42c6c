"""Independent oracle implementations used by the test suite.

Everything here is deliberately written from scratch against the textbook
definitions (dense matrices, naive convolution, explicit recurrences), so
that agreement with the package is evidence and not circularity.  The last
section holds test helpers built on the package's own engines: span
equalities of ideals and modules, a solution check and a series re-parser.
"""

import re
from fractions import Fraction

from truncas.errors import ProblemSyntaxError
from truncas.groebner import ModuleOrder, buchberger, module_buchberger, vec_to_elem
from truncas.modules import module_contains
from truncas.morphisms import _combined_ring, _graph_generators
from truncas.nested import residual
from truncas.orders import GREVLEX
from truncas.series import Polynomial, TruncatedSeries, iter_exponents, total_degree
from truncas.textio import parse_poly_text


def naive_convolution(f_terms, g_terms, below):
    """Dense-style convolution of two term dicts, keeping degree < below."""
    out = {}
    for e1, c1 in f_terms.items():
        for e2, c2 in g_terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if sum(e) >= below:
                continue
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2
    return {e: c for e, c in out.items() if c}


def textbook_compose(f, images):
    """Terms of f(images) for polynomial images, with no truncation.

    Each term of f is expanded from cached powers of the images by naive
    convolution, below a degree bound that no term of the result reaches.
    """
    target = images[0].ring
    top = max((sum(e) for e in f.terms), default=0)
    below = 1 + top * max((sum(e) for g in images for e in g.terms), default=0)
    powers = [[{target.zero_exp(): target.field.one}] for _ in images]
    out = {}
    for e, c in f.terms.items():
        term = {target.zero_exp(): c}
        for i, k in enumerate(e):
            if k:
                while len(powers[i]) <= k:
                    powers[i].append(naive_convolution(powers[i][-1], images[i].terms, below))
                term = naive_convolution(term, powers[i][k], below)
        for mu, v in term.items():
            s = out.get(mu)
            out[mu] = v if s is None else s + v
    return {mu: v for mu, v in out.items() if v}


def recursive_exponents_of_degree(nvars, d):
    """Exponents of total degree d, first entry descending, one generator per variable."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    if nvars == 1:
        yield (d,)
        return
    for k in range(d, -1, -1):
        for rest in recursive_exponents_of_degree(nvars - 1, d - k):
            yield (k,) + rest


def textbook_truncated_multiple_rows(gens, below, rank_of, labels=None):
    """Rows of every truncated multiple m*g, testing each term of g for each m.

    Multipliers run over all exponents below ``below`` in canonical order;
    a multiple with no term below ``below`` gives no row.
    """
    rows = []
    for gi, g in enumerate(gens):
        for d in range(below):
            for m in recursive_exponents_of_degree(g.ring.nvars, d):
                row = {}
                for e, coeff in g.terms.items():
                    if sum(m) + sum(e) < below:
                        row[rank_of[tuple(a + b for a, b in zip(m, e))]] = coeff
                if row:
                    rows.append(row)
                    if labels is not None:
                        labels.append((gi, m))
    return rows


def _x_columns_last(ring, nx, c, cprime):
    """Rank every monomial below cprime, x-only ones of degree < c last.

    Returns the rank map and the first rank of the x-only block.
    """
    others, kept = [], []
    for e in iter_exponents(ring.nvars, cprime):
        (kept if sum(e) < c and not any(e[nx:]) else others).append(e)
    return {e: r for r, e in enumerate(others + kept)}, len(others)


def per_order_candidate_space(phi, c, cprime):
    """Candidate basis at one working order, from a ranking built for that order.

    The truncations below c of the multiples of I go in first, then the
    truncated multiples of the graph generators; the reduced rows in the
    x-only block that are not truncations of I are the candidates.  The
    graph generators come from the package; the ranking, the rows and the
    reduction do not.
    """
    big = _combined_ring(phi)
    n = phi.source.nvars
    rank_of, first_kept = _x_columns_last(big, n, c, cprime)
    pad = (0,) * (big.nvars - n)
    i_gens = [] if phi.I is None else phi.I.gens
    x_rank = {e: rank_of[e + pad] for e in iter_exponents(n, c)}
    i_rows = textbook_truncated_multiple_rows(i_gens, c, x_rank)
    gens = _graph_generators(phi, big, order=cprime)
    red, i_red = FieldRowReducer(phi.field), FieldRowReducer(phi.field)
    for row in i_rows + textbook_truncated_multiple_rows(gens, cprime, rank_of):
        red.add(row)
    for row in i_rows:
        i_red.add(row)
    x_of = {r: e[:n] for e, r in rank_of.items() if r >= first_kept}
    basis = []
    for pcol in sorted(red.pivots):
        row = red.pivots[pcol]
        if pcol >= first_kept and not i_red.member(row):
            basis.append(Polynomial(phi.source, {x_of[col]: v for col, v in row.items()}))
    return basis


def same_span_modulo(a, b, ring, c, modulo):
    """Whether a and b span one space modulo the truncations below c of modulo's multiples.

    Decided by comparing the two reduced echelon forms, which are unique.
    """
    rank_of = {e: i for i, e in enumerate(iter_exponents(ring.nvars, c))}
    extra = textbook_truncated_multiple_rows(modulo, c, rank_of)
    forms = []
    for polys in (a, b):
        red = FieldRowReducer(ring.field)
        for row in [{rank_of[e]: v for e, v in p.terms.items()} for p in polys] + extra:
            red.add(row)
        forms.append(red.canonical_rows())
    return forms[0] == forms[1]


def per_order_kernel(phi, c, cprimes):
    """(candidate basis at the last order, dimensions, stabilized) order by order."""
    bases = [per_order_candidate_space(phi, c, cp) for cp in cprimes]
    i_gens = [] if phi.I is None else phi.I.gens
    stabilized = len(bases) >= 2 and same_span_modulo(
        bases[-1], bases[-2], phi.source, c, i_gens
    )
    return bases[-1], [len(b) for b in bases], stabilized


def per_order_preimage(phi, b, c):
    """Normal form of b against the truncated graph multiples, read off the x block."""
    big = _combined_ring(phi)
    n = phi.source.nvars
    rank_of, first_kept = _x_columns_last(big, n, c, c)
    red = FieldRowReducer(phi.field)
    for row in textbook_truncated_multiple_rows(_graph_generators(phi, big, order=c), c, rank_of):
        red.add(row)
    pad = (0,) * n
    target = {rank_of[pad + e]: v for e, v in b.terms.items() if sum(e) < c}
    nf, _, _ = red.reduce(target)
    if any(col < first_kept for col in nf):
        return None
    x_of = {r: e[:n] for e, r in rank_of.items()}
    return TruncatedSeries(phi.source, {x_of[col]: v for col, v in nf.items()}, c)


def kernel_certificate(phi, f, cprime):
    """Multipliers (h_k, k_i) witnessing a candidate, or None.

    Returns series over the combined ring with known order cprime such that
    f - sum q_k h_k - sum (x_i - phi_i) k_i has no term below degree cprime.
    The multipliers are the tracked combination of truncated multiples that
    writes f.
    """
    big = _combined_ring(phi)
    n = phi.source.nvars
    gens = _graph_generators(phi, big, order=cprime)
    rank_of = {e: i for i, e in enumerate(iter_exponents(big.nvars, cprime))}
    red = FieldRowReducer(phi.field, track_combinations=True)
    row_monomials = []  # per row: (generator index, multiplier monomial)
    for row in textbook_truncated_multiple_rows(gens, cprime, rank_of, row_monomials):
        red.add(row)
    target = {rank_of[e + (0,) * (big.nvars - n)]: coeff for e, coeff in f.terms.items()}
    combo = red.express(target)
    if combo is None:
        return None
    multipliers = [dict() for _ in gens]
    for idx, coeff in combo.items():
        gi, m = row_monomials[idx]
        cur = multipliers[gi].get(m)
        multipliers[gi][m] = coeff if cur is None else cur + coeff
    return [TruncatedSeries(big, t, cprime) for t in multipliers]


def geometric_series(order):
    """Coefficients of 1/(1-t) up to the given order."""
    return {(k,): Fraction(1) for k in range(order)}


def sqrt_one_plus_t(order):
    """Binomial series for (1+t)^(1/2) by the direct recurrence."""
    coeffs = [Fraction(1)]
    for k in range(1, order):
        prev = coeffs[-1]
        coeffs.append(prev * (Fraction(1, 2) - (k - 1)) / k)
    return {(k,): c for k, c in enumerate(coeffs) if c}


def catalan_numbers(count):
    """C_0..C_{count-1} by the convolution recurrence."""
    cat = [1]
    for n in range(1, count):
        cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
    return cat


def reversion_of_t_plus_t2(order):
    """Series g with g + g^2 = t, computed by fixed-point iteration."""
    g = {1: Fraction(1)}
    for _ in range(order):
        sq = {}
        for i, a in g.items():
            for j, b in g.items():
                if i + j < order:
                    sq[i + j] = sq.get(i + j, Fraction(0)) + a * b
        g = {1: Fraction(1)}
        for k, v in sq.items():
            g[k] = g.get(k, Fraction(0)) - v
        g = {k: v for k, v in g.items() if v and k < order}
    return {(k,): v for k, v in g.items()}


# ---------------------------------------------------------------------------
# dense assembler for nested truncated systems


class DenseNestedOracle:
    """Brute-force dense coefficient matrix for T y = b mod (x)^c."""

    def __init__(self, T, b, sigma, c):
        ring = T[0][0].ring
        self.ring = ring
        self.field = ring.field
        n = ring.nvars
        self.columns = []
        for i, bound in enumerate(sigma):
            for alpha in iter_exponents(n, c):
                if all(x == 0 for x in alpha[bound:]):
                    self.columns.append((i, alpha))
        col_index = {key: k for k, key in enumerate(self.columns)}
        self.rows = []
        self.rhs = []
        for r in range(len(T)):
            for gamma in iter_exponents(n, c):
                row = [self.field.zero] * len(self.columns)
                for (i, alpha), k in col_index.items():
                    diff = tuple(g - a for g, a in zip(gamma, alpha))
                    if any(x < 0 for x in diff):
                        continue
                    coeff = T[r][i].coefficient(diff)
                    if coeff:
                        row[k] = row[k] + coeff
                self.rows.append(row)
                self.rhs.append(b[r].coefficient(gamma))

    def rref(self):
        rows = [list(r) + [v] for r, v in zip(self.rows, self.rhs)]
        ncols = len(self.columns)
        pivots = []
        rank = 0
        for col in range(ncols):
            pivot_row = None
            for r in range(rank, len(rows)):
                if rows[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            lead = rows[rank][col]
            rows[rank] = [v / lead for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    factor = rows[r][col]
                    rows[r] = [
                        a - factor * p for a, p in zip(rows[r], rows[rank])
                    ]
            pivots.append(col)
            rank += 1
        consistent = all(
            any(rows[r][c2] for c2 in range(ncols)) or not rows[r][ncols]
            for r in range(len(rows))
        )
        return rows, pivots, consistent

    def analyze(self):
        """(solvable, nullity, particular dict or None)."""
        rows, pivots, consistent = self.rref()
        ncols = len(self.columns)
        if not consistent:
            return False, None, None
        particular = {}
        for r, col in enumerate(pivots):
            val = rows[r][ncols]
            if val:
                particular[self.columns[col]] = val
        return True, ncols - len(pivots), particular

    def particular_as_series(self, particular, c):
        m = 1 + max(i for i, _ in self.columns)
        terms = [dict() for _ in range(m)]
        for (i, alpha), val in particular.items():
            terms[i][alpha] = val
        return [TruncatedSeries(self.ring, t, c) for t in terms]


def residual_free(T, b, vec, c):
    """Check T·vec − b has no term below degree c, by direct arithmetic."""
    for r in range(len(T)):
        acc = b[r].scale(-1)
        for i in range(len(vec)):
            acc = acc + T[r][i] * vec[i]
        if any(total_degree(e) < c for e in acc.terms):
            return False
    return True


# ---------------------------------------------------------------------------
# textbook incremental RREF on field elements


class FieldRowReducer:
    """Incremental reduced row echelon form on field elements, one entry at a time.

    Same pivot rule (lowest column) and statuses as
    ``truncas.linalg.RowReducer``, but it back-eliminates every new pivot
    into the stored rows, every entry is a field element and every operation
    is the field's own.  The package's echelon rows, reduced on read, are
    checked against it value for value.
    """

    def __init__(self, field, track_combinations=False):
        self.field = field
        self.pivots = {}  # pivot col -> row dict, pivot coefficient 1
        self.rhs = {}
        self.col_usage = {}  # col -> set of pivot cols whose rows touch it
        self.track = track_combinations
        self.combos = {}
        self.n_inserted = 0

    @property
    def rank(self):
        return len(self.pivots)

    def reduce(self, row, rhs=None, combo=None):
        row = dict(row)
        if rhs is None:
            rhs = self.field.zero
        while True:
            hit = None
            for col in row:
                if col in self.pivots and (hit is None or col < hit):
                    hit = col
            if hit is None:
                return row, rhs, combo
            factor = row[hit]
            for col, val in self.pivots[hit].items():
                cur = row.get(col)
                nxt = -factor * val if cur is None else cur - factor * val
                if nxt:
                    row[col] = nxt
                elif cur is not None:
                    del row[col]
            rhs = rhs - factor * self.rhs[hit]
            if combo is not None:
                for idx, val in self.combos[hit].items():
                    cur = combo.get(idx)
                    nxt = -factor * val if cur is None else cur - factor * val
                    if nxt:
                        combo[idx] = nxt
                    elif cur is not None:
                        del combo[idx]

    def add(self, row, rhs=None):
        if rhs is None:
            rhs = self.field.zero
        combo = {self.n_inserted: self.field.one} if self.track else None
        self.n_inserted += 1
        row, rhs, combo = self.reduce(row, rhs, combo)
        if not row:
            return "dependent" if not rhs else "inconsistent"
        pivot = min(row)
        inv = self.field.one / row[pivot]
        row = {c: inv * v for c, v in row.items()}
        rhs = inv * rhs
        if combo is not None:
            combo = {i: inv * v for i, v in combo.items()}
        for pcol in sorted(self.col_usage.get(pivot, ())):
            prow = self.pivots[pcol]
            factor = prow.get(pivot)
            if not factor:
                continue
            for col, val in row.items():
                cur = prow.get(col)
                nxt = -factor * val if cur is None else cur - factor * val
                if nxt:
                    prow[col] = nxt
                    self.col_usage.setdefault(col, set()).add(pcol)
                elif cur is not None:
                    del prow[col]
                    self.col_usage[col].discard(pcol)
            self.rhs[pcol] = self.rhs[pcol] - factor * rhs
            if combo is not None:
                pc = self.combos[pcol]
                for idx, val in combo.items():
                    cur = pc.get(idx)
                    nxt = -factor * val if cur is None else cur - factor * val
                    if nxt:
                        pc[idx] = nxt
                    elif cur is not None:
                        del pc[idx]
        self.pivots[pivot] = row
        self.rhs[pivot] = rhs
        if combo is not None:
            self.combos[pivot] = combo
        for col in row:
            self.col_usage.setdefault(col, set()).add(pivot)
        return "pivot"

    def member(self, row):
        return not self.reduce(row)[0]

    def express(self, row):
        reduced, _, combo = self.reduce(row, None, {})
        if reduced:
            return None
        return {i: -v for i, v in combo.items()}

    def particular_solution(self):
        return {col: self.rhs[col] for col in self.pivots if self.rhs[col]}

    def nullspace_basis(self, all_columns):
        basis = []
        for free in all_columns:
            if free in self.pivots:
                continue
            vec = {free: self.field.one}
            for pcol in self.col_usage.get(free, ()):
                coeff = self.pivots[pcol].get(free)
                if coeff:
                    vec[pcol] = -coeff
            basis.append(vec)
        return basis

    def canonical_rows(self):
        return [dict(self.pivots[c]) for c in sorted(self.pivots)]


# ---------------------------------------------------------------------------
# textbook Buchberger on free-module elements


def _lead(elem, order):
    return max(elem, key=order.key)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def textbook_mod_normal_form(elem, basis, order):
    """Remainder of ``elem`` on division by ``basis``, dividing by the leading coefficient."""
    work = dict(elem)
    out = {}
    while work:
        mono = _lead(work, order)
        coeff = work.pop(mono)
        comp, exp = mono
        for g in basis:
            lt_comp, lt_exp = _lead(g, order)
            if lt_comp == comp and _divides(lt_exp, exp):
                factor = coeff / g[(lt_comp, lt_exp)]
                shift = tuple(x - y for x, y in zip(exp, lt_exp))
                for (c2, e2), v in g.items():
                    key = (c2, tuple(x + y for x, y in zip(e2, shift)))
                    if key == mono:
                        continue
                    cur = work.get(key)
                    nxt = -(factor * v) if cur is None else cur - factor * v
                    if nxt:
                        work[key] = nxt
                    elif cur is not None:
                        del work[key]
                break
        else:
            out[mono] = coeff
    return out


def textbook_module_buchberger(elements, order):
    """Reduced Groebner basis by plain Buchberger with the chain criterion.

    Pairs are formed between elements with equal leading components and
    taken smallest lcm first.  A pair (i, j) is skipped when some third
    element's leading monomial divides the lcm and neither (i, k) nor (j, k)
    is still pending.  Every S-vector divides by both leading coefficients.
    The result is inter-reduced, monic and sorted by leading monomial.
    """
    basis = [dict(e) for e in elements if e]
    pending = set()
    for j in range(len(basis)):
        for i in range(j):
            if _lead(basis[i], order)[0] == _lead(basis[j], order)[0]:
                pending.add((i, j))

    def lcm_of(i, j):
        (comp, ei), (_, ej) = _lead(basis[i], order), _lead(basis[j], order)
        return comp, tuple(max(x, y) for x, y in zip(ei, ej))

    while pending:
        i, j = min(pending, key=lambda pair: (order.key(lcm_of(*pair)), pair))
        pending.remove((i, j))
        comp, lcm = lcm_of(i, j)
        chain = any(
            k not in (i, j)
            and _lead(basis[k], order)[0] == comp
            and _divides(_lead(basis[k], order)[1], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        )
        if chain:
            continue
        s = {}
        for g, sign in ((basis[i], 1), (basis[j], -1)):
            lt = _lead(g, order)
            shift = tuple(x - y for x, y in zip(lcm, lt[1]))
            for (c, e), v in g.items():
                key = (c, tuple(x + y for x, y in zip(e, shift)))
                term = v / g[lt] if sign > 0 else -(v / g[lt])
                if key in s:
                    term = s.pop(key) + term
                if term:
                    s[key] = term
        s = textbook_mod_normal_form(s, basis, order)
        if s:
            basis.append(s)
            new_comp = _lead(s, order)[0]
            for k in range(len(basis) - 1):
                if _lead(basis[k], order)[0] == new_comp:
                    pending.add((k, len(basis) - 1))

    reduced = True
    while reduced:
        reduced = False
        for idx, g in enumerate(basis):
            others = basis[:idx] + basis[idx + 1 :]
            red = textbook_mod_normal_form(g, others, order)
            if red != g:
                basis = others if not red else others[:idx] + [red] + others[idx:]
                reduced = True
                break
    basis.sort(key=lambda g: order.key(_lead(g, order)))
    return [{k: v / g[_lead(g, order)] for k, v in g.items()} for g in basis]


# ---------------------------------------------------------------------------
# truncated shift function by one span intersection per shift


def field_span(rows, field):
    red = FieldRowReducer(field)
    for row in rows:
        red.add(row)
    return red


def intersect_spans(rows_a, rows_b, ncols, field):
    """Basis of span(A) ∩ span(B) by the doubled-column construction."""
    red = FieldRowReducer(field)
    for row in rows_a:
        red.add({**row, **{c + ncols: v for c, v in row.items()}})
    for row in rows_b:
        red.add(row)
    return [
        {c - ncols: v for c, v in red.pivots[pcol].items()}
        for pcol in sorted(red.pivots)
        if pcol >= ncols
    ]


def per_beta_chevalley_truncated(M, p, c, D):
    """Truncated shift of ``chevalley_beta``, one span intersection per candidate.

    Columns are (component, exponent) below D, component by component.  N is
    the part of the truncated span of M supported on the back block.  The
    shift is 0 when the span equals N, and otherwise the least b >= 1 such
    that span(M) ∩ (front monomials of degree >= b, every back monomial)
    lies in N plus every monomial of degree c..D-1.
    """
    n, field = M.ring.nvars, M.ring.field
    rank = {}
    for i in range(M.rank):
        for e in iter_exponents(n, D):
            rank[(i, e)] = len(rank)
    m_rows = []
    for vec in M.gens:
        for m in iter_exponents(n, D):
            row = {
                rank[(i, tuple(a + b for a, b in zip(m, e)))]: coeff
                for i, poly in enumerate(vec)
                for e, coeff in poly.terms.items()
                if total_degree(m) + total_degree(e) < D
            }
            if row:
                m_rows.append(row)

    def units(keep):
        return [{col: field.one} for (i, e), col in rank.items() if keep(i, total_degree(e))]

    back = field_span(units(lambda i, d: i >= p), field)
    n_rows = [row for row in field_span(m_rows, field).pivots.values() if back.member(row)]
    n_red = field_span(n_rows, field)
    if all(n_red.member(row) for row in m_rows):
        return 0
    rhs = field_span(n_rows + units(lambda i, d: d >= c), field)
    for beta in range(1, D + 1):
        lhs = intersect_spans(m_rows, units(lambda i, d: i >= p or d >= beta), len(rank), field)
        if all(rhs.member(row) for row in lhs):
            return beta
    raise AssertionError("no truncated shift found below the working order")


# ---------------------------------------------------------------------------
# test helpers on the package's engines


def ideals_equal(a, b):
    """Whether two ideals are equal: each Groebner basis holds the other's generators."""
    gb_a = buchberger(a.gens, GREVLEX)
    gb_b = buchberger(b.gens, GREVLEX)
    return all(gb_a.contains(g) for g in b.gens) and all(gb_b.contains(g) for g in a.gens)


def modules_equal(a, b):
    """Whether two submodules of one free module are equal, by Groebner membership."""
    if a.ring != b.ring or a.rank != b.rank:
        return False
    order = ModuleOrder()
    gb_a = module_buchberger([vec_to_elem(v) for v in a.gens], order)
    gb_b = module_buchberger([vec_to_elem(v) for v in b.gens], order)
    return all(module_contains(gb_a, order, vec_to_elem(v)) for v in b.gens) and all(
        module_contains(gb_b, order, vec_to_elem(v)) for v in a.gens
    )


def is_solution(sys, vec):
    """Whether vec respects the nesting and solves the system below degree c."""
    for i in range(sys.m):
        if not vec[i].nested_support_ok(sys.profile.sigma[i]):
            return False
    return all(
        all(total_degree(e) >= sys.c for e in res.terms) for res in residual(sys, vec)
    )


_O_MARKER = re.compile(r"^(.*?)(?:\s*\+\s*)?O\(deg (\d+)\)\s*$")


def parse_series_text(text, ring, env=None):
    """Re-parse a canonical series print: the expression grammar plus ``+ O(deg c)``."""
    m = _O_MARKER.match(text.strip())
    if m is None:
        raise ProblemSyntaxError("series text must end with an O(deg c) marker")
    body, order = m.group(1).strip(), int(m.group(2))
    if not body:
        return TruncatedSeries.zero(ring, order)
    return parse_poly_text(body, ring, env).as_series(order)
