"""Buchberger engine, polynomial ideals, elimination, truncated comparisons.

This module holds the one Buchberger engine of truncas.  It works on
free-module elements, sparse maps (component, exponent) -> coefficient,
under a position-over-term order (``ModuleOrder``); ``modules`` builds
zero-block intersections, syzygies and tag intersections on it.  A
polynomial ideal is the rank-1 case: with one component the module order is
just the monomial order, so ``buchberger`` embeds its generators in
component 0 and reads the basis back as polynomials.

The engine is plain Buchberger with the normal selection strategy and the
chain criterion.  The coprime-lcm (product) criterion holds only when every
input element lies in one component, which covers every ideal; for elements
spread over several components it is false and is not applied.  Bases are
returned fully inter-reduced and monic, sorted by leading term, so the
output is a canonical form depending only on the order.

``truncated_completion_elimination`` deliberately avoids Groebner bases: it
works on the finite-dimensional space spanned by truncated multiples of the
generators and intersects it with the span of low-degree monomials in the
leading block, by exact row reduction alone.  Comparing its stabilization
against the exact elimination ideal is the point of keeping two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .errors import TruncasError
from .linalg import RowReducer
from .orders import GREVLEX, BlockOrder
from .series import (
    Polynomial,
    Ring,
    TruncatedSeries,
    canonical_exp_key,
    exp_add,
    exp_divides,
    exp_lcm,
    exp_sub,
    exponents_of_degree,
    graded_terms,
    iter_exponents,
    total_degree,
)


def leading_term(p: Polynomial, order):
    if p.is_zero():
        raise TruncasError("zero polynomial has no leading term")
    exp = max(p.terms, key=order.key)
    return exp, p.terms[exp]


def poly_sort_key(p: Polynomial):
    return sorted(
        ((canonical_exp_key(e), repr(c)) for e, c in p.terms.items()), reverse=True
    )


@dataclass
class PolyIdeal:
    """A polynomial ideal given by generators in canonical order."""

    ring: Ring
    gens: list

    def __post_init__(self):
        cleaned = [g for g in self.gens if not g.is_zero()]
        for g in cleaned:
            if g.ring != self.ring:
                raise TruncasError("ideal generators live in different rings")
        self.gens = sorted(cleaned, key=poly_sort_key)

    def is_zero(self) -> bool:
        return not self.gens


class GroebnerBasis:
    """A reduced Groebner basis with normal-form reduction.

    The elements are embedded as rank-1 module elements, with their leading
    monomials, once at construction; every normal form reuses them.
    """

    def __init__(self, order, elements):
        self.order = order
        self.elements = list(elements)
        self.module_order = ModuleOrder(order)
        self.embedded = [vec_to_elem([g]) for g in self.elements]
        self.lts = [mod_leading(g, self.module_order)[0] for g in self.embedded]

    def normal_form(self, f: Polynomial) -> Polynomial:
        return _normal_form(f, self)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


# ---------------------------------------------------------------------------
# the engine: free-module elements under a position-over-term order


def vec_to_elem(vec) -> dict:
    elem = {}
    for comp, poly in enumerate(vec):
        for e, c in poly.terms.items():
            elem[(comp, e)] = c
    return elem


def elem_to_vec(elem: dict, ring: Ring, rank: int):
    terms = [dict() for _ in range(rank)]
    for (comp, e), c in elem.items():
        terms[comp][e] = c
    return [Polynomial(ring, t, clean=False) for t in terms]


class ModuleOrder:
    """Position-over-term: lower components dominate; ``order`` on monomials.

    ``tag_index`` optionally names a variable whose presence dominates
    everything, which is what tag-variable intersections eliminate.
    """

    def __init__(self, order=GREVLEX, tag_index=None):
        self.order = order
        self.tag_index = tag_index

    def key(self, mono):
        comp, e = mono
        if self.tag_index is None:
            return (-comp, self.order.key(e))
        return (e[self.tag_index], -comp, self.order.key(e))


def mod_leading(elem: dict, order: ModuleOrder):
    if not elem:
        raise TruncasError("zero module element has no leading term")
    mono = max(elem, key=order.key)
    return mono, elem[mono]


def mod_normal_form(elem: dict, basis, order: ModuleOrder, lts=None) -> dict:
    """Remainder of ``elem`` on division by ``basis``.

    The largest remaining term is cancelled against the first basis element
    whose leading term divides it, or else moved to the remainder.  ``lts``,
    when the caller holds them, are the basis elements' leading monomials.
    """
    if not basis:
        return dict(elem)
    if lts is None:
        lts = [mod_leading(g, order)[0] for g in basis]
    work = dict(elem)
    out = {}
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        comp, exp = mono
        for g, lt in zip(basis, lts):
            lt_comp, lt_exp = lt
            if lt_comp == comp and exp_divides(lt_exp, exp):
                factor = coeff / g[lt]
                shift = exp_sub(exp, lt_exp)
                for (c2, e2), v in g.items():
                    key = (c2, exp_add(e2, shift))
                    if key == mono:
                        continue
                    cur = work.get(key)
                    nxt = -factor * v if cur is None else cur - factor * v
                    if nxt:
                        work[key] = nxt
                    elif cur is not None:
                        del work[key]
                break
        else:
            out[mono] = coeff
    return out


def module_buchberger(elements, order: ModuleOrder):
    """Reduced Groebner basis of the submodule the elements generate.

    Pairs are formed only between elements with equal leading components.
    Each pair's selection key is computed once, when the pair is queued.
    """
    basis = [dict(e) for e in elements if e]
    if not basis:
        return []
    single_component = len({comp for g in basis for comp, _ in g}) == 1
    lts = [mod_leading(g, order)[0] for g in basis]
    pending = {}  # pair -> selection key: smallest lcm first, ties by pair

    def queue(new):
        comp, e = lts[new]
        for k in range(new):
            if lts[k][0] == comp:
                lcm = exp_lcm(lts[k][1], e)
                pending[(k, new)] = (order.key((comp, lcm)), (k, new))

    for new in range(len(basis)):
        queue(new)

    while pending:
        i, j = min(pending, key=pending.__getitem__)
        del pending[(i, j)]
        (comp, ei), (_, ej) = lts[i], lts[j]
        lcm = exp_lcm(ei, ej)
        if single_component and lcm == exp_add(ei, ej):
            continue  # coprime leading terms
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or lts[k][0] != comp:
                continue
            if not exp_divides(lts[k][1], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chain = True
                break
        if chain:
            continue
        gi, gj = basis[i], basis[j]
        lci, lcj = gi[lts[i]], gj[lts[j]]
        si = exp_sub(lcm, ei)
        sj = exp_sub(lcm, ej)
        # s-vector: x^si gi / lc_i - x^sj gj / lc_j
        s = {}
        for (c, e), v in gi.items():
            s[(c, exp_add(e, si))] = v / lci
        for (c, e), v in gj.items():
            key = (c, exp_add(e, sj))
            val = v / lcj
            cur = s.get(key)
            nxt = -val if cur is None else cur - val
            if nxt:
                s[key] = nxt
            elif cur is not None:
                del s[key]
        s = mod_normal_form(s, basis, order, lts)
        if not s:
            continue
        basis.append(s)
        lts.append(mod_leading(s, order)[0])
        queue(len(basis) - 1)

    return _mod_interreduce(basis, order, lts)


def _mod_interreduce(basis, order: ModuleOrder, lts):
    """Inter-reduced, monic, sorted basis; ``lts`` are the elements' leading monomials."""
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            others = basis[:idx] + basis[idx + 1 :]
            other_lts = lts[:idx] + lts[idx + 1 :]
            red = mod_normal_form(basis[idx], others, order, other_lts)
            if not red:
                basis, lts = others, other_lts
                changed = True
                break
            if red != basis[idx]:
                basis[idx] = red
                lts[idx] = mod_leading(red, order)[0]
                changed = True
    pairs = sorted(zip(basis, lts), key=lambda pair: order.key(pair[1]))
    return [{k: c / g[lt] for k, c in g.items()} for g, lt in pairs]


# ---------------------------------------------------------------------------
# polynomial ideals: the rank-1 case


def _normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Normal form of a polynomial against a Groebner basis."""
    nf = mod_normal_form(vec_to_elem([f]), gb.embedded, gb.module_order, gb.lts)
    return elem_to_vec(nf, f.ring, 1)[0]


def buchberger(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm."""
    if order is None:
        order = GREVLEX
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return GroebnerBasis(order, [])
    ring = gens[0].ring
    basis = module_buchberger([vec_to_elem([g]) for g in gens], ModuleOrder(order))
    return GroebnerBasis(order, [elem_to_vec(g, ring, 1)[0] for g in basis])


# ---------------------------------------------------------------------------
# elimination


def eliminate_ideal(ideal: PolyIdeal, n_keep: int = None) -> PolyIdeal:
    """Generators of the intersection with the subring of the first variables.

    Uses a block order with the trailing variables in front; the basis
    elements free of them generate the intersection.
    """
    ring = ideal.ring
    if n_keep is None:
        if ring.nx is None:
            raise TruncasError("ring has no block split; pass n_keep explicitly")
        n_keep = ring.nx
    order = BlockOrder(range(n_keep, ring.nvars), ring.nvars)
    gb = buchberger(ideal.gens, order)
    sub = ring.restrict(n_keep)
    kept = [g.restrict_to(n_keep) for g in gb if g.support_within(n_keep)]
    return PolyIdeal(sub, kept)


def ideal_low_degree_space(ideal: PolyIdeal, c: int):
    """Field basis of { f : deg f < c, f in the ideal }.

    Normal forms against a degree-respecting basis are linear in f, so the
    space is the nullspace of the normal-form matrix on monomials below c.
    """
    ring = ideal.ring
    gb = buchberger(ideal.gens, GREVLEX)
    monos = list(iter_exponents(ring.nvars, c))
    col_of = {e: i for i, e in enumerate(monos)}
    rows = {}  # residual monomial -> {column: coeff}
    for e in monos:
        nf = gb.normal_form(Polynomial(ring, {e: ring.field.one}, clean=False))
        for mu, coeff in nf.terms.items():
            rows.setdefault(mu, {})[col_of[e]] = coeff
    red = RowReducer(ring.field)
    for mu in sorted(rows, key=canonical_exp_key):
        red.add(rows[mu])
    basis = []
    for vec in red.nullspace_basis(range(len(monos))):
        terms = {monos[col]: v for col, v in vec.items()}
        basis.append(Polynomial(ring, terms, clean=False))
    return basis


def ideals_equal(a: PolyIdeal, b: PolyIdeal) -> bool:
    gb_a = buchberger(a.gens, GREVLEX)
    gb_b = buchberger(b.gens, GREVLEX)
    return all(gb_a.contains(g) for g in b.gens) and all(
        gb_b.contains(g) for g in a.gens
    )


# ---------------------------------------------------------------------------
# truncated membership spaces (exact linear algebra, no Groebner)


def truncated_multiple_rows(gens, below: int, rank_of, labels=None):
    """Rows spanning the truncations below degree ``below`` of all multiples.

    ``gens`` are polynomials or series known to at least ``below``; zero
    generators and empty rows are skipped.  When ``labels`` is a list, one
    (generator index, multiplier exponent) pair is appended per row.  Rows
    come per generator, by multiplier in canonical order.  Each generator's
    terms are grouped by total degree once, so a multiplier of degree ``md``
    takes exactly the terms of degree < ``below - md``.
    """
    rows = []
    for gi, g in enumerate(gens):
        if isinstance(g, TruncatedSeries) and g.known_order < below:
            raise TruncasError("generator not known to the working order")
        graded = graded_terms(g.terms, _element, below)
        if not graded:
            continue
        nvars = g.ring.nvars
        for md in range(below - graded[0][0]):
            low = [t for d, terms in graded if d < below - md for t in terms]
            for m in exponents_of_degree(nvars, md):
                rows.append({rank_of[tuple(map(add, m, e))]: c for e, c in low})
                if labels is not None:
                    labels.append((gi, m))
    return rows


def _element(c):
    return c


def subspace_column_ranks(ring: Ring, cprime: int, keep_pred):
    """Rank all monomials below cprime, the kept ones last in canonical order."""
    others, kept = [], []
    for e in iter_exponents(ring.nvars, cprime):
        (kept if keep_pred(e) else others).append(e)
    rank_of = {}
    for rank, e in enumerate(others + kept):
        rank_of[e] = rank
    return rank_of, len(others), kept


def truncated_completion_elimination(ideal: PolyIdeal, c: int, cprime: int):
    """Field basis of { f in k[x], deg f < c : f in I + (x,y)^cprime }.

    Pure coefficient linear algebra: row-reduce the truncated generator
    multiples with the x-only low-degree monomials ranked last; the reduced
    rows supported entirely on those monomials span the wanted space.
    """
    if cprime < c:
        raise TruncasError("working order must be at least the target order")
    ring = ideal.ring
    if ring.nx is None:
        raise TruncasError("ring has no block split")
    nx = ring.nx

    def keep(e):
        return total_degree(e) < c and all(x == 0 for x in e[nx:])

    rank_of, n_others, kept = subspace_column_ranks(ring, cprime, keep)
    rows = truncated_multiple_rows(ideal.gens, cprime, rank_of)
    red = RowReducer(ring.field)
    for row in rows:
        red.add(row)
    sub = ring.restrict(nx)
    inv_rank = {rank_of[e]: e for e in kept}
    out = []
    for pcol in sorted(red.pivots):
        if pcol >= n_others:
            terms = {inv_rank[col][:nx]: v for col, v in red.row(pcol).items()}
            out.append(Polynomial(sub, terms, clean=False))
    return out
