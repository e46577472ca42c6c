"""Buchberger engine, polynomial ideals, elimination, truncated comparisons.

This module holds the one Buchberger engine of truncas.  It works on
free-module elements, sparse maps (component, exponent) -> coefficient,
under a position-over-term order (``ModuleOrder``); ``modules`` builds
zero-block intersections, syzygies and tag intersections on it.  A
polynomial ideal is the rank-1 case: with one component the module order is
just the monomial order, so ``buchberger`` embeds its generators in
component 0 and reads the basis back as polynomials.

The engine computes each order key once: a ``ModuleOrder`` is also the
cache of its keys, filled on the first lookup of each monomial.  Pairs wait
in a heap, smallest lcm first (the normal strategy), ties by pair.  When an
element enters the basis, the Gebauer-Moller update drops the queued pairs
criterion B removes and filters the new pairs by criteria M and F (Gebauer
& Moller, "On an installation of Buchberger's algorithm", JSC 1988).  The
coprime-lcm (product) criterion then drops new pairs only when every input
element lies in one component, which covers every ideal; for elements
spread over several components it is false and is not applied.  Every
element is made monic as it enters the basis, so S-vectors and reduction
steps never divide.  Bases are returned fully inter-reduced and monic,
sorted by leading term, so the output is a canonical form depending only
on the order.

``truncated_completion_elimination`` deliberately avoids Groebner bases: it
works on the finite-dimensional space spanned by truncated multiples of the
generators and intersects it with the span of low-degree monomials in the
leading block, by exact row reduction alone.  Comparing its stabilization
against the exact elimination ideal is the point of keeping two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, le

from .errors import TruncasError
from .linalg import span_reducer, spans_equal
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
    """A reduced (so monic) Groebner basis with normal-form reduction.

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


class ModuleOrder(dict):
    """Position-over-term: lower components dominate; ``order`` on monomials.

    ``tag_index`` optionally names a variable whose presence dominates
    everything, which is what tag-variable intersections eliminate.

    The instance is also the cache of its keys: ``self[mono]`` is
    ``self.key(mono)``, computed on the first lookup of each monomial.
    """

    def __init__(self, order=GREVLEX, tag_index=None):
        super().__init__()
        self.order = order
        self.tag_index = tag_index

    def __missing__(self, mono):
        key = self[mono] = self.key(mono)
        return key

    def key(self, mono):
        comp, e = mono
        if self.tag_index is None:
            return (-comp, self.order.key(e))
        return (e[self.tag_index], -comp, self.order.key(e))


def mod_leading(elem: dict, order: ModuleOrder):
    if not elem:
        raise TruncasError("zero module element has no leading term")
    mono = max(elem, key=order.__getitem__)
    return mono, elem[mono]


def mod_normal_form(elem: dict, basis, order: ModuleOrder, lts=None) -> dict:
    """Remainder of ``elem`` on division by the monic elements ``basis``.

    The largest remaining term is cancelled against the first basis element
    whose leading term divides it, or else moved to the remainder.  Every
    basis element must have leading coefficient one, as the output of
    ``module_buchberger`` has, so no step divides.  ``lts``, when the caller
    holds them, are the basis elements' leading monomials.
    """
    if not basis:
        return dict(elem)
    if lts is None:
        lts = [mod_leading(g, order)[0] for g in basis]
    key_of = order.__getitem__
    work = dict(elem)
    out = {}
    while work:
        mono = max(work, key=key_of)
        coeff = work.pop(mono)
        comp, exp = mono
        for g, (lt_comp, lt_exp) in zip(basis, lts):
            if lt_comp == comp and all(map(le, lt_exp, exp)):
                neg = -coeff
                shift = exp_sub(exp, lt_exp)
                for (c2, e2), v in g.items():
                    key = (c2, tuple(map(add, e2, shift)))
                    if key == mono:
                        continue
                    cur = work.get(key)
                    nxt = neg * v if cur is None else cur + neg * v
                    if nxt:
                        work[key] = nxt
                    elif cur is not None:
                        del work[key]
                break
        else:
            out[mono] = coeff
    return out


def _monic(elem: dict, lt) -> dict:
    lc = elem[lt]
    return {k: v / lc for k, v in elem.items()}


def module_buchberger(elements, order: ModuleOrder):
    """Reduced Groebner basis of the submodule the elements generate.

    Every element is made monic as it enters the basis.  Pairs are formed
    only between elements with equal leading components, filtered by the
    Gebauer-Moller criteria when an element enters, and taken from a heap
    smallest lcm first, ties by pair.
    """
    basis, lts = [], []
    for e in elements:
        if e:
            lt = mod_leading(e, order)[0]
            basis.append(_monic(e, lt))
            lts.append(lt)
    if not basis:
        return []
    single_component = len({comp for g in basis for comp, _ in g}) == 1
    live = {}  # queued pair -> lcm of its leading exponents
    heap = []  # (order key of (component, lcm), pair)

    def update(new):
        comp, t = lts[new]
        # criterion B: t divides an old pair's lcm, which differs from both
        # lcms with t, so the two pairs with the new element cover it
        for (i, j), lcm in list(live.items()):
            if (
                lts[i][0] == comp
                and exp_divides(t, lcm)
                and exp_lcm(lts[i][1], t) != lcm
                and exp_lcm(lts[j][1], t) != lcm
            ):
                del live[(i, j)]
        cands = [(exp_lcm(e, t), k) for k, (c, e) in enumerate(lts[:new]) if c == comp]
        # criterion M: drop a new pair whose lcm another new lcm properly
        # divides; a proper divisor has lower degree, so comes first here
        minimal = []
        for a in sorted({lcm for lcm, _ in cands}, key=sum):
            if not any(exp_divides(b, a) for b in minimal):
                minimal.append(a)
        unpaired = set(minimal)
        for lcm, k in cands:
            # criterion F: the first pair of each lcm stands for the others
            if lcm not in unpaired:
                continue
            unpaired.remove(lcm)
            if single_component and lcm == exp_add(lts[k][1], t):
                continue  # coprime leading terms
            live[(k, new)] = lcm
            heappush(heap, (order[(comp, lcm)], (k, new)))

    for new in range(len(basis)):
        update(new)

    while heap:
        pair = heappop(heap)[1]
        lcm = live.pop(pair, None)
        if lcm is None:
            continue  # dropped by criterion B after it was queued
        i, j = pair
        gi, gj = basis[i], basis[j]
        si = exp_sub(lcm, lts[i][1])
        sj = exp_sub(lcm, lts[j][1])
        # s-vector of monic elements: x^si gi - x^sj gj
        s = {(c, exp_add(e, si)): v for (c, e), v in gi.items()}
        for (c, e), v in gj.items():
            key = (c, exp_add(e, sj))
            cur = s.get(key)
            nxt = -v if cur is None else cur - v
            if nxt:
                s[key] = nxt
            elif cur is not None:
                del s[key]
        s = mod_normal_form(s, basis, order, lts)
        if not s:
            continue
        lt = mod_leading(s, order)[0]
        basis.append(_monic(s, lt))
        lts.append(lt)
        update(len(basis) - 1)

    return _mod_interreduce(basis, order, lts)


def _mod_interreduce(basis, order: ModuleOrder, lts):
    """Reduced, sorted basis from a monic one; ``lts`` are the leading monomials.

    Elements whose leading monomial a smaller one divides are dropped; the
    rest keep their leading terms, and each is reduced by the others.
    """
    kept, kept_lts = [], []
    for g, lt in sorted(zip(basis, lts), key=lambda pair: order[pair[1]]):
        comp, exp = lt
        if not any(c == comp and exp_divides(e, exp) for c, e in kept_lts):
            kept.append(g)
            kept_lts.append(lt)
    return [
        mod_normal_form(g, kept[:i] + kept[i + 1 :], order, kept_lts[:i] + kept_lts[i + 1 :])
        for i, g in enumerate(kept)
    ]


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
    red = span_reducer([rows[mu] for mu in sorted(rows, key=canonical_exp_key)], ring.field)
    basis = []
    for vec in red.nullspace_basis(range(len(monos))):
        terms = {monos[col]: v for col, v in vec.items()}
        basis.append(Polynomial(ring, terms, clean=False))
    return basis


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


def subspace_column_ranks(ring: Ring, c: int, cprime: int):
    """Rank every monomial below cprime with the kept block last.

    The kept block is the monomials of degree < c in the first ``ring.nx``
    variables; both it and the other monomials keep the canonical order.
    Returns the rank map, the first kept rank and ``{kept rank: monomial cut
    to the first block}``.  Restricted to the monomials below a smaller
    working order, the ranking keeps their relative order and the kept block
    last, and a fully reduced echelon form depends only on the relative
    order of the columns, so one ranking at the largest working order of a
    schedule serves every order in it.
    """
    nx = ring.nx
    others, kept = [], []
    for e in iter_exponents(ring.nvars, cprime):
        (kept if total_degree(e) < c and not any(e[nx:]) else others).append(e)
    rank_of = {e: rank for rank, e in enumerate(others + kept)}
    first_kept = len(others)
    return rank_of, first_kept, {first_kept + i: e[:nx] for i, e in enumerate(kept)}


def same_span_below(a, b, ring: Ring, c: int, modulo=()) -> bool:
    """Whether polynomials ``a`` and ``b`` of degree < c span the same space.

    The spans are compared modulo the truncations below c of the multiples
    of the polynomials ``modulo``.
    """
    rank_of = {e: i for i, e in enumerate(iter_exponents(ring.nvars, c))}
    extra = truncated_multiple_rows(modulo, c, rank_of)

    def rows(polys):
        return [{rank_of[e]: v for e, v in p.terms.items()} for p in polys] + extra

    return spans_equal(rows(a), rows(b), ring.field)


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
    rank_of, first_kept, kept = subspace_column_ranks(ring, c, cprime)
    red = span_reducer(truncated_multiple_rows(ideal.gens, cprime, rank_of), ring.field)
    sub = ring.restrict(ring.nx)
    return [
        Polynomial(sub, {kept[col]: v for col, v in red.row(p).items()}, clean=False)
        for p in sorted(red.pivots)
        if p >= first_kept
    ]
