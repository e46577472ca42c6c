"""Module Groebner machinery: zero-block intersections, idealization,
syzygies, and vanishing-order shift functions.

Free-module elements are sparse maps (component, exponent) -> coefficient.
Their Groebner bases come from the one engine in ``groebner``
(``module_buchberger``, ``mod_normal_form``, ``ModuleOrder``), of which a
polynomial ideal is the rank-1 case.  The engine applies the coprime-lcm
criterion only when every input element lies in one component; a module
spread over several components gets the Gebauer-Moller criteria alone.
Membership tests reduce by monic bases, which is what the engine returns.

The position-over-term order puts lower component indices above everything
else, so a reduced basis whose leading components sit past the first p
positions consists of elements supported there entirely; those generate the
intersection with the zero-block submodule.  Intersections of two modules
go through the usual tag-variable construction.

``chevalley_beta`` reports the least shift b such that module elements whose
front block vanishes to order b lie, modulo (x)^c, in the exact front-zero
submodule.  The shift 0 is reserved for the degenerate case where the module
already sits inside its front-zero part, so that a reported positive shift
is meaningful for every c; within that convention the reported value is
minimal and the inclusion fails one step lower.

Truncated mode reduces the truncated generator multiples once, with the
front block's columns ranked by degree, then component, then exponent, and
the back block after them.  The span's elements that vanish on the front
below degree b are then those zero on a column prefix, and the echelon rows
pivoted past that prefix span them, for every b at once.  The rows pivoted
in the back block span the truncated front-zero part N, and a vector lies in
N plus every monomial of degree >= c exactly when its truncation below c
lies in N's, so the shift is one more than the highest front pivot degree
of a row that fails this test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TruncasError
from .groebner import (
    ModuleOrder,
    PolyIdeal,
    buchberger,
    elem_to_vec,
    mod_normal_form,
    module_buchberger,
    poly_sort_key,
    truncated_multiple_rows,
    vec_to_elem,
)
from .linalg import span_reducer
from .orders import BlockOrder
from .series import Polynomial, Ring, exponents_of_degree


@dataclass
class PolyModule:
    """A submodule of ring^rank given by generator vectors of polynomials."""

    ring: Ring
    rank: int
    gens: list

    def __post_init__(self):
        cleaned = []
        for vec in self.gens:
            if len(vec) != self.rank:
                raise TruncasError("generator vector length disagrees with the rank")
            for p in vec:
                if p.ring != self.ring:
                    raise TruncasError("module generators live in different rings")
            if any(not p.is_zero() for p in vec):
                cleaned.append(list(vec))
        self.gens = sorted(cleaned, key=lambda v: [poly_sort_key(p) for p in v])

    def is_zero(self) -> bool:
        return not self.gens


def module_contains(basis, order: ModuleOrder, elem: dict) -> bool:
    return not mod_normal_form(elem, basis, order)


# ---------------------------------------------------------------------------
# zero-block intersection, tag intersection, syzygies


def module_intersect_zero_block(M: PolyModule, p: int) -> PolyModule:
    """Generators of {v in M : first p components zero}, projected onto the rest."""
    t = M.rank - p
    if p < 0 or t < 0:
        raise TruncasError("invalid block sizes")
    order = ModuleOrder()
    gb = module_buchberger([vec_to_elem(v) for v in M.gens], order)
    out = []
    for g in gb:
        if all(comp >= p for (comp, _) in g):
            shifted = {(comp - p, e): c for (comp, e), c in g.items()}
            out.append(elem_to_vec(shifted, M.ring, t))
    return PolyModule(M.ring, t, out)


def module_intersection(A: PolyModule, B: PolyModule) -> PolyModule:
    """A ∩ B by the tag construction: eliminate t from t·A + (1−t)·B."""
    if A.ring != B.ring or A.rank != B.rank:
        raise TruncasError("modules must share ring and rank")
    ring = A.ring
    tname = "_t"
    while tname in ring.names:
        tname += "_"
    ring_t = ring.extend((tname,))
    tidx = ring_t.nvars - 1
    elems = []
    for vec in A.gens:
        elem = {}
        for comp, poly in enumerate(vec):
            for e, c in poly.terms.items():
                elem[(comp, e + (1,))] = c
        elems.append(elem)
    for vec in B.gens:
        elem = {}
        for comp, poly in enumerate(vec):
            for e, c in poly.terms.items():
                elem[(comp, e + (0,))] = c
                elem[(comp, e + (1,))] = -c
        elems.append(elem)
    order = ModuleOrder(tag_index=tidx)
    gb = module_buchberger(elems, order)
    out = []
    for g in gb:
        if all(e[tidx] == 0 for (_, e) in g):
            stripped = {(comp, e[:-1]): c for (comp, e), c in g.items()}
            out.append(elem_to_vec(stripped, ring, A.rank))
    return PolyModule(ring, A.rank, out)


def syzygies(T) -> PolyModule:
    """Generators of { s : T·s = 0 } for a matrix of polynomials."""
    if not T or not T[0]:
        raise TruncasError("empty matrix")
    ring = T[0][0].ring
    p = len(T)
    m = len(T[0])
    gens = []
    for j in range(m):
        vec = [T[r][j] for r in range(p)]
        tag = [Polynomial.zero(ring) for _ in range(m)]
        tag[j] = Polynomial.const(ring, 1)
        gens.append(vec + tag)
    stacked = PolyModule(ring, p + m, gens)
    result = module_intersect_zero_block(stacked, p)
    for vec in result.gens:
        for r in range(p):
            acc = Polynomial.zero(ring)
            for j in range(m):
                acc = acc + T[r][j] * vec[j]
            if not acc.is_zero():
                raise TruncasError("syzygy verification failed")
    return result


# ---------------------------------------------------------------------------
# Nagata idealization


def _fresh_names(ring: Ring, prefix: str, count: int):
    names = []
    k = 1
    while len(names) < count:
        cand = f"{prefix}{k}"
        if cand not in ring.names and cand not in names:
            names.append(cand)
        k += 1
    return names


def nagata_idealize(M: PolyModule, p: int) -> PolyIdeal:
    """Encode the module as an ideal with square-zero slack variables.

    Generator (b_1..b_p, c_1..c_t) becomes sum b_i z_i + sum c_j w_j, and
    all quadratic monomials in (z, w) are added, simulating the quotient by
    (z, w)^2 inside a plain polynomial ring.
    """
    t = M.rank - p
    if p < 0 or t < 0:
        raise TruncasError("invalid block sizes")
    ring = M.ring
    znames = _fresh_names(ring, "z", p)
    wnames = _fresh_names(ring.extend(tuple(znames)), "w", t)
    big = ring.extend(tuple(znames) + tuple(wnames))
    nbase = ring.nvars
    gens = []
    for vec in M.gens:
        acc = Polynomial.zero(big)
        for i, poly in enumerate(vec):
            slack = big.variable(nbase + i)
            lifted = poly.map_ring(big, list(range(nbase)))
            acc = acc + lifted * slack
        if not acc.is_zero():
            gens.append(acc)
    slack_count = p + t
    for i in range(slack_count):
        for j in range(i, slack_count):
            gens.append(big.variable(nbase + i) * big.variable(nbase + j))
    return PolyIdeal(big, gens)


def nagata_route_zero_block(M: PolyModule, p: int) -> PolyModule:
    """Zero-block intersection recomputed through the idealization.

    Eliminates the trailing block of the original ring (when present)
    together with the z slack variables, then reads off the w-linear parts.
    The result lives over the leading block of the original ring; it matches
    ``module_intersect_zero_block`` whenever the module's ring has a single
    block.
    """
    t = M.rank - p
    ideal = nagata_idealize(M, p)
    big = ideal.ring
    ring = M.ring
    nbase = ring.nvars
    nx = ring.nx if ring.nx is not None else nbase
    front = list(range(nx, nbase + p))  # trailing base block plus z variables
    gb = buchberger(ideal.gens, BlockOrder(front, big.nvars))
    sub = ring.restrict(nx)
    out = []
    for g in gb:
        if not all(all(g_e[i] == 0 for i in front) for g_e in g.terms):
            continue
        vec_terms = [dict() for _ in range(t)]
        ok = True
        for e, coeff in g.terms.items():
            wdeg = sum(e[nbase + p :])
            zwdeg = sum(e[nbase:])
            if zwdeg >= 2:
                continue  # modded out by (z, w)^2
            if wdeg != 1:
                ok = False  # a w-free part cannot occur inside (z, w)
                break
            j = next(i for i in range(t) if e[nbase + p + i] == 1)
            vec_terms[j][e[:nx]] = coeff
        if not ok:
            raise TruncasError("unexpected slack-free part in the idealization route")
        if any(vec_terms[j] for j in range(t)):
            out.append([Polynomial(sub, vt, clean=False) for vt in vec_terms])
    return PolyModule(sub, t, out)


# ---------------------------------------------------------------------------
# vanishing-order shift (exact and truncated)


@dataclass
class ChevalleyResult:
    c: int
    beta: int
    mode: str  # "exact" or "truncated"
    working_order: int = None


def _front_power_module(ring: Ring, p: int, t: int, beta: int) -> PolyModule:
    gens = []
    for i in range(p):
        for e in exponents_of_degree(ring.nvars, beta):
            vec = [Polynomial.zero(ring) for _ in range(p + t)]
            vec[i] = Polynomial(ring, {e: ring.field.one}, clean=False)
            gens.append(vec)
    for j in range(t):
        vec = [Polynomial.zero(ring) for _ in range(p + t)]
        vec[p + j] = Polynomial.const(ring, 1)
        gens.append(vec)
    return PolyModule(ring, p + t, gens)


def _embed_back_block(N: PolyModule, p: int) -> PolyModule:
    gens = []
    for vec in N.gens:
        gens.append([Polynomial.zero(N.ring)] * p + list(vec))
    return PolyModule(N.ring, p + N.rank, gens)


def chevalley_beta(
    M: PolyModule, p: int, c: int, mode: str = "exact", working_order: int = None
) -> ChevalleyResult:
    """Least shift beta with M ∩ ((x)^beta front ⊕ free back) inside N + (x)^c.

    N is the front-zero part of M, re-embedded.  Exact mode decides every
    membership with module Groebner bases; truncated mode replaces modules
    by their spans of truncated generator multiples below the working order
    and decides memberships there.
    """
    if c < 1:
        raise TruncasError("c must be positive")
    t = M.rank - p
    if p < 0 or t < 0:
        raise TruncasError("invalid block sizes")
    if mode == "exact":
        return _chevalley_exact(M, p, t, c)
    if mode == "truncated":
        D = working_order if working_order is not None else c + 4
        if D < c:
            raise TruncasError("working order must be at least the target order")
        return _chevalley_truncated(M, p, t, c, D)
    raise TruncasError(f"unknown mode {mode!r}")


def _chevalley_exact(M: PolyModule, p: int, t: int, c: int) -> ChevalleyResult:
    ring = M.ring
    order = ModuleOrder()
    N = module_intersect_zero_block(M, p)
    N_emb = _embed_back_block(N, p)
    gb_n = module_buchberger([vec_to_elem(v) for v in N_emb.gens], order)
    if all(module_contains(gb_n, order, vec_to_elem(v)) for v in M.gens):
        return ChevalleyResult(c, 0, "exact")
    target_gens = [vec_to_elem(v) for v in N_emb.gens]
    for i in range(p + t):
        for e in exponents_of_degree(ring.nvars, c):
            target_gens.append({(i, e): ring.field.one})
    gb_target = module_buchberger(target_gens, order)
    beta = 1
    while True:
        W = _front_power_module(ring, p, t, beta)
        inter = module_intersection(M, W)
        if all(
            module_contains(gb_target, order, vec_to_elem(v)) for v in inter.gens
        ):
            return ChevalleyResult(c, beta, "exact")
        beta += 1
        if beta > 4 * c + 8:
            raise TruncasError("no shift found within the search bound")


def _chevalley_truncated(M: PolyModule, p: int, t: int, c: int, D: int) -> ChevalleyResult:
    n = M.ring.nvars
    field = M.ring.field
    # (degree, component, exponent) per column: the front block by degree, then the back block
    cols = [(d, i, e) for d in range(D) for i in range(p) for e in exponents_of_degree(n, d)]
    first_back = len(cols)
    cols += [(d, i, e) for i in range(p, p + t) for d in range(D) for e in exponents_of_degree(n, d)]
    rank_of = [{} for _ in range(p + t)]
    for col, (_, i, e) in enumerate(cols):
        rank_of[i][e] = col
    # one row per (generator, multiplier), merged over the components
    rows = {}
    for i in range(p + t):
        labels = []
        parts = truncated_multiple_rows([vec[i] for vec in M.gens], D, rank_of[i], labels)
        for label, part in zip(labels, parts):
            rows.setdefault(label, {}).update(part)
    red = span_reducer(rows.values(), field)
    if all(col >= first_back for col in red.pivots):
        return ChevalleyResult(c, 0, "truncated", D)

    def below_c(col):
        return {k: v for k, v in red.row(col).items() if cols[k][0] < c}

    low = span_reducer([below_c(col) for col in red.pivots if col >= first_back], field)
    bad = [cols[col][0] for col in red.pivots if col < first_back and not low.member(below_c(col))]
    return ChevalleyResult(c, 1 + max(bad, default=0), "truncated", D)
