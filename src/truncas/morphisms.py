"""Analysis of algebra morphisms k[x]/I -> k[y]/J.

The exact kernel comes from eliminating y out of the graph ideal.  The
truncated kernel candidate space is the set of low-degree x-polynomials f
for which the linear certificate system

    f(x) - sum_k q_k(y) h_k(x,y) - sum_i (x_i - phi_i(y)) k_i(x,y) = 0
                                                    modulo (x,y)^cprime

is solvable in the multipliers h, k.  Solvability is a span condition:
bounded multipliers lose nothing below the working order, so the feasible f
are exactly the members of the span of truncated generator multiples that
are supported on low-degree x-monomials.  Row reduction with those monomial
columns ranked last reads the space off directly, and the same reduction
delivers canonical preimage representatives.

A schedule of working orders shares one column ranking, built at its largest
order (``subspace_column_ranks`` says why that is exact), so each working
order only reduces the multiples below it.

The truncated routes need a map of local rings: when an image phi_i has a
nonzero constant term, x_i - phi_i is a unit modulo (x,y)^cprime and the
system spans everything, so they refuse such a morphism.  The exact kernel
does not truncate and accepts it.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    NonPolynomialImages,
    PrecisionTooLow,
    TruncasError,
)
from .groebner import (
    PolyIdeal,
    buchberger,
    ideal_low_degree_space,
    same_span_below,
    subspace_column_ranks,
    truncated_multiple_rows,
)
from .linalg import span_reducer
from .orders import GREVLEX, BlockOrder
from .series import (
    Polynomial,
    Record,
    Ring,
    TruncatedSeries,
    iter_exponents,
    substitute,
)


class AlgebraMorphism(Record):
    """Variable images phi_i over the target, with optional ideals I and J."""

    __slots__ = ("source", "target", "images", "I", "J")

    def __init__(self, source: Ring, target: Ring, images: list, I=None, J=None):
        if len(images) != source.nvars:
            raise TruncasError("one image per source variable is required")
        for g in images:
            if g.ring != target:
                raise TruncasError("images must live in the target ring")
        if source.field != target.field:
            raise TruncasError("source and target share one field")
        if I is not None and I.ring != source:
            raise TruncasError("I must be an ideal of the source ring")
        if J is not None and J.ring != target:
            raise TruncasError("J must be an ideal of the target ring")
        self.source, self.target, self.images, self.I, self.J = source, target, images, I, J

    @property
    def field(self):
        return self.source.field

    def polynomial_images(self) -> bool:
        return all(isinstance(g, Polynomial) for g in self.images)

    def is_local(self) -> bool:
        """True iff every image vanishes at the origin: phi maps (x) into (y)."""
        return not any(g.constant_term() for g in self.images)

    def images_known_to(self, order: int) -> bool:
        return all(
            isinstance(g, Polynomial) or g.known_order >= order for g in self.images
        )

    def well_defined(self, order: int = None) -> bool:
        """Check g(phi) in J for every generator g of I."""
        if self.I is None or self.I.is_zero():
            return True
        j_gens = [] if self.J is None else self.J.gens
        if self.polynomial_images():
            gb = buchberger(j_gens, GREVLEX)
            degs = [max(phi.total_deg(), 0) for phi in self.images]
            for g in self.I.gens:
                # g(phi) has degree below bound, so the lifted images compose it exactly
                bound = 1 + max((sum(map(mul, e, degs)) for e in g.terms), default=0)
                value = substitute(g, [phi.as_series(bound) for phi in self.images])
                if not gb.contains(Polynomial(self.target, value.terms, clean=False)):
                    return False
            return True
        if order is None:
            order = min(
                g.known_order for g in self.images if isinstance(g, TruncatedSeries)
            )
        series_images = [
            g.as_series(order) if isinstance(g, Polynomial) else g.truncate(order)
            for g in self.images
        ]
        rank_of = {e: i for i, e in enumerate(iter_exponents(self.target.nvars, order))}
        red = span_reducer(truncated_multiple_rows(j_gens, order, rank_of), self.field)
        for g in self.I.gens:
            value = substitute(g, series_images)
            if not red.member({rank_of[e]: c for e, c in value.terms.items()}):
                return False
        return True


# ---------------------------------------------------------------------------
# combined-ring plumbing


def _combined_ring(phi: AlgebraMorphism) -> Ring:
    names = phi.source.names + phi.target.names
    return Ring(phi.field, names, nx=phi.source.nvars)


def _graph_generators(phi: AlgebraMorphism, big: Ring, order: int = None):
    """J generators and (x_i - phi_i) over the combined ring.

    Series images make the graph generators series known to ``order``.
    """
    n = phi.source.nvars
    y_map = list(range(n, big.nvars))
    gens = []
    if phi.J is not None:
        for q in phi.J.gens:
            gens.append(q.map_ring(big, y_map))
    for i, img in enumerate(phi.images):
        xi = big.variable(i)
        if isinstance(img, Polynomial):
            gens.append(xi - img.map_ring(big, y_map))
        else:
            if order is None:
                raise TruncasError("series images need a working order")
            if img.known_order < order:
                raise PrecisionTooLow(
                    f"image known to order {img.known_order} < required {order}"
                )
            lifted = TruncatedSeries(
                big,
                {_pad_exp(e, n): c for e, c in img.terms.items()},
                order,
            )
            gens.append(xi.as_series(order) - lifted)
    return gens


def _pad_exp(e, n):
    return (0,) * n + tuple(e)


def _require_local(phi: AlgebraMorphism):
    if not phi.is_local():
        raise TruncasError("truncated kernels and preimages need images vanishing at the origin")


# ---------------------------------------------------------------------------
# exact kernel


def kernel_exact(phi: AlgebraMorphism) -> PolyIdeal:
    """Generators of ker phi via elimination of the target variables."""
    if not phi.polynomial_images():
        raise NonPolynomialImages("exact kernels need polynomial images")
    big = _combined_ring(phi)
    n = phi.source.nvars
    gens = _graph_generators(phi, big)
    order = BlockOrder(range(n, big.nvars), big.nvars)
    gb = buchberger(gens, order)
    kept = [g.restrict_to(n) for g in gb if g.support_within(n)]
    if phi.I is not None and not phi.I.is_zero():
        gb_i = buchberger(phi.I.gens, GREVLEX)
        kept = [gb_i.normal_form(g) for g in kept]
    return PolyIdeal(phi.source, [g for g in kept if not g.is_zero()])


# ---------------------------------------------------------------------------
# truncated kernel candidates


class KernelReport(Record):
    __slots__ = ("c", "cprimes", "candidate_basis", "stabilized", "exact_kernel", "dimensions")

    def __init__(self, c, cprimes, candidate_basis, stabilized, exact_kernel=None, dimensions=None):
        # candidate_basis: canonical representatives modulo truncations of I
        self.c, self.cprimes, self.candidate_basis = c, cprimes, candidate_basis
        self.stabilized, self.exact_kernel = stabilized, exact_kernel
        self.dimensions = [] if dimensions is None else dimensions


def truncated_completion_kernel(
    phi: AlgebraMorphism, c: int, cprimes=None
) -> KernelReport:
    """Candidate spans of the completed kernel at a schedule of working orders.

    The space at each working order contains every truncation of the
    completed kernel and weakly shrinks as the order grows; ``stabilized``
    records whether the last two spans agree (modulo truncations of I).
    """
    if cprimes is None:
        cprimes = [c, c + 2, c + 4]
    cprimes = sorted(set(cprimes))
    if cprimes[0] < c:
        raise TruncasError("working orders must be at least the target order")
    _require_local(phi)
    if not phi.images_known_to(cprimes[-1]):
        raise PrecisionTooLow("images are not known to the largest working order")

    big = _combined_ring(phi)
    rank_of, first_kept, kept = subspace_column_ranks(big, c, cprimes[-1])
    gens = _graph_generators(phi, big, order=cprimes[-1])
    i_gens = [] if phi.I is None else phi.I.gens
    # truncations of I go in first, so candidate representatives are reduced mod I
    i_rows = truncated_multiple_rows(i_gens, c, {e: r for r, e in kept.items()})
    i_red = span_reducer(i_rows, phi.field)
    bases = []
    for cp in cprimes:
        red = span_reducer(i_rows + truncated_multiple_rows(gens, cp, rank_of), phi.field)
        basis = []
        for p in sorted(red.pivots):
            if p < first_kept:
                continue
            row = red.row(p)
            if not i_red.member(row):  # else already a truncation of I
                terms = {kept[col]: v for col, v in row.items()}
                basis.append(Polynomial(phi.source, terms, clean=False))
        bases.append(basis)
    stabilized = len(bases) >= 2 and same_span_below(bases[-1], bases[-2], phi.source, c, i_gens)
    exact = None
    if phi.polynomial_images():
        exact = kernel_exact(phi)
    return KernelReport(c, cprimes, bases[-1], stabilized, exact, [len(b) for b in bases])


# ---------------------------------------------------------------------------
# strong injectivity comparison and preimages


class InjectivityReport(Record):
    __slots__ = ("c", "cprimes", "stabilized", "equal", "exact_kernel", "candidate_basis")

    def __init__(self, c, cprimes, stabilized, equal, exact_kernel, candidate_basis):
        self.c, self.cprimes, self.stabilized, self.equal = c, cprimes, stabilized, equal
        self.exact_kernel, self.candidate_basis = exact_kernel, candidate_basis


def check_strong_injectivity(
    phi: AlgebraMorphism, c: int, cprimes=None
) -> InjectivityReport:
    """Compare stabilized truncated kernel spans with the exact kernel below c.

    The stabilized candidate space consists of low-degree polynomials that
    certify membership at every working order, which is the degree-below-c
    part of the exact kernel; that is the space the comparison uses.
    """
    report = truncated_completion_kernel(phi, c, cprimes)
    exact = report.exact_kernel
    if exact is None:
        exact = kernel_exact(phi)
    i_gens = [] if phi.I is None else phi.I.gens
    low = ideal_low_degree_space(exact, c)
    equal = same_span_below(report.candidate_basis, low, phi.source, c, i_gens)
    return InjectivityReport(
        c, report.cprimes, report.stabilized, equal, exact, report.candidate_basis
    )


def preimage(phi: AlgebraMorphism, b, c: int):
    """A source series f with phi(f) = b modulo J and (y)^c, or None.

    The certificate identity f = b + sum q_k l_k + sum (x_i - phi_i) k_i is
    solved modulo (x,y)^c; the returned f is the canonical normal form of b
    against the span of truncated generator multiples, so it is independent
    of everything but the input data.
    """
    if isinstance(b, TruncatedSeries) and b.known_order < c:
        raise PrecisionTooLow("preimage target not known to the working order")
    if b.ring != phi.target:
        raise TruncasError("preimage target must live in the target ring")
    _require_local(phi)
    big = _combined_ring(phi)
    n = phi.source.nvars
    # every source monomial below c is kept: f is read off the x-only columns
    rank_of, first_kept, kept = subspace_column_ranks(big, c, c)
    gens = _graph_generators(phi, big, order=c)
    red = span_reducer(truncated_multiple_rows(gens, c, rank_of), phi.field)
    target = {rank_of[_pad_exp(e, n)]: v for e, v in b.terms.items() if sum(e) < c}
    nf, _ = red.reduce(target)
    if any(col < first_kept for col in nf):
        return None
    return TruncatedSeries(phi.source, {kept[col]: v for col, v in nf.items()}, c)
