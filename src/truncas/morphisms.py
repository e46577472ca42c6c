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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    Ring,
    TruncatedSeries,
    iter_exponents,
    substitute,
)


@dataclass
class AlgebraMorphism:
    """Variable images phi_i over the target, with optional ideals I and J."""

    source: Ring
    target: Ring
    images: list
    I: PolyIdeal = None
    J: PolyIdeal = None

    def __post_init__(self):
        if len(self.images) != self.source.nvars:
            raise TruncasError("one image per source variable is required")
        for g in self.images:
            if g.ring != self.target:
                raise TruncasError("images must live in the target ring")
        if self.source.field != self.target.field:
            raise TruncasError("source and target share one field")
        if self.I is not None and self.I.ring != self.source:
            raise TruncasError("I must be an ideal of the source ring")
        if self.J is not None and self.J.ring != self.target:
            raise TruncasError("J must be an ideal of the target ring")

    @property
    def field(self):
        return self.source.field

    def polynomial_images(self) -> bool:
        return all(isinstance(g, Polynomial) for g in self.images)

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


@dataclass
class KernelReport:
    c: int
    cprimes: list
    candidate_basis: list  # canonical representatives modulo truncations of I
    stabilized: bool
    exact_kernel: PolyIdeal = None
    dimensions: list = field(default_factory=list)


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


@dataclass
class InjectivityReport:
    c: int
    cprimes: list
    stabilized: bool
    equal: bool
    exact_kernel: PolyIdeal
    candidate_basis: list


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
