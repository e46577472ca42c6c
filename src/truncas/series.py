"""Multivariate polynomials and precision-tracked truncated power series.

Terms are sparse maps from exponent tuples to nonzero field elements.  A
``TruncatedSeries`` carries a ``known_order``: coefficients of total degree
strictly below it are exact, everything above is unknown.  Every operation
propagates the conservative order

    add:  min(order(f), order(g))
    mul:  min(order(f) + val(g), order(g) + val(f))

where ``val`` is the valuation lower bound (minimal stored total degree, or
the known order when no terms are stored).  The bookkeeping never claims
precision the inputs cannot certify.

Canonical term order for printing and iteration is graded, then by
declaration-order variable precedence inside each degree (x1 before x2).

``Polynomial`` and ``TruncatedSeries`` share one term-arithmetic core:
queries, negation, scaling and the merge loop behind ``+`` and ``-`` are
written once, and each class only says how a result is built.  Both
products run the one kernel ``graded_product``, a series at its derived
order and a polynomial at the exact bound ``deg f + deg g + 1``; inversion
keeps its own recurrence.  ``substitute`` is the only composition routine.

The kernel has two paths and no code branches on which field it is.

- Packed (Kronecker substitution; von zur Gathen & Gerhard, *Modern
  Computer Algebra*, section 8.4).  The field's ``scale_row`` gives each
  operand as integer numerators over one denominator (the lcm over Q, 1
  over F_p).  Variable i gets weight B^i with B = 2 below - 1, so the
  numerators go into one Python integer per operand, in byte-aligned slots
  wide enough for min(#f, #g) products plus a sign bit; negative
  numerators are packed apart and subtracted.  One big-integer multiply
  forms every output coefficient.  Adding 2^(w-1) to each w-bit slot makes
  all slots non-negative, one ``to_bytes`` reads them out, and only the
  slots of degree < below are sliced, through a table built on first use
  per ``(nvars, below)``; ``unscale`` divides by the two denominators.
- Graded loop.  Each operand's terms are grouped by total degree into
  sorted ``(degree, [(exponent, raw coeff)])`` lists that hold only the
  degrees present, so a product visits only degree pairs that land below
  its bound and stops at the first pair that reaches it.  Inner loops add
  plain numbers: the field's ``unwrap`` gives the raw value of an element
  (the ``Fraction`` for Q, the residue for F_p) and ``wrap`` turns each
  output sum back into a field element once.

The packed path runs when ``PACKED_MIN_FILL * (2 below - 1)^n <= #f * #g``,
that is when the term pairs fill the dense box it multiplies.  The
constant was measured on random dense products over Q and F_(2^31-1) in
1-3 variables and on the products of the ``fp`` benchmark stream.  Sparse
and parse-size products keep the graded loop, and so do most products in
three or more variables, where the box (2 below - 1)^n is mostly waste.

``invert`` keeps its degree-by-degree recurrence: Newton inversion on the
packed product gives the same series but was about twice as slow over F_p
in 1-3 variables, and won only over Q, where no hot path inverts.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, le, mul, sub

from .errors import CompositionIllDefined, NonUnit, RingMismatch, TruncasError

Exponent = tuple

# ---------------------------------------------------------------------------
# exponent vectors


def total_degree(exp: Exponent) -> int:
    return sum(exp)


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(sub, a, b))


def exp_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def iter_exponents(nvars: int, below: int):
    """All exponent tuples of total degree < ``below``, canonically ordered."""
    return chain.from_iterable(exponents_of_degree(nvars, d) for d in range(below))


@cache
def exponents_of_degree(nvars: int, d: int) -> tuple:
    """All exponent tuples of total degree ``d``, canonically ordered.

    The tuple depends only on its arguments, so it is built once per
    ``(nvars, d)``; it is no larger than the column maps built from it.
    """
    if nvars == 0:
        return ((),) if d == 0 else ()
    if nvars == 1:
        return ((d,),)
    return tuple(
        (k,) + rest for k in range(d, -1, -1) for rest in exponents_of_degree(nvars - 1, d - k)
    )


def canonical_exp_key(exp: Exponent):
    """Sort key realizing the canonical printing order."""
    return (total_degree(exp), tuple(-e for e in exp))


# ---------------------------------------------------------------------------
# rings


class Record:
    """Field-wise ``==`` and ``repr`` over ``__slots__``; ``_`` slots are compared, not shown.

    The package's value classes use it in place of dataclasses, whose import
    (inspect, ast, dis) was the largest part of the CLI's start-up.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"


class FrozenRecord(Record):
    """A hashable ``Record``; ``__init__`` sets each field once, by ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Ring(FrozenRecord):
    """A variable block descriptor over an exact field.

    ``nx`` marks the size of the leading block when the ring was declared
    with two blocks (x; y); it is ``None`` for single-block rings.
    """

    __slots__ = ("field", "names", "nx", "_key")

    def __init__(self, field, names, nx=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "nx", nx)
        object.__setattr__(self, "_key", (field, names, nx))

    # every binary op on series and polynomials compares rings, mostly a ring with
    # itself; both operators are spelled out, so neither goes through the other
    def __eq__(self, other):
        if other.__class__ is not Ring:
            return NotImplemented
        return self is other or self._key == other._key

    def __ne__(self, other):
        if other.__class__ is not Ring:
            return NotImplemented
        return self is not other and self._key != other._key

    def __hash__(self):
        return hash(self._key)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero_exp(self) -> Exponent:
        return (0,) * self.nvars

    def unit_exp(self, i: int) -> Exponent:
        e = [0] * self.nvars
        e[i] = 1
        return tuple(e)

    def variable(self, i: int) -> "Polynomial":
        return Polynomial(self, {self.unit_exp(i): self.field.one})

    def variable_series(self, i: int, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self, {self.unit_exp(i): self.field.one}, order)

    def restrict(self, k: int) -> "Ring":
        return Ring(self.field, self.names[:k])

    def extend(self, extra) -> "Ring":
        extra = tuple(extra)
        for name in extra:
            if name in self.names:
                raise TruncasError(f"variable name {name!r} already in ring")
        return Ring(self.field, self.names + extra, self.nx)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise TruncasError(f"unknown variable {name!r}") from None

    def __repr__(self):
        return f"Ring({self.field!r}, {', '.join(self.names)})"


def _require_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"ring mismatch: {a.ring!r} vs {b.ring!r}")


# ---------------------------------------------------------------------------
# term arithmetic shared by polynomials and series


def graded_terms(terms, unwrap, below):
    """Terms of degree < ``below`` as sorted ``(degree, [(exponent, unwrap(coeff))])``.

    Only degrees that hold a term appear.
    """
    by_degree = {}
    for e, c in terms.items():
        d = sum(e)
        if d < below:
            by_degree.setdefault(d, []).append((e, unwrap(c)))
    return sorted(by_degree.items())


def _wrapped(acc, wrap):
    """Field elements of a raw-value accumulator, zeros dropped."""
    out = {}
    for e, v in acc.items():
        c = wrap(v)
        if c:
            out[e] = c
    return out


# The packed product runs when the operands' term pairs number at least this
# many times the dense box of (2 below - 1)^n slots it multiplies; below that
# the graded loop is faster.  A measured crossover, like a Karatsuba
# threshold (module docstring); not an option.
PACKED_MIN_FILL = 3


def graded_product(f_terms, g_terms, field, below) -> dict:
    """Nonzero terms of total degree < ``below`` of the product of two term dicts."""
    pairs = len(f_terms) * len(g_terms)
    # the box is at least 2 below - 1 slots, so small products skip the power
    if pairs and PACKED_MIN_FILL * (2 * below - 1) <= pairs:
        nvars = len(next(iter(f_terms)))
        if PACKED_MIN_FILL * (2 * below - 1) ** nvars <= pairs:
            return _packed_product(f_terms, g_terms, field, below, nvars)
    unwrap = field.unwrap
    acc = {}
    right = graded_terms(g_terms, unwrap, below)
    for d1, terms1 in graded_terms(f_terms, unwrap, below):
        for d2, terms2 in right:
            if d1 + d2 >= below:
                break
            for e1, c1 in terms1:
                for e2, c2 in terms2:
                    e = tuple(map(add, e1, e2))
                    s = acc.get(e)
                    acc[e] = c1 * c2 if s is None else s + c1 * c2
    return _wrapped(acc, field.wrap)


@cache
def _slot_table(nvars: int, below: int) -> tuple:
    """``(exponent, slot)`` for every exponent of degree < ``below``, slot = sum e_i B^i."""
    weights = [(2 * below - 1) ** i for i in range(nvars)]
    return tuple((e, sum(map(mul, e, weights))) for e in iter_exponents(nvars, below))


def _pack(nums, weights, width, slots) -> int:
    """One integer holding ``nums[e]`` in ``width``-byte slot ``sum e_i weights_i``."""
    pos = bytearray(width * slots)
    neg = None
    for e, a in nums.items():
        at = sum(map(mul, e, weights)) * width
        if a >= 0:
            pos[at : at + width] = a.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(width * slots)
            neg[at : at + width] = (-a).to_bytes(width, "little")
    packed = int.from_bytes(pos, "little")
    return packed if neg is None else packed - int.from_bytes(neg, "little")


def _packed_product(f_terms, g_terms, field, below, nvars) -> dict:
    """``graded_product`` by Kronecker substitution: one big-integer multiply.

    Variable i gets weight B^i with B = 2 below - 1, so no exponent sum of
    two terms of degree < below carries into the next variable's digit.
    Numerators come in through the field's ``scale_row`` over one
    denominator per operand; every output slot is a sum of at most
    min(#f, #g) products, which the slot width holds with a sign bit.
    """
    f_den, f_nums, _ = field.scale_row(
        {e: c for e, c in f_terms.items() if sum(e) < below}, field.zero
    )
    g_den, g_nums, _ = field.scale_row(
        {e: c for e, c in g_terms.items() if sum(e) < below}, field.zero
    )
    if not f_nums or not g_nums:
        return {}
    bits = (
        max(map(abs, f_nums.values())).bit_length()
        + max(map(abs, g_nums.values())).bit_length()
        + min(len(f_nums), len(g_nums)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    base = 2 * below - 1
    weights = [base**i for i in range(nvars)]
    slots = (below - 1) * weights[-1] + 1  # up to the last slot of degree < below
    product = _pack(f_nums, weights, width, slots) * _pack(g_nums, weights, width, slots)
    # one offset of 2^(8 width - 1) per slot makes every slot non-negative,
    # so the low slots read off with a single to_bytes
    offset = 1 << (8 * width - 1)
    size = width * slots
    offsets = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    data = ((product + offsets) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
    unscale = field.unscale
    den = f_den * g_den
    out = {}
    for e, slot in _slot_table(nvars, below):
        at = slot * width
        v = int.from_bytes(data[at : at + width], "little") - offset
        if v:
            c = unscale(v, den)
            if c:
                out[e] = c
    return out


class _Terms:
    """Queries and linear arithmetic on a sparse ``terms`` dict over ``ring``.

    A subclass supplies ``_result(terms, other=None)``: an object of its own
    kind holding the nonzero ``terms`` computed from ``self`` alone, or from
    ``self`` and ``other``.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Exponent):
        return self.terms.get(tuple(exp), self.ring.field.zero)

    def constant_term(self):
        return self.terms.get(self.ring.zero_exp(), self.ring.field.zero)

    def support_within(self, bound: int) -> bool:
        """True iff every stored exponent uses only the first ``bound`` variables."""
        return all(all(x == 0 for x in e[bound:]) for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: canonical_exp_key(kv[0]))

    def __add__(self, other):
        return self._merged(other, other.terms)

    def __sub__(self, other):
        return self._merged(other, {e: -c for e, c in other.terms.items()})

    def _merged(self, other, terms):
        _require_same_ring(self, other)
        out = dict(self.terms)
        for e, c in terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return self._result(out, other)

    def __neg__(self):
        return self._result({e: -c for e, c in self.terms.items()})

    def scale(self, value):
        c0 = self.ring.field(value)
        if not c0:
            return self._result({})
        return self._result({e: c0 * c for e, c in self.terms.items()})


# ---------------------------------------------------------------------------
# polynomials


class Polynomial(_Terms):
    """An exact sparse multivariate polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms=None, clean: bool = True):
        self.ring = ring
        if terms is None:
            self.terms = {}
        elif clean:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = terms

    # construction helpers

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: Ring, value) -> "Polynomial":
        c = ring.field(value)
        if not c:
            return cls(ring, {})
        return cls(ring, {ring.zero_exp(): c}, clean=False)

    def _result(self, terms, other=None) -> "Polynomial":
        return Polynomial(self.ring, terms, clean=False)

    # queries

    def total_deg(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(total_degree(e) for e in self.terms)

    # arithmetic

    def __mul__(self, other):
        _require_same_ring(self, other)
        bound = self.total_deg() + other.total_deg() + 1
        terms = graded_product(self.terms, other.terms, self.ring.field, bound)
        return Polynomial(self.ring, terms, clean=False)

    def __pow__(self, n: int):
        if n < 0:
            raise TruncasError("negative polynomial power")
        result = Polynomial.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def derivative(self, var: int) -> "Polynomial":
        out = {}
        field = self.ring.field
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            d = list(e)
            d[var] = k - 1
            coeff = field(k) * c
            if coeff:
                out[tuple(d)] = coeff
        return Polynomial(self.ring, out, clean=False)

    # conversions

    def as_series(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, dict(self.terms), order)

    def map_ring(self, ring: Ring, var_map) -> "Polynomial":
        """Re-express in ``ring`` sending variable i to ``var_map[i]`` of the new ring."""
        out = {}
        for e, c in self.terms.items():
            ne = [0] * ring.nvars
            for i, k in enumerate(e):
                if k:
                    ne[var_map[i]] = k
            out[tuple(ne)] = c
        return Polynomial(ring, out, clean=False)

    def restrict_to(self, k: int) -> "Polynomial":
        """Drop trailing variables; requires support within the first k."""
        if not self.support_within(k):
            raise TruncasError("polynomial uses variables outside the restricted block")
        sub = self.ring.restrict(k)
        return Polynomial(sub, {e[:k]: c for e, c in self.terms.items()}, clean=False)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.sorted_terms())))

    def __repr__(self):
        return format_terms(self)


# ---------------------------------------------------------------------------
# truncated series


class TruncatedSeries(_Terms):
    """A power series known exactly below ``known_order`` total degree."""

    __slots__ = ("ring", "terms", "known_order")

    def __init__(self, ring: Ring, terms, known_order: int):
        if known_order < 1:
            raise TruncasError("known_order must be positive")
        self.ring = ring
        self.known_order = known_order
        self.terms = {e: c for e, c in terms.items() if c and sum(e) < known_order}

    @classmethod
    def _clean(cls, ring: Ring, terms: dict, known_order: int) -> "TruncatedSeries":
        """A series over ``terms`` that are already nonzero and of degree < known_order."""
        out = cls.__new__(cls)
        out.ring = ring
        out.known_order = known_order
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "TruncatedSeries":
        return cls(ring, {}, order)

    @classmethod
    def const(cls, ring: Ring, value, order: int) -> "TruncatedSeries":
        c = ring.field(value)
        terms = {ring.zero_exp(): c} if c else {}
        return cls(ring, terms, order)

    def _result(self, terms, other=None) -> "TruncatedSeries":
        # terms from operands of one order are already below it
        if other is None or other.known_order == self.known_order:
            return TruncatedSeries._clean(self.ring, terms, self.known_order)
        return TruncatedSeries(self.ring, terms, min(self.known_order, other.known_order))

    # queries

    def valuation(self) -> int:
        """Valuation lower bound: min stored degree, or the known order."""
        if not self.terms:
            return self.known_order
        return min(total_degree(e) for e in self.terms)

    def nested_support_ok(self, bound: int) -> bool:
        """``support_within(bound)`` for a bound that must lie in 0..nvars."""
        if bound < 0 or bound > self.ring.nvars:
            raise TruncasError(f"bound {bound} outside 0..{self.ring.nvars}")
        return self.support_within(bound)

    # arithmetic

    def __mul__(self, other):
        _require_same_ring(self, other)
        order = min(
            self.known_order + other.valuation(), other.known_order + self.valuation()
        )
        terms = graded_product(self.terms, other.terms, self.ring.field, order)
        return TruncatedSeries._clean(self.ring, terms, order)

    def truncate(self, c: int) -> "TruncatedSeries":
        order = min(c, self.known_order)
        return TruncatedSeries(self.ring, self.terms, order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse modulo (x)^known_order."""
        c0 = self.constant_term()
        if not c0:
            raise NonUnit("cannot invert a series with zero constant term")
        field = self.ring.field
        unwrap = field.unwrap
        order = self.known_order
        inv0 = field.one / c0
        neg_inv0 = unwrap(-inv0)
        out = {self.ring.zero_exp(): inv0}
        # degree-by-degree recurrence: g_d = -1/f0 * sum_{0 < k <= d} f_k g_{d-k},
        # where f_k, g_k are the degree-k parts; g_by_degree[k] holds g_k raw
        nonconst = [(k, terms) for k, terms in graded_terms(self.terms, unwrap, order) if k]
        g_by_degree = [[(self.ring.zero_exp(), unwrap(inv0))]]
        for d in range(1, order):
            acc = {}
            for k, f_k in nonconst:
                if k > d:
                    break
                for e1, c1 in f_k:
                    for e2, c2 in g_by_degree[d - k]:
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
            g_d = _wrapped({e: neg_inv0 * v for e, v in acc.items()}, field.wrap)
            out.update(g_d)
            g_by_degree.append([(e, unwrap(c)) for e, c in g_d.items()])
        return TruncatedSeries._clean(self.ring, out, order)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.known_order == other.known_order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.known_order, tuple(self.sorted_terms())))

    def __repr__(self):
        return format_terms(self, order=self.known_order)


# ---------------------------------------------------------------------------
# substitution


def substitute(f, images) -> TruncatedSeries:
    """Compose ``f`` (Polynomial or TruncatedSeries) with series images.

    One image per variable of f's ring; all images share one target ring.
    When f is a proper series every image must have valuation >= 1, and the
    result's order is additionally capped by known_order(f) * min valuation,
    the degree from which f's unknown tail could contribute.
    """
    images = list(images)
    if len(images) != f.ring.nvars:
        raise TruncasError("one image per variable is required")
    if not images:
        raise TruncasError("substitution needs at least one variable")
    target = images[0].ring
    for g in images:
        if not isinstance(g, TruncatedSeries):
            raise TruncasError("substitute expects TruncatedSeries images")
        if g.ring != target:
            raise RingMismatch("images live in different rings")
    if f.ring.field != target.field:
        raise RingMismatch("field mismatch between f and its images")

    cap = None
    if isinstance(f, TruncatedSeries):
        vals = [g.valuation() for g in images]
        if any(v == 0 for v in vals):
            raise CompositionIllDefined(
                "series substitution requires images without constant term"
            )
        cap = f.known_order * min(vals)

    # the order of f's constant term: above every image order, so it lowers none
    big = max(g.known_order for g in images) + 1
    powers = [{1: g} for g in images]

    def power(i, k) -> TruncatedSeries:
        cache = powers[i]
        if k not in cache:
            cache[k] = power(i, k - 1) * images[i]
        return cache[k]

    result = None
    for e, c in f.terms.items():
        term = None
        for i, k in enumerate(e):
            if k:
                term = power(i, k) if term is None else term * power(i, k)
        term = TruncatedSeries.const(target, c, big) if term is None else term.scale(c)
        result = term if result is None else result + term
    if result is None:
        result = TruncatedSeries.zero(target, big)
    order = result.known_order if cap is None else min(result.known_order, cap)
    # constant terms keep the zero-variable degree bound meaningless; order
    # stays what the arithmetic derived in that case
    return TruncatedSeries(target, result.terms, order)


# ---------------------------------------------------------------------------
# canonical text form


def format_terms(obj, order: int = None) -> str:
    """Canonical textual form shared by Polynomial and TruncatedSeries."""
    names = obj.ring.names
    parts = []
    for e, c in obj.sorted_terms():
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        cs = str(c)
        if factors:
            if cs == "1":
                body = "*".join(factors)
            elif cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = cs + "*" + "*".join(factors)
        else:
            body = cs
        parts.append(body)
    if not parts:
        text = "0" if order is None else ""
    else:
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
    if order is not None:
        marker = f"O(deg {order})"
        text = marker if not text else f"{text} + {marker}"
    return text
