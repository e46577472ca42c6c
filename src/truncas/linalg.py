"""Sparse exact linear algebra over the coefficient fields.

Rows are dicts keyed by integer column ranks.  ``RowReducer`` maintains a
reduced row echelon form incrementally: each inserted row is reduced against
the current pivots, and a fresh pivot is back-eliminated from every stored
row, so a pivot column appears in exactly one row.  Pivot selection is the
lowest-ranked nonzero column, which keeps every result deterministic; the
caller controls elimination priorities entirely through its column ranking.

A stored row is integer numerators ``pivots[col]`` over one row denominator
``dens[col]``, with ``pivots[col][col] == dens[col]`` (pivot coefficient 1);
the row's rhs numerator and combination numerators share that denominator.
The field's row hooks (``scale_row``, ``canonical_row``, ``unscale``; see
``fields``) bring rows in, keep each stored row canonical and read elements
out, so the elimination loops do plain ``int`` arithmetic with no branch on
the field, as in fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

Because the form is fully reduced, no pivot row touches another pivot
column: reducing a row takes every factor from the row as given, in one pass
over its pivot columns.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import TruncasError


class RowReducer:
    """Incremental reduced row echelon form over an exact field."""

    def __init__(self, field, track_combinations: bool = False):
        self.field = field
        self.zero = field.zero
        self.pivots = {}  # pivot col -> {col: numerator}, numerator at pivot == den
        self.dens = {}  # pivot col -> positive row denominator
        self.rhs = {}  # pivot col -> right-hand side numerator
        self.col_usage = {}  # col -> set of pivot cols whose rows touch it
        self.track = track_combinations
        self.combos = {}  # pivot col -> {original row index: numerator}
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _use(self, pivot_col, row):
        usage = self.col_usage
        for col in row:
            users = usage.get(col)
            if users is None:
                usage[col] = {pivot_col}
            else:
                users.add(pivot_col)

    def _eliminate(self, den, nums, rhs, combo):
        """Subtract every pivot row the scaled row touches; zeros may remain."""
        pivots = self.pivots
        hits = [h for h in nums if h in pivots]
        if not hits:
            return den, nums, rhs, combo
        dens = self.dens
        m = lcm(*[dens[h] for h in hits])
        factors = [(h, nums[h] * (m // dens[h])) for h in hits]
        if m != 1:
            den *= m
            nums = {c: v * m for c, v in nums.items()}
            rhs *= m
            if combo is not None:
                combo = {i: v * m for i, v in combo.items()}
        for h, f in factors:
            for col, val in pivots[h].items():
                cur = nums.get(col)
                nums[col] = -f * val if cur is None else cur - f * val
            rhs -= f * self.rhs[h]
            if combo is not None:
                for idx, val in self.combos[h].items():
                    cur = combo.get(idx)
                    combo[idx] = -f * val if cur is None else cur - f * val
        return den, nums, rhs, combo

    def _reduced(self, row, rhs=None, combo=None):
        """Canonical scaled (den, nums, rhs, combo) of a row reduced by the pivots.

        ``combo``, if given, holds integer coefficients of inserted rows.
        """
        field = self.field
        den, nums, rhs = field.scale_row(row, self.zero if rhs is None else rhs)
        if combo is not None:
            combo = {i: v * den for i, v in combo.items()}
        return field.canonical_row(*self._eliminate(den, nums, rhs, combo))

    def reduce(self, row, rhs=None):
        """Reduce a row and rhs against the current pivots; returns new objects.

        The third item is None unless the reducer tracks combinations; then
        it is minus the combination of inserted rows that was subtracted.
        """
        den, nums, rhs, combo = self._reduced(row, rhs, {} if self.track else None)
        out = self.field.unscale
        row = {c: out(v, den) for c, v in nums.items()}
        if combo is not None:
            combo = {i: out(v, den) for i, v in combo.items()}
        return row, out(rhs, den), combo

    def add(self, row, rhs=None) -> str:
        """Insert a row.  Returns 'pivot', 'dependent' or 'inconsistent'."""
        combo = {self.n_inserted: 1} if self.track else None
        self.n_inserted += 1
        den, nums, rhs, combo = self._reduced(row, rhs, combo)
        if not nums:
            return "dependent" if not rhs else "inconsistent"
        pivot = min(nums)
        canonical = self.field.canonical_row
        den, nums, rhs, combo = canonical(nums[pivot], nums, rhs, combo)
        for pcol in sorted(self.col_usage.get(pivot, ())):
            prow = self.pivots[pcol]
            f = prow.get(pivot)
            if not f:
                continue
            # prow/pden - (f/pden)(nums/den) over the denominator pden*a
            g = gcd(f, den)
            a, b = den // g, f // g
            prhs = self.rhs[pcol]
            pc = self.combos.get(pcol)
            if a != 1:
                prow = {c: v * a for c, v in prow.items()}
                prhs *= a
                if pc is not None:
                    pc = {i: v * a for i, v in pc.items()}
            for col, val in nums.items():
                cur = prow.get(col)
                if cur is None:
                    prow[col] = -b * val
                    self.col_usage.setdefault(col, set()).add(pcol)
                else:
                    prow[col] = cur - b * val
            prhs -= b * rhs
            if pc is not None:
                for idx, val in combo.items():
                    cur = pc.get(idx)
                    pc[idx] = -b * val if cur is None else cur - b * val
            size = len(prow)
            pden, prow, prhs, pc = canonical(self.dens[pcol] * a, prow, prhs, pc)
            if len(prow) != size:  # only columns of the new row can cancel
                for col in nums:
                    if col not in prow:
                        use = self.col_usage[col]
                        use.discard(pcol)
                        if not use:
                            del self.col_usage[col]
            self.pivots[pcol] = prow
            self.dens[pcol] = pden
            self.rhs[pcol] = prhs
            if pc is not None:
                self.combos[pcol] = pc
        self.pivots[pivot] = nums
        self.dens[pivot] = den
        self.rhs[pivot] = rhs
        if combo is not None:
            self.combos[pivot] = combo
        self._use(pivot, nums)
        return "pivot"

    def row(self, pivot_col):
        """The stored row with pivot ``pivot_col`` as field elements."""
        den, out = self.dens[pivot_col], self.field.unscale
        return {c: out(v, den) for c, v in self.pivots[pivot_col].items()}

    def member(self, row) -> bool:
        return not self._reduced(row)[1]

    def express(self, row):
        """Coefficients writing ``row`` as a combination of inserted rows, or None."""
        if not self.track:
            raise TruncasError("reducer was not tracking combinations")
        den, nums, _, combo = self._reduced(row, None, {})
        if nums:
            return None
        out = self.field.unscale
        return {i: out(-v, den) for i, v in combo.items()}

    def pivot_columns(self):
        return sorted(self.pivots)

    def particular_solution(self):
        """Free columns set to zero; pivot columns read off the rhs."""
        out = self.field.unscale
        return {col: out(self.rhs[col], self.dens[col]) for col in self.pivots if self.rhs[col]}

    def nullspace_basis(self, all_columns):
        """One basis vector per free column, over the given column universe."""
        one, out = self.field.one, self.field.unscale
        basis = []
        for free in all_columns:
            if free in self.pivots:
                continue
            vec = {free: one}
            for pcol in self.col_usage.get(free, ()):
                coeff = self.pivots[pcol].get(free)
                if coeff:
                    vec[pcol] = out(-coeff, self.dens[pcol])
            basis.append(vec)
        return basis

    def canonical_rows(self):
        """The stored rows, ordered by pivot column."""
        return [self.row(c) for c in sorted(self.pivots)]


def span_reducer(rows, field) -> RowReducer:
    red = RowReducer(field)
    for row in rows:
        red.add(row)
    return red


def spans_equal(rows_a, rows_b, field) -> bool:
    ra = span_reducer(rows_a, field)
    for row in rows_b:
        if not ra.member(row):
            return False
    rb = span_reducer(rows_b, field)
    return ra.rank == rb.rank


def intersect_spans(rows_a, rows_b, ncols: int, field):
    """Basis of span(A) ∩ span(B) by the doubled-column construction."""
    red = RowReducer(field)
    for row in rows_a:
        red.add({**{c: v for c, v in row.items()}, **{c + ncols: v for c, v in row.items()}})
    for row in rows_b:
        red.add(dict(row))
    out = []
    for pcol in sorted(red.pivots):
        if pcol >= ncols:
            out.append({c - ncols: v for c, v in red.row(pcol).items()})
    return out
