"""Sparse exact linear algebra over the coefficient fields.

Rows are dicts keyed by integer column ranks.  ``RowReducer`` keeps an
echelon form incrementally: an inserted row is reduced against the stored
rows and stored with its lowest-ranked nonzero column as pivot, and no
stored row is touched.  Pivot selection by lowest rank keeps every result
deterministic; the caller controls elimination priorities entirely through
its column ranking.

A stored row is integer numerators ``pivots[col]`` over one row denominator
``dens[col]``, with ``pivots[col][col] == dens[col]`` (pivot coefficient 1);
the row's rhs numerator ``rhs[col]`` shares that denominator.  Nothing else is
stored, because callers read echelon rows and right-hand sides only.
The field's row hooks (``scale_row``, ``cancel_factors``, ``canonical_row``,
``unscale``; see ``fields``) bring rows in, cancel a pivot column, keep each
stored row canonical and read elements out, so the elimination loops do
plain ``int`` arithmetic with no branch on the field, as in fraction-free
elimination (Bareiss, Math. Comp. 22, 1968).

Every other column of a stored row lies above its pivot, so a row is reduced
by cancelling the pivot columns it hits in ascending order: cancelling one
adds only higher columns, and a heap of hit columns visits each once.  The
result has no pivot column, and the span of the stored rows holds no
nonzero vector free of pivot columns, so this normal form is unique given
the pivots.  The pivots are those a fully reduced form would choose, so
``reduce`` and ``member`` return the same as with a fully reduced form.

The fully reduced rows (``row``, ``particular_solution``, ``nullspace_basis``)
come from one top-down back-substitution on read.  It covers only the pivots
at or above the lowest one asked for, is kept until the next pivot is
inserted, and is extended downwards on demand, so callers that read only a
last-ranked block never reduce the rows below it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf


class RowReducer:
    """Incremental echelon form over an exact field, fully reduced on read."""

    def __init__(self, field):
        self.field = field
        self.zero = field.zero
        self.pivots = {}  # pivot col -> {col >= pivot: numerator}, numerator at pivot == den
        self.dens = {}  # pivot col -> positive row denominator
        self.rhs = {}  # pivot col -> right-hand side numerator
        self._drop_reduced()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _drop_reduced(self):
        # fully reduced rows of the pivots >= _reduced_low, in the stored layout
        self._reduced_rows = ({}, {}, {})
        self._reduced_low = inf

    def _eliminate(self, den, nums, rhs, store):
        """Cancel every pivot column of ``store`` in the scaled row, lowest first.

        ``store`` is (rows, dens, rhs) keyed by pivot column.  ``nums`` may be
        updated in place, so callers pass a fresh dict.  Zeros may remain.
        """
        rows, dens, rhss = store
        hits = [h for h in nums if h in rows]
        if not hits:
            return den, nums, rhs
        heapify(hits)
        factors = self.field.cancel_factors
        while hits:
            h = heappop(hits)
            a, b = factors(nums[h], dens[h])
            if not b:
                continue
            if a != 1:
                den *= a
                nums = {c: v * a for c, v in nums.items()}
                rhs *= a
            for col, val in rows[h].items():
                cur = nums.get(col)
                if cur is None:
                    nums[col] = -b * val
                    if col in rows:
                        heappush(hits, col)
                else:
                    nums[col] = cur - b * val
            rhs -= b * rhss[h]
        return den, nums, rhs

    def _reduced(self, row, rhs=None):
        """Canonical scaled (den, nums, rhs) of a row reduced by the pivots."""
        field = self.field
        den, nums, rhs = field.scale_row(row, self.zero if rhs is None else rhs)
        store = (self.pivots, self.dens, self.rhs)
        return field.canonical_row(*self._eliminate(den, nums, rhs, store))

    def reduce(self, row, rhs=None):
        """Reduce a row and rhs against the current pivots; returns new (row, rhs)."""
        den, nums, rhs = self._reduced(row, rhs)
        out = self.field.unscale
        return {c: out(v, den) for c, v in nums.items()}, out(rhs, den)

    def add(self, row, rhs=None) -> str:
        """Insert a row.  Returns 'pivot', 'dependent' or 'inconsistent'."""
        den, nums, rhs = self._reduced(row, rhs)
        if not nums:
            return "dependent" if not rhs else "inconsistent"
        pivot = min(nums)
        den, nums, rhs = self.field.canonical_row(nums[pivot], nums, rhs)
        self.pivots[pivot] = nums
        self.dens[pivot] = den
        self.rhs[pivot] = rhs
        self._drop_reduced()
        return "pivot"

    def _fully_reduced(self, low):
        """(rows, dens, rhs) fully reduced for every pivot >= ``low``.

        Rows are back-substituted top-down, each against the reduced rows
        above it, so only the pivots not yet covered are reduced.
        """
        store = self._reduced_rows
        if low < self._reduced_low:
            rows, dens, rhss = store
            canonical = self.field.canonical_row
            todo = sorted((p for p in self.pivots if low <= p < self._reduced_low), reverse=True)
            for p in todo:
                scaled = self._eliminate(self.dens[p], dict(self.pivots[p]), self.rhs[p], store)
                dens[p], rows[p], rhss[p] = canonical(*scaled)
            self._reduced_low = low
        return store

    def row(self, pivot_col):
        """The fully reduced row with pivot ``pivot_col`` as field elements."""
        rows, dens, _ = self._fully_reduced(pivot_col)
        den, out = dens[pivot_col], self.field.unscale
        return {c: out(v, den) for c, v in rows[pivot_col].items()}

    def member(self, row) -> bool:
        return not self._reduced(row)[1]

    def particular_solution(self):
        """Free columns set to zero; pivot columns read off the reduced rhs."""
        _, dens, rhs = self._fully_reduced(min(self.pivots, default=0))
        out = self.field.unscale
        return {col: out(rhs[col], dens[col]) for col in self.pivots if rhs[col]}

    def nullspace_basis(self, all_columns):
        """One basis vector per free column, over the given column universe."""
        rows, dens, _ = self._fully_reduced(min(self.pivots, default=0))
        out = self.field.unscale
        entries = {}  # free col -> [(pivot col, reduced coefficient)]
        for pcol in sorted(rows):
            den = dens[pcol]
            for col, v in rows[pcol].items():
                if col != pcol:
                    entries.setdefault(col, []).append((pcol, out(-v, den)))
        one = self.field.one
        basis = []
        for free in all_columns:
            if free not in self.pivots:
                vec = {free: one}
                vec.update(entries.get(free, ()))
                basis.append(vec)
        return basis


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

