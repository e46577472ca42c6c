"""Sparse exact linear algebra over the coefficient fields.

Rows are dicts keyed by integer column ranks.  ``RowReducer`` keeps an
echelon form incrementally: an inserted row is reduced against the stored
rows and stored with its lowest-ranked nonzero column as pivot, and no
stored row is touched.  Pivot selection by lowest rank keeps every result
deterministic; the caller controls elimination priorities entirely through
its column ranking.

A stored row is integer numerators ``pivots[col]`` over one row denominator
``dens[col]``, with ``pivots[col][col] == dens[col]`` (pivot coefficient 1);
the row's rhs numerator and combination numerators share that denominator.
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
``reduce``, ``member`` and ``express`` (over independent inserted rows, a
unique combination) return the same as with a fully reduced form.

The fully reduced rows (``row``, ``canonical_rows``, ``particular_solution``,
``nullspace_basis``) come from one top-down back-substitution on read.  It
covers only the pivots at or above the lowest one asked for, is kept until
the next pivot is inserted, and is extended downwards on demand, so callers
that read only a last-ranked block never reduce the rows below it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf

from .errors import TruncasError


class RowReducer:
    """Incremental echelon form over an exact field, fully reduced on read."""

    def __init__(self, field, track_combinations: bool = False):
        self.field = field
        self.zero = field.zero
        self.pivots = {}  # pivot col -> {col >= pivot: numerator}, numerator at pivot == den
        self.dens = {}  # pivot col -> positive row denominator
        self.rhs = {}  # pivot col -> right-hand side numerator
        self.track = track_combinations
        self.combos = {}  # pivot col -> {original row index: numerator}
        self.n_inserted = 0
        self._drop_reduced()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _drop_reduced(self):
        # fully reduced rows of the pivots >= _reduced_low, in the stored layout
        self._reduced_rows = ({}, {}, {}, {})
        self._reduced_low = inf

    def _eliminate(self, den, nums, rhs, combo, store):
        """Cancel every pivot column of ``store`` in the scaled row, lowest first.

        ``store`` is (rows, dens, rhs, combos) keyed by pivot column.  ``nums``
        and ``combo`` may be updated in place, so callers pass fresh dicts.
        Zeros may remain.
        """
        rows, dens, rhss, combos = store
        hits = [h for h in nums if h in rows]
        if not hits:
            return den, nums, rhs, combo
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
                if combo is not None:
                    combo = {i: v * a for i, v in combo.items()}
            for col, val in rows[h].items():
                cur = nums.get(col)
                if cur is None:
                    nums[col] = -b * val
                    if col in rows:
                        heappush(hits, col)
                else:
                    nums[col] = cur - b * val
            rhs -= b * rhss[h]
            if combo is not None:
                for idx, val in combos[h].items():
                    cur = combo.get(idx)
                    combo[idx] = -b * val if cur is None else cur - b * val
        return den, nums, rhs, combo

    def _reduced(self, row, rhs=None, combo=None):
        """Canonical scaled (den, nums, rhs, combo) of a row reduced by the pivots.

        ``combo``, if given, holds integer coefficients of inserted rows.
        """
        field = self.field
        den, nums, rhs = field.scale_row(row, self.zero if rhs is None else rhs)
        if combo is not None:
            combo = {i: v * den for i, v in combo.items()}
        store = (self.pivots, self.dens, self.rhs, self.combos)
        return field.canonical_row(*self._eliminate(den, nums, rhs, combo, store))

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
        den, nums, rhs, combo = self.field.canonical_row(nums[pivot], nums, rhs, combo)
        self.pivots[pivot] = nums
        self.dens[pivot] = den
        self.rhs[pivot] = rhs
        if combo is not None:
            self.combos[pivot] = combo
        self._drop_reduced()
        return "pivot"

    def _fully_reduced(self, low):
        """(rows, dens, rhs, combos) fully reduced for every pivot >= ``low``.

        Rows are back-substituted top-down, each against the reduced rows
        above it, so only the pivots not yet covered are reduced.
        """
        store = self._reduced_rows
        if low < self._reduced_low:
            rows, dens, rhss, combos = store
            canonical = self.field.canonical_row
            todo = sorted((p for p in self.pivots if low <= p < self._reduced_low), reverse=True)
            for p in todo:
                combo = self.combos.get(p)
                combo = None if combo is None else dict(combo)
                nums = dict(self.pivots[p])
                scaled = self._eliminate(self.dens[p], nums, self.rhs[p], combo, store)
                dens[p], rows[p], rhss[p], combo = canonical(*scaled)
                if combo is not None:
                    combos[p] = combo
            self._reduced_low = low
        return store

    def row(self, pivot_col):
        """The fully reduced row with pivot ``pivot_col`` as field elements."""
        rows, dens, _, _ = self._fully_reduced(pivot_col)
        den, out = dens[pivot_col], self.field.unscale
        return {c: out(v, den) for c, v in rows[pivot_col].items()}

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

    def particular_solution(self):
        """Free columns set to zero; pivot columns read off the reduced rhs."""
        _, dens, rhs, _ = self._fully_reduced(min(self.pivots, default=0))
        out = self.field.unscale
        return {col: out(rhs[col], dens[col]) for col in self.pivots if rhs[col]}

    def nullspace_basis(self, all_columns):
        """One basis vector per free column, over the given column universe."""
        rows, dens, _, _ = self._fully_reduced(min(self.pivots, default=0))
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

    def canonical_rows(self):
        """The fully reduced rows, ordered by pivot column."""
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

