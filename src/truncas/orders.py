"""Monomial orders for Groebner computations.

Each order exposes ``key(exp)`` returning a tuple; larger key means larger
monomial.  Block orders put a designated front block of variables above
everything else, which is what elimination needs: any monomial touching the
front block beats every monomial supported on the back block alone.
"""

from __future__ import annotations

from operator import itemgetter, neg


def _grevlex_key(exp):
    return (sum(exp), tuple(map(neg, reversed(exp))))


def _picker(indices):
    """Function taking an exponent to the tuple of its entries at ``indices``."""
    if len(indices) == 1:
        (i,) = indices
        return lambda exp: (exp[i],)
    if not indices:
        return lambda exp: ()
    return itemgetter(*indices)


class Grevlex:
    kind = "graded-reverse-lex"

    def key(self, exp):
        return _grevlex_key(exp)

    def __repr__(self):
        return "grevlex"


class Lex:
    kind = "lex"

    def key(self, exp):
        return tuple(exp)

    def __repr__(self):
        return "lex"


class BlockOrder:
    """Front block (grevlex) dominates back block (grevlex)."""

    kind = "block-elimination"

    def __init__(self, front_indices, nvars: int):
        self.front = tuple(sorted(front_indices))
        fset = set(self.front)
        self.back = tuple(i for i in range(nvars) if i not in fset)
        self._front_of = _picker(self.front)
        self._back_of = _picker(self.back)

    def key(self, exp):
        return (_grevlex_key(self._front_of(exp)), _grevlex_key(self._back_of(exp)))

    def __repr__(self):
        return f"block(front={self.front})"


GREVLEX = Grevlex()
LEX = Lex()
