"""Monomial orders for Groebner computations.

Each order exposes ``key(exp)`` returning a tuple; larger key means larger
monomial.  Block orders put a designated front block of variables above
everything else, which is what elimination needs: any monomial touching the
front block beats every monomial supported on the back block alone.
"""

from __future__ import annotations

from .series import total_degree


def _grevlex_key(exp):
    return (total_degree(exp), tuple(-e for e in reversed(exp)))


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

    def key(self, exp):
        fe = tuple(exp[i] for i in self.front)
        be = tuple(exp[i] for i in self.back)
        return (_grevlex_key(fe), _grevlex_key(be))

    def __repr__(self):
        return f"block(front={self.front})"


GREVLEX = Grevlex()
LEX = Lex()
