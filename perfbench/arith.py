"""Sparse polynomial arithmetic of the benchmark's own.

The generators use it to build inputs with known solutions, and the checks
use it to verify reports.  It shares no code with the program under test:
reports are parsed from their text and every identity is recomputed here.

A polynomial is a dict from exponent tuples to nonzero coefficients:
``Fraction`` values over exact Q, ints reduced mod p otherwise.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Field:
    """Exact Q when ``p`` is 0, otherwise the integers mod the prime p.

    ``name`` is the field a problem file declares.  Checks of Q problems
    compute mod a 61-bit prime: a wrong report then passes only if its error
    vanishes mod that prime, and the arithmetic stays on machine-size ints.
    """

    def __init__(self, p: int = 0, name: str = "Q"):
        self.p = p
        self.name = name

    def __call__(self, value):
        value = Fraction(value)
        if not self.p:
            return value
        return value.numerator * pow(value.denominator, -1, self.p) % self.p

    def clean(self, poly: dict) -> dict:
        if self.p:
            p = self.p
            return {e: c % p for e, c in poly.items() if c % p}
        return {e: c for e, c in poly.items() if c}

    def convert(self, poly: dict) -> dict:
        return self.clean({e: self(c) for e, c in poly.items()})


def deg(e) -> int:
    return sum(e)


def add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def mul(a: dict, b: dict, field: Field, below=None) -> dict:
    """Product, dropping every term of total degree ``below`` or more."""
    out = {}
    bl = [(e, c, deg(e)) for e, c in b.items()]
    for e1, c1 in a.items():
        d1 = deg(e1)
        for e2, c2, d2 in bl:
            if below is not None and d1 + d2 >= below:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return field.clean(out)


def truncate(a: dict, below: int) -> dict:
    return {e: c for e, c in a.items() if deg(e) < below}


def compose(f: dict, images: list, field: Field, nvars: int, below=None) -> dict:
    """f(images), where image i replaces variable i of f; images use ``nvars`` variables."""
    one = {(0,) * nvars: field(1)}
    powers = [[one] for _ in images]
    out = {}
    for e, c in f.items():
        term = {(0,) * nvars: c}
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(mul(powers[i][-1], images[i], field, below))
            if k:
                term = mul(term, powers[i][k], field, below)
        out = add(out, term)
    return field.clean(out)


def embed(poly: dict, nvars: int, offset: int) -> dict:
    """Re-index a polynomial into ``nvars`` variables, shifted right by ``offset``."""
    out = {}
    for e, c in poly.items():
        new = [0] * nvars
        new[offset : offset + len(e)] = e
        out[tuple(new)] = c
    return out


def uses_only(poly: dict, k: int) -> bool:
    """True when every term uses only the first k variables."""
    return all(not any(e[k:]) for e in poly)


# ---------------------------------------------------------------------------
# text forms


def format_poly(poly: dict, names) -> str:
    """Problem-file text of a polynomial with rational coefficients."""
    if not poly:
        return "0"
    parts = []
    for e in sorted(poly, key=lambda e: (deg(e), tuple(-x for x in e))):
        c = poly[e]
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        cs = str(c)
        if not factors:
            body = cs
        elif cs in ("1", "-1"):
            body = ("-" if cs == "-1" else "") + "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        parts.append(body)
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


class ReportError(Exception):
    """A report that does not parse or does not satisfy its check."""


_TERM_SPLIT = re.compile(r" ([+-]) ")
_ORDER = re.compile(r"^(.*?)(?:\s*\+\s*)?O\(deg (\d+)\)$")


def parse_poly(text: str, names, field: Field) -> dict:
    text = text.strip()
    if text == "0" or not text:
        return {}
    index = {n: i for i, n in enumerate(names)}
    pieces = _TERM_SPLIT.split(text)
    signed = [(1, pieces[0])] + [
        (1 if pieces[i] == "+" else -1, pieces[i + 1]) for i in range(1, len(pieces), 2)
    ]
    out = {}
    for sign, term in signed:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff = Fraction(1)
        exp = [0] * len(names)
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff = Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in index:
                raise ReportError(f"unknown variable {name!r} in {text!r}")
            exp[index[name]] += int(power) if power else 1
        e = tuple(exp)
        if e in out:
            raise ReportError(f"repeated monomial in {text!r}")
        out[e] = field(sign * coeff)
    return field.clean(out)


def parse_series(text: str, names, field: Field):
    """(terms, known order) of a printed series ``... + O(deg c)``."""
    m = _ORDER.match(text.strip())
    if m is None:
        raise ReportError(f"series without an order marker: {text[:80]!r}")
    return parse_poly(m.group(1), names, field), int(m.group(2))


def parse_vector(text: str):
    text = text.strip()
    if not (text.startswith("( ") and text.endswith(" )")):
        raise ReportError(f"malformed vector {text[:80]!r}")
    return text[2:-2].split(", ")
