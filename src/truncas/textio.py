"""Problem-file grammar.

A problem file is line oriented; ``#`` starts a comment and statements span
lines until brackets balance.  Expressions use ``+ - * ^``, rational
literals ``p/q``, and parentheses; names refer to ring variables or
previously declared series.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ProblemSyntaxError, TruncasError
from .fields import QQ, PrimeField
from .groebner import PolyIdeal
from .hensel import HenselCode
from .modules import PolyModule
from .morphisms import AlgebraMorphism
from .nested import NestedProfile
from .series import Polynomial, Ring

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<arrow>->)|"
    r"(?P<sym>[-+*^()\[\]{},;:=@/]))"
)


@dataclass
class Token:
    kind: str  # name | int | arrow | sym | end
    text: str
    line: int
    column: int


def tokenize(text: str, line: int) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ProblemSyntaxError(f"unexpected character {rest[0]!r}", line, pos + 1)
        if m.lastgroup == "name":
            tokens.append(Token("name", m.group("name"), line, m.start("name") + 1))
        elif m.lastgroup == "int":
            tokens.append(Token("int", m.group("int"), line, m.start("int") + 1))
        elif m.lastgroup == "arrow":
            tokens.append(Token("arrow", "->", line, m.start("arrow") + 1))
        else:
            tokens.append(Token("sym", m.group("sym"), line, m.start("sym") + 1))
        pos = m.end()
    tokens.append(Token("end", "", line, len(text) + 1))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        if tok.kind != "end":
            self.idx += 1
        return tok

    def expect(self, kind: str, text: str = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ProblemSyntaxError(
                f"expected {want!r}, found {tok.text or 'end of statement'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def done(self) -> bool:
        return self.peek().kind == "end"


# ---------------------------------------------------------------------------
# expression parsing


def parse_expression(ts: TokenStream, ring: Ring, env) -> Polynomial:
    acc = _parse_product(ts, ring, env)
    while ts.at_sym("+") or ts.at_sym("-"):
        op = ts.next().text
        rhs = _parse_product(ts, ring, env)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _parse_product(ts, ring, env) -> Polynomial:
    acc = _parse_factor(ts, ring, env)
    while ts.at_sym("*"):
        ts.next()
        acc = acc * _parse_factor(ts, ring, env)
    return acc


def _parse_factor(ts, ring, env) -> Polynomial:
    negate = False
    while ts.at_sym("-"):
        ts.next()
        negate = not negate
    atom = _parse_atom(ts, ring, env)
    while ts.at_sym("^"):
        tok = ts.next()
        etok = ts.expect("int")
        atom = atom ** int(etok.text)
    return -atom if negate else atom


def _parse_atom(ts, ring, env) -> Polynomial:
    tok = ts.peek()
    if tok.kind == "int":
        return Polynomial.const(ring, _parse_literal(ts, ring.field))
    if tok.kind == "name":
        ts.next()
        if tok.text in ring.names:
            return ring.variable(ring.index_of(tok.text))
        if tok.text in env:
            obj = env[tok.text]
            if not isinstance(obj, Polynomial):
                raise ProblemSyntaxError(
                    f"{tok.text!r} is not usable in an expression", tok.line, tok.column
                )
            if obj.ring != ring:
                raise ProblemSyntaxError(
                    f"{tok.text!r} lives in a different ring", tok.line, tok.column
                )
            return obj
        raise ProblemSyntaxError(f"undeclared name {tok.text!r}", tok.line, tok.column)
    if ts.at_sym("("):
        ts.next()
        inner = parse_expression(ts, ring, env)
        ts.expect("sym", ")")
        return inner
    raise ProblemSyntaxError(
        f"expected an expression, found {tok.text or 'end of statement'!r}",
        tok.line,
        tok.column,
    )


def parse_poly_text(text: str, ring: Ring, env=None) -> Polynomial:
    ts = TokenStream(tokenize(text, 1))
    poly = parse_expression(ts, ring, env or {})
    if not ts.done():
        tok = ts.peek()
        raise ProblemSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return poly


# ---------------------------------------------------------------------------
# problem files


@dataclass
class Declaration:
    kind: str
    name: str
    obj: object
    meta: dict = field(default_factory=dict)


@dataclass
class ProblemFile:
    field_obj: object
    ring: Ring
    precision: int
    declarations: dict  # name -> Declaration, insertion ordered
    task: tuple  # (verb, [args])

    def obj(self, name: str, kinds=None):
        decl = self.declarations.get(name)
        if decl is None:
            raise TruncasError(f"undeclared name {name!r}")
        if kinds is not None and decl.kind not in kinds:
            raise TruncasError(
                f"{name!r} is a {decl.kind}, expected one of {sorted(kinds)}"
            )
        return decl.obj


def _statements(text: str):
    """Yield (first line number, statement text) with comments stripped."""
    buf = []
    start = None
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and depth == 0:
            continue
        if start is None:
            start = lineno
        buf.append(line)
        depth += sum(line.count(ch) for ch in "([{")
        depth -= sum(line.count(ch) for ch in ")]}")
        if depth < 0:
            raise ProblemSyntaxError("unbalanced closing bracket", lineno)
        if depth == 0:
            yield start, " ".join(buf)
            buf = []
            start = None
    if buf:
        raise ProblemSyntaxError("unterminated statement", start)


def parse_problem(text: str) -> ProblemFile:
    field_obj = None
    ring = None
    precision = None
    declarations = {}
    env = {}
    task = None

    def need_ring(tok):
        if ring is None:
            raise ProblemSyntaxError("ring must be declared first", tok.line, tok.column)

    for lineno, statement in _statements(text):
        ts = TokenStream(tokenize(statement, lineno))
        head = ts.expect("name")
        kw = head.text

        if kw == "field":
            field_obj = _parse_field(ts)
        elif kw == "ring":
            if field_obj is None:
                raise ProblemSyntaxError("field must be declared first", head.line)
            ring = _parse_ring(ts, field_obj)
        elif kw == "precision":
            tok = ts.expect("int")
            precision = int(tok.text)
            if precision < 1:
                raise ProblemSyntaxError("precision must be positive", tok.line)
        elif kw == "task":
            if task is not None:
                raise ProblemSyntaxError("exactly one task directive is allowed", head.line)
            verb = ts.expect("name").text
            while ts.at_sym("-"):
                ts.next()
                verb += "-" + ts.expect("name").text
            args = []
            while not ts.done():
                tok = ts.peek()
                if tok.kind in ("name", "int"):
                    args.append(ts.next().text)
                else:
                    raise ProblemSyntaxError(
                        f"unexpected token {tok.text!r} in task arguments",
                        tok.line,
                        tok.column,
                    )
            task = (verb, args)
        else:
            need_ring(head)
            name_tok = ts.expect("name")
            name = name_tok.text
            if name in declarations or name in ring.names:
                raise ProblemSyntaxError(
                    f"name {name!r} already in use", name_tok.line, name_tok.column
                )
            decl = _parse_declaration(kw, name, ts, ring, env, declarations, head)
            declarations[name] = decl
            if decl.kind == "series":
                env[name] = decl.obj
        if not ts.done():
            tok = ts.peek()
            raise ProblemSyntaxError(
                f"trailing input {tok.text!r}", tok.line, tok.column
            )

    if field_obj is None:
        raise ProblemSyntaxError("missing field declaration")
    if ring is None:
        raise ProblemSyntaxError("missing ring declaration")
    if task is None:
        raise ProblemSyntaxError("missing task directive")
    if precision is None:
        precision = 6
    return ProblemFile(field_obj, ring, precision, declarations, task)


def _parse_field(ts: TokenStream):
    tok = ts.expect("name")
    if tok.text == "Q":
        return QQ
    if tok.text == "Fp":
        ptok = ts.expect("int")
        try:
            return PrimeField(int(ptok.text))
        except TruncasError as exc:
            raise ProblemSyntaxError(str(exc), ptok.line, ptok.column) from None
    raise ProblemSyntaxError(
        f"unknown field {tok.text!r} (use Q or Fp <prime>)", tok.line, tok.column
    )


def _parse_ring(ts: TokenStream, field_obj) -> Ring:
    ts.expect("name", "x")
    ts.expect("sym", ":")
    xnames = []
    while ts.peek().kind == "name" and ts.peek().text != "y":
        xnames.append(ts.next().text)
    ynames = []
    if ts.at_sym(";"):
        ts.next()
        ts.expect("name", "y")
        ts.expect("sym", ":")
        while ts.peek().kind == "name":
            ynames.append(ts.next().text)
    if not xnames:
        raise ProblemSyntaxError("ring needs at least one variable", ts.peek().line)
    names = tuple(xnames) + tuple(ynames)
    if len(set(names)) != len(names):
        raise ProblemSyntaxError("duplicate variable names", ts.peek().line)
    return Ring(field_obj, names, nx=len(xnames) if ynames else None)


def _parse_declaration(kw, name, ts, ring, env, declarations, head) -> Declaration:
    if kw == "series":
        ts.expect("sym", "=")
        poly = parse_expression(ts, ring, env)
        return Declaration("series", name, poly)
    if kw == "hensel":
        ts.expect("sym", ":")
        if "u" in ring.names:
            raise ProblemSyntaxError(
                "hensel codes reserve the name 'u'", head.line, head.column
            )
        big = ring.extend(("u",))
        big_env = {k: v.map_ring(big, list(range(ring.nvars))) for k, v in env.items()}
        poly = parse_expression(ts, big, big_env)
        ts.expect("sym", "@")
        code = HenselCode(ring, poly, _parse_literal(ts, ring.field))
        return Declaration("hensel", name, code)
    if kw == "matrix":
        ts.expect("sym", "=")
        ts.expect("sym", "[")
        rows = []
        while True:
            ts.expect("sym", "[")
            row = [parse_expression(ts, ring, env)]
            while ts.at_sym(","):
                ts.next()
                row.append(parse_expression(ts, ring, env))
            ts.expect("sym", "]")
            rows.append(row)
            if ts.at_sym(","):
                ts.next()
                continue
            break
        ts.expect("sym", "]")
        if len({len(r) for r in rows}) != 1:
            raise ProblemSyntaxError("ragged matrix rows", head.line)
        return Declaration("matrix", name, rows)
    if kw == "vector":
        ts.expect("sym", "=")
        ts.expect("sym", "[")
        entries = [parse_expression(ts, ring, env)]
        while ts.at_sym(","):
            ts.next()
            entries.append(parse_expression(ts, ring, env))
        ts.expect("sym", "]")
        return Declaration("vector", name, entries)
    if kw == "nesting":
        ts.expect("sym", "=")
        values = []
        while ts.peek().kind == "int":
            values.append(int(ts.next().text))
        if not values:
            raise ProblemSyntaxError("empty nesting profile", head.line)
        profile = NestedProfile(tuple(values))
        profile.validate_for(ring)
        return Declaration("nesting", name, profile)
    if kw == "ideal":
        ts.expect("sym", "=")
        ts.expect("sym", "(")
        gens = [parse_expression(ts, ring, env)]
        while ts.at_sym(","):
            ts.next()
            gens.append(parse_expression(ts, ring, env))
        ts.expect("sym", ")")
        return Declaration("ideal", name, PolyIdeal(ring, gens))
    if kw == "module":
        ts.expect("sym", "=")
        ts.expect("sym", "{")
        gens = []
        while True:
            ts.expect("sym", "(")
            vec = [parse_expression(ts, ring, env)]
            while ts.at_sym(","):
                ts.next()
                vec.append(parse_expression(ts, ring, env))
            ts.expect("sym", ")")
            gens.append(vec)
            if ts.at_sym(","):
                ts.next()
                continue
            break
        ts.expect("sym", "}")
        if len({len(v) for v in gens}) != 1:
            raise ProblemSyntaxError("ragged module generators", head.line)
        module = PolyModule(ring, len(gens[0]), gens)
        return Declaration("module", name, module)
    if kw == "morphism":
        return _parse_morphism(name, ts, ring, env, declarations, head)
    raise ProblemSyntaxError(f"unknown declaration {kw!r}", head.line, head.column)


def _parse_literal(ts: TokenStream, field_obj):
    """A literal ``[-...] int [/ int]`` as an element of ``field_obj``.

    A denominator that is zero in the field is an error at the denominator.
    """
    negate = False
    while ts.at_sym("-"):
        ts.next()
        negate = not negate
    num = int(ts.expect("int").text)
    den = 1
    if ts.at_sym("/"):
        ts.next()
        tok = ts.expect("int")
        den = int(tok.text)
        if not field_obj(den):
            raise ProblemSyntaxError(f"zero denominator in {field_obj!r}", tok.line, tok.column)
    value = field_obj(Fraction(num, den))
    return -value if negate else value


def _split_rings(ring: Ring):
    if ring.nx is None:
        raise TruncasError("this task needs a ring with an x and a y block")
    source = Ring(ring.field, ring.names[: ring.nx])
    target = Ring(ring.field, ring.names[ring.nx :])
    return source, target


def _parse_morphism(name, ts, ring, env, declarations, head) -> Declaration:
    source, target = _split_rings(ring)
    ts.expect("sym", ":")
    images = {}
    while True:
        var = ts.expect("name")
        if var.text not in source.names:
            raise ProblemSyntaxError(
                f"{var.text!r} is not an x-block variable", var.line, var.column
            )
        ts.expect("arrow")
        expr = parse_expression(ts, ring, env)
        if any(any(e[i] for i in range(source.nvars)) for e in expr.terms):
            raise ProblemSyntaxError(
                f"image of {var.text!r} must use only y-block variables",
                var.line,
                var.column,
            )
        images[var.text] = _to_target(expr, source.nvars, target)
        if ts.at_sym(";"):
            ts.next()
            continue
        break
    missing = [n for n in source.names if n not in images]
    if missing:
        raise ProblemSyntaxError(f"missing image for {missing[0]!r}", head.line)
    ideal_i = None
    ideal_j = None
    meta = {}
    if ts.peek().kind == "name" and ts.peek().text == "with":
        ts.next()
        while True:
            which = ts.expect("name")
            ts.expect("sym", "=")
            ref = ts.expect("name")
            decl = declarations.get(ref.text)
            if decl is None or decl.kind != "ideal":
                raise ProblemSyntaxError(
                    f"{ref.text!r} is not a declared ideal", ref.line, ref.column
                )
            if which.text == "I":
                ideal_i = _restrict_ideal(decl.obj, source, 0)
                meta["I"] = ref.text
            elif which.text == "J":
                ideal_j = _restrict_ideal(decl.obj, target, source.nvars)
                meta["J"] = ref.text
            else:
                raise ProblemSyntaxError(
                    "only I=... and J=... are allowed", which.line, which.column
                )
            if ts.at_sym(","):
                ts.next()
                continue
            break
    phi = AlgebraMorphism(
        source,
        target,
        [images[n] for n in source.names],
        I=ideal_i,
        J=ideal_j,
    )
    return Declaration("morphism", name, phi, meta)


def _to_target(expr: Polynomial, nx: int, target: Ring) -> Polynomial:
    terms = {e[nx:]: c for e, c in expr.terms.items()}
    return Polynomial(target, terms, clean=False)


def _restrict_ideal(ideal: PolyIdeal, sub: Ring, offset: int) -> PolyIdeal:
    gens = []
    n = sub.nvars
    for g in ideal.gens:
        for e in g.terms:
            if any(e[i] for i in range(len(e)) if not offset <= i < offset + n):
                raise TruncasError(
                    "ideal generators must live in the morphism's variable block"
                )
        gens.append(
            Polynomial(sub, {e[offset : offset + n]: c for e, c in g.terms.items()})
        )
    return PolyIdeal(sub, gens)
