"""Command-line driver: parse a problem file, dispatch, print a report.

Every task is one row of ``TASKS``: a handler and the kind of each of its
arguments.  ``run`` checks the argument count against the row, reads each
argument through ``_arg`` (an ``int`` is a block size, any other kind a
declaration of that kind, and a morphism must be local and map I into J),
then calls the handler.  ``main`` checks ``--working-order`` once for every
task: it must be positive and at least the precision.

Reports are plain text and byte-identical across runs for identical inputs;
timing is printed only when requested so golden comparisons stay exact.
Exit codes: 0 for a mathematical answer (including UNSOLVABLE and NONE),
1 for input and usage errors, 2 for internal failures.
"""

from __future__ import annotations

import sys
import time

from .errors import TruncasError
from .groebner import (
    eliminate_ideal,
    ideal_low_degree_space,
    same_span_below,
    truncated_completion_elimination,
)
from .hensel import lift_with_steps
from .modules import (
    chevalley_beta,
    module_intersect_zero_block,
    nagata_idealize,
    syzygies,
)
from .morphisms import (
    check_strong_injectivity,
    preimage,
    truncated_completion_kernel,
)
from .nested import (
    NestedLinearSystem,
    approximate,
    homogenize,
    implicit_linear,
    division_working_order,
    regularity_order,
    solve_nested,
    weierstrass_divide,
)
from .series import Polynomial, TruncatedSeries, format_terms
from .textio import ProblemFile, parse_problem


def _text(x) -> str:
    return format_terms(x, order=x.known_order if isinstance(x, TruncatedSeries) else None)


class Report:
    def __init__(self, verb: str):
        self.lines = [f"task: {verb}"]

    def add(self, text: str = ""):
        self.lines.append(text)

    def status(self, word: str, validity_order: int):
        self.lines += [f"status: {word}", f"validity order: {validity_order}"]

    def item(self, label: str, x):
        self.lines.append(f"{label} = {_text(x)}")

    def vector(self, label: str, vec):
        self.lines.append(f"{label} = ( {', '.join(map(_text, vec))} )")

    def listing(self, heading: str, label: str, items):
        """``heading: N``, then ``label[i] = ...`` for each polynomial or vector."""
        self.add(f"{heading}: {len(items)}")
        for i, x in enumerate(items):
            if isinstance(x, (list, tuple)):
                self.vector(f"{label}[{i}]", x)
            else:
                self.item(f"{label}[{i}]", x)

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Context:
    __slots__ = ("c", "working_order", "mode", "names")

    def __init__(self, c, working_order, mode, names):
        # the precision, --working-order or None, --mode or None, the argument tokens as written
        self.c, self.working_order, self.mode, self.names = c, working_order, mode, names


def _schedule(ctx: _Context):
    """Working orders from c up to the working order in steps of two, ending at it."""
    top = ctx.working_order
    return None if top is None else [*range(ctx.c, top, 2), top]


def _system(T, b, profile, c, order) -> NestedLinearSystem:
    rows = [[e.as_series(order) for e in row] for row in T]
    return NestedLinearSystem(rows, [e.as_series(order) for e in b], profile, c)


def _emit_solution(rep: Report, sol):
    if not sol.solvable:
        rep.add("status: UNSOLVABLE")
        rep.add(f"obstruction degree: {sol.obstruction_degree}")
        return
    rep.status("SOLVABLE", sol.validity_order)
    for i, comp in enumerate(sol.particular):
        rep.item(f"y{i + 1}", comp)
    rep.listing("nullspace dimension", "nullspace", sol.nullspace_basis)


# Handlers call library functions through this module's globals, looked up at
# call time, so a name patched on the module (perfbench/layers.py traces
# them) reaches every task.


def _order(rep, ctx, f):
    s = f.as_series(ctx.c)
    rep.status("OK", ctx.c)
    rep.item(ctx.names[0], s)
    rep.add(f"valuation lower bound: {s.valuation()}")


def _lift(rep, ctx, code):
    series, steps = lift_with_steps(code, ctx.c)
    rep.status("OK", ctx.c)
    rep.item(ctx.names[0], series)
    rep.add(f"newton steps: {steps}")


def _implicit(rep, ctx, f):
    h, u = implicit_linear(f.as_series(division_working_order(ctx.c, 1)), ctx.c)
    rep.status("OK", ctx.c)
    rep.item("h", h)
    rep.item("u", u)


def _weierstrass(rep, ctx, f, g):
    c = ctx.c
    d = regularity_order(f.as_series(max(c, f.total_deg() + 1, 2)))
    w = division_working_order(c, d)
    q, remainders = weierstrass_divide(f.as_series(w), g.as_series(w), c)
    rep.status("OK", c)
    rep.add(f"regularity order: {d}")
    rep.item("q", q)
    for k, a in enumerate(remainders):
        rep.item(f"a[{k}]", a)


def _solve_nested(rep, ctx, T, b, profile):
    _emit_solution(rep, solve_nested(_system(T, b, profile, ctx.c, ctx.c)))


def _approximate(rep, ctx, T, b, profile, target):
    big_c = ctx.c if ctx.working_order is None else ctx.working_order
    sys_ = _system(T, b, profile, ctx.c, big_c)
    _emit_solution(rep, approximate(sys_, [e.as_series(big_c) for e in target]))


def _homogenize(rep, ctx, T, b, profile):
    hom = homogenize(_system(T, b, profile, ctx.c, ctx.c))
    rep.status("OK", ctx.c)
    rep.add("sigma: " + " ".join(str(s) for s in hom.profile.sigma))
    for r, row in enumerate(hom.T):
        rep.vector(f"T[{r}]", row)
    for r, entry in enumerate(hom.b):
        rep.item(f"b[{r}]", entry)


def _eliminate(rep, ctx, ideal):
    c, w = ctx.c, ctx.working_order
    elim = eliminate_ideal(ideal)
    rep.add("status: OK")
    rep.listing("generators", "elim", elim.gens)
    if w is not None:
        basis = truncated_completion_elimination(ideal, c, w)
        rep.listing(f"truncated basis (order {c}, working order {w})", "truncated", basis)
        same = same_span_below(ideal_low_degree_space(elim, c), basis, elim.ring, c)
        rep.add(f"matches exact elimination below order {c}: " + ("yes" if same else "no"))


def _intersect_module(rep, ctx, module, p):
    result = module_intersect_zero_block(module, p)
    rep.add("status: OK")
    rep.listing("generators", "gen", result.gens)


def _idealize(rep, ctx, module, p):
    ideal = nagata_idealize(module, p)
    rep.add("status: OK")
    rep.add("ring: " + " ".join(ideal.ring.names))
    rep.listing("generators", "gen", ideal.gens)


def _chevalley(rep, ctx, module, p):
    mode = ctx.mode or "exact"
    rep.add(f"mode: {mode}")
    rep.add("status: OK")
    for cc in range(1, ctx.c + 1):
        # with no --working-order, chevalley_beta decides row cc at D = cc + 4
        res = chevalley_beta(module, p, cc, mode, working_order=ctx.working_order)
        shown = f" D={res.working_order}" if mode == "truncated" else ""
        rep.add(f"c={cc} beta={res.beta}{shown}")


def _syzygies(rep, ctx, T):
    result = syzygies(T)
    rep.add("status: OK")
    rep.listing("generators", "syz", result.gens)


def _kernel(rep, ctx, phi):
    report = truncated_completion_kernel(phi, ctx.c, _schedule(ctx))
    rep.add("status: OK")
    rep.add(f"order: {ctx.c}")
    rep.add("working orders: " + " ".join(str(x) for x in report.cprimes))
    rep.add("dimensions: " + " ".join(str(d) for d in report.dimensions))
    rep.add("stabilized: " + ("yes" if report.stabilized else "no"))
    for i, b in enumerate(report.candidate_basis):
        rep.item(f"candidate[{i}]", b)
    if report.exact_kernel is not None:
        rep.listing("exact kernel generators", "exact", report.exact_kernel.gens)


def _check_injective(rep, ctx, phi):
    result = check_strong_injectivity(phi, ctx.c, _schedule(ctx))
    rep.add("status: " + ("EQUAL" if result.equal else "UNEQUAL"))
    rep.add(f"order: {ctx.c}")
    rep.add("working orders: " + " ".join(str(x) for x in result.cprimes))
    rep.add("stabilized: " + ("yes" if result.stabilized else "no"))
    rep.listing("exact kernel generators", "exact", result.exact_kernel.gens)


def _preimage(rep, ctx, phi, b_full):
    n = phi.source.nvars
    if any(any(e[:n]) for e in b_full.terms):
        raise TruncasError("preimage target must use only y-block variables")
    b = Polynomial(phi.target, {e[n:]: v for e, v in b_full.terms.items()}, clean=False)
    f = preimage(phi, b, ctx.c)
    rep.status("NONE" if f is None else "OK", ctx.c)
    if f is not None:
        rep.item("f", f)


# verb -> (handler, kind of each argument); "int" is a block size, any other
# kind names a declaration of that kind.
TASKS = {
    "order": (_order, ["series"]),
    "lift": (_lift, ["hensel"]),
    "implicit": (_implicit, ["series"]),
    "weierstrass": (_weierstrass, ["series", "series"]),
    "solve-nested": (_solve_nested, ["matrix", "vector", "nesting"]),
    "approximate": (_approximate, ["matrix", "vector", "nesting", "vector"]),
    "homogenize": (_homogenize, ["matrix", "vector", "nesting"]),
    "eliminate": (_eliminate, ["ideal"]),
    "intersect-module": (_intersect_module, ["module", "int"]),
    "idealize": (_idealize, ["module", "int"]),
    "chevalley": (_chevalley, ["module", "int"]),
    "syzygies": (_syzygies, ["matrix"]),
    "kernel": (_kernel, ["morphism"]),
    "check-injective": (_check_injective, ["morphism"]),
    "preimage": (_preimage, ["morphism", "series"]),
}


def _arg(problem: ProblemFile, verb: str, token: str, kind: str):
    if kind == "int":
        try:
            return int(token)
        except ValueError:
            raise TruncasError(
                f"task {verb} expects an integer block size, got {token!r}"
            ) from None
    obj = problem.obj(token, {kind})
    if kind == "morphism" and not obj.is_local():
        raise TruncasError(f"morphism {token!r} is not local: an image has a constant term")
    if kind == "morphism" and not obj.well_defined():
        raise TruncasError(f"morphism {token!r} does not map I into J")
    return obj


def run(problem: ProblemFile, working_order=None, mode=None) -> Report:
    verb, names = problem.task
    if verb not in TASKS:
        raise TruncasError(f"unknown task {verb!r}")
    handler, kinds = TASKS[verb]
    if len(names) != len(kinds):
        raise TruncasError(f"task {verb} expects {len(kinds)} argument(s)")
    objs = [_arg(problem, verb, token, kind) for token, kind in zip(names, kinds)]
    rep = Report(verb)
    handler(rep, _Context(problem.precision, working_order, mode, names), *objs)
    return rep


USAGE = """\
usage: truncas [-h] [--order N] [--working-order N] [--mode exact|truncated] [--timing] problem
  problem is a problem file, or - for stdin; --order N overrides its precision;
  --working-order N is the comparators' top order; --mode sets chevalley's mode;
  --timing appends a timing line to the report
"""


def _options(argv) -> dict:
    """The problem path and the flags given, by name; TruncasError on misuse.

    Read by hand: importing argparse and building its parser on every call
    cost more than reading one path and four flags.
    """
    opts, args = {}, iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if arg == "--timing":
            opts[arg] = True
        elif flag in ("--order", "--working-order", "--mode"):
            value = value if eq else next(args, "")
            if flag == "--mode" and value not in ("exact", "truncated"):
                raise TruncasError(f"--mode expects exact or truncated, got {value!r}")
            try:
                opts[flag] = value if flag == "--mode" else int(value)
            except ValueError:
                raise TruncasError(f"{flag} expects an integer, got {value!r}") from None
        elif "problem" in opts or (arg.startswith("-") and arg != "-"):
            raise TruncasError(f"unexpected argument {arg!r}")
        else:
            opts["problem"] = arg
    if "problem" not in opts:
        raise TruncasError("a problem file, or - for stdin, is required")
    return opts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(USAGE)
        return 0
    try:
        opts = _options(argv)
    except TruncasError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 1
    order, working_order = opts.get("--order"), opts.get("--working-order")

    try:
        if opts["problem"] == "-":
            text = sys.stdin.read()
        else:
            with open(opts["problem"], "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        problem = parse_problem(text)
        if order is not None:
            if order < 1:
                raise TruncasError("order must be positive")
            problem.precision = order
        if working_order is not None:
            if working_order < 1:
                raise TruncasError("working order must be positive")
            if working_order < problem.precision:
                raise TruncasError("working order must be at least the precision")
        report = run(problem, working_order=working_order, mode=opts.get("--mode"))
    except TruncasError as exc:  # ProblemSyntaxError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2

    sys.stdout.write(report.text())
    if "--timing" in opts:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        sys.stdout.write(f"# timing: {elapsed_ms:.1f} ms\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
