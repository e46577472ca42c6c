"""Command-line driver: parse a problem file, dispatch, print a report.

Reports are plain text and byte-identical across runs for identical inputs;
timing is printed only when requested so golden comparisons stay exact.
Exit codes: 0 for a mathematical answer (including UNSOLVABLE and NONE),
1 for input errors, 2 for internal failures.
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import ProblemSyntaxError, TruncasError
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


class Report:
    def __init__(self, verb: str):
        self.lines = [f"task: {verb}"]

    def add(self, text: str = ""):
        self.lines.append(text)

    def series(self, label: str, s):
        self.lines.append(f"{label} = {format_terms(s, order=s.known_order)}")

    def poly(self, label: str, p):
        self.lines.append(f"{label} = {format_terms(p)}")

    def vector(self, label: str, vec, series=True):
        if series:
            body = ", ".join(format_terms(s, order=s.known_order) for s in vec)
        else:
            body = ", ".join(format_terms(p) for p in vec)
        self.lines.append(f"{label} = ( {body} )")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _schedule(c: int, top: int):
    """Working orders from c up to top in steps of two, always ending at top."""
    if top <= c:
        return [c, c + 2]
    orders = list(range(c, top + 1, 2))
    if orders[-1] != top:
        orders.append(top)
    return orders


def _args(task_args, count, verb):
    if len(task_args) != count:
        raise TruncasError(f"task {verb} expects {count} argument(s)")
    return task_args


def _int_arg(token: str, verb: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise TruncasError(f"task {verb} expects an integer block size, got {token!r}") from None


def _series_at(problem: ProblemFile, name: str, order: int) -> TruncatedSeries:
    poly = problem.obj(name, {"series"})
    return poly.as_series(order)


def _system(problem, mat_name, vec_name, prof_name, c) -> NestedLinearSystem:
    T = problem.obj(mat_name, {"matrix"})
    b = problem.obj(vec_name, {"vector"})
    profile = problem.obj(prof_name, {"nesting"})
    rows = [[e.as_series(c) for e in row] for row in T]
    rhs = [e.as_series(c) for e in b]
    return NestedLinearSystem(rows, rhs, profile, c)


def _emit_solution(rep: Report, sol, unknown_names):
    if not sol.solvable:
        rep.add("status: UNSOLVABLE")
        rep.add(f"obstruction degree: {sol.obstruction_degree}")
        return
    rep.add("status: SOLVABLE")
    rep.add(f"validity order: {sol.validity_order}")
    for name, comp in zip(unknown_names, sol.particular):
        rep.series(name, comp)
    rep.add(f"nullspace dimension: {len(sol.nullspace_basis)}")
    for idx, vec in enumerate(sol.nullspace_basis):
        rep.vector(f"nullspace[{idx}]", vec)


def run(problem: ProblemFile, working_order=None, mode=None) -> Report:
    verb, args = problem.task
    c = problem.precision
    rep = Report(verb)

    if verb == "order":
        (name,) = _args(args, 1, verb)
        s = _series_at(problem, name, c)
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.series(name, s)
        rep.add(f"valuation lower bound: {s.valuation()}")
        return rep

    if verb == "lift":
        (name,) = _args(args, 1, verb)
        code = problem.obj(name, {"hensel"})
        series, steps = lift_with_steps(code, c)
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.series(name, series)
        rep.add(f"newton steps: {steps}")
        return rep

    if verb == "implicit":
        (name,) = _args(args, 1, verb)
        f = _series_at(problem, name, division_working_order(c, 1))
        h, u = implicit_linear(f, c)
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.series("h", h)
        rep.series("u", u)
        return rep

    if verb == "weierstrass":
        fname, gname = _args(args, 2, verb)
        fpoly = problem.obj(fname, {"series"})
        probe = fpoly.as_series(max(c, fpoly.total_deg() + 1, 2))
        d = regularity_order(probe)
        w = division_working_order(c, d)
        f = fpoly.as_series(w)
        g = problem.obj(gname, {"series"}).as_series(w)
        q, remainders = weierstrass_divide(f, g, c)
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.add(f"regularity order: {d}")
        rep.series("q", q)
        for k, a in enumerate(remainders):
            rep.series(f"a[{k}]", a)
        return rep

    if verb == "solve-nested":
        mat, vec, prof = _args(args, 3, verb)
        sys_ = _system(problem, mat, vec, prof, c)
        sol = solve_nested(sys_)
        _emit_solution(rep, sol, [f"y{i+1}" for i in range(sys_.m)])
        return rep

    if verb == "approximate":
        mat, vec, prof, target = _args(args, 4, verb)
        big_c = working_order if working_order is not None else c
        if big_c < c:
            raise TruncasError("working order must be at least the precision")
        T = problem.obj(mat, {"matrix"})
        b = problem.obj(vec, {"vector"})
        profile = problem.obj(prof, {"nesting"})
        sys_ = NestedLinearSystem(
            [[e.as_series(big_c) for e in row] for row in T],
            [e.as_series(big_c) for e in b],
            profile,
            c,
        )
        tvec = [e.as_series(big_c) for e in problem.obj(target, {"vector"})]
        sol = approximate(sys_, tvec)
        _emit_solution(rep, sol, [f"y{i+1}" for i in range(sys_.m)])
        return rep

    if verb == "homogenize":
        mat, vec, prof = _args(args, 3, verb)
        sys_ = _system(problem, mat, vec, prof, c)
        hom = homogenize(sys_)
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.add("sigma: " + " ".join(str(s) for s in hom.profile.sigma))
        for r, row in enumerate(hom.T):
            rep.vector(f"T[{r}]", row)
        for r, entry in enumerate(hom.b):
            rep.series(f"b[{r}]", entry)
        return rep

    if verb == "eliminate":
        (name,) = _args(args, 1, verb)
        ideal = problem.obj(name, {"ideal"})
        elim = eliminate_ideal(ideal)
        rep.add("status: OK")
        rep.add(f"generators: {len(elim.gens)}")
        for i, g in enumerate(elim.gens):
            rep.poly(f"elim[{i}]", g)
        if working_order is not None:
            basis = truncated_completion_elimination(ideal, c, working_order)
            rep.add(
                f"truncated basis (order {c}, working order {working_order}): {len(basis)}"
            )
            for i, b in enumerate(basis):
                rep.poly(f"truncated[{i}]", b)
            same = same_span_below(ideal_low_degree_space(elim, c), basis, elim.ring, c)
            rep.add(f"matches exact elimination below order {c}: " + ("yes" if same else "no"))
        return rep

    if verb == "intersect-module":
        name, p_str = _args(args, 2, verb)
        module = problem.obj(name, {"module"})
        result = module_intersect_zero_block(module, _int_arg(p_str, verb))
        rep.add("status: OK")
        rep.add(f"generators: {len(result.gens)}")
        for i, vec in enumerate(result.gens):
            rep.vector(f"gen[{i}]", vec, series=False)
        return rep

    if verb == "idealize":
        name, p_str = _args(args, 2, verb)
        module = problem.obj(name, {"module"})
        ideal = nagata_idealize(module, _int_arg(p_str, verb))
        rep.add("status: OK")
        rep.add("ring: " + " ".join(ideal.ring.names))
        rep.add(f"generators: {len(ideal.gens)}")
        for i, g in enumerate(ideal.gens):
            rep.poly(f"gen[{i}]", g)
        return rep

    if verb == "chevalley":
        name, p_str = _args(args, 2, verb)
        module = problem.obj(name, {"module"})
        p = _int_arg(p_str, verb)
        use_mode = mode or "exact"
        rep.add(f"mode: {use_mode}")
        rep.add("status: OK")
        for cc in range(1, c + 1):
            wo = working_order if working_order is not None else cc + 4
            res = chevalley_beta(module, p, cc, use_mode, working_order=wo)
            if use_mode == "truncated":
                rep.add(f"c={cc} beta={res.beta} D={res.working_order}")
            else:
                rep.add(f"c={cc} beta={res.beta}")
        return rep

    if verb == "syzygies":
        (name,) = _args(args, 1, verb)
        T = problem.obj(name, {"matrix"})
        result = syzygies(T)
        rep.add("status: OK")
        rep.add(f"generators: {len(result.gens)}")
        for i, vec in enumerate(result.gens):
            rep.vector(f"syz[{i}]", vec, series=False)
        return rep

    if verb == "kernel":
        (name,) = _args(args, 1, verb)
        phi = problem.obj(name, {"morphism"})
        cprimes = None if working_order is None else _schedule(c, working_order)
        report = truncated_completion_kernel(phi, c, cprimes)
        rep.add("status: OK")
        rep.add(f"order: {c}")
        rep.add("working orders: " + " ".join(str(x) for x in report.cprimes))
        rep.add("dimensions: " + " ".join(str(d) for d in report.dimensions))
        rep.add("stabilized: " + ("yes" if report.stabilized else "no"))
        for i, b in enumerate(report.candidate_basis):
            rep.poly(f"candidate[{i}]", b)
        if report.exact_kernel is not None:
            rep.add(f"exact kernel generators: {len(report.exact_kernel.gens)}")
            for i, g in enumerate(report.exact_kernel.gens):
                rep.poly(f"exact[{i}]", g)
        return rep

    if verb == "check-injective":
        (name,) = _args(args, 1, verb)
        phi = problem.obj(name, {"morphism"})
        cprimes = None if working_order is None else _schedule(c, working_order)
        result = check_strong_injectivity(phi, c, cprimes)
        rep.add("status: " + ("EQUAL" if result.equal else "UNEQUAL"))
        rep.add(f"order: {c}")
        rep.add("working orders: " + " ".join(str(x) for x in result.cprimes))
        rep.add("stabilized: " + ("yes" if result.stabilized else "no"))
        rep.add(f"exact kernel generators: {len(result.exact_kernel.gens)}")
        for i, g in enumerate(result.exact_kernel.gens):
            rep.poly(f"exact[{i}]", g)
        return rep

    if verb == "preimage":
        name, bname = _args(args, 2, verb)
        phi = problem.obj(name, {"morphism"})
        b_full = problem.obj(bname, {"series"})
        n = phi.source.nvars
        if any(any(e[i] for i in range(n)) for e in b_full.terms):
            raise TruncasError("preimage target must use only y-block variables")
        b = Polynomial(
            phi.target, {e[n:]: v for e, v in b_full.terms.items()}, clean=False
        )
        f = preimage(phi, b, c)
        if f is None:
            rep.add("status: NONE")
            rep.add(f"validity order: {c}")
            return rep
        rep.add("status: OK")
        rep.add(f"validity order: {c}")
        rep.series("f", f)
        return rep

    raise TruncasError(f"unknown task {verb!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="truncas",
        description="exact truncated power series toolkit",
    )
    parser.add_argument("problem", help="problem file, or - for stdin")
    parser.add_argument("--order", type=int, default=None, help="override precision")
    parser.add_argument(
        "--working-order", type=int, default=None, help="working order for comparators"
    )
    parser.add_argument(
        "--mode", choices=["exact", "truncated"], default=None, help="chevalley mode"
    )
    parser.add_argument(
        "--timing", action="store_true", help="append a timing line to the report"
    )
    opts = parser.parse_args(argv)

    try:
        if opts.problem == "-":
            text = sys.stdin.read()
        else:
            with open(opts.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    started = time.perf_counter()
    try:
        problem = parse_problem(text)
        if opts.order is not None:
            if opts.order < 1:
                raise TruncasError("order must be positive")
            problem.precision = opts.order
        if opts.working_order is not None and opts.working_order < 1:
            raise TruncasError("working order must be positive")
        report = run(problem, working_order=opts.working_order, mode=opts.mode)
    except ProblemSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TruncasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2

    sys.stdout.write(report.text())
    if opts.timing:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        sys.stdout.write(f"# timing: {elapsed_ms:.1f} ms\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
