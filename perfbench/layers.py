"""Outside-in tracing of truncas layers, installed from the benchmark's own files.

``Tracer.install`` replaces the public functions and methods of each layer
with wrappers that record a span (name, start, end, parent, problem) and
per-layer counts.  A name bound into another module by ``from ... import``
is patched in every module that binds it, so a call through any binding is
seen.  ``uninstall`` puts every original back.  Nothing under ``src/`` is
edited; an untraced run never installs a wrapper.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

MARK = "__perfbench_traced__"


def _series_mul_pairs(result, a, b):
    """(useful, total) term pairs of a series product: useful ones land below its order."""
    order = result.known_order
    hb = [0] * (order + 1)
    for e in b.terms:
        d = sum(e)
        if d < order:
            hb[d] += 1
    below = [0] * (order + 1)  # below[k] = number of b terms of degree < k
    for k in range(order):
        below[k + 1] = below[k] + hb[k]
    useful = 0
    for e in a.terms:
        d = sum(e)
        if d < order:
            useful += below[order - d]
    return useful, len(a.terms) * len(b.terms)


def targets():
    """(owner, attribute, layer name, counter hook) for every traced call site.

    A hook receives (tracer, result, args) after the call returns.
    """
    from truncas import cli, fields, groebner, hensel, linalg, modules, morphisms, nested
    from truncas import series, textio

    def mul_hook(tr, result, args):
        useful, total = _series_mul_pairs(result, args[0], args[1])
        tr.counts["series.mul.useful_pairs"] += useful
        tr.counts["series.mul.pairs"] += total

    def lift_hook(tr, result, args):
        tr.counts["hensel.newton_steps"] += result[1]

    def add_hook(tr, result, args):
        tr.counts["linalg.add.pivots"] += result == "pivot"

    def nf_hook(tr, result, args):
        tr.counts["groebner.normal_form.nonzero"] += not result.is_zero()

    def rows_hook(tr, result, args):
        tr.counts["groebner.truncated_multiple_rows.rows"] += len(result)

    def mod_nf_hook(tr, result, args):
        tr.counts["modules.mod_normal_form.nonzero"] += bool(result)

    return [
        (series.TruncatedSeries, "__mul__", "series.mul", mul_hook),
        (series.TruncatedSeries, "invert", "series.invert", None),
        (series, "substitute", "series.substitute", None),
        (series.Polynomial, "__mul__", "series.poly_mul", None),
        (series, "format_terms", "series.format_terms", None),
        (hensel, "lift_with_steps", "hensel.lift", lift_hook),
        (linalg.RowReducer, "add", "linalg.add", add_hook),
        (linalg.RowReducer, "reduce", "linalg.reduce", None),
        (nested, "solve_nested", "nested.solve_nested", None),
        (nested, "weierstrass_divide", "nested.weierstrass_divide", None),
        (groebner, "buchberger", "groebner.buchberger", None),
        (groebner, "_normal_form", "groebner.normal_form", nf_hook),
        (groebner, "truncated_multiple_rows", "groebner.truncated_multiple_rows", rows_hook),
        (modules, "module_buchberger", "modules.module_buchberger", None),
        (modules, "mod_normal_form", "modules.mod_normal_form", mod_nf_hook),
        (modules, "chevalley_beta", "modules.chevalley_beta", None),
        (morphisms, "truncated_completion_kernel", "morphisms.truncated_completion_kernel", None),
        (morphisms, "kernel_exact", "morphisms.kernel_exact", None),
        (morphisms, "check_strong_injectivity", "morphisms.check_strong_injectivity", None),
        (morphisms, "preimage", "morphisms.preimage", None),
        (fields.PrimeField, "__init__", "fields.prime_field", None),
        (textio, "parse_problem", "textio.parse_problem", None),
        (cli, "run", "cli.run", None),
        (cli, "main", "cli.main", None),
    ]


def key_targets():
    """Monomial-order key methods: counted, not spanned, since they run per comparison."""
    from truncas import modules, orders

    return [(orders.Grevlex, "key"), (orders.Lex, "key"), (orders.BlockOrder, "key"),
            (modules.ModuleOrder, "key")]


def truncas_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "truncas" or name.startswith("truncas."))]


def installed_wrappers() -> list:
    """Names of every traced wrapper currently bound anywhere in the package."""
    found = []
    for mod in truncas_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Spans and counts for one traced run; spans stay in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, problem id)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.problem = ""
        self.reducers = []
        self._stack = []  # [span id, child seconds]
        self._next_id = 0
        self._patches = []

    # installation ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in targets():
            original = vars(owner)[attr]
            wrapper = self._span_wrapper(original, name, hook)
            self._rebind(owner, attr, original, wrapper)
        for owner, attr in key_targets():
            original = vars(owner)[attr]
            self._rebind(owner, attr, original, self._count_wrapper(original))
        self._rebind_reducer_init()

    def _rebind(self, owner, attr, original, wrapper):
        """Patch ``owner.attr`` and, for functions, every module binding the same object."""
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for mod in truncas_modules():
            for name, value in list(vars(mod).items()):
                if value is original and (mod, name) != (owner, attr):
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def _rebind_reducer_init(self):
        from truncas import linalg

        original = vars(linalg.RowReducer)["__init__"]
        reducers = self.reducers

        def init(red, *args, **kwargs):
            original(red, *args, **kwargs)
            reducers.append(red)

        setattr(init, MARK, True)
        self._patches.append((linalg.RowReducer, "__init__", original))
        linalg.RowReducer.__init__ = init

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, name, start, end, parent, tracer.problem))
            if hook is not None:
                hook(tracer, result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, fn):
        calls = self.calls

        def wrapper(*args):
            calls["orders.key"] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    # per-problem bookkeeping ---------------------------------------------

    def end_problem(self):
        """Count the nonzeros stored in every reducer the finished task built."""
        for red in self.reducers:
            self.counts["linalg.pivot_nnz"] += sum(len(row) for row in red.pivots.values())
            self.counts["linalg.reducers"] += 1
        self.reducers.clear()

    def top_level_seconds(self, name="cli.main") -> float:
        return sum(end - start for _, n, start, end, parent, _ in self.spans
                   if n == name and parent == -1)

    def dump(self, path):
        """Write the spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,problem\n")
            for sid, name, start, end, parent, problem in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{problem}\n")
