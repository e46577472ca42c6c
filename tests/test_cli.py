"""Problem-file parsing, report goldens, determinism, exit codes."""

import io
import os
import subprocess
import sys

import pytest

from truncas.cli import TASKS, USAGE, main
from truncas.errors import ProblemSyntaxError
from truncas.series import Polynomial, format_terms
from truncas.textio import parse_problem

from oracles import parse_series_text

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    try:
        sys.stdout, sys.stderr = out, err
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def golden_cases():
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if name.endswith(".problem"):
            yield name[: -len(".problem")]


@pytest.mark.parametrize("case", list(golden_cases()))
def test_golden_outputs(case):
    problem = os.path.join(GOLDEN_DIR, case + ".problem")
    expected_path = os.path.join(GOLDEN_DIR, case + ".expected")
    args_path = os.path.join(GOLDEN_DIR, case + ".args")
    argv = [problem]
    if os.path.exists(args_path):
        with open(args_path) as fh:
            argv += fh.read().split()
    code, out, err = run_cli(argv)
    with open(expected_path) as fh:
        expected = fh.read()
    assert err == ""
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("case", list(golden_cases()))
def test_golden_determinism(case):
    problem = os.path.join(GOLDEN_DIR, case + ".problem")
    args_path = os.path.join(GOLDEN_DIR, case + ".args")
    argv = [problem]
    if os.path.exists(args_path):
        with open(args_path) as fh:
            argv += fh.read().split()
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second


def test_stdin_input():
    text = "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask order f\n"
    code, out, err = run_cli(["-"], stdin_text=text)
    assert code == 0
    assert "f = x1 + O(deg 3)" in out


def test_order_flag_overrides_precision():
    text = "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask order f\n"
    code, out, _ = run_cli(["-", "--order", "5"], stdin_text=text)
    assert code == 0
    assert "O(deg 5)" in out


def test_unsolvable_is_a_valid_answer():
    text = (
        "field Q\nring x: x1 x2\nprecision 2\n"
        "matrix T = [ [1] ]\nvector b = [ x2 ]\nnesting s = 1\n"
        "task solve-nested T b s\n"
    )
    code, out, _ = run_cli(["-"], stdin_text=text)
    assert code == 0
    assert "status: UNSOLVABLE" in out
    assert "obstruction degree: 1" in out


MALFORMED = [
    "field Q\nring x: x1\nprecision 3\ntask order g\n",  # undeclared name
    "field Fp 6\nring x: x1\nprecision 3\nseries f = x1\ntask order f\n",  # not prime
    "field Q\nring x: x1\nprecision 3\nseries f = x1 +\ntask order f\n",  # bad expr
    "field Q\nring x: x1\nprecision 3\nseries f = y9\ntask order f\n",  # unknown var
    "ring x: x1\nfield Q\nprecision 3\nseries f = x1\ntask order f\n",  # ring first
    "field Q\nring x: x1\nprecision 3\nseries f = x1\n",  # missing task
    "field Q\nring x: x1\nprecision 0\nseries f = x1\ntask order f\n",  # bad precision
    "field Q\nring x: x1\nseries f = (x1\nprecision 3\ntask order f\n",  # unbalanced
    "field Q\nring x: x1\nprecision 3\nseries f = x1\nseries f = x1\ntask order f\n",
    "field Q\nring x: x1\nprecision 3\ntask order\n",  # missing argument
    "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask frobnicate f\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_exit_one(text):
    code, out, err = run_cli(["-"], stdin_text=text)
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "verb,ring,module",
    [("chevalley", "x1", "(x1)"), ("intersect-module", "x1", "(x1, 1)"), ("idealize", "x1 ; y: yy", "(yy, x1)")],
)
def test_non_integer_block_size_exits_one(verb, ring, module):
    text = f"field Q\nring x: {ring}\nprecision 2\nmodule M = {{ {module} }}\ntask {verb} M x1\n"
    code, out, err = run_cli(["-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == f"error: task {verb} expects an integer block size, got 'x1'\n"


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("case", ["kernel_fold", "chevalley_trunc"])
def test_non_positive_working_order_exits_one(case, value):
    argv = [os.path.join(GOLDEN_DIR, case + ".problem"), "--working-order", value]
    if case == "chevalley_trunc":
        argv += ["--mode", "truncated"]
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == "error: working order must be positive\n"


@pytest.mark.parametrize(
    "case,value,flags",
    [
        ("kernel_fold", "2", []),
        ("checkinj_cusp", "3", []),
        ("chevalley_trunc", "2", ["--mode", "truncated"]),
        ("eliminate_cmp", "1", []),
    ],
)
def test_working_order_below_precision_exits_one(case, value, flags):
    argv = [os.path.join(GOLDEN_DIR, case + ".problem"), "--working-order", value] + flags
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == "error: working order must be at least the precision\n"


@pytest.mark.parametrize("mode", ["exact", "truncated"])
def test_chevalley_block_size_past_rank_exits_one(mode):
    with open(os.path.join(GOLDEN_DIR, "chevalley_trunc.problem")) as fh:
        text = fh.read().replace("task chevalley M 1", "task chevalley M 3")
    code, out, err = run_cli(["-", "--mode", mode], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "error: invalid block sizes\n"


def test_working_order_at_precision_is_one_order():
    argv = [os.path.join(GOLDEN_DIR, "kernel_fold.problem"), "--working-order", "3"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert "working orders: 3\n" in out
    assert "stabilized: no\n" in out  # one order cannot show stabilization


@pytest.mark.parametrize("task", ["kernel phi", "check-injective phi", "preimage phi b"])
def test_ill_defined_morphism_exits_one(task):
    text = (
        "field Q\nring x: x1 x2 ; y: yy\nprecision 3\n"
        "ideal I = ( x1 )\nideal J = ( yy^2 )\nseries b = yy^2\n"
        f"morphism phi : x1 -> yy ; x2 -> yy with I=I, J=J\ntask {task}\n"
    )
    code, out, err = run_cli(["-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "error: morphism 'phi' does not map I into J\n"


def test_task_table_matches_goldens():
    verbs = set()
    for case in golden_cases():
        with open(os.path.join(GOLDEN_DIR, case + ".problem")) as fh:
            verbs.add(parse_problem(fh.read()).task[0])
    assert verbs == set(TASKS)


@pytest.mark.parametrize("verb", sorted(TASKS))
def test_extra_task_argument_exits_one(verb):
    count = len(TASKS[verb][1])
    tokens = " ".join(f"a{i}" for i in range(count + 1))
    text = f"field Q\nring x: x1 ; y: yy\nprecision 2\ntask {verb} {tokens}\n"
    code, out, err = run_cli(["-"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == f"error: task {verb} expects {count} argument(s)\n"


def test_undeclared_name_is_located():
    text = "field Q\nring x: x1\nprecision 4\nseries f = x1 - g\ntask order f\n"
    code, _, err = run_cli(["-"], stdin_text=text)
    assert code == 1
    assert "'g'" in err and "line 4" in err


def test_internal_error_exit_two(monkeypatch):
    import truncas.cli as climod

    def boom(problem, working_order=None, mode=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(climod, "run", boom)
    text = "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask order f\n"
    code, _, err = run_cli(["-"], stdin_text=text)
    assert code == 2
    assert err.startswith("internal error:")


ORDER_BASIC = os.path.join(GOLDEN_DIR, "order_basic.problem")


@pytest.mark.parametrize(
    "argv,message",
    [
        ([ORDER_BASIC, "--verbose"], "unexpected argument '--verbose'"),
        ([ORDER_BASIC, "--order", "x"], "--order expects an integer, got 'x'"),
        ([ORDER_BASIC, "--working-order=1.5"], "--working-order expects an integer, got '1.5'"),
        ([ORDER_BASIC, "--order"], "--order expects an integer, got ''"),
        ([ORDER_BASIC, "--mode", "foo"], "--mode expects exact or truncated, got 'foo'"),
        ([ORDER_BASIC, "--timing=yes"], "unexpected argument '--timing=yes'"),
        ([ORDER_BASIC, ORDER_BASIC], f"unexpected argument {ORDER_BASIC!r}"),
        (["--order", "3"], "a problem file, or - for stdin, is required"),
        ([], "a problem file, or - for stdin, is required"),
    ],
)
def test_usage_errors_exit_one(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n{USAGE}"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_exits_zero(flag):
    assert run_cli([ORDER_BASIC, flag]) == (0, USAGE, "")


def test_flag_values_may_follow_an_equals_sign():
    spaced = run_cli([ORDER_BASIC, "--order", "2"])
    assert spaced[0] == 0
    assert run_cli(["--order=2", ORDER_BASIC]) == spaced


@pytest.mark.parametrize("task", ["kernel phi", "check-injective phi", "preimage phi b"])
def test_non_local_morphism_exits_one(task):
    # x1 -> 1 + yy is a unit near the origin, so every truncated graph system
    # spans everything; such a morphism is refused before any task runs
    text = (
        "field Q\nring x: x1 x2 ; y: yy\nprecision 3\nseries b = yy^2\n"
        f"morphism phi : x1 -> 1 + yy ; x2 -> yy^2\ntask {task}\n"
    )
    code, out, err = run_cli(["-", "--working-order", "7"], stdin_text=text)
    assert (code, out) == (1, "")
    assert err == "error: morphism 'phi' is not local: an image has a constant term\n"


def test_cli_import_leaves_heavy_stdlib_modules_unloaded():
    # -S keeps site-packages .pth hooks from preloading modules before the diff
    src = os.path.join(os.path.dirname(GOLDEN_DIR), os.pardir, "src")
    code = (
        f"import sys; sys.path.insert(0, {os.path.abspath(src)!r}); before = set(sys.modules)\n"
        "import truncas.cli\nprint(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    added = set(out.split())
    assert "truncas.cli" in added
    heavy = {"dataclasses", "inspect", "ast", "dis", "argparse", "typing", "random"}
    assert added & heavy == set()


def test_timing_flag_appends_comment():
    text = "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask order f\n"
    code, out, _ = run_cli(["-", "--timing"], stdin_text=text)
    assert code == 0
    assert out.rstrip().splitlines()[-1].startswith("# timing:")


DECLARATION_SOURCE = """
field Q
ring x: x1 x2 ; y: y1 y2
precision 4
series f = 1/2*x1 - x2^2 + y1*y2
series g = x1*x2 - 3
hensel h : u^2 - 1 - x1 @ -1
matrix T = [ [1, x1], [x2, y1] ]
vector b = [ x1 + x2, 0 ]
nesting s = 1 2
ideal I = ( y1 - x1, y1^2 )
module M = { (x1, 1), (0, x1) }
morphism phi : x1 -> y1 ; x2 -> y1*y2
task order f
"""


def print_declaration(decl):
    """One declaration statement in canonical text, for the round-trip test."""
    kind, name, obj = decl.kind, decl.name, decl.obj
    if kind == "series":
        return f"series {name} = {format_terms(obj)}"
    if kind == "hensel":
        return f"hensel {name} : {format_terms(obj.poly)} @ {obj.seed}"
    if kind == "matrix":
        rows = ", ".join(
            "[ " + ", ".join(format_terms(e) for e in row) + " ]" for row in obj
        )
        return f"matrix {name} = [ {rows} ]"
    if kind == "vector":
        return f"vector {name} = [ " + ", ".join(format_terms(e) for e in obj) + " ]"
    if kind == "nesting":
        return f"nesting {name} = " + " ".join(str(s) for s in obj.sigma)
    if kind == "ideal":
        gens = obj.gens or [Polynomial.zero(obj.ring)]
        return f"ideal {name} = ( " + ", ".join(format_terms(g) for g in gens) + " )"
    if kind == "module":
        gens = obj.gens or [[Polynomial.zero(obj.ring)] * obj.rank]
        body = ", ".join(
            "( " + ", ".join(format_terms(p) for p in vec) + " )" for vec in gens
        )
        return f"module {name} = {{ {body} }}"
    if kind == "morphism":
        phi = obj
        parts = [
            f"{phi.source.names[i]} -> {format_terms(phi.images[i])}"
            for i in range(phi.source.nvars)
        ]
        text = f"morphism {name} : " + " ; ".join(parts)
        withs = [f"{key}={decl.meta[key]}" for key in ("I", "J") if key in decl.meta]
        if withs:
            text += " with " + ", ".join(withs)
        return text
    raise ValueError(f"cannot print a {kind} declaration")


def test_declaration_print_roundtrip():
    problem = parse_problem(DECLARATION_SOURCE)
    header = "field Q\nring x: x1 x2 ; y: y1 y2\nprecision 4\nseries one = 1\n"
    for name, decl in problem.declarations.items():
        line = print_declaration(decl)
        reparsed = parse_problem(header + line + "\ntask order one\n")
        redecl = reparsed.declarations[name]
        if decl.kind == "hensel":
            assert redecl.obj.poly == decl.obj.poly
            assert redecl.obj.seed == decl.obj.seed
        elif decl.kind == "nesting":
            assert redecl.obj.sigma == decl.obj.sigma
        elif decl.kind == "ideal":
            assert redecl.obj.gens == decl.obj.gens
        elif decl.kind == "module":
            assert redecl.obj.gens == decl.obj.gens
        elif decl.kind == "morphism":
            assert redecl.obj.images == decl.obj.images
        else:
            assert redecl.obj == decl.obj


def test_series_report_roundtrip():
    problem = parse_problem(DECLARATION_SOURCE)
    ring = problem.ring
    f = problem.obj("f").as_series(4)
    from truncas.series import format_terms

    text = format_terms(f, order=4)
    assert parse_series_text(text, ring) == f


def test_chevalley_truncated_mode():
    text = (
        "field Q\nring x: x1\nprecision 3\n"
        "module M = { (x1) }\ntask chevalley M 1\n"
    )
    code, out, _ = run_cli(["-", "--mode", "truncated"], stdin_text=text)
    assert code == 0
    assert "mode: truncated" in out
    assert "c=1 beta=1 D=5" in out
    assert "c=3 beta=3 D=7" in out


def test_implicit_task_cross_checks():
    text = (
        "field Q\nring x: x1 x2\nprecision 4\n"
        "series f = x2 - x1\ntask implicit f\n"
    )
    code, out, _ = run_cli(["-"], stdin_text=text)
    assert code == 0
    assert "h = x1 + O(deg 4)" in out
    assert "u = -1 + O(deg 4)" in out


def test_cli_truncated_exponential_morphism():
    # the classic three-image morphism with exp replaced by its truncation
    from fractions import Fraction

    terms = []
    coeff = Fraction(1)
    for j in range(9):
        if j:
            coeff = coeff / j
        if coeff.denominator == 1:
            terms.append(f"{coeff.numerator}*y2^{j}" if j else f"{coeff.numerator}")
        else:
            terms.append(f"{coeff.numerator}/{coeff.denominator}*y2^{j}")
    e_text = " + ".join(terms)
    text = (
        "field Q\n"
        "ring x: x1 x2 x3 ; y: y1 y2\n"
        "precision 2\n"
        f"series E = {e_text}\n"
        "morphism phi : x1 -> y1 ; x2 -> y1*y2 ; x3 -> y1*E\n"
        "task kernel phi\n"
    )
    code, out, err = run_cli(["-", "--working-order", "6"], stdin_text=text)
    assert code == 0, err
    assert "stabilized: yes" in out
    assert "candidate[" not in out  # empty candidate basis below the window
    # declared through the grammar the images are polynomials, so the exact
    # route runs; the truncation's kernel element only appears at degree 8,
    # far above the candidate window
    assert "exact kernel generators: 1" in out
    assert "x1^8" in out


def test_wrong_declaration_kind_is_input_error():
    text = "field Q\nring x: x1\nprecision 3\nseries f = x1\ntask lift f\n"
    code, _, err = run_cli(["-"], stdin_text=text)
    assert code == 1
    assert "hensel" in err


ZERO_DENOMINATORS = [
    ("field Fp 7\nring x: x1\nprecision 3\nseries f = 1/7\ntask order f\n", 14),
    ("field Q\nring x: x1\nprecision 3\nhensel g : u - 1 @ 1/0\ntask lift g\n", 22),
    ("field Fp 7\nring x: x1\nprecision 3\nhensel g : u - 1 @ 1/7\ntask lift g\n", 22),
]


@pytest.mark.parametrize("text,column", ZERO_DENOMINATORS)
def test_zero_denominator_is_located_input_error(text, column):
    code, out, err = run_cli(["-"], stdin_text=text)
    assert code == 1
    assert out == ""
    assert err.startswith("error: zero denominator")
    assert f"(line 4, column {column})" in err
