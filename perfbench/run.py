"""truncas benchmark: seeded problem streams fed through the CLI entry point.

    python3 perfbench/run.py --workload fp --seed 1 --seconds 36 --trace 0

The run generates problem files from the seed and passes them one at a time
to ``truncas.cli.main(argv)`` in this process: a closed loop with one client
and no threads, the next problem written only once the previous report is
checked.  Every report is checked independently.  Each run starts with the
same unmeasured reference round, whose reports are compared byte for byte
with the stored ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics.  The last line
of standard output is one JSON object; ``perfbench/README.md`` describes the
metrics, the workloads and the files left under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from arith import ReportError  # noqa: E402

MIN_ROUNDS = 5  # 22+ problems a round, so the 90th percentile has 10+ samples above it
PROBLEM_LIMIT_S = 20.0
OVERRUN_S = 60.0  # stop mid-round this long after --seconds, whatever the round count
SETUP_SPAWNS = 7
TRACE_ROUND_PAIRS_PER_S = 1 / 10  # one untraced and one traced round per 10 s asked for


class ProblemTimeout(BaseException):
    """Raised by the per-problem alarm.

    It derives from BaseException so that the CLI's own ``except Exception``
    cannot turn a timeout into an ordinary exit code.
    """


def _on_alarm(signum, frame):
    raise ProblemTimeout()


def load_cli():
    """Import ``truncas.cli`` from this checkout's ``src``, or exit with code 1."""
    if not (SRC / "truncas" / "cli.py").is_file():
        sys.exit(f"error: no truncas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import truncas.cli

    if Path(truncas.cli.__file__).resolve().parent != (SRC / "truncas").resolve():
        sys.exit(f"error: truncas was imported from {truncas.cli.__file__}, not {SRC}")
    return truncas.cli


def measure_setup_s() -> float:
    """Median wall time for a fresh interpreter to start and import truncas.cli."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import truncas.cli"
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_problem(cli, problem, path: Path):
    """Feed one problem file through the CLI; returns (wall s, report, outcome).

    The caller installs ``_on_alarm`` as the SIGALRM handler.
    """
    path.write_text(problem.text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    outcome, code = "ok", None
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path)] + problem.flags)
    except ProblemTimeout:
        outcome = f"timeout after {PROBLEM_LIMIT_S:.0f} s"
    except Exception as exc:  # the benchmark keeps running and counts the failure
        outcome = f"exception {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    report = out.getvalue()
    if outcome == "ok" and code != 0:
        outcome = f"exit {code}: {err.getvalue().strip()[:200]}"
    if outcome == "ok":
        try:
            problem.check(report)
        except ReportError as exc:
            outcome = f"check: {exc}"
        except Exception as exc:  # a malformed report must not stop the run
            outcome = f"check crashed: {exc!r}"
    return elapsed, report, outcome


def load_reference(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        sys.exit(f"error: no reference reports at {path}")
    return json.loads(path.read_text(encoding="utf-8"))


class Run:
    """Outcomes of every problem a run attempted."""

    def __init__(self, cli, workload: str, seed: int, path: Path):
        self.cli, self.workload, self.seed, self.path = cli, workload, seed, path
        self.seen = set()  # every problem text of the run, so none repeats
        self.times = []  # wall seconds of measured problems
        self.failures = []  # (problem id, outcome)
        self.attempted = 0
        self.measured_failed = 0
        self.reports = []  # report texts, for operand sampling in traced runs
        self.digest = hashlib.sha256()  # reports of rounds below MIN_ROUNDS
        self.digest_count = 0

    def round(self, rnd: int) -> list:
        return gen.round_problems(self.workload, self.seed, rnd, self.seen)

    def one(self, problem, rnd: int, expected=None):
        """Run and check one problem; ``expected`` marks an unmeasured reference problem."""
        elapsed, report, outcome = run_problem(self.cli, problem, self.path)
        if outcome == "ok" and expected is not None and report != expected:
            outcome = "report differs from the stored reference"
        self.attempted += 1
        if outcome != "ok":
            where = "reference" if expected is not None else f"round {rnd}"
            self.failures.append((f"{where} {problem.pid} {problem.family}", outcome))
        if expected is None:
            self.times.append(elapsed)
            self.measured_failed += outcome != "ok"
            if rnd < MIN_ROUNDS:
                self.digest.update(f"{problem.pid}\n{report}\n".encode())
                self.digest_count += 1
        return elapsed, report

    def reference_round(self):
        """The fixed reference round, unmeasured: it warms the process up and checks
        every report byte for byte against ``reference/<workload>.json``."""
        reference = load_reference(self.workload)
        problems = gen.round_problems(self.workload, gen.REFERENCE_SEED, 0, self.seen)
        for problem in problems:
            self.one(problem, rnd=-1, expected=reference.get(problem.pid, ""))


def run_untraced(run: Run, seconds: float) -> int:
    """Whole rounds until --seconds have passed, at least MIN_ROUNDS; returns the count."""
    loop_start = time.perf_counter()
    rnd = 0
    while rnd < MIN_ROUNDS or time.perf_counter() - loop_start < seconds:
        for problem in run.round(rnd):
            if time.perf_counter() - loop_start > seconds + OVERRUN_S:
                return rnd
            run.one(problem, rnd)
        rnd += 1
    return rnd


def run_traced(run: Run, seconds: float, tracer):
    """Alternate untraced and traced rounds; the pair count depends only on --seconds."""
    pairs = max(1, int(seconds * TRACE_ROUND_PAIRS_PER_S))
    walls = {False: 0.0, True: 0.0}
    for rnd in range(2 * pairs):
        traced = rnd % 2 == 1
        problems = run.round(rnd)
        if traced:
            tracer.install()
        try:
            for problem in problems:
                tracer.problem = problem.pid
                elapsed, report = run.one(problem, rnd)
                walls[traced] += elapsed
                if traced:
                    tracer.end_problem()
                    run.reports.append(report)
        finally:
            if traced:
                tracer.uninstall()
    return walls[False], walls[True]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = [t * 1000.0 for t in run.times]
    correct = len(run.times) - run.measured_failed
    return {
        "problems_per_s": (correct / sum(run.times), "1/s"),
        "problem_ms.p50": (statistics.median(ms), "ms"),
        "problem_ms.p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


_COEFF = re.compile(r"(?:= |[-+] |\( |, )(\d+(?:/\d+)?)(?=\*| |,|$)")


def sampled_operands(reports, limit=4096) -> list:
    values = []
    for report in reports:
        for line in report.splitlines():
            values.extend(Fraction(m) for m in _COEFF.findall(line))
            if len(values) >= limit:
                return values[:limit]
    return values or [Fraction(1), Fraction(2), Fraction(3)]


def mul_add_ns(elements) -> float:
    """Median ns per a*b + c over the given field elements, five passes."""
    a = elements
    b = elements[1:] + elements[:1]
    c = elements[2:] + elements[:2]
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        for x, y, z in zip(a, b, c):
            x * y + z
        passes.append((time.perf_counter() - start) / len(a) * 1e9)
    return statistics.median(passes)


def per_layer(tracer, untraced_wall, traced_wall, reports) -> dict:
    from truncas.fields import QQ, PrimeField

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("series.mul", "series.invert", "series.substitute", "series.poly_mul",
                 "hensel.lift", "linalg.add", "linalg.reduce", "groebner.buchberger",
                 "groebner.normal_form", "groebner.truncated_multiple_rows",
                 "modules.module_buchberger", "modules.mod_normal_form"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("series.format_terms", "nested.solve_nested", "nested.weierstrass_divide",
                 "modules.chevalley_beta", "morphisms.truncated_completion_kernel",
                 "morphisms.kernel_exact", "morphisms.check_strong_injectivity",
                 "morphisms.preimage", "fields.prime_field", "textio.parse_problem",
                 "cli.run", "cli.main"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    out["series.mul.useful_pair_ratio"] = (
        ratio(counts["series.mul.useful_pairs"], counts["series.mul.pairs"]), "ratio")
    out["hensel.newton_steps"] = (counts["hensel.newton_steps"], "count")
    out["linalg.add.pivot_ratio"] = (ratio(counts["linalg.add.pivots"], calls["linalg.add"]),
                                     "ratio")
    out["linalg.pivot_nnz"] = (ratio(counts["linalg.pivot_nnz"], counts["linalg.reducers"]),
                               "count")
    out["groebner.normal_form.nonzero_ratio"] = (
        ratio(counts["groebner.normal_form.nonzero"], calls["groebner.normal_form"]), "ratio")
    out["groebner.truncated_multiple_rows.rows"] = (
        counts["groebner.truncated_multiple_rows.rows"], "count")
    out["modules.mod_normal_form.nonzero_ratio"] = (
        ratio(counts["modules.mod_normal_form.nonzero"], calls["modules.mod_normal_form"]),
        "ratio")
    out["orders.key.calls"] = (calls["orders.key"], "count")
    operands = sampled_operands(reports)
    fp = PrimeField(gen.PRIME)
    out["fields.mul_ns.q"] = (mul_add_ns([QQ(v) for v in operands]), "ns")
    out["fields.mul_ns.fp"] = (mul_add_ns([fp(v) for v in operands]), "ns")
    out["trace.overhead"] = (ratio(traced_wall, untraced_wall), "ratio")
    out["trace.coverage"] = (ratio(tracer.top_level_seconds(), traced_wall), "ratio")
    out["trace.wall_s"] = (traced_wall, "s")
    return out


def layer_shares(tracer, traced_wall) -> dict:
    """Each layer's self time as a share of the traced wall, largest first."""
    ranked = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    return {name: s / traced_wall for name, s in ranked}


# ---------------------------------------------------------------------------
# environment and output


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree; read directly, no git process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    from layers import Tracer, installed_wrappers

    RESULTS.mkdir(exist_ok=True)
    problem_path = RESULTS / f"problem-{os.getpid()}.txt"
    signal.signal(signal.SIGALRM, _on_alarm)
    run = Run(cli, args.workload, args.seed, problem_path)
    env = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shares = {}
    try:
        if args.trace:
            tracer = Tracer()
            run.reference_round()
            untraced_wall, traced_wall = run_traced(run, args.seconds, tracer)
            metrics = per_layer(tracer, untraced_wall, traced_wall, run.reports)
            tracer.dump(RESULTS / f"spans-{stem}.csv.gz")
            shares = layer_shares(tracer, traced_wall)
            summary = ["self time / traced wall, per layer:"]
            summary += [f"{share:7.1%}  {name}" for name, share in shares.items()]
        else:
            if installed_wrappers():
                sys.exit("error: tracing wrappers are installed in an untraced run")
            setup_s = measure_setup_s()
            run.reference_round()
            rounds = run_untraced(run, args.seconds)
            metrics = end_to_end(run, setup_s)
            above = sum(1 for t in run.times if t * 1000.0 > metrics["problem_ms.p90"][0])
            summary = [f"rounds: {rounds}, measured problems: {len(run.times)}, "
                       f"samples above p90: {above}",
                       f"fail_rate: {len(run.failures) / run.attempted:.4f} ratio"]
    finally:
        problem_path.unlink(missing_ok=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} problems attempted, {len(run.failures)} failed")
    for line in summary:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"report digest of the first {run.digest_count} measured problems: "
          f"{run.digest.hexdigest()}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for pid, outcome in run.failures:
        print(f"FAILED {pid}: {outcome}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, environment=env, digest=run.digest.hexdigest(),
                  digest_problems=run.digest_count, layer_shares=shares, failures=run.failures)
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
