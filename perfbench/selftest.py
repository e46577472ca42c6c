"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [coverage] [workloads] [families]

``coverage``   every binding of every traced name is wrapped, including names
               imported with ``from ... import`` and the inline import in
               ``modules``; uninstalling leaves no wrapper behind.
``workloads``  two traced runs per workload: each workload's target layer
               records calls, its layer shares meet the workload's purpose,
               the top-level spans cover the traced wall, and the call
               counts, Newton step counts and report digests repeat exactly.
``families``   round 0 of every workload for several seeds: every problem
               passes its check well inside the per-problem limit; and 20
               rounds of one stream repeat no problem text.

With no argument all three run.  Exit code 0 means every assertion held.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys

import gen
import layers
import run as bench

RUNAWAY_S = 5.0  # about ten times the slowest slot; a family beyond it is a runaway
FAMILY_SEEDS = range(100, 106)
SHARES = {  # workload -> [(layers summed, lowest share, highest share)]
    "linear": [(("linalg.add", "linalg.reduce"), 0.70, 1.0),
               (("series.mul",), 0.0, 0.05)],
    "groebner": [(("groebner.buchberger", "groebner.normal_form",
                   "modules.module_buchberger", "modules.mod_normal_form"), 0.80, 1.0),
                 (("linalg.add", "linalg.reduce"), 0.0, 0.05)],
    "fp": [(("series.mul", "series.invert"), 0.50, 1.0)],
}
TARGET_CALLS = {
    "linear": ["linalg.add.calls", "linalg.reduce.calls",
               "groebner.truncated_multiple_rows.calls"],
    "groebner": ["groebner.buchberger.calls", "modules.module_buchberger.calls",
                 "orders.key.calls"],
    "fp": ["series.mul.calls", "linalg.add.calls", "fields.prime_field.self_s"],
}
EXACT = ("calls", "newton_steps", "rows")  # per-layer metrics that must repeat exactly


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_coverage():
    bench.load_cli()
    from truncas import cli, groebner, hensel, modules, morphisms, series
    from truncas.fields import PrimeField
    from truncas.series import Ring

    check(not layers.installed_wrappers(), "wrappers installed before tracing")
    originals = {id(vars(owner)[attr]): f"{owner.__name__}.{attr}"
                 for owner, attr, _, _ in layers.targets()}
    tracer = layers.Tracer()
    tracer.install()
    try:
        for mod in layers.truncas_modules():
            for name, value in vars(mod).items():
                check(id(value) not in originals,
                      f"{mod.__name__}.{name} still binds the unwrapped {originals.get(id(value))}")
        for owner, attr, name, _ in layers.targets():
            check(getattr(vars(owner)[attr], layers.MARK, False), f"{name} is not wrapped")
        for mod, name in [(cli, "lift_with_steps"), (cli, "solve_nested"),
                          (cli, "weierstrass_divide"), (cli, "chevalley_beta"),
                          (cli, "parse_problem"), (cli, "format_terms"),
                          (hensel, "substitute"), (morphisms, "substitute"),
                          (morphisms, "buchberger"), (morphisms, "truncated_multiple_rows")]:
            check(getattr(vars(mod)[name], layers.MARK, False), f"{mod.__name__}.{name} unwrapped")
        # modules imports buchberger inside nagata_route_zero_block
        ring = Ring(PrimeField(7), ("x1", "y1"), nx=1)
        x, y = ring.variable(0), ring.variable(1)
        module = modules.PolyModule(ring, 2, [[y, x]])
        before = tracer.calls["groebner.buchberger"]
        modules.nagata_route_zero_block(module, 1)
        check(tracer.calls["groebner.buchberger"] > before, "inline buchberger import not traced")
        check(tracer.calls["orders.key"] > 0, "order keys not counted")
        check(isinstance(series.format_terms(x * y), str), "wrapped format_terms broken")
        check(groebner.buchberger([x * y], None) is not None, "wrapped buchberger broken")
    finally:
        tracer.uninstall()
    check(not layers.installed_wrappers(), f"left behind: {layers.installed_wrappers()}")
    print("coverage: ok")


def traced_run(workload, seed=7):
    subprocess.run([sys.executable, str(bench.HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                   check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = bench.RESULTS / f"result-{workload}-seed{seed}-trace1.json"
    return json.loads(path.read_text())


def test_workloads():
    for workload in sorted(gen.WORKLOADS):
        first, second = traced_run(workload), traced_run(workload)
        for rec in (first, second):
            check(rec["correct"] and rec["failed"] == 0, f"{workload}: {rec['failures']}")
        metrics = {k: v["value"] for k, v in first["metrics"].items()}
        for name in TARGET_CALLS[workload]:
            check(metrics[name] > 0, f"{workload}: {name} recorded nothing")
        check(metrics["trace.coverage"] >= 0.95,
              f"{workload}: top-level spans cover {metrics['trace.coverage']:.3f} of the wall")
        for names, low, high in SHARES[workload]:
            share = sum(first["layer_shares"].get(n, 0.0) for n in names)
            check(low <= share <= high, f"{workload}: {'+'.join(names)} share {share:.3f} "
                  f"outside [{low}, {high}]")
        for name, value in first["metrics"].items():
            if name.split(".")[-1] in EXACT:
                check(value == second["metrics"][name],
                      f"{workload}: {name} {value['value']} vs {second['metrics'][name]['value']}")
        check(first["digest"] == second["digest"], f"{workload}: report digests differ")
        print(f"workloads: {workload} ok, overhead {metrics['trace.overhead']:.2f}, "
              f"coverage {metrics['trace.coverage']:.4f}")


def test_families():
    cli = bench.load_cli()
    signal.signal(signal.SIGALRM, bench._on_alarm)
    bench.RESULTS.mkdir(exist_ok=True)
    path = bench.RESULTS / "selftest-problem.txt"
    try:
        for workload in sorted(gen.WORKLOADS):
            seen, count = set(), 0
            for rnd in range(4 * bench.MIN_ROUNDS):
                count += len(gen.round_problems(workload, FAMILY_SEEDS[0], rnd, seen))
            check(len(seen) == count, f"{workload}: a problem text repeats")
            slowest = {}
            for seed in FAMILY_SEEDS:
                for problem in gen.round_problems(workload, seed, 0, set()):
                    elapsed, _, outcome = bench.run_problem(cli, problem, path)
                    check(outcome == "ok", f"{workload} seed {seed} {problem.pid}: {outcome}")
                    check(elapsed < RUNAWAY_S, f"{workload} seed {seed} {problem.pid}: "
                          f"{elapsed:.1f} s, a runaway")
                    key = problem.pid.split(".")[1] + " " + problem.family
                    slowest[key] = max(slowest.get(key, 0.0), elapsed)
            worst = max(slowest.items(), key=lambda kv: kv[1])
            print(f"families: {workload} ok over seeds {FAMILY_SEEDS.start}-"
                  f"{FAMILY_SEEDS.stop - 1}, slowest slot {worst[0]} {worst[1]:.2f} s")
    finally:
        path.unlink(missing_ok=True)


def main(argv) -> int:
    tests = {"coverage": test_coverage, "workloads": test_workloads,
             "families": test_families}
    for name in argv or list(tests):
        tests[name]()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
