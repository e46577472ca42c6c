"""Record the reference reports: the reference round of every workload.

    python3 perfbench/make_reference.py

Run it only on a commit whose reports are known good; every report must
also pass its independent check, or nothing is written.
"""

from __future__ import annotations

import json
import signal
import sys

import run as bench
import gen


def main() -> int:
    cli = bench.load_cli()
    signal.signal(signal.SIGALRM, bench._on_alarm)
    bench.REFERENCE.mkdir(exist_ok=True)
    bench.RESULTS.mkdir(exist_ok=True)
    path = bench.RESULTS / "reference-problem.txt"
    status = 0
    for workload in sorted(gen.WORKLOADS):
        reports = {}
        for problem in gen.round_problems(workload, gen.REFERENCE_SEED, 0, set()):
            _, report, outcome = bench.run_problem(cli, problem, path)
            if outcome != "ok":
                print(f"{workload} {problem.pid}: {outcome}", file=sys.stderr)
                status = 1
            reports[problem.pid] = report
        if status == 0:
            out = bench.REFERENCE / f"{workload}.json"
            out.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
            print(f"wrote {out} ({len(reports)} reports)")
    path.unlink(missing_ok=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
