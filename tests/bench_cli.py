"""Start-up and per-run cost of the command-line driver.

Run with ``PYTHONPATH=src python -m pytest tests/bench_cli.py --benchmark-only``.
The file name keeps it out of the default test collection.

- ``test_cold_import``: a fresh ``python -I`` that puts ``src`` on its path
  and imports ``truncas.cli``, the start-up a CLI user pays on every run.
  The child is waited for without a timeout, so the time is the child's own
  and not rounded up to a ``wait`` polling step.
- ``test_main_eliminate_golden``: one in-process ``cli.main`` on
  ``tests/golden/eliminate_cmp.problem`` with its ``.args``, so option
  reading, parsing, the task and the report are timed, without start-up.
"""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout

from truncas.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden", "eliminate_cmp")
IMPORT_CLI = f"import sys; sys.path.insert(0, {SRC!r}); import truncas.cli"


def cold_import():
    subprocess.run([sys.executable, "-I", "-c", IMPORT_CLI], check=True)


def test_cold_import(benchmark):
    benchmark.pedantic(cold_import, rounds=30, warmup_rounds=2)


def test_main_eliminate_golden(benchmark):
    with open(GOLDEN + ".args") as fh:
        argv = [GOLDEN + ".problem"] + fh.read().split()
    with open(GOLDEN + ".expected") as fh:
        expected = fh.read()

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
        return code, out.getvalue()

    assert benchmark(run) == (0, expected)
