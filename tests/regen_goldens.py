"""Rewrite every golden file under tests/data/ with the program.

The golden tests compare output bytes against these files.  This script
writes them from the same tables those tests read: GENERATE_ARGV and
REPORT_GOLDENS in test_cli.py, GOLDEN_SUITES in test_experiments.py.  A
deliberate output change is regenerated with it, never edited by hand, and
on an unchanged program a rerun leaves tests/data/ byte-identical.  A test
checks that it writes every file under tests/data/ and no other.

    PYTHONPATH=src python tests/regen_goldens.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from test_cli import GENERATE_ARGV, REPORT_GOLDENS, golden_dir
from test_experiments import DATA, GOLDEN_SUITES

from matchline import cli
from matchline.experiments import ExperimentConfig, run_suite, write_outputs


def _run(argv: list[str]) -> str:
    """cli.main's stdout; a golden is only written from a passing command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"matchline {' '.join(argv)} exited {code}")
    return out.getvalue()


def main(data: Path = DATA) -> None:
    """Write every golden into data, tests/data/ by default."""
    _run([*GENERATE_ARGV, "--out", str(data / "golden_generate_n15.jsonl")])
    for command, argv in REPORT_GOLDENS:
        golden = golden_dir(command, data)
        stdout = _run([command, *argv, "--out", str(golden)])
        (golden / "stdout.txt").write_text(stdout, encoding="utf-8")
    for name, kw in GOLDEN_SUITES.items():
        write_outputs(run_suite(ExperimentConfig(**kw)), data / name)
    print(f"rewrote the goldens under {data}")


if __name__ == "__main__":
    main()
