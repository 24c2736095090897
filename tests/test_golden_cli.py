"""Golden CLI output: stdout, stderr and exit code of 192 fixture calls.

The calls are ``validate``, ``invariant``, ``reconstruct`` and ``transform
--matrix fixtures/projection_matrix.json`` on each of the 12 configuration
fixtures, and ``compare`` on all 144 ordered fixture pairs, run in-process
from the repository root with relative paths.  ``tests/golden_cli.json`` holds
the expected results; after a deliberate change of output, rewrite it with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_cli.json"
MATRIX = "fixtures/projection_matrix.json"


def golden_calls() -> list[list[str]]:
    inputs = sorted(
        f"fixtures/{p.name}" for p in (ROOT / "fixtures").glob("*.json") if p.name != Path(MATRIX).name
    )
    calls = []
    for path in inputs:
        calls += [["validate", path], ["invariant", path], ["reconstruct", path],
                  ["transform", path, "--matrix", MATRIX]]
    calls += [["compare", a, b] for a in inputs for b in inputs]
    return calls


def run_calls(calls: list[list[str]]) -> list[dict]:
    from eves.cli import main

    results = []
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            results.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    finally:
        os.chdir(cwd)
    return results


def test_golden_calls_cover_the_fixtures():
    calls = golden_calls()
    assert len(calls) == 192
    assert [r["argv"] for r in json.loads(GOLDEN.read_text(encoding="utf-8"))] == calls


def test_cli_output_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for want, got in zip(expected, run_calls([r["argv"] for r in expected])):
        assert got == want, " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    records = [json.dumps(r) for r in run_calls(golden_calls())]
    GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n", encoding="utf-8")
