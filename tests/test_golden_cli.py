"""Golden CLI output: stdout, stderr and exit code of 192 fixture calls.

The calls are ``validate``, ``invariant``, ``reconstruct`` and ``transform
--matrix fixtures/projection_matrix.json`` on each of the 12 configuration
fixtures, and ``compare`` on all 144 ordered fixture pairs, run in-process
from the repository root with relative paths.  ``tests/golden_cli.json`` holds
the expected results; after a deliberate change of output, rewrite it with

    PYTHONPATH=src python tests/test_golden_cli.py --write

At the benchmark's scale, ``BENCH_SCALE_DIGESTS`` pins the sha256 of the
standard output of ``validate`` and ``invariant`` on a generated input of 1280
tuples, and of ``transform`` on a generated input of 150 tuples of arity 4
under a rational matrix; a deliberate change of that output updates the
three digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
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


def lines_document(rng: random.Random, n_lines: int, per_line: int, parts: tuple[int, ...] = (2, 2, 4)) -> dict:
    """``n_lines`` random lines in P^3 with ``per_line`` points each, weight ``parts``.

    Each point is a u + b v for random integer rows u, v of its line, divided
    by a random 1 to 3, so coordinate texts are integers and fractions, many
    of them repeated.  Color c holds p_c random matchings of each line's
    points, so every point and every line has degrees proportional to the weight.
    """
    points, colors = {}, [[] for _ in parts]
    for line in range(n_lines):
        while True:
            u, v = ([rng.randint(-9, 9) for _ in range(4)] for _ in range(2))
            if any(u[i] * v[j] != u[j] * v[i] for i in range(4) for j in range(i + 1, 4)):
                break
        names, seen = [], set()  # seen: the ratios a : b of the line's points so far
        while len(names) < per_line:
            a, b = rng.randint(-7, 7), rng.randint(-7, 7)
            ratio = (1, 0) if b == 0 else (Fraction(a, b), 1)
            if (a, b) == (0, 0) or ratio in seen:
                continue
            seen.add(ratio)
            scale = rng.randint(1, 3)
            names.append(f"l{line}p{len(names)}")
            points[names[-1]] = [str(Fraction(a * x + b * y, scale)) for x, y in zip(u, v)]
        for c, p in enumerate(parts):
            for _ in range(p):
                perm = rng.sample(names, per_line)
                colors[c] += [perm[e : e + 2] for e in range(0, per_line, 2)]
    return {"field": "rational", "weight": list(parts), "arity": 2, "dim": 3, "points": points, "colors": colors}


def simplex_document(rng: random.Random, n_points: int, parts: tuple[int, ...]) -> dict:
    """``n_points`` random points of P^3 and tuples of arity 4, weight ``parts``.

    Each point is a random integer row divided by a random 1 to 3.  Color c
    holds p_c random partitions of the points into blocks of 4, each drawn
    again until its blocks are independent, so every point has degree p_c.
    """
    from conftest import det

    points = {}
    while len(points) < n_points:
        row = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)]
        if any(row):
            points[f"s{len(points)}"] = row
    names, colors = list(points), [[] for _ in parts]
    for c, p in enumerate(parts):
        for _ in range(p):
            while True:
                perm = rng.sample(names, n_points)
                blocks = [perm[k : k + 4] for k in range(0, n_points, 4)]
                if all(det([points[n] for n in b]) for b in blocks):
                    break
            colors[c] += blocks
    texts = {name: [str(x) for x in row] for name, row in points.items()}
    return {"field": "rational", "weight": list(parts), "arity": 4, "dim": 3, "points": texts, "colors": colors}


def rational_matrix(rng: random.Random, n: int) -> list[list[str]]:
    """A random invertible n×n matrix of rationals p/q with |p| <= 5 and 1 <= q <= 4."""
    from conftest import det

    while True:
        m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if det(m):
            return [[str(x) for x in row] for row in m]


# sha256 of the stdout of validate and invariant on lines_document(random.Random(15), 40, 8),
# and of transform on simplex_document(random.Random(16), 120, (2, 3)) by rational_matrix(random.Random(17), 4)
BENCH_SCALE_DIGESTS = {
    "validate": "f71dd44f085918f5d66022bbb140b54ed2dc427ade41fabf7ef6916b17d6f291",
    "invariant": "96a0e3eb7b792e5f9e6a44767ad52b14e6c75f53cc6bd10e9ae873f369cdd6e9",
    "transform": "aef43a3ed62c8f43f50cebd78c6f2c4bb4f09c5309a5dd4b27b9be42c2d12251",
}


def test_output_at_bench_scale_is_unchanged(tmp_path):
    """1280 tuples on 320 points, and a 150-tuple image of 120 points under a
    rational matrix: the read path's sharing of work across tuples, points and
    coordinate texts, and the write path's printing from integer rows, leave
    every byte of output as it was."""
    from eves.cli import main

    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps(lines_document(random.Random(15), 40, 8)), encoding="utf-8")
    simplex = tmp_path / "simplex.json"
    simplex.write_text(json.dumps(simplex_document(random.Random(16), 120, (2, 3))), encoding="utf-8")
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(rational_matrix(random.Random(17), 4)), encoding="utf-8")
    argvs = {"validate": [str(lines)], "invariant": [str(lines)], "transform": [str(simplex), "--matrix", str(matrix)]}
    for command, digest in BENCH_SCALE_DIGESTS.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, *argvs[command]]) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest, command


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_cli.py --write")
    records = [json.dumps(r) for r in run_calls(golden_calls())]
    GOLDEN.write_text("[\n" + ",\n".join(records) + "\n]\n", encoding="utf-8")
