"""Closed-loop benchmark of the ``eves`` command line, one client, in-process.

    python3 bench/run.py --workload invariant-transform --seed 1 --seconds 38 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` there
and the generated inputs go to ``.bench_work/``.  Each call runs
``eves.cli.main(argv)`` with its output captured; calls run back to back in
cycles that interleave every input size.  Every output is checked against the
verdict known by construction.  Call times are reported as each call's best
time in the run, the least disturbed by other load on a shared host.  The
last line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, the per-layer metrics of one traced cycle
after an untraced pass of half the time.  The line before it holds
diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

# setups per run, at least this many and this long in all; setup_s is their
# median, so a short setup is repeated often enough for the median to hold still
SETUPS = 3
SETUP_SECONDS = 2.0
PRINT_LIMIT = "Exceeds the limit"  # str() of an integer over the interpreter's digit limit
DIGITS = re.compile(r"\d+")


def import_eves(src: Path):
    """Import ``eves`` afresh from ``src``, dropping any copy already loaded."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "eves" or n.startswith("eves.")]:
        del sys.modules[name]
    import eves
    import eves.cli
    import eves.oracle

    if Path(eves.__file__).resolve().parent != (src / "eves").resolve():
        raise ImportError(f"eves was imported from {eves.__file__}, not from {src}")
    return eves


def invoke(argv) -> tuple[float, object, str, str]:
    """One CLI call: wall time, exit code (None on an exception), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    main = sys.modules["eves.cli"].main  # looked up per call, so a traced pass sees the wrapper
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed call, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


class Checker:
    """Checks each output against its verdict and against earlier output for the same key."""

    def __init__(self, plan: workloads.Plan) -> None:
        self.plan = plan
        self.first: dict[str, str] = {}  # key -> stdout of its first call
        self.checked = 0
        self.failures: dict[str, int] = {}  # kind -> count
        self.wrong: list[str] = []  # descriptions of wrong answers

    def check(self, call: workloads.Call, rc, out: str, err: str) -> bool:
        """Whether the call gave its known verdict.  A value too large to print
        is a failed call but not a wrong answer."""
        self.checked += 1
        if rc == 2 and PRINT_LIMIT in err:
            return self._fail("print_limit", None)
        if rc != call.rc or call.marker not in out:
            return self._fail("verdict", f"{call.key}: exit {rc}, stderr {err[:200]!r}")
        if call.key not in self.first:
            self.first[call.key] = out
            if call.key in self.plan.images and not image_matches(self.plan.images[call.key], out):
                return self._fail("image", f"{call.key}: image differs from the generated one")
        elif self.first[call.key] != out:
            return self._fail("inconsistent", f"{call.key}: output differs from its first call")
        return True

    def _fail(self, kind: str, wrong: str | None) -> bool:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if wrong:
            self.wrong.append(wrong)
        return False

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.first):
            h.update(f"{key}\0{self.first[key]}\0".encode())
        return h.hexdigest()


def image_matches(expected: dict, text: str) -> bool:
    """The transform output names the expected points, coordinates and tuples."""
    doc = json.loads(text)
    points = {n: [Fraction(x) for x in v] for n, v in doc["points"].items()}
    want = {n: [Fraction(x) for x in v] for n, v in expected["points"].items()}
    same_tuples = all(
        sorted(map(tuple, a)) == sorted(map(tuple, b)) for a, b in zip(doc["colors"], expected["colors"])
    )
    return (
        [doc[k] for k in ("weight", "arity", "dim")] == [expected[k] for k in ("weight", "arity", "dim")]
        and points == want
        and len(doc["colors"]) == len(expected["colors"])
        and same_tuples
    )


def printed_invariant(eves, out: str):
    """The weighted point printed after ``E_p = `` or ``E_p: ``."""
    line = next(l for l in out.splitlines() if l.startswith("E_p"))
    body, weight = line[line.index("[") + 1 :].split("]_(")
    parts = eves.Weight(tuple(int(p) for p in weight.rstrip(")").split(",")))
    return eves.WeightedPoint(tuple(Fraction(x) for x in body.split(" : ")), parts)


def run_cycles(plan, checker, seconds: float) -> tuple[list, float]:
    """Repeat whole cycles, at least one, for about ``seconds``: stop when
    another cycle would end farther past the deadline than now is before it."""
    records = []  # (call, seconds, ok, stdout bytes)
    start = now = perf_counter()
    cycle = 0.0
    while not records or now - start + cycle / 2 < seconds:
        for call in plan.cycle:
            dt, rc, out, err = invoke(call.argv)
            records.append((call, dt, checker.check(call, rc, out, err), len(out.encode())))
        end = perf_counter()
        cycle, now = end - now, end
    return records, now - start


def host_speed() -> float:
    """Median time of a fixed pure-Fraction loop; a diagnostic of the host's speed, never used to adjust a metric."""
    times = []
    for _ in range(5):
        t0 = perf_counter()
        x = Fraction(0)
        for i in range(1, 3000):
            x += Fraction(1, i)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def setup(name: str, seed: int, src: Path, work: Path):
    """Import eves, generate and write the inputs, check them, and make the warm-up calls."""
    eves = import_eves(src)
    plan = workloads.setup(name, seed, work)
    for path in plan.configs:
        report = eves.validate_h(eves.load_configuration(path))
        if not report.h_valid:
            raise RuntimeError(f"generated configuration {path} is not admissible: {report.first_failure}")
    checker = Checker(plan)
    for call in {c.key: c for c in plan.cycle if c.warm}.values():
        checker.check(call, *invoke(call.argv)[1:])
    return eves, plan, checker


def traced_cycle(plan, checker):
    """One cycle with every public eves function wrapped; the originals are back afterwards."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, _ = run_cycles(plan, checker, 0)
    finally:
        tracer.restore()
    return records, tracer


def final_checks(eves, plan, checker) -> tuple[list[str], float]:
    """Untimed cross-checks: equivalent invariants and the brute-force oracle."""
    wrong = list(checker.wrong)
    for a, b in plan.equivalent:
        if a in checker.first and b in checker.first:
            if not eves.wps_equivalent(printed_invariant(eves, checker.first[a]), printed_invariant(eves, checker.first[b])):
                wrong.append(f"{a} and {b}: invariants are not equivalent")
    t0 = perf_counter()
    for path, key in plan.oracle:
        brute = eves.oracle.brute_invariant(eves.load_configuration(path)).point
        if key in checker.first and not eves.wps_equivalent(brute, printed_invariant(eves, checker.first[key])):
            wrong.append(f"{key}: differs from oracle.brute_invariant")
    return wrong, perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "eves" / "__init__.py").is_file():
        print("bench: run from the root of a checkout of eves (src/eves not found)", file=sys.stderr)
        return 2

    work = Path(".bench_work") / f"{args.workload}-{args.seed}"
    host_before = host_speed()
    setup_times = []
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
        gc.collect()  # start each setup from the same heap; gc settings stay as shipped
        t0 = perf_counter()
        eves, plan, checker = setup(args.workload, args.seed, root / "src", work)
        setup_times.append(perf_counter() - t0)

    seconds = args.seconds / 2 if args.trace else args.seconds
    records, elapsed = run_cycles(plan, checker, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [r[1] for r in records]
    keys = list(dict.fromkeys(c.key for c in plan.cycle))
    best = {key: min(r[1] for r in records if r[0].key == key) for key in keys}
    # one cycle of calls, each at its best time in the run
    best_cycle = [best[c.key] for c in plan.cycle]
    median = {key: statistics.median(r[1] for r in records if r[0].key == key) for key in keys}
    if args.trace:
        traced, tracer = traced_cycle(plan, checker)
    host_after = host_speed()
    wrong, oracle_s = final_checks(eves, plan, checker)

    failed = sum(checker.failures.values())
    outputs = "".join(checker.first.values())
    max_digits = max((len(d) for d in DIGITS.findall(outputs)), default=0)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "calls": len(records),
        "cycles": len(records) // len(plan.cycle),
        "elapsed_s": elapsed,
        "p90_samples": len(best_cycle),  # call_best_p90_s is over one cycle's calls
        "calls_per_s_wall": len(records) / elapsed,
        "call_p50_s_wall": statistics.median(times),
        "setup_times_s": setup_times,
        "host_speed_s": [host_before, host_after],
        "failures": checker.failures,
        "stdout_sha256": checker.digest(),
        "cli.max_digits": max_digits,
        "oracle.check_s": oracle_s,
        "median_s_by_call": median,
        "best_s_by_call": best,
    }

    if args.trace:
        spans_path = work / "spans.jsonl.gz"
        tracer.dump(spans_path)
        selfs = tracing.self_times(tracer.spans)
        mismatch = tracing.root_mismatch(tracer.spans, selfs)
        if mismatch > 1e-6:
            wrong.append(f"self times differ from their root span by {mismatch} s")
        values = tracing.layer_metrics(tracer.spans, selfs, tracer.results, len(traced))
        values.update({
            "cli.output_bytes": sum(r[3] for r in traced),
            "cli.max_digits": max_digits,
            "oracle.check_s": oracle_s,
            "trace.overhead_ratio": sum(r[1] for r in traced) / sum(median[c.key] for c in plan.cycle),
        })
        detail.update({"spans": len(tracer.spans), "spans_file": str(spans_path),
                       "self_time_root_gap_s": mismatch})
        units = {m["name"]: m["unit"] for m in bench_spec(root)["per_layer"]}
    else:
        values = {
            "call_best_p50_s": statistics.median(best_cycle),
            "call_best_p90_s": statistics.quantiles(best_cycle, n=10, method="inclusive")[-1],
            "large_call_best_s": statistics.median(best[k] for k in keys if k in plan.large_keys()),
            "best_calls_per_s": len(best_cycle) / sum(best_cycle),
            "ok_rate": sum(r[2] for r in records) / len(records),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_times),
        }
        units = {m["name"]: m["unit"] for m in bench_spec(root)["end_to_end"]}

    detail["wrong"] = wrong[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": checker.checked,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def bench_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.exit(main())
