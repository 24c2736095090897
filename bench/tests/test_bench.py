"""Tests of the benchmark itself: generator, self-time arithmetic, patch restore
and repeatable per-layer counts.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

eves = run.import_eves(ROOT / "src")


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generator_is_deterministic_and_admissible(name, tmp_path):
    def inputs(seed, d):
        plan = workloads.setup(name, seed, d)
        argv = [tuple(x.replace(str(d), "") for x in call.argv) for call in plan.cycle]
        return plan, argv, {p.name: p.read_bytes() for p in d.iterdir()}

    a, *first = inputs(7, tmp_path / "a")
    _, *again = inputs(7, tmp_path / "b")
    _, *other = inputs(8, tmp_path / "c")
    assert first == again
    assert first != other
    for path in a.configs:
        report = eves.validate_h(eves.load_configuration(path))
        assert report.h_valid, report.first_failure


def test_simplex_family_resamples_dependent_tuples(monkeypatch):
    # heights of 1 make coplanar quadruples common, so resampling must happen
    monkeypatch.setattr(gen, "HEIGHT", 1)
    doc = gen.simplex_family(random.Random(3), 40, (1, 2))
    cfg = eves.parse_configuration(gen.dumps(doc))
    assert eves.validate_h(cfg).h_valid


def test_scaled_pairs_have_known_verdicts():
    rng = random.Random(5)
    for equivalent in (True, False):
        parts = gen.odd_parts(rng, 31, 61, 3)
        z, w = gen.scaled_pair(rng, parts, equivalent)
        weight = eves.Weight(parts)
        assert eves.wps_equivalent(eves.WeightedPoint(z, weight), eves.WeightedPoint(w, weight)) is equivalent


def test_self_times_on_nested_spans():
    # root [0,10] holds a [1,4] (which holds [2,3]) and b [5,9]; c and d overlap inside e
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["a.child", 2.0, 3.0, 1, 1],
        ["b", 5.0, 9.0, 0, 1],
        ["e", 20.0, 30.0, -1, 2],
        ["c", 21.0, 25.0, 4, 2],
        ["d", 23.0, 27.0, 4, 2],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == [3.0, 2.0, 1.0, 4.0, 4.0, 4.0, 4.0]
    assert sum(selfs[:4]) == spans[0][2] - spans[0][1]
    # overlapping children cover their union once, so this call's selfs exceed its root
    assert tracing.root_mismatch(spans[:4], selfs[:4]) == 0.0
    assert tracing.root_mismatch(spans, selfs) == 2.0


def _bindings():
    out = {}
    for modname, mod in tracing.eves_modules().items():
        for attr, value in vars(mod).items():
            out[(modname, attr)] = value
    out["WeightedPoint.__str__"] = sys.modules["eves.wps"].WeightedPoint.__dict__["__str__"]
    return out


def test_install_patches_every_binding_and_restore_undoes_it(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in ("eves.invariant", "eves.reconstruct", "eves.cli", "eves"):
            assert sys.modules[mod].eves_invariant is not before[("eves.invariant", "eves_invariant")]
        assert sys.modules["eves.wps"].ext_gcd is not before[("eves.numtheory", "ext_gcd")]
        path = tmp_path / "c.json"
        path.write_text(gen.dumps(gen.lines_family(random.Random(1), 2, 4, (1, 1))))
        _, rc, out, _ = run.invoke(["reconstruct", str(path)])
        assert rc == 0 and "projection_identity: true" in out
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "linalg.rref", "invariant.bracket", "reconstruct.unit_weight_expansion",
            "reconstruct.render_reconstruction", "wps.WeightedPoint.__str__"} <= names
    selfs = tracing.self_times(tracer.spans)
    assert tracing.root_mismatch(tracer.spans, selfs) < 1e-9


COUNTS = list(tracing.COUNT) + ["configuration.tuples", "configuration.spans",
                                "reconstruct.expanded_tuples", "invariant.max_bits", "wps.max_bits"]


@pytest.mark.parametrize("name", ["multicolor-reconstruct", "weights-equiv"])
def test_layer_counts_repeat_for_one_seed(name, tmp_path):
    seen = []
    for attempt in range(2):
        _, plan, checker = run.setup(name, 2, ROOT / "src", tmp_path / str(attempt))
        records, tracer = run.traced_cycle(plan, checker)
        assert all(r[2] for r in records) and not checker.wrong
        selfs = tracing.self_times(tracer.spans)
        metrics = tracing.layer_metrics(tracer.spans, selfs, tracer.results, len(records))
        seen.append({m: metrics[m] for m in COUNTS})
    assert seen[0] == seen[1]
    assert any(seen[0].values())


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "weights-equiv", "--seed", "1", "--seconds", "1"]) == 2
