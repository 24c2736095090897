"""Spans around the public functions of every ``eves`` module.

``Tracer.install`` replaces each public function, in every ``eves`` module
namespace that bound it, with a wrapper that records a span: name, start,
end, parent span and call id.  ``Tracer.restore`` puts every original back.
Self time is a span's duration minus the time its child spans cover, so the
self times of one call's spans add up to its root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# private names that still belong to a layer
EXTRA = {"eves.cli": ("_render_report",)}
# methods wrapped on their class: (module, class, method)
METHODS = (("eves.wps", "WeightedPoint", "__str__"),)


def eves_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items() if name == "eves" or name.startswith("eves.")}


def targets() -> dict:
    """Span name for each traced function, keyed by the function object's id."""
    out = {}
    for modname, mod in eves_modules().items():
        for attr, value in vars(mod).items():
            if not inspect.isfunction(value) or value.__module__ != modname:
                continue
            if attr.startswith("_") and attr not in EXTRA.get(modname, ()):
                continue
            out[id(value)] = (f"{modname.split('.', 1)[1]}.{attr}", value)
    return out


# metric -> spans whose self times it sums
SELF = {
    "linalg.rref_s": ("linalg.rref", "linalg.rank"),
    "linalg.coords_s": ("linalg.coords_in_row_basis",),
    "linalg.det_s": ("linalg.det",),
    "invariant.bracket_s": ("invariant.bracket",),
    "invariant.eval_s": ("invariant.eves_invariant_with_choices", "invariant.eves_invariant"),
    "invariant.morphism_s": ("invariant.apply_morphism",),
    "configuration.parse_s": ("configuration.parse_configuration", "configuration.load_configuration"),
    "configuration.build_s": ("configuration.build_configuration",),
    "configuration.validate_s": ("configuration.validate_h",),
    "configuration.to_json_s": ("configuration.configuration_to_json",),
    "reconstruct.vector_s": ("reconstruct.reconstruction_vector",),
    "reconstruct.expand_s": ("reconstruct.unit_weight_expansion", "reconstruct.restrict_pair"),
    "reconstruct.identity_s": ("reconstruct.check_reconstruction_identity",),
    "reconstruct.compare_s": ("reconstruct.compare",),
    "wps.equiv_s": ("wps.wps_equivalent",),
    "wps.projection_s": ("wps.apply_axis_projection", "wps.canonical_axis_projection", "wps.product_map"),
    "numtheory.ext_gcd_s": ("numtheory.ext_gcd",),
    "cli.render_s": (
        "cli._render_report",
        "reconstruct.render_reconstruction",
        "reconstruct.render_compare",
        "wps.WeightedPoint.__str__",
    ),
}
# metric -> span it counts
COUNT = {
    "linalg.rref_calls": "linalg.rref",
    "linalg.coords_calls": "linalg.coords_in_row_basis",
    "linalg.det_calls": "linalg.det",
    "invariant.bracket_calls": "invariant.bracket",
    "invariant.eval_calls": "invariant.eves_invariant_with_choices",
    "configuration.validate_calls": "configuration.validate_h",
    "configuration.build_calls": "configuration.build_configuration",
    "wps.equiv_calls": "wps.wps_equivalent",
    "numtheory.ext_gcd_calls": "numtheory.ext_gcd",
}
# spans whose arguments and results the layer metrics inspect after the call
PROBED = {
    "invariant.eves_invariant_with_choices",
    "configuration.parse_configuration",
    "reconstruct.unit_weight_expansion",
    "wps.wps_equivalent",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, call]
        self.results: list[tuple[str, tuple, object]] = []  # (name, args, result) of PROBED spans
        self._stack = [-1]
        self._calls = 0  # root spans so far; a root span starts a new call id
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, results, probed = self.spans, self._stack, self.results, name in PROBED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = len(spans), stack[-1]
            if parent < 0:
                self._calls += 1
            span = [name, 0.0, 0.0, parent, self._calls]
            spans.append(span)
            stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probed:
                results.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every ``eves`` namespace that bound it."""
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets().items()}
        for mod in eves_modules().values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        for modname, cls_name, method in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{modname.split('.', 1)[1]}.{cls_name}.{method}", original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, call) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, call]) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(sid)
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[sid]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def root_mismatch(spans: list[list], selfs: list[float]) -> float:
    """Largest gap, over calls, between the sum of self times and the root span."""
    total, root = defaultdict(float), {}
    for span, s in zip(spans, selfs):
        total[span[4]] += s
        if span[3] < 0:
            root[span[4]] = span[2] - span[1]
    return max((abs(total[c] - root.get(c, 0.0)) for c in total), default=0.0)


def bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def layer_metrics(spans: list[list], selfs: list[float], results: list[tuple[str, tuple, object]], calls: int) -> dict[str, float]:
    """Per-layer self times, counts, sizes and ratios of one traced pass of ``calls`` CLI calls."""
    by_name, counts = defaultdict(float), defaultdict(int)
    for span, s in zip(spans, selfs):
        by_name[span[0]] += s
        counts[span[0]] += 1
    out: dict[str, float] = {m: sum(by_name[n] for n in names) for m, names in SELF.items()}
    out.update({m: counts[n] for m, n in COUNT.items()})
    render = set(SELF["cli.render_s"])
    out["cli.self_s"] = sum(v for n, v in by_name.items() if n.startswith("cli.") and n not in render)

    inv_bits = wps_bits = tuples = distinct = expanded = 0
    for name, args, result in results:
        if name == "invariant.eves_invariant_with_choices":
            inv_bits = max(inv_bits, bits(result.point.coords))
        elif name == "configuration.parse_configuration":
            tuples += sum(len(c) for c in result.colors)
            distinct += len(set(result.spans.values()))
        elif name == "reconstruct.unit_weight_expansion":
            expanded += sum(len(c) for c in result.colors)
        elif name == "wps.wps_equivalent":
            wps_bits = max(wps_bits, bits(args[0].coords), bits(args[1].coords))
    out.update({
        "invariant.max_bits": inv_bits,
        "wps.max_bits": wps_bits,
        "configuration.tuples": tuples,
        "configuration.spans": distinct,
        "configuration.validates_per_call": out["configuration.validate_calls"] / calls,
        "configuration.builds_per_call": out["configuration.build_calls"] / calls,
        "reconstruct.expanded_tuples": expanded,
        "reconstruct.expansion_ratio": expanded / tuples if tuples else 0.0,
    })
    return out
