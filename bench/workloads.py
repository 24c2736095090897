"""The benchmark's workloads: generated inputs, one cycle of CLI calls, and
the verdicts known by construction.

A run repeats its workload's cycle back to back.  Each cycle interleaves every
input size, so a drift in the host's speed during a run touches all sizes
alike.  Sizes are chosen so that one cycle takes about a second and a run
holds a dozen cycles or more, so that every call is timed often enough for
its best time to be steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path

import gen


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the verdict known by construction."""

    key: str  # names the input and subcommand; equal keys give equal output
    argv: tuple[str, ...]
    rc: int  # expected exit code
    marker: str  # text the standard output must contain
    large: bool = False  # counts in large_call_best_s: on the largest input, of similar cost
    warm: bool = False  # runs once during setup


@dataclass
class Plan:
    cycle: list[Call] = field(default_factory=list)
    configs: list[Path] = field(default_factory=list)  # each must pass validate_h
    oracle: list[tuple[Path, str]] = field(default_factory=list)  # config, key of a call printing its E_p
    equivalent: list[tuple[str, str]] = field(default_factory=list)  # invariant calls with equivalent values
    images: dict[str, dict] = field(default_factory=dict)  # transform key -> expected image document

    def large_keys(self) -> set[str]:
        return {c.key for c in self.cycle if c.large}

    def add(self, calls_by_size: list[list[Call]], reps: list[int]) -> None:
        """Append the calls of each size ``reps`` times, interleaving the sizes."""
        for r in range(max(reps)):
            for calls, n in zip(calls_by_size, reps):
                if r < n:
                    self.cycle.extend(calls)


def _write(directory: Path, name: str, doc) -> str:
    path = directory / name
    path.write_text(gen.dumps(doc), encoding="utf-8")
    return str(path)


def lines_invariant(rng: random.Random, d: Path) -> Plan:
    # (label, lines, points per line, repeats per cycle): 192, 512 and 1280 tuples;
    # many lines with few points each, so one seed's costs are close to another's
    sizes = [("S", 12, 4, 2), ("M", 16, 8, 1), ("L", 40, 8, 1)]
    plan, calls = Plan(), []
    for label, n_lines, per_line, _ in sizes:
        path = _write(d, f"lines-{label}.json", gen.lines_family(rng, n_lines, per_line, (2, 2, 4)))
        plan.configs.append(Path(path))
        big, small = label == "L", label == "S"
        calls.append([
            Call(f"validate {label}", ("validate", path), 0, "h_valid: true", False, small),
            Call(f"invariant {label}", ("invariant", path), 0, "E_p = [", big, small),
        ])
    plan.add(calls, [s[3] for s in sizes])
    plan.oracle.append((plan.configs[0], "invariant S"))
    return plan


def multicolor_reconstruct(rng: random.Random, d: Path) -> Plan:
    # (label, weight, lines, points per line, repeats per cycle): 60 and 80 tuples
    sizes = [("A", (2, 3, 5), 3, 4, 1), ("B", (1, 2, 3, 4), 4, 4, 1)]
    plan, calls = Plan(), []
    for label, parts, n_lines, per_line, _ in sizes:
        doc = gen.lines_family(rng, n_lines, per_line, parts)
        path = _write(d, f"multi-{label}.json", doc)
        image = _write(d, f"multi-{label}-image.json", gen.image(doc, gen.invertible_matrix(rng, 4)))
        plan.configs += [Path(path), Path(image)]
        big, small = label == "B", label == "A"
        calls.append([
            Call(f"reconstruct {label}", ("reconstruct", path), 0, "projection_identity: true", big, small),
            Call(f"compare {label}", ("compare", path, image), 0, "ep_equivalent: true", big, small),
        ])
    plan.add(calls, [s[4] for s in sizes])
    plan.oracle.append((plan.configs[0], "reconstruct A"))
    return plan


def simplex_transform(rng: random.Random, d: Path) -> Plan:
    # (label, weight, points, repeats per cycle): 40, 80 and 150 tuples of arity 4 in P^3
    sizes = [("A", (1, 1), 80, 2), ("B", (2, 3), 64, 1), ("C", (2, 3), 120, 1)]
    plan, calls = Plan(), []
    for label, parts, n_points, _ in sizes:
        doc = gen.simplex_family(rng, n_points, parts)
        matrix = gen.invertible_matrix(rng, 4)
        path = _write(d, f"simplex-{label}.json", doc)
        image_doc = gen.image(doc, matrix)
        image = _write(d, f"simplex-{label}-image.json", image_doc)
        mpath = _write(d, f"simplex-{label}-matrix.json", [[str(x) for x in row] for row in matrix])
        plan.configs += [Path(path), Path(image)]
        plan.images[f"transform {label}"] = image_doc
        plan.equivalent.append((f"invariant {label}", f"invariant {label}'"))
        big, small = label == "C", label == "A"
        calls.append([
            Call(f"transform {label}", ("transform", path, "--matrix", mpath), 0, '"field": "rational"', big, small),
            Call(f"invariant {label}", ("invariant", path), 0, "E_p = [", big, small),
            Call(f"invariant {label}'", ("invariant", image), 0, "E_p = [", big, small),
        ])
    plan.add(calls, [s[3] for s in sizes])
    plan.oracle.append((plan.configs[0], "invariant A"))
    return plan


def weights_equiv(rng: random.Random, d: Path) -> Plan:
    # (label, range of the first odd weight part, repeats per cycle); the cost
    # grows about as the cube of the part, so each range is narrow.  The
    # largest parts get three pairs, so the median of those calls is one of them.
    sizes = [("S", 145, 155, 3), ("M", 345, 355, 1), ("L", 645, 655, 1)]
    plan, calls = Plan(), []
    for label, lo, hi, _ in sizes:
        group = []
        for n, equivalent in ((2, True), (2, False), (3, True), (3, False))[: 3 if label == "L" else 4]:
            parts = gen.odd_parts(rng, lo, hi, n)
            z, w = gen.scaled_pair(rng, parts, equivalent)
            argv = ("wps-equiv", "--weight", ",".join(map(str, parts)),
                    "--a", gen.rational_text(z), "--b", gen.rational_text(w))
            verdict = "true" if equivalent else "false"
            group.append(Call(f"wps-equiv {label}{n}{verdict[0]}", argv, 0 if equivalent else 1,
                              verdict, label == "L", label == "S"))
        calls.append(group)
    even = ",".join(str(2 * p) for p in gen.odd_parts(rng, 101, 199, 3))
    calls[0].append(Call("witness S", ("witness", "--weight", even), 0, "]_(", False, True))
    plan.add(calls, [s[3] for s in sizes])
    return plan


def invariant_transform(rng: random.Random, d: Path) -> Plan:
    """The lines and the simplex calls in one cycle.  One workload with longer
    runs holds still better on a shared host than two with shorter ones.
    Only the largest input, 1280 tuples on lines, counts as large."""
    plan, simplex = lines_invariant(rng, d), simplex_transform(rng, d)
    plan.cycle += [replace(c, large=False) for c in simplex.cycle]
    plan.configs += simplex.configs
    plan.oracle += simplex.oracle
    plan.equivalent += simplex.equivalent
    plan.images.update(simplex.images)
    return plan


# workload -> builder; BENCHMARK.json says why each workload is in the benchmark
BUILDERS = {
    "invariant-transform": invariant_transform,
    "multicolor-reconstruct": multicolor_reconstruct,
    "weights-equiv": weights_equiv,
}


def setup(name: str, seed: int, directory: Path) -> Plan:
    """Generate and write the workload's inputs; the same seed gives the same files."""
    directory.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](random.Random(f"{name}:{seed}"), directory)
