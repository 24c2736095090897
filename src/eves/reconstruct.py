"""Reconstruction vectors, their independent check, and comparison reports.

The reconstruction vector of a configuration lists the classical two-color
ratios, one per color pair (i, j).  Each is the canonical axis projection
[z_i^a : z_j^b] of the weighted invariant z = E_p, so the vector is read off
E_p with ``product_map`` and can never distinguish more configurations than
E_p does; over non-reconstructible weights it distinguishes strictly fewer.

``check_reconstruction_identity`` is the independent check of that claim.
The classical invariant of the pair (S_i, S_j), expanded to weight (1,1) by
repeating each tuple of the lists a and b times, is [X_i^a : X_j^b], where
X_c is the product of color c's brackets and (a, b) are the exponents of the
projection, read from ``pair_exponents``.  So the check brackets each
distinct tuple of the configuration once, through the public ``bracket``
with its membership check, rather than reading the table stored when the
configuration was built.  It brackets the members' integer rows and divides
by the product of their leads, which is the bracket of the canonical
representatives, so it builds no ``Fraction`` coordinates.  It forms one
product X_c per color from that table, and ``projections_agree`` checks one
equation per pair.  Each pair's admissibility is still checked on its
expansion, which shares the parent's points, tuples and spans and
multiplies the counts by a and b.

``compare`` takes its pair verdicts from ``projections_agree`` too, and runs
``wps_equivalent`` only when every pair agrees: equivalent invariants agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .configuration import Configuration, ConfigurationError
from .invariant import _color_products, _require_h, bracket, eves_invariant
from .wps import (
    Weight, WeightedPoint, format_rational, index_pairs, pair_exponents, product_map, projections_agree,
    wps_equivalent,
)


@dataclass(frozen=True)
class CompareReport:
    ep_equivalent: bool
    reconstruction_equal: bool
    pair_equal: tuple[bool, ...]
    invariant_a: WeightedPoint
    invariant_b: WeightedPoint

    def __post_init__(self) -> None:
        if self.ep_equivalent and not self.reconstruction_equal:
            raise ValueError("equivalent invariants cannot have differing reconstructions")


def restrict_pair(cfg: Configuration, i: int, j: int) -> Configuration:
    """The two-color configuration (S_i, S_j) under weight (p_i, p_j).

    It shares the parent's tuples, points, spans and brackets.
    """
    n = len(cfg.weight.parts) - 1
    if not (0 <= i < j <= n):
        raise ValueError(f"color pair ({i},{j}) out of range for {n + 1} colors")
    parts = (cfg.weight.parts[i], cfg.weight.parts[j])
    counts = (cfg.counts[i], cfg.counts[j])
    used = {name for color in counts for t in color for name in t}
    points = {name: cfg.points[name] for name in sorted(used)}
    spans = {t: cfg.spans[t] for color in counts for t in color}
    return Configuration(
        Weight(parts, cfg.weight.field), cfg.arity, cfg.dim, counts, points, spans, cfg.brackets
    )


def unit_weight_expansion(pair_cfg: Configuration) -> Configuration:
    """Repeat each tuple of the two color lists up to the lcm of their weight parts.

    The result is a weight (1,1) configuration with ell multiplied by the lcm;
    admissibility is inherited from the weighted input.  The multiplicities
    of the two colors are multiplied by the exponents (a, b) of
    ``pair_exponents``, which make [X_i^a : X_j^b] the expansion's invariant;
    the points, spans and brackets are the input's own.
    """
    if len(pair_cfg.weight.parts) != 2:
        raise ValueError("expansion takes a two-color configuration")
    ((_, _, a, b),) = pair_exponents(pair_cfg.weight)
    counts = tuple({t: k * m for t, k in color.items()} for color, m in zip(pair_cfg.counts, (a, b)))
    return Configuration(
        Weight((1, 1), pair_cfg.weight.field), pair_cfg.arity, pair_cfg.dim,
        counts, pair_cfg.points, pair_cfg.spans, pair_cfg.brackets,
    )


def check_reconstruction_identity(cfg: Configuration, full: WeightedPoint) -> bool:
    """Whether every pair expansion's classical invariant equals the matching
    axis projection of the weighted invariant ``full`` of ``cfg`` (it must,
    for admissible configurations).

    Each distinct tuple is bracketed once, through ``bracket`` on the
    members' integer rows u, with its membership check; the canonical
    representative is u over its lead, so the canonical bracket is that
    bracket over the product of the members' leads.  Each color's product
    X_c of those brackets is formed once.  The expansion of
    pair (i, j) is [X_i^a : X_j^b], so ``projections_agree(X, full)`` decides
    it; each expansion must pass the admissibility check before its verdict
    is read.  A ``full`` of another weight raises ``ValueError``."""
    rows = {name: pt.row for name, pt in cfg.points.items()}
    brackets = {
        t: (bracket(t, span, rows).numerator, math.prod(cfg.points[name].lead for name in t))
        for t, span in cfg.spans.items()
    }
    agree = projections_agree(WeightedPoint(_color_products(cfg, brackets), cfg.weight), full)
    for (i, j), ok in zip(index_pairs(cfg.weight), agree):
        _require_h(unit_weight_expansion(restrict_pair(cfg, i, j)))
        if not ok:
            return False
    return True


def compare(cfg_a: Configuration, cfg_b: Configuration) -> CompareReport:
    """Equivalence of the weighted invariants versus equality of reconstruction vectors."""
    if cfg_a.weight != cfg_b.weight:
        raise ConfigurationError("configurations carry different weights")
    if cfg_a.arity != cfg_b.arity:
        raise ConfigurationError("configurations carry different arities")
    inv_a = eves_invariant(cfg_a).point
    inv_b = eves_invariant(cfg_b).point
    pair_equal = projections_agree(inv_a, inv_b)
    return CompareReport(
        ep_equivalent=all(pair_equal) and wps_equivalent(inv_a, inv_b),
        reconstruction_equal=all(pair_equal),
        pair_equal=pair_equal,
        invariant_a=inv_a,
        invariant_b=inv_b,
    )


def _pair_label(i: int, j: int) -> str:
    return f"h_{i}{j}" if j <= 9 else f"h_{i},{j}"


def _ratio(entry: WeightedPoint) -> str:
    return "[" + " : ".join(format_rational(c) for c in entry.coords) + "]"


def render_reconstruction(entries: tuple[WeightedPoint, ...], full: WeightedPoint, identity_ok: bool) -> str:
    """The reconstruction vector ``entries``, one per index pair of ``full``'s
    weight, then E_p and the identity verdict."""
    lines = [
        f"{_pair_label(i, j)}: {_ratio(entry)}" for (i, j), entry in zip(index_pairs(full.weight), entries)
    ]
    lines.append(f"E_p: {full}")
    lines.append(f"projection_identity: {'true' if identity_ok else 'false'}")
    return "\n".join(lines) + "\n"


def render_compare(report: CompareReport) -> str:
    """Each pair's entries of the two invariants, then both E_p and the verdicts."""
    inv_a, inv_b = report.invariant_a, report.invariant_b
    lines = []
    for (i, j), ea, eb in zip(index_pairs(inv_a.weight), product_map(inv_a), product_map(inv_b)):
        lines.append(f"{_pair_label(i, j)}: {_ratio(ea)} / {_ratio(eb)}")
    lines.append(f"E_p: {report.invariant_a} / {report.invariant_b}")
    lines.append(f"ep_equivalent: {'true' if report.ep_equivalent else 'false'}")
    lines.append(f"reconstruction_equal: {'true' if report.reconstruction_equal else 'false'}")
    return "\n".join(lines) + "\n"
