"""Command-line front end.

Subcommands: validate, invariant, reconstruct, compare, transform, wps-equiv,
witness.  Exit codes: 0 success / positive verdict, 1 negative verdict,
2 input error, 3 fully distinguishable (compare only), 4 oracle mismatch,
5 internal error.

``build_parser`` declares the grammar; the module builds it once, on import,
and ``main`` parses every call with that one parser.
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from contextlib import contextmanager

from . import oracle, reconstruct
from .configuration import (
    Configuration,
    ConfigurationError,
    _load_matrix,
    configuration_to_json,
    load_configuration,
    validate_h,
)
from .invariant import (
    LinearMorphism,
    MorphismError,
    NotHConfigurationError,
    apply_morphism,
    eves_invariant,
)
from .wps import (
    Weight,
    WeightedPoint,
    index_pairs,
    nonreconstructible_witness,
    parse_rational,
    parse_weight,
    product_map,
    wps_equivalent,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_DISTINGUISHABLE = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_INTERNAL = 5

_INPUT_ERRORS = (
    ConfigurationError,
    NotHConfigurationError,
    MorphismError,
    OSError,
)


@contextmanager
def _reading_arguments():
    """Parse command-line text: a ValueError raised here is an input error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eves",
        description="Exact weighted projective invariants of colored point configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_oracle(p):
        p.add_argument("--oracle", action="store_true", help="re-run through the brute-force pipeline; exit 4 on mismatch")
        return p

    p = with_oracle(sub.add_parser("validate", help="degree report and admissibility verdict"))
    p.add_argument("input")
    p.add_argument("--weight", help="re-validate under this weight, e.g. 1,1")

    p = with_oracle(sub.add_parser("invariant", help="compute the weighted invariant"))
    p.add_argument("input")

    p = with_oracle(sub.add_parser("reconstruct", help="reconstruction vector and projection identity"))
    p.add_argument("input")

    p = with_oracle(sub.add_parser("compare", help="compare two configurations"))
    p.add_argument("input_a")
    p.add_argument("input_b")

    p = with_oracle(sub.add_parser("transform", help="apply a linear morphism, emit the image configuration"))
    p.add_argument("input")
    p.add_argument("--matrix", required=True, help="JSON file: array of rows of rational strings")

    p = with_oracle(sub.add_parser("wps-equiv", help="decide weighted equivalence of two coordinate vectors"))
    p.add_argument("--weight", required=True)
    p.add_argument("--a", required=True, dest="point_a", help="comma-separated rationals")
    p.add_argument("--b", required=True, dest="point_b", help="comma-separated rationals")
    # let coordinate vectors such as -1,-1 pass as option values
    p._negative_number_matcher = re.compile(r"^-\d")

    p = with_oracle(sub.add_parser("witness", help="inequivalent point pair with equal axis projections"))
    p.add_argument("--weight", required=True)

    return parser


def _parse_point(weight: Weight, text: str) -> WeightedPoint:
    coords = tuple(parse_rational(x) for x in text.split(","))
    return WeightedPoint(coords, weight)


def _render_report(report) -> str:
    lines = [f"h_valid: {'true' if report.h_valid else 'false'}"]
    lines.append(f"ell: {report.ell}")
    lines.append(f"weight: {report.weight}")
    for name in sorted(report.point_degrees):
        degs = ",".join(str(d) for d in report.point_degrees[name])
        q = report.point_quotients.get(name)
        suffix = f" quotient {q}" if q is not None else ""
        lines.append(f"point {name}: degrees ({degs}){suffix}")
    for subspace in report.subspace_degrees:  # in Configuration.subspaces() order
        degs = ",".join(str(d) for d in report.subspace_degrees[subspace])
        m = report.subspace_multiplicities.get(subspace)
        suffix = f" multiplicity {m}" if m is not None else ""
        lines.append(f"{subspace}: degrees ({degs}){suffix}")
    if report.first_failure:
        lines.append(f"failure: {report.first_failure}")
    return "\n".join(lines) + "\n"


def _oracle_invariant_matches(cfg: Configuration, point: WeightedPoint) -> bool:
    """Whether the oracle's invariant of ``cfg`` is equivalent to ``point``,
    the E_p the command already computed, so E_p is evaluated once per call."""
    return wps_equivalent(point, oracle.brute_invariant(cfg).point)


def run(args: argparse.Namespace) -> int:
    out = sys.stdout

    def mismatch(message: str) -> int:
        print(f"oracle mismatch: {message}", file=sys.stderr)
        return EXIT_ORACLE_MISMATCH

    if args.command == "validate":
        cfg = load_configuration(args.input)
        with _reading_arguments():
            weight = parse_weight(args.weight) if args.weight else None
        report = validate_h(cfg, weight)
        out.write(_render_report(report))
        if args.oracle and not oracle.report_matches_recount(cfg, report, weight):
            return mismatch("degree recount disagrees with the report")
        return EXIT_OK if report.h_valid else EXIT_NEGATIVE

    if args.command == "invariant":
        cfg = load_configuration(args.input)
        value = eves_invariant(cfg)
        out.write(f"E_p = {value.point}\n")
        if args.oracle and not _oracle_invariant_matches(cfg, value.point):
            return mismatch("brute-force invariant differs")
        return EXIT_OK

    if args.command == "reconstruct":
        cfg = load_configuration(args.input)
        full = eves_invariant(cfg).point
        entries = product_map(full)
        identity_ok = reconstruct.check_reconstruction_identity(cfg, full)
        out.write(reconstruct.render_reconstruction(entries, full, identity_ok))
        if args.oracle:
            for (i, j), entry in zip(index_pairs(cfg.weight), entries):
                expansion = reconstruct.unit_weight_expansion(
                    reconstruct.restrict_pair(cfg, i, j)
                )
                if not wps_equivalent(entry, oracle.brute_invariant(expansion).point):
                    return mismatch(f"brute-force entry ({i},{j}) differs")
            if not _oracle_invariant_matches(cfg, full):
                return mismatch("brute-force invariant differs")
        return EXIT_OK if identity_ok else EXIT_NEGATIVE

    if args.command == "compare":
        cfg_a = load_configuration(args.input_a)
        cfg_b = load_configuration(args.input_b)
        report = reconstruct.compare(cfg_a, cfg_b)
        out.write(reconstruct.render_compare(report))
        if args.oracle:
            brute_ep = wps_equivalent(
                oracle.brute_invariant(cfg_a).point, oracle.brute_invariant(cfg_b).point
            )
            if brute_ep != report.ep_equivalent:
                return mismatch("brute-force equivalence verdict differs")
        if report.ep_equivalent:
            return EXIT_OK
        return EXIT_NEGATIVE if report.reconstruction_equal else EXIT_DISTINGUISHABLE

    if args.command == "transform":
        cfg = load_configuration(args.input)
        image = apply_morphism(cfg, LinearMorphism(_load_matrix(args.matrix)))
        out.write(configuration_to_json(image))
        if args.oracle and not _oracle_invariant_matches(image, eves_invariant(image).point):
            return mismatch("brute-force invariant of the image differs")
        return EXIT_OK

    if args.command == "wps-equiv":
        with _reading_arguments():
            weight = parse_weight(args.weight)
            z = _parse_point(weight, args.point_a)
            w = _parse_point(weight, args.point_b)
        verdict = wps_equivalent(z, w)
        out.write("true\n" if verdict else "false\n")
        if args.oracle:
            brute = oracle.bounded_lambda_search(z, w)
            if brute != verdict:
                return mismatch("bounded scalar search verdict differs")
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if args.command == "witness":
        with _reading_arguments():
            weight = parse_weight(args.weight)
            z, w = nonreconstructible_witness(weight)  # rejects weights with no witness
        out.write(f"{z}\n{w}\n")
        if args.oracle:
            images_equal = all(
                wps_equivalent(a, b) for a, b in zip(product_map(z), product_map(w))
            )
            found = oracle.bounded_lambda_search(z, w)
            if not images_equal or found:
                return mismatch("witness pair fails the brute-force checks")
        return EXIT_OK

    raise ValueError(f"unknown command {args.command!r}")


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return run(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a crash gets its own code, never one that reads as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
