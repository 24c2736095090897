import json
import random
import re
from fractions import Fraction as F

import pytest

from eves import cli
from eves.cli import main
from eves import (
    Weight,
    WeightedPoint,
    eves_invariant,
    load_configuration,
    parse_configuration,
    wps_equivalent,
)
from eves import oracle
from eves.configuration import MAX_INPUT_BYTES, MAX_TUPLES
from eves.invariant import InvariantValue
from conftest import CONFIG_FIXTURES, FIXTURES, det
from test_golden_cli import lines_document


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate", str(fixtures_dir / "midpoint_triangle_aligned.json"))
        assert code == 0
        assert out.startswith("h_valid: true\nell: 3\nweight: (2,2,4)\n")
        assert "point alpha: degrees (2,2,4) quotient 1" in out

    def test_weight_override(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "validate", str(fixtures_dir / "segment_pair_aligned.json"), "--weight", "1,1"
        )
        assert code == 0
        assert "h_valid: true" in out

    def test_bad_weight_override_exit_two(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys, "validate", str(fixtures_dir / "segment_pair_aligned.json"), "--weight", "1,x"
        )
        assert code == 2 and out == ""
        assert err == "error: invalid weight '1,x': parts must be integers\n"

    def test_invalid_configuration_exit_one(self, capsys, tmp_path):
        doc = {
            "field": "rational",
            "weight": [1, 1],
            "arity": 2,
            "dim": 1,
            "points": {"a": ["1", "0"], "b": ["1", "1"], "c": ["1", "2"]},
            "colors": [[["a", "b"]], [["a", "c"]]],
        }
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "h_valid: false" in out
        assert "failure:" in out

    def test_span_degree_failure(self, capsys, tmp_path):
        """Every point has degrees (1,1), but each span holds one color's tuple only."""
        doc = {
            "field": "rational",
            "weight": [1, 1],
            "arity": 2,
            "dim": 2,
            "points": {"a": ["1", "0", "0"], "b": ["0", "1", "0"], "c": ["0", "0", "1"], "d": ["1", "1", "1"]},
            "colors": [[["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]]],
        }
        path = tmp_path / "spans.json"
        path.write_text(json.dumps(doc))
        failure = "span[(1, 0, 0); (0, 0, 1)]: degrees (0, 1) not proportional to weight (1,1)"
        for oracle_flag in ((), ("--oracle",)):
            code, out, err = run_cli(capsys, "validate", str(path), *oracle_flag)
            assert (code, err) == (1, "")
            assert out.startswith("h_valid: false\nell: 2\n")
            assert out.endswith(f"failure: {failure}\n")
        code, out, err = run_cli(capsys, "invariant", str(path))
        assert (code, out, err) == (2, "", f"error: {failure}\n")

    def test_invalid_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"field": ')
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: invalid JSON: ")

    def test_dependent_tuple_exit_two(self, capsys, tmp_path):
        doc = {
            "field": "rational",
            "weight": [1, 1],
            "arity": 2,
            "dim": 1,
            "points": {"a": ["1", "2"], "b": ["2", "4"]},
            "colors": [[["a", "b"]], [["a", "b"]]],
        }
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "dependent r-tuple" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"field": "rational", "weight": [1,1], "weight": [1,1], "arity": 2, "dim": 1, '
             '"points": {"a": ["1","0"], "b": ["1","1"]}, "colors": [[["a","b"]],[["a","b"]]]}',
             "duplicate key 'weight'"),
            ('{"field": "rational", "weight": [1,1], "arity": 2, "dim": 1, '
             '"points": {"a": ["1","0"], "a": ["1","1"]}, "colors": [[],[]]}',
             "duplicate point name 'a'"),
        ],
        ids=["top-level", "points"],
    )
    def test_duplicate_key_exit_two(self, capsys, tmp_path, text, message):
        path = tmp_path / "dup.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no_such_file.json")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("override", [(), ("--weight", "2,2")])
    def test_ell_after_a_degree_failure(self, capsys, tmp_path, override):
        """Two tuples per color over parts (2,2) give ell 1, also when a point
        degree (1,1) then fails, with or without the weight restated."""
        doc = {
            "field": "rational",
            "weight": [2, 2],
            "arity": 2,
            "dim": 1,
            "points": {"a": ["1", "0"], "b": ["1", "1"], "c": ["1", "2"], "d": ["0", "1"]},
            "colors": [[["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]]],
        }
        path = tmp_path / "unit_degrees.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", str(path), *override)
        assert code == 1
        assert out.startswith("h_valid: false\nell: 1\n")
        assert "failure: point 'a': degrees (1, 1) not proportional" in out

    @pytest.mark.parametrize("weight, ell", [("4,4", "1"), ("1,3", "0")])
    def test_ell_under_another_weight(self, capsys, fixtures_dir, weight, ell):
        """ell is 0 only when the list lengths do not fit the weight."""
        path = fixtures_dir / "octahedral_generic_S.json"
        code, out, _ = run_cli(capsys, "validate", str(path), "--weight", weight)
        assert code == 1
        assert f"\nell: {ell}\n" in out


def document(**changes):
    """A valid weight (1,1) configuration with the given fields replaced."""
    doc = {
        "field": "rational", "weight": [1, 1], "arity": 2, "dim": 1,
        "points": {"a": ["1", "0"], "b": ["1", "1"]}, "colors": [[["a", "b"]], [["a", "b"]]],
    }
    return {**doc, **changes}


MALFORMED = {
    # refused by parse_configuration
    "top-level-list": ([], "top level must be an object"),
    "weight-not-integers": (document(weight=[1, "1"]), "weight: must be a list of integers"),
    "weight-zero-part": (document(weight=[1, 0]), "weight: weight parts must be positive"),
    "points-not-object": (document(points=[]), "points: must be an object"),
    "point-not-list": (document(points={"a": "1"}), "points['a']: must be a list of rationals"),
    "zero-vector-point": (document(points={"a": ["0", "0"], "b": ["1", "1"]}),
                          "point 'a': zero vector is not a projective point"),
    "colors-not-list": (document(colors={}), "colors: must be a list"),
    "color-not-list": (document(colors=["ab", [["a", "b"]]]), "colors[0]: must be a list of tuples"),
    "tuple-not-list": (document(colors=[["ab"], [["a", "b"]]]), "colors[0][0]: must be a list of point names"),
    "member-not-str": (document(colors=[[["a", "b"], ["a", 1]], [["a", "b"]]]),
                       "colors[0][1]: must be a list of point names"),
    "first-bad-entry": (document(colors=[[["a", "b"], "ab", ["a", 1]], [["a", "b"]]]),
                        "colors[0][1]: must be a list of point names"),
    # refused by build_configuration
    "arity-zero": (document(arity=0), "arity must be >= 1"),
    "dim-negative": (document(dim=-1), "dimension must be >= 0"),
    "color-count": (document(colors=[[["a", "b"]]]), "1 color lists for a weight of length 2"),
    "tuple-length": (document(colors=[[["a"]], [["a", "b"]]]), "colors[0][0]: tuple has 1 members, expected 2"),
}


@pytest.mark.parametrize("case", [*MALFORMED, "matrix-object"])
def test_malformed_input_exits_two(capsys, tmp_path, case):
    path = tmp_path / "input.json"
    if case == "matrix-object":
        path.write_text(json.dumps({"a": 1}))
        argv = ["transform", str(FIXTURES / "cross_ratio_quadruple.json"), "--matrix", str(path)]
        message = "matrix must be a non-empty array of rows"
    else:
        doc, message = MALFORMED[case]
        path.write_text(json.dumps(doc))
        argv = ["validate", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {path}: {message}\n"


class TestInvariant:
    def test_cross_ratio_output(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "invariant", str(fixtures_dir / "cross_ratio_quadruple.json"))
        assert code == 0
        assert out == "E_p = [3 : 4]_(1,1)\n"

    def test_oracle_agrees(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "invariant", str(fixtures_dir / "midpoint_triangle_reversed.json"), "--oracle"
        )
        assert code == 0

    def test_non_admissible_exit_two(self, capsys, tmp_path):
        doc = {
            "field": "rational",
            "weight": [1, 1],
            "arity": 2,
            "dim": 1,
            "points": {"a": ["1", "0"], "b": ["1", "1"], "c": ["1", "2"]},
            "colors": [[["a", "b"]], [["a", "c"]]],
        }
        path = tmp_path / "unbalanced.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "invariant", str(path))
        assert code == 2
        assert "error:" in err

    def test_boolean_dim_exit_two(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "cross_ratio_quadruple.json").read_text())
        doc["dim"] = True
        path = tmp_path / "bool_dim.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "invariant", str(path))
        assert code == 2 and out == ""
        assert "arity/dim: must be integers" in err

    def test_deeply_nested_configuration_exit_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code, _, err = run_cli(capsys, "invariant", str(path))
        assert code == 2
        assert err == f"error: {path}: JSON nests too deeply\n"


class TestReconstruct:
    def test_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "reconstruct", str(fixtures_dir / "midpoint_triangle_aligned.json"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("h_01:")
        assert lines[3].startswith("E_p:")
        assert lines[4] == "projection_identity: true"

    def test_with_oracle(self, capsys, fixtures_dir):
        code, _, _ = run_cli(
            capsys, "reconstruct", str(fixtures_dir / "segment_pair_opposed.json"), "--oracle"
        )
        assert code == 0

    def test_coprime_weight_near_one_hundred(self, capsys, tmp_path):
        # 3 lines of 8 points at weight (101,103): 2448 tuples
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(lines_document(random.Random(5), 3, 8, (101, 103))))
        code, out, err = run_cli(capsys, "reconstruct", str(path))
        assert code == 0, err
        assert out.endswith("\nprojection_identity: true\n")


def brute_wrong_on(calls):
    """``oracle.brute_invariant`` with the first coordinate doubled on the calls
    numbered in ``calls``: no weighted scalar makes that value equivalent to
    the true one, since it would have to be 1 on the other coordinates."""
    real, seen = oracle.brute_invariant, []

    def fake(cfg):
        value = real(cfg).point
        seen.append(cfg)
        if len(seen) - 1 in calls:
            value = WeightedPoint((2 * value.coords[0], *value.coords[1:]), value.weight)
        return InvariantValue(value)

    return fake


MIDPOINT = str(FIXTURES / "midpoint_triangle_aligned.json")
MISMATCHES = {
    # id: (argv without --oracle, oracle function, its replacement, message)
    "validate": (["validate", MIDPOINT], "report_matches_recount", lambda: lambda *args: False,
                 "degree recount disagrees with the report"),
    "invariant": (["invariant", MIDPOINT], "brute_invariant", lambda: brute_wrong_on({0}),
                  "brute-force invariant differs"),
    # the three pair expansions come first, then the whole configuration
    "reconstruct-entry": (["reconstruct", MIDPOINT], "brute_invariant", lambda: brute_wrong_on({1}),
                          "brute-force entry (0,2) differs"),
    "reconstruct-invariant": (["reconstruct", MIDPOINT], "brute_invariant", lambda: brute_wrong_on({3}),
                              "brute-force invariant differs"),
    "compare": (["compare", MIDPOINT, MIDPOINT], "brute_invariant", lambda: brute_wrong_on({0}),
                "brute-force equivalence verdict differs"),
    "transform": (["transform", str(FIXTURES / "projection_source.json"), "--matrix",
                   str(FIXTURES / "projection_matrix.json")], "brute_invariant", lambda: brute_wrong_on({0}),
                  "brute-force invariant of the image differs"),
    "wps-equiv": (["wps-equiv", "--weight", "2,1", "--a", "1,2", "--b", "4,4"], "bounded_lambda_search",
                  lambda: lambda *args: False, "bounded scalar search verdict differs"),
    "witness": (["witness", "--weight", "2,2"], "bounded_lambda_search", lambda: lambda *args: True,
                "witness pair fails the brute-force checks"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_oracle_mismatch_exits_four(capsys, monkeypatch, case):
    argv, name, replacement, message = MISMATCHES[case]
    _, verdict, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(oracle, name, replacement())
    code, out, err = run_cli(capsys, *argv, "--oracle")
    assert code == cli.EXIT_ORACLE_MISMATCH == 4
    assert err == f"oracle mismatch: {message}\n"
    assert out == verdict


@pytest.mark.parametrize("name", CONFIG_FIXTURES)
def test_oracle_never_mismatches_or_crashes(capsys, fixtures_dir, name):
    for command in ("validate", "invariant", "reconstruct"):
        code, _, err = run_cli(capsys, command, str(fixtures_dir / name), "--oracle")
        assert code not in (4, 5), err


@pytest.mark.parametrize("weight", ["1,1", "2,2", "2,2,4", "1,2,3"])
def test_validate_oracle_under_another_weight(capsys, fixtures_dir, weight):
    for name in ("midpoint_triangle_aligned.json", "segment_pair_aligned.json"):
        code, _, err = run_cli(capsys, "validate", str(fixtures_dir / name), "--oracle", "--weight", weight)
        assert code in (0, 1), err


class TestCompare:
    def test_segment_pair_exit_one(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "compare",
            str(fixtures_dir / "segment_pair_aligned.json"),
            str(fixtures_dir / "segment_pair_opposed.json"),
        )
        assert code == 1
        assert "E_p: [1 : 1]_(2,2) / [-1 : -1]_(2,2)" in out
        assert "ep_equivalent: false" in out
        assert "reconstruction_equal: true" in out

    def test_different_weights_exit_two(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            capsys,
            "compare",
            str(fixtures_dir / "cross_ratio_quadruple.json"),
            str(fixtures_dir / "segment_pair_aligned.json"),
        )
        assert code == 2 and out == ""
        assert err == "error: configurations carry different weights\n"

    def test_equivalent_exit_zero(self, capsys, fixtures_dir):
        path = str(fixtures_dir / "midpoint_triangle_aligned.json")
        code, out, _ = run_cli(capsys, "compare", path, path)
        assert code == 0
        assert "ep_equivalent: true" in out

    def test_fully_distinguishable_exit_three(self, capsys, tmp_path, fixtures_dir):
        # cross-ratio quadruple doubled into an admissible weight (2,2) configuration
        other = {
            "field": "rational",
            "weight": [2, 2],
            "arity": 2,
            "dim": 1,
            "points": {"a": ["1", "0"], "b": ["1", "1"], "c": ["1", "2"], "d": ["1", "3"]},
            "colors": [
                [["d", "a"], ["c", "b"], ["d", "a"], ["c", "b"]],
                [["c", "a"], ["d", "b"], ["c", "a"], ["d", "b"]],
            ],
        }
        path = tmp_path / "other.json"
        path.write_text(json.dumps(other))
        code, out, _ = run_cli(
            capsys, "compare", str(fixtures_dir / "segment_pair_aligned.json"), str(path)
        )
        assert code == 3
        assert "reconstruction_equal: false" in out

    def test_with_oracle(self, capsys, fixtures_dir):
        code, _, _ = run_cli(
            capsys,
            "compare",
            str(fixtures_dir / "midpoint_triangle_aligned.json"),
            str(fixtures_dir / "midpoint_triangle_reversed.json"),
            "--oracle",
        )
        assert code == 1


class TestTransform:
    def test_round_trip(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "transform",
            str(fixtures_dir / "projection_source.json"),
            "--matrix",
            str(fixtures_dir / "projection_matrix.json"),
        )
        assert code == 0
        image = parse_configuration(out, source="<stdout>")
        source = load_configuration(fixtures_dir / "projection_source.json")
        assert wps_equivalent(eves_invariant(image).point, eves_invariant(source).point)

    def test_bad_matrix_exit_two(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "m.json"
        path.write_text('[["1", "0"], ["0"]]')
        code, _, err = run_cli(
            capsys, "transform", str(fixtures_dir / "cross_ratio_quadruple.json"), "--matrix", str(path)
        )
        assert code == 2
        assert "error:" in err

    def test_null_matrix_entry_exit_two(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "m.json"
        path.write_text('[["1", "0"], ["0", null]]')
        code, _, err = run_cli(
            capsys, "transform", str(fixtures_dir / "cross_ratio_quadruple.json"), "--matrix", str(path)
        )
        assert code == 2
        assert err.startswith(f"error: {path}: row 1 column 1: ") and "None" not in err

    def test_deeply_nested_matrix_exit_two(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000)
        code, _, err = run_cli(
            capsys, "transform", str(fixtures_dir / "cross_ratio_quadruple.json"), "--matrix", str(path)
        )
        assert code == 2
        assert err == f"error: {path}: JSON nests too deeply\n"

    def test_point_with_zero_image_exit_two(self, capsys, tmp_path):
        # e, in no tuple, spans the kernel of the matrix; the tuples' line z = 0 does not hold it
        doc = {
            "field": "rational", "weight": [1, 1], "arity": 2, "dim": 2,
            "points": {"p": [1, 0, 0], "q": [0, 1, 0], "r": [1, 1, 0], "s": [1, 2, 0], "e": [2, 6, 1]},
            "colors": [[["p", "q"], ["r", "s"]], [["p", "r"], ["q", "s"]]],
        }
        path, matrix = tmp_path / "c.json", tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        matrix.write_text('[["1", "0", "-2"], ["0", "1", "-6"]]')
        code, out, err = run_cli(capsys, "transform", str(path), "--matrix", str(matrix))
        assert code == 2 and out == ""
        assert err == "error: point 'e' maps to the zero vector\n"

    def test_rank_deficient_exit_two(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "m.json"
        path.write_text('[["1", "0"], ["0", "0"]]')
        code, _, err = run_cli(
            capsys, "transform", str(fixtures_dir / "cross_ratio_quadruple.json"), "--matrix", str(path)
        )
        assert code == 2
        assert "not injective" in err


class TestWpsEquiv:
    def test_true_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "wps-equiv", "--weight", "2,1", "--a", "1,2", "--b", "4,4")
        assert code == 0 and out == "true\n"

    def test_false_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "wps-equiv", "--weight", "2,2", "--a", "1,1", "--b", "-1,-1")
        assert code == 1 and out == "false\n"

    def test_rational_coordinates(self, capsys):
        code, out, _ = run_cli(
            capsys, "wps-equiv", "--weight", "1,1", "--a", "1/2,-3/4", "--b", "2,-3"
        )
        assert code == 0 and out == "true\n"

    def test_oracle_agrees(self, capsys):
        code, out, _ = run_cli(
            capsys, "wps-equiv", "--weight", "2,1", "--a", "1,2", "--b", "4,4", "--oracle"
        )
        assert code == 0

    def test_huge_weight_part_false_verdict(self, capsys):
        code, out, err = run_cli(
            capsys, "wps-equiv", "--weight", "99999999999999999999,3", "--a", "1,1", "--b", "2,2"
        )
        assert (code, out, err) == (1, "false\n", "")

    def test_bad_weight_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "wps-equiv", "--weight", "2,x", "--a", "1,1", "--b", "1,1")
        assert code == 2

    @pytest.mark.parametrize(
        "weight, a",
        [("2", "1"), ("0,1", "1,1"), ("1,1", "1,1,1"), ("1,1", "0,0"), ("1,1", "1/0,1"), ("1,1", "1e_5,1")],
        ids=["one-part", "zero-part", "length", "zero-vector", "zero-denominator", "bad-exponent"],
    )
    def test_bad_argument_exit_two(self, capsys, weight, a):
        code, out, err = run_cli(capsys, "wps-equiv", "--weight", weight, "--a", a, "--b", "1,1")
        assert code == 2 and out == ""
        assert err.startswith("error: ")


class TestWitness:
    def test_all_even_weight(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "--weight", "2,2,4")
        assert code == 0
        assert out == "[1 : 1 : 1]_(2,2,4)\n[-1 : -1 : 1]_(2,2,4)\n"

    def test_odd_part_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "witness", "--weight", "2,3")
        assert code == 2
        assert "even" in err

    def test_with_oracle(self, capsys):
        code, _, _ = run_cli(capsys, "witness", "--weight", "4,2", "--oracle")
        assert code == 0


class TestDeterminism:
    def test_identical_bytes(self, capsys, fixtures_dir):
        args = ("reconstruct", str(fixtures_dir / "midpoint_triangle_aligned.json"))
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestOneParser:
    """A process builds one parser, and --oracle compares the E_p that was printed."""

    def test_main_builds_no_parser(self, capsys, monkeypatch, fixtures_dir):
        def build():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", build)
        code, out, _ = run_cli(capsys, "invariant", str(fixtures_dir / "cross_ratio_quadruple.json"))
        assert code == 0
        assert out == "E_p = [3 : 4]_(1,1)\n"

    @pytest.mark.parametrize("command", ["invariant", "reconstruct"])
    def test_oracle_evaluates_once(self, capsys, monkeypatch, fixtures_dir, command):
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return eves_invariant(cfg)

        monkeypatch.setattr(cli, "eves_invariant", counted)
        code, _, err = run_cli(capsys, command, str(fixtures_dir / "segment_pair_opposed.json"), "--oracle")
        assert code == 0, err
        assert len(calls) == 1

    def test_repeated_calls_agree(self, capsys, fixtures_dir):
        cfg = str(fixtures_dir / "midpoint_triangle_aligned.json")
        sequence = [
            ("validate", cfg, "--weight", "2,2,4", "--oracle"),
            ("invariant", cfg, "--oracle"),
            ("reconstruct", cfg),
            ("compare", str(fixtures_dir / "segment_pair_aligned.json"), str(fixtures_dir / "segment_pair_opposed.json")),
            ("transform", str(fixtures_dir / "projection_source.json"), "--matrix", str(fixtures_dir / "projection_matrix.json"), "--oracle"),
            ("wps-equiv", "--weight", "1,1", "--a", "1,1", "--b", "-1,-1", "--oracle"),
            ("wps-equiv", "--weight", "1,3", "--a", "-1,2", "--b", "1,-2"),
            ("witness", "--weight", "2,2"),
            ("invariant",),  # a usage error: the input is missing
            ("validate", cfg, "--no-such-option"),
            ("--help",),
            ("wps-equiv", "--help"),
        ]

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [outcome(argv) for argv in sequence]
        assert [code for code, _, _ in first] == [0, 0, 0, 1, 0, 0, 0, 0, 2, 2, 0, 0]
        assert [outcome(argv) for argv in sequence] == first


def long_int(text):
    """An integer from decimal text of any length, read in chunks below the
    interpreter's digit limit for ``int(str)``."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k : k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


class TestSizeLimits:
    def test_invariant_over_the_digit_limit_prints(self, capsys, tmp_path):
        # four lines in P^3 with the cross-ratio pattern on each, mapped by a
        # matrix with entries near 10^700: admissible, and its printed
        # invariant runs past the interpreter's 4300-digit limit for str(int)
        rng = random.Random(7)
        points, colors = {}, [[], []]
        for k in range(4):
            u = [rng.randint(-5, 5) for _ in range(4)]
            v = [rng.randint(-5, 5) for _ in range(4)]
            a, b, c, d = names = [f"p{k}{t}" for t in range(1, 5)]
            for t, name in enumerate(names, 1):
                points[name] = [str(x + t * y) for x, y in zip(u, v)]
            colors[0] += [[a, b], [c, d]]
            colors[1] += [[a, c], [b, d]]
        doc = {"field": "rational", "weight": [1, 1], "arity": 2, "dim": 3, "points": points, "colors": colors}
        source = tmp_path / "lines.json"
        source.write_text(json.dumps(doc))
        while True:
            m = [[10**700 + rng.randint(-99, 99) for _ in range(4)] for _ in range(4)]
            if det(m) != 0:
                break
        matrix = tmp_path / "matrix.json"
        matrix.write_text(json.dumps([[str(x) for x in row] for row in m]))
        code, image_text, _ = run_cli(capsys, "transform", str(source), "--matrix", str(matrix))
        assert code == 0
        image = tmp_path / "image.json"
        image.write_text(image_text)
        code, out, _ = run_cli(capsys, "validate", str(image))
        assert code == 0 and out.startswith("h_valid: true\n")

        code, out, err = run_cli(capsys, "invariant", str(image))
        assert code == 0 and err == ""
        body, weight = out.removeprefix("E_p = [").split("]_")
        assert weight == "(1,1)\n"
        coords = []
        for text in body.split(" : "):
            num, _, den = text.partition("/")
            coords.append(F(long_int(num), long_int(den) if den else 1))
        assert max(len(x) for x in re.findall(r"\d+", body)) > 4300
        value = WeightedPoint(tuple(coords), Weight((1, 1)))
        assert value == eves_invariant(load_configuration(image)).point
        assert wps_equivalent(value, eves_invariant(load_configuration(source)).point)

    @pytest.mark.parametrize(
        "coordinate",
        ["1" + "0" * 4999, "1/" + "3" * 4999, "1e5000", "1e-5000", "1e" + "9" * 4000],
        ids=["digits", "denominator", "exponent", "negative-exponent", "long-exponent"],
    )
    def test_oversized_rational_exit_two(self, capsys, coordinate):
        code, out, err = run_cli(capsys, "wps-equiv", "--weight", "1,1", "--a", f"{coordinate},1", "--b", "1,1")
        assert code == 2 and out == ""
        assert "exceeds the limit of 4096" in err
        assert len(err) < 100

    @pytest.mark.parametrize(
        "weight, a",
        [("7" * 5000 + ",1", "1,1"), ("1,1", "x" * 4000 + ",1"), ("1," + "x" * 4000, "1,1")],
        ids=["long-weight", "long-invalid-rational", "long-invalid-weight"],
    )
    def test_long_argument_not_echoed(self, capsys, weight, a):
        code, out, err = run_cli(capsys, "wps-equiv", "--weight", weight, "--a", a, "--b", "1,1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err) < 100

    def test_oversized_coordinate_in_file_exit_two(self, capsys, tmp_path, fixtures_dir):
        doc = json.loads((fixtures_dir / "cross_ratio_quadruple.json").read_text())
        name = sorted(doc["points"])[0]
        doc["points"][name][0] = "7" * 5000
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "invariant", str(path))
        assert code == 2 and out == ""
        assert "exceeds the limit of 4096" in err
        assert len(err) < 100 + len(str(path))


def padded(text: str, size: int) -> str:
    """``text`` followed by spaces up to ``size`` bytes of UTF-8."""
    return text + " " * (size - len(text.encode()))


def short_error(err: str, path) -> bool:
    return err.startswith("error: ") and len(err) < 100 + len(str(path))


class TestInputCaps:
    def test_configuration_file_at_the_byte_cap(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "padded.json"
        path.write_text(padded((fixtures_dir / "cross_ratio_quadruple.json").read_text(), MAX_INPUT_BYTES))
        assert path.stat().st_size == MAX_INPUT_BYTES
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0 and out.startswith("h_valid: true\n")

    def test_configuration_file_over_the_byte_cap(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "padded.json"
        path.write_text(padded((fixtures_dir / "cross_ratio_quadruple.json").read_text(), MAX_INPUT_BYTES + 1))
        code, out, err = run_cli(capsys, "invariant", str(path))
        assert code == 2 and out == ""
        assert f"exceeds the limit of {MAX_INPUT_BYTES} bytes" in err and short_error(err, path)

    def test_matrix_file_at_and_over_the_byte_cap(self, capsys, tmp_path, fixtures_dir):
        matrix = (fixtures_dir / "projection_matrix.json").read_text()
        source = str(fixtures_dir / "projection_source.json")
        path = tmp_path / "matrix.json"
        path.write_text(padded(matrix, MAX_INPUT_BYTES))
        code, out, _ = run_cli(capsys, "transform", source, "--matrix", str(path))
        assert code == 0 and out.startswith("{")
        path.write_text(padded(matrix, MAX_INPUT_BYTES + 1))
        code, out, err = run_cli(capsys, "transform", source, "--matrix", str(path))
        assert code == 2 and out == ""
        assert f"exceeds the limit of {MAX_INPUT_BYTES} bytes" in err and short_error(err, path)

    @staticmethod
    def repeated_segment(path, sizes):
        # one segment on the line P^1, repeated: admissible under weight (1,1) when the sizes agree
        doc = {"field": "rational", "weight": [1, 1], "arity": 2, "dim": 1,
               "points": {"a": ["1", "0"], "b": ["0", "1"]},
               "colors": [[["a", "b"]] * n for n in sizes]}
        path.write_text(json.dumps(doc))

    def test_tuple_count_at_the_cap(self, capsys, tmp_path):
        assert MAX_TUPLES % 2 == 0
        path = tmp_path / "many.json"
        self.repeated_segment(path, (MAX_TUPLES // 2, MAX_TUPLES // 2))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0 and out.startswith("h_valid: true\n")

    def test_tuple_count_over_the_cap(self, capsys, tmp_path):
        path = tmp_path / "many.json"
        self.repeated_segment(path, (MAX_TUPLES // 2, MAX_TUPLES // 2 + 1))
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2 and out == ""
        assert f"more than the limit of {MAX_TUPLES} tuples" in err and short_error(err, path)

    def test_caps_far_above_the_fixtures(self, fixtures_dir):
        for path in fixtures_dir.glob("*.json"):
            assert path.stat().st_size * 100 < MAX_INPUT_BYTES
        for name in CONFIG_FIXTURES:
            cfg = load_configuration(fixtures_dir / name)
            assert sum(len(color) for color in cfg.colors) * 100 < MAX_TUPLES

    def test_file_not_utf8_exit_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"field": "r\xe9al"}')
        code, out, err = run_cli(capsys, "invariant", str(path))
        assert code == 2 and out == ""
        assert "not UTF-8 text" in err and short_error(err, path)


class TestInternalError:
    @pytest.mark.parametrize("fault", [RuntimeError, ValueError])
    def test_crash_exits_five(self, capsys, monkeypatch, fixtures_dir, fault):
        def crash(cfg):
            raise fault("simulated fault")

        monkeypatch.setattr(cli, "eves_invariant", crash)
        code, out, err = run_cli(capsys, "invariant", str(fixtures_dir / "cross_ratio_quadruple.json"))
        assert code == cli.EXIT_INTERNAL == 5
        assert out == ""
        assert err.startswith(f"internal error: {fault.__name__}: simulated fault\n")


def test_readme_library_example(monkeypatch, capsys):
    """The README's first ``python`` block, run from the repository root,
    prints E_p of the aligned midpoint triangle, then h_01, h_02 and h_12."""
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(FIXTURES.parent)
    exec(code, {})
    assert capsys.readouterr().out == (
        "[1/64 : 1/64 : 1/4096]_(2,2,4)\n"
        "[1/64 : 1/64]_(1,1)\n"
        "[1/4096 : 1/4096]_(1,1)\n"
        "[1/4096 : 1/4096]_(1,1)\n"
    )
