import json

from eves.cli import main
from eves import (
    eves_invariant,
    load_configuration,
    parse_configuration,
    wps_equivalent,
)


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

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no_such_file.json")
        assert code == 2
        assert "error:" in err


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

    def test_deeply_nested_matrix_exit_two(self, capsys, tmp_path, fixtures_dir):
        path = tmp_path / "m.json"
        path.write_text("[" * 100000)
        code, _, err = run_cli(
            capsys, "transform", str(fixtures_dir / "cross_ratio_quadruple.json"), "--matrix", str(path)
        )
        assert code == 2
        assert err == f"error: {path}: JSON nests too deeply\n"

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

    def test_bad_weight_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "wps-equiv", "--weight", "2,x", "--a", "1,1", "--b", "1,1")
        assert code == 2


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
