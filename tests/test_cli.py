"""Command-line interface: subcommands, exit codes, machine output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from omega_lie import catalog, verification
from omega_lie.algebra import MAX_DIM, loads as load_algebra, to_document
from omega_lie.cli import main
from omega_lie.local import MAX_RANDOM_COUNT


IDENTITY_4 = [["1" if i == j else "0" for j in range(4)] for i in range(4)]

# the automorphism family of L_{1,1}: identity plus two column-3 patterns
FAMILY = {
    "base": IDENTITY_4,
    "directions": [
        [["0", "0", "1", "0"], ["0", "0", "-1", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]],
        [["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"]],
    ],
    "open_conditions": [{"constant": "1", "coeffs": {"t1": "1"}}],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_der_rank(self, capsys):
        code, out, _ = run(capsys, "solve", "der", "@L_{1,1}")
        assert code == 0
        assert "rank 6" in out

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "solve", "der", "@L_{1,4}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["rank"] == 2
        assert doc["algebra"]["key"] == "L_{1,4}"
        # re-serializing the parsed document reproduces the emitted bytes
        assert json.dumps(doc, indent=2, sort_keys=True) == out.strip()

    def test_bider_skew(self, capsys):
        code, out, _ = run(capsys, "solve", "bider-skew", "@L_{2,2}")
        assert code == 0
        assert "rank 0" in out

    def test_parameterized_algebra(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "solve", "halfder", "@C_alpha?alpha=3")
        assert code == 0
        assert json.loads(out)["result"]["rank"] == 1

    def test_dder_requires_delta(self, capsys):
        code, _, err = run(capsys, "solve", "dder", "@B")
        assert code == 2
        assert "--delta" in err

    def test_dder_with_delta(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "solve", "dder", "@B", "--delta", "1/2")
        assert code == 0
        assert json.loads(out)["result"]["rank"] == 1

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "--format", "json", "local", "der", "@L_{1,5}")
        _, second, _ = run(capsys, "--format", "json", "local", "der", "@L_{1,5}")
        assert first == second


class TestErrors:
    def test_unknown_catalog_key(self, capsys):
        code, _, err = run(capsys, "check", "@nope")
        assert code == 2
        assert "nope" in err

    def test_excluded_parameter(self, capsys):
        code, _, err = run(capsys, "check", "@C_alpha?alpha=0")
        assert code == 2
        assert "excluded" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/definitely/not/here.json")
        assert code == 3
        assert "here.json" in err

    def test_bad_algebra_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ this is not json")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 3

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "nonsense-kind", "@B"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("count", ["-1", "-3"])
    def test_negative_random_count_exits_2(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["--random-count", count, "local", "der", "@B"])
        assert exc.value.code == 2
        assert "--random-count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [str(MAX_RANDOM_COUNT + 1), str(10**12)])
    def test_random_count_over_budget_exits_2(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["--random-count", count, "local", "der", "@B"])
        assert exc.value.code == 2
        assert "--random-count" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**12])
    def test_dim_over_budget_exits_3(self, capsys, tmp_path, dim):
        path = tmp_path / "huge.json"
        # one label: should the budget ever go, the basis check refuses the file without allocating
        path.write_text(json.dumps({"name": "huge", "dim": dim, "basis": ["e1"]}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "'dim'" in err


    @pytest.mark.parametrize("dim", [3.9, True])
    def test_malformed_dim_exits_3(self, capsys, tmp_path, dim):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "dim": dim}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 3
        assert "'dim'" in err

    def test_boolean_map_entry_exits_3(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"matrix": [[True, "0", "0", "0"], ["0"] * 4, ["0"] * 4, ["0"] * 4]}))
        code, _, err = run(capsys, "local", "map", "@L_{1,1}", "--map", str(path))
        assert code == 3
        assert "True" in err

    def test_boolean_family_condition_exits_3(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"base": IDENTITY_4, "open_conditions": [{"constant": True}]}))
        code, _, err = run(capsys, "local", "family", "@L_{1,1}", "--family", str(path))
        assert code == 3
        assert "open condition" in err

    def test_closed_output_pipe_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "omega_lie.cli", "catalog", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 141


def run_file(capsys, tmp_path, doc, *argv):
    """Write ``doc`` as JSON and run ``argv`` with ``{}`` replaced by its path."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return run(capsys, *(str(path) if a == "{}" else a for a in argv))


# one well-formed document per file kind, with the command that reads it
FILE_KINDS = {
    "algebra": (to_document(catalog.get("L_{1,1}")), ("check", "{}")),
    "map": ({"matrix": IDENTITY_4}, ("local", "map", "@L_{1,1}", "--map", "{}")),
    "family": ({**FAMILY, "parameters": ["t1", "t2"]}, ("local", "family", "@L_{1,1}", "--family", "{}")),
}


class TestMalformedFiles:
    """A file of the wrong shape is a parse error (exit 3), never a crash."""

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (kind, field, value)
            for kind, (doc, _) in FILE_KINDS.items()
            for field in doc
            for value in (5, "x", {}, [5], None)
        ],
    )
    def test_each_field_replaced(self, capsys, tmp_path, kind, field, value):
        doc, argv = FILE_KINDS[kind]
        code, _, err = run_file(capsys, tmp_path, {**doc, field: value}, "--random-count", "0", *argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("brackets", 5),
            ("basis", 5),
            ("basis", "abcd"),
            ("basis", ["a", "b", "c", 4]),
            ("brackets", [{"i": 1, "j": 2, "coeffs": [1]}]),
            ("brackets", [{"i": 1, "j": 2, "coeffs": {"2": "1"}}, {"i": 1, "j": 2, "coeffs": {"3": "1"}}]),
            ("omega", [{"i": 1, "j": 2, "value": "1"}, {"i": 1, "j": 2, "value": "2"}]),
            ("name", None),
            ("notes", [5]),
        ],
    )
    def test_bad_algebra_shape_exits_3(self, capsys, tmp_path, field, value):
        doc = {**to_document(catalog.get("L_{1,1}")), field: value}
        code, _, err = run_file(capsys, tmp_path, doc, "check", "{}")
        assert code == 3
        assert "cannot parse algebra file" in err

    @pytest.mark.parametrize("field", ["directions", "parameters", "open_conditions"])
    @pytest.mark.parametrize("value", [5, {}, None])
    def test_family_list_field_not_a_list_exits_3(self, capsys, tmp_path, field, value):
        code, _, err = run_file(capsys, tmp_path, {**FAMILY, field: value}, "local", "family", "@L_{1,1}", "--family", "{}")
        assert code == 3
        assert f"'{field}' must be a list" in err

    @pytest.mark.parametrize("names", [["t", "t"], ["t1", 2]])
    def test_family_parameter_names_must_be_distinct_strings(self, capsys, tmp_path, names):
        doc = {**FAMILY, "parameters": names, "open_conditions": []}
        code, _, err = run_file(capsys, tmp_path, doc, "local", "family", "@L_{1,1}", "--family", "{}")
        assert code == 3
        assert "distinct strings" in err

    def test_family_condition_on_undeclared_parameter_exits_3(self, capsys, tmp_path):
        doc = {**FAMILY, "open_conditions": [{"constant": "1", "coeffs": {"zz": "1"}}]}
        code, out, err = run_file(capsys, tmp_path, doc, "local", "family", "@L_{1,1}", "--family", "{}")
        assert code == 3
        assert "undeclared parameters ['zz']" in err
        assert out == ""


class TestAlgebraArgument:
    """``@key`` and ``@key?params`` go through one parsing path."""

    def identity(self, capsys, arg):
        code, out, _ = run(capsys, "--format", "json", "check", arg)
        assert code == 0
        return json.loads(out)["algebra"]

    def test_bare_key_identity_has_empty_params(self, capsys):
        doc = self.identity(capsys, "@L_{1,1}")
        assert doc["key"] == "L_{1,1}"
        assert doc["params"] == {}

    def test_empty_query_is_the_bare_key(self, capsys):
        assert self.identity(capsys, "@B?") == self.identity(capsys, "@B")

    def test_query_parameters_reach_the_identity(self, capsys):
        doc = self.identity(capsys, "@C_alpha?alpha=3")
        assert doc["key"] == "C_alpha"
        assert doc["params"] == {"alpha": "3"}

    def test_parameter_without_value(self, capsys):
        code, _, err = run(capsys, "check", "@C_alpha?alpha")
        assert code == 2
        assert "bad parameter" in err

    def test_parameter_with_bad_rational(self, capsys):
        code, _, err = run(capsys, "check", "@C_alpha?alpha=1/0")
        assert code == 2
        assert "bad rational" in err

    def test_repeated_parameter(self, capsys):
        code, out, err = run(capsys, "check", "@C_alpha?alpha=1&alpha=3")
        assert code == 2
        assert "repeated parameter" in err
        assert out == ""


class TestFiles:
    def test_algebra_file_input(self, capsys, tmp_path):
        doc = to_document(catalog.get("L_{1,4}"))
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", "der", str(path))
        assert code == 0
        assert "rank 2" in out

    def test_local_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"matrix": [["1", "0", "0", "0"], ["0"] * 4, ["0"] * 4, ["0"] * 4]}))
        code, out, _ = run(capsys, "--format", "json", "local", "map", "@L_{1,1}", "--map", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["status"] == "NOT_LOCAL"
        assert doc["result"]["witness_point"] == ["1", "0", "0", "0"]

    def test_local_family_file(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text(json.dumps(FAMILY))
        code, out, _ = run(capsys, "--format", "json", "local", "family", "@L_{1,1}", "--family", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["comparison"] == "MATCHES_FAMILY_HULL"

    def test_catalog_export_round_trips(self, capsys):
        code, out, _ = run(capsys, "catalog", "export", "L_{2,3}")
        assert code == 0
        algebra = load_algebra(out)
        assert algebra.dim == 4
        assert to_document(algebra) == to_document(catalog.get("L_{2,3}"))


class TestLocalAndTwoLocal:
    def test_local_der_closure(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "local", "der", "@L_{1,1}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["certified"] is True
        assert doc["result"]["candidate_rank"] == 6

    def test_local_closure_witness_reported(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "local", "der", "@L_{1,2}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["certified"] is False
        assert doc["result"]["witness"] is not None

    def test_twolocal_rigid(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "twolocal", "der", "@L_{1,4}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "RIGID"
        assert doc["result"]["separating_vector"] == ["0", "0", "1", "0"]

    def test_twolocal_inconclusive(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "twolocal", "der", "@L_{1,1}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "INCONCLUSIVE"
        assert doc["result"]["min_kernel_rank"] == 3


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "catalog", "list")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["count"] == 27

    def test_show_includes_reference_values(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "catalog", "show", "L_{2,2}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["expected"]["sym_bider_rank"] == 0

    def test_show_requires_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "show"])
        assert exc.value.code == 2


class TestVerifyPaper:
    def test_matches_library_results(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify-paper")
        doc = json.loads(out)
        results = verification.run_all()
        expected_failures = sum(1 for r in results if not r.passed)
        assert doc["result"]["failures"] == expected_failures
        assert code == (1 if expected_failures else 0)
        assert len(doc["result"]["criteria"]) == 11
        passed = {r["criterion"] for r in doc["result"]["criteria"] if r["passed"]}
        assert {1, 2, 8, 10, 11} <= passed
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8072eef499522bd88add40213365d7fa3746834001dbc8761290dabcdafaff98"
        )
