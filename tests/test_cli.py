"""Command-line interface: subcommands, exit codes, machine output."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from omega_lie import catalog, verification
from omega_lie.algebra import MAX_DIM, from_document, to_document
from omega_lie.cli import SOLVE_KINDS, main, seed
from omega_lie.local import SamplePlan, local_closure
from omega_lie.solvers import derivations


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

    @pytest.mark.parametrize("algebra", ["@B", "@C_alpha?alpha=2"])
    def test_halfder_is_dder_at_one_half(self, capsys, algebra):
        code, out, _ = run(capsys, "--format", "json", "solve", "halfder", algebra)
        assert code == 0
        half = json.loads(out)["result"]
        code, out, _ = run(capsys, "--format", "json", "solve", "dder", algebra, "--delta", "1/2")
        assert code == 0
        weighted = json.loads(out)["result"]
        assert (half["rank"], half["basis"]) == (weighted["rank"], weighted["basis"])
        assert half["basis"]

    def test_every_catalog_answer_is_pinned(self, capsys):
        # every kind on every entry, both formats; L_{1,5} has fractional entries in every kind
        digest = hashlib.sha256()
        for entry in catalog.list_entries():
            for label in sorted(SOLVE_KINDS):
                for fmt in ("text", "json"):
                    delta = ["--delta", "1/2"] if label == "dder" else []
                    code, out, _ = run(capsys, "--format", fmt, "solve", label, "@" + entry.key, *delta)
                    digest.update(f"{code}\n{out}".encode())
        assert digest.hexdigest() == "53dd99e074afbf137198019108e2784a60fc9fcd7ca2fcb7a3c4ae01816612ce"

    def test_answers_are_printed_without_a_dense_basis(self, capsys, tmp_path):
        # every bilinear map on a 10-dimensional zero algebra is a biderivation: rank 1000,
        # one entry per basis tensor, so a dense basis of 1000 x 1000 rationals would show
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"name": "z", "dim": 10}), encoding="utf-8")
        tracemalloc.start()
        try:
            code = main(["solve", "bider", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and "rank 1000" in capsys.readouterr().out
        assert peak < 5_000_000

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "nonsense-kind", "@B"), "invalid choice: 'nonsense-kind'"),
            (("--seed", "010", "local", "der", "@B"), "argument --seed: invalid seed value: '010'"),
            # a negative seed would draw the plan points of its absolute value
            (("--seed", "-5", "local", "der", "@B"), "argument --seed: invalid seed value: '-5'"),
            (("--seed=-0x5", "verify-paper"), "argument --seed: invalid seed value: '-0x5'"),
            # int(text, 0) reads these as 10, 12 and 12; a seed is read in ASCII Python integer syntax only
            (("--seed", "1_0", "local", "der", "@B"), "argument --seed: invalid seed value: '1_0'"),
            (("--seed", " 12 ", "local", "der", "@B"), "argument --seed: invalid seed value: ' 12 '"),
            (("--seed", "\u0661\u0662", "local", "der", "@B"), "argument --seed: invalid seed value: '\u0661\u0662'"),
            # the plan draws a fixed eight random points; the option that set the count is gone,
            # globally and from each of the three commands that build a plan
            (("local", "der", "@B", "--random-count", "5"), "unrecognized arguments: --random-count 5"),
            (("--random-count=8", "local", "der", "@B"), "unrecognized arguments: --random-count=8"),
            (("twolocal", "der", "@B", "--random-count", "8"), "unrecognized arguments: --random-count 8"),
            (("verify-paper", "--random-count", "0"), "unrecognized arguments: --random-count 0"),
        ],
        ids=[
            "kind",
            "seed",
            "negative-seed",
            "negative-seed-equals",
            "seed-underscore",
            "seed-spaces",
            "seed-arabic-indic",
            "random-count",
            "random-count-global",
            "random-count-twolocal",
            "random-count-verify-paper",
        ],
    )
    def test_usage_error_exits_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0xC0FFEE", "0XC0FFEE", "12648430", "+12648430"])
    def test_seed_reads_python_integer_syntax(self, text):
        assert seed(text) == SamplePlan().seed

    def test_global_options_are_format_and_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: omega-lie [-h] [--format {text,json}] [--seed SEED]\n")
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {"--help", "--format", "--seed"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "der", "@B", "--delta", "1/2"),
            ("local", "der", "@B", "--map", "missing.json"),
            ("local", "map", "@B", "--map", "missing.json", "--family", "missing.json"),
            ("local", "der", "@B", "--space", "halfder"),
            ("local", "halfder", "@B", "--space", "der"),
        ],
        ids=["delta", "map", "family", "space", "space-halfder"],
    )
    def test_option_the_command_does_not_read_exits_2(self, capsys, argv):
        # the files do not exist: exit 2 rather than 3 shows that none was opened
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{argv[-2]} applies only to" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("local", "map", "@B"), "local map requires --map FILE"),
            (("local", "family", "@B"), "local family requires --family FILE"),
            (("solve", "dder", "@B", "--delta", "abc"), "bad --delta value 'abc'"),
            (("catalog", "show", "NOPE"), "unknown catalog key 'NOPE'"),
        ],
        ids=["map-missing", "family-missing", "delta-not-rational", "unknown-key"],
    )
    def test_usage_error_found_by_the_command_exits_2(self, capsys, argv, message):
        # these pass the parser, so the command reports them: one line, no output
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

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

    # int() reads each of these: "1_0" as 10, " 4 " as 4 and the Arabic-Indic digit three as 3
    @pytest.mark.parametrize("text", ["1_0", " 4 ", "\u0663"], ids=["underscore", "spaces", "arabic-indic"])
    @pytest.mark.parametrize("field", ["dim", "i", "coeffs"])
    def test_integer_string_that_is_not_ascii_digits_exits_3(self, capsys, tmp_path, field, text):
        doc = to_document(catalog.get("L_{1,1}"))
        entry = {"i": 1, "j": 4, "coeffs": {"4": "1"}}
        if field == "dim":
            doc["dim"] = text
        elif field == "i":
            doc["brackets"] = [{**entry, "i": text}]
        else:
            doc["brackets"] = [{**entry, "coeffs": {text: "1"}}]
        code, _, err = run_file(capsys, tmp_path, doc, "check", "{}")
        assert code == 3
        assert f"expected an integer, got {text!r}" in err

    # a rational is read without surrounding whitespace, as an integer field is
    @pytest.mark.parametrize("text", [" 5", "\u3000-3", "1/2 "], ids=["space", "ideographic-space", "trailing"])
    def test_padded_omega_value_exits_3(self, capsys, tmp_path, text):
        doc = to_document(catalog.get("L_{1,1}"))
        doc["omega"] = [{"i": 1, "j": 2, "value": text}]
        code, _, err = run_file(capsys, tmp_path, doc, "check", "{}")
        assert code == 3
        assert f"expected an integer or 'p/q', got {text!r}" in err

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

    def test_reader_that_closes_early_gets_exit_141(self, tmp_path):
        # the answer (every 12 x 12 matrix) is larger than a pipe buffer, so
        # the writer is still blocked on the pipe when its reader goes away
        path = tmp_path / "zero12.json"
        path.write_text(json.dumps({"name": "zero12", "dim": 12}))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        with subprocess.Popen(
            [sys.executable, "-m", "omega_lie.cli", "solve", "der", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        ) as proc:
            try:
                head = proc.stdout.read(100)
                proc.stdout.close()
                err = proc.stderr.read()
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
        assert head.startswith("der space of zero12: rank 144\n")
        assert "Traceback" not in err
        assert code == 141


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


# contents that no file kind can decode: not JSON, not UTF-8, nested deeper than
# the decoder's recursion limit, an integer literal over Python's 4300-digit limit
UNDECODABLE = {
    "not-json": b"not json at all {",
    "not-utf8": b"\xff\xfe",
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
    "huge-int": b"1" * 5000,
}


class TestMalformedFiles:
    """A file of the wrong shape is a parse error (exit 3), never a crash."""

    @pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE.keys())
    @pytest.mark.parametrize("kind", FILE_KINDS)
    def test_undecodable_file_exits_3(self, capsys, tmp_path, kind, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        argv = [str(path) if a == "{}" else a for a in FILE_KINDS[kind][1]]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert f"cannot parse {kind} file" in err
        assert "Traceback" not in err
        assert out == ""

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
        code, _, err = run_file(capsys, tmp_path, {**doc, field: value}, *argv)
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
            ("brackets", [{"i": 1, "j": 2, "coeffs": {"2": "1", "02": "5"}}]),
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

    @pytest.mark.parametrize("doc", [[1], {"directions": []}], ids=["list", "no-base"])
    def test_family_that_is_not_an_object_with_a_base_exits_3(self, capsys, tmp_path, doc):
        code, out, err = run_file(capsys, tmp_path, doc, "local", "family", "@L_{1,1}", "--family", "{}")
        assert code == 3
        assert "expected an object with 'base'" in err
        assert out == ""

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

    # "1e3" and "0.5" are neither integers nor p/q; Fraction() would spend
    # minutes building the power of ten in "1e100000000"
    @pytest.mark.parametrize("value", ["1/0", "1e3", "0.5", "1e100000000"])
    def test_parameter_with_bad_rational(self, capsys, value):
        code, _, err = run(capsys, "check", f"@C_alpha?alpha={value}")
        assert code == 2
        assert "bad rational" in err

    def test_repeated_parameter(self, capsys):
        code, out, err = run(capsys, "check", "@C_alpha?alpha=1&alpha=3")
        assert code == 2
        assert "repeated parameter" in err
        assert out == ""


# the B~ table as printed, with [e4,e2] = -e4 (the catalog entry drops that bracket)
PRINTED_B_TILDE = {
    "name": "B~ (printed)",
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1"}},
        {"i": 1, "j": 3, "coeffs": {"2": "1", "3": "1"}},
        {"i": 2, "j": 3, "coeffs": {"1": "1"}},
        {"i": 1, "j": 4, "coeffs": {"4": "2"}},
        {"i": 2, "j": 4, "coeffs": {"4": "1"}},
    ],
    "omega": [{"i": 2, "j": 3, "value": "2"}],
}


class TestCheck:
    def test_printed_b_tilde_text(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("btilde.json").write_text(json.dumps(PRINTED_B_TILDE))
        code, out, _ = run(capsys, "check", "btilde.json")
        assert code == 0
        assert out == (
            "algebra B~ (printed) (dim 4, hash bd39fc004aed36c8)\n"
            "  bracket antisymmetric: True\n"
            "  omega skew-symmetric:  True\n"
            "  weighted Jacobi holds: False\n"
            "  omega is zero (plain Lie algebra): False\n"
            "  axioms passed: False\n"
            "  failing triples: ((1, 2, 4), (1, 3, 4))\n"
        )

    def test_printed_b_tilde_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("btilde.json").write_text(json.dumps(PRINTED_B_TILDE))
        code, out, _ = run(capsys, "--format", "json", "check", "btilde.json")
        assert code == 0
        assert out == json.dumps(
            {
                "algebra": {"dim": 4, "hash": "bd39fc004aed36c8", "name": "B~ (printed)", "path": "btilde.json"},
                "command": "omega-lie --format json check btilde.json",
                "result": {
                    "bracket_antisymmetric": True,
                    "failing_triples": [[1, 2, 4], [1, 3, 4]],
                    "omega_is_zero": False,
                    "omega_skew": True,
                    "passed": False,
                },
            },
            indent=2,
            sort_keys=True,
        ) + "\n"


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
        algebra = from_document(json.loads(out))
        assert algebra.dim == 4
        assert to_document(algebra) == to_document(catalog.get("L_{2,3}"))


class TestLocalAndTwoLocal:
    # from_document accepts dim 0, where the evaluation loop has no rows to step over
    @pytest.mark.parametrize("argv", [("local", "der"), ("twolocal", "der"), ("local", "map")], ids="-".join)
    def test_zero_dimensional_algebra(self, capsys, tmp_path, argv):
        empty_map = tmp_path / "map.json"
        empty_map.write_text(json.dumps({"matrix": []}))
        extra = ("--map", str(empty_map)) if argv[1] == "map" else ()
        code, out, err = run_file(capsys, tmp_path, {"name": "zero", "dim": 0}, *argv, "{}", *extra)
        assert code == 0
        assert "of zero" in out
        assert "Traceback" not in err

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

    def test_list_text_is_pinned(self, capsys):
        # key, dimension and the parameter column: alpha, its excluded values and its default
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d7ebb56ad4612e0b32d22d18c735b248a84f6478b01319f919a1269e18ee9b38"
        )

    def test_show_includes_reference_values(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "catalog", "show", "L_{2,2}")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["expected"]["sym_bider_rank"] == 0

    def test_show_prints_the_notes_in_text(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "L_{1,1}")
        assert code == 0
        assert out.startswith("L_{1,1}: L_{1,1} (dim 4, hash ")
        assert f"\n  notes: {catalog.entry('L_{1,1}').notes}\n" in out

    def test_show_requires_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["catalog", "show"])
        assert exc.value.code == 2

    def test_list_refuses_a_key(self, capsys):
        # list reads no KEY; it used to exit 0 and ignore it
        code, out, err = run(capsys, "catalog", "list", "B")
        assert code == 2
        assert out == ""
        assert err == "error: catalog list takes no KEY, got 'B'\n"


class TestSeed:
    """``--seed`` reaches the sample plan of every command that samples."""

    def test_local_closure_at_seed_7(self, capsys):
        alg = catalog.get("L_{1,7}")
        res = local_closure(alg, derivations(alg), SamplePlan(seed=7))
        code, out, _ = run(capsys, "--format", "json", "--seed", "7", "local", "der", "@L_{1,7}")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["candidate_rank"] == res.candidate.rank == 4
        assert result["certified"] is res.certified is False
        assert result["samples"] == len(res.samples_used)
        assert result["witness"] == res.witness.to_strings()
        # one of the default seed's eight random points cuts that witness out
        code, out, _ = run(capsys, "--format", "json", "local", "der", "@L_{1,7}")
        default = json.loads(out)["result"]
        assert default["certified"] is True and default != result

    def test_verify_paper_at_seed_7(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "--seed", "7", "verify-paper")
        results = verification.run_all(SamplePlan(seed=7))
        criteria = [
            {"criterion": r.number, "title": r.title, "passed": r.passed, "details": list(r.details)} for r in results
        ]
        failures = sum(not r.passed for r in results)
        assert json.loads(out)["result"] == {"criteria": criteria, "failures": failures}
        assert code == 1


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
