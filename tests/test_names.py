"""Every global name the package's code loads is defined, and every name it defines is used.

A misspelt name is only an error when the line holding it runs, so it can
hide in a branch that no test happens to take.  The first guard compiles
each module of ``omega_lie``, walks all nested code objects, and checks every
``LOAD_GLOBAL``/``LOAD_NAME`` against the imported module's namespace and
``builtins``.

The second guard is its converse: every module-level function, class and
assigned name, and every non-dunder method, of ``omega_lie`` must be
referenced somewhere outside its own definition, in ``src/``, ``tests/``,
``bench/`` or the code spans of ``README.md``.  A reference is a name or an
attribute in Python code, an imported name, or a part of a string that is
a dotted name (the benchmark wraps library functions by name).

The third guard covers the README from the other side: every dotted
``omega_lie.<module>.<name>`` in one of its code spans must resolve, so the
README cannot keep citing a name that was renamed or deleted.

The fourth guard keeps one reader: ``cli._load_json_file`` is the only
function of the package that calls ``open``, ``json.load`` or ``json.loads``,
so every file gets the same exit code 3 for what cannot be read or decoded.

The fifth guard keeps evaluation conversion-free: the one bilinear kernel
(``linalg._bilinear``) and its dense read-out (``linalg._dense``), the
builders of the supports it reads (``algebra._tensor_support`` over
``linalg._entries`` and ``linalg._exact``), the skew form
(``OmegaAlgebra.omega_form``), the row action (``linalg.Matrix.apply``) and
the column action (``local._images``) never call ``vector`` or ``frac``.
Values are converted once, where they enter; these run on every residual
check.

The sixth guard keeps the residual check independent of the solver: no
function of the checker (``solvers.defects`` and the functions behind it)
names the row-assembly functions ``_rows``, ``_tables`` or ``_kernel``, so a
fault in row indexing cannot hide by being repeated in the re-check.

The seventh guard keeps exact elimination on integers: the elimination
core (``linalg._Echelon.insert``, the one reduction ``linalg._reduce``,
which answers every membership query on echelons and subspaces, and
its row combination ``linalg._eliminate``) and the local engine's integer path
(the point scan ``local._escape``, the walk over sample points
``local._walk``, which scales each point, the column
action ``local._images``, the one builder of ``W(x)`` ``local._span_at``
and its equations ``local._point_rows``) neither build a ``Fraction``
(directly, through ``frac``/``vector`` or from the constants
``ZERO``/``ONE``) nor reach ``SubspaceBasis`` or ``evaluation_subspace``,
the deleted rational path.  Fractions are made only where a reduced form
is read.

The eighth guard keeps one walk over the sample points: inside ``src/``
only ``local._walk`` names ``local._span_at``, so ``W(x)`` is built, and
each point scaled to integers, in one loop for every reader (closures,
the point scan, 2-local reports and ``kernel_rank``).

The ninth guard keeps one way to build an echelon: inside ``src/`` a method
``insert`` is called only by ``linalg._Echelon.__init__``, which folds in
the rows that define the echelon, and by the modular filter's loop in
``linalg.nullspace_of_sparse_rows``, which stops at full rank.  Every other
echelon is a constructor call, ``_Echelon(ambient, rows)``, and only the
constructors ``linalg._Echelon.__init__`` and ``linalg._ModEchelon.__init__``
assign an attribute ``rows``, so no echelon is handed rows that it did not
reduce.

The tenth guard keeps every solve of the verification suite in its session:
``verification.py`` neither imports nor names any of the ten one-line
solver wrappers (``derivations``, ``skew_biderivations``, ...), so no
criterion can solve a space the run's ``solvers.Session`` already holds, or
solve a derived kind from scratch.

The eleventh guard keeps one bilinear kernel: inside ``src/`` only the
dense views ``OmegaAlgebra.bracket``, ``OmegaAlgebra.omega_form``,
``BilinearMap.apply`` and ``Matrix.apply``, and the residual check
``solvers.defects``, name ``linalg._bilinear``, so every bracket, form
value, bilinear image and row action is evaluated by one loop over one
cached support.

The twelfth guard keeps a subspace in its one stored form: outside
``linalg`` the dense ``SubspaceBasis.basis`` view is read only where a
dense answer is returned, by ``SolutionSpace.elements``.
The CLI names none of ``basis``, ``maps``, ``tensors`` or ``elements``: it prints each
answer from the stored rows through ``SubspaceBasis.reduced_row``, as
``local.local_closure`` builds its witness matrix.  Every query and every
walk over sample points reads the stored integer rows.

The thirteenth guard keeps stored bases off ``linalg._integral``: outside
``linalg`` it is called only by ``local._walk``, on each sample point, and
by ``local.is_local_member``, on the candidate matrix, and by no function
that reads a dense basis.  A stored row is already integral, so scaling one
again would only redo work.  Inside ``linalg`` it is called only where a
rational row or vector enters: by ``nullspace_of_sparse_rows``, on each row
of a system, by ``_entering`` and ``SubspaceBasis.__init__``, on vectors
from outside, and by ``SubspaceBasis.reduced_from_last``, on the vector it
reduces.  No kernel generator is scaled: each is read off in integers.  In
particular ``SubspaceBasis.restricted`` composes each row unscaled, and the
solve it hands the composed rows to scales each of them once.

The fourteenth guard keeps one table of named kinds: no module of ``src/``
but ``solvers`` builds ``Fraction(1, 2)``, which is built once, as the
``delta`` that ``solvers.KINDS`` pins for ``half_derivation``.  The CLI and
the verification suite name the kind instead of restating its weight.

The fifteenth guard keeps the names that only the benchmark calls out of
the package's own code: no module of ``src/`` calls or imports the ten
one-kind wrappers, ``map_defects`` or ``tensor_defects``, or reads the
``maps``/``tensors`` alias of ``SolutionSpace.elements``.  Deleting them
once ``bench/`` solves through ``solve`` is then one edit to ``solvers.py``.

The sixteenth guard keeps one indexed form of an algebra's tables: no
function of ``solvers.py`` reads the attribute ``structure`` or ``omega``.
Row assembly and the residual check read the cached supports
``OmegaAlgebra._support`` and ``OmegaAlgebra._form_support``, so the
nonzero structure constants are indexed once per algebra, not rescanned
from the dense tables on every solve.

The seventeenth guard keeps kernels where a system is solved: inside
``src/`` a method ``kernel`` is called only by
``linalg.nullspace_of_sparse_rows``, which reads the solution space off a
system, and by ``local._point_rows``, which turns the span ``W(x)`` into the
equations of membership.  Biderivations are the intersection of two spans
of the derivations' slices, read off one echelon, so no solve path takes an
annihilator of a solved space to compose it into equations again.

The eighteenth guard keeps one kernel extraction: inside ``src/`` one class
defines a method ``kernel``, ``linalg._Echelon``.  The modular pass only
picks the rows that ``_Echelon`` eliminates, so no kernel is read mod P and
lifted back to the rationals.

The nineteenth guard keeps the package on the standard library, as the
README and the empty ``dependencies`` of ``pyproject.toml`` promise: every
``import`` and every absolute ``from`` in ``src/omega_lie``, at any depth,
names a module of ``sys.stdlib_module_names`` or the package itself.
"""

import ast
import builtins
import dis
import importlib
import pathlib
import pkgutil
import re
import sys
import types

import pytest

import omega_lie

MODULES = sorted(
    f"{omega_lie.__name__}.{info.name}" for info in pkgutil.iter_modules(omega_lie.__path__)
) + [omega_lie.__name__]


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def undefined_names(module_name):
    """``(module, function, line, name)`` for each load of an undefined global."""
    module = importlib.import_module(module_name)
    with open(module.__file__, "r", encoding="utf-8") as handle:
        source = handle.read()
    known = set(vars(module)) | set(dir(builtins))
    hits = []
    for code in _code_objects(compile(source, module.__file__, "exec")):
        instructions = list(dis.get_instructions(code))
        # a class body resolves LOAD_NAME against its own namespace first, which
        # holds what it stores and, after SETUP_ANNOTATIONS, __annotations__
        local = {ins.argval for ins in instructions if ins.opname == "STORE_NAME"}
        if any(ins.opname == "SETUP_ANNOTATIONS" for ins in instructions):
            local.add("__annotations__")
        line = code.co_firstlineno
        for ins in instructions:
            if ins.starts_line is not None:
                line = ins.starts_line
            if ins.opname not in ("LOAD_GLOBAL", "LOAD_NAME"):
                continue
            if ins.argval in known or (ins.opname == "LOAD_NAME" and ins.argval in local):
                continue
            hits.append((module_name, code.co_name, line, ins.argval))
    return hits


@pytest.mark.parametrize("module_name", MODULES)
def test_no_undefined_global_names(module_name):
    assert undefined_names(module_name) == []


def test_guard_catches_an_undefined_name(tmp_path, monkeypatch):
    (tmp_path / "omega_lie_names_probe.py").write_text(
        "def f(ref):\n    if ref:\n        return ref\n    return spec\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    assert undefined_names("omega_lie_names_probe") == [
        ("omega_lie_names_probe", "f", 4, "spec")
    ]


ROOT = pathlib.Path(__file__).resolve().parent.parent
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _code_spans(text):
    return re.findall(r"```.*?```|`[^`]*`", text, flags=re.DOTALL)


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """``(label, name, first line, last line)`` of each definition the guard covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield target.id, target.id, node.lineno, node.end_lineno


def _references(path):
    """``(line, name)`` of each reference in one file of the corpus."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return [(0, name) for span in _code_spans(text) for name in IDENTIFIER.findall(span)]
    refs = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            refs.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            refs.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias):
            refs.append((node.lineno, node.name.rpartition(".")[2]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            refs.extend((node.lineno, part) for part in node.value.split("."))
    return refs


def unreferenced(modules, corpus):
    """Labels of the definitions in ``modules`` that nothing in ``corpus`` references."""
    references = {}
    for path in corpus:
        for line, name in _references(path):
            references.setdefault(name, []).append((path, line))
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, name, first, last in _definitions(tree):
            if not any(ref != path or not first <= line <= last for ref, line in references.get(name, ())):
                unused.append(f"{path.stem}.{label}")
    return unused


def test_every_definition_is_referenced():
    modules = sorted((ROOT / "src" / "omega_lie").glob("*.py"))
    corpus = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert unreferenced(modules, corpus + [ROOT / "README.md"]) == []


def test_guard_catches_an_unreferenced_definition(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "LIMIT = 3\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = used()\n"
        "    def shown(self):\n        return self.size\n"
        "    def hidden(self):\n        return 0\n"
    )
    readme = tmp_path / "README.md"
    readme.write_text("Call `Box().shown()`; hidden is prose, not code.\n")
    assert unreferenced([module], [module, readme]) == ["probe.recursive", "probe.Box.hidden"]


PACKAGE_NAME = re.compile(r"\bomega_lie(?:\.[A-Za-z_][A-Za-z0-9_]*){2,}")


def unresolved_package_names(text):
    """``(found, missing)``: the dotted ``omega_lie.<module>.<name>`` in the code spans of
    ``text``, and those among them that do not resolve to a module attribute."""
    found = sorted({name for span in _code_spans(text) for name in PACKAGE_NAME.findall(span)})
    missing = []
    for dotted in found:
        package, module, *attrs = dotted.split(".")
        try:
            obj = importlib.import_module(f"{package}.{module}")
        except ImportError:
            missing.append(dotted)
            continue
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(dotted)
                break
            obj = getattr(obj, attr)
    return found, missing


def test_readme_names_resolve():
    found, missing = unresolved_package_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(found) >= 9  # the pattern still matches how the README cites names
    assert missing == []


def test_guard_catches_a_readme_name_that_does_not_resolve():
    text = (
        "Use `omega_lie.linalg.frac` and `omega_lie.linalg.SubspaceBasis.rank`, not\n"
        "`omega_lie.linalg.rref` or `omega_lie.nowhere.thing`; omega_lie.linalg.gone is prose.\n"
    )
    found, missing = unresolved_package_names(text)
    assert len(found) == 4
    assert missing == ["omega_lie.linalg.rref", "omega_lie.nowhere.thing"]


SOURCES = sorted((ROOT / "src" / "omega_lie").glob("*.py"))
READERS = {"open", "json.load", "json.loads"}


def _called(func):
    """``name`` or ``module.name`` of a call's target, or None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _referenced(node):
    """The name a ``Name`` node loads or an ``Attribute`` node reads, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def names_in(paths, targets, name_of):
    """``(module.function, line, name)`` of each node for which ``name_of`` gives a name in ``targets``."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            name = name_of(child)
            if name in targets:
                hits.append((scope, child.lineno, name))
            visit(child, scope)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return hits


def calls_to(paths, targets):
    """``(module.function, line, call)`` of each call whose target is named in ``targets``."""
    return names_in(paths, targets, lambda node: _called(node.func) if isinstance(node, ast.Call) else None)


def inside(hits, scopes):
    """The hits in one of ``scopes`` or in a function nested in it."""
    return [hit for hit in hits if any(hit[0] == scope or hit[0].startswith(scope + ".") for scope in scopes)]


def resolve(dotted):
    """The object ``omega_lie.<module>.<attr>...`` names; a rename must not leave a guard checking nothing."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"omega_lie.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_one_function_reads_files():
    hits = calls_to(SOURCES, READERS)
    assert {scope for scope, _, _ in hits} == {"cli._load_json_file"}


def test_guard_catches_a_second_reader(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import json, os\n"
        "def _load_json_file(path):\n    with open(path) as h:\n        return json.load(h)\n"
        "class Doc:\n    def parse(self, text):\n        return json.loads(text)\n"
        "def quiet():\n    return os.open(os.devnull, os.O_WRONLY)\n"
    )
    assert calls_to([module], READERS) == [
        ("probe._load_json_file", 3, "open"),
        ("probe._load_json_file", 4, "json.load"),
        ("probe.Doc.parse", 7, "json.loads"),
    ]


CONVERTERS = {"vector", "frac", "linalg.vector", "linalg.frac"}
EVALUATORS = (
    "linalg._bilinear",
    "linalg._dense",
    "algebra._tensor_support",
    "linalg._entries",
    "linalg._exact",
    "algebra.OmegaAlgebra.omega_form",
    "linalg.Matrix.apply",
    "local._images",
)


def converting_evaluators(paths, evaluators):
    """``(scope, line, call)`` of each conversion call inside one of ``evaluators`` or a function nested in it."""
    return inside(calls_to(paths, CONVERTERS), evaluators)


def test_evaluation_does_not_convert():
    for dotted in EVALUATORS:
        resolve(dotted)
    assert converting_evaluators(SOURCES, EVALUATORS) == []


def test_guard_catches_a_converting_evaluator(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from linalg import frac, vector\n"
        "def _images(vectors, x):\n    return [vector(v) for v in vectors]\n"
        "class Matrix:\n"
        "    def apply(self, x):\n        def scale(v):\n            return frac(v)\n        return scale(x)\n"
        "    def from_rows(self, data):\n        return vector(data)\n"
    )
    assert converting_evaluators([module], ("probe._images", "probe.Matrix.apply")) == [
        ("probe._images", 3, "vector"),
        ("probe.Matrix.apply.scale", 7, "frac"),
    ]


ROW_ASSEMBLY = {"_rows", "_tables", "_kernel"}
RESIDUAL_CHECKER = (
    "solvers._plans",
    "solvers.defects",
    "solvers.map_defects",
    "solvers.tensor_defects",
)


def row_assembly_in_checker(paths, checker):
    """``(scope, line, name)`` of each reference to row assembly inside the residual checker."""
    return inside(names_in(paths, ROW_ASSEMBLY, _referenced), checker)


def test_residual_checker_shares_nothing_with_row_assembly():
    for dotted in RESIDUAL_CHECKER + tuple(f"solvers.{name}" for name in sorted(ROW_ASSEMBLY)):
        resolve(dotted)
    assert row_assembly_in_checker(SOURCES, RESIDUAL_CHECKER) == []


def test_guard_catches_a_checker_that_reads_rows(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import solvers\n"
        "def _defects(algebra):\n    def step():\n        return solvers._tables(algebra)\n    return _rows(step())\n"
        "def solve(algebra):\n    return _kernel(_rows(algebra))\n"
    )
    assert row_assembly_in_checker([module], ("probe._defects",)) == [
        ("probe._defects.step", 4, "_tables"),
        ("probe._defects", 5, "_rows"),
    ]


FRACTION_PATH = {
    "Fraction",
    "frac",
    "vector",
    "ZERO",
    "ONE",
    "SubspaceBasis",
    "evaluation_subspace",
}
INTEGER_CORE = (
    "linalg._Echelon.insert",
    "linalg._reduce",
    "linalg._eliminate",
    "local._escape",
    "local._walk",
    "local._images",
    "local._span_at",
    "local._point_rows",
)


def fractions_in_core(paths, core):
    """``(scope, line, name)`` of each reference to the rational path inside the integer core."""
    return inside(names_in(paths, FRACTION_PATH, _referenced), core)


def test_elimination_and_point_scan_stay_on_integers():
    for dotted in INTEGER_CORE:
        resolve(dotted)
    assert fractions_in_core(SOURCES, INTEGER_CORE) == []


def test_guard_catches_a_core_back_on_fractions(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from fractions import Fraction\n"
        "def _escape(space, points):\n"
        "    for x in points:\n"
        "        if not evaluation_subspace(space, x).contains(()):\n"
        "            return x\n"
        "class _Echelon:\n"
        "    def insert(self, row):\n        return self.reduce({0: Fraction(row[0])})\n"
        "    def reduce(self, row):\n        return SubspaceBasis(1, ()).contains(row)\n"
        "    def span(self):\n        return [Fraction(1)]\n"
        "def _closure(x):\n    return Fraction(x)\n"
        "def _span_at(vectors, x, n):\n"
        "    span = _Echelon(n)\n"
        "    for image in _images(vectors, x, n):\n"
        "        span.insert({k: Fraction(v) for k, v in image.items()})\n"
        "    return span\n"
    )
    core = ("probe._escape", "probe._Echelon.insert", "probe._Echelon.reduce", "probe._span_at")
    assert fractions_in_core([module], core) == [
        ("probe._escape", 4, "evaluation_subspace"),
        ("probe._Echelon.insert", 8, "Fraction"),
        ("probe._Echelon.reduce", 10, "SubspaceBasis"),
        ("probe._span_at", 18, "Fraction"),
    ]


SPAN_BUILDER = {"_span_at"}


def span_builders(paths):
    """``(scope, line, name)`` of each reference to ``_span_at``, the builder of ``W(x)``."""
    return names_in(paths, SPAN_BUILDER, _referenced)


def test_one_walk_builds_every_span():
    resolve("local._span_at")
    resolve("local._walk")
    assert {scope for scope, _, _ in span_builders(SOURCES)} == {"local._walk"}


def test_guard_catches_a_second_span_builder(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import local\n"
        "def _walk(rows, points, n):\n    for x in points:\n        yield x, _span_at(rows, x, n)\n"
        "def kernel_rank(space, e):\n    return space.rank - local._span_at(space.rows, e, 4).rank\n"
        "class Report:\n    def scan(self, points):\n        return map(_span_at, points)\n"
    )
    assert span_builders([module]) == [
        ("probe._walk", 4, "_span_at"),
        ("probe.kernel_rank", 6, "_span_at"),
        ("probe.Report.scan", 9, "_span_at"),
    ]


def _method_called(node):
    """The method name of a call ``<expression>.name(...)``, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def insert_calls(paths):
    """``(scope, line, "insert")`` of each call of a method named ``insert``."""
    return names_in(paths, {"insert"}, _method_called)


def _stored_attribute(node):
    """The attribute name an ``<expression>.name = ...`` (or augmented) assignment stores to, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        return node.attr
    return None


def rows_assignments(paths):
    """``(scope, line, "rows")`` of each assignment to an attribute named ``rows``."""
    return names_in(paths, {"rows"}, _stored_attribute)


def test_every_echelon_is_built_by_its_constructor():
    for dotted in ("linalg._Echelon.__init__", "linalg._ModEchelon.__init__", "linalg._ModEchelon.insert", "linalg.nullspace_of_sparse_rows"):
        resolve(dotted)
    assert [scope for scope, _, _ in insert_calls(SOURCES)] == ["linalg._Echelon.__init__", "linalg.nullspace_of_sparse_rows"]
    assert [scope for scope, _, _ in rows_assignments(SOURCES)] == ["linalg._Echelon.__init__", "linalg._ModEchelon.__init__"]


def test_guard_catches_a_second_insert_loop(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class _Echelon:\n"
        "    def __init__(self, ambient, rows=()):\n        for row in rows:\n            self.insert(row)\n"
        "def _span_at(images, n):\n    span = _Echelon(n)\n    for image in images:\n        span.insert(image)\n    return span\n"
        "def nullspace_of_sparse_rows(ambient, rows):\n    for row in rows:\n        mod.insert(row)\n"
        "    return _Echelon(ambient, rows), sorted(rows).index(0)\n"
    )
    assert insert_calls([module]) == [
        ("probe._Echelon.__init__", 4, "insert"),
        ("probe._span_at", 8, "insert"),
        ("probe.nullspace_of_sparse_rows", 12, "insert"),
    ]


def test_guard_catches_rows_assigned_by_hand(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class _Echelon:\n"
        "    def __init__(self, ambient, rows=()):\n        self.rows = {}\n"
        "def _solve(base, n):\n"
        "    blocks = _Echelon(n**3)  # the slice rows shifted into each block are a reduced echelon already: set, not inserted\n"
        "    blocks.rows = {i * n * n + p: {i * n * n + c: v for c, v in row.items()} for i in range(n) for p, row in base.rows.items()}\n"
        "    return blocks.span()\n"
        "def _merge(ech, other):\n    ech.rows |= other.rows\n"
    )
    assert rows_assignments([module]) == [
        ("probe._Echelon.__init__", 3, "rows"),
        ("probe._solve", 6, "rows"),
        ("probe._merge", 9, "rows"),
    ]


SOLVER_WRAPPERS = {
    "derivations",
    "half_derivations",
    "omega_derivations",
    "centroid",
    "commuting_maps",
    "anticommuting_maps",
    "biderivations",
    "symmetric_biderivations",
    "skew_biderivations",
    "omega_biderivations",
}


def _imported_or_referenced(node):
    """The name an import binds, or the name a ``Name`` or ``Attribute`` node reads."""
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return _referenced(node)


def wrapper_names(paths):
    """``(scope, line, name)`` of each import of or reference to a one-line solver wrapper."""
    return names_in(paths, SOLVER_WRAPPERS, _imported_or_referenced)


def test_verification_solves_through_the_session():
    for name in sorted(SOLVER_WRAPPERS) + ["Session.solve"]:
        resolve(f"solvers.{name}")
    assert wrapper_names([ROOT / "src" / "omega_lie" / "verification.py"]) == []


def test_guard_catches_a_criterion_that_bypasses_the_session(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from solvers import skew_biderivations\n"
        "import solvers\n"
        "def criterion_3(session, alg):\n    return session.solve(alg, 'skew'), skew_biderivations(alg)\n"
        "def criterion_9(session, alg):\n    return solvers.omega_biderivations(alg)\n"
    )
    assert wrapper_names([module]) == [
        ("probe", 1, "skew_biderivations"),
        ("probe.criterion_3", 4, "skew_biderivations"),
        ("probe.criterion_9", 6, "omega_biderivations"),
    ]


BILINEAR_KERNEL = {"_bilinear"}
KERNEL_CALLERS = {
    "algebra.OmegaAlgebra.bracket",
    "algebra.OmegaAlgebra.omega_form",
    "algebra.BilinearMap.apply",
    "linalg.Matrix.apply",
    "solvers.defects",
}


def kernel_callers(paths):
    """``(scope, line, name)`` of each reference to ``_bilinear``, the one bilinear kernel."""
    return names_in(paths, BILINEAR_KERNEL, _referenced)


def test_one_kernel_evaluates_every_bilinear_map():
    for dotted in sorted(KERNEL_CALLERS) + ["linalg._bilinear"]:
        resolve(dotted)
    assert {scope for scope, _, _ in kernel_callers(SOURCES)} == KERNEL_CALLERS


def test_guard_catches_a_second_kernel_caller(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import linalg\n"
        "class OmegaAlgebra:\n    def bracket(self, x, y):\n        return _bilinear(self._support, x, y)\n"
        "def _defects(support, values):\n    return [linalg._bilinear(support, a, b) for a, b in values]\n"
        "def _respects_bracket(phi, x, y):\n    return _bilinear(phi, x, y)\n"
    )
    assert kernel_callers([module]) == [
        ("probe.OmegaAlgebra.bracket", 4, "_bilinear"),
        ("probe._defects", 6, "_bilinear"),
        ("probe._respects_bracket", 8, "_bilinear"),
    ]


OUTSIDE_LINALG = [path for path in SOURCES if path.stem != "linalg"]
DENSE_ANSWERS = {"solvers.SolutionSpace.elements"}
DENSE_NAMES = {"basis", "maps", "tensors", "elements"}


def dense_basis_reads(paths):
    """``(scope, line, "basis")`` of each read of an attribute named ``basis``, the dense view of a subspace."""
    return names_in(paths, {"basis"}, lambda node: node.attr if isinstance(node, ast.Attribute) else None)


def test_dense_bases_are_read_only_for_dense_answers():
    for dotted in sorted(DENSE_ANSWERS) + ["linalg.SubspaceBasis.basis"]:
        resolve(dotted)
    assert {scope for scope, _, _ in dense_basis_reads(OUTSIDE_LINALG)} == DENSE_ANSWERS
    cli = [path for path in SOURCES if path.stem == "cli"]
    assert cli and names_in(cli, DENSE_NAMES, _referenced) == []


def test_guard_catches_a_dense_basis_query(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class SolutionSpace:\n    def elements(self):\n        return [unvectorize(r) for r in self.space.basis]\n"
        "def _walk(space, points):\n    rows = [_integral(_to_sparse(g)) for g in space.basis]\n    return rows, points\n"
        "def recheck(result):\n    return [r for r in result.candidate.basis if r], result.base.rows\n"
    )
    assert dense_basis_reads([module]) == [
        ("probe.SolutionSpace.elements", 3, "basis"),
        ("probe._walk", 5, "basis"),
        ("probe.recheck", 8, "basis"),
    ]
    printer = tmp_path / "cli.py"
    printer.write_text("def cmd_solve(space):\n    basis = [m.to_strings() for m in space.maps()]\n    return basis, space.elements()\n")
    assert names_in([printer], DENSE_NAMES, _referenced) == [
        ("cli.cmd_solve", 2, "basis"),
        ("cli.cmd_solve", 2, "maps"),
        ("cli.cmd_solve", 3, "basis"),
        ("cli.cmd_solve", 3, "elements"),
    ]


SCALERS = {"_integral", "linalg._integral"}
SCALED_INPUTS = {"local._walk", "local.is_local_member"}


def scaled_stored_bases(paths, allowed):
    """``(scope, line, call)`` of each ``_integral`` call outside the ``allowed`` scopes or in a function that reads a dense basis."""
    readers = {scope for scope, _, _ in dense_basis_reads(paths)}
    calls = calls_to(paths, SCALERS)
    return [hit for hit in calls if hit[0] not in allowed or hit in inside(calls, readers)]


def test_no_stored_basis_is_scaled_outside_linalg():
    for dotted in sorted(SCALED_INPUTS) + ["linalg._integral"]:
        resolve(dotted)
    assert {scope for scope, _, _ in calls_to(OUTSIDE_LINALG, SCALERS)} == SCALED_INPUTS
    assert scaled_stored_bases(OUTSIDE_LINALG, SCALED_INPUTS) == []


def test_guard_catches_a_scaled_stored_basis(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import linalg\n"
        "def _walk(space, points):\n    rows = [_integral(_to_sparse(g)) for g in space.basis]\n"
        "    return rows, [_integral(_to_sparse(x)) for x in points]\n"
        "def is_local_member(space, candidate):\n    return _integral(_to_sparse(candidate))\n"
        "def _escape(space, vectors):\n    return [linalg._integral(v) for v in vectors]\n"
    )
    assert scaled_stored_bases([module], {"probe._walk", "probe.is_local_member"}) == [
        ("probe._walk", 3, "_integral"),
        ("probe._walk", 4, "_integral"),
        ("probe._escape", 8, "linalg._integral"),
    ]


LINALG = [path for path in SOURCES if path.stem == "linalg"]
RATIONAL_ENTRIES = {
    "linalg.nullspace_of_sparse_rows",
    "linalg._entering",
    "linalg.SubspaceBasis.__init__",
    "linalg.SubspaceBasis.reduced_from_last",
}


def test_linalg_scales_only_where_rational_rows_enter():
    for dotted in sorted(RATIONAL_ENTRIES):
        resolve(dotted)
    assert {scope for scope, _, _ in calls_to(LINALG, SCALERS)} == RATIONAL_ENTRIES
    assert scaled_stored_bases(LINALG, RATIONAL_ENTRIES) == []


def test_guard_catches_a_composed_row_scaled_before_the_solve(tmp_path):
    module = tmp_path / "linalg.py"
    module.write_text(
        "def nullspace_of_sparse_rows(ambient, rows):\n    return [_integral(row) for row in rows]\n"
        "class SubspaceBasis:\n    def restricted(self, rows):\n        by_column = _column_index(self.rows.values())\n\n"
        "        def composed():\n            for row in rows:\n"
        "                yield {i: v for i, v in _dots(_integral(row), by_column).items() if v}\n\n"
        "        return nullspace_of_sparse_rows(self.rank, composed())\n"
    )
    assert scaled_stored_bases([module], {"linalg.nullspace_of_sparse_rows"}) == [
        ("linalg.SubspaceBasis.restricted.composed", 9, "_integral"),
    ]


def _half(node):
    """``"Fraction(1, 2)"`` for a call that builds one half as a ``Fraction``, else None."""
    if isinstance(node, ast.Call) and _called(node.func) in ("Fraction", "fractions.Fraction"):
        if [getattr(a, "value", None) for a in node.args] == [1, 2]:
            return "Fraction(1, 2)"
    return None


def halves(paths):
    """``(scope, line, "Fraction(1, 2)")`` of each call that builds one half."""
    return names_in(paths, {"Fraction(1, 2)"}, _half)


def test_one_half_is_built_only_by_the_kind_table():
    assert resolve("solvers.KINDS")["half_derivation"].fixed == {"delta": 0.5}
    tree = ast.parse((ROOT / "src" / "omega_lie" / "solvers.py").read_text(encoding="utf-8"))
    table = next(node for node in tree.body if isinstance(node, ast.Assign) and _referenced(node.targets[0]) == "KINDS")
    [(scope, line, _)] = halves(SOURCES)
    assert scope == "solvers" and table.lineno <= line <= table.end_lineno


def test_guard_catches_a_second_half(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import fractions\n"
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2)\n"
        "def criterion_5(session, alg):\n    return session.solve(alg, 'delta_derivation', delta=fractions.Fraction(1, 2))\n"
        "def third():\n    return Fraction(1, 3), Fraction(2, 1), Fraction(1)\n"
    )
    assert halves([module]) == [
        ("probe", 3, "Fraction(1, 2)"),
        ("probe.criterion_5", 5, "Fraction(1, 2)"),
    ]


BENCH_ONLY = SOLVER_WRAPPERS | {"map_defects", "tensor_defects", "maps", "tensors"}


def _used(node):
    """The name an import binds, a ``Name`` node loads or an ``Attribute`` node reads.

    A name that is assigned, such as the alias ``maps = tensors = elements``, is not a use.
    """
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
        return None
    return _imported_or_referenced(node)


def bench_only_uses(paths):
    """``(scope, line, name)`` of each use of a name that only the benchmark may call."""
    return names_in(paths, BENCH_ONLY, _used)


def test_the_package_uses_no_bench_only_name():
    for name in sorted(SOLVER_WRAPPERS) + ["map_defects", "tensor_defects"]:
        resolve(f"solvers.{name}")
    space = resolve("solvers.SolutionSpace")
    assert space.maps is space.tensors is space.elements  # the alias the bench reads
    assert bench_only_uses(SOURCES) == []


def test_guard_catches_a_bench_only_name(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from solvers import derivations, solve\n"
        "import solvers\n"
        "class SolutionSpace:\n    def elements(self):\n        return ()\n    maps = tensors = elements\n"
        "def criterion_11(alg, space):\n    return solvers.map_defects(alg, 'derivation', space.tensors()[0])\n"
        "def show(space):\n    return [m for m in space.maps], solve(space.algebra, 'derivation')\n"
    )
    assert bench_only_uses([module]) == [
        ("probe", 1, "derivations"),
        ("probe.criterion_11", 8, "map_defects"),
        ("probe.criterion_11", 8, "tensors"),
        ("probe.show", 10, "maps"),
    ]


DENSE_TABLES = {"structure", "omega"}


def dense_table_reads(paths):
    """``(scope, line, name)`` of each read of an attribute named ``structure`` or ``omega``."""
    return names_in(paths, DENSE_TABLES, lambda node: node.attr if isinstance(node, ast.Attribute) else None)


def test_the_solver_reads_the_cached_supports_only():
    for dotted in ("algebra.OmegaAlgebra._support", "algebra.OmegaAlgebra._form_support", "solvers._tables"):
        resolve(dotted)
    solvers = [path for path in SOURCES if path.stem == "solvers"]
    assert solvers and dense_table_reads(solvers) == []


def test_guard_catches_a_dense_table_read(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def _tables(algebra):\n    c, om = algebra.structure, algebra.omega\n    return c, om\n"
        "def _defects(algebra):\n    def step():\n        return algebra._support, algebra.omega_is_zero\n"
        "    return algebra.structure[0], step\n"
    )
    assert dense_table_reads([module]) == [
        ("probe._tables", 2, "structure"),
        ("probe._tables", 2, "omega"),
        ("probe._defects", 7, "structure"),
    ]


KERNEL_READERS = {"linalg.nullspace_of_sparse_rows", "local._point_rows"}


def kernel_calls(paths):
    """``(scope, line, "kernel")`` of each call of a method named ``kernel``."""
    return names_in(paths, {"kernel"}, _method_called)


def test_kernels_are_read_only_where_a_system_is_solved():
    for dotted in sorted(KERNEL_READERS) + ["linalg._Echelon.kernel"]:
        resolve(dotted)
    assert {scope for scope, _, _ in kernel_calls(SOURCES)} == KERNEL_READERS


def test_guard_catches_an_annihilator_composed_into_a_solve(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "def nullspace_of_sparse_rows(ambient, rows):\n    return mod.kernel() or _Echelon(ambient, rows).kernel()\n"
        "def _solve(base, n):\n"
        "    annihilator = _Echelon(n * n, base.rows.values()).kernel()\n"
        "    return base.restricted(annihilator), kernel(base)\n"
    )
    assert kernel_calls([module]) == [
        ("probe.nullspace_of_sparse_rows", 2, "kernel"),
        ("probe.nullspace_of_sparse_rows", 2, "kernel"),
        ("probe._solve", 4, "kernel"),
    ]


def kernel_methods(paths):
    """``(module.Class, line)`` of each method named ``kernel``, that is each ``def kernel`` in a class body."""
    return [
        (f"{path.stem}.{cls.name}", item.lineno)
        for path in paths
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "kernel"
    ]


def test_one_class_extracts_kernels():
    resolve("linalg._Echelon.kernel")
    assert [scope for scope, _ in kernel_methods(SOURCES)] == ["linalg._Echelon"]


def test_guard_catches_a_second_kernel_extraction(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "class _Echelon:\n    def kernel(self):\n        return []\n"
        "class _ModEchelon:\n    def insert(self, row):\n        def kernel():\n            return row\n        return kernel\n"
        "    def kernel(self):\n        return None\n"
        "def kernel(rows):\n    return rows\n"
    )
    assert kernel_methods([module]) == [("probe._Echelon", 2), ("probe._ModEchelon", 9)]


STDLIB_OR_OWN = sys.stdlib_module_names | {omega_lie.__name__}


def foreign_imports(paths):
    """``(module, line, name)`` of each import, at any depth, of a module that is neither the standard library's nor the package's."""
    hits = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import is the package's own
                names = [node.module]
            else:
                continue
            hits += [(path.stem, node.lineno, name) for name in names if name.partition(".")[0] not in STDLIB_OR_OWN]
    return hits


def test_the_package_imports_only_the_standard_library():
    assert "fractions" in STDLIB_OR_OWN and "numpy" not in STDLIB_OR_OWN
    assert foreign_imports(SOURCES) == []


def test_guard_catches_a_third_party_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from fractions import Fraction\n"
        "from . import linalg\n"
        "from omega_lie.linalg import frac\n"
        "from sympy.matrices import Matrix\n"
        "def load(path):\n    import yaml\n    return yaml.safe_load(path)\n"
    )
    assert foreign_imports([module]) == [
        ("probe", 2, "numpy"),
        ("probe", 6, "sympy.matrices"),
        ("probe", 8, "yaml"),
    ]
