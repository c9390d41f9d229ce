"""Command-line front end.

Subcommands:

* ``check <alg>``                      axiom report;
* ``solve <kind> <alg>``               solution basis and rank, ``kind`` one of
  der, wder, cent, cmap, acmap, halfder, dder (with ``--delta p/q``),
  bider, bider-sym, bider-skew, bider-omega;
* ``local der|halfder <alg>``          sampled local closure with certificate;
* ``local map <alg> --map FILE``       membership verdict for one matrix;
* ``local family <alg> --family FILE`` affine-family closure;
* ``twolocal der|halfder <alg>``       separating-vector rigidity report;
* ``catalog list|show KEY|export KEY`` catalog access;
* ``verify-paper``                     run the whole verification suite.

An algebra argument is either ``@<catalog-key>[?alpha=p/q]`` or a path to an
algebra file (JSON; see omega_lie.algebra for the document shape).  Output is
human-readable text by default or a JSON report with ``--format json``; all
rationals are rendered as ``"p/q"`` strings and indices are 1-based.

Every file, algebra, map or family, goes through one loader,
``_load_json_file``: a file that cannot be read or decoded as JSON exits 3.
Every report goes through one emitter, ``_emit``.

Exit codes: 0 success, 1 verification failures, 2 usage errors (among them
``--delta``, ``--map`` or ``--family`` given to a command that does not read
it), 3 file or parse errors, 141 (128 + SIGPIPE) when the reader of the output
closes early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, Optional, Sequence

from . import catalog, verification
from .algebra import (
    AlgebraFormatError,
    OmegaAlgebra,
    check_axioms,
    content_hash,
    dumps,
    from_document,
    to_document,
)
from .catalog import ExcludedParameterError, UnknownAlgebraError
from .linalg import Matrix, format_scalar, frac
from .local import (
    AffineCondition,
    AffineFamily,
    SamplePlan,
    affine_local_closure,
    is_local_member,
    local_closure,
    two_local_report,
)
from .solvers import KINDS, solve

USAGE_ERROR = 2
FILE_ERROR = 3

# label -> solver kind; ``dder`` takes its delta from ``--delta``
SOLVE_KINDS = {
    "der": "derivation",
    "wder": "omega_derivation",
    "cent": "centroid",
    "cmap": "commuting",
    "acmap": "anticommuting",
    "halfder": "half_derivation",
    "dder": "delta_derivation",
    "bider": "biderivation",
    "bider-sym": "symmetric",
    "bider-skew": "skew",
    "bider-omega": "omega_biderivation",
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_algebra_arg(arg: str) -> tuple[OmegaAlgebra, dict]:
    """Resolve ``@key[?alpha=p/q]`` or a file path to an algebra and its report identity."""
    if arg.startswith("@"):
        key, _, query = arg[1:].partition("?")
        params = {}
        for piece in query.split("&"):
            if not piece:
                continue
            name, sep, value = piece.partition("=")
            if not sep:
                raise CliError(f"bad parameter {piece!r} in {arg!r} (expected name=p/q)", USAGE_ERROR)
            if name in params:
                raise CliError(f"repeated parameter {name!r} in {arg!r}", USAGE_ERROR)
            try:
                params[name] = frac(value)
            except (ValueError, ZeroDivisionError, TypeError):
                raise CliError(f"bad rational {value!r} in {arg!r}", USAGE_ERROR) from None
        try:
            algebra = catalog.get(key, params or None)
        except UnknownAlgebraError as exc:
            raise CliError(str(exc.args[0]), USAGE_ERROR) from None
        except ExcludedParameterError as exc:
            raise CliError(str(exc), USAGE_ERROR) from None
        origin = {"key": key, "params": {k: format_scalar(v) for k, v in params.items()}}
    else:
        try:
            algebra = from_document(_load_json_file(arg, "algebra"))
        except AlgebraFormatError as exc:
            raise CliError(f"cannot parse algebra file {arg!r}: {exc}", FILE_ERROR) from None
        origin = {"path": arg}
    return algebra, {"name": algebra.name, "dim": algebra.dim, "hash": content_hash(algebra), **origin}


def _load_json_file(path: str, what: str):
    """The decoded JSON document in ``path``; the one place the package opens a file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path!r}: {exc}", FILE_ERROR) from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers invalid JSON, bytes that are not UTF-8 and an integer
        # literal over Python's digit limit; RecursionError, arrays or objects nested too deep
        raise CliError(f"cannot parse {what} file {path!r}: {exc}", FILE_ERROR) from None


def _parse_matrix(data, n: int, what: str) -> Matrix:
    if isinstance(data, dict) and "matrix" in data:
        data = data["matrix"]
    if not isinstance(data, list) or len(data) != n or any(
        not isinstance(row, list) or len(row) != n for row in data
    ):
        raise CliError(f"{what}: expected an {n}x{n} matrix of rationals", FILE_ERROR)
    try:
        return Matrix.from_rows(data, ncols=n)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"{what}: {exc}", FILE_ERROR) from None


def _parse_family(doc, n: int, path: str) -> AffineFamily:
    where = f"family file {path!r}"
    if not isinstance(doc, dict) or "base" not in doc:
        raise CliError(f"{where}: expected an object with 'base'", FILE_ERROR)
    lists = {field: doc.get(field, []) for field in ("directions", "parameters", "open_conditions")}
    for field, value in lists.items():
        if not isinstance(value, list):
            raise CliError(f"{where}: '{field}' must be a list, got {value!r}", FILE_ERROR)
    base = _parse_matrix(doc["base"], n, f"{where} base")
    directions = tuple(
        _parse_matrix(d, n, f"{where} direction {idx+1}") for idx, d in enumerate(lists["directions"])
    )
    conditions = []
    for item in lists["open_conditions"]:
        try:
            conditions.append(
                AffineCondition.make(item.get("constant", 0), item.get("coeffs", {}))
            )
        except (ValueError, TypeError, ZeroDivisionError, AttributeError) as exc:
            raise CliError(f"{where}: bad open condition {item!r}: {exc}", FILE_ERROR) from None
    try:
        return AffineFamily(
            base=base,
            directions=directions,
            open_conditions=tuple(conditions),
            parameter_names=tuple(lists["parameters"]),
        )
    except ValueError as exc:
        raise CliError(f"{where}: {exc}", FILE_ERROR) from None


def _emit(args, lines: Iterable[str], result, **fields) -> None:
    """Print ``lines``, or with ``--format json`` the report ``{"command", "result", **fields}``."""
    if args.format == "json":
        report = {"command": " ".join(args._argv), "result": result, **fields}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matrix_lines(rows: Sequence[Sequence[str]]) -> list[str]:
    return ["    " + "  ".join(f"{s:>6s}" for s in row) for row in rows]


def cmd_check(args) -> int:
    algebra, identity = _parse_algebra_arg(args.algebra)
    report = check_axioms(algebra)
    payload = {
        "passed": report.passed,
        "bracket_antisymmetric": report.bracket_antisymmetric,
        "omega_skew": report.omega_skew,
        "omega_is_zero": report.omega_is_zero,
        "failing_triples": [list(t) for t in report.failing_triples()],
    }
    lines = [
        f"algebra {algebra.name} (dim {algebra.dim}, hash {identity['hash']})",
        f"  bracket antisymmetric: {report.bracket_antisymmetric}",
        f"  omega skew-symmetric:  {report.omega_skew}",
        f"  weighted Jacobi holds: {report.jacobi_holds}",
        f"  omega is zero (plain Lie algebra): {report.omega_is_zero}",
        f"  axioms passed: {report.passed}",
    ]
    if not report.jacobi_holds:
        lines.append(f"  failing triples: {report.failing_triples()}")
    _emit(args, lines, payload, algebra=identity)
    return 0


def cmd_solve(args) -> int:
    if args.delta is not None and args.kind != "dder":
        raise CliError(f"--delta applies only to solve dder, not solve {args.kind}", USAGE_ERROR)
    algebra, identity = _parse_algebra_arg(args.algebra)
    kind, delta = SOLVE_KINDS[args.kind], None
    if args.kind == "dder":
        if args.delta is None:
            raise CliError("solve dder requires --delta p/q", USAGE_ERROR)
        try:
            delta = frac(args.delta)
        except (ValueError, ZeroDivisionError, TypeError):
            raise CliError(f"bad --delta value {args.delta!r}", USAGE_ERROR) from None
    space = solve(algebra, kind, delta=delta).space
    n, arity = algebra.dim, KINDS[kind].arity

    def element(pivot):
        entries = [(c, format_scalar(v)) for c, v in space.reduced_row(pivot)]
        if arity == 1:  # the n x n grid, "0" where the row has no entry
            cells = ["0"] * (n * n)
            for c, text in entries:
                cells[c] = text
            return [cells[i : i + n] for i in range(0, n * n, n)]
        # column (i*n + j)*n + k holds d[i][j][k], listed when nonzero
        return {f"{c // n // n + 1},{c // n % n + 1},{c % n + 1}": text for c, text in entries}

    def lines():  # read by _emit only when text is printed, one element at a time
        yield f"{args.kind} space of {algebra.name}: rank {space.rank}"
        for idx, pivot in enumerate(space.rows, 1):
            if arity == 1:
                yield f"  basis matrix {idx}:"
                yield from _matrix_lines(element(pivot))
            else:
                yield f"  basis tensor {idx} (nonzero d[i][j][k]):"
                yield from (f"    d[{key}] = {value}" for key, value in element(pivot).items())

    key = identity.get("key")
    expected = (catalog.expected(key).as_dict() or None) if key else None
    payload = None
    if args.format == "json":  # the whole basis is built only for the JSON report
        payload = {"kind": args.kind, "rank": space.rank, "basis": [element(pivot) for pivot in space.rows]}
    _emit(args, lines(), payload, algebra=identity, expected=expected)
    return 0


def cmd_local(args) -> int:
    for option, mode in (("map", "map"), ("family", "family"), ("space", "map")):
        if getattr(args, option) is not None and args.mode != mode:
            raise CliError(f"--{option} applies only to local {mode}, not local {args.mode}", USAGE_ERROR)
    algebra, identity = _parse_algebra_arg(args.algebra)
    plan = SamplePlan(seed=args.seed)
    if args.mode in ("der", "halfder"):
        space = solve(algebra, SOLVE_KINDS[args.mode])
        res = local_closure(algebra, space, plan)
        payload = {
            "mode": args.mode,
            "base_rank": space.rank,
            "candidate_rank": res.candidate.rank,
            "certified": res.certified,
            "samples": len(res.samples_used),
            "witness": res.witness.to_strings() if res.witness is not None else None,
        }
        lines = [
            f"local closure of the {args.mode} space of {algebra.name}:",
            f"  base rank {space.rank}, sampled candidate rank {res.candidate.rank}, samples {len(res.samples_used)}",
            f"  certified (candidate == base, so every local map is a member): {res.certified}",
        ]
        if res.witness is not None:
            lines.append("  witness matrix satisfying all sampled constraints but outside the base:")
            lines.extend(_matrix_lines(res.witness.to_strings()))
            lines.append("  (one-sided: sampling only bounds the local set from above)")
    elif args.mode == "map":
        if not args.map:
            raise CliError("local map requires --map FILE", USAGE_ERROR)
        kind = args.space or "der"
        space = solve(algebra, SOLVE_KINDS[kind])
        candidate = _parse_matrix(_load_json_file(args.map, "map"), algebra.dim, f"map file {args.map!r}")
        verdict = is_local_member(algebra, space, candidate, plan)
        payload = {
            "mode": "map",
            "space": kind,
            "status": verdict.status,
            "witness_point": [format_scalar(v) for v in verdict.witness] if verdict.witness else None,
        }
        lines = [f"membership of the given matrix in local-{kind} of {algebra.name}: {verdict.status}"]
        if verdict.witness:
            lines.append(f"  witness point: ({', '.join(format_scalar(v) for v in verdict.witness)})")
    else:  # family
        if not args.family:
            raise CliError("local family requires --family FILE", USAGE_ERROR)
        family = _parse_family(_load_json_file(args.family, "family"), algebra.dim, args.family)
        res = affine_local_closure(algebra, family, plan)
        payload = {
            "mode": "family",
            "comparison": res.comparison,
            "matches_family_hull": res.matches_family_hull,
            "particular": res.particular.to_strings(),
            "direction_rank": res.directions.rank,
            "caveats": list(res.caveats),
        }
        lines = [
            f"affine local closure against the given family on {algebra.name}: {res.comparison}",
            f"  direction rank {res.directions.rank}",
            "  particular matrix:",
        ]
        lines.extend(_matrix_lines(res.particular.to_strings()))
        lines.extend(f"  caveat: {c}" for c in res.caveats)
    _emit(args, lines, payload, algebra=identity)
    return 0


def cmd_twolocal(args) -> int:
    algebra, identity = _parse_algebra_arg(args.algebra)
    plan = SamplePlan(seed=args.seed)
    space = solve(algebra, SOLVE_KINDS[args.space])
    report = two_local_report(algebra, space, plan)
    payload = {
        "space": args.space,
        "verdict": report.verdict,
        "separating_vector": [format_scalar(v) for v in report.certificate.point] if report.certificate else None,
        "min_kernel_rank": report.min_kernel_rank,
    }
    lines = [f"2-local analysis of the {args.space} space of {algebra.name}: {report.verdict}"]
    if report.certificate:
        point = ", ".join(format_scalar(v) for v in report.certificate.point)
        lines.append(f"  separating vector: ({point})")
        lines.append(f"  {report.certificate.conclusion}")
    else:
        lines.append(f"  minimal evaluation-kernel rank over the samples: {report.min_kernel_rank}")
    _emit(args, lines, payload, algebra=identity)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        if args.key is not None:
            raise CliError(f"catalog list takes no KEY, got {args.key!r}", USAGE_ERROR)
        rows = []
        for entry in catalog.list_entries():
            param = ""
            if entry.param is not None:
                excluded = ",".join(str(v) for v in entry.param.excluded) or "-"
                param = f"{entry.param.name} (excluded: {excluded}; default {entry.param.default})"
            rows.append({"key": entry.key, "dim": entry.dim, "parameter": param, "notes": entry.notes})
        lines = [f"{len(rows)} catalog entries:"]
        for row in rows:
            suffix = f"  [{row['parameter']}]" if row["parameter"] else ""
            lines.append(f"  {row['key']:14s} dim {row['dim']}{suffix}")
        _emit(args, lines, {"entries": rows, "count": len(rows)})
        return 0
    try:
        entry = catalog.entry(args.key)
    except UnknownAlgebraError as exc:
        raise CliError(str(exc.args[0]), USAGE_ERROR) from None
    algebra = entry.build(None)
    if args.action == "export":
        print(dumps(algebra))
        return 0
    doc = to_document(algebra)
    expected = entry.expected.as_dict() or None
    lines = [f"{entry.key}: {algebra.name} (dim {algebra.dim}, hash {content_hash(algebra)})"]
    for item in doc["brackets"]:
        terms = " + ".join(
            (f"{v}*e{k}" if v not in ("1",) else f"e{k}") for k, v in sorted(item["coeffs"].items())
        )
        lines.append(f"  [e{item['i']}, e{item['j']}] = {terms}")
    for item in doc["omega"]:
        lines.append(f"  omega(e{item['i']}, e{item['j']}) = {item['value']}")
    if expected:
        lines.append(f"  reference values: {expected}")
    if entry.notes:
        lines.append(f"  notes: {entry.notes}")
    _emit(args, lines, {"document": doc, "expected": expected, "notes": entry.notes})
    return 0


def cmd_verify(args) -> int:
    plan = SamplePlan(seed=args.seed)
    results = verification.run_all(plan)
    payload = [
        {
            "criterion": r.number,
            "title": r.title,
            "passed": r.passed,
            "details": list(r.details),
        }
        for r in results
    ]
    lines = []
    for r in results:
        lines.append(r.line())
        for detail in r.details:
            lines.append(f"    - {detail}")
    failures = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failures}/{len(results)} criteria passed"
        + ("" if not failures else f"; {failures} failed (documented discrepancies; see catalog notes)")
    )
    _emit(args, lines, {"criteria": payload, "failures": failures})
    return 1 if failures else 0


def seed(text: str) -> int:
    """A seed in Python integer syntax (``12``, ``0xC0FFEE``) that ``SamplePlan`` takes, so not negative.

    argparse names this function in its error.
    """
    return SamplePlan(seed=int(text, 0)).seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omega-lie",
        description="Exact structure-theory computations for finite-dimensional omega-Lie algebras.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output mode")
    parser.add_argument(
        "--seed",
        type=seed,
        default=SamplePlan().seed,
        help="seed for the deterministic sample plan (default 0xC0FFEE)",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="verify the defining axioms of an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="compute a solution space")
    p.add_argument("kind", choices=sorted(SOLVE_KINDS))
    p.add_argument("algebra")
    p.add_argument("--delta", help="weight for dder, as p/q")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("local", help="local membership analyses")
    p.add_argument("mode", choices=("der", "halfder", "map", "family"))
    p.add_argument("algebra")
    p.add_argument("--map", help="matrix file for `local map`")
    p.add_argument("--family", help="family file for `local family`")
    p.add_argument("--space", choices=("der", "halfder"), help="space for `local map` (default der)")
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("twolocal", help="2-local rigidity via separating vectors")
    p.add_argument("space", choices=("der", "halfder"))
    p.add_argument("algebra")
    p.set_defaults(func=cmd_twolocal)

    p = sub.add_parser("catalog", help="built-in algebra catalog")
    p.add_argument("action", choices=("list", "show", "export"))
    p.add_argument("key", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-paper", help="run the full reference-reproduction suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = ["omega-lie"] + argv
    if args.subcommand == "catalog" and args.action in ("show", "export") and not args.key:
        parser.error(f"catalog {args.action} requires a KEY")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not in the exit-time flush
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull so the exit-time flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
