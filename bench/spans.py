"""In-memory spans around the calls into each module of ``omega_lie``.

A :class:`Tracer` replaces selected public functions of the library with
wrappers that record a span (name, start, end, parent) for every call that
crosses into a module from another one.  A call from a module into itself
(for instance ``half_derivations`` calling ``delta_derivations``) opens no
new span, so each span measures one boundary crossing and the self time of
a span is the time spent in its own module.

Exact counts (rows, nonzeros, ranks, sample points, ...) are taken from the
arguments and return values of the wrapped calls, never from clocks, so they
repeat exactly from run to run.  The wrappers are installed only for the
duration of a traced pass and removed afterwards.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

SOLVE_FUNCTIONS = (
    "derivations",
    "omega_derivations",
    "centroid",
    "commuting_maps",
    "anticommuting_maps",
    "delta_derivations",
    "half_derivations",
    "biderivations",
    "symmetric_biderivations",
    "skew_biderivations",
    "omega_biderivations",
    "solve_map_space",
    "solve_tensor_space",
)


@dataclass(frozen=True)
class Target:
    """One library attribute to wrap: ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    group: str

    @property
    def layer(self) -> str:
        return self.group.split(".", 1)[0]


def criterion_targets(verification_module) -> tuple[Target, ...]:
    """One target per ``criterion_<k>_...`` function of the verification module."""
    out = []
    for name in sorted(vars(verification_module)):
        head, _, rest = name.partition("_")
        number = rest.partition("_")[0]
        if head == "criterion" and number.isdigit():
            out.append(Target("verification", name, f"verification.criterion_{int(number)}"))
    return tuple(sorted(out, key=lambda t: int(t.group.rsplit("_", 1)[1])))


def layer_targets(verification_module) -> tuple[Target, ...]:
    """Every boundary the traced run records, grouped by metric name."""
    targets = [Target("cli", "main", "cli.main")]
    targets += criterion_targets(verification_module)
    targets += [
        Target("catalog", "get", "catalog.get"),
        Target("algebra", "check_axioms", "algebra.check_axioms"),
    ]
    targets += [Target("solvers", name, "solvers.solve") for name in SOLVE_FUNCTIONS]
    targets += [
        Target("solvers", "map_defects", "solvers.defects"),
        Target("solvers", "tensor_defects", "solvers.defects"),
        Target("linalg", "nullspace_of_sparse_rows", "linalg.elim"),
        Target("linalg", "SubspaceBasis.contains", "linalg.contains"),
        Target("linalg", "SubspaceBasis.contains_all", "linalg.contains"),
        Target("linalg", "SubspaceBasis.is_subspace_of", "linalg.contains"),
        Target("linalg", "SubspaceBasis.from_generators", "linalg.from_generators"),
        Target("linalg", "nullspace", "linalg.dense"),
        Target("linalg", "rref", "linalg.dense"),
        Target("linalg", "solve_affine", "linalg.dense"),
        Target("local", "local_closure", "local.closure"),
        Target("local", "recheck_certification", "local.recheck"),
        Target("local", "two_local_report", "local.two_local"),
        Target("local", "affine_local_closure", "local.affine"),
        Target("local", "is_local_member", "local.member"),
    ]
    return tuple(targets)


@dataclass
class Span:
    id: int
    name: str
    group: str
    layer: str
    start: float
    end: float
    parent: int  # -1 for a root span


class Patch:
    """Replaces every binding of each target with ``make_wrapper(target, fn)`` while installed."""

    def __init__(self, modules: dict, targets: Iterable[Target], make_wrapper: Callable):
        self.modules = modules
        self.targets = tuple(targets)
        self.make_wrapper = make_wrapper
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in self.targets:
            owner = self.modules.get(target.module)
            if owner is None:
                continue
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.make_wrapper(target, raw.__func__))
                else:
                    new = self.make_wrapper(target, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, target.attr, None)
            if fn is None:
                continue
            wrapped = self.make_wrapper(target, fn)
            # ``from .x import f`` binds f in every importing module: replace each binding.
            for module in self.modules.values():
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def speed_marks(modules: dict, targets: Iterable[Target], timeline) -> Patch:
    """Let ``timeline`` mark the host speed, when due, before every call into a target.

    Installed on untraced passes, so a long operation that calls into the
    library is scaled piece by piece (see ``speed.Timeline``).
    """

    def wrap(target: Target, fn: Callable) -> Callable:
        def marked(*args, **kwargs):
            timeline.maybe_mark()
            return fn(*args, **kwargs)

        marked.__wrapped__ = fn
        return marked

    return Patch(modules, targets, wrap)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def basis_bits(basis) -> int:
    """Largest numerator or denominator bit length in a canonical basis."""
    best = 0
    for row in getattr(basis, "basis", ()):
        for x in row:
            if x:
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Records spans and exact counts while installed on the library modules."""

    def __init__(self, modules: dict, targets: Iterable[Target], clock: Callable[[], float] = time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self._stack: list[Span] = []
        self._patch = Patch(modules, targets, self._wrap)

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.distinct = set()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer, group, name = target.layer, target.group, target.attr.rsplit(".", 1)[-1]
        before = _BEFORE.get(group)
        after = _AFTER.get(group)
        signature = _signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.layer == layer:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(self, parent, args)
            span = Span(len(self.spans), name, group, layer, 0.0, 0.0, parent.id if parent else -1)
            self.spans.append(span)
            stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if after is not None:
                after(self, name, _bind(signature, args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._patch.install()

    def uninstall(self) -> None:
        self._patch.uninstall()
        self._stack = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _signature(fn: Callable) -> Optional[inspect.Signature]:
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _bind(signature: Optional[inspect.Signature], args, kwargs) -> dict:
    if signature is None:
        return {}
    try:
        bound = signature.bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return dict(bound.arguments)


# -- exact counts, from arguments and results ----------------------------------


def _before_elim(tracer: Tracer, parent: Optional[Span], args):
    """Materialize the sparse rows so they can be counted before elimination."""
    if len(args) < 2:
        return args
    rows = args[1] if isinstance(args[1], list) else list(args[1])
    nrows, nnz = len(rows), sum(len(r) for r in rows)
    tracer.counts["linalg.elim.rows"] += nrows
    if parent is not None and parent.layer == "solvers":
        tracer.counts["solvers.rows"] += nrows
        tracer.counts["solvers.nnz"] += nnz
    return (args[0], rows) + tuple(args[2:])


def _after_solve(tracer: Tracer, name: str, bound: dict, result) -> None:
    tracer.counts["solvers.calls"] += 1
    algebra = bound.get("algebra")
    key_args = tuple((k, repr(v)) for k, v in bound.items() if k != "algebra")
    tracer.distinct.add((_content_key(tracer, algebra), name, key_args))
    rank = getattr(result, "rank", None)
    if isinstance(rank, int):
        tracer.counts["solvers.rank"] += rank
    system = getattr(result, "system", None)
    if system is not None and hasattr(system, "nrows"):
        tracer.counts["solvers.system_cells"] += system.nrows * system.ncols


def _content_key(tracer: Tracer, algebra):
    algebra_module = tracer.modules.get("algebra")
    content_hash = getattr(algebra_module, "content_hash", None)
    if content_hash is not None and algebra is not None:
        return content_hash(algebra)
    return repr(algebra)


def _after_linalg(counter: str) -> Callable:
    def after(tracer: Tracer, name: str, bound: dict, result) -> None:
        tracer.counts[counter] += 1
        parts = result if isinstance(result, tuple) else (result,)
        for part in parts:
            if hasattr(part, "basis") and hasattr(part, "ambient_dim"):
                tracer.counts["linalg.basis_bits_max"] = max(
                    tracer.counts["linalg.basis_bits_max"], basis_bits(part)
                )
        if counter == "linalg.elim.calls" and len(parts) > 1 and isinstance(parts[1], int):
            tracer.counts["linalg.elim.rank"] += parts[1]

    return after


def _after_closure(tracer: Tracer, name: str, bound: dict, result) -> None:
    tracer.counts["local.closure.calls"] += 1
    tracer.counts["local.closure.certified"] += bool(getattr(result, "certified", False))
    tracer.counts["local.points"] += len(getattr(result, "samples_used", ()))


def _after_recheck(tracer: Tracer, name: str, bound: dict, result) -> None:
    points = bound.get("points")
    if isinstance(points, int):
        tracer.counts["local.points"] += points


def _after_affine(tracer: Tracer, name: str, bound: dict, result) -> None:
    tracer.counts["local.points"] += len(getattr(result, "samples_used", ()))


def _after_count(counter: str) -> Callable:
    def after(tracer: Tracer, name: str, bound: dict, result) -> None:
        tracer.counts[counter] += 1

    return after


_BEFORE = {"linalg.elim": _before_elim}
_AFTER = {
    "solvers.solve": _after_solve,
    "solvers.defects": _after_count("solvers.defects.calls"),
    "linalg.elim": _after_linalg("linalg.elim.calls"),
    "linalg.contains": _after_count("linalg.contains.calls"),
    "linalg.from_generators": _after_linalg("linalg.from_generators.calls"),
    "linalg.dense": _after_linalg("linalg.dense.calls"),
    "local.closure": _after_closure,
    "local.recheck": _after_recheck,
    "local.affine": _after_affine,
    "catalog.get": _after_count("catalog.get.calls"),
}


# -- per-pass layer metrics -----------------------------------------------------

CRITERIA = tuple(range(1, 12))

# Layer times are reported as shares of the traced pass, in percent: a layer a
# workload never enters then reads 0 %, a share rather than a constant time.
SHARE_METRICS = (
    ("solvers.pct", "solvers.solve", "total"),
    ("solvers.self_pct", "solvers.solve", "self"),
    ("solvers.defects.pct", "solvers.defects", "total"),
    ("linalg.elim.pct", "linalg.elim", "total"),
    ("linalg.contains.pct", "linalg.contains", "total"),
    ("linalg.from_generators.pct", "linalg.from_generators", "total"),
    ("linalg.dense.pct", "linalg.dense", "total"),
    ("local.closure.self_pct", "local.closure", "self"),
    ("local.recheck.pct", "local.recheck", "total"),
    ("local.two_local.pct", "local.two_local", "total"),
    ("local.affine.pct", "local.affine", "total"),
    ("local.member.pct", "local.member", "total"),
    *((f"verification.criterion_{k}.pct", f"verification.criterion_{k}", "total") for k in CRITERIA),
    ("verification.self_pct", "verification", "layer_self"),
    ("catalog.get.pct", "catalog.get", "total"),
    ("algebra.check_axioms.pct", "algebra.check_axioms", "total"),
    ("cli.self_pct", "cli", "layer_self"),
)

COUNT_METRICS = (
    "solvers.calls",
    "solvers.rows",
    "solvers.nnz",
    "solvers.system_cells",
    "solvers.rank",
    "solvers.defects.calls",
    "linalg.elim.calls",
    "linalg.basis_bits_max",
    "linalg.contains.calls",
    "linalg.from_generators.calls",
    "linalg.dense.calls",
    "local.closure.calls",
    "local.points",
    "catalog.get.calls",
)


def group_seconds(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per group and per layer: total span seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        for key in (s.group, s.layer):
            acc = out.setdefault(key, {"total": 0.0, "self": 0.0})
            acc["self"] += selfs[s.id]
            if key == s.group:
                acc["total"] += s.end - s.start
    return out


def pass_metrics(spans: list[Span], counts: Counter, distinct: set, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall`` seconds."""
    seconds = group_seconds(spans)
    out: dict[str, float] = {}
    for metric, group, kind in SHARE_METRICS:
        acc = seconds.get(group, {"total": 0.0, "self": 0.0})
        value = acc["self"] if kind in ("self", "layer_self") else acc["total"]
        out[metric] = 100.0 * value / wall
    for metric in COUNT_METRICS:
        out[metric] = float(counts.get(metric, 0))
    out["solvers.distinct_ratio"] = _ratio(len(distinct), counts.get("solvers.calls", 0))
    out["linalg.elim.useful_ratio"] = _ratio(counts.get("linalg.elim.rank", 0), counts.get("linalg.elim.rows", 0))
    out["local.certified_ratio"] = _ratio(
        counts.get("local.closure.certified", 0), counts.get("local.closure.calls", 0)
    )
    return out


def _ratio(num: float, den: float) -> float:
    """``num / den``, with 0 when nothing was attempted (the base is reported beside it)."""
    return num / den if den else 0.0
