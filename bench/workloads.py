"""The four benchmark workloads, their seeded inputs and their output gates.

Each workload builds its inputs from the seed with the library's own
constructors, runs one *pass* as a list of timed operations, turns every
operation's result into a plain comparable *record*, and checks records:

* at the default seed, against ``reference.json`` (recorded from this code);
* at any other seed, with exact independent checks: canonical echelon form
  of every returned basis, zero residuals of every basis element through
  ``map_defects``/``tensor_defects``, ranks that basis changes cannot move,
  and the soundness relations of the local certificates.

The library is imported from ``src/`` of the checkout (see ``run.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from omega_lie import algebra, catalog, cli, linalg, local, solvers, verification

DEFAULT_SEED = 0xC0FFEE  # the library's default sample-plan seed
RECHECK_POINTS = 100
DENSE_SIZES = (4, 5, 6, 7)
LADDER_COPIES = (1, 2, 3)
HALF = Fraction(1, 2)

# Label -> (solver name in omega_lie.solvers, "map"/"tensor", identity kind of
# map_defects/tensor_defects, delta).  Solvers are looked up by name at call
# time, so the traced run sees the calls.
SOLVE_KINDS = {
    "der": ("derivations", "map", "derivation", None),
    "wder": ("omega_derivations", "map", "omega_derivation", None),
    "cent": ("centroid", "map", "centroid", None),
    "cmap": ("commuting_maps", "map", "commuting", None),
    "acmap": ("anticommuting_maps", "map", "anticommuting", None),
    "halfder": ("half_derivations", "map", "delta_derivation", HALF),
    "bider": ("biderivations", "tensor", "biderivation", None),
    "bider-sym": ("symmetric_biderivations", "tensor", "symmetric", None),
    "bider-skew": ("skew_biderivations", "tensor", "skew", None),
    "bider-omega": ("omega_biderivations", "tensor", "omega_biderivation", None),
}


def solve(label: str, alg):
    return getattr(solvers, SOLVE_KINDS[label][0])(alg)


@dataclass
class Outcome:
    """One timed operation: its label, start and end times, and result or error."""

    label: str
    start: float
    end: float
    result: Any = None
    error: Optional[str] = None
    context: Any = None  # what an independent check needs besides the result


class OpTimer:
    """Runs operations one after another, timing each and catching its errors.

    With a ``timeline`` (``speed.Timeline``), the host speed is marked between
    operations, outside their timed intervals.
    """

    def __init__(self, timeline=None):
        self.timeline = timeline
        self.outcomes: list[Outcome] = []

    def run(self, label: str, fn: Callable, *args, context=None, **kwargs):
        if self.timeline is not None:
            self.timeline.maybe_mark()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.outcomes.append(Outcome(label, start, time.perf_counter(), error=f"{type(exc).__name__}: {exc}"))
            return None
        self.outcomes.append(Outcome(label, start, time.perf_counter(), result, context=context))
        return result


# -- records -------------------------------------------------------------------


def scalar(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def basis_record(space: linalg.SubspaceBasis) -> dict:
    return {
        "ambient": space.ambient_dim,
        "basis": [[[j, scalar(v)] for j, v in enumerate(row) if v] for row in space.basis],
    }


def matrix_record(m) -> Optional[list]:
    return None if m is None else [[scalar(x) for x in row] for row in m.rows]


def point_record(x) -> Optional[list]:
    return None if x is None else [scalar(v) for v in x]


def canonical_form_error(space: linalg.SubspaceBasis) -> Optional[str]:
    """Why ``space.basis`` is not a reduced row echelon basis, or None."""
    pivots = []
    for row in space.basis:
        if len(row) != space.ambient_dim:
            return "basis row of wrong length"
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            return "zero row in basis"
        if row[lead] != 1:
            return "leading entry is not 1"
        if pivots and lead <= pivots[-1]:
            return "pivots not strictly increasing"
        pivots.append(lead)
    for p in pivots:
        if sum(1 for row in space.basis if row[p]) != 1:
            return "pivot column not cleared"
    return None


def space_defect_error(alg, space, family: str, kind: str, delta) -> Optional[str]:
    """Re-check every basis element exactly against its defining identity."""
    error = canonical_form_error(space.space)
    if error:
        return error
    if family == "map":
        for f in space.maps():
            if solvers.map_defects(alg, kind, f, delta=delta):
                return f"nonzero {kind} residual of a basis map"
    else:
        for t in space.tensors():
            if solvers.tensor_defects(alg, kind, t):
                return f"nonzero {kind} residual of a basis tensor"
    return None


# -- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    why: str
    operation: str
    default_seed: int = DEFAULT_SEED

    def inputs(self, seed: int):
        raise NotImplementedError

    def run_pass(self, inputs, timeline=None) -> list[Outcome]:
        raise NotImplementedError

    def record(self, outcome: Outcome):
        raise NotImplementedError

    def check(self, outcome: Outcome, record, reference: dict) -> Optional[str]:
        """Independent check of one operation at a non-default seed; None when it holds."""
        raise NotImplementedError


class VerifyPaper(Workload):
    """``omega-lie --format json --seed S verify-paper``, in process."""

    PLAN_FREE = (1, 2, 3, 4, 5, 9, 10)  # criteria whose output does not depend on the sample plan

    def inputs(self, seed: int):
        return ["--format", "json", "--seed", str(seed), "verify-paper"]

    def run_pass(self, inputs, timeline=None):
        timer = OpTimer(timeline)
        names = [name for name in vars(verification) if name.startswith("criterion_")]
        originals = {name: getattr(verification, name) for name in names}

        def timed(name, fn):
            def call(*args, **kwargs):
                return timer.run(name, fn, *args, **kwargs)

            return call

        out = io.StringIO()
        error = None
        try:
            for name, fn in originals.items():
                setattr(verification, name, timed(name, fn))
            with contextlib.redirect_stdout(out):
                code = cli.main(list(inputs))
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            for name, fn in originals.items():
                setattr(verification, name, fn)
        outcomes = timer.outcomes
        if error is None and not any(o.error for o in outcomes):
            try:
                report = json.loads(out.getvalue())["result"]
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable JSON report: {exc}"
        if error is not None or any(o.error for o in outcomes):
            for o in outcomes:
                o.error = o.error or error or "another criterion raised"
            return outcomes or [Outcome("verify-paper", 0.0, 0.0, error=error)]
        by_number = {c["criterion"]: c for c in report["criteria"]}
        for o in outcomes:
            number = int(o.label.split("_")[1])
            o.label = f"criterion_{number}"
            o.result = {"entry": by_number.get(number), "exit_code": code, "failures": report["failures"]}
        return outcomes

    def record(self, outcome):
        return outcome.result

    def check(self, outcome, record, reference):
        ref = reference.get(outcome.label)
        if ref is None:
            return "no reference for this criterion"
        if record["exit_code"] != ref["exit_code"] or record["failures"] != ref["failures"]:
            return "exit code or failure count differs from the reference"
        entry, ref_entry = record["entry"], ref["entry"]
        if entry is None or (entry["title"], entry["passed"]) != (ref_entry["title"], ref_entry["passed"]):
            return "criterion verdict differs from the reference"
        if entry["criterion"] in self.PLAN_FREE and entry != ref_entry:
            return "plan-independent criterion details differ from the reference"
        return None


def relabel(alg: algebra.OmegaAlgebra, rng: random.Random) -> algebra.OmegaAlgebra:
    """The same algebra in a seeded signed permutation of its basis."""
    n = alg.dim
    p = list(range(n))
    rng.shuffle(p)
    s = [rng.choice((-1, 1)) for _ in range(n)]
    c, w = alg.structure, alg.omega
    structure = tuple(
        tuple(tuple(s[i] * s[j] * s[k] * c[p[i]][p[j]][p[k]] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    omega = tuple(tuple(s[i] * s[j] * w[p[i]][p[j]] for j in range(n)) for i in range(n))
    return algebra.OmegaAlgebra(alg.name, n, structure, omega, alg.basis_labels)


class SolveLadder(Workload):
    """All ten solve kinds on sl2, sl2+sl2 and sl2+sl2+sl2 (n = 3, 6, 9)."""

    def inputs(self, seed):
        sl2 = catalog.get("sl2")
        algebras = [sl2]
        for _ in LADDER_COPIES[1:]:
            algebras.append(algebra.direct_sum(algebras[-1], sl2))
        if seed != self.default_seed:
            rng = random.Random(seed)
            algebras = [relabel(a, rng) for a in algebras]
        return algebras

    def run_pass(self, inputs, timeline=None):
        timer = OpTimer(timeline)
        for alg in inputs:
            for label in SOLVE_KINDS:
                timer.run(f"{label}/n{alg.dim}", solve, label, alg, context=alg)
        return timer.outcomes

    def record(self, outcome):
        return {"rank": outcome.result.rank, "space": basis_record(outcome.result.space)}

    def check(self, outcome, record, reference):
        ref = reference.get(outcome.label)
        if ref is None:
            return "no reference for this operation"
        if record["rank"] != ref["rank"]:
            return f"rank {record['rank']} != {ref['rank']} (a basis change cannot move it)"
        _, family, kind, delta = SOLVE_KINDS[outcome.label.split("/")[0]]
        return space_defect_error(outcome.context, outcome.result, family, kind, delta)


def random_table(rng: random.Random, n: int) -> algebra.OmegaAlgebra:
    """Dense bracket table with entries in -3..3; the axioms need not hold."""
    brackets = {
        (i, j): {k: rng.randint(-3, 3) for k in range(1, n + 1)}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return algebra.OmegaAlgebra.from_tables(f"dense{n}", n, brackets, {})


class DenseElim(Workload):
    """Derivations and biderivations of seeded dense random tables, n = 4..7."""

    KINDS = ("der", "bider")

    def inputs(self, seed):
        rng = random.Random(seed)
        return [random_table(rng, n) for n in DENSE_SIZES]

    def run_pass(self, inputs, timeline=None):
        timer = OpTimer(timeline)
        for alg in inputs:
            for label in self.KINDS:
                timer.run(f"{label}/n{alg.dim}", solve, label, alg, context=alg)
        return timer.outcomes

    record = SolveLadder.record

    def check(self, outcome, record, reference):
        _, family, kind, delta = SOLVE_KINDS[outcome.label.split("/")[0]]
        return space_defect_error(outcome.context, outcome.result, family, kind, delta)


@dataclass
class SweepInputs:
    algebras: list
    plan: local.SamplePlan


def solve_and_close(kind: str, alg, plan):
    """The closure operation of local-sweep: solve the base space, then close it."""
    space = solve(kind, alg)
    return space, local.local_closure(alg, space, plan)


class LocalSweep(Workload):
    """Local closures, 2-local reports and rechecks on the 4-dimensional catalog."""

    SPACES = ("der", "halfder")

    def inputs(self, seed):
        keys = catalog.four_dimensional_keys()
        return SweepInputs([(key, catalog.get(key)) for key in keys], local.SamplePlan(seed=seed))

    def run_pass(self, inputs, timeline=None):
        timer = OpTimer(timeline)
        plan = inputs.plan
        for key, alg in inputs.algebras:
            for kind in self.SPACES:
                tag = f"{key}/{kind}"
                closed = timer.run(f"{tag}/closure", solve_and_close, kind, alg, plan)
                if closed is None:
                    continue
                space, res = closed
                timer.run(f"{tag}/two_local", local.two_local_report, alg, space, plan, context=space)
                if res.certified:
                    timer.run(
                        f"{tag}/recheck", local.recheck_certification, alg, res, points=RECHECK_POINTS, plan=plan
                    )
                else:
                    timer.run(f"{tag}/member", local.is_local_member, alg, space, res.witness, plan)
        return timer.outcomes

    def record(self, outcome):
        step = outcome.label.rsplit("/", 1)[1]
        r = outcome.result
        if step == "closure":
            space, r = r
            return {
                "base": basis_record(space.space),
                "candidate": basis_record(r.candidate),
                "certified": r.certified,
                "samples": len(r.samples_used),
                "witness": matrix_record(r.witness),
            }
        if step == "two_local":
            point = r.certificate.point if r.certificate is not None else None
            return {"verdict": r.verdict, "point": point_record(point), "min_kernel_rank": r.min_kernel_rank}
        if step == "recheck":
            return {"ok": r}
        return {"status": r.status, "witness_point": point_record(r.witness)}

    def check(self, outcome, record, reference):
        step = outcome.label.rsplit("/", 1)[1]
        r = outcome.result
        if step == "closure":
            space, r = r
            base = space.space
            if record["base"] != reference.get(outcome.label, {}).get("base"):
                return "base space differs from the reference (it does not depend on the seed)"
            error = canonical_form_error(r.candidate)
            if error:
                return error
            if not all(r.candidate.contains(v) for v in base.basis):
                return "base space escaped its local closure"
            if r.certified != (r.candidate == base):
                return "certified flag disagrees with candidate == base"
            if not r.certified and (r.witness is None or base.contains(solvers.vectorize_map(r.witness))):
                return "uncertified closure without a witness outside the base"
            return None
        if step == "two_local":
            if r.verdict == local.RIGID:
                if r.certificate is None or local.kernel_rank(outcome.context, r.certificate.point) != 0:
                    return "RIGID without a separating point"
            elif r.verdict != local.INCONCLUSIVE or not r.min_kernel_rank:
                return "INCONCLUSIVE report with a zero kernel rank"
            return None
        if step == "recheck":
            return None if r is True else "certified closure failed its recheck"
        return None if r.status == local.LOCAL_ON_SAMPLES else f"witness verdict {r.status}"


WORKLOADS = {
    w.name: w
    for w in (
        VerifyPaper(
            "verify-paper",
            "the headline user job: all 11 criteria, with repeated solver calls and residual checks",
            "one verification criterion",
        ),
        SolveLadder(
            "solve-ladder",
            "row assembly and dense system build grow with n = 3, 6, 9 while elimination stays cheap",
            "one (kind, n) solve",
        ),
        DenseElim(
            "dense-elim",
            "dense random tables make sparse elimination with coefficient growth most of the time",
            "one (kind, n) solve",
        ),
        LocalSweep(
            "local-sweep",
            "thousands of small membership queries instead of one large elimination",
            "one closure (with the solve of its base space), 2-local report, recheck or witness verdict",
        ),
    )
}


def outcome_failures(
    workload: Workload,
    outcomes: list[Outcome],
    seed: int,
    reference: dict,
    expected: Optional[dict] = None,
) -> list[tuple[str, str]]:
    """Gate one pass; returns ``(label, reason)`` for every failed operation.

    With ``expected`` (records of an already gated pass on the same inputs)
    each record must equal it; otherwise the pass is gated against the
    reference (default seed) or by the independent checks (other seeds).
    Any error or mismatch fails the operation.
    """
    failures = []
    for o in outcomes:
        if o.error is not None:
            failures.append((o.label, o.error))
            continue
        try:
            record = workload.record(o)
            if expected is not None:
                reason = None if expected.get(o.label) == record else "output differs from the gated pass"
            elif seed == workload.default_seed:
                reason = None if reference.get(o.label) == record else "output differs from the reference"
            else:
                reason = workload.check(o, record, reference)
        except Exception as exc:  # a result the gate cannot read is a failed operation
            reason = f"gate raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((o.label, reason))
    return failures
