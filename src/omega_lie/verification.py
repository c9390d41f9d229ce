"""Reference-reproduction suite: every headline claim as an executable check.

Each criterion runs the relevant solvers or local analyses with exact
arithmetic and compares the output against reference values it reads from
``catalog.expected``, the one table ``catalog show`` publishes; together the
criteria read every value of that table and restate none.  Checks are pure
and deterministic; a check either passes or reports precisely which
computed value deviates from the reference one.  A criterion that solves
takes the run's ``solvers.Session`` and asks it for every space, so a space
is solved once per run and a derived kind is restricted from its parent.
Criterion 1 walks ``catalog.instances()``, and the catalog builds each of
its instances once, so a second run in one process builds no algebra.

Several reference rows are mechanically inconsistent with the bracket
tables they accompany, so the corresponding checks fail by design rather
than being weakened; the per-item details name every deviation, and the
catalog entry notes document the analyzed causes (see also the project
README).  An independent brute-force oracle (unit-tensor residual
evaluation, ``oracle_biderivation_space`` in the test suite's
``tests/oracle.py``) reproduces the solver output bit for bit on every
contested space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import catalog
from .algebra import BilinearMap, check_axioms
from .linalg import Matrix, SubspaceBasis
from .local import (
    INCONCLUSIVE,
    RIGID,
    AffineCondition,
    AffineFamily,
    SamplePlan,
    affine_local_closure,
    kernel_rank,
    local_closure,
    recheck_certification,
    two_local_report,
)
from .solvers import KINDS, Session, defects, vectorize_map, vectorize_tensor

SIMPLE_3D_KEYS = ("A_alpha", "B", "C_alpha")
# the algebras whose returned bases criterion 11 re-checks, every kind on each
RESIDUAL_KEYS = ("L_{1,1}", "L_{1,6}", "B~", "A_alpha", "B", "C_alpha", "sl2")


@dataclass(frozen=True)
class CheckResult:
    number: int
    title: str
    passed: bool
    details: tuple[str, ...] = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number}: {self.title}"


def _result(number: int, title: str, mismatches: list[str], notes: Optional[list[str]] = None) -> CheckResult:
    details = tuple(notes or ()) + tuple(mismatches)
    return CheckResult(number, title, not mismatches, details)


def criterion_1_axioms() -> CheckResult:
    """Every catalog algebra passes the axioms; the Lie fixtures have omega 0."""
    mismatches = []
    for entry, sample, alg in catalog.instances():
        tag = entry.key + (f"@alpha={sample}" if sample is not None else "")
        report = check_axioms(alg)
        if not report.passed:
            mismatches.append(f"{tag}: axiom failure on triples {report.failing_triples()}")
        if entry.key in ("sl2", "sl2_plus_sl2") and not report.omega_is_zero:
            mismatches.append(f"{tag}: expected zero skew form")
    return _result(1, "axioms hold for every catalog algebra", mismatches)


def _column_support(m: Matrix, columns: set[int]) -> bool:
    return all(not v or j in columns for row in m.rows for j, v in enumerate(row))


def criterion_2_derivation_forms(session: Session) -> CheckResult:
    """Derivation spaces of L_{1,1} and L_{1,4} have the reference matrix forms."""
    mismatches = []

    def solved(key: str):
        der, expected = session.solve(catalog.get(key), "derivation"), catalog.expected(key).der_rank
        if der.rank != expected:
            mismatches.append(f"{key}: derivation rank {der.rank} != {expected}")
        return der

    for m in solved("L_{1,1}").elements():
        if not _column_support(m, {2, 3}):
            mismatches.append("L_{1,1}: basis matrix supported outside columns 3-4")
        if m.rows[1][2] != -m.rows[0][2] or m.rows[1][3] != -m.rows[0][3]:
            mismatches.append("L_{1,1}: row 2 is not the negative of row 1 on columns 3-4")
    for m in solved("L_{1,4}").elements():
        if not _column_support(m, {2}):
            mismatches.append("L_{1,4}: basis matrix supported outside column 3")
        if m.rows[1][2] != -m.rows[0][2] or m.rows[2][2] != m.rows[0][2]:
            mismatches.append("L_{1,4}: column 3 does not follow the (a,-a,a,b) pattern")
    return _result(2, "derivation matrix forms of L_{1,1} and L_{1,4}", mismatches)


def criterion_3_skew_biderivations(session: Session) -> CheckResult:
    """Reference claim: no 4-dimensional algebra has nonzero skew biderivations."""
    mismatches = []
    for key in catalog.four_dimensional_keys():
        rank, expected = session.solve(catalog.get(key), "skew").rank, catalog.expected(key).skew_bider_rank
        if rank != expected:
            mismatches.append(f"{key}: computed skew-biderivation rank {rank} != {expected}")
    return _result(3, "skew biderivations vanish on all 4-dimensional algebras", mismatches)


def criterion_4_symmetric_biderivations(session: Session) -> CheckResult:
    """Symmetric biderivation ranks match the reference table."""
    mismatches = []
    notes = []
    for key in catalog.four_dimensional_keys():
        expected = catalog.expected(key).sym_bider_rank
        computed = session.solve(catalog.get(key), "symmetric").rank
        if computed != expected:
            if key == "E_{1,alpha}":
                notes.append(
                    "E_{1,alpha}: the reference row mixes the parameter into its "
                    "coefficients and is recorded as a documented discrepancy"
                )
            mismatches.append(f"{key}: computed symmetric rank {computed} != reference {expected}")
    sym11 = session.solve(catalog.get("L_{1,1}"), "symmetric")
    for t in sym11.elements():
        support = {
            (i + 1, j + 1)
            for i in range(4)
            for j in range(4)
            if any(t.tensor[i][j][k] for k in range(4))
        }
        if not support <= {(3, 3), (3, 4), (4, 3), (4, 4)}:
            mismatches.append(
                f"L_{{1,1}}: symmetric basis tensor supported on input pairs {sorted(support)} "
                "(reference expression allows only pairs from {3,4}x{3,4})"
            )
            break
    return _result(4, "symmetric biderivation ranks match the reference table", mismatches, notes)


def criterion_5_simple_3d(session: Session) -> CheckResult:
    """Simple 3-dimensional algebras: biderivations, half-derivations, assembled rows."""
    mismatches = []
    algebras = {key: catalog.get(key) for key in SIMPLE_3D_KEYS}
    for key, alg in algebras.items():
        rank, expected = session.solve(alg, "biderivation").rank, catalog.expected(key).bider_rank
        if rank != expected:
            mismatches.append(f"{key}: computed biderivation rank {rank} != {expected}")
    for key, alg in algebras.items():
        hd, expected = session.solve(alg, "half_derivation"), catalog.expected(key).half_der_rank
        identity_span = SubspaceBasis.from_generators(9, [vectorize_map(Matrix.identity(3))])
        if hd.rank != expected or hd.space != identity_span:
            mismatches.append(
                f"{key}: half-derivations rank {hd.rank}, identity-span match "
                f"{hd.space == identity_span} (expected rank {expected} spanned by identity)"
            )
    # Assembled constraint rows for A at alpha=2 must imply the displayed
    # first-pair system: 2a11 = a11 - alpha*a31 + a22, 2a21 = a32, 2a31 = -a31,
    # where a_{ij} is the coefficient of e_i in the image of e_j.
    alpha = Fraction(2)
    hd_a = session.solve(algebras["A_alpha"], "half_derivation")

    def var(i: int, j: int) -> int:  # a_{ij} = e_i-coefficient of the image of e_j
        return (j - 1) * 3 + (i - 1)

    displayed_rows = [
        {var(1, 1): Fraction(1), var(3, 1): alpha, var(2, 2): Fraction(-1)},
        {var(2, 1): Fraction(2), var(3, 2): Fraction(-1)},
        {var(3, 1): Fraction(3)},
    ]
    for idx, row in enumerate(displayed_rows, 1):
        if not hd_a.space.annihilated_by(row):
            mismatches.append(f"A_alpha@2: displayed first-pair equation {idx} not implied by the assembled system")
    return _result(5, "simple 3-dimensional solver results", mismatches)


def criterion_6_local_rigidity(session: Session, plan: SamplePlan) -> CheckResult:
    """Sampled local closures collapse onto the base spaces."""
    mismatches = []
    for key in catalog.four_dimensional_keys() + ("L_1", "L_2") + SIMPLE_3D_KEYS:
        alg = catalog.get(key)
        res = local_closure(alg, session.solve(alg, "derivation"), plan)
        if res.certified != catalog.expected(key).local_der_certified:
            mismatches.append(
                f"{key}: local closure of derivations not certified "
                f"(candidate rank {res.candidate.rank} > base rank {res.base.rank})"
            )
    for key in SIMPLE_3D_KEYS:
        expected = catalog.expected(key)
        alg = catalog.get(key)
        res = local_closure(alg, session.solve(alg, "half_derivation"), plan)
        if res.certified != expected.local_half_certified or res.candidate.rank != expected.half_der_rank:
            mismatches.append(
                f"{key}: half-derivation closure certified={res.certified} "
                f"candidate rank {res.candidate.rank} (expected certified rank-{expected.half_der_rank} collapse)"
            )
    return _result(6, "local closures certify rigidity", mismatches)


def criterion_7_two_local(session: Session, plan: SamplePlan) -> CheckResult:
    """Separating-vector rigidity matches the reference lists."""
    mismatches = []
    keys = catalog.four_dimensional_keys()
    for key in (key for key in keys if catalog.expected(key).two_local_rigid):
        alg = catalog.get(key)
        der = session.solve(alg, "derivation")
        report = two_local_report(alg, der, plan)
        if report.verdict != RIGID:
            mismatches.append(f"{key}: expected RIGID with derivations, got {report.verdict}")
            continue
        candidates = catalog.expected(key).separating_candidates
        if all(kernel_rank(der, alg.basis_vector(c - 1)) != 0 for c in candidates):
            named = " nor ".join(f"e{c}" for c in candidates)
            mismatches.append(f"{key}: neither {named} separates the derivation space")
    for key in (key for key in keys if not catalog.expected(key).two_local_rigid):
        alg = catalog.get(key)
        report = two_local_report(alg, session.solve(alg, "derivation"), plan)
        if report.verdict == RIGID:
            mismatches.append(
                f"{key}: separating certificate found (at {report.certificate.point}) although "
                "the reference list does not include this algebra"
            )
    alg = catalog.get("L_{1,1}")
    rank = catalog.expected("L_{1,1}").der_rank
    report = two_local_report(alg, session.solve(alg, "derivation"), plan)
    if report.verdict != INCONCLUSIVE:
        mismatches.append(f"L_{{1,1}}: expected INCONCLUSIVE (rank {rank} > {alg.dim}), got {report.verdict}")
    for key in SIMPLE_3D_KEYS:
        alg = catalog.get(key)
        report = two_local_report(alg, session.solve(alg, "half_derivation"), plan)
        if (report.verdict == RIGID) != catalog.expected(key).two_local_half_rigid:
            mismatches.append(f"{key}: expected RIGID with half-derivations, got {report.verdict}")
    return _result(7, "2-local rigidity certificates", mismatches)


def _entry_matrix(n: int, entries: dict[tuple[int, int], int]) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i - 1][j - 1] = Fraction(v)
    return Matrix.from_rows(rows, ncols=n)


def automorphism_family_L11() -> AffineFamily:
    """Structure-preserving family of L_{1,1}: identity plus two column-3 patterns."""
    return AffineFamily(
        base=Matrix.identity(4),
        directions=(
            _entry_matrix(4, {(1, 3): 1, (2, 3): -1, (3, 3): 1}),
            _entry_matrix(4, {(4, 3): 1}),
        ),
        open_conditions=(AffineCondition.make(1, {"t1": 1}),),
    )


def automorphism_family_L23() -> AffineFamily:
    """Structure-preserving family of L_{2,3}: identity plus two column-4 patterns."""
    return AffineFamily(
        base=Matrix.identity(4),
        directions=(
            _entry_matrix(4, {(1, 4): 1, (2, 4): -1, (3, 4): 1}),
            _entry_matrix(4, {(4, 4): 1}),
        ),
        open_conditions=(AffineCondition.make(1, {"t2": 1}),),
    )


def criterion_8_affine_families(plan: SamplePlan) -> CheckResult:
    """Affine local closures recover exactly the automorphism family hulls."""
    mismatches = []
    alg = catalog.get("L_{1,1}")
    res = affine_local_closure(alg, automorphism_family_L11(), plan)
    if not res.matches_family_hull:
        mismatches.append(f"L_{{1,1}}: affine closure comparison {res.comparison}")
    else:
        checks = {
            "b11 == 1": res.functional_value({(0, 0): 1}) == 1,
            "b22 == 1": res.functional_value({(1, 1): 1}) == 1,
            "b44 == 1": res.functional_value({(3, 3): 1}) == 1,
            "b13 == -b23": res.functional_value({(0, 2): 1, (1, 2): 1}) == 0,
            "b13 == b33 - 1": res.functional_value({(0, 2): 1, (2, 2): -1}) == -1,
        }
        for label, ok in checks.items():
            if not ok:
                mismatches.append(f"L_{{1,1}}: recovered constraint {label} does not hold")
    alg = catalog.get("L_{2,3}")
    res = affine_local_closure(alg, automorphism_family_L23(), plan)
    if not res.matches_family_hull:
        mismatches.append(f"L_{{2,3}}: affine closure comparison {res.comparison}")
    elif res.functional_value({(3, 3): 1}) is not None:
        mismatches.append("L_{2,3}: entry (4,4) is pinned although it should stay a free direction")
    return _result(8, "affine automorphism-family closures", mismatches)


def criterion_9_omega_biderivations(session: Session) -> CheckResult:
    """Form-compatible biderivations versus plain biderivations per algebra."""
    mismatches = []
    for key in catalog.four_dimensional_keys():
        alg = catalog.get(key)
        full = session.solve(alg, "biderivation")
        compat = session.solve(alg, "omega_biderivation")
        if not compat.space.is_subspace_of(full.space):
            mismatches.append(f"{key}: compatibility space escaped the biderivation space")
            continue
        equal = compat.space == full.space
        if not catalog.expected(key).bider_omega_equal:
            if equal:
                mismatches.append(
                    f"{key}: expected strict inclusion of form-compatible biderivations, computed equality"
                )
            elif not any(  # a witness: a biderivation outside the compatible space with delta(e3, e3) != 0
                any(t.tensor[2][2]) and not compat.space.contains(vectorize_tensor(t)) for t in full.elements()
            ):
                mismatches.append(f"{key}: no witness with nonzero distinguished coefficient")
        elif not equal:
            mismatches.append(
                f"{key}: expected equality, computed strict inclusion "
                f"({compat.rank} < {full.rank})"
            )
    return _result(9, "form-compatible biderivations match the reference pattern", mismatches)


def criterion_10_semisimple_fixtures(session: Session) -> CheckResult:
    """Classical semisimple results on sl2 and sl2+sl2."""
    mismatches = []
    sl2 = catalog.get("sl2")
    expected = catalog.expected("sl2")
    if session.solve(sl2, "anticommuting").rank != 0:
        mismatches.append("sl2: anticommuting maps should vanish")
    if session.solve(sl2, "symmetric").rank != expected.sym_bider_rank:
        mismatches.append("sl2: symmetric biderivations should vanish")
    skw = session.solve(sl2, "skew")
    bracket_span = SubspaceBasis.from_generators(27, [vectorize_tensor(BilinearMap(sl2.structure))])
    if skw.rank != expected.skew_bider_rank or skw.space != bracket_span:
        mismatches.append("sl2: skew biderivations should be spanned by the bracket tensor")
    cent = session.solve(sl2, "centroid")
    if cent.rank != 1:
        mismatches.append(f"sl2: centroid rank {cent.rank} != 1")
    if session.solve(sl2, "commuting").space != cent.space:
        mismatches.append("sl2: commuting maps differ from the centroid")
    expected = catalog.expected("sl2_plus_sl2").skew_bider_rank
    if session.solve(catalog.get("sl2_plus_sl2"), "skew").rank != expected:
        mismatches.append(f"sl2+sl2: skew biderivation rank != {expected}")
    return _result(10, "semisimple Lie fixtures reproduce the classical results", mismatches)


def criterion_11_property_suite(session: Session, plan: SamplePlan) -> CheckResult:
    """Residuals, the symmetric/skew rank law, soundness, determinism."""
    mismatches = []
    # Exact residuals of every basis element of every kind in KINDS, and the
    # decomposition of each biderivation into symmetric and skew parts.
    for key in RESIDUAL_KEYS:
        alg = catalog.get(key)
        for kind in KINDS:
            if kind == "delta_derivation":  # open delta: half_derivation and the weight-1 check pin it
                continue
            space = session.solve(alg, kind)
            if any(defects(alg, kind, space.elements())):
                mismatches.append(f"{key}: nonzero residual in {kind} basis")
        bider, sym, skw = (session.solve(alg, kind) for kind in ("biderivation", "symmetric", "skew"))
        if sym.space.plus(skw.space) != bider.space:
            mismatches.append(f"{key}: symmetric + skew biderivations differ from the biderivation space")
    # Soundness sandwich, 500-point recheck, and determinism of a closure.
    alg = catalog.get("L_{1,1}")
    der = session.solve(alg, "derivation")
    first = local_closure(alg, der, plan)
    second = local_closure(alg, der, plan)
    if first != second:
        mismatches.append("local closure is not deterministic under a fixed plan")
    if not der.space.is_subspace_of(first.candidate):
        mismatches.append("soundness sandwich violated: base escaped the candidate")
    if first.certified and not recheck_certification(alg, first, points=500, plan=plan):
        mismatches.append("500-point certification recheck failed")
    # Specialization: weight-1 solver coincides with the derivation solver bitwise.
    for key in ("L_{1,4}", "B", "sl2"):
        alg = catalog.get(key)
        if session.solve(alg, "delta_derivation", delta=1).space != session.solve(alg, "derivation").space:
            mismatches.append(f"{key}: weight-1 solution space differs from derivations")
    return _result(11, "property suite (residuals, rank laws, soundness, determinism)", mismatches)


def run_all(plan: Optional[SamplePlan] = None) -> list[CheckResult]:
    """Run every criterion; deterministic for a fixed plan.

    The criteria share one :class:`~omega_lie.solvers.Session`, so each space
    is solved once per run and dropped with it.
    """
    plan = plan or SamplePlan()
    session = Session()
    return [
        criterion_1_axioms(),
        criterion_2_derivation_forms(session),
        criterion_3_skew_biderivations(session),
        criterion_4_symmetric_biderivations(session),
        criterion_5_simple_3d(session),
        criterion_6_local_rigidity(session, plan),
        criterion_7_two_local(session, plan),
        criterion_8_affine_families(plan),
        criterion_9_omega_biderivations(session),
        criterion_10_semisimple_fixtures(session),
        criterion_11_property_suite(session, plan),
    ]
