"""Acceptance suite: one test per reproduction criterion.

Every test runs its criterion through :mod:`omega_lie.verification` (exact
arithmetic, no tolerances anywhere) and prints one PASS/FAIL line.  The
criteria marked ``xfail(strict=True)`` assert reference values that are
mechanically inconsistent with the bracket tables they accompany: the
computed spaces were cross-checked by an independent brute-force oracle and
by hand, so these tests are expected to fail exactly as recorded, and an
unexpected pass would itself be an error.  See the catalog entry notes and
the project README for the analysis.

``omega-lie verify-paper`` runs the same checks from the command line and
exits nonzero while any criterion fails.
"""

from dataclasses import replace

import pytest

from omega_lie import verification
from omega_lie.linalg import SubspaceBasis
from omega_lie.local import SamplePlan
from omega_lie.solvers import Session

PLAN = SamplePlan()

SOURCE_INCONSISTENCY = (
    "reference table is mechanically inconsistent with the bracket tables; "
    "computed values verified by an independent oracle (see README, 'Reference"
    " discrepancies')"
)


def _report(result):
    print()
    print(result.line())
    for detail in result.details:
        print(f"    - {detail}")
    assert result.passed, "; ".join(result.details)


def test_criterion_01_axioms():
    _report(verification.criterion_1_axioms())


def test_criterion_02_derivation_matrix_forms():
    _report(verification.criterion_2_derivation_forms(Session()))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_03_skew_biderivations_vanish():
    _report(verification.criterion_3_skew_biderivations(Session()))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_04_symmetric_biderivation_table():
    _report(verification.criterion_4_symmetric_biderivations(Session()))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_05_simple_3d_results():
    _report(verification.criterion_5_simple_3d(Session()))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_06_local_rigidity():
    _report(verification.criterion_6_local_rigidity(Session(), PLAN))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_07_two_local_rigidity():
    _report(verification.criterion_7_two_local(Session(), PLAN))


def test_criterion_08_affine_automorphism_families():
    _report(verification.criterion_8_affine_families(PLAN))


@pytest.mark.xfail(strict=True, reason=SOURCE_INCONSISTENCY)
def test_criterion_09_omega_biderivations():
    _report(verification.criterion_9_omega_biderivations(Session()))


def test_criterion_10_semisimple_fixtures():
    _report(verification.criterion_10_semisimple_fixtures(Session()))


def test_criterion_11_property_suite():
    _report(verification.criterion_11_property_suite(Session(), PLAN))


class _Faulty(Session):
    """A session that answers one kind with the zero space."""

    def __init__(self, kind):
        super().__init__()
        self.kind = kind

    def solve(self, algebra, kind, **params):
        space = super().solve(algebra, kind, **params)
        if kind == self.kind:
            return replace(space, space=SubspaceBasis(space.space.ambient_dim, ()))
        return space


def test_criterion_11_fails_when_skew_biderivations_go_missing():
    result = verification.criterion_11_property_suite(_Faulty("skew"), PLAN)
    assert not result.passed
    assert any("symmetric + skew" in detail for detail in result.details)


def test_criterion_11_fails_when_the_derivations_are_wrong():
    # the weight-1 check compares two separate solves: a session that answered
    # delta_derivation at delta = 1 with its derivation entry would pass it
    result = verification.criterion_11_property_suite(_Faulty("derivation"), PLAN)
    assert not result.passed
    assert {d for d in result.details if "weight-1" in d} == {
        f"{key}: weight-1 solution space differs from derivations" for key in ("L_{1,4}", "B", "sl2")
    }
