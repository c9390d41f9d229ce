"""Local and 2-local analysis engine."""

from fractions import Fraction

import pytest

from omega_lie import catalog, linalg
from omega_lie.linalg import Matrix, SubspaceBasis
from omega_lie.local import (
    _images,
    MAX_RANDOM_COUNT,
    INCONCLUSIVE,
    LOCAL_CERTIFIED,
    LOCAL_ON_SAMPLES,
    NOT_LOCAL,
    RIGID,
    AffineFamily,
    SamplePlan,
    affine_local_closure,
    evaluation_subspace,
    is_local_member,
    kernel_rank,
    local_closure,
    recheck_certification,
    separating_vector,
    two_local_report,
)
from omega_lie.solvers import derivations, half_derivations, vectorize_map
from omega_lie.verification import automorphism_family_L11, automorphism_family_L23

PLAN = SamplePlan()


class TestSamplePlan:
    def test_point_inventory(self):
        pts = PLAN.points(4)
        assert len(pts) == 4 + 6 + 8
        for i in range(4):
            assert pts[i] == tuple(1 if j == i else 0 for j in range(4))
        for p in pts[10:]:
            assert all(v != 0 and -5 <= v <= 5 for v in p)

    def test_deterministic(self):
        assert SamplePlan(seed=99).points(3) == SamplePlan(seed=99).points(3)
        assert SamplePlan(seed=99).points(3) != SamplePlan(seed=100).points(3)

    @pytest.mark.parametrize("count", [-1, -3])
    def test_negative_random_count_is_refused(self, count):
        with pytest.raises(ValueError):
            SamplePlan(random_count=count)

    @pytest.mark.parametrize("count", [MAX_RANDOM_COUNT + 1, 10**12])
    def test_random_count_over_budget_is_refused(self, count):
        with pytest.raises(ValueError):
            SamplePlan(random_count=count)


class TestEvaluator:
    """The one place a stored space acts on a point keeps the column action ``S @ x``."""

    def test_images_are_matvec_on_the_four_dimensional_catalog(self):
        fresh = PLAN.fresh_points(4, 20)
        assert any(0 in x for x in fresh)  # zero coordinates off the basis points too
        points = PLAN.points(4) + fresh
        for key in catalog.four_dimensional_keys():
            alg = catalog.get(key)
            for space in (derivations(alg), half_derivations(alg)):
                matrices = space.matrices()
                for x in points:
                    assert _images(space.space.basis, x, 4) == [m.matvec(x) for m in matrices], key

    @pytest.mark.parametrize("point", [(1, 0), (1, 0, 0, 0, 0)])
    def test_wrong_length_points_raise(self, point):
        space = derivations(catalog.get("L_{1,4}"))
        with pytest.raises(ValueError):
            evaluation_subspace(space, point)
        with pytest.raises(ValueError):
            kernel_rank(space, point)


class TestEvaluationSubspace:
    def test_zero_point(self):
        space = derivations(catalog.get("L_{1,4}"))
        assert evaluation_subspace(space, (0, 0, 0, 0)).rank == 0

    def test_L14_at_e3(self):
        space = derivations(catalog.get("L_{1,4}"))
        w = evaluation_subspace(space, (0, 0, 1, 0))
        assert w.rank == 2
        assert w == SubspaceBasis.from_generators(4, [(1, -1, 1, 0), (0, 0, 0, 1)])

    def test_L14_at_e1(self):
        space = derivations(catalog.get("L_{1,4}"))
        assert evaluation_subspace(space, (1, 0, 0, 0)).rank == 0

    def test_dimension_mismatch(self):
        space = derivations(catalog.get("L_{1,4}"))
        with pytest.raises(ValueError):
            evaluation_subspace(space, (1, 0))


class TestLocalClosure:
    def test_L11_certifies(self):
        alg = catalog.get("L_{1,1}")
        res = local_closure(alg, derivations(alg), PLAN)
        assert res.certified
        assert res.candidate_rank == 6
        assert res.witness is None

    def test_halfder_rank_one_collapse(self):
        for key in ("A_alpha", "B"):
            alg = catalog.get(key)
            res = local_closure(alg, half_derivations(alg), PLAN)
            assert res.certified and res.candidate_rank == 1

    def test_noncollapsing_cases_have_witnesses(self):
        # these two algebras genuinely carry local-but-not-member matrices
        for key, expected_candidate in (("L_{1,2}", 6), ("C~_1", 5)):
            alg = catalog.get(key)
            res = local_closure(alg, derivations(alg), PLAN)
            assert not res.certified
            assert res.candidate_rank == expected_candidate
            assert res.witness is not None
            verdict = is_local_member(alg, derivations(alg), res.witness, PLAN)
            assert verdict.status == LOCAL_ON_SAMPLES

    def test_monotone_refinement(self):
        alg = catalog.get("L_{1,2}")
        der = derivations(alg)
        lean = local_closure(alg, der, SamplePlan(random_count=0))
        rich = local_closure(alg, der, SamplePlan(random_count=30))
        assert lean.candidate_rank >= rich.candidate_rank
        assert rich.candidate.is_subspace_of(lean.candidate)

    def test_determinism(self):
        alg = catalog.get("L_{1,5}")
        der = derivations(alg)
        assert local_closure(alg, der, PLAN) == local_closure(alg, der, PLAN)

    def test_soundness_recheck(self):
        alg = catalog.get("L_{1,1}")
        res = local_closure(alg, derivations(alg), PLAN)
        assert recheck_certification(alg, res, points=120, plan=PLAN)


class TestLocalMembership:
    def test_members_are_certified(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        for m in der.matrices():
            assert is_local_member(alg, der, m, PLAN).status == LOCAL_CERTIFIED

    def test_zero_map_is_certified(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        assert is_local_member(alg, der, Matrix.zeros(4, 4), PLAN).status == LOCAL_CERTIFIED

    def test_not_local_with_witness(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        stray = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        verdict = is_local_member(alg, der, stray, PLAN)
        assert verdict.status == NOT_LOCAL
        assert verdict.witness == (1, 0, 0, 0)


class TestSeparatingVectors:
    def test_L14_separates_at_e3(self):
        der = derivations(catalog.get("L_{1,4}"))
        cert = separating_vector(der, PLAN.points(4))
        assert cert is not None
        assert cert.point == (0, 0, 1, 0)
        assert cert.kernel_rank == 0

    def test_L23_separates_at_e4(self):
        der = derivations(catalog.get("L_{2,3}"))
        cert = separating_vector(der, PLAN.points(4))
        assert cert is not None
        assert cert.point == (0, 0, 0, 1)

    def test_L11_cannot_separate(self):
        der = derivations(catalog.get("L_{1,1}"))
        assert der.rank == 6 > 4
        assert separating_vector(der, PLAN.points(4)) is None

    def test_kernel_rank_values(self):
        der = derivations(catalog.get("L_{1,4}"))
        assert kernel_rank(der, (0, 0, 1, 0)) == 0
        assert kernel_rank(der, (1, 0, 0, 0)) == 2


class TestTwoLocalReports:
    @pytest.mark.parametrize(
        "key", ["L_{1,3}", "L_{1,4}", "L_{1,7}", "L_{1,8}", "L_{2,2}", "L_{2,3}", "L_{2,4}", "F_{1,alpha}"]
    )
    def test_reference_list_is_rigid(self, key):
        alg = catalog.get(key)
        report = two_local_report(alg, derivations(alg), PLAN)
        assert report.verdict == RIGID
        assert report.certificate is not None and report.certificate.kernel_rank == 0

    def test_L11_inconclusive(self):
        alg = catalog.get("L_{1,1}")
        report = two_local_report(alg, derivations(alg), PLAN)
        assert report.verdict == INCONCLUSIVE
        assert report.min_kernel_rank == 3

    def test_halfder_rigidity_of_simple_3d(self):
        for key in ("A_alpha", "B", "C_alpha"):
            alg = catalog.get(key)
            report = two_local_report(alg, half_derivations(alg), PLAN)
            assert report.verdict == RIGID


class TestAffineClosure:
    def test_L11_family(self):
        alg = catalog.get("L_{1,1}")
        res = affine_local_closure(alg, automorphism_family_L11(), PLAN)
        assert res.matches_family_hull
        assert res.functional_value({(0, 0): 1}) == 1
        assert res.functional_value({(1, 1): 1}) == 1
        assert res.functional_value({(3, 3): 1}) == 1
        assert res.functional_value({(0, 2): 1, (1, 2): 1}) == 0
        assert res.functional_value({(0, 2): 1, (2, 2): -1}) == -1
        # off-pattern entries are pinned to zero
        assert res.functional_value({(0, 1): 1}) == 0
        assert res.functional_value({(3, 0): 1}) == 0
        # the free directions are not constant
        assert res.functional_value({(3, 2): 1}) is None

    def test_L23_family(self):
        alg = catalog.get("L_{2,3}")
        res = affine_local_closure(alg, automorphism_family_L23(), PLAN)
        assert res.matches_family_hull
        assert res.functional_value({(3, 3): 1}) is None  # b44 stays free
        assert any("1 + t2 != 0" in c for c in res.caveats)

    def test_identity_only_family(self):
        alg = catalog.get("L_{1,1}")
        family = AffineFamily(base=Matrix.identity(4), directions=())
        res = affine_local_closure(alg, family, PLAN)
        assert res.matches_family_hull
        assert res.directions.rank == 0
        assert res.particular == Matrix.identity(4)

    def test_closure_never_loses_the_family_itself(self):
        alg = catalog.get("L_{2,3}")
        family = automorphism_family_L23()
        res = affine_local_closure(alg, family, PLAN)
        realized = family.realized({"t1": Fraction(5, 2), "t2": -3})
        diff = tuple(
            a - b
            for a, b in zip(vectorize_map(realized), vectorize_map(res.particular))
        )
        assert res.directions.contains(diff)


def test_local_engine_needs_no_dense_elimination(monkeypatch):
    """Every local analysis is sparse elimination: it runs with ``linalg.rref`` disabled."""
    l11, l12 = catalog.get("L_{1,1}"), catalog.get("L_{1,2}")
    der11, der12 = derivations(l11), derivations(l12)
    family = automorphism_family_L11()

    def refuse(*_):
        raise AssertionError("dense rref called")

    monkeypatch.setattr(linalg, "rref", refuse)
    certified = local_closure(l11, der11, PLAN)
    assert certified.certified
    assert recheck_certification(l11, certified, points=20, plan=PLAN)
    witnessed = local_closure(l12, der12, PLAN)
    assert is_local_member(l12, der12, witnessed.witness, PLAN).status == LOCAL_ON_SAMPLES
    assert two_local_report(l11, der11, PLAN).verdict == INCONCLUSIVE
    assert affine_local_closure(l11, family, PLAN).matches_family_hull
