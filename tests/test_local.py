"""Local and 2-local analysis engine."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from omega_lie import catalog, local
from omega_lie.algebra import OmegaAlgebra
from omega_lie.linalg import Matrix, SubspaceBasis, _integral, _to_sparse
from omega_lie.local import (
    _images,
    _walk,
    MAX_RANDOM_COUNT,
    RANDOM_POINTS,
    EXCEEDS_FAMILY_HULL,
    INCONCLUSIVE,
    LOCAL_CERTIFIED,
    LOCAL_ON_SAMPLES,
    NOT_LOCAL,
    RIGID,
    AffineCondition,
    AffineFamily,
    LocalClosureResult,
    SamplePlan,
    affine_local_closure,
    is_local_member,
    kernel_rank,
    local_closure,
    recheck_certification,
    two_local_report,
)
from omega_lie.solvers import SolutionSpace, biderivations, derivations, half_derivations, vectorize_map
from omega_lie.verification import automorphism_family_L11, automorphism_family_L23
from oracle import gauss_jordan, matvec, realized

PLAN = SamplePlan()


def span_at(space, x):
    """``W(x)`` of ``space`` at one point, through ``_walk``, the one caller of ``_span_at``."""
    return next(_walk(space.space, [x], space.algebra.dim))[2]


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

    def test_fresh_points_are_pinned(self):
        # recheck_certification draws from this stream; its seed is (seed << 4) ^ 1
        assert PLAN.fresh_points(2, 3) == (
            (Fraction(6, 7), Fraction(-5, 9)),
            (Fraction(-5, 9), Fraction(4)),
            (Fraction(-1), Fraction(0)),
        )
        assert SamplePlan(seed=7).fresh_points(3, 1) == ((Fraction(-9, 5), Fraction(-9, 8), Fraction(4, 3)),)

    def test_the_random_count_is_not_a_setting(self):
        # every plan draws eight random points; the field that set the count is gone
        with pytest.raises(TypeError):
            SamplePlan(random_count=3)
        with pytest.raises(TypeError):
            SamplePlan(7, 3)  # the count was the second positional field

    @pytest.mark.parametrize("seed", [0xC0FFEE, 0, 7, 5, 2**70])
    def test_every_plan_draws_eight_random_points(self, seed):
        assert RANDOM_POINTS == 8
        plan = SamplePlan(seed=seed)
        for n in range(6):
            pts = plan.points(n)
            assert len(pts) == n + n * (n - 1) // 2 + RANDOM_POINTS
            assert all(len(p) == n for p in pts)

    @pytest.mark.parametrize("seed", [True, 2.5, "7", [1]])
    def test_seed_that_is_not_an_integer_is_refused(self, seed):
        # True used to give seed 1's plan, 2.5 and "7" failed only in fresh_points, [1] inside random.Random
        with pytest.raises(ValueError, match=re.escape(f"seed must be an int, got {seed!r}")):
            SamplePlan(seed=seed)

    @pytest.mark.parametrize("seed", [-1, -5, -0xC0FFEE])
    def test_negative_seed_is_refused(self, seed):
        # the plan's stream would lose the sign and draw the points of -seed, while fresh_points differed
        assert random.Random(seed).getstate() == random.Random(-seed).getstate()
        with pytest.raises(ValueError, match=re.escape(f"seed must not be negative, got {seed}")):
            SamplePlan(seed=seed)


class TestEvaluator:
    """The one place a stored space acts on a point keeps the column action ``S @ x``."""

    def test_images_are_matvec_on_the_four_dimensional_catalog(self):
        fresh = PLAN.fresh_points(4, 20)
        assert any(0 in x for x in fresh)  # zero coordinates off the basis points too
        points = PLAN.points(4) + fresh
        for key in catalog.four_dimensional_keys():
            alg = catalog.get(key)
            for space in (derivations(alg), half_derivations(alg)):
                matrices = space.elements()
                rows = [_to_sparse(s) for s in space.space.basis]
                for x in points:
                    expected = [{k: v for k, v in enumerate(matvec(m.rows, x)) if v} for m in matrices]
                    assert _images(rows, _to_sparse(x), 4) == expected, key

    @pytest.mark.parametrize("point", [(1, 0), (1, 0, 0, 0, 0)])
    def test_wrong_length_points_raise(self, point):
        space = derivations(catalog.get("L_{1,4}"))
        with pytest.raises(ValueError, match="point must have length 4"):
            span_at(space, point)
        with pytest.raises(ValueError, match="point must have length 4"):
            kernel_rank(space, point)


class TestSpanAt:
    def test_zero_point(self):
        space = derivations(catalog.get("L_{1,4}"))
        assert span_at(space, (0, 0, 0, 0)).rank == 0

    def test_L14_at_e3(self):
        space = derivations(catalog.get("L_{1,4}"))
        w = span_at(space, (0, 0, 1, 0))
        assert w.rank == 2
        assert w.span() == SubspaceBasis.from_generators(4, [(1, -1, 1, 0), (0, 0, 0, 1)])

    def test_L14_at_e1(self):
        space = derivations(catalog.get("L_{1,4}"))
        assert span_at(space, (1, 0, 0, 0)).rank == 0

    def test_dimension_mismatch(self):
        space = derivations(catalog.get("L_{1,4}"))
        with pytest.raises(ValueError, match="point must have length 4"):
            span_at(space, (1, 0))


def _catalog_inputs():
    """The derivation and half-derivation spaces of the four-dimensional catalog, at plan, fresh and zero points."""
    points = PLAN.points(4) + PLAN.fresh_points(4, 12) + ((0, 0, 0, 0),)
    for key in catalog.four_dimensional_keys():
        alg = catalog.get(key)
        for space in (derivations(alg), half_derivations(alg)):
            yield alg, space, points


def _scan_inputs():
    """The fractional bases of ``_scan_cases`` at their points: zero, mixed denominators, numerators above 2**31."""
    for space, _, points in _scan_cases():
        yield space.algebra, space, points


@pytest.mark.parametrize("inputs", [_catalog_inputs, _scan_inputs], ids=["catalog", "scan_cases"])
def test_kernel_rank_matches_the_oracle(inputs):
    """``kernel_rank``, and each rank ``two_local_report`` scans, is the space's rank minus the dense rank of its images."""
    for alg, space, points in inputs():
        n = alg.dim
        matrices = [[s[k * n : (k + 1) * n] for k in range(n)] for s in space.space.basis]

        def expected(x):
            return space.rank - len(gauss_jordan([matvec(m, x) for m in matrices], n)[1])

        for x in points:
            assert kernel_rank(space, x) == expected(x), (space.space.basis, x)
        report = two_local_report(alg, space, PLAN)
        for e, rank in report.kernel_ranks:
            assert rank == kernel_rank(space, e) == expected(e), (space.space.basis, e)
        if report.verdict == RIGID:  # the certificate is the first plan point that separates
            plan_points = PLAN.points(n)
            first = plan_points.index(report.certificate.point)
            assert [expected(e) == 0 for e in plan_points[: first + 1]] == [False] * first + [True]


@pytest.mark.parametrize(
    "call",
    [
        lambda alg, b: local_closure(alg, b, PLAN),
        lambda alg, b: two_local_report(alg, b, PLAN),
        lambda alg, b: kernel_rank(b, (1, 0, 0, 0)),
        lambda alg, b: is_local_member(alg, b, Matrix.identity(4), PLAN),
        lambda alg, b: recheck_certification(alg, LocalClosureResult(b, b.space, True, ()), points=5, plan=PLAN),
    ],
    ids=["local_closure", "two_local_report", "kernel_rank", "is_local_member", "recheck_certification"],
)
def test_a_space_of_bilinear_maps_is_refused(call):
    """A space whose ambient is not n**2 is not read as matrices: every local entry point refuses it."""
    alg = catalog.get("L_{1,4}")
    bider = biderivations(alg)
    assert bider.space.ambient_dim == 64
    with pytest.raises(ValueError, match="ambient 64"):
        call(alg, bider)


class TestLocalClosure:
    def test_L11_certifies(self):
        alg = catalog.get("L_{1,1}")
        res = local_closure(alg, derivations(alg), PLAN)
        assert res.certified
        assert res.candidate.rank == 6
        assert res.witness is None

    def test_halfder_rank_one_collapse(self):
        for key in ("A_alpha", "B"):
            alg = catalog.get(key)
            res = local_closure(alg, half_derivations(alg), PLAN)
            assert res.certified and res.candidate.rank == 1

    def test_noncollapsing_cases_have_witnesses(self):
        # these two algebras genuinely carry local-but-not-member matrices
        for key, expected_candidate in (("L_{1,2}", 6), ("C~_1", 5)):
            alg = catalog.get(key)
            res = local_closure(alg, derivations(alg), PLAN)
            assert not res.certified
            assert res.candidate.rank == expected_candidate
            assert res.witness is not None
            verdict = is_local_member(alg, derivations(alg), res.witness, PLAN)
            assert verdict.status == LOCAL_ON_SAMPLES

    def test_monotone_refinement(self):
        # more samples never enlarge the closure: over nested prefixes of one sample list it only shrinks
        alg = catalog.get("L_{1,7}")
        der = derivations(alg)
        samples = PLAN.points(4) + PLAN.fresh_points(4, 30)  # basis, pairwise sums, 8 randoms, 30 fresh
        closures = [local._closure(4, samples[:k], der.space) for k in (0, 4, 10, 18, len(samples))]
        for lean, rich in zip(closures, closures[1:]):
            assert rich.is_subspace_of(lean)
        assert [c.rank for c in closures] == [16, 5, 4, 3, 3]  # each block of the plan cuts the candidate
        assert closures[3] == local_closure(alg, der, PLAN).candidate == der.space

    def test_determinism(self):
        alg = catalog.get("L_{1,5}")
        der = derivations(alg)
        assert local_closure(alg, der, PLAN) == local_closure(alg, der, PLAN)

    def test_soundness_recheck(self, monkeypatch):
        # the candidate of a certified closure is the base, decided by containment alone
        alg = catalog.get("L_{1,1}")
        res = local_closure(alg, derivations(alg), PLAN)
        assert res.certified

        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(SamplePlan, "fresh_points", no_scan)
        monkeypatch.setattr(local, "_escape", no_scan)
        assert recheck_certification(alg, res, points=120, plan=PLAN) is True

    @pytest.mark.parametrize("points", [0, -3, MAX_RANDOM_COUNT + 1, True, 2.5, 5.0, "5", None])
    def test_recheck_refuses_point_counts_out_of_range(self, monkeypatch, points):
        # zero or negative counts used to pass without checking a single point,
        # True checked one point, and 2.5 failed late inside range()
        alg = catalog.get("L_{1,1}")
        res = local_closure(alg, derivations(alg), PLAN)

        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(local, "_escape", no_scan)
        with pytest.raises(ValueError, match=re.escape(f"points must be between 1 and {MAX_RANDOM_COUNT}, got {points}")):
            recheck_certification(alg, res, points=points, plan=PLAN)


def _old_recheck(res, points, plan):
    """The recheck as a plain scan of every candidate row at the fresh points."""
    n = res.base.algebra.dim
    return local._escape(res.base, list(res.candidate.rows.values()), plan.fresh_points(n, points)) is None


@pytest.mark.parametrize("points", [1, 20])
@pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(seed=7)])
def test_recheck_agrees_with_a_scan_of_every_row(plan, points):
    """Containment first gives the full scan's answer on every catalog closure, certified or not."""
    uncertified = 0
    for key in (entry.key for entry in catalog.list_entries()):
        alg = catalog.get(key)
        for solver in (derivations, half_derivations):
            res = local_closure(alg, solver(alg), plan)
            uncertified += not res.certified
            assert recheck_certification(alg, res, points=points, plan=plan) == _old_recheck(res, points, plan), key
    assert uncertified > 0  # some closures keep rows outside the base, so the scan runs


@pytest.mark.parametrize("key", ["L_{1,1}", "B", "L_{1,2}"])
@pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(seed=7)])
def test_recheck_fails_a_fabricated_certificate(key, plan):
    """A candidate with the identity added to the derivations is caught by both the recheck and the full scan."""
    alg = catalog.get(key)
    der = derivations(alg)
    n = alg.dim
    candidate = SubspaceBasis.from_generators(n * n, der.space.basis + (vectorize_map(Matrix.identity(n)),))
    res = LocalClosureResult(der, candidate, True, ())
    assert recheck_certification(alg, res, points=20, plan=plan) is False
    assert _old_recheck(res, 20, plan) is False


class TestLocalMembership:
    def test_members_are_certified(self, monkeypatch):
        # a member is decided by containment, before any point is scanned
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)

        def no_scan(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(local, "_escape", no_scan)
        for m in der.elements():
            assert is_local_member(alg, der, m, PLAN).status == LOCAL_CERTIFIED

    def test_zero_map_is_certified(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        assert is_local_member(alg, der, Matrix.from_rows([[0] * 4] * 4), PLAN).status == LOCAL_CERTIFIED

    def test_not_local_with_witness(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        stray = Matrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        verdict = is_local_member(alg, der, stray, PLAN)
        assert verdict.status == NOT_LOCAL
        assert verdict.witness == (1, 0, 0, 0)


class TestSeparatingVectors:
    def test_L14_separates_at_e3(self):
        alg = catalog.get("L_{1,4}")
        cert = two_local_report(alg, derivations(alg), PLAN).certificate
        assert cert is not None
        assert cert.point == (0, 0, 1, 0)
        assert cert.kernel_rank == 0

    def test_L23_separates_at_e4(self):
        alg = catalog.get("L_{2,3}")
        cert = two_local_report(alg, derivations(alg), PLAN).certificate
        assert cert is not None
        assert cert.point == (0, 0, 0, 1)

    def test_L11_cannot_separate(self):
        alg = catalog.get("L_{1,1}")
        der = derivations(alg)
        assert der.rank == 6 > 4
        assert two_local_report(alg, der, PLAN).certificate is None

    def test_kernel_rank_values(self):
        der = derivations(catalog.get("L_{1,4}"))
        assert kernel_rank(der, (0, 0, 1, 0)) == 0
        assert kernel_rank(der, (1, 0, 0, 0)) == 2
        assert kernel_rank(der, ("0", "0", "1/2", "0")) == 0  # coordinates are read like every other input
        with pytest.raises(TypeError):
            kernel_rank(der, (0.0, 0.0, 1.0, 0.0))


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

    @pytest.mark.parametrize(
        "key, solver, ranks",
        [
            ("L_{1,1}", half_derivations, [2, 2, 1, 1, 2, 1] + [1] * 12),
            ("C~_1", derivations, [4, 2, 2, 3, 2, 2, 3, 2] + [1] * 10),
        ],
    )
    def test_one_kernel_rank_per_candidate(self, key, solver, ranks):
        # no candidate separates although the space rank is at most dim 4
        alg = catalog.get(key)
        space = solver(alg)
        assert space.rank <= 4
        report = two_local_report(alg, space, PLAN)
        assert report.verdict == INCONCLUSIVE
        assert [e for e, _ in report.kernel_ranks] == list(PLAN.points(4))
        assert [r for _, r in report.kernel_ranks] == ranks
        assert report.min_kernel_rank == 1

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

    @pytest.mark.parametrize("position", [(0, 4), (-1, 0), (4, 0), (0, -1)])
    def test_a_position_outside_the_matrix_is_refused(self, position):
        res = affine_local_closure(catalog.get("L_{2,3}"), automorphism_family_L23(), PLAN)
        with pytest.raises(ValueError, match="outside the 4 x 4 matrix"):
            res.functional_value({(3, 3): 1, position: 1})

    def test_identity_only_family(self):
        alg = catalog.get("L_{1,1}")
        family = AffineFamily(base=Matrix.identity(4), directions=())
        res = affine_local_closure(alg, family, PLAN)
        assert res.matches_family_hull
        assert res.directions.rank == 0
        assert res.particular == Matrix.identity(4)

    @pytest.mark.parametrize(
        "names, conditions",
        [
            (("t", "t"), ()),
            (("t1", 2), ()),
            (("t1", "t2"), (AffineCondition.make(1, {"zz": 1}),)),
        ],
    )
    def test_family_parameters_are_declared_once(self, names, conditions):
        family = automorphism_family_L11()
        with pytest.raises(ValueError):
            AffineFamily(family.base, family.directions, conditions, names)

    def test_family_of_derivations_exceeds_its_hull(self):
        # L_{1,2} has local derivations outside its derivation space, so the
        # closure of identity + span(derivations) is larger than that span
        alg = catalog.get("L_{1,2}")
        family = AffineFamily(base=Matrix.identity(4), directions=derivations(alg).elements())
        res = affine_local_closure(alg, family, PLAN)
        assert res.comparison == EXCEEDS_FAMILY_HULL
        assert not res.matches_family_hull
        assert res.directions.rank == 6
        assert family.hull_directions().rank == 4
        assert family.hull_directions().is_subspace_of(res.directions)

    def test_closure_never_loses_the_family_itself(self):
        alg = catalog.get("L_{2,3}")
        family = automorphism_family_L23()
        res = affine_local_closure(alg, family, PLAN)
        member = realized(family, {"t1": Fraction(5, 2), "t2": -3})
        diff = tuple(
            a - b
            for a, b in zip(vectorize_map(member), vectorize_map(res.particular))
        )
        assert res.directions.contains(diff)


def _random_rational(rng, big=False):
    top = 2**40 if big else 9
    return Fraction(rng.randint(-top, top), rng.randint(1, 12))


def _scan_case(rng, n):
    """A space with fractional basis rows, matrices inside and outside it, and points to scan.

    An outside matrix is an inside one with one column ``j`` moved, so it
    can only escape at points with ``x_j != 0``; sparse points then put
    escapes after the first few points.
    """
    size = n * n
    generators = [
        [_random_rational(rng) if rng.random() < 0.6 else 0 for _ in range(size)] for _ in range(rng.randint(0, 4))
    ]
    algebra = OmegaAlgebra.from_tables("abelian", n, {}, {})
    space = SolutionSpace(algebra, "probe", SubspaceBasis.from_generators(size, generators))

    def inside():
        return [sum((_random_rational(rng) * row[i] for row in space.space.basis), Fraction(0)) for i in range(size)]

    vectors = [tuple(inside()) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2) if n else 0):
        moved, j = inside(), rng.randrange(n)
        for k in range(n):
            moved[k * n + j] += _random_rational(rng)
        vectors.append(tuple(moved))
    rng.shuffle(vectors)
    points = [tuple(Fraction(0) for _ in range(n))]  # every S x lies in W(0)
    for _ in range(6):
        big = rng.random() < 0.3
        points.append(tuple(_random_rational(rng, big) if rng.random() < 0.6 else Fraction(0) for _ in range(n)))
    return space, vectors, points


def _reference_escape(space, vectors, points):
    """The first escaping point, decided by the oracle's dense Gauss-Jordan elimination over Fractions.

    ``S x`` lies in ``W(x)`` exactly when adding it to the basis images leaves the rank unchanged.
    """
    n = space.algebra.dim

    def image(s, x):
        return matvec([s[k * n : (k + 1) * n] for k in range(n)], x)

    def rank(rows):
        return len(gauss_jordan(rows, n)[1])

    for x in points:
        span = [image(s, x) for s in space.space.basis]
        if any(rank(span + [image(v, x)]) > rank(span) for v in vectors):
            return x
    return None


def _scan_cases():
    rng = random.Random(0x5CA7)
    return [_scan_case(rng, n) for n in range(6) for _ in range(40)]


def test_integer_scan_equals_the_fraction_reference():
    escapes = late = 0
    for space, vectors, points in _scan_cases():
        expected = _reference_escape(space, vectors, points)
        found = local._escape(space, [_integral(_to_sparse(v)) for v in vectors], points)
        assert found is expected, (space.space.basis, vectors, points)
        escapes += found is not None
        late += found is not None and found is not points[1]
    assert escapes >= 50 and late >= 10  # escapes occur, and not only at the first nonzero point


def test_integer_scan_cases_cover_the_hard_inputs():
    cases = _scan_cases()
    assert {space.algebra.dim for space, _, _ in cases} == set(range(6))
    assert any(v.denominator > 1 for space, _, _ in cases for row in space.space.basis for v in row)
    points = [x for _, _, pts in cases for x in pts]
    assert any(len({v.denominator for v in x if v}) > 1 for x in points)  # mixed denominators
    assert any(abs(v.numerator) > 2**31 for x in points for v in x)


@pytest.mark.parametrize("check", ["is_local_member", "recheck_certification", "two_local_report"])
def test_a_space_of_another_dimension_is_refused(check):
    """Derivations of a 4-dimensional algebra analysed over the 3-dimensional ``B``."""
    algebra, l11 = catalog.get("B"), catalog.get("L_{1,1}")
    space = derivations(l11)
    calls = {
        "is_local_member": lambda: is_local_member(algebra, space, Matrix.identity(3), PLAN),
        "recheck_certification": lambda: recheck_certification(algebra, local_closure(l11, space, PLAN), 5, PLAN),
        "two_local_report": lambda: two_local_report(algebra, space, PLAN),
    }
    with pytest.raises(ValueError, match="space and algebra dimensions differ"):
        calls[check]()


def _property_families():
    l12 = catalog.get("L_{1,2}")
    yield catalog.get("L_{1,1}"), automorphism_family_L11()
    yield catalog.get("L_{2,3}"), automorphism_family_L23()
    yield l12, AffineFamily(base=Matrix.identity(4), directions=derivations(l12).elements())


@pytest.mark.parametrize("plan", [SamplePlan(), SamplePlan(seed=7)])
def test_affine_closure_is_the_base_plus_a_linear_closure(plan):
    """The directions are the local closure of their span; the particular is the base moved inside it."""
    for alg, family in _property_families():
        res = affine_local_closure(alg, family, plan)
        hull = SolutionSpace(alg, "family", family.hull_directions())
        assert res.directions == local_closure(alg, hull, plan).candidate
        shift = tuple(p - b for p, b in zip(vectorize_map(res.particular), vectorize_map(family.base)))
        assert res.directions.contains(shift)


def _text(value) -> str:
    """Canonical text of a local-engine result: nested tuples of exact scalars."""
    if value is None or isinstance(value, (bool, int, str, Fraction)):
        return str(value)
    if isinstance(value, Matrix):
        return _text(value.rows)
    if isinstance(value, SubspaceBasis):
        return _text(value.basis)
    return "(" + ",".join(_text(v) for v in value) + ")"


def _local_engine_lines():
    for key in (entry.key for entry in catalog.list_entries()):
        alg = catalog.get(key)
        for solver in (derivations, half_derivations):
            space = solver(alg)
            for plan in (SamplePlan(), SamplePlan(seed=7)):
                res = local_closure(alg, space, plan)
                yield _text((key, solver.__name__, plan.seed, res.candidate, res.certified, len(res.samples_used), res.witness))
                report = two_local_report(alg, space, plan)
                cert = report.certificate
                yield _text((report.verdict, cert and cert.point, report.min_kernel_rank, report.kernel_ranks))
                if res.certified:
                    yield _text((recheck_certification(alg, res, points=50, plan=plan),))
                else:
                    verdict = is_local_member(alg, space, res.witness, plan)
                    yield _text((verdict.status, verdict.witness))
    for plan in (SamplePlan(), SamplePlan(seed=7)):
        for key, family in (("L_{1,1}", automorphism_family_L11()), ("L_{2,3}", automorphism_family_L23())):
            res = affine_local_closure(catalog.get(key), family, plan)
            yield _text((key, res.particular, res.directions, res.comparison, res.caveats, len(res.samples_used)))


def test_local_engine_golden_hash():
    """Every local-engine answer on the catalog, at two plans, is pinned bit for bit."""
    digest = hashlib.sha256("\n".join(_local_engine_lines()).encode()).hexdigest()
    assert digest == "929cc08daf2f6b274ade94cbd9761824be396a8afe67d358bbb63acf1b3a93b2"
