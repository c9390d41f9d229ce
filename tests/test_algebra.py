"""Algebra core: axioms, bracket utilities, predicates, serialization."""

import random
from fractions import Fraction

import pytest

from omega_lie import catalog
from omega_lie.algebra import (
    MAX_DIM,
    AlgebraFormatError,
    LinearMap,
    OmegaAlgebra,
    OmegaKillingWarning,
    adjoint,
    center,
    check_axioms,
    direct_sum,
    dumps,
    is_anti_automorphism,
    is_automorphism,
    is_semisimple_lie,
    killing_form,
    loads,
)
from omega_lie.linalg import Matrix
from omega_lie.verification import automorphism_family_L11


def abelian(n):
    return OmegaAlgebra.from_tables(f"abelian{n}", n, {}, {})


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


class TestBracketAndOmega:
    def test_L1_bracket_table(self):
        alg = catalog.get("L_1")
        e = alg.basis_vectors()
        assert alg.bracket(e[0], e[1]) == e[1]          # [e1,e2] = e2
        assert alg.bracket(e[1], e[2]) == e[2]          # [e2,e3] = e3
        assert alg.bracket(e[0], e[2]) == (0, 0, 0)     # [e1,e3] = 0

    def test_B_bracket_table(self):
        alg = catalog.get("B")
        e = alg.basis_vectors()
        assert alg.bracket(e[1], e[2]) == e[0]          # [e2,e3] = e1
        assert alg.bracket(e[0], e[2]) == (0, 1, 1)     # [e1,e3] = e2 + e3

    def test_alternating_on_random_vectors(self):
        rng = random.Random(3)
        alg = catalog.get("L_{1,6}")
        for _ in range(25):
            x = rand_vec(rng, 4)
            assert alg.bracket(x, x) == (0, 0, 0, 0)

    def test_bilinearity_on_random_vectors(self):
        rng = random.Random(5)
        alg = catalog.get("H_{1,alpha}")
        for _ in range(25):
            x, x2, y = (rand_vec(rng, 4) for _ in range(3))
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            lhs = alg.bracket(tuple(a + lam * b for a, b in zip(x, x2)), y)
            rhs = tuple(
                u + lam * v for u, v in zip(alg.bracket(x, y), alg.bracket(x2, y))
            )
            assert lhs == rhs

    def test_omega_values(self):
        c2 = catalog.get("C_alpha", {"alpha": 2})
        e = c2.basis_vectors()
        assert c2.omega_form(e[1], e[2]) == 3           # 1 + alpha at alpha=2
        l11 = catalog.get("L_{1,1}")
        f = l11.basis_vectors()
        assert l11.omega_form(f[0], f[1]) == 1
        assert l11.omega_form(f[0], f[2]) == 0

    def test_omega_alternating(self):
        rng = random.Random(7)
        alg = catalog.get("G_{1,alpha}")
        for _ in range(25):
            x = rand_vec(rng, 4)
            assert alg.omega_form(x, x) == 0

    def test_dimension_mismatch(self):
        alg = catalog.get("B")
        with pytest.raises(ValueError):
            alg.bracket((1, 0), (0, 1, 0))
        with pytest.raises(ValueError):
            alg.omega_form((1, 0, 0, 0), (0, 1, 0, 0))


class TestAxioms:
    def test_all_catalog_instances_pass(self):
        for entry in catalog.list_entries():
            for sample in entry.parameter_samples():
                params = {"alpha": sample} if sample is not None else None
                report = check_axioms(entry.build(params))
                assert report.passed, (entry.key, sample, report.failing_triples())

    def test_lie_fixtures_have_zero_form(self):
        assert check_axioms(catalog.get("sl2")).omega_is_zero
        assert check_axioms(catalog.get("sl2_plus_sl2")).omega_is_zero
        assert not check_axioms(catalog.get("L_{1,1}")).omega_is_zero

    def test_perturbed_omega_breaks_the_identity(self):
        broken = catalog.get("L_{1,1}").with_omega_entry(1, 2, 2)
        report = check_axioms(broken)
        assert not report.passed
        assert (1, 2, 3) in report.failing_triples()
        # the (1,2,3) defect is the old identity value minus the doubled weight
        defect = next(d for d in report.defects if d.triple == (1, 2, 3))
        assert defect.defect == (0, 0, -1, 0)

    def test_zero_form_defect_is_plain_jacobi(self):
        alg = catalog.get("sl2")
        report = check_axioms(alg)
        e = alg.basis_vectors()
        for d in report.defects:
            i, j, k = (idx - 1 for idx in d.triple)
            jacobi = tuple(
                a + b + c
                for a, b, c in zip(
                    alg.bracket(alg.bracket(e[i], e[j]), e[k]),
                    alg.bracket(alg.bracket(e[j], e[k]), e[i]),
                    alg.bracket(alg.bracket(e[k], e[i]), e[j]),
                )
            )
            assert d.defect == jacobi == (0, 0, 0)


class TestAdjointKillingCenter:
    def test_adjoint_of_zero(self):
        alg = catalog.get("B")
        assert adjoint(alg, (0, 0, 0)).matrix.is_zero()

    def test_adjoint_matches_bracket(self):
        rng = random.Random(11)
        alg = catalog.get("L_{2,4}")
        for _ in range(10):
            x, y = rand_vec(rng, 4), rand_vec(rng, 4)
            assert adjoint(alg, x).apply(y) == alg.bracket(x, y)

    def test_sl2_adjoint_of_h_is_diagonal(self):
        sl2 = catalog.get("sl2")
        ad_h = adjoint(sl2, sl2.basis_vector(0))
        assert ad_h.matrix == Matrix.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, -2]])

    def test_L1_adjoint_of_e1(self):
        alg = catalog.get("L_1")
        ad = adjoint(alg, alg.basis_vector(0))
        assert ad.apply(alg.basis_vector(1)) == alg.basis_vector(1)
        assert ad.apply(alg.basis_vector(2)) == (0, 0, 0)

    def test_killing_form_of_sl2(self):
        # trace computations done by hand from the adjoint matrices
        k = killing_form(catalog.get("sl2"))
        assert k == Matrix.from_rows([[8, 0, 0], [0, 0, 4], [0, 4, 0]])

    def test_killing_form_abelian_is_zero(self):
        assert killing_form(abelian(3)).is_zero()

    def test_killing_form_block_diagonal_on_direct_sum(self):
        k = killing_form(catalog.get("sl2_plus_sl2"))
        for i in range(3):
            for j in range(3, 6):
                assert k.entry(i, j) == 0 and k.entry(j, i) == 0
        single = killing_form(catalog.get("sl2"))
        assert all(k.entry(i, j) == single.entry(i, j) for i in range(3) for j in range(3))
        assert all(k.entry(3 + i, 3 + j) == single.entry(i, j) for i in range(3) for j in range(3))

    def test_killing_warns_for_nonzero_form(self):
        with pytest.warns(OmegaKillingWarning):
            killing_form(catalog.get("L_{1,1}"))

    def test_semisimple_predicate(self):
        assert is_semisimple_lie(catalog.get("sl2"))
        assert is_semisimple_lie(catalog.get("sl2_plus_sl2"))
        assert not is_semisimple_lie(abelian(2))
        assert not is_semisimple_lie(catalog.get("L_{1,1}"))

    def test_centers(self):
        assert center(catalog.get("sl2")).rank == 0
        assert center(catalog.get("L_1")).rank == 0
        assert center(abelian(4)).rank == 4
        assert center(catalog.get("sl2_plus_sl2")).rank == 0


class TestDirectSum:
    def test_dimensions_add(self):
        a = catalog.get("B")
        b = catalog.get("L_{1,1}")
        assert direct_sum(a, b).dim == 7

    def test_sum_with_zero_algebra_is_identity(self):
        a = catalog.get("B")
        zero = OmegaAlgebra.from_tables("0", 0, {}, {})
        s = direct_sum(a, zero)
        assert s.structure == a.structure and s.omega == a.omega

    def test_axioms_survive_for_lie_summands(self):
        s = direct_sum(catalog.get("sl2"), catalog.get("sl2"))
        assert check_axioms(s).passed

    def test_nonzero_form_breaks_mixed_triples(self):
        # with x,y in one summand and z in the other, the weighted identity
        # needs omega(x,y) * z = 0, so a summand with nonzero form fails
        s = direct_sum(catalog.get("B"), catalog.get("sl2"))
        report = check_axioms(s)
        assert not report.passed
        assert all(len({*t} & {1, 2, 3}) in (1, 2) for t in report.failing_triples())


class TestAutomorphismPredicates:
    def test_identity_is_automorphism(self):
        alg = catalog.get("L_{1,6}")
        assert is_automorphism(alg, LinearMap.identity(4))
        assert is_automorphism(alg, LinearMap.identity(4), check_omega=True)

    def test_zero_map_is_not(self):
        alg = catalog.get("L_{1,6}")
        assert not is_automorphism(alg, LinearMap.zero(4))

    def test_family_members_are_automorphisms(self):
        alg = catalog.get("L_{1,1}")
        family = automorphism_family_L11()
        for a, b in [(1, 0), (2, 3), (Fraction(-1, 2), 7)]:
            phi = LinearMap(family.realized({"t1": a, "t2": b}))
            assert is_automorphism(alg, phi)
            # this family also preserves the skew form
            assert is_automorphism(alg, phi, check_omega=True)
        # the open condition marks the non-invertible boundary
        boundary = LinearMap(family.realized({"t1": -1, "t2": 0}))
        assert not is_automorphism(alg, boundary)

    def test_omega_check_can_reject(self):
        alg = catalog.get("L_{1,1}")
        doubling = LinearMap(Matrix.identity(4).scale(2))
        # scaling by 2 preserves brackets only on nilpotent directions; on this
        # algebra it is not an automorphism at all
        assert not is_automorphism(alg, doubling)

    def test_anti_automorphisms_on_sl2(self):
        sl2 = catalog.get("sl2")
        neg = LinearMap(Matrix.identity(3).scale(-1))
        assert is_anti_automorphism(sl2, neg)
        assert not is_anti_automorphism(sl2, LinearMap.identity(3))

    def test_identity_is_anti_automorphism_of_abelian(self):
        assert is_anti_automorphism(abelian(3), LinearMap.identity(3))


class TestSerialization:
    def test_round_trip_for_all_catalog_entries(self):
        for entry in catalog.list_entries():
            alg = entry.build(None)
            again = loads(dumps(alg))
            assert again.dim == alg.dim
            assert again.structure == alg.structure
            assert again.omega == alg.omega
            assert again.basis_labels == alg.basis_labels

    def test_bad_documents_are_rejected(self):
        with pytest.raises(AlgebraFormatError):
            loads("not json at all {")
        with pytest.raises(AlgebraFormatError):
            loads('{"dim": 2}')
        with pytest.raises(AlgebraFormatError):
            loads('{"name": "x", "dim": 2, "brackets": [{"i": 2, "j": 1, "coeffs": {"1": "1"}}]}')
        with pytest.raises(AlgebraFormatError):
            loads('{"name": "x", "dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"5": "1"}}]}')
        with pytest.raises(AlgebraFormatError):
            loads('{"name": "x", "dim": 2, "omega": [{"i": 1, "j": 2, "value": "1/0"}]}')

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**12])
    def test_dim_over_budget_is_refused(self, dim):
        # one label: should the budget ever go, the basis check refuses the document without allocating
        with pytest.raises(AlgebraFormatError, match="'dim'"):
            loads(f'{{"name": "huge", "dim": {dim}, "basis": ["e1"]}}')

    def test_unlisted_entries_are_zero(self):
        alg = loads('{"name": "tiny", "dim": 2, "brackets": [], "omega": []}')
        assert alg.bracket((1, 0), (0, 1)) == (0, 0)
        assert alg.omega_form((1, 0), (0, 1)) == 0
