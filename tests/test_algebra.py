"""Algebra core: axioms, direct sums, automorphism predicates, serialization."""

import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from omega_lie import catalog
from omega_lie.algebra import (
    MAX_DIM,
    AlgebraFormatError,
    BilinearMap,
    OmegaAlgebra,
    check_axioms,
    direct_sum,
    dumps,
    from_document,
    is_anti_automorphism,
    is_automorphism,
)
from omega_lie.linalg import Matrix
from omega_lie.verification import automorphism_family_L11
from oracle import oracle_axiom_defects, realized, triple_loop


def abelian(n):
    return OmegaAlgebra.from_tables(f"abelian{n}", n, {}, {})


def scalar_map(n, c):
    return Matrix.from_rows([[c if i == j else 0 for j in range(n)] for i in range(n)])


def random_table(rng, n):
    """A sparse random bracket table with small integer entries and a nonzero skew form."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    brackets = {
        pair: {rng.randint(1, n): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 2))}
        for pair in pairs
        if rng.random() < 0.25
    }
    omega = {pair: rng.choice((-1, 1, 2)) for pair in pairs if rng.random() < 0.15}
    omega.setdefault(rng.choice(pairs), 1)
    return OmegaAlgebra.from_tables(f"random{n}", n, brackets, omega)


def rand_vec(rng, n):
    return tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


# integral values both as int and as Fraction, halves, and zero in both types
MIXED = (0, Fraction(0), 1, -1, 2, Fraction(3), Fraction(1, 2), Fraction(-1, 2), Fraction(-5, 3))


def mixed_point(rng, n):
    """A point with about a third of its coordinates zero and the rest drawn from ``MIXED``."""
    return tuple(rng.choice(MIXED) if rng.random() < 0.7 else 0 for _ in range(n))


def mixed_tensor(rng, n, width):
    return tuple(tuple(tuple(rng.choice(MIXED) for _ in range(width)) for _ in range(n)) for _ in range(n))


def fractions_only(values):
    return all(type(v) is Fraction for v in values)


def mixed_algebra(rng, n):
    """Tables as given, with ``MIXED`` entries and no axiom assumed."""
    structure = mixed_tensor(rng, n, n)
    omega = tuple(tuple(rng.choice(MIXED) for _ in range(n)) for _ in range(n))
    return OmegaAlgebra("mixed", n, structure, omega, tuple(f"e{k}" for k in range(n)))


class TestSupports:
    """The cached supports, read by the evaluators, row assembly and ``to_document``, against a dense scan."""

    @staticmethod
    def check(alg):
        def scanned(table):
            def entries(cell):  # ascending index, an integral value as its int
                return [(k, int if v.denominator == 1 else Fraction, v) for k, v in enumerate(cell) if v]

            return [[entries(cell) for cell in plane] for plane in table]

        def typed(support):
            return [[[(k, type(v), v) for k, v in cell] for cell in plane] for plane in support]

        assert typed(alg._support) == scanned(alg.structure)
        assert typed(alg._form_support) == scanned([[(v,) for v in row] for row in alg.omega])

    def test_every_catalog_instance(self):
        for _, _, alg in catalog.instances():
            self.check(alg)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_seeded_random_tables(self, n):
        rng = random.Random(n)
        for _ in range(20):
            if n >= 2:
                self.check(random_table(rng, n))
            self.check(mixed_algebra(rng, n))


class TestEvaluatorsAgainstTheOracle:
    """``bracket``, ``omega_form`` and ``BilinearMap.apply`` equal a dense triple loop over the whole table."""

    @staticmethod
    def check(alg, x, y):
        n = alg.dim
        bracket = alg.bracket(x, y)
        assert bracket == triple_loop(alg.structure, x, y, n) and fractions_only(bracket)
        form = alg.omega_form(x, y)
        assert form == triple_loop([[(v,) for v in row] for row in alg.omega], x, y, 1)[0]
        assert type(form) is Fraction
        image = BilinearMap(alg.structure).apply(x, y)
        assert image == bracket and fractions_only(image)

    def test_every_catalog_algebra(self):
        rng = random.Random(22)
        instances = 0
        for _, _, alg in catalog.instances():
            instances += 1
            e = alg.basis_vectors()
            for i in range(alg.dim):
                for j in range(alg.dim):
                    self.check(alg, e[i], e[j])
            for _ in range(4):
                self.check(alg, mixed_point(rng, alg.dim), mixed_point(rng, alg.dim))
        assert instances == 43

    @pytest.mark.parametrize("n", range(0, 6))
    def test_seeded_random_tables_with_mixed_entries(self, n):
        rng = random.Random(n)
        for _ in range(20):
            # the evaluators read tables as given: int and Fraction entries, no axiom assumed
            alg = mixed_algebra(rng, n)
            for _ in range(5):
                x, y = mixed_point(rng, n), mixed_point(rng, n)
                self.check(alg, x, y)
                t = mixed_tensor(rng, n, n)
                image = BilinearMap(t).apply(x, y)
                assert image == triple_loop(t, x, y, n) and fractions_only(image)

    def test_integer_arguments_give_fractions(self):
        alg = catalog.get("B")
        assert alg.bracket((0, 1, 0), (0, 0, 1)) == (1, 0, 0)
        assert fractions_only(alg.bracket((0, 1, 0), (0, 0, 1)))
        assert fractions_only(alg.bracket((0, 0, 0), (1, 1, 1)))
        assert type(catalog.get("L_{1,1}").omega_form((1, 0, 0, 0), (0, 1, 0, 0))) is Fraction
        assert type(alg.omega_form((0, 0, 0), (0, 0, 0))) is Fraction

    def test_wrong_lengths_keep_their_messages(self):
        alg = catalog.get("B")
        with pytest.raises(ValueError, match="bracket arguments must have length 3"):
            alg.bracket((1, 0, 0), (1, 0))
        with pytest.raises(ValueError, match="omega arguments must have length 3"):
            alg.omega_form((1, 0, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError, match="bilinear arguments must have length 3"):
            BilinearMap(alg.structure).apply((1, 0), (1, 0, 0))


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
        for entry, alpha, alg in catalog.instances():
            report = check_axioms(alg)
            assert report.passed, (entry.key, alpha, report.failing_triples())

    def test_lie_fixtures_have_zero_form(self):
        assert check_axioms(catalog.get("sl2")).omega_is_zero
        assert check_axioms(catalog.get("sl2_plus_sl2")).omega_is_zero
        assert not check_axioms(catalog.get("L_{1,1}")).omega_is_zero

    def test_perturbed_omega_breaks_the_identity(self):
        alg = catalog.get("L_{1,1}")
        omega = [list(row) for row in alg.omega]
        omega[0][1], omega[1][0] = Fraction(2), Fraction(-2)  # omega(e1, e2) = 2
        broken = replace(alg, omega=tuple(map(tuple, omega)))
        report = check_axioms(broken)
        assert not report.passed
        assert (1, 2, 3) in report.failing_triples()
        # the (1,2,3) defect is the old identity value minus the doubled weight
        defect = next(d for d in report.defects if d.triple == (1, 2, 3))
        assert defect.defect == (0, 0, -1, 0)

    def test_zero_form_defect_is_plain_jacobi(self):
        # a Lie-type table (omega = 0) on which the Jacobi identity fails
        alg = OmegaAlgebra.from_tables(
            "broken", 4, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {3: -1}, (1, 4): {4: 1}}, {}
        )
        report = check_axioms(alg)
        assert report.omega_is_zero and not report.jacobi_holds
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
            assert d.defect == jacobi != (0, 0, 0, 0)

    def test_catalog_defects_match_the_oracle(self):
        for _, _, alg in catalog.instances():
            report = check_axioms(alg)
            assert [(d.triple, d.defect) for d in report.defects] == oracle_axiom_defects(alg)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_random_table_defects_match_the_oracle(self, n):
        rng = random.Random(n)
        kept = 0
        for _ in range(40):
            alg = random_table(rng, n)
            assert not alg.omega_is_zero
            report = check_axioms(alg)
            expected = oracle_axiom_defects(alg)
            assert [(d.triple, d.defect) for d in report.defects] == expected
            assert report.failing_triples() == tuple(t for t, _ in expected)
            assert report.jacobi_holds == (not expected)
            kept += len(expected)
        # some triples fail and, once a table has more than one triple, some hold
        assert 0 < kept and (n == 3 or kept < 40 * comb(n, 3))

    def test_the_tables_are_read_without_evaluation(self, monkeypatch):
        calls = []

        def counted(name):
            def evaluate(self, x, y):
                calls.append(name)
                return original[name](self, x, y)

            return evaluate

        original = {name: getattr(OmegaAlgebra, name) for name in ("bracket", "omega_form")}
        for name in original:
            monkeypatch.setattr(OmegaAlgebra, name, counted(name))
        report = check_axioms(abelian(30))
        assert report.passed and report.defects == ()
        assert calls == []

    def test_a_nonzero_diagonal_is_not_antisymmetric(self):
        alg = abelian(3)
        plane = [list(p) for p in alg.structure]
        plane[1][1] = (Fraction(0), Fraction(0), Fraction(1))  # [e2, e2] = e3
        assert not check_axioms(replace(alg, structure=tuple(map(tuple, plane)))).bracket_antisymmetric
        omega = [list(row) for row in alg.omega]
        omega[2][2] = Fraction(1)  # w(e3, e3) = 1
        report = check_axioms(replace(alg, omega=tuple(map(tuple, omega))))
        assert report.bracket_antisymmetric and not report.omega_skew and not report.passed

    def test_an_unskew_pair_is_reported(self):
        alg = abelian(3)
        plane = [[list(row) for row in p] for p in alg.structure]
        plane[0][1][2] = Fraction(1)  # [e1, e2] = e3 with [e2, e1] = 0
        omega = [list(row) for row in alg.omega]
        omega[0][2] = Fraction(1)  # w(e1, e3) = 1 with w(e3, e1) = 0
        report = check_axioms(
            replace(alg, structure=tuple(tuple(map(tuple, p)) for p in plane), omega=tuple(map(tuple, omega)))
        )
        assert not report.bracket_antisymmetric and not report.omega_skew

    def test_antisymmetries_match_the_dense_check_on_perturbed_tables(self):
        """Both antisymmetries agree with ``c[i][j][k] == -c[j][i][k]`` and ``w[i][j] == -w[j][i]`` over every index."""
        rng = random.Random(20261020)
        verdicts = set()
        for trial in range(60):
            n = rng.randint(2, 5)
            alg = random_table(rng, n)
            plane = [[list(row) for row in p] for p in alg.structure]
            omega = [list(row) for row in alg.omega]
            for _ in range(rng.randint(0, 2)):  # a cell changed on one side only, the diagonal included
                i, j, k = (rng.randrange(n) for _ in range(3))
                if rng.random() < 0.5:
                    plane[i][j][k] += rng.choice((1, -1, Fraction(1, 2)))
                else:
                    omega[i][j] += rng.choice((1, -1, Fraction(1, 2)))
            if trial % 3 == 0:  # a pair changed on both sides, which keeps it antisymmetric
                i, j, k = (rng.randrange(n) for _ in range(3))
                if i != j:
                    plane[i][j][k] += 2
                    plane[j][i][k] -= 2
            c, w = tuple(tuple(map(tuple, p)) for p in plane), tuple(map(tuple, omega))
            report = check_axioms(replace(alg, structure=c, omega=w))
            dense = (
                all(c[i][j][k] == -c[j][i][k] for i in range(n) for j in range(n) for k in range(n)),
                all(w[i][j] == -w[j][i] for i in range(n) for j in range(n)),
            )
            assert (report.bracket_antisymmetric, report.omega_skew) == dense, trial
            verdicts.add(dense)
        assert len(verdicts) == 4


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
        assert is_automorphism(alg, scalar_map(4, 1))
        assert is_automorphism(alg, scalar_map(4, 1), check_omega=True)

    def test_zero_map_is_not(self):
        alg = catalog.get("L_{1,6}")
        assert not is_automorphism(alg, scalar_map(4, 0))

    def test_family_members_are_automorphisms(self):
        alg = catalog.get("L_{1,1}")
        family = automorphism_family_L11()
        for a, b in [(1, 0), (2, 3), (Fraction(-1, 2), 7)]:
            phi = realized(family, {"t1": a, "t2": b})
            assert is_automorphism(alg, phi)
            # this family also preserves the skew form
            assert is_automorphism(alg, phi, check_omega=True)
        # the open condition marks the non-invertible boundary
        boundary = realized(family, {"t1": -1, "t2": 0})
        assert not is_automorphism(alg, boundary)

    def test_omega_check_can_reject(self):
        alg = catalog.get("L_{1,1}")
        doubling = scalar_map(4, 2)
        # scaling by 2 preserves brackets only on nilpotent directions; on this
        # algebra it is not an automorphism at all
        assert not is_automorphism(alg, doubling)

    def test_anti_automorphisms_on_sl2(self):
        sl2 = catalog.get("sl2")
        neg = scalar_map(3, -1)
        assert is_anti_automorphism(sl2, neg)
        assert not is_anti_automorphism(sl2, scalar_map(3, 1))

    def test_identity_is_anti_automorphism_of_abelian(self):
        assert is_anti_automorphism(abelian(3), scalar_map(3, 1))

    def test_singular_maps_that_respect_brackets_are_refused(self):
        # on an abelian algebra every map respects the (zero) bracket, and the
        # zero map respects any bracket: only the rank check refuses these
        projection = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert not is_automorphism(abelian(3), projection)
        assert not is_anti_automorphism(abelian(3), projection)
        assert not is_automorphism(catalog.get("sl2"), scalar_map(3, 0))
        assert not is_anti_automorphism(catalog.get("sl2"), scalar_map(3, 0))


    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 1]]])
    def test_maps_of_the_wrong_shape_are_refused(self, rows):
        # a 3-dimensional algebra takes only 3 x 3 matrices
        phi = Matrix.from_rows(rows)
        for check in (is_automorphism, is_anti_automorphism):
            with pytest.raises(ValueError, match="must be 3 x 3"):
                check(catalog.get("sl2"), phi)


class TestRefusals:
    """Tables of the wrong shape are refused where the object is built."""

    @staticmethod
    def zero(n):
        return tuple(tuple((0,) * n for _ in range(n)) for _ in range(n)), tuple((0,) * n for _ in range(n))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c, w, labels: (c[:2], w, labels), "structure tensor must be dim x dim x dim"),
            (lambda c, w, labels: ((c[0][:2],) + c[1:], w, labels), "structure tensor must be dim x dim x dim"),
            (
                lambda c, w, labels: (((c[0][0][:2],) + c[0][1:],) + c[1:], w, labels),
                "structure tensor must be dim x dim x dim",
            ),
            (lambda c, w, labels: (c, w[:2], labels), "omega table must be dim x dim"),
            (lambda c, w, labels: (c, (w[0] + (0,),) + w[1:], labels), "omega table must be dim x dim"),
            (lambda c, w, labels: (c, w, labels[:2]), "need one basis label per dimension"),
        ],
        ids=["planes", "rows", "entries", "omega-rows", "omega-entries", "labels"],
    )
    def test_the_constructor_refuses_tables_of_another_shape(self, change, message):
        c, w = self.zero(3)
        structure, omega, labels = change(c, w, ("e1", "e2", "e3"))
        with pytest.raises(ValueError, match=message):
            OmegaAlgebra("bad", 3, structure, omega, labels)

    @pytest.mark.parametrize("pair", [(2, 1), (1, 1), (0, 2), (1, 4)])
    def test_an_omega_pair_outside_the_upper_triangle_is_refused(self, pair):
        message = re.escape(f"omega pair ({pair[0]},{pair[1]}) must satisfy 1 <= i < j <= 3")
        self.assert_refused({}, {pair: 1}, message, True)

    @staticmethod
    def document(brackets, omega):
        """The JSON document on dim 3 that lists these tables, or None if JSON cannot express them.

        A component ``k`` is written as ``str(k)``, as JSON writes an object's
        keys; anything else must survive a JSON round trip unchanged.
        """
        if not all(isinstance(key, tuple) and len(key) == 2 for key in [*brackets, *omega]):
            return None
        entries = []
        for (i, j), coeffs in brackets.items():
            if isinstance(coeffs, dict):
                named = {str(k) if type(k) is int else k: v for k, v in coeffs.items()}
                if len(named) < len(coeffs):
                    return None  # two keys that JSON writes as one
                coeffs = named
            entries.append({"i": i, "j": j, "coeffs": coeffs})
        doc = {
            "name": "bad",
            "dim": 3,
            "brackets": entries,
            "omega": [{"i": i, "j": j, "value": value} for (i, j), value in omega.items()],
        }
        try:
            return doc if json.loads(json.dumps(doc)) == doc else None
        except TypeError:  # a Fraction
            return None

    def assert_refused(self, brackets, omega, message, in_document):
        """``from_tables`` refuses the tables, and a document that lists them is refused with the same error."""
        with pytest.raises(AlgebraFormatError, match=message) as by_tables:
            OmegaAlgebra.from_tables("bad", 3, brackets, omega)
        doc = self.document(brackets, omega)
        assert (doc is not None) == in_document
        if doc is not None:
            with pytest.raises(AlgebraFormatError) as by_document:
                from_document(doc)
            assert str(by_document.value) == str(by_tables.value)

    @pytest.mark.parametrize(
        "brackets, omega, in_document",
        [
            ({(1, 2): {1.5: 1}}, {}, False),  # int() would read component 1
            ({(1, 2): {Fraction(3, 2): 1}}, {}, False),
            ({(True, 2): {1: 1}}, {}, True),  # int() would read 1
            ({(1, 2): {" 2 ": 1}}, {}, True),
            ({(1, 2): {"２": 1}}, {}, True),  # a fullwidth digit
            ({(1, 2): {None: 1}}, {}, False),
            ({}, {(1, 2.5): 1}, True),
            ({}, {("1", ()): 1}, False),
        ],
        ids=["float", "fraction", "bool", "padded", "fullwidth", "none", "omega-float", "omega-tuple"],
    )
    def test_table_indices_are_read_as_document_integers(self, brackets, omega, in_document):
        self.assert_refused(brackets, omega, "table index: ", in_document)

    @pytest.mark.parametrize(
        "brackets, omega, message, in_document",
        [
            ({1: {1: 1}}, {}, "bracket key 1 must be a pair", False),
            ({(1, 2, 3): {1: 1}}, {}, r"bracket key \(1, 2, 3\) must be a pair", False),
            ({}, {"12": 1}, "omega key '12' must be a pair", False),  # unpacking would read ("1", "2")
            ({(1, 2): [1]}, {}, r"bracket \[1,2\] coefficients must be a mapping", True),
            ({(1, 2): {3: 1}, ("1", "2"): {3: 5}}, {}, r"bracket pair \(1,2\) is given twice", True),
            ({(1, 2): {1: 1, "1": 2}}, {}, r"bracket \[1,2\] names component 1 twice", False),
            ({(1, 2): {"2": 1, "02": 2}}, {}, r"bracket \[1,2\] names component 2 twice", True),
            ({}, {(1, 2): 1, (1.0, "2"): 3}, r"omega pair \(1,2\) is given twice", True),
        ],
        ids=["scalar-key", "triple-key", "omega-string-key", "list-coeffs", "repeated-pair", "repeated-component",
             "repeated-component-string", "repeated-omega-pair"],
    )
    def test_a_key_that_is_no_pair_or_names_an_entry_twice_is_refused(self, brackets, omega, message, in_document):
        """Documents refuse the same tables; the last of two equal keys used to win silently."""
        self.assert_refused(brackets, omega, message, in_document)

    @pytest.mark.parametrize("value", [1.5, None, True, "x", "0.5", "1/0"])
    @pytest.mark.parametrize("table", ["bracket", "omega"])
    def test_a_coefficient_that_is_no_rational_is_refused(self, table, value):
        """``frac`` refuses each of these; both readers name the entry, and no ``TypeError`` or ``ZeroDivisionError`` escapes."""
        brackets, omega = ({(1, 2): {3: value}}, {}) if table == "bracket" else ({}, {(1, 2): value})
        self.assert_refused(brackets, omega, re.escape(f"{table} pair (1,2): "), True)

    def test_integral_table_indices_are_accepted(self):
        alg = OmegaAlgebra.from_tables("x", 3, {(1.0, "2"): {Fraction(3): 1}}, {("+1", 3.0): 1})
        assert alg == OmegaAlgebra.from_tables("x", 3, {(1, 2): {3: 1}}, {(1, 3): 1})

    @pytest.mark.parametrize(
        "tensor",
        [
            (((0, 0), (0, 0)),),
            (((0, 0), (0, 0)), ((0, 0),)),
            (((0, 0), (0, 0)), ((0, 0), (0,))),
        ],
        ids=["planes", "rows", "entries"],
    )
    def test_a_bilinear_map_that_is_not_cubic_is_refused(self, tensor):
        with pytest.raises(ValueError, match="bilinear tensor must be cubic"):
            BilinearMap(tensor)


class TestSerialization:
    def test_every_catalog_document_is_pinned(self):
        # the documents are read off the cached supports; this is their text when read off the dense tables
        docs = [dumps(alg) for _, _, alg in catalog.instances()]
        assert len(docs) == 43
        digest = hashlib.sha256("\n".join(docs).encode("utf-8")).hexdigest()
        assert digest == "0ce39255a0721de25b987e0bef898331f3458b342eae8fc5895319d52e74242b"

    def test_round_trip_for_all_catalog_entries(self):
        for entry in catalog.list_entries():
            alg = catalog.get(entry.key)
            again = from_document(json.loads(dumps(alg)))
            assert again.dim == alg.dim
            assert again.structure == alg.structure
            assert again.omega == alg.omega
            assert again.basis_labels == alg.basis_labels

    def test_bad_documents_are_rejected(self):
        with pytest.raises(AlgebraFormatError, match="must be a JSON object"):
            from_document(json.loads("[1, 2]"))
        with pytest.raises(AlgebraFormatError):
            from_document(json.loads('{"dim": 2}'))
        with pytest.raises(AlgebraFormatError):
            from_document(json.loads('{"name": "x", "dim": 2, "brackets": [{"i": 2, "j": 1, "coeffs": {"1": "1"}}]}'))
        with pytest.raises(AlgebraFormatError):
            from_document(json.loads('{"name": "x", "dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": {"5": "1"}}]}'))
        with pytest.raises(AlgebraFormatError):
            from_document(json.loads('{"name": "x", "dim": 2, "omega": [{"i": 1, "j": 2, "value": "1/0"}]}'))

    @pytest.mark.parametrize(
        "doc",
        [
            '{"name": "x", "dim": 3.9}',
            '{"name": "x", "dim": true}',
            '{"name": "x", "dim": 3, "brackets": [{"i": 1.7, "j": 2, "coeffs": {"2": "1"}}]}',
            '{"name": "x", "dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": true}}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": true, "j": 2, "value": "1"}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": 1, "j": 2, "value": false}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": 1, "j": 2, "value": 0.5}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": 1, "j": 2, "value": "1e3"}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": 1, "j": 2, "value": "0.5"}]}',
            '{"name": "x", "dim": 3, "omega": [{"i": 1, "j": 2, "value": "1e100000000"}]}',
        ],
    )
    def test_booleans_and_non_integral_numbers_are_refused(self, doc):
        # int() would truncate 3.9 to 3 and read true as 1; Fraction() reads "1e3"
        # as 1000 and spends minutes on the power of ten in "1e100000000"
        with pytest.raises(AlgebraFormatError):
            from_document(json.loads(doc))

    def test_integral_numbers_are_accepted(self):
        alg = from_document(json.loads('{"name": "x", "dim": 2.0, "brackets": [{"i": 1, "j": 2.0, "coeffs": {"2": 1}}]}'))
        assert alg.dim == 2
        assert alg.bracket((1, 0), (0, 1)) == (0, 1)

    def test_integer_strings_are_signed_ascii_digits(self):
        as_strings = {"name": "x", "dim": "2", "brackets": [{"i": "+1", "j": "02", "coeffs": {"2": 1}}]}
        as_numbers = {"name": "x", "dim": 2.0, "brackets": [{"i": 1, "j": 2, "coeffs": {"2": 1}}]}
        assert from_document(as_strings) == from_document(as_numbers)

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**12])
    def test_dim_over_budget_is_refused(self, dim):
        # one label: should the budget ever go, the basis check refuses the document without allocating
        with pytest.raises(AlgebraFormatError, match="'dim'"):
            from_document(json.loads(f'{{"name": "huge", "dim": {dim}, "basis": ["e1"]}}'))

    def test_unlisted_entries_are_zero(self):
        alg = from_document(json.loads('{"name": "tiny", "dim": 2, "brackets": [], "omega": []}'))
        assert alg.bracket((1, 0), (0, 1)) == (0, 0)
        assert alg.omega_form((1, 0), (0, 1)) == 0
