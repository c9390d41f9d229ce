"""Catalog: entries, parameter handling, reference values, genericity."""

from fractions import Fraction

import pytest

from omega_lie import catalog, verification
from omega_lie.algebra import OmegaAlgebra
from omega_lie.catalog import ExcludedParameterError, UnknownAlgebraError
from omega_lie.solvers import (
    derivations,
    half_derivations,
    skew_biderivations,
    symmetric_biderivations,
)


class TestEntries:
    def test_entry_count_and_groups(self):
        entries = catalog.list_entries()
        # 5 three-dimensional + 19 four-dimensional families + the special
        # parameter point C~_1 + two Lie fixtures
        assert len(entries) == 27
        assert sum(1 for e in entries if e.dim == 3) == 6  # five families + sl2
        assert len(catalog.four_dimensional_keys()) == 20
        assert len([key for key in catalog.four_dimensional_keys() if key != "C~_1"]) == 19

    def test_expected_keys_present(self):
        keys = [e.key for e in catalog.list_entries()]
        assert "H_{1,alpha}" in keys
        assert "sl2" in keys
        assert "C~_1" in keys

    def test_unknown_key(self):
        with pytest.raises(UnknownAlgebraError):
            catalog.get("Z_9")

    def test_B_table(self):
        alg = catalog.get("B")
        e = alg.basis_vectors()
        assert alg.bracket(e[0], e[1]) == e[1]
        assert alg.bracket(e[0], e[2]) == (0, 1, 1)
        assert alg.bracket(e[1], e[2]) == e[0]
        assert alg.omega_form(e[1], e[2]) == 2

    def test_L21_table(self):
        alg = catalog.get("L_{2,1}")
        e = alg.basis_vectors()
        assert alg.bracket(e[0], e[2]) == e[1]
        assert alg.bracket(e[1], e[2]) == e[2]
        assert alg.bracket(e[3], e[1]) == (0, 0, 0, -1)   # [e4,e2] = -e4
        assert alg.omega_form(e[0], e[2]) == 1

    def test_excluded_values_raise(self):
        with pytest.raises(ExcludedParameterError, match="excluded"):
            catalog.get("C_alpha", {"alpha": 0})
        with pytest.raises(ExcludedParameterError, match="excluded"):
            catalog.get("C_alpha", {"alpha": -1})
        with pytest.raises(ExcludedParameterError, match="excluded"):
            catalog.get("E_{1,alpha}", {"alpha": 1})
        with pytest.raises(ExcludedParameterError, match="excluded"):
            catalog.get("C~_alpha", {"alpha": 1})

    def test_unknown_parameter_name(self):
        with pytest.raises(ExcludedParameterError):
            catalog.get("C_alpha", {"beta": 5})
        with pytest.raises(ExcludedParameterError):
            catalog.get("B", {"alpha": 5})

    def test_rational_parameters_accepted(self):
        alg = catalog.get("C_alpha", {"alpha": Fraction(1, 3)})
        assert alg.omega_form(alg.basis_vector(1), alg.basis_vector(2)) == Fraction(4, 3)


class TestSharedInstances:
    """``get`` builds each of the 43 sample instances once; any other alpha builds anew."""

    def test_a_sample_instance_is_built_once(self):
        instances = list(catalog.instances())
        assert len(instances) == 43
        for entry, alpha, alg in instances:
            params = None if alpha is None else {catalog.ALPHA: alpha}
            assert catalog.get(entry.key, params) is alg is catalog.get(entry.key, params)
        assert catalog.get("C_alpha") is catalog.get("C_alpha", {"alpha": "2"}) is catalog.get("C_alpha", {"alpha": 2})
        assert len(catalog._SHARED) == 43

    def test_any_other_alpha_builds_a_new_algebra(self):
        first, second = catalog.get("C_alpha", {"alpha": 5}), catalog.get("C_alpha", {"alpha": 5})
        assert first is not second and first == second
        for alpha in range(4, 20):
            catalog.get("A_alpha", {"alpha": alpha})
        assert len(catalog._SHARED) <= 43

    def test_an_excluded_alpha_still_raises(self):
        list(catalog.instances())
        for entry in catalog.list_entries():
            for value in entry.excluded or ():
                with pytest.raises(ExcludedParameterError, match="excluded"):
                    catalog.get(entry.key, {catalog.ALPHA: value})

    def test_a_verification_run_builds_no_algebra_after_the_instances(self, monkeypatch):
        list(catalog.instances())
        built = []
        from_tables = OmegaAlgebra.from_tables.__func__

        def counted(cls, name, *args, **kwargs):
            built.append(name)
            return from_tables(cls, name, *args, **kwargs)

        monkeypatch.setattr(OmegaAlgebra, "from_tables", classmethod(counted))
        verification.run_all()
        assert built == []


class TestExpectedValues:
    def test_reference_rows(self):
        assert catalog.expected("L_{2,2}").sym_bider_rank == 0
        assert catalog.expected("L_{1,1}").der_rank == 6
        assert catalog.expected("L_{1,1}").sym_bider_rank == 9
        assert catalog.expected("A_alpha").half_der_rank == 1
        assert catalog.expected("C~_1").sym_bider_rank == 5
        assert catalog.expected("L_{1,6}").bider_omega_equal is False
        assert catalog.expected("L_{2,3}").two_local_rigid is True

    def test_unknown_key_in_expected(self):
        with pytest.raises(UnknownAlgebraError):
            catalog.expected("nope")

    def test_every_populated_row_has_a_source_tag(self):
        for entry in catalog.list_entries():
            if entry.expected.as_dict():
                assert entry.expected.source


class TestGenericity:
    def test_ranks_constant_across_generic_samples(self):
        seen = {}
        for entry, alpha, alg in catalog.instances():
            if alpha is None or alpha in {value for value, _ in entry.special_samples}:
                continue
            ranks = (
                derivations(alg).rank,
                symmetric_biderivations(alg).rank,
                skew_biderivations(alg).rank,
                half_derivations(alg).rank,
            )
            seen.setdefault(entry.key, set()).add(ranks)
        assert len(seen) == 8
        for key, ranks in seen.items():
            assert len(ranks) == 1, (key, ranks)

    def test_special_samples_really_differ(self):
        # the annotated resonance points must deviate, otherwise the
        # annotation would be stale
        for key in ("C_alpha", "C~_alpha"):
            entry = catalog.entry(key)
            assert entry.special_samples
            for value, reason in entry.special_samples:
                special_rank = half_derivations(catalog.get(key, {catalog.ALPHA: value})).rank
                generic_rank = half_derivations(catalog.get(key, {catalog.ALPHA: 3})).rank
                assert special_rank != generic_rank
                assert "resonance" in reason

    def test_resonance_points_pair_up_as_alpha_and_one_over_alpha(self):
        # e1 -> e1/a, e2 -> e3, e3 -> -e2/a (e4 -> e4) carries the family at 1/a onto the family at a
        for key in ("C_alpha", "C~_alpha"):
            special = {value for value, _ in catalog.entry(key).special_samples}
            assert {1 / value for value in special} == special
            for a in (Fraction(2), Fraction(-4), Fraction(3), Fraction(5, 7)):
                source, target = catalog.get(key, {"alpha": 1 / a}), catalog.get(key, {"alpha": a})
                n, e = target.dim, target.basis_vectors()
                images = [tuple(v / a for v in e[0]), e[2], tuple(-v / a for v in e[1]), *e[3:]]

                def image(x):
                    return tuple(sum(x[i] * images[i][k] for i in range(n)) for k in range(n))

                for i in range(n):
                    for j in range(n):
                        x, y = source.basis_vector(i), source.basis_vector(j)
                        assert image(source.bracket(x, y)) == target.bracket(images[i], images[j])
                        assert source.omega_form(x, y) == target.omega_form(images[i], images[j])
