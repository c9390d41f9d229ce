"""Solution-space solvers: derivations, centroid family, biderivations.

Expected dimensions asserted here were computed with the assembled systems
and cross-checked against :func:`oracle_biderivation_space`, a brute-force
path that evaluates the defining identities directly on unit tensors.
"""

import random
from fractions import Fraction

import pytest

from omega_lie import catalog, linalg
from omega_lie.algebra import BilinearMap, OmegaAlgebra
from omega_lie.linalg import Matrix, SubspaceBasis
from omega_lie.solvers import (
    anticommuting_maps,
    biderivations,
    centroid,
    commuting_maps,
    derivations,
    half_derivations,
    map_defects,
    omega_biderivations,
    omega_derivations,
    skew_biderivations,
    solve,
    symmetric_biderivations,
    tensor_defects,
    vectorize_map,
    vectorize_tensor,
)
from oracle import oracle_biderivation_space


def abelian(n):
    return OmegaAlgebra.from_tables(f"abelian{n}", n, {}, {})


KEYS = [entry.key for entry in catalog.list_entries()]


def identity_span(n):
    return SubspaceBasis.from_generators(n * n, [vectorize_map(Matrix.identity(n))])


class TestDerivations:
    def test_L11_rank_and_matrix_form(self):
        der = derivations(catalog.get("L_{1,1}"))
        assert der.rank == 6
        for m in der.elements():
            # zero outside columns 3-4, and row 2 = -row 1 there
            assert all(m.rows[i][j] == 0 for i in range(4) for j in (0, 1))
            assert m.rows[1][2] == -m.rows[0][2]
            assert m.rows[1][3] == -m.rows[0][3]

    def test_L14_rank_and_column_pattern(self):
        der = derivations(catalog.get("L_{1,4}"))
        assert der.rank == 2
        for m in der.elements():
            assert all(m.rows[i][j] == 0 for i in range(4) for j in (0, 1, 3))
            a = m.rows[0][2]
            assert m.rows[1][2] == -a and m.rows[2][2] == a

    def test_abelian_derivations_fill_the_space(self):
        assert derivations(abelian(3)).rank == 9

    @pytest.mark.parametrize(
        "key,rank",
        [
            ("L_1", 2),
            ("L_2", 1),
            ("A_alpha", 1),
            ("B", 1),
            ("C_alpha", 1),
            ("L_{1,2}", 4),
            ("L_{1,5}", 4),
            ("L_{1,6}", 3),
            ("L_{2,3}", 2),
            ("E_{1,alpha}", 4),
            ("C~_1", 4),
            ("sl2", 3),
        ],
    )
    def test_computed_ranks(self, key, rank):
        assert derivations(catalog.get(key)).rank == rank

    def test_residuals_vanish_everywhere(self):
        for key in KEYS:
            alg = catalog.get(key)
            for f in derivations(alg).elements():
                assert not map_defects(alg, "derivation", f), key

    def test_sl2_derivations_are_the_adjoint_maps(self):
        sl2 = catalog.get("sl2")
        der = derivations(sl2)
        basis = sl2.basis_vectors()
        # ad x stores [x, e_i] in row i
        ad_span = SubspaceBasis.from_generators(
            9, [vectorize_map(Matrix.from_rows([sl2.bracket(x, e) for e in basis])) for x in basis]
        )
        assert der.space == ad_span


class TestOmegaDerivations:
    def test_subspace_of_derivations(self):
        for key in KEYS:
            alg = catalog.get(key)
            der = derivations(alg)
            wder = omega_derivations(alg)
            assert wder.rank <= der.rank
            assert wder.space.is_subspace_of(der.space), key

    def test_lie_case_coincides(self):
        alg = catalog.get("sl2")
        assert omega_derivations(alg).space == derivations(alg).space

    def test_residuals(self):
        alg = catalog.get("L_{1,3}")
        for f in omega_derivations(alg).elements():
            assert not map_defects(alg, "omega_derivation", f)


class TestCentroidFamily:
    def test_sl2_values(self):
        sl2 = catalog.get("sl2")
        cent = centroid(sl2)
        assert cent.rank == 1
        assert cent.space == identity_span(3)
        assert commuting_maps(sl2).space == cent.space
        assert anticommuting_maps(sl2).rank == 0

    def test_abelian_everything_commutes(self):
        alg = abelian(3)
        assert centroid(alg).rank == 9
        assert commuting_maps(alg).rank == 9
        assert anticommuting_maps(alg).rank == 9

    def test_residuals(self):
        for key in ("sl2", "B", "L_{1,5}"):
            alg = catalog.get(key)
            for kind, space in (
                ("centroid", centroid(alg)),
                ("commuting", commuting_maps(alg)),
                ("anticommuting", anticommuting_maps(alg)),
            ):
                for f in space.elements():
                    assert not map_defects(alg, kind, f), (key, kind)

    def test_commuting_map_induces_skew_biderivation_on_sl2(self):
        # the correspondence delta(x, y) = [a(x), y] for a in the centroid
        sl2 = catalog.get("sl2")
        alpha = commuting_maps(sl2).elements()[0]
        n = 3
        basis = sl2.basis_vectors()
        tensor = tuple(
            tuple(sl2.bracket(alpha.apply(basis[i]), basis[j]) for j in range(n))
            for i in range(n)
        )
        delta = BilinearMap(tensor)
        assert not tensor_defects(sl2, "biderivation", delta)
        assert all(tensor[i][j] == tuple(-v for v in tensor[j][i]) for i in range(n) for j in range(n))
        assert skew_biderivations(sl2).space.contains(vectorize_tensor(delta))


class TestDeltaDerivations:
    def test_weight_one_is_bitwise_derivations(self):
        for key in ("L_{1,4}", "B", "sl2", "G_{1,alpha}"):
            alg = catalog.get(key)
            assert solve(alg, "delta_derivation", delta=1).space == derivations(alg).space

    def test_half_derivations_of_simple_3d(self):
        for key in ("A_alpha", "B"):
            hd = half_derivations(catalog.get(key))
            assert hd.rank == 1
            assert hd.space == identity_span(3)

    def test_half_derivation_pins_its_delta(self):
        for delta in (1, Fraction(1, 2)):
            with pytest.raises(ValueError, match="half_derivation has no parameter 'delta'"):
                solve(catalog.get("B"), "half_derivation", delta=delta)
        assert half_derivations(catalog.get("B")).kind == "half_derivation"

    def test_C_alpha_resonance_at_two(self):
        # generic parameter: scalars only; alpha=2 gains the weight-shift map
        generic = half_derivations(catalog.get("C_alpha", {"alpha": 3}))
        assert generic.space == identity_span(3)
        resonant = half_derivations(catalog.get("C_alpha", {"alpha": 2}))
        assert resonant.rank == 2
        shift = Matrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        assert resonant.space.contains(vectorize_map(shift))
        assert not map_defects(
            catalog.get("C_alpha", {"alpha": 2}), "delta_derivation", shift, delta=Fraction(1, 2)
        )

    def test_identity_is_always_a_half_derivation(self):
        for key in ("L_{1,1}", "H_{1,alpha}", "B~"):
            alg = catalog.get(key)
            assert half_derivations(alg).space.contains(vectorize_map(Matrix.identity(alg.dim)))

    def test_assembled_system_implies_displayed_first_pair_equations(self):
        # the displayed first-pair system for the weight-1/2 solver on the
        # simple algebra with parameter 2; a_{ij} = coefficient of e_i in the
        # image of e_j, stored at vec index (j-1)*n + (i-1)
        alg = catalog.get("A_alpha", {"alpha": 2})
        hd = half_derivations(alg)

        def var(i, j):
            return (j - 1) * 3 + (i - 1)

        rows = [
            {var(1, 1): Fraction(1), var(3, 1): Fraction(2), var(2, 2): Fraction(-1)},
            {var(2, 1): Fraction(2), var(3, 2): Fraction(-1)},
            {var(3, 1): Fraction(3)},
        ]
        assert all(hd.space.annihilated_by(row) for row in rows)

    def test_B_first_pair_equations_with_corrected_index(self):
        # the first displayed equation reads 2a11 = -a31 in the source but the
        # mechanical expansion gives 2a12 = -a31: the left side is the image
        # of e2, whose e1-coefficient is a12; only the corrected row is implied
        alg = catalog.get("B")
        hd = half_derivations(alg)

        def var(i, j):
            return (j - 1) * 3 + (i - 1)

        corrected = {var(1, 2): Fraction(2), var(3, 1): Fraction(1)}
        as_printed = {var(1, 1): Fraction(2), var(3, 1): Fraction(1)}
        assert hd.space.annihilated_by(corrected)
        assert not hd.space.annihilated_by(as_printed)

    def test_residuals(self):
        alg = catalog.get("L_{2,3}")
        for delta in (Fraction(1, 2), Fraction(3), Fraction(-2, 5)):
            for f in solve(alg, "delta_derivation", delta=delta).elements():
                assert not map_defects(alg, "delta_derivation", f, delta=delta)


class TestBiderivations:
    def test_sl2_is_spanned_by_the_bracket(self):
        sl2 = catalog.get("sl2")
        bid = biderivations(sl2)
        assert bid.rank == 1
        span = SubspaceBasis.from_generators(27, [vectorize_tensor(BilinearMap(sl2.structure))])
        assert bid.space == span

    def test_sl2_plus_sl2_skew_rank_two(self):
        both = catalog.get("sl2_plus_sl2")
        assert skew_biderivations(both).rank == 2
        assert symmetric_biderivations(both).rank == 0

    def test_simple_3d_biderivations(self):
        assert biderivations(catalog.get("A_alpha")).rank == 0
        assert biderivations(catalog.get("C_alpha")).rank == 0
        # B carries one genuine biderivation: delta(e3, e3) = e2
        bid = biderivations(catalog.get("B"))
        assert bid.rank == 1
        witness = bid.elements()[0]
        nonzero = {
            (i + 1, j + 1, k + 1)
            for i in range(3)
            for j in range(3)
            for k in range(3)
            if witness.tensor[i][j][k]
        }
        assert nonzero == {(3, 3, 2)}

    @pytest.mark.parametrize(
        "key,sym,skew",
        [
            ("L_{1,1}", 12, 6),
            ("L_{1,2}", 6, 2),
            ("L_{1,4}", 3, 1),
            ("L_{1,7}", 2, 0),
            ("L_{1,8}", 1, 0),
            ("L_{2,2}", 0, 0),
            ("L_{2,4}", 0, 0),
            ("G_{1,alpha}", 1, 0),
            ("A~_alpha", 1, 0),
            ("B~", 2, 0),
            ("C~_alpha", 1, 0),
            ("C~_1", 5, 0),
        ],
    )
    def test_computed_ranks_match_the_oracle(self, key, sym, skew):
        alg = catalog.get(key)
        sym_space = symmetric_biderivations(alg)
        skew_space = skew_biderivations(alg)
        assert sym_space.rank == sym
        assert skew_space.rank == skew
        assert oracle_biderivation_space(alg, symmetry=+1) == sym_space.space
        assert oracle_biderivation_space(alg, symmetry=-1) == skew_space.space

    def test_parts_decompose_the_full_space(self):
        for key in ("L_{1,1}", "L_{1,6}", "B~", "sl2"):
            alg = catalog.get(key)
            full = biderivations(alg)
            sym = symmetric_biderivations(alg)
            skw = skew_biderivations(alg)
            assert sym.rank + skw.rank == full.rank
            assert sym.space.plus(skw.space) == full.space

    def test_residuals_vanish(self):
        for key in ("L_{1,1}", "L_{1,6}", "B~", "B", "sl2"):
            alg = catalog.get(key)
            for kind, space in (
                ("biderivation", biderivations(alg)),
                ("symmetric", symmetric_biderivations(alg)),
                ("skew", skew_biderivations(alg)),
                ("omega_biderivation", omega_biderivations(alg)),
            ):
                for t in space.elements():
                    assert not tensor_defects(alg, kind, t), (key, kind)


def transpose(t):
    """The bilinear map ``(x, y) -> t(y, x)``."""
    n = t.dim
    return BilinearMap(tuple(tuple(t.tensor[j][i] for j in range(n)) for i in range(n)))


def combine(a, s, b, u):
    """The bilinear map ``a * s + b * u``."""
    n = s.dim
    return BilinearMap(
        tuple(
            tuple(tuple(a * x + b * y for x, y in zip(s.tensor[i][j], u.tensor[i][j])) for j in range(n))
            for i in range(n)
        )
    )


class TestSplit:
    """A biderivation ``d`` splits as ``(d + d^T)/2 + (d - d^T)/2``, symmetric plus skew."""

    def test_symmetric_input(self):
        alg = catalog.get("B~")
        sym, skw, full = symmetric_biderivations(alg), skew_biderivations(alg), biderivations(alg)
        assert sym.rank > 0
        for t in sym.elements():
            assert transpose(t) == t
            assert full.space.contains(vectorize_tensor(t))
            assert not skw.space.contains(vectorize_tensor(t))
            assert vectorize_tensor(combine(Fraction(1, 2), t, Fraction(-1, 2), transpose(t))) == (0,) * 64

    def test_bracket_tensor_is_purely_skew(self):
        sl2 = catalog.get("sl2")
        bt = BilinearMap(sl2.structure)
        assert transpose(bt) == combine(-1, bt, 0, bt)
        assert not tensor_defects(sl2, "biderivation", bt)
        assert skew_biderivations(sl2).space.contains(vectorize_tensor(bt))
        assert not symmetric_biderivations(sl2).space.contains(vectorize_tensor(bt))

    def test_split_recomposes(self):
        rng = random.Random(13)
        half = Fraction(1, 2)
        for key in ("L_{1,1}", "L_{1,6}", "B~", "sl2"):
            alg = catalog.get(key)
            basis = biderivations(alg).elements()
            sym, skw = symmetric_biderivations(alg), skew_biderivations(alg)
            for _ in range(5):
                d = combine(0, basis[0], 0, basis[0])
                for t in basis:
                    d = combine(1, d, Fraction(rng.randint(-4, 4), rng.randint(1, 3)), t)
                sym_part = combine(half, d, half, transpose(d))
                skew_part = combine(half, d, -half, transpose(d))
                assert sym.space.contains(vectorize_tensor(sym_part)), key
                assert skw.space.contains(vectorize_tensor(skew_part)), key
                assert combine(1, sym_part, 1, skew_part) == d


class TestOmegaBiderivations:
    def test_always_inside_biderivations(self):
        for key in catalog.four_dimensional_keys():
            alg = catalog.get(key)
            assert omega_biderivations(alg).space.is_subspace_of(biderivations(alg).space), key

    def test_lie_case_coincides(self):
        for key in ("sl2", "sl2_plus_sl2"):
            alg = catalog.get(key)
            assert omega_biderivations(alg).space == biderivations(alg).space

    def test_strictness_pattern_of_the_displayed_reading(self):
        # under the displayed compatibility equalities the inclusion is strict
        # exactly for B~ and C~_1 among the 4-dimensional catalog algebras
        strict = set()
        for key in catalog.four_dimensional_keys():
            alg = catalog.get(key)
            if omega_biderivations(alg).space != biderivations(alg).space:
                strict.add(key)
        assert strict == {"B~", "C~_1"}

    def test_sum_reading_gives_equality_everywhere(self):
        for key in ("B~", "C~_1", "L_{1,6}"):
            alg = catalog.get(key)
            assert omega_biderivations(alg, sign=Fraction(1)).space == biderivations(alg).space


def dense_random_table(rng, n):
    """A bracket table with every entry drawn from -3..3; the axioms need not hold."""
    brackets = {(i, j): {k: rng.randint(-3, 3) for k in range(1, n + 1)}
                for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    return OmegaAlgebra.from_tables(f"dense{n}", n, brackets, {})


def test_full_rank_systems_need_no_exact_elimination(monkeypatch):
    """A system of full rank mod P is settled by the modular filter: ``_Echelon`` inserts nothing."""
    alg = dense_random_table(random.Random(5), 5)

    def refuse(self, row):
        raise AssertionError("exact elimination on a full-rank system")

    monkeypatch.setattr(linalg._Echelon, "insert", refuse)
    assert derivations(alg).space == SubspaceBasis(25, ())
    assert biderivations(alg).space == SubspaceBasis(125, ())
