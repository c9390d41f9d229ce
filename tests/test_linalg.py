"""Exact linear algebra core: nullspaces, subspace lattice, modular filter.

Reference answers come from the dense Gauss-Jordan elimination in
``tests/oracle.py``, which shares no code with ``omega_lie.linalg``.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from omega_lie.linalg import (
    P,
    Matrix,
    SubspaceBasis,
    _Echelon,
    _integral,
    _rational,
    _to_sparse,
    frac,
    nullspace_of_sparse_rows,
    vector,
)
from oracle import dense_kernel, gauss_jordan, matvec, row_combination, triple_loop


def M(data):
    return Matrix.from_rows(data)


def full(n):
    return SubspaceBasis.from_generators(n, Matrix.identity(n).rows)


def kernel_of(m):
    """Nullspace of a dense ``Matrix`` through its sparse rows."""
    return nullspace_of_sparse_rows(m.ncols, map(_to_sparse, m.rows))


def integer_rows(rows):
    """Each row as the sparse integer row ``_Echelon`` takes: times the lcm of its denominators."""
    return [_integral(_to_sparse(vector(row))) for row in rows]


def echelon_of(ambient, rows):
    """A fresh ``_Echelon`` built from ``rows`` (any rationals)."""
    return _Echelon(ambient, integer_rows(rows))


def rref(m):
    """Reduced row echelon form of ``m`` as the library stores it, checked against the oracle.

    Returns ``(nonzero rows, rank, pivot columns)``.
    """
    ech = echelon_of(m.ncols, m.rows)
    reduced, pivots = gauss_jordan(m.rows, m.ncols)
    assert (list(ech.span().basis), tuple(sorted(ech.rows))) == (reduced, pivots)
    return tuple(reduced), ech.rank, pivots


def canonical_span(ambient, gens):
    """The reduced echelon basis of sparse integer ``gens``, through a fresh ``_Echelon``."""
    return _Echelon(ambient, gens).span().basis


def annihilator_rows(space):
    """Integer generators of the functionals vanishing on ``space``: the kernel of an echelon of its basis."""
    return echelon_of(space.ambient_dim, space.basis).kernel()


def meet(a, b):
    """``a`` intersected with ``b``: the vectors annihilated by every functional vanishing on ``a`` or on ``b``."""
    return nullspace_of_sparse_rows(a.ambient_dim, annihilator_rows(a) + annihilator_rows(b))


class TestRref:
    def test_identity_is_fixed(self):
        reduced, rank, pivots = rref(Matrix.identity(2))
        assert reduced == Matrix.identity(2).rows
        assert rank == 2
        assert pivots == (0, 1)

    def test_zero_matrix(self):
        reduced, rank, pivots = rref(M([[0, 0], [0, 0]]))
        assert reduced == ()
        assert rank == 0
        assert pivots == ()

    def test_rank_one(self):
        # Hand Gaussian elimination: second row is twice the first.
        reduced, rank, pivots = rref(M([[1, 2], [2, 4]]))
        assert reduced == ((1, 2),)
        assert rank == 1
        assert pivots == (0,)

    def test_leading_entries_are_one(self):
        # (2, 4, 6) / 2 = (1, 2, 3); (0, 0, 5) / 5 clears the 3 above it
        reduced, rank, _ = rref(M([[2, 4, 6], [0, 0, 5]]))
        assert reduced == ((1, 2, 0), (0, 0, 1))
        assert rank == 2

    def test_idempotent(self):
        m = M([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])
        once, rank, _ = rref(m)
        twice, rank2, _ = rref(M(once))
        assert once == twice
        assert rank == rank2 == 3
        assert SubspaceBasis.from_generators(3, m.rows).basis == once


class TestNullspace:
    def test_zero_matrix_gives_full_space(self):
        assert nullspace_of_sparse_rows(3, []) == full(3)
        assert kernel_of(Matrix.from_rows([[0] * 3] * 3)) == full(3)

    def test_identity_gives_zero_space(self):
        assert kernel_of(Matrix.identity(4)) == SubspaceBasis(4, ())

    def test_single_equation(self):
        # x + 2y = 0 solved by hand: span{(-2, 1)}.
        ns = nullspace_of_sparse_rows(2, [{0: Fraction(1), 1: Fraction(2)}])
        assert ns == SubspaceBasis.from_generators(2, [(-2, 1)])
        assert ns.rank == 1

    def test_exact_kernel_property(self):
        m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        ns = kernel_of(m)
        assert ns.rank == 1  # the system has rank 2
        for v in ns.basis:
            assert all(x == 0 for x in matvec(m.rows, v))


class TestSubspaceLattice:
    def test_contains_zero_vector(self):
        s = SubspaceBasis.from_generators(3, [(1, 0, 0)])
        assert s.contains((0, 0, 0))

    def test_not_contains(self):
        s = SubspaceBasis.from_generators(2, [(1, 0)])
        assert not s.contains((0, 1))

    def test_contains_combination(self):
        # 3*(1,2) + 1*(0,1) = (3,7)
        s = SubspaceBasis.from_generators(2, [(1, 2), (0, 1)])
        assert s.contains((3, 7))

    def test_contains_dimension_mismatch(self):
        s = SubspaceBasis.from_generators(2, [(1, 0)])
        with pytest.raises(ValueError, match=r"vector length 3 != ambient dimension 2"):
            s.contains((1, 0, 0))

    def test_contains_short_vector_dimension_mismatch(self):
        s = SubspaceBasis.from_generators(3, [(1, 0, 0)])
        with pytest.raises(ValueError, match=r"vector length 2 != ambient dimension 3"):
            s.contains((1, 0))

    def test_generator_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"generator length 3 != ambient dimension 2"):
            SubspaceBasis.from_generators(2, [(1, 0), (1, 0, 0)])

    @pytest.mark.parametrize("ambient, basis", [(3, ((1, 2),)), (2, ((1, 0, 5),)), (2, ((1, 0), (0, 1, 0)))])
    def test_basis_rows_of_the_wrong_length_are_refused(self, ambient, basis):
        # unchecked, (1, 2) in ambient 3 made (1, 2, 0) a member, and (1, 0, 5) in ambient 2 made (1, 0) a non-member
        with pytest.raises(ValueError, match=rf"basis row length {len(basis[-1])} != ambient dimension {ambient}"):
            SubspaceBasis(ambient, basis)

    @pytest.mark.parametrize("entry, name", [(0.5, "float"), ("1", "str"), (True, "bool"), (None, "NoneType")])
    def test_basis_entries_that_are_not_rationals_are_refused(self, entry, name):
        # unchecked, 0.5 and "1" were kept and failed only at the first query, with AttributeError
        with pytest.raises(ValueError, match=rf"basis entries must be Fraction or int, got {name}"):
            SubspaceBasis(2, ((entry, 0),))

    def test_basis_entries_may_be_fractions_or_ints(self):
        space = SubspaceBasis(2, ((1, Fraction(1, 2)),))
        assert space.contains((2, 1)) and space == SubspaceBasis.from_generators(2, [(2, 1)])

    def test_a_dependent_basis_has_the_rank_of_its_span(self):
        # the second row is twice the first, so it adds nothing to the rank
        assert SubspaceBasis(2, ((1, 0), (2, 0))).rank == 1

    def test_a_basis_that_is_not_reduced_is_stored_in_canonical_form(self):
        # equality, hash and repr read the canonical form, not the rows given
        line = SubspaceBasis(2, ((2, 0),))
        canonical = SubspaceBasis.from_generators(2, [(1, 0)])
        assert line == canonical and hash(line) == hash(canonical) and repr(line) == repr(canonical)
        assert line.basis == ((1, 0),)

    def test_is_subspace_of_across_ambient_dimensions(self):
        with pytest.raises(ValueError):
            SubspaceBasis.from_generators(2, [(1, 0)]).is_subspace_of(full(3))
        with pytest.raises(ValueError):
            SubspaceBasis(2, ()).is_subspace_of(full(3))

    def test_annihilated_by_a_column_outside_the_ambient(self):
        with pytest.raises(ValueError):
            full(3).annihilated_by({5: Fraction(1)})

    def test_intersection_idempotent(self):
        s = SubspaceBasis.from_generators(3, [(1, 2, 3), (0, 1, 1)])
        assert meet(s, s) == s

    def test_intersection_of_complementary_lines(self):
        a = SubspaceBasis.from_generators(2, [(1, 0)])
        b = SubspaceBasis.from_generators(2, [(0, 1)])
        assert meet(a, b).rank == 0

    def test_intersection_of_coordinate_planes(self):
        a = SubspaceBasis.from_generators(3, [(1, 0, 0), (0, 1, 0)])
        b = SubspaceBasis.from_generators(3, [(0, 1, 0), (0, 0, 1)])
        assert meet(a, b) == SubspaceBasis.from_generators(3, [(0, 1, 0)])

    def test_equality_reflexive_and_scale_invariant(self):
        a = SubspaceBasis.from_generators(2, [(1, 2)])
        b = SubspaceBasis.from_generators(2, [(2, 4)])
        assert a == b
        assert full(2) != SubspaceBasis(2, ())

    def test_canonical_under_shuffle_and_scale(self):
        rng = random.Random(7)
        gens = [(1, 2, 0, 1), (0, 1, 1, 1), (2, 5, 1, 3)]
        reference = SubspaceBasis.from_generators(4, gens)
        for _ in range(25):
            shuffled = list(gens)
            rng.shuffle(shuffled)
            scaled = []
            for g in shuffled:
                c = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 3]))
                scaled.append(tuple(c * x for x in g))
            assert SubspaceBasis.from_generators(4, scaled) == reference

    def test_equal_implies_agreement_on_random_vectors(self):
        rng = random.Random(11)
        a = SubspaceBasis.from_generators(4, [(1, 1, 0, 0), (0, 0, 1, 2)])
        b = SubspaceBasis.from_generators(4, [(2, 2, 1, 2), (1, 1, -1, -2)])
        assert a == b
        for _ in range(100):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            v = tuple(sum(c * row[i] for c, row in zip(coeffs, a.basis)) for i in range(4))
            assert a.contains(v) == b.contains(v)


def affine_solve(m, x0):
    """Solutions of ``m x = m x0``: the member with free coordinates zero, and the homogeneous space."""
    kernel = kernel_of(m)
    return kernel.reduced_from_last(x0), kernel


class TestAffineSolutions:
    """An affine solution set is a known solution plus a nullspace, canonicalized by ``reduced_from_last``."""

    def test_identity_system(self):
        particular, homogeneous = affine_solve(Matrix.identity(3), vector((5, "1/2", -2)))
        assert particular == (5, Fraction(1, 2), -2)
        assert homogeneous.rank == 0

    def test_one_equation(self):
        particular, homogeneous = affine_solve(M([[1, 1]]), vector((0, 2)))
        assert particular == (2, 0)
        assert homogeneous == SubspaceBasis.from_generators(2, [(1, -1)])

    def test_solutions_are_exact(self):
        m = M([[2, 3, 1], [1, 0, 2]])
        b = (7, 5)
        particular, homogeneous = affine_solve(m, vector((1, 1, 2)))
        assert matvec(m.rows, particular) == b
        for h in homogeneous.basis:
            shifted = tuple(p + x for p, x in zip(particular, h))
            assert matvec(m.rows, shifted) == b

    @staticmethod
    def reference(m, b):
        """Dense reference: particular solution from the Gauss-Jordan form of ``[m | b]``, kernel from ``m``."""
        n = m.ncols
        reduced, pivots = gauss_jordan([row + (bv,) for row, bv in zip(m.rows, b)], n + 1)
        assert n not in pivots  # consistent by construction
        particular = [Fraction(0)] * n
        for row, p in zip(reduced, pivots):
            particular[p] = row[n]
        return tuple(particular), dense_kernel(m.rows, n)

    def test_matches_the_dense_reference_on_random_systems(self):
        rng = random.Random(0xAFF1)
        moved = 0
        for _ in range(400):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            density = rng.random()
            m = Matrix.from_rows(
                [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density else 0
                  for _ in range(ncols)] for _ in range(nrows)]
            )
            x0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols))
            b = matvec(m.rows, x0)
            sol = affine_solve(m, x0)
            assert (sol[0], sol[1].basis) == self.reference(m, b)
            assert matvec(m.rows, sol[0]) == b
            moved += sol[0] != x0
        assert moved > 100  # the reduction really moves the known solution


def random_matrix(rng, nrows, ncols, span=9):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_nullity_and_idempotence_on_random_matrices():
    # 1000 random matrices: kernel and row space are the dense reference's,
    # rank(m) + dim null(m) == cols, and a stored basis is its own canonical form.
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        kernel = kernel_of(m)
        reduced, pivots = gauss_jordan(m.rows, ncols)
        assert len(pivots) + kernel.rank == ncols
        assert kernel.basis == dense_kernel(m.rows, ncols)
        row_space = SubspaceBasis.from_generators(ncols, m.rows)
        assert row_space.basis == tuple(reduced)
        assert SubspaceBasis.from_generators(ncols, row_space.basis) == row_space
        assert SubspaceBasis.from_generators(ncols, kernel.basis) == kernel


def test_intersection_rank_formula_on_random_subspaces():
    # dim(a meet b) + dim(a + b) == dim a + dim b, with the meet inside both
    rng = random.Random(42)
    for _ in range(200):
        ambient = rng.randint(1, 5)
        a = SubspaceBasis.from_generators(
            ambient, [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        )
        b = SubspaceBasis.from_generators(
            ambient, [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        )
        both = meet(a, b)
        join = a.plus(b)
        assert both.rank == a.rank + b.rank - join.rank
        assert both.is_subspace_of(a) and both.is_subspace_of(b)


class TestEchelon:
    """The fraction-free echelon agrees with the dense reference over Q."""

    def test_rank_and_membership_on_random_integer_rows(self):
        rng = random.Random(2024)
        for _ in range(400):
            ambient = rng.randint(1, 5)
            rows = [[rng.randint(-6, 6) for _ in range(ambient)] for _ in range(rng.randint(0, 6))]
            ech = _Echelon(ambient)
            grew = [ech.insert(_to_sparse(row)) for row in rows]
            rank = len(gauss_jordan(rows, ambient)[1])
            assert sum(grew) == rank == ech.rank
            # the constructor stores the same rows: same pivots, same order, same entries
            assert list(_Echelon(ambient, map(_to_sparse, rows)).rows.items()) == list(ech.rows.items())
            for pivot, stored in ech.rows.items():
                assert min(stored) == pivot and stored[pivot] > 0 and gcd(*stored.values()) == 1
            coeffs = [rng.randint(-4, 4) for _ in rows]
            assert not ech.reduce(_to_sparse([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ambient)]))
            probe = [rng.randint(-6, 6) for _ in range(ambient)]
            assert (not ech.reduce(_to_sparse(probe))) == (len(gauss_jordan(rows + [probe], ambient)[1]) == rank)

    def test_large_entries_stay_exact(self):
        big = 2**61 - 1
        ech = _Echelon(3)
        assert ech.insert({0: big, 1: 1}) and ech.insert({1: big, 2: 1})
        assert not ech.reduce({0: big * big, 1: 2 * big, 2: 1})  # big * row 0 + row 1
        assert ech.reduce({0: big * big, 1: 2 * big, 2: 2})
        assert ech.span().basis == ((1, 0, Fraction(-1, big * big)), (0, 1, Fraction(1, big)))

    def test_full_and_empty_ambient(self):
        ech = _Echelon(2)
        assert ech.reduce({0: 1}) and not ech.reduce({})
        assert ech.insert({0: 2, 1: 4}) and ech.insert({0: 3, 1: 5}) and not ech.insert({0: 7, 1: 7})
        assert not ech.reduce({0: 1})
        assert ech.kernel() == []
        assert not _Echelon(0).reduce({}) and not _Echelon(0).insert({})
        assert _Echelon(0).span() == SubspaceBasis(0, ()) and _Echelon(0).kernel() == []

    def test_a_read_span_leaves_primitive_multiples_of_its_rref_rows(self):
        """Reading the span back-substitutes in place: each stored row becomes its RREF row times the lcm of its denominators."""
        rng = random.Random(0xB5)
        moved = 0
        for _ in range(300):
            ambient = rng.randint(1, 6)
            rows = [[rng.randint(-6, 6) for _ in range(ambient)] for _ in range(rng.randint(0, 7))]
            ech = _Echelon(ambient, map(_to_sparse, rows))
            forward = {p: dict(row) for p, row in ech.rows.items()}
            reduced, pivots = gauss_jordan(rows, ambient)
            assert ech.span().basis == tuple(reduced) and tuple(sorted(ech.rows)) == pivots
            for pivot, rref_row in zip(pivots, reduced):
                scale = lcm(*[v.denominator for v in rref_row])
                multiple = {j: int(v * scale) for j, v in enumerate(rref_row) if v}
                assert gcd(*multiple.values()) == 1 and multiple[pivot] > 0
                assert ech.rows[pivot] == multiple
            moved += forward != ech.rows
        assert moved > 50  # the forward rows really were not reduced

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hilbert_matrices_match_the_oracle(self, n):
        """RREF, rank and kernel of the n x n Hilbert matrix and of its n x (n + 1) extension."""
        for ncols in (n, n + 1):
            hilbert = [[Fraction(1, i + j + 1) for j in range(ncols)] for i in range(n)]
            ech = echelon_of(ncols, hilbert)
            reduced, pivots = gauss_jordan(hilbert, ncols)
            assert ech.rank == len(pivots) == n
            assert canonical_span(ncols, ech.kernel()) == dense_kernel(hilbert, ncols)
            assert (list(ech.span().basis), tuple(sorted(ech.rows))) == (reduced, pivots)


class TestMatrixApply:
    """``Matrix.apply`` is the row action ``x -> sum_i x[i] rows[i]``."""

    @staticmethod
    def random_entry(rng):
        # about half the entries zero, so zero rows and zero coordinates both occur
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else Fraction(0)

    def test_agrees_with_the_oracle_on_random_matrices(self):
        rng = random.Random(29)
        for _ in range(300):
            nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
            rows = [[self.random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            if rng.random() < 0.3 and nrows:
                rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
            x = [self.random_entry(rng) for _ in range(nrows)]
            assert Matrix.from_rows(rows, ncols=ncols).apply(x) == row_combination(x, rows, ncols)

    def test_agrees_with_a_dense_triple_loop_on_mixed_entries(self):
        # int and Fraction entries, integral values in both types, halves and zeros
        pool = (0, Fraction(0), 1, -2, Fraction(3), Fraction(1, 2), Fraction(-7, 2))
        rng = random.Random(22)
        for _ in range(300):
            nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
            rows = tuple(tuple(rng.choice(pool) for _ in range(ncols)) for _ in range(nrows))
            x = tuple(rng.choice(pool) for _ in range(nrows))
            image = Matrix(rows, ncols).apply(x)
            # the row action is the bilinear map (x, 1) -> sum_i x[i] rows[i] of an nrows x 1 x ncols table
            assert image == triple_loop([[row] for row in rows], x, (1,), ncols)
            assert all(type(v) is Fraction for v in image)

    def test_square_and_rectangular_shapes(self):
        m = M([[1, 2, 0], [0, "1/2", -1]])
        assert m.apply((3, 0)) == (3, 6, 0)
        assert m.apply((Fraction(1, 3), 2)) == (Fraction(1, 3), Fraction(5, 3), -2)
        assert Matrix.identity(4).apply((1, -2, 0, Fraction(7, 5))) == (1, -2, 0, Fraction(7, 5))
        assert Matrix((), 3).apply(()) == (0, 0, 0)

    @pytest.mark.parametrize("x", [(), (1,), (1, 0, 0, 0)])
    def test_wrong_length_is_refused(self, x):
        with pytest.raises(ValueError, match="length"):
            Matrix.identity(3).apply(x)

    def test_integer_coordinates_give_exact_fractions(self):
        image = M([[1, "1/3"], ["-2/7", 5]]).apply((2, -3))
        assert image == (Fraction(2 * 7 + 6, 7), Fraction(2, 3) - 15)
        assert all(type(v) is Fraction for v in image)


class TestFrac:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (7, Fraction(7)),
            (Fraction(2, 3), Fraction(2, 3)),
            ("-3", Fraction(-3)),
            ("+3", Fraction(3)),
            ("6/4", Fraction(3, 2)),
            (" -1/2 ", Fraction(-1, 2)),
            ("007", Fraction(7)),
        ],
    )
    def test_integers_and_quotients_are_read_exactly(self, value, expected):
        assert frac(value) == expected

    @pytest.mark.parametrize("value", ["1e3", "0.5", "1e100000000", "", "1/", "/2", "1/-2", "inf", "nan", "1_000"])
    def test_strings_that_are_not_p_over_q_are_refused(self, value):
        with pytest.raises(ValueError):
            frac(value)

    def test_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            frac("1/0")

    @pytest.mark.parametrize("value", [True, 0.5, None])
    def test_booleans_floats_and_none_are_refused(self, value):
        with pytest.raises(TypeError):
            frac(value)


class TestEchelonKernel:
    """``_Echelon.kernel`` returns one primitive integer generator per free column, not a basis."""

    @staticmethod
    def check(ambient, rows):
        ech = echelon_of(ambient, rows)
        gens = ech.kernel()
        free = [f for f in range(ambient) if f not in ech.rows]
        assert len(gens) == ambient - ech.rank == len(free)
        for f, gen in zip(free, gens):
            assert all(type(v) is int and v for v in gen.values())
            assert max(gen) == f and gen[f] > 0 and gcd(*gen.values()) == 1
            for row in rows:
                assert not sum((Fraction(row[c]) * v for c, v in gen.items()), Fraction(0))
        assert canonical_span(ambient, gens) == dense_kernel(rows, ambient)

    def test_random_integer_systems(self):
        rng = random.Random(0x4E7)
        for _ in range(400):
            ambient = rng.randint(0, 7)
            self.check(ambient, [[rng.randint(-6, 6) for _ in range(ambient)] for _ in range(rng.randint(0, 8))])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hilbert_systems(self, n):
        for ncols in (n, n + 1, n + 3):
            self.check(ncols, [[Fraction(1, i + j + 1) for j in range(ncols)] for i in range(n)])

    def test_functionals_vanish_and_have_complementary_rank(self):
        rng = random.Random(0xA2)
        spaces = [SubspaceBasis(4, ()), full(4), SubspaceBasis(1, ()), full(1)]
        spaces += [TestCachedEchelon.spaces(rng, rng.randint(1, 6))[rng.randint(0, 1)] for _ in range(200)]
        for space in spaces:
            n = space.ambient_dim
            gens = annihilator_rows(space)
            assert len(gens) == n - space.rank
            assert all(space.annihilated_by(q) for q in gens)
            assert nullspace_of_sparse_rows(n, gens) == SubspaceBasis.from_generators(n, space.basis)

    def test_zero_and_full_spaces(self):
        assert annihilator_rows(SubspaceBasis(3, ())) == [{0: 1}, {1: 1}, {2: 1}]
        assert annihilator_rows(full(3)) == []


class TestRestricted:
    """``restricted(rows)`` is the subspace met with the kernel of ``rows``, solved in the subspace's coordinates."""

    def test_equals_the_kernel_of_the_stacked_system(self):
        rng = random.Random(0x5E55)
        for _ in range(300):
            n = rng.randint(1, 6)
            space = TestCachedEchelon.spaces(rng, n)[rng.randint(0, 1)]
            rows = [
                {c: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for c in rng.sample(range(n), rng.randint(1, n))}
                for _ in range(rng.randint(0, n))
            ]
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            assert space.restricted(rows) == nullspace_of_sparse_rows(n, annihilator_rows(space) + rows)

    def test_a_column_outside_the_ambient_is_refused(self):
        with pytest.raises(ValueError, match="column outside"):
            full(3).restricted([{3: Fraction(1)}])


def test_spaces_built_by_an_echelon_keep_it(monkeypatch):
    """``from_generators`` and kernels, the zero kernel too, hand over the rows of the echelon they built: queries insert nothing."""
    spanned = SubspaceBasis.from_generators(3, [(1, 2, 0), (0, 1, 1)])
    kernel = kernel_of(M([[1, 2, 3]]))
    zero = kernel_of(Matrix.identity(2))  # a full-rank system's zero space
    direct = SubspaceBasis(3, ((1, 3, 1), (0, 2, 2)))
    inserted = []
    insert = _Echelon.insert
    monkeypatch.setattr(_Echelon, "insert", lambda self, row: inserted.append(row) or insert(self, row))
    assert spanned.contains((1, 3, 1)) and not spanned.contains((0, 0, 1))
    assert kernel.contains((-2, 1, 0)) and not kernel.contains((1, 0, 0))
    assert zero.contains((0, 0)) and not zero.contains((1, 0))
    assert direct.contains((1, 2, 0)) and direct.is_subspace_of(spanned) and direct == spanned
    assert inserted == []
    assert not any("basis" in vars(space) for space in (spanned, kernel, zero, direct))  # no query densifies
    assert SubspaceBasis(3, spanned.basis) == spanned  # the constructor folds its rows in, once
    assert inserted


class TestCachedEchelon:
    """The echelon a SubspaceBasis keeps for membership queries changes no answer and no value."""

    @staticmethod
    def fresh_contains(space, v):
        return not _Echelon(space.ambient_dim, integer_rows(space.basis)).reduce(*integer_rows([v]))

    @staticmethod
    def spaces(rng, ambient):
        """A canonical subspace, the same subspace from a basis that is not reduced, and that basis."""
        gens = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        canonical = SubspaceBasis.from_generators(ambient, gens)
        rows = [list(r) for r in canonical.basis]
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i != j:
                    c = rng.randint(-2, 2)
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows = tuple(tuple(r) for r in rows)
        return canonical, SubspaceBasis(ambient, rows), rows

    @staticmethod
    def queries(rng, space, count):
        """Vectors inside ``space`` (random combinations of its basis) and random ones."""
        out = []
        for _ in range(count):
            if space.rank and rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in space.basis]
                out.append(tuple(sum((c * row[i] for c, row in zip(coeffs, space.basis)), Fraction(0))
                                 for i in range(space.ambient_dim)))
            else:
                out.append(tuple(Fraction(rng.randint(-3, 3)) for _ in range(space.ambient_dim)))
        return out

    def test_answers_match_a_fresh_echelon(self):
        rng = random.Random(0xEC)
        reduced_seen = 0
        for _ in range(150):
            ambient = rng.randint(1, 6)
            a, loose, rows = self.spaces(rng, ambient)
            b, _, _ = self.spaces(rng, ambient)
            reduced_seen += rows != a.basis
            assert loose == a
            for v in self.queries(rng, a, 8):
                expected = self.fresh_contains(a, v)
                assert a.contains(v) == expected
                assert loose.contains(v) == expected
            batch = self.queries(rng, a, 4)
            expected = all(self.fresh_contains(a, v) for v in batch)
            assert all(a.contains(v) for v in batch) == expected
            assert all(loose.contains(v) for v in batch) == expected
            assert b.is_subspace_of(a) == all(self.fresh_contains(a, r) for r in b.basis)
            assert b.is_subspace_of(loose) == b.is_subspace_of(a)
            assert loose.is_subspace_of(a) and a.is_subspace_of(loose)
        assert reduced_seen > 50  # the loose bases really are not reduced

    def test_queries_leave_the_value_unchanged(self):
        rng = random.Random(7)
        for ambient in (3, 5, 6):
            canonical, loose, _ = self.spaces(rng, ambient)
            for space in (canonical, loose):
                twin = SubspaceBasis(space.ambient_dim, space.basis)
                basis, digest = space.basis, hash(space)
                space.contains(self.queries(rng, space, 1)[0])
                cached = space.rows
                snapshot = {p: dict(row) for p, row in cached.items()}
                for k, v in enumerate(self.queries(rng, space, 100)):
                    if k % 2 == 0:
                        space.contains(v)
                    else:
                        SubspaceBasis.from_generators(ambient, [v]).is_subspace_of(space)
                assert space.rows is cached
                assert cached == snapshot
                assert space.basis is basis
                assert space == twin and hash(space) == hash(twin) == digest
                assert repr(space) == repr(twin)


def exact_nullspace(ambient, rows):
    """Reference: the kernel of the sparse rows by the oracle's dense Gauss-Jordan elimination."""
    dense = [[row.get(j, 0) for j in range(ambient)] for row in rows]
    return SubspaceBasis(ambient, dense_kernel(dense, ambient))


class TestModularFilter:
    """``nullspace_of_sparse_rows`` eliminates mod P first; its answers stay those of exact elimination."""

    @staticmethod
    def entry(rng, fractions):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6) if fractions else 1)

    def random_system(self, rng, shape):
        """Rows of a full-rank, rank-deficient or ``Fraction`` system, without zero entries."""
        ambient = rng.randint(1, 7)
        fractions = shape == "fractions"
        if shape == "deficient":
            gens = [[self.entry(rng, rng.random() < 0.5) for _ in range(ambient)]
                    for _ in range(rng.randint(0, ambient - 1))]
            dense = [[sum((rng.randint(-3, 3) * g[j] for g in gens), Fraction(0)) for j in range(ambient)]
                     for _ in range(rng.randint(0, 2 * ambient))]
        else:
            density = rng.uniform(0.3, 1.0)
            dense = [[self.entry(rng, fractions) if rng.random() < density else 0 for _ in range(ambient)]
                     for _ in range(rng.randint(ambient, 2 * ambient) if shape == "full" else rng.randint(0, 8))]
        return ambient, [_to_sparse(vector(row)) for row in dense]

    def test_matches_exact_elimination_on_random_systems(self):
        rng = random.Random(0x2B4D)
        full = deficient = 0
        for k in range(600):
            ambient, rows = self.random_system(rng, ("full", "deficient", "fractions")[k % 3])
            expected = exact_nullspace(ambient, rows)
            assert nullspace_of_sparse_rows(ambient, rows) == expected
            full += expected.rank == 0
            deficient += expected.rank > 0
        assert full > 150 and deficient > 150  # both the shortcut and the lift are exercised

    @pytest.mark.parametrize(
        "ambient, rows",
        [
            (1, [{0: P}]),  # a row that vanishes mod P
            (2, [{0: P}]),
            (2, [{0: 1, 1: 1}, {0: 1, 1: P + 1}]),  # determinant P: rank 1 mod P, 2 over Q
            (2, [{0: Fraction(1, P), 1: 1}]),  # a denominator divisible by P
            (3, [{0: Fraction(2, 3 * P), 2: 5}, {1: P * P, 2: 1}]),
            (2, [{0: 7, 1: -(10**6 + 3)}]),  # kernel entry (10**6 + 3)/7, beyond the lift bound
            (2, [{0: 1, 1: -(P + 1)}]),  # lifts to (1, 1) mod P, but the kernel is (P + 1, 1)
            (3, [{0: 1, 2: -(P + 1)}, {1: 1, 2: 2}]),
        ],
    )
    def test_adversarial_systems(self, ambient, rows):
        rows = [{c: Fraction(v) for c, v in row.items()} for row in rows]
        assert nullspace_of_sparse_rows(ambient, rows) == exact_nullspace(ambient, rows)

    def test_explicit_zero_entries_are_ignored(self):
        # 40000 is beyond the lift bound, so this system falls back to exact elimination
        plain = nullspace_of_sparse_rows(3, [{1: Fraction(40000), 2: Fraction(-1)}])
        assert plain.rank == 2
        assert nullspace_of_sparse_rows(3, [{0: Fraction(0), 1: Fraction(40000), 2: Fraction(-1)}]) == plain

    def test_a_lift_that_is_wrong_over_q_is_caught(self):
        assert _rational((P + 1) % P) == 1  # the residue alone cannot tell P + 1 from 1
        space = nullspace_of_sparse_rows(2, [{0: Fraction(1), 1: Fraction(-(P + 1))}])
        assert space.basis == ((Fraction(1), Fraction(1, P + 1)),)

    def test_rational_lift(self):
        rng = random.Random(0x1F7)
        bound = 32767  # floor(sqrt(P / 2))
        for _ in range(300):
            value = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            assert _rational(value.numerator * pow(value.denominator, -1, P) % P) == value
        residue = (10**6 + 3) * pow(7, -1, P) % P
        assert _rational(residue) != Fraction(10**6 + 3, 7)

    def test_a_full_rank_system_is_read_only_up_to_its_rank(self):
        def rows():
            yield {0: Fraction(1), 1: Fraction(2)}
            yield {1: Fraction(3)}
            raise AssertionError("read past full rank")

        assert nullspace_of_sparse_rows(2, rows()) == SubspaceBasis(2, ())

    @pytest.mark.parametrize("row", [{0: Fraction(1), 3: Fraction(1)}, {-1: Fraction(1)}, {2: Fraction(1)}])
    def test_columns_outside_the_ambient_are_refused(self, row):
        with pytest.raises(ValueError):
            nullspace_of_sparse_rows(2, [row])
