"""Exact linear algebra core: RREF, nullspaces, subspace lattice."""

import random
from fractions import Fraction

import pytest

from omega_lie.linalg import (
    P,
    Matrix,
    SubspaceBasis,
    _Echelon,
    _rational,
    _to_sparse,
    frac,
    nullspace,
    nullspace_of_sparse_rows,
    rref,
    solve_affine,
    vector,
)


def M(data):
    return Matrix.from_rows(data)


class TestRref:
    def test_identity_is_fixed(self):
        m = Matrix.identity(2)
        reduced, rank, pivots = rref(m)
        assert reduced == m
        assert rank == 2
        assert pivots == (0, 1)

    def test_zero_matrix(self):
        m = Matrix.zeros(2, 2)
        reduced, rank, pivots = rref(m)
        assert reduced == m
        assert rank == 0
        assert pivots == ()

    def test_rank_one(self):
        # Hand Gaussian elimination: second row is twice the first.
        reduced, rank, pivots = rref(M([[1, 2], [2, 4]]))
        assert reduced == M([[1, 2], [0, 0]])
        assert rank == 1
        assert pivots == (0,)

    def test_leading_entries_are_one(self):
        reduced, rank, _ = rref(M([[2, 4, 6], [0, 0, 5]]))
        assert reduced.rows[0][0] == 1
        assert reduced.rows[1][2] == 1
        assert rank == 2

    def test_idempotent(self):
        m = M([[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]])
        once, _, _ = rref(m)
        twice, _, _ = rref(once)
        assert once == twice


class TestNullspace:
    def test_zero_matrix_gives_full_space(self):
        ns = nullspace(Matrix.zeros(3, 3))
        assert ns.rank == 3
        assert ns == SubspaceBasis.full(3)

    def test_identity_gives_zero_space(self):
        assert nullspace(Matrix.identity(4)).rank == 0

    def test_single_equation(self):
        # x + 2y = 0 solved by hand: span{(-2, 1)}.
        ns = nullspace(M([[1, 2]]))
        assert ns == SubspaceBasis.from_generators(2, [(-2, 1)])
        assert ns.rank == 1

    def test_exact_kernel_property(self):
        m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        ns = nullspace(m)
        for v in ns.basis:
            assert all(x == 0 for x in m.matvec(v))


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
        with pytest.raises(ValueError):
            s.contains((1, 0, 0))

    def test_contains_all_dimension_mismatch(self):
        s = SubspaceBasis.from_generators(3, [(1, 0, 0)])
        with pytest.raises(ValueError):
            s.contains_all([(1, 0)])

    def test_is_subspace_of_across_ambient_dimensions(self):
        with pytest.raises(ValueError):
            SubspaceBasis.from_generators(2, [(1, 0)]).is_subspace_of(SubspaceBasis.full(3))
        with pytest.raises(ValueError):
            SubspaceBasis.zero(2).is_subspace_of(SubspaceBasis.full(3))

    def test_annihilated_by_a_column_outside_the_ambient(self):
        with pytest.raises(ValueError):
            SubspaceBasis.full(3).annihilated_by({5: Fraction(1)})

    def test_intersection_idempotent(self):
        s = SubspaceBasis.from_generators(3, [(1, 2, 3), (0, 1, 1)])
        assert s.intersect(s) == s

    def test_intersection_of_complementary_lines(self):
        a = SubspaceBasis.from_generators(2, [(1, 0)])
        b = SubspaceBasis.from_generators(2, [(0, 1)])
        assert a.intersect(b).rank == 0

    def test_intersection_of_coordinate_planes(self):
        a = SubspaceBasis.from_generators(3, [(1, 0, 0), (0, 1, 0)])
        b = SubspaceBasis.from_generators(3, [(0, 1, 0), (0, 0, 1)])
        assert a.intersect(b) == SubspaceBasis.from_generators(3, [(0, 1, 0)])

    def test_equality_reflexive_and_scale_invariant(self):
        a = SubspaceBasis.from_generators(2, [(1, 2)])
        b = SubspaceBasis.from_generators(2, [(2, 4)])
        assert a == b
        assert SubspaceBasis.full(2) != SubspaceBasis.zero(2)

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


def sparse_system(m, b):
    """``(row, rhs)`` pairs of the system ``m x = b``."""
    return [(_to_sparse(row), bv) for row, bv in zip(m.rows, b)]


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(3, sparse_system(Matrix.identity(3), (5, frac("1/2"), -2)))
        assert sol is not None
        particular, homogeneous = sol
        assert particular == (5, Fraction(1, 2), -2)
        assert homogeneous.rank == 0

    def test_inconsistent(self):
        assert solve_affine(2, sparse_system(Matrix.zeros(2, 2), (1, 0))) is None

    def test_one_equation(self):
        sol = solve_affine(2, sparse_system(M([[1, 1]]), (2,)))
        assert sol is not None
        particular, homogeneous = sol
        assert particular == (2, 0)
        assert homogeneous == SubspaceBasis.from_generators(2, [(1, -1)])

    def test_solutions_are_exact(self):
        m = M([[2, 3, 1], [1, 0, 2]])
        b = (7, 5)
        sol = solve_affine(3, sparse_system(m, b))
        assert sol is not None
        particular, homogeneous = sol
        assert m.matvec(particular) == b
        for h in homogeneous.basis:
            shifted = tuple(p + x for p, x in zip(particular, h))
            assert m.matvec(shifted) == b

    @staticmethod
    def reference(m, b):
        """Dense reference: particular solution from the RREF of ``[m | b]``, kernel from the RREF of ``m``."""
        n = m.ncols
        reduced, _, pivots = rref(Matrix(tuple(row + (bv,) for row, bv in zip(m.rows, b)), n + 1))
        if n in pivots:
            return None
        particular = [Fraction(0)] * n
        for r, p in enumerate(pivots):
            particular[p] = reduced.rows[r][n]
        reduced, _, pivots = rref(m)
        kernel = []
        for f in (j for j in range(n) if j not in pivots):
            v = [Fraction(0)] * n
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -reduced.rows[r][f]
            kernel.append(v)
        return tuple(particular), SubspaceBasis.from_generators(n, kernel)

    def test_matches_the_dense_reference_on_random_systems(self):
        rng = random.Random(0xAFF1)
        consistent = 0
        for _ in range(400):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            density = rng.random()
            m = Matrix.from_rows(
                [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < density else 0
                  for _ in range(ncols)] for _ in range(nrows)]
            )
            b = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nrows))
            sol = solve_affine(ncols, sparse_system(m, b))
            assert sol == self.reference(m, b)
            if sol is not None:
                consistent += 1
                assert m.matvec(sol[0]) == b
        assert 50 < consistent < 350  # both outcomes are exercised


def random_matrix(rng, nrows, ncols, span=9):
    return Matrix.from_rows(
        [[Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_rank_nullity_and_idempotence_on_random_matrices():
    # 1000 random matrices: rank(m) + dim null(m) == cols, rref twice == rref once.
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        reduced, rank, _ = rref(m)
        assert rank + nullspace(m).rank == ncols
        again, rank2, _ = rref(reduced)
        assert again == reduced
        assert rank2 == rank


def test_intersection_rank_formula_on_random_subspaces():
    rng = random.Random(42)
    for _ in range(200):
        ambient = rng.randint(1, 5)
        a = SubspaceBasis.from_generators(
            ambient, [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        )
        b = SubspaceBasis.from_generators(
            ambient, [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        )
        meet = a.intersect(b)
        join = a.plus(b)
        assert meet.rank == a.rank + b.rank - join.rank
        assert meet.is_subspace_of(a) and meet.is_subspace_of(b)


class TestAnnihilator:
    @staticmethod
    def random_spaces(rng, count):
        spaces = [SubspaceBasis.zero(4), SubspaceBasis.full(4), SubspaceBasis.zero(1), SubspaceBasis.full(1)]
        for _ in range(count):
            ambient = rng.randint(1, 6)
            spaces.append(TestCachedEchelon.spaces(rng, ambient)[rng.randint(0, 1)])
        return spaces

    def test_functionals_vanish_and_have_complementary_rank(self):
        rng = random.Random(0xA2)
        for space in self.random_spaces(rng, 200):
            n = space.ambient_dim
            ann = space.annihilator()
            assert ann.ambient_dim == n
            assert all(space.annihilated_by(_to_sparse(q)) for q in ann.basis)
            assert SubspaceBasis.from_generators(n, ann.basis).rank == n - space.rank
            assert ann.annihilator() == SubspaceBasis.from_generators(n, space.basis)

    def test_zero_and_full_spaces(self):
        assert SubspaceBasis.zero(3).annihilator() == SubspaceBasis.full(3)
        assert SubspaceBasis.full(3).annihilator() == SubspaceBasis.zero(3)


def test_spaces_built_by_an_echelon_keep_it(monkeypatch):
    """``from_generators`` and kernels hand over the echelon they built: queries insert nothing."""
    spanned = SubspaceBasis.from_generators(3, [(1, 2, 0), (0, 1, 1)])
    kernel = nullspace(M([[1, 2, 3]]))
    inserted = []
    insert = _Echelon.insert
    monkeypatch.setattr(_Echelon, "insert", lambda self, row: inserted.append(row) or insert(self, row))
    assert spanned.contains((1, 3, 1)) and not spanned.contains((0, 0, 1))
    assert kernel.contains((-2, 1, 0)) and not kernel.contains((1, 0, 0))
    assert inserted == []
    assert SubspaceBasis(3, spanned.basis).contains((1, 3, 1))  # a directly built basis folds its rows in
    assert inserted


class TestCachedEchelon:
    """The echelon a SubspaceBasis keeps for membership queries changes no answer and no value."""

    @staticmethod
    def fresh_contains(space, v):
        ech = _Echelon(space.ambient_dim)
        for row in space.basis:
            ech.insert(_to_sparse(row))
        return not ech.reduce(_to_sparse(vector(v)))

    @staticmethod
    def spaces(rng, ambient):
        """A canonical subspace and the same subspace from a basis that is not reduced."""
        gens = [[rng.randint(-3, 3) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
        canonical = SubspaceBasis.from_generators(ambient, gens)
        rows = [list(r) for r in canonical.basis]
        for i in range(len(rows)):
            for j in range(len(rows)):
                if i != j:
                    c = rng.randint(-2, 2)
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        return canonical, SubspaceBasis(ambient, tuple(tuple(r) for r in rows))

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
            a, loose = self.spaces(rng, ambient)
            b, _ = self.spaces(rng, ambient)
            reduced_seen += loose.basis != a.basis
            for v in self.queries(rng, a, 8):
                expected = self.fresh_contains(a, v)
                assert a.contains(v) == expected
                assert loose.contains(v) == expected
            batch = self.queries(rng, a, 4)
            expected = all(self.fresh_contains(a, v) for v in batch)
            assert a.contains_all(batch) == expected
            assert loose.contains_all(batch) == expected
            assert b.is_subspace_of(a) == all(self.fresh_contains(a, r) for r in b.basis)
            assert b.is_subspace_of(loose) == b.is_subspace_of(a)
            assert loose.is_subspace_of(a) and a.is_subspace_of(loose)
        assert reduced_seen > 50  # the loose bases really are not reduced

    def test_queries_leave_the_value_unchanged(self):
        rng = random.Random(7)
        for ambient in (3, 5, 6):
            canonical, loose = self.spaces(rng, ambient)
            for space in (canonical, loose):
                twin = SubspaceBasis(space.ambient_dim, space.basis)
                basis, digest = space.basis, hash(space)
                space.contains(self.queries(rng, space, 1)[0])
                cached = space._echelon
                snapshot = {p: dict(row) for p, row in cached.rows.items()}
                for k, v in enumerate(self.queries(rng, space, 100)):
                    if k % 3 == 0:
                        space.contains(v)
                    elif k % 3 == 1:
                        space.contains_all([v, v])
                    else:
                        SubspaceBasis.from_generators(ambient, [v]).is_subspace_of(space)
                assert space._echelon is cached
                assert cached.rows == snapshot
                assert space.basis is basis
                assert space == twin and hash(space) == hash(twin) == digest
                assert repr(space) == repr(twin)


def exact_nullspace(ambient, rows):
    """Reference: every row folded into one exact echelon, kernel read off its free columns."""
    ech = _Echelon(ambient)
    for row in rows:
        ech.insert(row)
    return ech.kernel(), ech.rank


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
            full += expected[1] == ambient
            deficient += expected[1] < ambient
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

    def test_a_lift_that_is_wrong_over_q_is_caught(self):
        assert _rational((P + 1) % P) == 1  # the residue alone cannot tell P + 1 from 1
        space, rank = nullspace_of_sparse_rows(2, [{0: Fraction(1), 1: Fraction(-(P + 1))}])
        assert space.basis == ((Fraction(1), Fraction(1, P + 1)),) and rank == 1

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

        assert nullspace_of_sparse_rows(2, rows()) == (SubspaceBasis.zero(2), 2)

    @pytest.mark.parametrize("row", [{0: Fraction(1), 3: Fraction(1)}, {-1: Fraction(1)}, {2: Fraction(1)}])
    def test_columns_outside_the_ambient_are_refused(self, row):
        with pytest.raises(ValueError):
            nullspace_of_sparse_rows(2, [row])
