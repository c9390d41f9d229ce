"""Exact dense linear algebra over the rationals.

Everything in this package reduces to the primitives here: reduced row
echelon form, nullspaces, and a small lattice of subspace operations
(membership, intersection, equality).  All arithmetic uses
:class:`fractions.Fraction`, so results are exact; there are no floats and
no tolerances anywhere.

Subspaces are always stored in a canonical form: the unique reduced row
echelon basis with lexicographically earliest pivots and leading entries
equal to 1.  Two subspaces are equal exactly when their stored bases are
identical tuples, which makes equality (and hence solver comparisons
downstream) a plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(frac(v) for v in values)


def format_scalar(value: Fraction) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (used by all file formats)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Matrix:
    """Immutable dense rational matrix.

    ``rows`` is a tuple of equal-length tuples of Fractions; ``ncols`` is
    carried explicitly so degenerate shapes (zero rows) stay well defined.
    """

    rows: tuple[Vector, ...]
    ncols: int

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("matrix rows must all have the same length")

    @classmethod
    def from_rows(cls, data: Sequence[Sequence[RationalLike]], ncols: Optional[int] = None) -> "Matrix":
        rows = tuple(vector(row) for row in data)
        if ncols is None:
            if not rows:
                raise ValueError("cannot infer column count of an empty matrix")
            ncols = len(rows[0])
        return cls(rows, ncols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls(tuple(tuple(ZERO for _ in range(ncols)) for _ in range(nrows)), ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        """Matrix times coordinate column: ``(M v)_i = sum_j M[i][j] v[j]``."""
        if len(v) != self.ncols:
            raise ValueError(f"matvec length mismatch: matrix has {self.ncols} columns, vector has {len(v)}")
        return tuple(sum((row[j] * v[j] for j in range(self.ncols)), ZERO) for row in self.rows)

    def vecmat(self, v: Sequence[Fraction]) -> Vector:
        """Coordinate row times matrix: ``(v M)_j = sum_i v[i] M[i][j]``."""
        if len(v) != self.nrows:
            raise ValueError(f"vecmat length mismatch: matrix has {self.nrows} rows, vector has {len(v)}")
        return tuple(sum((v[i] * self.rows[i][j] for i in range(self.nrows)), ZERO) for j in range(self.ncols))

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matmul shape mismatch")
        return Matrix(tuple(other.vecmat(row) for row in self.rows), other.ncols)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)), self.nrows)

    def trace(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def scale(self, s: RationalLike) -> "Matrix":
        c = frac(s)
        return Matrix(tuple(tuple(c * x for x in row) for row in self.rows), self.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("matrix addition shape mismatch")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)),
            self.ncols,
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def to_strings(self) -> list[list[str]]:
        return [[format_scalar(x) for x in row] for row in self.rows]


SparseRow = dict[int, Fraction]


class _Echelon:
    """Incremental reduced row echelon accumulator over sparse rows.

    Rows are kept fully back-reduced, so each stored row is zero at every
    other pivot column.  That keeps rows sparse for the large but
    near-full-rank systems produced by the solvers, and makes reduction of
    an incoming row a single pass over its pivot columns.
    """

    def __init__(self, ambient: int) -> None:
        self.ambient = ambient
        self.rows: dict[int, SparseRow] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: SparseRow) -> SparseRow:
        """Return the residue of ``row`` after eliminating existing pivots."""
        residue = dict(row)
        for col in [c for c in residue if c in self.rows]:
            coeff = residue.get(col)
            if not coeff:
                continue
            pivot_row = self.rows[col]
            for c, v in pivot_row.items():
                acc = residue.get(c, ZERO) - coeff * v
                if acc:
                    residue[c] = acc
                else:
                    residue.pop(c, None)
        return residue

    def insert(self, row: SparseRow) -> bool:
        """Fold one row in; returns True when the rank grew."""
        residue = self.reduce(row)
        if not residue:
            return False
        pivot = min(residue)
        lead = residue[pivot]
        normalized = {c: v / lead for c, v in residue.items()}
        for other in self.rows.values():
            coeff = other.get(pivot)
            if coeff:
                for c, v in normalized.items():
                    acc = other.get(c, ZERO) - coeff * v
                    if acc:
                        other[c] = acc
                    else:
                        other.pop(c, None)
        self.rows[pivot] = normalized
        return True

    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def dense_rows(self) -> list[Vector]:
        out = []
        for pivot in self.pivot_columns():
            sparse = self.rows[pivot]
            out.append(tuple(sparse.get(j, ZERO) for j in range(self.ambient)))
        return out


def _to_sparse(row: Sequence[Fraction]) -> SparseRow:
    return {j: v for j, v in enumerate(row) if v}


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``m``.

    Returns ``(rref_matrix, rank, pivot_columns)``.  The result has the same
    shape as the input (zero rows padded at the bottom) and is the unique
    RREF: leading entries 1, pivots strictly increasing, pivot columns
    cleared above and below.
    """
    ech = _Echelon(m.ncols)
    for row in m.rows:
        ech.insert(_to_sparse(row))
    dense = ech.dense_rows()
    zero_row = tuple(ZERO for _ in range(m.ncols))
    while len(dense) < m.nrows:
        dense.append(zero_row)
    return Matrix(tuple(dense), m.ncols), ech.rank, ech.pivot_columns()


@dataclass(frozen=True)
class SubspaceBasis:
    """A linear subspace in canonical (RREF) basis form.

    ``basis`` rows are the unique reduced echelon basis of the subspace, so
    two SubspaceBasis values describe the same subspace exactly when they
    compare equal.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @classmethod
    def from_generators(cls, ambient_dim: int, generators: Iterable[Sequence[RationalLike]]) -> "SubspaceBasis":
        ech = _Echelon(ambient_dim)
        for gen in generators:
            gen = vector(gen)
            if len(gen) != ambient_dim:
                raise ValueError(f"generator length {len(gen)} != ambient dimension {ambient_dim}")
            ech.insert(_to_sparse(gen))
        return cls(ambient_dim, tuple(ech.dense_rows()))

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls.from_generators(ambient_dim, Matrix.identity(ambient_dim).rows)

    @cached_property
    def _echelon(self) -> _Echelon:
        """The basis folded into an echelon once per instance; only ever reduced against.

        It lives in the instance ``__dict__``, outside the dataclass fields,
        so ``==``, ``hash`` and ``repr`` do not see it.  The basis is
        inserted row by row, so a basis that is not already reduced still
        gives the right echelon.
        """
        ech = _Echelon(self.ambient_dim)
        for row in self.basis:
            ech.insert(_to_sparse(row))
        return ech

    def contains(self, v: Sequence[RationalLike]) -> bool:
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient dimension {self.ambient_dim}")
        return not self._echelon.reduce(_to_sparse(v))

    def contains_all(self, vectors: Iterable[Sequence[RationalLike]]) -> bool:
        ech = self._echelon
        return all(not ech.reduce(_to_sparse(vector(v))) for v in vectors)

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("cannot intersect subspaces of different ambient dimensions")
        n = self.ambient_dim
        ra, rb = self.rank, other.rank
        if ra == 0 or rb == 0:
            return SubspaceBasis.zero(n)
        # x in both spans  <=>  x = alpha . A = beta . B; solve [A^T | -B^T] (alpha;beta) = 0.
        stacked = Matrix(
            tuple(
                tuple(self.basis[p][i] for p in range(ra)) + tuple(-other.basis[q][i] for q in range(rb))
                for i in range(n)
            ),
            ra + rb,
        )
        gens = []
        for sol in nullspace(stacked).basis:
            alpha = sol[:ra]
            gens.append(tuple(sum((alpha[p] * self.basis[p][i] for p in range(ra)), ZERO) for i in range(n)))
        return SubspaceBasis.from_generators(n, gens)

    def plus(self, other: "SubspaceBasis") -> "SubspaceBasis":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("cannot add subspaces of different ambient dimensions")
        return SubspaceBasis.from_generators(self.ambient_dim, self.basis + other.basis)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        return other.contains_all(self.basis)

    def annihilated_by(self, functional: SparseRow) -> bool:
        """Whether the functional ``v -> sum(c * v[j])`` vanishes on the subspace.

        The row space of a linear system is the annihilator of its nullspace,
        so on a solution space this says whether the equation is implied by
        the system that defines it.
        """
        return all(not sum((c * v[j] for j, c in functional.items()), ZERO) for v in self.basis)


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of ``{v : M v = 0}``."""
    reduced, rank, pivots = rref(m)
    n = m.ncols
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    generators = []
    for f in free_cols:
        v = [ZERO] * n
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.rows[r][f]
        generators.append(tuple(v))
    return SubspaceBasis.from_generators(n, generators)


def nullspace_of_sparse_rows(ambient: int, rows: Iterable[SparseRow]) -> tuple[SubspaceBasis, int]:
    """Nullspace of a system given as sparse rows; returns (basis, system rank)."""
    ech = _Echelon(ambient)
    for row in rows:
        ech.insert(dict(row))
    pivots = ech.pivot_columns()
    pivot_set = set(pivots)
    free_cols = [j for j in range(ambient) if j not in pivot_set]
    generators = []
    for f in free_cols:
        v = [ZERO] * ambient
        v[f] = ONE
        for p in pivots:
            coeff = ech.rows[p].get(f)
            if coeff:
                v[p] = -coeff
        generators.append(tuple(v))
    return SubspaceBasis.from_generators(ambient, generators), ech.rank


def solve_affine(m: Matrix, b: Sequence[RationalLike]) -> Optional[tuple[Vector, SubspaceBasis]]:
    """Solve ``M x = b`` exactly.

    Returns ``None`` when the system is inconsistent, else a canonical
    particular solution (free coordinates set to zero) together with the
    nullspace of ``M``.
    """
    b = vector(b)
    if len(b) != m.nrows:
        raise ValueError(f"right-hand side length {len(b)} != row count {m.nrows}")
    n = m.ncols
    augmented = Matrix(tuple(row + (bv,) for row, bv in zip(m.rows, b)), n + 1)
    reduced, rank, pivots = rref(augmented)
    if n in pivots:
        return None
    particular = [ZERO] * n
    for r, p in enumerate(pivots):
        particular[p] = reduced.rows[r][n]
    return tuple(particular), nullspace(m)
