"""Exact sparse linear algebra over the rationals.

Everything in this package reduces to the primitives here.  One sparse
elimination, :class:`_Echelon`, does every solve: nullspaces, affine
systems, annihilators and intersections all read their answer off a single
echelon through one free-column extraction, and a small lattice of subspace
operations (membership, intersection, equality) sits on top.  Dense
:class:`Matrix` values are inputs and outputs, never the working form.  All
arithmetic uses :class:`fractions.Fraction`, so results are exact; there are
no floats and no tolerances anywhere.

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

    def span(self) -> "SubspaceBasis":
        """The row space as a canonical basis that keeps this echelon for its queries."""
        space = SubspaceBasis(self.ambient, tuple(self.dense_rows()))
        space.__dict__["_echelon"] = self
        return space

    def kernel(self, ncols: Optional[int] = None) -> "SubspaceBasis":
        """Canonical basis of the vectors every row annihilates, on the first ``ncols`` columns.

        Each free column ``f`` gives one kernel vector: 1 at ``f`` and, at
        each pivot, minus that pivot row's entry in column ``f``.  Columns
        from ``ncols`` on are ignored; ``solve_affine`` uses that to read the
        homogeneous space off an echelon with a right-hand-side column.
        """
        n = self.ambient if ncols is None else ncols
        ker = _Echelon(n)
        for f in range(n):
            if f not in self.rows:
                gen = {p: -row[f] for p, row in self.rows.items() if f in row}
                gen[f] = ONE
                ker.insert(gen)
        return ker.span()


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
        return ech.span()

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
        so ``==``, ``hash`` and ``repr`` do not see it.  A basis built by an
        echelon (``from_generators``, kernels) arrives with that echelon; a
        basis given to the constructor is inserted row by row here, so one
        that is not already reduced still gives the right echelon.
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
        functionals = self.annihilator().basis + other.annihilator().basis
        return nullspace_of_sparse_rows(self.ambient_dim, map(_to_sparse, functionals))[0]

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

    def annihilator(self) -> "SubspaceBasis":
        """Canonical basis of the functionals ``q`` with ``sum(q[j] * v[j]) == 0`` on the subspace."""
        return self._echelon.kernel()


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of ``{v : M v = 0}``."""
    return nullspace_of_sparse_rows(m.ncols, map(_to_sparse, m.rows))[0]


def nullspace_of_sparse_rows(ambient: int, rows: Iterable[SparseRow]) -> tuple[SubspaceBasis, int]:
    """Nullspace of a system given as sparse rows; returns (basis, system rank)."""
    ech = _Echelon(ambient)
    for row in rows:
        ech.insert(row)
    return ech.kernel(), ech.rank


def solve_affine(
    ambient: int, rows: Iterable[tuple[SparseRow, RationalLike]]
) -> Optional[tuple[Vector, SubspaceBasis]]:
    """Solve the sparse system ``sum(row[j] * x[j]) == rhs`` over its ``(row, rhs)`` pairs.

    The right-hand side is appended as one homogenizing column, index
    ``ambient``, so a single echelon answers everything: the system is
    inconsistent exactly when that column is a pivot (``None``); otherwise
    the canonical particular solution (free coordinates zero) is that
    column's entries at the pivots, and the homogeneous space is the kernel
    of the first ``ambient`` columns.
    """
    ech = _Echelon(ambient + 1)
    for row, rhs in rows:
        rhs = frac(rhs)
        ech.insert({**row, ambient: rhs} if rhs else row)
    if ambient in ech.rows:
        return None
    particular = [ZERO] * ambient
    for p, row in ech.rows.items():
        particular[p] = row.get(ambient, ZERO)
    return tuple(particular), ech.kernel(ambient)
