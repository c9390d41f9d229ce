"""Exact sparse linear algebra over the rationals.

Everything in this package reduces to the primitives here.  One exact
sparse elimination, :class:`_Echelon`, does every solve: nullspaces,
annihilators and intersections all read their answer off a single echelon
through one free-column extraction, and a small lattice of subspace
operations (membership, intersection, equality) sits on top.
:func:`nullspace_of_sparse_rows` is the one function that turns the rows of
a linear system into its solution space.  An affine solution set is a known
solution plus such a space, and :meth:`SubspaceBasis.reduced_from_last`
gives its canonical particular member (free coordinates zero).  Dense
:class:`Matrix` values are inputs and outputs, never the working form.
Exact arithmetic uses :class:`fractions.Fraction`; there are no floats and
no tolerances anywhere.

:func:`nullspace_of_sparse_rows` puts a modular filter in front of
``_Echelon``: it scales each row to integers, eliminates in GF(P) with
P = 2**31 - 1 (integers only), and skips the exact elimination of the rows
whenever it can prove the answer.  Its result is exact, by three facts:

* the rank mod P is at most the rank over Q, so full rank mod P means the
  kernel over Q is zero;
* otherwise the kernel mod P is lifted to rationals, and the lift is
  accepted only if every row annihilates every lifted vector in exact
  integer arithmetic (M v = 0).  The lift then lies in the kernel over Q and
  has at least its dimension, so it is the kernel;
* the reduced row echelon basis of a space is unique, so canonicalizing
  the lift through ``_Echelon`` gives the basis exact elimination gives.

When a lift or the check fails, ``_Echelon`` eliminates every row exactly.

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
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` strings and Fractions to an exact rational.

    Booleans and floats are refused with ``TypeError``, so ``true`` or
    ``0.5`` in a JSON document is an error rather than a silent 1 or a
    rounded binary fraction.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
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

    def kernel(self) -> "SubspaceBasis":
        """Canonical basis of the vectors every row annihilates.

        Each free column ``f`` gives one kernel vector: 1 at ``f`` and, at
        each pivot, minus that pivot row's entry in column ``f``.
        """
        ker = _Echelon(self.ambient)
        for f in range(self.ambient):
            if f not in self.rows:
                gen = {p: -row[f] for p, row in self.rows.items() if f in row}
                gen[f] = ONE
                ker.insert(gen)
        return ker.span()


# The prime of the modular filter in front of ``_Echelon``, and the largest
# numerator and denominator that ``_rational`` recovers from a residue mod P.
P = 2**31 - 1
_LIFT_BOUND = isqrt(P // 2)


class _ModEchelon:
    """The echelon of :class:`_Echelon` over GF(P), fed with integer rows.

    A stored row leaves out its leading 1, so it holds only free columns.
    It gives the rank mod ``P`` and the kernel mod ``P``; no exact answer is
    read off it without the check in :func:`nullspace_of_sparse_rows`.
    """

    def __init__(self, ambient: int) -> None:
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> free-column entries

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: dict[int, int]) -> None:
        rows = self.rows
        residue = dict(row)
        for col in [c for c in residue if c in rows]:
            coeff = residue.pop(col) % P
            for c, v in rows[col].items():
                residue[c] = residue.get(c, 0) - coeff * v
        residue = {c: r for c, v in residue.items() if (r := v % P)}
        if not residue:
            return
        pivot = min(residue)
        inverse = pow(residue.pop(pivot), -1, P)
        normalized = {c: v * inverse % P for c, v in residue.items()}
        for other in rows.values():
            if pivot in other:
                coeff = other.pop(pivot)
                for c, v in normalized.items():
                    acc = (other.get(c, 0) - coeff * v) % P
                    if acc:
                        other[c] = acc
                    else:
                        del other[c]
        rows[pivot] = normalized

    def kernel(self) -> Optional[list[SparseRow]]:
        """The free-column kernel basis of ``_Echelon.kernel``, lifted to Q; None if an entry does not lift."""
        gens = {f: {f: ONE} for f in range(self.ambient) if f not in self.rows}
        for p, row in self.rows.items():
            for f, v in row.items():
                lifted = _rational(P - v)
                if lifted is None:
                    return None
                gens[f][p] = lifted
        return list(gens.values())


def _rational(a: int) -> Optional[Fraction]:
    """The r/s with |r|, |s| <= ``_LIFT_BOUND`` and r = a*s mod P, if there is one.

    Wang's half-extended Euclidean algorithm: such an r/s is unique, and the
    first remainder at most the bound gives it.
    """
    r0, r1, s0, s1 = P, a, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _annihilated(rows: list[dict[int, int]], kernel: list[SparseRow], ambient: int) -> bool:
    """Whether every integer row has a zero exact dot product with every kernel vector."""
    for gen in kernel:
        scaled = [0] * ambient
        for c, v in _integral(gen).items():
            scaled[c] = v
        at = scaled.__getitem__
        for row in rows:
            if sum(map(mul, row.values(), map(at, row))):
                return False
    return True


def _integral(row: SparseRow) -> dict[int, int]:
    """``row`` times the lcm of its denominators: integer entries on the same line.

    Zero entries are dropped here, where every row enters, so no echelon
    ever sees one (``_Echelon.insert`` divides by the entry at its lowest column).
    """
    den = lcm(*[v.denominator for v in row.values()])
    return {c: num * (den // v.denominator) for c, v in row.items() if (num := v.numerator)}


def _check_columns(row: SparseRow, ambient: int) -> None:
    if row and (min(row) < 0 or max(row) >= ambient):
        raise ValueError(f"sparse row has a column outside 0..{ambient - 1}: {sorted(row)}")


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
        return all(self.contains(v) for v in vectors)

    def _same_ambient(self, other: "SubspaceBasis", verb: str) -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"cannot {verb} subspaces of different ambient dimensions")

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._same_ambient(other, "intersect")
        functionals = self.annihilator().basis + other.annihilator().basis
        return nullspace_of_sparse_rows(self.ambient_dim, map(_to_sparse, functionals))[0]

    def plus(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._same_ambient(other, "add")
        return SubspaceBasis.from_generators(self.ambient_dim, self.basis + other.basis)

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        self._same_ambient(other, "compare")
        return other.contains_all(self.basis)

    def annihilated_by(self, functional: SparseRow) -> bool:
        """Whether the functional ``v -> sum(c * v[j])`` vanishes on the subspace.

        The row space of a linear system is the annihilator of its nullspace,
        so on a solution space this says whether the equation is implied by
        the system that defines it.
        """
        _check_columns(functional, self.ambient_dim)
        return all(not sum((c * v[j] for j, c in functional.items()), ZERO) for v in self.basis)

    def annihilator(self) -> "SubspaceBasis":
        """Canonical basis of the functionals ``q`` with ``sum(q[j] * v[j]) == 0`` on the subspace."""
        return self._echelon.kernel()

    def reduced_from_last(self, v: Sequence[Fraction]) -> Vector:
        """The one vector of ``v + space`` that is zero at the pivots of a last-to-first echelon.

        When the space is the kernel of a system, those pivots are the
        system's free columns (each free-column kernel vector of
        ``_Echelon.kernel`` ends at its free column), so for a solution ``v``
        this is the particular solution with every free coordinate zero.
        """
        last = self.ambient_dim - 1
        ech = _Echelon(self.ambient_dim)
        for row in self.basis:
            ech.insert({last - j: x for j, x in enumerate(row) if x})
        residue = ech.reduce({last - j: x for j, x in enumerate(v) if x})
        return tuple(residue.get(last - j, ZERO) for j in range(self.ambient_dim))


def nullspace(m: Matrix) -> SubspaceBasis:
    """Canonical basis of ``{v : M v = 0}``."""
    return nullspace_of_sparse_rows(m.ncols, map(_to_sparse, m.rows))[0]


def nullspace_of_sparse_rows(ambient: int, rows: Iterable[SparseRow]) -> tuple[SubspaceBasis, int]:
    """Nullspace of a system given as sparse rows; returns (basis, system rank).

    Each row is scaled to integers by the lcm of its denominators, which
    keeps the row space, and is the only copy kept.  ``rows`` is read only
    until the rank mod ``P`` reaches ``ambient``.  The module docstring
    gives the argument that makes the answer exact.
    """
    mod = _ModEchelon(ambient)
    scaled = []
    for row in rows:
        _check_columns(row, ambient)
        row = _integral(row)
        scaled.append(row)
        mod.insert(row)
        if mod.rank == ambient:
            return SubspaceBasis.zero(ambient), ambient
    ech = _Echelon(ambient)
    kernel = mod.kernel()
    if kernel is not None and _annihilated(scaled, kernel, ambient):
        for gen in kernel:
            ech.insert(gen)
        return ech.span(), ambient - len(kernel)
    for row in scaled:
        ech.insert({c: Fraction(v) for c, v in row.items()})
    return ech.kernel(), ech.rank
