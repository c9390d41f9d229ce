"""Finite-dimensional algebras with an antisymmetric bracket and a skew form.

An :class:`OmegaAlgebra` is given by structure constants ``c[i][j][k]``
(``[e_i, e_j] = sum_k c[i][j][k] e_k``) together with the values
``omega[i][j]`` of a skew-symmetric bilinear form.  The defining axioms are

* ``[x, y] = -[y, x]``,
* ``[[x,y],z] + [[y,z],x] + [[z,x],y] = w(x,y) z + w(y,z) x + w(z,x) y``.

With ``omega == 0`` this is an ordinary Lie algebra, and the Lie-side
utilities (adjoint maps, Killing form, center, direct sums) apply.

Matrix convention used throughout the package: the matrix of a linear map
stores the image of the i-th basis vector in row ``i``, i.e.
``f(e_i) = sum_j matrix[i][j] e_j``.  This matches the matrix forms produced
by the solvers, where a solution matrix such as a derivation pattern is read
row by row.  :meth:`LinearMap.apply` performs the abstract application; the
local-analysis engine additionally evaluates stored matrices on coordinate
columns (see :mod:`omega_lie.local`).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .linalg import (
    Matrix,
    RationalLike,
    SubspaceBasis,
    Vector,
    ZERO,
    format_scalar,
    frac,
    nullspace,
    rref,
    vector,
)

BracketTable = Mapping[tuple[int, int], Mapping[int, RationalLike]]
OmegaTable = Mapping[tuple[int, int], RationalLike]


class AlgebraFormatError(ValueError):
    """Raised when an algebra document or file cannot be interpreted."""


@dataclass(frozen=True)
class OmegaAlgebra:
    """Structure constants and skew form of a finite-dimensional algebra.

    All tensors are stored 0-based internally; the file format and the CLI
    speak 1-based indices.
    """

    name: str
    dim: int
    structure: tuple[tuple[Vector, ...], ...]  # structure[i][j][k]
    omega: tuple[Vector, ...]                  # omega[i][j]
    basis_labels: tuple[str, ...]
    notes: str = ""

    def __post_init__(self) -> None:
        n = self.dim
        if len(self.structure) != n or any(len(plane) != n for plane in self.structure):
            raise ValueError("structure tensor must be dim x dim x dim")
        if any(len(row) != n for plane in self.structure for row in plane):
            raise ValueError("structure tensor must be dim x dim x dim")
        if len(self.omega) != n or any(len(row) != n for row in self.omega):
            raise ValueError("omega table must be dim x dim")
        if len(self.basis_labels) != n:
            raise ValueError("need one basis label per dimension")

    @classmethod
    def from_tables(
        cls,
        name: str,
        dim: int,
        brackets: BracketTable,
        omega: OmegaTable,
        basis_labels: Optional[Sequence[str]] = None,
        notes: str = "",
    ) -> "OmegaAlgebra":
        """Build from sparse 1-based tables, antisymmetrizing automatically.

        ``brackets[(i, j)][k]`` is the coefficient of ``e_k`` in ``[e_i, e_j]``;
        only ``i < j`` entries may be given.  Same for ``omega[(i, j)]``.
        """
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        w = [[ZERO] * dim for _ in range(dim)]
        for (i, j), coeffs in brackets.items():
            if not (1 <= i < j <= dim):
                raise AlgebraFormatError(f"bracket pair ({i},{j}) must satisfy 1 <= i < j <= {dim}")
            for k, value in coeffs.items():
                if not 1 <= int(k) <= dim:
                    raise AlgebraFormatError(f"bracket [{i},{j}] names component {k} outside 1..{dim}")
                val = frac(value)
                c[i - 1][j - 1][int(k) - 1] = val
                c[j - 1][i - 1][int(k) - 1] = -val
        for (i, j), value in omega.items():
            if not (1 <= i < j <= dim):
                raise AlgebraFormatError(f"omega pair ({i},{j}) must satisfy 1 <= i < j <= {dim}")
            val = frac(value)
            w[i - 1][j - 1] = val
            w[j - 1][i - 1] = -val
        labels = tuple(basis_labels) if basis_labels else tuple(f"e{k}" for k in range(1, dim + 1))
        return cls(
            name=name,
            dim=dim,
            structure=tuple(tuple(tuple(row) for row in plane) for plane in c),
            omega=tuple(tuple(row) for row in w),
            basis_labels=labels,
            notes=notes,
        )

    # -- basic evaluations -------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if j == i else ZERO for j in range(self.dim))

    def basis_vectors(self) -> tuple[Vector, ...]:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    def bracket(self, x: Sequence[RationalLike], y: Sequence[RationalLike]) -> Vector:
        x = vector(x)
        y = vector(y)
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"bracket arguments must have length {n}")
        out = [ZERO] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                coeff = x[i] * y[j]
                row = self.structure[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += coeff * row[k]
        return tuple(out)

    def omega_form(self, x: Sequence[RationalLike], y: Sequence[RationalLike]) -> Fraction:
        x = vector(x)
        y = vector(y)
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"omega arguments must have length {n}")
        total = ZERO
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if y[j] and self.omega[i][j]:
                    total += x[i] * y[j] * self.omega[i][j]
        return total

    @property
    def omega_is_zero(self) -> bool:
        return all(v == 0 for row in self.omega for v in row)

    def with_omega_entry(self, i: int, j: int, value: RationalLike) -> "OmegaAlgebra":
        """Copy with ``omega(e_i, e_j)`` (1-based, i < j) replaced; for probing."""
        if not (1 <= i < j <= self.dim):
            raise ValueError("need 1 <= i < j <= dim")
        val = frac(value)
        w = [list(row) for row in self.omega]
        w[i - 1][j - 1] = val
        w[j - 1][i - 1] = -val
        return replace(self, omega=tuple(tuple(row) for row in w))


@dataclass(frozen=True)
class TripleDefect:
    """Jacobi-type defect on one basis triple (1-based indices)."""

    triple: tuple[int, int, int]
    defect: Vector

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.defect)


@dataclass(frozen=True)
class AxiomReport:
    bracket_antisymmetric: bool
    omega_skew: bool
    defects: tuple[TripleDefect, ...]
    omega_is_zero: bool

    @property
    def jacobi_holds(self) -> bool:
        return all(d.is_zero for d in self.defects)

    @property
    def passed(self) -> bool:
        return self.bracket_antisymmetric and self.omega_skew and self.jacobi_holds

    def failing_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(d.triple for d in self.defects if not d.is_zero)


def check_axioms(algebra: OmegaAlgebra) -> AxiomReport:
    """Verify both antisymmetries and the weighted Jacobi identity exactly.

    The defect on a basis triple ``i < j < k`` is
    ``([[e_i,e_j],e_k] + cyclic) - (w(e_i,e_j) e_k + cyclic)``; the report
    records it for every triple.
    """
    n = algebra.dim
    c = algebra.structure
    w = algebra.omega
    antisym = all(
        c[i][j][k] == -c[j][i][k] for i in range(n) for j in range(n) for k in range(n)
    )
    skew = all(w[i][j] == -w[j][i] for i in range(n) for j in range(n)) and all(
        w[i][i] == 0 for i in range(n)
    )
    basis = algebra.basis_vectors()
    defects = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = basis[i], basis[j], basis[k]
                lhs_terms = (
                    algebra.bracket(algebra.bracket(ei, ej), ek),
                    algebra.bracket(algebra.bracket(ej, ek), ei),
                    algebra.bracket(algebra.bracket(ek, ei), ej),
                )
                weights = (
                    (algebra.omega_form(ei, ej), ek),
                    (algebra.omega_form(ej, ek), ei),
                    (algebra.omega_form(ek, ei), ej),
                )
                defect = tuple(
                    sum(t[m] for t in lhs_terms) - sum(coeff * vec[m] for coeff, vec in weights)
                    for m in range(n)
                )
                defects.append(TripleDefect((i + 1, j + 1, k + 1), defect))
    return AxiomReport(
        bracket_antisymmetric=antisym,
        omega_skew=skew,
        defects=tuple(defects),
        omega_is_zero=algebra.omega_is_zero,
    )


@dataclass(frozen=True)
class LinearMap:
    """A linear operator on the algebra, stored with rows as images.

    ``matrix.rows[i]`` holds the coordinates of the image of ``e_i``:
    ``f(e_i) = sum_j matrix[i][j] e_j``.
    """

    matrix: Matrix

    def __post_init__(self) -> None:
        if self.matrix.nrows != self.matrix.ncols:
            raise ValueError("a linear map on the algebra must be square")

    @property
    def dim(self) -> int:
        return self.matrix.nrows

    @classmethod
    def from_images(cls, images: Sequence[Sequence[RationalLike]]) -> "LinearMap":
        return cls(Matrix.from_rows(images, ncols=len(images)))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(Matrix.identity(n))

    @classmethod
    def zero(cls, n: int) -> "LinearMap":
        return cls(Matrix.zeros(n, n))

    def apply(self, x: Sequence[RationalLike]) -> Vector:
        """Abstract application ``x -> sum_i x_i f(e_i)``."""
        return self.matrix.vecmat(vector(x))

    def __call__(self, x: Sequence[RationalLike]) -> Vector:
        return self.apply(x)

    def compose(self, then: "LinearMap") -> "LinearMap":
        """``x -> then(self(x))``."""
        return LinearMap(self.matrix.matmul(then.matrix))

    def rank(self) -> int:
        return rref(self.matrix)[1]

    def is_invertible(self) -> bool:
        return self.rank() == self.dim


@dataclass(frozen=True)
class BilinearMap:
    """A bilinear operator, ``delta(e_i, e_j) = sum_k tensor[i][j][k] e_k``."""

    tensor: tuple[tuple[Vector, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.tensor)

    def __post_init__(self) -> None:
        n = self.dim
        if any(len(plane) != n for plane in self.tensor) or any(
            len(row) != n for plane in self.tensor for row in plane
        ):
            raise ValueError("bilinear tensor must be cubic")

    def apply(self, x: Sequence[RationalLike], y: Sequence[RationalLike]) -> Vector:
        x = vector(x)
        y = vector(y)
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError(f"bilinear arguments must have length {n}")
        out = [ZERO] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                coeff = x[i] * y[j]
                row = self.tensor[i][j]
                for k in range(n):
                    if row[k]:
                        out[k] += coeff * row[k]
        return tuple(out)

    def __call__(self, x: Sequence[RationalLike], y: Sequence[RationalLike]) -> Vector:
        return self.apply(x, y)

    def flip(self) -> "BilinearMap":
        n = self.dim
        return BilinearMap(
            tuple(tuple(self.tensor[j][i] for j in range(n)) for i in range(n))
        )

    def is_symmetric(self) -> bool:
        return self == self.flip()

    def is_skew(self) -> bool:
        n = self.dim
        return all(
            self.tensor[i][j][k] == -self.tensor[j][i][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )


def bracket_tensor(algebra: OmegaAlgebra) -> BilinearMap:
    """The bracket itself as a bilinear map (skew by construction)."""
    return BilinearMap(algebra.structure)


def adjoint(algebra: OmegaAlgebra, x: Sequence[RationalLike]) -> LinearMap:
    """The map ``y -> [x, y]``."""
    x = vector(x)
    return LinearMap.from_images([algebra.bracket(x, e) for e in algebra.basis_vectors()])


class OmegaKillingWarning(RuntimeWarning):
    """Killing-form semisimplicity arguments only apply when omega == 0."""


def killing_form(algebra: OmegaAlgebra) -> Matrix:
    """``K[i][j] = trace(ad e_i o ad e_j)``; warns when omega != 0."""
    if not algebra.omega_is_zero:
        warnings.warn(
            f"Killing form of {algebra.name!r} computed with nonzero skew form; "
            "semisimplicity conclusions require omega == 0",
            OmegaKillingWarning,
            stacklevel=2,
        )
    n = algebra.dim
    ads = [adjoint(algebra, e) for e in algebra.basis_vectors()]
    rows = []
    for i in range(n):
        rows.append(tuple(ads[i].matrix.matmul(ads[j].matrix).trace() for j in range(n)))
    return Matrix(tuple(rows), n)


def is_semisimple_lie(algebra: OmegaAlgebra) -> bool:
    """Nondegenerate Killing form and omega == 0 (the Lie-algebra case)."""
    if not algebra.omega_is_zero:
        return False
    k = killing_form(algebra)
    return rref(k)[1] == algebra.dim


def center(algebra: OmegaAlgebra) -> SubspaceBasis:
    """Basis of ``{x : [x, y] = 0 for all y}`` from stacked adjoint constraints."""
    n = algebra.dim
    c = algebra.structure
    if n == 0:
        return SubspaceBasis.zero(0)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append(tuple(c[i][j][k] for i in range(n)))
    return nullspace(Matrix(tuple(rows), n))


def direct_sum(a: OmegaAlgebra, b: OmegaAlgebra) -> OmegaAlgebra:
    """Block bracket and block skew form on the concatenated basis.

    The weighted Jacobi identity on a mixed triple (x, y in one summand, z in
    the other) reduces to ``omega(x, y) z = 0``, so the sum satisfies the
    axioms exactly when both summands do and both forms are zero (the Lie
    case); ``check_axioms`` on the result reports any mixed-triple defects.
    """
    n, m = a.dim, b.dim
    total = n + m
    c = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    w = [[ZERO] * total for _ in range(total)]
    for i in range(n):
        for j in range(n):
            w[i][j] = a.omega[i][j]
            for k in range(n):
                c[i][j][k] = a.structure[i][j][k]
    for i in range(m):
        for j in range(m):
            w[n + i][n + j] = b.omega[i][j]
            for k in range(m):
                c[n + i][n + j][n + k] = b.structure[i][j][k]
    return OmegaAlgebra(
        name=f"{a.name}+{b.name}",
        dim=total,
        structure=tuple(tuple(tuple(row) for row in plane) for plane in c),
        omega=tuple(tuple(row) for row in w),
        basis_labels=tuple(f"{lbl}'" for lbl in a.basis_labels) + tuple(f"{lbl}''" for lbl in b.basis_labels),
        notes="",
    )


def is_automorphism(algebra: OmegaAlgebra, phi: LinearMap, check_omega: bool = False) -> bool:
    """Invertible and bracket-preserving; optionally also omega-preserving.

    Whether structure-preserving maps must respect the skew form is left to
    the caller: the default checks the bracket only.
    """
    if phi.dim != algebra.dim:
        raise ValueError("map dimension does not match the algebra")
    if not phi.is_invertible():
        return False
    basis = algebra.basis_vectors()
    images = [phi.apply(e) for e in basis]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            if phi.apply(algebra.bracket(basis[i], basis[j])) != algebra.bracket(images[i], images[j]):
                return False
            if check_omega and algebra.omega_form(images[i], images[j]) != algebra.omega[i][j]:
                return False
    return True


def is_anti_automorphism(algebra: OmegaAlgebra, phi: LinearMap) -> bool:
    """Invertible with ``phi([x,y]) = [phi(y), phi(x)]``."""
    if phi.dim != algebra.dim:
        raise ValueError("map dimension does not match the algebra")
    if not phi.is_invertible():
        return False
    basis = algebra.basis_vectors()
    images = [phi.apply(e) for e in basis]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            if phi.apply(algebra.bracket(basis[i], basis[j])) != algebra.bracket(images[j], images[i]):
                return False
    return True


# -- serialization ----------------------------------------------------------
#
# Document shape (all indices 1-based, rationals as "p/q" strings, unlisted
# entries zero, only i<j pairs listed):
#
#   {"name": ..., "dim": n, "basis": [...],
#    "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}, ...],
#    "omega":    [{"i": 1, "j": 2, "value": "1"}, ...],
#    "notes": "..."}
#
# A document may declare at most MAX_DIM basis vectors: the structure tensor
# alone holds dim**3 rationals and the biderivation solvers work in dim**3
# unknowns, so a larger dim is refused before anything is allocated.

MAX_DIM = 100


def to_document(algebra: OmegaAlgebra) -> dict:
    n = algebra.dim
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = {
                str(k + 1): format_scalar(algebra.structure[i][j][k])
                for k in range(n)
                if algebra.structure[i][j][k]
            }
            if coeffs:
                brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    omega = []
    for i in range(n):
        for j in range(i + 1, n):
            if algebra.omega[i][j]:
                omega.append({"i": i + 1, "j": j + 1, "value": format_scalar(algebra.omega[i][j])})
    doc = {
        "name": algebra.name,
        "dim": n,
        "basis": list(algebra.basis_labels),
        "brackets": brackets,
        "omega": omega,
    }
    if algebra.notes:
        doc["notes"] = algebra.notes
    return doc


def from_document(doc: Mapping) -> OmegaAlgebra:
    try:
        name = str(doc["name"])
        dim = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"algebra document needs 'name' and integer 'dim': {exc}") from exc
    if not 0 <= dim <= MAX_DIM:
        raise AlgebraFormatError(f"'dim' must be between 0 and {MAX_DIM}, got {dim}")
    basis = doc.get("basis") or [f"e{k}" for k in range(1, dim + 1)]
    if len(basis) != dim:
        raise AlgebraFormatError(f"basis has {len(basis)} labels but dim is {dim}")
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for item in doc.get("brackets", []):
        try:
            i, j = int(item["i"]), int(item["j"])
            coeffs = {int(k): frac(v) for k, v in item["coeffs"].items()}
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"bad bracket entry {item!r}: {exc}") from exc
        if not (1 <= i < j <= dim):
            raise AlgebraFormatError(f"bracket entry ({i},{j}) must satisfy 1 <= i < j <= {dim}")
        brackets[(i, j)] = coeffs
    omega: dict[tuple[int, int], Fraction] = {}
    for item in doc.get("omega", []):
        try:
            i, j = int(item["i"]), int(item["j"])
            value = frac(item["value"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraFormatError(f"bad omega entry {item!r}: {exc}") from exc
        if not (1 <= i < j <= dim):
            raise AlgebraFormatError(f"omega entry ({i},{j}) must satisfy 1 <= i < j <= {dim}")
        omega[(i, j)] = value
    try:
        return OmegaAlgebra.from_tables(
            name, dim, brackets, omega, basis_labels=basis, notes=str(doc.get("notes", ""))
        )
    except AlgebraFormatError:
        raise
    except ValueError as exc:
        raise AlgebraFormatError(str(exc)) from exc


def dumps(algebra: OmegaAlgebra) -> str:
    return json.dumps(to_document(algebra), indent=2, sort_keys=True)


def loads(text: str) -> OmegaAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"not a valid JSON algebra document: {exc}") from exc
    if not isinstance(doc, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    return from_document(doc)


def content_hash(algebra: OmegaAlgebra) -> str:
    """Stable hash of the algebra content (used to identify report subjects)."""
    return hashlib.sha256(dumps(algebra).encode("utf-8")).hexdigest()[:16]
