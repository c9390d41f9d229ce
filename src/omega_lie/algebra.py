"""Finite-dimensional algebras with an antisymmetric bracket and a skew form.

An :class:`OmegaAlgebra` is given by structure constants ``c[i][j][k]``
(``[e_i, e_j] = sum_k c[i][j][k] e_k``) together with the values
``omega[i][j]`` of a skew-symmetric bilinear form.  The defining axioms are

* ``[x, y] = -[y, x]``,
* ``[[x,y],z] + [[y,z],x] + [[z,x],y] = w(x,y) z + w(y,z) x + w(z,x) y``.

With ``omega == 0`` this is an ordinary Lie algebra; direct sums of such
algebras build the semisimple Lie fixtures of the catalog.

Matrix convention used throughout the package: the matrix of a linear map
stores the image of the i-th basis vector in row ``i``, i.e.
``f(e_i) = sum_j matrix[i][j] e_j``.  This matches the matrix forms produced
by the solvers, where a solution matrix such as a derivation pattern is read
row by row.  :meth:`Matrix.apply <omega_lie.linalg.Matrix.apply>` is the
one application ``x -> sum_i x_i f(e_i)``; the local-analysis engine
additionally evaluates stored matrices on coordinate columns (see
:mod:`omega_lie.local`).

Evaluation (``bracket``, ``omega_form``, ``BilinearMap.apply``,
``Matrix.apply``) takes ``int`` or ``Fraction`` coordinates and does not
convert them: values from files and the command line are converted by
``frac`` where they enter, and other coordinate types are not supported.
It is sparse.  Each object caches the support of its table once, the
nonzero entries as ``(index, value)`` pairs with an integral entry held as
its ``int`` (``linalg._exact``: exact, and cheaper than ``Fraction``
arithmetic); the skew form is read as an ``n x n x 1`` table and a matrix
as a ``1 x n x m`` one.  ``linalg._bilinear`` is the one bilinear kernel,
on sparse arguments and results; all four evaluators are dense views of
it, which sum into ``ZERO``, so every coordinate they return is a
``Fraction``.  Row assembly (``solvers._tables``) and :func:`to_document`
read the same supports, and :func:`check_axioms` the bracket's; it also
reads the dense tables, for antisymmetry and skewness, because it
validates input.

:meth:`OmegaAlgebra.from_tables` is the one reader of algebra tables:
:func:`from_document` checks only a document's shape, and every index and
coefficient is read there, once, or refused with :class:`AlgebraFormatError`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from typing import Mapping, Optional, Sequence

from .linalg import (
    Entries,
    Matrix,
    RationalLike,
    SubspaceBasis,
    Vector,
    ZERO,
    _INTEGER,
    _bilinear,
    _dense,
    _entries,
    format_scalar,
    frac,
)

BracketTable = Mapping[tuple[int, int], Mapping[int, RationalLike]]
OmegaTable = Mapping[tuple[int, int], RationalLike]


class AlgebraFormatError(ValueError):
    """Raised when an algebra document or file cannot be interpreted."""


def _tensor_support(tensor) -> tuple[tuple[Entries, ...], ...]:
    """``support[i][j]``: the nonzero entries of ``tensor[i][j]``, as ``linalg._entries``; read by ``linalg._bilinear``."""
    return tuple(tuple(_entries(row) for row in plane) for plane in tensor)


def _argument(x: Sequence[Fraction], n: int, what: str) -> Entries:
    """The nonzero entries of a dense argument of an evaluator on an ``n``-dimensional space."""
    if len(x) != n:
        raise ValueError(f"{what} arguments must have length {n}")
    return _entries(x)


@dataclass(frozen=True)
class OmegaAlgebra:
    """Structure constants and skew form of a finite-dimensional algebra.

    All tensors are stored 0-based internally; the file format and the CLI
    speak 1-based indices.  Equality and the hash read the fields; the hash
    is computed once per object, since a solve session looks an algebra up
    by its value on every request.
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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))

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
        only ``i < j`` entries may be given.  Same for ``omega[(i, j)]``, read
        in the same loop as the ``n x n x 1`` table ``{(i, j): {1: value}}``.
        Each index is read as a document's integer fields are (``_integer``),
        each coefficient by ``frac``; what either refuses, a key that is no
        pair, and two keys read as one pair or one component raise
        :class:`AlgebraFormatError`.
        """
        c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        w = [[[ZERO] for _ in range(dim)] for _ in range(dim)]
        form = {key: {1: value} for key, value in omega.items()}
        for table, entries, tensor, width in (("bracket", brackets, c, dim), ("omega", form, w, 1)):
            pairs: set = set()
            for key, coeffs in entries.items():
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise AlgebraFormatError(f"{table} key {key!r} must be a pair (i, j)")
                i, j = pair = (_index(key[0]), _index(key[1]))
                if pair in pairs:
                    raise AlgebraFormatError(f"{table} pair ({i},{j}) is given twice")
                pairs.add(pair)
                if not (1 <= i < j <= dim):
                    raise AlgebraFormatError(f"{table} pair ({i},{j}) must satisfy 1 <= i < j <= {dim}")
                try:
                    items = coeffs.items()
                except AttributeError:
                    raise AlgebraFormatError(f"{table} [{i},{j}] coefficients must be a mapping, got {coeffs!r}") from None
                row, mirror = tensor[i - 1][j - 1], tensor[j - 1][i - 1]
                components: set = set()
                for k, value in items:
                    k = _index(k)
                    if not 1 <= k <= width:
                        raise AlgebraFormatError(f"{table} [{i},{j}] names component {k} outside 1..{width}")
                    if k in components:
                        raise AlgebraFormatError(f"{table} [{i},{j}] names component {k} twice")
                    components.add(k)
                    try:
                        val = frac(value)
                    except (TypeError, ValueError, ZeroDivisionError) as exc:
                        raise AlgebraFormatError(f"{table} pair ({i},{j}): {exc}") from exc
                    row[k - 1] = val
                    mirror[k - 1] = -val
        labels = tuple(basis_labels) if basis_labels else tuple(f"e{k}" for k in range(1, dim + 1))
        return cls(
            name=name,
            dim=dim,
            structure=tuple(tuple(tuple(row) for row in plane) for plane in c),
            omega=tuple(tuple(value for (value,) in row) for row in w),
            basis_labels=labels,
            notes=notes,
        )

    # -- basic evaluations -------------------------------------------------

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1) if j == i else ZERO for j in range(self.dim))

    def basis_vectors(self) -> tuple[Vector, ...]:
        return tuple(self.basis_vector(i) for i in range(self.dim))

    @cached_property
    def _support(self) -> tuple[tuple[Entries, ...], ...]:
        """The nonzero structure constants: ``[e_i, e_j]`` has the entries ``_support[i][j]``."""
        return _tensor_support(self.structure)

    @cached_property
    def _form_support(self) -> tuple[tuple[Entries, ...], ...]:
        """The skew form as an ``n x n x 1`` tensor: ``w(e_i, e_j)`` is the one entry of ``_form_support[i][j]``, if any."""
        return _tensor_support(tuple(tuple((v,) for v in row) for row in self.omega))

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        n = self.dim
        return _dense(_bilinear(self._support, _argument(x, n, "bracket"), _argument(y, n, "bracket")), n)

    def omega_form(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        n = self.dim
        value = _bilinear(self._form_support, _argument(x, n, "omega"), _argument(y, n, "omega"))
        return _dense(value, 1)[0]

    @property
    def omega_is_zero(self) -> bool:
        return all(v == 0 for row in self.omega for v in row)


@dataclass(frozen=True)
class TripleDefect:
    """Nonzero Jacobi-type defect on one basis triple (1-based indices)."""

    triple: tuple[int, int, int]
    defect: Vector


@dataclass(frozen=True)
class AxiomReport:
    """Both antisymmetries and the failing triples only, in lexicographic order."""

    bracket_antisymmetric: bool
    omega_skew: bool
    defects: tuple[TripleDefect, ...]
    omega_is_zero: bool

    @property
    def jacobi_holds(self) -> bool:
        return not self.defects

    @property
    def passed(self) -> bool:
        return self.bracket_antisymmetric and self.omega_skew and self.jacobi_holds

    def failing_triples(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(d.triple for d in self.defects)


def check_axioms(algebra: OmegaAlgebra) -> AxiomReport:
    """Verify both antisymmetries and the weighted Jacobi identity exactly.

    The defect on a basis triple ``i < j < k`` is
    ``([[e_i,e_j],e_k] + cyclic) - (w(e_i,e_j) e_k + cyclic)``, read from the
    tables (``[e_i,e_j]`` is the row ``c[i][j]``); only nonzero ones are kept.
    """
    n = algebra.dim
    w = algebra.omega
    support = algebra._support

    def antisymmetric(table) -> bool:
        # each cell of a cached support lists its nonzero entries in ascending order, so this compares them entry by
        # entry; over the rationals x == -x only for x == 0, so a diagonal cell passes only if it is empty
        return all(table[i][j] == tuple((k, -v) for k, v in table[j][i]) for i, j in product(range(n), repeat=2))

    antisym = antisymmetric(support)
    skew = antisymmetric(algebra._form_support)
    defects = []
    for i, j, k in combinations(range(n), 3):
        defect = {}  # coordinate -> value, over the coordinates a term reaches
        for a, b, z in ((i, j, k), (j, k, i), (k, i, j)):
            defect[z] = defect.get(z, ZERO) - w[a][b]
            for m, x in support[a][b]:  # [[e_a,e_b],e_z] = sum_m c[a][b][m] [e_m,e_z]
                for t, y in support[m][z]:
                    defect[t] = defect.get(t, ZERO) + x * y
        if any(defect.values()):
            defects.append(TripleDefect((i + 1, j + 1, k + 1), tuple(defect.get(t, ZERO) for t in range(n))))
    return AxiomReport(
        bracket_antisymmetric=antisym,
        omega_skew=skew,
        defects=tuple(defects),
        omega_is_zero=algebra.omega_is_zero,
    )


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

    @cached_property
    def _support(self) -> tuple[tuple[Entries, ...], ...]:
        return _tensor_support(self.tensor)

    def apply(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Vector:
        n = self.dim
        return _dense(_bilinear(self._support, _argument(x, n, "bilinear"), _argument(y, n, "bilinear")), n)


def direct_sum(a: OmegaAlgebra, b: OmegaAlgebra) -> OmegaAlgebra:
    """Block bracket and block skew form on the concatenated basis.

    The weighted Jacobi identity on a mixed triple (x, y in one summand, z in
    the other) reduces to ``omega(x, y) z = 0``, so the sum satisfies the
    axioms exactly when both summands do and both forms are zero (the Lie
    case); ``check_axioms`` on the result reports any mixed-triple defects.
    """
    total = a.dim + b.dim
    c = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    w = [[ZERO] * total for _ in range(total)]
    labels = []
    for offset, part, mark in ((0, a, "'"), (a.dim, b, "''")):
        block = range(part.dim)
        for i in block:
            for j in block:
                w[offset + i][offset + j] = part.omega[i][j]
                for k in block:
                    c[offset + i][offset + j][offset + k] = part.structure[i][j][k]
        labels.extend(f"{lbl}{mark}" for lbl in part.basis_labels)
    return OmegaAlgebra(
        name=f"{a.name}+{b.name}",
        dim=total,
        structure=tuple(tuple(tuple(row) for row in plane) for plane in c),
        omega=tuple(tuple(row) for row in w),
        basis_labels=tuple(labels),
        notes="",
    )


def _respects_bracket(algebra: OmegaAlgebra, phi: Matrix, anti: bool, check_omega: bool) -> bool:
    """Invertible with ``phi([e_i,e_j])`` equal to ``[phi(e_i), phi(e_j)]``
    (``[phi(e_j), phi(e_i)]`` when ``anti``), and omega-preserving if asked."""
    if phi.shape != (algebra.dim, algebra.dim):
        raise ValueError(f"a map on the algebra must be {algebra.dim} x {algebra.dim}, got {phi.shape}")
    if SubspaceBasis.from_generators(algebra.dim, phi.rows).rank < algebra.dim:
        return False
    images = phi.rows  # row i is phi(e_i)
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            x, y = (images[j], images[i]) if anti else (images[i], images[j])
            if phi.apply(algebra.structure[i][j]) != algebra.bracket(x, y):
                return False
            if check_omega and algebra.omega_form(images[i], images[j]) != algebra.omega[i][j]:
                return False
    return True


def is_automorphism(algebra: OmegaAlgebra, phi: Matrix, check_omega: bool = False) -> bool:
    """Invertible and bracket-preserving; optionally also omega-preserving.

    Whether structure-preserving maps must respect the skew form is left to
    the caller: the default checks the bracket only.
    """
    return _respects_bracket(algebra, phi, anti=False, check_omega=check_omega)


def is_anti_automorphism(algebra: OmegaAlgebra, phi: Matrix) -> bool:
    """Invertible with ``phi([x,y]) = [phi(y), phi(x)]``."""
    return _respects_bracket(algebra, phi, anti=True, check_omega=False)


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
    pairs = list(combinations(range(n), 2))
    brackets = [
        {"i": i + 1, "j": j + 1, "coeffs": {str(k + 1): format_scalar(v) for k, v in cell}}
        for i, j in pairs
        if (cell := algebra._support[i][j])
    ]
    omega = [
        {"i": i + 1, "j": j + 1, "value": format_scalar(v)} for i, j in pairs for _, v in algebra._form_support[i][j]
    ]
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


def _integer(value) -> int:
    """An integer field of a document: an integral number that is not a bool, or a string of ASCII digits with an optional sign."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, str) and not _INTEGER.fullmatch(value):
        raise ValueError(f"expected an integer, got {value!r}")
    number = int(value)
    if not isinstance(value, str) and number != value:  # a Fraction or Decimal that int() truncates
        raise ValueError(f"expected an integer, got {value!r}")
    return number


def _index(value) -> int:
    """A 1-based index of a table given to :meth:`OmegaAlgebra.from_tables`, read by :func:`_integer`."""
    try:
        return _integer(value)
    except (TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"table index: {exc}") from exc


def _pairs(doc: Mapping, field: str, value: str) -> dict:
    """``{(i, j): entry[value]}`` over the list ``doc[field]`` of ``{"i": .., "j": .., value: ..}`` objects, as given.

    A repeated raw ``(i, j)`` is refused, as the dict would keep the last;
    :meth:`OmegaAlgebra.from_tables` reads every index and value.
    """
    items = doc.get(field, [])
    if not isinstance(items, list):
        raise AlgebraFormatError(f"'{field}' must be a list of entries, got {items!r}")
    table = {}
    for item in items:
        try:
            pair = (item["i"], item["j"])
            repeated = pair in table
            table[pair] = item[value]
        except (KeyError, TypeError) as exc:
            raise AlgebraFormatError(f"bad {field} entry {item!r}: {exc}") from exc
        if repeated:
            raise AlgebraFormatError(f"repeated {field} entry ({pair[0]},{pair[1]})")
    return table


def from_document(doc: Mapping) -> OmegaAlgebra:
    """The algebra of a document of the shape above: its entries are read by :meth:`OmegaAlgebra.from_tables` alone."""
    if not isinstance(doc, dict):
        raise AlgebraFormatError("algebra document must be a JSON object")
    try:
        name = doc["name"]
        dim = _integer(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraFormatError(f"algebra document needs 'name' and integer 'dim': {exc}") from exc
    notes = doc.get("notes", "")
    if not isinstance(name, str) or not isinstance(notes, str):
        raise AlgebraFormatError(f"'name' and 'notes' must be strings, got {name!r} and {notes!r}")
    if not 0 <= dim <= MAX_DIM:
        raise AlgebraFormatError(f"'dim' must be between 0 and {MAX_DIM}, got {dim}")
    basis = [] if doc.get("basis") is None else doc["basis"]
    if not isinstance(basis, list) or not all(isinstance(label, str) for label in basis):
        raise AlgebraFormatError(f"'basis' must be a list of label strings, got {basis!r}")
    if basis and len(basis) != dim:
        raise AlgebraFormatError(f"basis has {len(basis)} labels but dim is {dim}")
    brackets = _pairs(doc, "brackets", "coeffs")
    omega = _pairs(doc, "omega", "value")
    return OmegaAlgebra.from_tables(name, dim, brackets, omega, basis_labels=basis, notes=notes)


def dumps(algebra: OmegaAlgebra) -> str:
    return json.dumps(to_document(algebra), indent=2, sort_keys=True)


def content_hash(algebra: OmegaAlgebra) -> str:
    """Stable hash of the algebra content (used to identify report subjects)."""
    return hashlib.sha256(dumps(algebra).encode("utf-8")).hexdigest()[:16]
