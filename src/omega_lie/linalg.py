"""Exact sparse linear algebra over the rationals.

Everything in this package reduces to the primitives here.  One exact sparse
elimination, :class:`_Echelon`, does every solve and every membership test,
and a small lattice of subspace operations (membership, sum, inclusion,
equality) sits on top.  An echelon is built from the rows that define it,
and outside vectors enter through :func:`_entering`.  It and the modular
echelon below read a kernel off as integer generator rows, one per free
column; :func:`nullspace_of_sparse_rows`, the one function that turns the
rows of a linear system into its solution space, is the one place those
generators become a canonical basis.  An affine solution set is a known
solution plus such a space, and :meth:`SubspaceBasis.reduced_from_last`
gives its canonical particular member (free coordinates zero).  Dense
:class:`Matrix` values are inputs and outputs, never the working form.
Values are :class:`fractions.Fraction`, with no floats and no tolerances,
but elimination is fraction-free over Z on the :func:`_integral` multiples
of the rows, which span the same lines.  Fractions are made again only where
a reduced form is read: each entry over its row's pivot entry.

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

A subspace is stored in one canonical form, its echelon's: the primitive
integer multiples of its reduced row echelon basis (:class:`SubspaceBasis`).
That form is unique, so equality (and hence solver comparisons downstream)
is a plain ``==``.  Its one rational reader is the sparse ``reduced_row``,
and the dense ``Fraction`` basis is only a view built from that reader.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]

# nonzero (index, value) pairs, an integral value held as its int (see _entries)
Entries = tuple[tuple[int, Union[int, Fraction]], ...]


_RATIONAL = re.compile(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*")


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p"`` or ``"p/q"`` strings and Fractions to an exact rational.

    Booleans and floats are refused with ``TypeError``, so ``true`` or
    ``0.5`` in a JSON document is an error rather than a silent 1 or a
    rounded binary fraction.  A string must be an optionally signed integer
    or quotient of digits; decimals and exponents (``"0.5"``, ``"1e3"``)
    raise ``ValueError``, so no short string can make ``Fraction`` compute a
    huge power of ten.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"expected an integer or 'p/q', got {value!r}")
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(frac(v) for v in values)


def format_scalar(value: Fraction) -> str:
    """Render a rational as ``"p"`` or ``"p/q"`` (used by all file formats)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _exact(value: Union[int, Fraction]) -> Union[int, Fraction]:
    """``value`` as its ``int`` if it is integral, else unchanged: exact, and much cheaper to multiply."""
    return value.numerator if value.denominator == 1 else value


def _entries(row: Sequence[Union[int, Fraction]]) -> Entries:
    """The nonzero entries of ``row`` as ``(index, value)`` pairs, each value as :func:`_exact`.

    This is the sparse form every evaluator works on.
    """
    return tuple((k, _exact(v)) for k, v in enumerate(row) if v)


def _bilinear(support, xs: Entries, ys: Entries) -> Entries:
    """``sum_{i,j,k} x_i y_j t[i][j][k] e_k`` over the nonzeros of ``x``, ``y`` and ``t``, the one bilinear kernel.

    ``support[i][j]`` holds the nonzero entries of ``t[i][j]``, as
    :func:`_entries`, and ``xs``, ``ys`` are nonzero ``(index, value)``
    pairs; so is the result.
    """
    out: dict = {}
    for i, a in xs:
        plane = support[i]
        for j, b in ys:
            row = plane[j]
            if row:
                ab = a * b
                for k, v in row:
                    out[k] = out.get(k, 0) + ab * v
    return tuple((k, v) for k, v in out.items() if v)


def _dense(entries: Entries, n: int) -> Vector:
    """The dense vector of length ``n`` with these entries, summed into ``ZERO`` so each is a ``Fraction``."""
    out = [ZERO] * n
    for k, v in entries:
        out[k] += v
    return tuple(out)


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

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @cached_property
    def _support(self) -> tuple[Entries, ...]:
        """The nonzero entries of each row, as :func:`_entries`."""
        return tuple(_entries(row) for row in self.rows)

    def apply(self, x: Sequence[Fraction]) -> Vector:
        """The one row action ``x -> sum_i x[i] rows[i]``, a dense view of :func:`_bilinear`.

        The rows act as the ``1 x nrows x ncols`` table of the bilinear map
        ``(1, x) -> sum_i x[i] rows[i]``.  ``x`` is not converted; every
        coordinate of the image is a ``Fraction``.
        """
        if len(x) != self.nrows:
            raise ValueError(f"point has length {len(x)}, matrix has {self.nrows} rows")
        return _dense(_bilinear((self._support,), ((0, 1),), _entries(x)), self.ncols)

    def to_strings(self) -> list[list[str]]:
        return [[format_scalar(x) for x in row] for row in self.rows]


SparseRow = dict[int, Fraction]


class _Echelon:
    """Fraction-free row echelon over Z, the one exact elimination.

    Rows are sparse integer dicts without zero entries.  A stored row is
    primitive, its lowest column is its pivot and holds a positive entry,
    and it is zero at the pivot of every row stored before it.  So one
    forward pass in insertion order (:func:`_eliminate`) reduces an incoming
    row; its own multiplier is a product of pivot entries, never zero, so
    the residue is empty exactly for a member.  :meth:`span` and
    :meth:`kernel` read a reduced form after :meth:`_back_substitute`.
    It is built from the rows that define it, inserted in order, and none after.
    """

    def __init__(self, ambient: int, rows: Iterable[dict[int, int]] = ()) -> None:
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> primitive row, in insertion order
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """The residue of ``row``: zero at every pivot, and empty exactly for a member."""
        if len(self.rows) == self.ambient:
            return {}
        return _reduce(self.rows, row)

    def insert(self, row: dict[int, int]) -> bool:
        """Fold one row in; returns True when the rank grew."""
        residue = self.reduce(row)
        if not residue:
            return False
        pivot = min(residue)
        content = gcd(*residue.values())
        if residue[pivot] < 0:
            content = -content
        self.rows[pivot] = {c: v // content for c, v in residue.items()}
        return True

    def _back_substitute(self) -> None:
        """Clear each row at the later rows' pivots, last first: each becomes the primitive multiple of its RREF row."""
        rows = self.rows
        later: set[int] = set()
        for pivot, row in reversed(list(rows.items())):
            hits = [c for c in row if c in later]
            if hits:
                for c in hits:  # a cleared row is zero at every other pivot, so no hit comes back
                    row = _eliminate(row, rows[c], c)
                content = gcd(*row.values())
                rows[pivot] = {c: v // content for c, v in row.items()}
            later.add(pivot)

    def span(self) -> "SubspaceBasis":
        """The row space, as the :class:`SubspaceBasis` that holds these rows once reduced."""
        space = object.__new__(SubspaceBasis)
        space._hold(self)
        return space

    def kernel(self) -> list[dict[int, int]]:
        """Integer generators of the vectors every row annihilates, one per free column.

        Free column ``f`` gives the primitive multiple of the vector that is 1
        at ``f`` and, at each pivot, minus that reduced row's entry in column
        ``f`` over its pivot entry.
        """
        self._back_substitute()
        rows = self.rows
        gens = []
        for f in range(self.ambient):
            if f not in rows:
                hits = [(p, row) for p, row in rows.items() if f in row]
                scale = lcm(*[row[p] for p, row in hits])
                gen = {p: -row[f] * (scale // row[p]) for p, row in hits}
                gen[f] = scale
                content = gcd(*gen.values())
                gens.append({c: v // content for c, v in gen.items()})
        return gens


def _reduce(rows: dict[int, dict[int, int]], row: dict[int, int]) -> dict[int, int]:
    """The residue of ``row`` against echelon ``rows`` (pivot column -> row, each zero at the pivots before it)."""
    for pivot, stored in rows.items():
        if pivot in row:
            row = _eliminate(row, stored, pivot)
    return row


def _eliminate(row: dict[int, int], stored: dict[int, int], col: int) -> dict[int, int]:
    """``a*row - b*stored``, zero at ``col``: ``a``, ``b`` are the entries of ``stored``, ``row`` there over their gcd."""
    a, b = stored[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, s in stored.items():
        acc = out.get(c, 0) - b * s
        if acc:
            out[c] = acc
        else:
            del out[c]
    return out


# The prime of the modular filter in front of ``_Echelon``, and the largest
# numerator and denominator that ``_rational`` recovers from a residue mod P.
P = 2**31 - 1
_LIFT_BOUND = isqrt(P // 2)


class _ModEchelon:
    """A reduced row echelon over GF(P), fed with integer rows.

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

    def kernel(self) -> Optional[list[dict[int, int]]]:
        """The free-column generators of ``_Echelon.kernel``, lifted to Q and made integral; None if one does not lift."""
        gens = {f: {f: ONE} for f in range(self.ambient) if f not in self.rows}
        for p, row in self.rows.items():
            for f, v in row.items():
                lifted = _rational(P - v)
                if lifted is None:
                    return None
                gens[f][p] = lifted
        return [_integral(gen) for gen in gens.values()]


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


def _annihilated(rows: list[dict[int, int]], kernel: list[dict[int, int]], ambient: int) -> bool:
    """Whether every integer row has a zero exact dot product with every integer kernel vector."""
    for gen in kernel:
        scaled = [0] * ambient
        for c, v in gen.items():
            scaled[c] = v
        at = scaled.__getitem__
        for row in rows:
            if sum(map(mul, row.values(), map(at, row))):
                return False
    return True


def _integral(row: SparseRow) -> dict[int, int]:
    """``row`` times the lcm of its denominators: integer entries on the same line.

    Every row enters an echelon through here.  Zero entries are dropped, so
    no echelon ever sees one (``_Echelon`` takes a row's lowest column as
    its pivot).
    """
    den = lcm(*[v.denominator for v in row.values()])
    return {c: num * (den // v.denominator) for c, v in row.items() if (num := v.numerator)}


def _entering(v: Sequence[RationalLike], ambient: int, what: str) -> dict[int, int]:
    """A vector from outside as an echelon's integer row, once its length is checked against ``ambient``."""
    v = vector(v)
    if len(v) != ambient:
        raise ValueError(f"{what} length {len(v)} != ambient dimension {ambient}")
    return _integral(_to_sparse(v))


def _check_columns(row: SparseRow, ambient: int) -> None:
    if row and (min(row) < 0 or max(row) >= ambient):
        raise ValueError(f"sparse row has a column outside 0..{ambient - 1}: {sorted(row)}")


def _to_sparse(row: Sequence[Fraction]) -> SparseRow:
    return {j: v for j, v in enumerate(row) if v}


@dataclass(frozen=True, init=False)
class SubspaceBasis:
    """A linear subspace, stored as the rows of its reduced echelon.

    ``rows`` maps each pivot column, ascending, to a sparse primitive integer
    row, columns ascending, positive at its pivot and zero at every other
    pivot.  That form is unique, so two values describe the same subspace
    exactly when they compare equal.  Every value takes its rows from an
    :class:`_Echelon`: the constructor folds the dense rows it is given into
    one, and ``from_generators`` and kernels hand theirs over
    (:meth:`_Echelon.span`).
    """

    ambient_dim: int
    rows: dict[int, dict[int, int]]

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence[Union[int, Fraction]]] = ()) -> None:
        """The span of dense ``basis`` rows of length ``ambient_dim``, with ``Fraction`` or ``int`` entries."""
        for row in basis:
            if len(row) != ambient_dim:
                raise ValueError(f"basis row length {len(row)} != ambient dimension {ambient_dim}")
        strange = set(map(type, chain.from_iterable(basis))) - {Fraction, int}
        if strange:
            raise ValueError(f"basis entries must be Fraction or int, got {min(t.__name__ for t in strange)}")
        self._hold(_Echelon(ambient_dim, (_integral(_to_sparse(row)) for row in basis)))

    def _hold(self, echelon: _Echelon) -> None:
        """Store the rows of ``echelon``, reduced, pivots and columns sorted: the one way a value gets its rows."""
        echelon._back_substitute()
        object.__setattr__(self, "ambient_dim", echelon.ambient)
        object.__setattr__(self, "rows", {p: dict(sorted(echelon.rows[p].items())) for p in sorted(echelon.rows)})

    def __hash__(self) -> int:
        return hash((self.ambient_dim, tuple(tuple(row.items()) for row in self.rows.values())))

    def reduced_row(self, pivot: int) -> tuple[tuple[int, Fraction], ...]:
        """The reduced row at ``pivot`` as nonzero ``(column, value)`` pairs, each stored integer over the pivot entry."""
        row = self.rows[pivot]
        return tuple((c, Fraction(v, row[pivot])) for c, v in row.items())

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        """The reduced row echelon basis, dense: a view for dense answers, built on first read."""
        return tuple(_dense(self.reduced_row(p), self.ambient_dim) for p in self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    @classmethod
    def from_generators(cls, ambient_dim: int, generators: Iterable[Sequence[RationalLike]]) -> "SubspaceBasis":
        return _Echelon(ambient_dim, (_entering(gen, ambient_dim, "generator") for gen in generators)).span()

    def contains(self, v: Sequence[RationalLike]) -> bool:
        return not _reduce(self.rows, _entering(v, self.ambient_dim, "vector"))

    def _same_ambient(self, other: "SubspaceBasis", verb: str) -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"cannot {verb} subspaces of different ambient dimensions")

    def plus(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._same_ambient(other, "add")
        return _Echelon(self.ambient_dim, chain(self.rows.values(), other.rows.values())).span()

    def is_subspace_of(self, other: "SubspaceBasis") -> bool:
        self._same_ambient(other, "compare")
        return not any(_reduce(other.rows, row) for row in self.rows.values())

    def annihilated_by(self, functional: SparseRow) -> bool:
        """Whether the functional ``v -> sum(c * v[j])`` vanishes on the subspace.

        The row space of a linear system is the annihilator of its nullspace,
        so on a solution space this says whether the equation is implied by
        the system that defines it.
        """
        _check_columns(functional, self.ambient_dim)
        return not any(sum(c * row.get(j, 0) for j, c in functional.items()) for row in self.rows.values())

    def restricted(self, rows: Iterable[SparseRow]) -> "SubspaceBasis":
        """The vectors of the subspace that every row annihilates, in canonical form.

        The r stored rows ``g`` span the subspace, so a member is
        ``sum(c[i] * g[i])``, and a row ``e`` annihilates it exactly when
        ``sum(c[i] * (e . g[i])) = 0``.  The kernel of those composed rows
        in the r coordinates ``c`` is lifted back through ``g`` into one
        echelon.  ``rows`` is read only until the composed rows reach rank r.
        """
        gens = list(self.rows.values())
        by_column: dict[int, list[tuple[int, int]]] = {}
        for i, g in enumerate(gens):
            for col, v in g.items():
                by_column.setdefault(col, []).append((i, v))

        def composed():
            for row in rows:
                _check_columns(row, self.ambient_dim)
                out: dict[int, int] = {}
                for col, v in _integral(row).items():
                    for i, g in by_column.get(col, ()):
                        out[i] = out.get(i, 0) + v * g
                yield {i: v for i, v in out.items() if v}

        kernel = nullspace_of_sparse_rows(len(gens), composed())
        lifted = []
        for c in kernel.rows.values():
            vec: dict[int, int] = {}
            for i, ci in c.items():
                for col, v in gens[i].items():
                    vec[col] = vec.get(col, 0) + ci * v
            lifted.append({col: v for col, v in vec.items() if v})
        return _Echelon(self.ambient_dim, lifted).span()

    def reduced_from_last(self, v: Sequence[Fraction]) -> Vector:
        """The one vector of ``v + space`` that is zero at the pivots of a last-to-first echelon.

        When the space is the kernel of a system, those pivots are the
        system's free columns (each free-column kernel vector of
        ``_Echelon.kernel`` ends at its free column), so for a solution ``v``
        this is the particular solution with every free coordinate zero.
        Column ``n`` marks ``v``: the residue of ``(v, 1)`` is ``m * (v - s, 1)``
        with ``s`` in the space, and division by its entry there gives the vector.
        """
        n = self.ambient_dim
        ech = _Echelon(n + 1, ({n - 1 - c: x for c, x in row.items()} for row in self.rows.values()))
        residue = ech.reduce(_integral({n - 1 - j: x for j, x in enumerate(v) if x} | {n: ONE}))
        return tuple(Fraction(residue.get(n - 1 - j, 0), residue[n]) for j in range(n))


def nullspace_of_sparse_rows(ambient: int, rows: Iterable[SparseRow]) -> SubspaceBasis:
    """Nullspace of a system given as sparse rows; the system's rank is ``ambient`` minus its rank.

    Each row is scaled to integers by the lcm of its denominators, which
    keeps the row space, and is the only copy kept.  ``rows`` is read only
    until the rank mod ``P`` reaches ``ambient``.  The module docstring
    gives the argument that makes the answer exact.  The kernel generators
    of either echelon go into one echelon of their own for the basis.
    """
    mod = _ModEchelon(ambient)
    scaled = []
    for row in rows:
        _check_columns(row, ambient)
        row = _integral(row)
        scaled.append(row)
        mod.insert(row)
        if mod.rank == ambient:
            return _Echelon(ambient).span()
    kernel = mod.kernel()
    if kernel is None or not _annihilated(scaled, kernel, ambient):
        kernel = _Echelon(ambient, scaled).kernel()
    return _Echelon(ambient, kernel).span()
