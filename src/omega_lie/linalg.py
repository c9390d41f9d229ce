"""Exact sparse linear algebra over the rationals.

Everything in this package reduces to the primitives here.  One exact sparse
elimination, :class:`_Echelon`, does every solve and every membership test,
and a small lattice of subspace operations (membership, sum, inclusion,
equality) sits on top.  An echelon is built from the rows that define it,
and outside vectors enter through :func:`_entering`.  It reads a kernel
off as integer generator rows, one per free column (:meth:`_Echelon.kernel`,
the package's one kernel extraction); :func:`nullspace_of_sparse_rows`, the
one function that turns the rows of a linear system into its solution space,
is the one place those generators become a canonical basis.  An affine
solution set is a known solution plus such a space, and
:meth:`SubspaceBasis.reduced_from_last` gives its canonical particular member
(free coordinates zero).  Dense :class:`Matrix` values are inputs and
outputs, never the working form.  Values are :class:`fractions.Fraction`,
with no floats and no tolerances, but elimination is fraction-free over Z on
the :func:`_integral` multiples of the rows, which span the same lines.
Fractions are made again only where a reduced form is read: each entry over
its row's pivot entry.

:func:`nullspace_of_sparse_rows` puts a modular pass in front of
``_Echelon``: it scales each row to integers and keeps a row echelon of them
in GF(P) with P = 2**31 - 1 (integers only, each row only eliminated
forward), which picks the rows that raise the rank mod P.  Integer rows
that are independent mod P are independent over Q, so full rank mod P means
the kernel over Q is zero.  Otherwise ``_Echelon`` eliminates only the
picked rows, and the kernel of those rows, which contains the system's, is
accepted when every other row annihilates it in exact integer arithmetic
(M v = 0); the check proves the rest.  When it fails, ``_Echelon``
eliminates every row exactly.

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
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

RationalLike = Union[int, str, Fraction]

# nonzero (index, value) pairs, an integral value held as its int (see _entries)
Entries = tuple[tuple[int, Union[int, Fraction]], ...]


_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII digits only: int() also reads "1_0", " 4 " and other scripts' digits
_RATIONAL = re.compile(rf"{_INTEGER.pattern}(/[0-9]+)?")


def frac(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p"`` or ``"p/q"`` strings and Fractions to an exact rational.

    Booleans and floats are refused with ``TypeError``, so ``true`` or
    ``0.5`` in a JSON document is an error rather than a silent 1 or a
    rounded binary fraction.  A string must be an optionally signed integer
    or quotient of ASCII digits, with no surrounding whitespace; decimals and
    exponents (``"0.5"``, ``"1e3"``) raise ``ValueError``, so no short string
    can make ``Fraction`` compute a huge power of ten.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL.fullmatch(value):
            raise ValueError(f"expected an integer or 'p/q', got {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def vector(values: Iterable[RationalLike]) -> Vector:
    return tuple(frac(v) for v in values)


def format_scalar(value: Union[int, Fraction]) -> str:
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


SparseRow = dict[int, Union[int, Fraction]]  # column -> nonzero value; _integral scales int and Fraction values alike


class _Echelon:
    """Fraction-free row echelon over Z, the one exact elimination.

    Rows are sparse integer dicts without zero entries.  A stored row is
    primitive, its lowest column is its pivot and holds a positive entry,
    and it is zero at the pivot of every row stored before it.  An incoming
    row is reduced by :func:`_reduce`, against only the pivots it meets; its
    own multiplier is a product of pivot entries, never zero, so the residue
    is empty exactly for a member.  :meth:`span` and :meth:`kernel` read a
    reduced form after :meth:`_back_substitute`.  It is built from the rows
    that define it, inserted in order, and none after.
    """

    def __init__(self, ambient: int, rows: Iterable[dict[int, int]] = ()) -> None:
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> primitive row, in insertion order
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: dict[int, int]) -> bool:
        """Fold one row in; returns True when the rank grew."""
        residue = _reduce(self.rows, row)
        if not residue:
            return False
        pivot = min(residue)
        content = gcd(*residue.values())
        if residue[pivot] < 0:
            content = -content
        self.rows[pivot] = {c: v // content for c, v in residue.items()}
        return True

    def _back_substitute(self) -> None:
        """Clear each row at the pivots after its own, last pivot first: each becomes the primitive multiple of its RREF row."""
        rows = self.rows
        for pivot in sorted(rows, reverse=True):
            row = rows[pivot]
            hits = [c for c in row if c != pivot and c in rows]
            if hits:
                for c in hits:  # a cleared row is zero at every other pivot, so no hit comes back
                    row = _eliminate(row, rows[c], c)
                content = gcd(*row.values())
                rows[pivot] = {c: v // content for c, v in row.items()}

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
    """The residue of ``row`` against echelon ``rows`` (pivot column -> row), zero at every pivot: empty exactly for a member."""
    pivots = [c for c in row if c in rows]  # a min-heap of the pivots the residue meets, as in _ModEchelon.insert
    heapify(pivots)
    while pivots:
        col = heappop(pivots)
        if col in row:  # an elimination may have cleared it
            stored = rows[col]
            for c in stored:  # every c is after col, so the heap stays ahead of it
                if c not in row and c in rows:
                    heappush(pivots, c)
            row = _eliminate(row, stored, col)
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


# The prime of the modular pass in front of ``_Echelon``.
P = 2**31 - 1


class _ModEchelon:
    """A row echelon over GF(P), fed with integer rows, that tells which rows raise its rank.

    A stored row leaves out its leading 1 and holds only columns after its
    pivot.  :meth:`insert` reduces an incoming row against the stored rows
    in ascending pivot order and touches no other row, so building the
    echelon costs a forward pass.  No kernel is read off it: rows that
    raise the rank mod ``P`` are independent over Q, and that is all
    :func:`nullspace_of_sparse_rows` takes from it.
    """

    def __init__(self, ambient: int) -> None:
        self.ambient = ambient
        self.rows: dict[int, dict[int, int]] = {}  # pivot column -> entries after the pivot

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, row: dict[int, int]) -> bool:
        """Fold one row in mod ``P``; returns True when the rank grew."""
        rows = self.rows
        residue = dict(row)
        pivots = [c for c in residue if c in rows]  # a min-heap of the residue's pivot columns still to clear
        heapify(pivots)
        get = residue.get
        while pivots:
            col = heappop(pivots)
            coeff = residue.pop(col) % P
            if coeff:
                for c, v in rows[col].items():  # every c is after col, so the heap stays ahead of it
                    held = get(c)
                    if held is None:
                        residue[c] = -coeff * v
                        if c in rows:
                            heappush(pivots, c)
                    else:
                        residue[c] = held - coeff * v
        residue = {c: r for c, v in residue.items() if (r := v % P)}
        if not residue:
            return False
        pivot = min(residue)
        inverse = pow(residue.pop(pivot), -1, P)
        rows[pivot] = {c: v * inverse % P for c, v in residue.items()}
        return True


def _column_index(gens: Iterable[dict[int, int]]) -> dict[int, list[tuple[int, int]]]:
    """Each column, mapped to the ``(i, value)`` of every ``gens[i]`` nonzero there."""
    by_column: dict[int, list[tuple[int, int]]] = {}
    for i, gen in enumerate(gens):
        for col, v in gen.items():
            by_column.setdefault(col, []).append((i, v))
    return by_column


def _dots(row: SparseRow, index: dict[int, Iterable[tuple[int, int]]]) -> SparseRow:
    """The nonzero entries of ``sum(v * index[k])`` over the entries ``k: v`` of ``row``, ``index[k]`` as ``(key, value)`` pairs.

    Through the :func:`_column_index` of ``gens`` these are the dot products
    ``row . gens[i]``; through ``{i: gens[i].items()}``, ``sum(row[i] * gens[i])``.
    """
    out: dict = {}
    for k, v in row.items():
        for i, g in index.get(k, ()):
            out[i] = out.get(i, 0) + v * g
    return {i: v for i, v in out.items() if v}


def _annihilated(rows: list[dict[int, int]], kernel: list[dict[int, int]]) -> bool:
    """Whether every integer row has a zero exact dot product with every integer kernel vector, each row read once."""
    by_column = _column_index(kernel)
    return not any(_dots(row, by_column) for row in rows)


def _integral(row: SparseRow) -> dict[int, int]:
    """``row`` times the lcm of its denominators: integer entries on the same line.

    A rational row or vector enters an echelon through here, once.  Zero
    entries are dropped, as ``_Echelon`` takes a row's lowest column as its pivot.
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
        return not _dots(functional, _column_index(self.rows.values()))

    def restricted(self, rows: Iterable[SparseRow]) -> "SubspaceBasis":
        """The vectors of the subspace that every row annihilates, in canonical form.

        The r stored rows ``g`` span the subspace, so a member is
        ``sum(c[i] * g[i])``, and a row ``e`` annihilates it exactly when
        ``sum(c[i] * (e . g[i])) = 0``.  Each row is composed by :func:`_dots`,
        unscaled (:func:`nullspace_of_sparse_rows` scales it), and dropped if
        it vanishes on the subspace.  The kernel in the coordinates ``c`` is
        lifted back through ``g`` by ``_dots`` into one echelon.  ``rows`` is
        read only until rank r, so a zero subspace reads none.
        """
        if not self.rows:
            return self
        by_column = _column_index(self.rows.values())

        def composed():
            for row in rows:
                _check_columns(row, self.ambient_dim)
                if dotted := _dots(row, by_column):
                    yield dotted

        kernel = nullspace_of_sparse_rows(self.rank, composed())
        by_index = dict(enumerate(row.items() for row in self.rows.values()))
        return _Echelon(self.ambient_dim, (_dots(c, by_index) for c in kernel.rows.values())).span()

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
        residue = _reduce(ech.rows, _integral({n - 1 - j: x for j, x in enumerate(v) if x} | {n: ONE}))
        return tuple(Fraction(residue.get(n - 1 - j, 0), residue[n]) for j in range(n))


def nullspace_of_sparse_rows(ambient: int, rows: Iterable[SparseRow]) -> SubspaceBasis:
    """Nullspace of a system given as sparse rows; the system's rank is ``ambient`` minus its rank.

    Each row, integral or rational, is scaled to integers here, and by no
    caller, by the lcm of its denominators, which keeps the row space; that
    is the only copy kept.  ``rows`` is read only until the rank mod ``P``
    reaches ``ambient``.  The rows that raised the rank mod ``P`` are
    eliminated exactly, and their kernel is the answer when every other row
    annihilates it (see the module docstring); otherwise the other rows are
    eliminated on top of their echelon.  The kernel generators go into one
    echelon of their own for the basis.
    """
    mod = _ModEchelon(ambient)
    chosen, others = [], []
    for row in rows:
        _check_columns(row, ambient)
        row = _integral(row)
        if mod.insert(row):
            chosen.append(row)
            if mod.rank == ambient:
                return _Echelon(ambient).span()
        else:
            others.append(row)
    echelon = _Echelon(ambient, chosen)
    kernel = echelon.kernel()
    if not _annihilated(others, kernel):  # go on from the chosen rows, which kernel() left reduced
        kernel = _Echelon(ambient, chain(echelon.rows.values(), others)).kernel()
    return _Echelon(ambient, kernel).span()
