"""Solution spaces of the linear definitional identities.

Each identity (derivation, centroid, commuting map, biderivation, ...) is
written once, as a term list in the registry ``KINDS``, which maps a kind to
the arity of its unknown ``U`` and to its identities.  For example the
derivation identity reads ``U([x,y]) - delta*[U(x),y] - delta*[x,U(y)] = 0``
with ``delta = 1``.  Two independent interpreters read the term lists:

* row assembly turns an identity into exact sparse rows over the vectorized
  unknown, one row per basis tuple and output coordinate, with one small
  kernel per term shape over the nonzero structure constants; the canonical
  nullspace of the rows is the solution space.  Linear maps are vectorized
  row-major over their stored matrix, ``M[r][c] -> r*n + c``; bilinear maps
  ``d[i][j][k] -> (i*n + j)*n + k``;
* ``map_defects`` / ``tensor_defects`` evaluate the same terms through
  ``algebra.bracket``, ``Matrix.apply`` / ``BilinearMap.apply`` and
  ``algebra.omega_form`` on every basis tuple and report any nonzero
  residual, so a re-check shares no row indexing with the solver.

Every identity is multilinear, so holding on basis tuples is equivalent to
holding on the whole algebra.  An identity that an exchange of two variables
maps to a multiple of itself declares an ``order`` such as ``(x, y, True)``
(``x < y``), and its rows are assembled on the basis tuples in that order
only.  Enumeration is lexicographic, which makes the rows, and so the
canonical bases, fully deterministic.

Adding an identity means one term list in ``KINDS`` plus one test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional, Union

from .algebra import BilinearMap, OmegaAlgebra
from .linalg import Matrix, SparseRow, SubspaceBasis, Vector, ZERO, frac, nullspace_of_sparse_rows

# -- term lists ---------------------------------------------------------------

x, y, z = 0, 1, 2  # the variables of an identity, bound to basis vectors


def U(*args):
    """The unknown: a linear map of one argument or a bilinear map of two."""
    return ("U",) + args


def br(a, b):
    return ("br", a, b)


def w(a, b):
    """The skew form; an identity whose terms are headed by ``w`` is scalar."""
    return ("w", a, b)


class Identity(NamedTuple):
    """``sum(multiplier * parameter * term) = 0`` on every tuple of basis vectors.

    Each term is ``(multiplier, parameter name or None, term)``.  ``order``
    ``(first, second, strict)`` restricts row assembly to the basis tuples with
    ``first < second`` (``first <= second`` when not strict); the residual
    checks use every tuple.
    """

    terms: tuple
    order: Optional[tuple] = None


class Kind(NamedTuple):
    arity: int  # of the unknown: 1 for linear maps, 2 for bilinear maps
    identities: tuple[Identity, ...]
    fixed: dict = {}  # parameter values the kind pins
    defaults: dict = {}  # parameter values a caller may override


LEIBNIZ = Identity(((1, None, U(br(x, y))), (-1, "delta", br(U(x), y)), (-1, "delta", br(x, U(y)))), (x, y, True))
FORM_SKEW = Identity(((1, None, w(U(x), y)), (1, None, w(x, U(y)))), (x, y, True))
CENTROID = Identity(((1, None, U(br(x, y))), (-1, None, br(U(x), y))))
COMMUTING = Identity(((1, None, br(U(x), y)), (-1, None, br(x, U(y)))))
ANTICOMMUTING = Identity(((1, None, br(U(x), y)), (-1, None, br(U(y), x))))
# a biderivation is a derivation in each slot
LEIBNIZ_FIRST = Identity(((1, None, U(br(x, y), z)), (-1, None, br(x, U(y, z))), (-1, None, br(U(x, z), y))),
                         (x, y, True))
LEIBNIZ_SECOND = Identity(((1, None, U(x, br(y, z))), (-1, None, br(y, U(x, z))), (-1, None, br(U(x, y), z))),
                          (y, z, True))
SYMMETRIC = Identity(((1, None, U(x, y)), (-1, None, U(y, x))), (x, y, False))
SKEW = Identity(((1, None, U(x, y)), (1, None, U(y, x))), (x, y, False))
# skew-form compatibility of both partial maps; see omega_biderivations
FORM_FIRST = Identity(((1, None, w(U(x, y), z)), (1, "sign", w(y, U(x, z)))))
FORM_SECOND = Identity(((1, None, w(U(x, y), z)), (1, "sign", w(x, U(z, y)))))

OMEGA_BIDERIVATION_SIGN = Fraction(-1)
BIDERIVATION = (LEIBNIZ_FIRST, LEIBNIZ_SECOND)

KINDS = {
    "derivation": Kind(1, (LEIBNIZ,), fixed={"delta": Fraction(1)}),
    "omega_derivation": Kind(1, (LEIBNIZ, FORM_SKEW), fixed={"delta": Fraction(1)}),
    "centroid": Kind(1, (CENTROID,)),
    "commuting": Kind(1, (COMMUTING,)),
    "anticommuting": Kind(1, (ANTICOMMUTING,)),
    "delta_derivation": Kind(1, (LEIBNIZ,)),
    "biderivation": Kind(2, BIDERIVATION),
    "symmetric": Kind(2, BIDERIVATION + (SYMMETRIC,)),
    "skew": Kind(2, BIDERIVATION + (SKEW,)),
    "omega_biderivation": Kind(2, BIDERIVATION + (FORM_FIRST, FORM_SECOND), defaults={"sign": OMEGA_BIDERIVATION_SIGN}),
}


def _lookup(kind: str, given: dict, arity: Optional[int] = None) -> tuple[Kind, dict]:
    """The registry entry of ``kind`` and the values of its parameters.

    A given value overrides a default; ``None`` keeps it.  A value for a
    parameter the kind pins, or does not name, is an error.
    """
    spec = KINDS.get(kind)
    if spec is None or arity not in (None, spec.arity):
        raise ValueError(f"unknown {('', 'map ', 'tensor ')[arity or 0]}kind {kind!r}")
    settable = {p for identity in spec.identities for _, p, _ in identity.terms if p} - set(spec.fixed)
    given = {name: frac(value) for name, value in given.items() if value is not None}
    unknown = sorted(set(given) - settable)
    if unknown:
        raise ValueError(f"{kind} has no parameter {unknown[0]!r}")
    missing = sorted(settable - set(given) - set(spec.defaults))
    if missing:
        raise ValueError(f"{kind} needs a value for {missing[0]!r}")
    return spec, {**spec.fixed, **spec.defaults, **given}


def _coefficient(multiplier: int, param: Optional[str], params: dict) -> Fraction:
    return multiplier * (params[param] if param else Fraction(1))


def _variables(expr) -> set[int]:
    if isinstance(expr, int):
        return {expr}
    return set().union(*(_variables(a) for a in expr[1:]))


def _arity(identity: Identity) -> int:
    """Number of variables of an identity."""
    return 1 + max(v for _, _, expr in identity.terms for v in _variables(expr))


# -- row assembly -------------------------------------------------------------


def _tables(algebra: OmegaAlgebra) -> dict:
    """Nonzero structure constants and form values, indexed for the kernels."""
    r = range(algebra.dim)
    c, om = algebra.structure, algebra.omega

    def nonzero(pairs):
        return tuple((p, v) for p, v in pairs if v)

    return {
        "br": [[nonzero((m, c[a][b][m]) for m in r) for b in r] for a in r],  # [a, b]_m
        ("br", 0): [[nonzero((p, c[p][v][k]) for p in r) for k in r] for v in r],  # [U.., v]_k
        ("br", 1): [[nonzero((p, c[v][p][k]) for p in r) for k in r] for v in r],  # [v, U..]_k
        ("w", 0): [[nonzero((q, om[q][v]) for q in r)] for v in r],  # w(U.., v)
        ("w", 1): [[nonzero((q, om[v][q]) for q in r)] for v in r],  # w(v, U..)
    }


def _kernel(expr, coef: Fraction, n: int, out: int, tables: dict):
    """Compile one term into ``(slots, step, table, s, t)`` for ``_rows``.

    At the point ``at = (basis indices..., output coordinate)`` the term adds
    ``v`` at column ``sum(at[a] * weight for a, weight in slots) + m * step``
    for each ``(m, v)`` in ``table[at[s]][at[t]]``.  ``out`` is the position
    of the output coordinate in ``at``.
    """
    if expr[0] == "U":  # U(args), one argument possibly a bracket of two variables
        args = expr[1:]
        weights = [n ** (len(args) - s) for s in range(len(args))]
        slots = [(a, wt) for a, wt in zip(args, weights) if isinstance(a, int)] + [(out, 1)]
        inner = [(a, wt) for a, wt in zip(args, weights) if not isinstance(a, int)]
        if not inner:
            return slots, 0, [[((0, coef),)] * n] * n, out, out
        ((_, s, t), step), = inner
        table = tables["br"]
    else:  # [U(vars), v], [v, U(vars)], w(U(vars), v) or w(v, U(vars))
        head, a, b = expr
        side = 1 if isinstance(a, int) else 0
        unknown, s = (b, a) if side else (a, b)
        args = unknown[1:]
        slots = [(v, n ** (len(args) - i)) for i, v in enumerate(args)]
        step, t, table = 1, out, tables[head, side]
    scaled = [[tuple((m, coef * v) for m, v in cell) for cell in line] for line in table]
    return slots, step, scaled, s, t


def _rows(algebra: OmegaAlgebra, identity: Identity, params: dict, tables: dict):
    """Sparse rows of one identity: per basis tuple, per output coordinate."""
    n = algebra.dim
    nvars = _arity(identity)
    kernels = [_kernel(expr, _coefficient(m, p, params), n, nvars, tables) for m, p, expr in identity.terms]
    outputs = range(1) if identity.terms[0][2][0] == "w" else range(n)
    tuples = product(range(n), repeat=nvars)
    if identity.order:
        first, second, strict = identity.order
        tuples = (p for p in tuples if p[first] < p[second] or (not strict and p[first] == p[second]))
    for point in tuples:
        for k in outputs:
            at = point + (k,)
            row: SparseRow = {}
            for slots, step, table, s, t in kernels:
                base = 0
                for var, weight in slots:
                    base += at[var] * weight
                for m, v in table[at[s]][at[t]]:
                    col = base + m * step
                    old = row.get(col)
                    row[col] = v if old is None else old + v
            row = {col: v for col, v in row.items() if v}
            if row:
                yield row


# -- solution spaces ----------------------------------------------------------


@dataclass(frozen=True)
class MapSpace:
    """Canonical solution space of a linear-map identity.

    ``space`` lives in ambient dimension ``n**2`` (row-major vectorization of
    the stored matrices).  An equation is implied by the identity exactly when
    ``space.annihilated_by`` holds for it.
    """

    algebra: OmegaAlgebra
    kind: str
    space: SubspaceBasis

    @property
    def rank(self) -> int:
        return self.space.rank

    def maps(self) -> tuple[Matrix, ...]:
        return tuple(unvectorize_map(row, self.algebra.dim) for row in self.space.basis)


@dataclass(frozen=True)
class TensorSpace:
    """Canonical solution space of a bilinear-map identity (ambient ``n**3``)."""

    algebra: OmegaAlgebra
    kind: str
    space: SubspaceBasis

    @property
    def rank(self) -> int:
        return self.space.rank

    def tensors(self) -> tuple[BilinearMap, ...]:
        n = self.algebra.dim
        return tuple(
            BilinearMap(
                tuple(
                    tuple(tuple(row[(i * n + j) * n + k] for k in range(n)) for j in range(n))
                    for i in range(n)
                )
            )
            for row in self.space.basis
        )

    def contains_tensor(self, t: BilinearMap) -> bool:
        return self.space.contains(vectorize_tensor(t))


def vectorize_map(matrix: Matrix) -> Vector:
    return tuple(x for row in matrix.rows for x in row)


def unvectorize_map(vec: Vector, n: int) -> Matrix:
    """The n x n matrix whose row-major vectorization is ``vec``."""
    return Matrix(tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n)), n)


def vectorize_tensor(t: BilinearMap) -> Vector:
    return tuple(x for plane in t.tensor for row in plane for x in row)


def solve(algebra: OmegaAlgebra, kind: str, **params) -> Union[MapSpace, TensorSpace]:
    """Solution space of a kind of ``KINDS``.

    ``params`` give values to the parameters a kind leaves open: ``delta`` of
    ``delta_derivation`` (required) and ``sign`` of ``omega_biderivation``;
    ``None`` keeps the default.
    """
    spec, values = _lookup(kind, params)
    tables = _tables(algebra)
    rows = (row for identity in spec.identities for row in _rows(algebra, identity, values, tables))
    space, _ = nullspace_of_sparse_rows(algebra.dim ** (spec.arity + 1), rows)
    if spec.arity == 1:
        return MapSpace(algebra, kind, space)
    return TensorSpace(algebra, kind, space)


def derivations(algebra: OmegaAlgebra) -> MapSpace:
    """All ``D`` with ``D([x,y]) = [D(x), y] + [x, D(y)]``."""
    return solve(algebra, "derivation")


def delta_derivations(algebra: OmegaAlgebra, delta) -> MapSpace:
    """All ``D`` with ``D([x,y]) = delta * ([D(x), y] + [x, D(y)])``.

    ``delta = 1`` assembles exactly the derivation system; ``delta = 1/2``
    gives the half-derivations.
    """
    return solve(algebra, "delta_derivation", delta=delta)


def half_derivations(algebra: OmegaAlgebra) -> MapSpace:
    return delta_derivations(algebra, Fraction(1, 2))


def omega_derivations(algebra: OmegaAlgebra) -> MapSpace:
    """Derivations compatible with the skew form; always inside ``derivations``."""
    return solve(algebra, "omega_derivation")


def centroid(algebra: OmegaAlgebra) -> MapSpace:
    """All ``a`` with ``a([x,y]) = [a(x), y]``."""
    return solve(algebra, "centroid")


def commuting_maps(algebra: OmegaAlgebra) -> MapSpace:
    """All ``a`` with ``[a(x), y] = [x, a(y)]``."""
    return solve(algebra, "commuting")


def anticommuting_maps(algebra: OmegaAlgebra) -> MapSpace:
    """All ``a`` with ``[a(x), y] = [a(y), x]``."""
    return solve(algebra, "anticommuting")


def biderivations(algebra: OmegaAlgebra) -> TensorSpace:
    """All bilinear maps that are derivations in each slot."""
    return solve(algebra, "biderivation")


def symmetric_biderivations(algebra: OmegaAlgebra) -> TensorSpace:
    return solve(algebra, "symmetric")


def skew_biderivations(algebra: OmegaAlgebra) -> TensorSpace:
    return solve(algebra, "skew")


def omega_biderivations(algebra: OmegaAlgebra, sign: Optional[Fraction] = None) -> TensorSpace:
    """Biderivations whose partial maps are compatible with the skew form.

    The compatibility family is ``w(delta(x,y), z) = w(y, delta(x,z))`` together
    with ``w(delta(x,y), z) = w(x, delta(z,y))`` (the module default,
    ``sign = -1`` in the term lists).  ``sign = +1`` reads them as sums, the
    reading compatible with omega-derivations.  Always a subspace of
    ``biderivations``.
    """
    return solve(algebra, "omega_biderivation", sign=sign)


# -- residual checks ----------------------------------------------------------


def _value(algebra: OmegaAlgebra, expr, unknown, point, memo: dict) -> Vector:
    """A term at basis vectors ``point``; a form value comes back as a 1-tuple.

    ``memo`` holds the subterms already evaluated at this point.
    """
    if isinstance(expr, int):
        return point[expr]
    if expr not in memo:
        args = [_value(algebra, a, unknown, point, memo) for a in expr[1:]]
        if expr[0] == "U":
            memo[expr] = unknown.apply(*args)
        elif expr[0] == "br":
            memo[expr] = algebra.bracket(*args)
        else:
            memo[expr] = (algebra.omega_form(*args),)
    return memo[expr]


def _defects(algebra: OmegaAlgebra, kind: str, arity: int, unknown, given: dict):
    """Nonzero residuals of a kind on all basis tuples.

    Identities with the same number of variables share their tuples: each
    entry is ``(1-based indices, residuals of those identities concatenated)``.
    """
    spec, params = _lookup(kind, given, arity)
    groups: dict[int, list] = {}
    for identity in spec.identities:
        terms = [(_coefficient(m, p, params), expr) for m, p, expr in identity.terms]
        groups.setdefault(_arity(identity), []).append(terms)
    basis = algebra.basis_vectors()
    out = []
    for nvars, identities in groups.items():
        for idx in product(range(algebra.dim), repeat=nvars):
            point = [basis[i] for i in idx]
            memo: dict = {}
            residual: Vector = ()
            for terms in identities:
                values = [(c, _value(algebra, expr, unknown, point, memo)) for c, expr in terms]
                residual += tuple(sum((c * v[r] for c, v in values if v[r]), ZERO) for r in range(len(values[0][1])))
            if any(residual):
                out.append((tuple(i + 1 for i in idx), residual))
    return out


def map_defects(
    algebra: OmegaAlgebra, kind: str, f: Matrix, delta: Optional[Fraction] = None
) -> list[tuple[int, int, Vector]]:
    """Nonzero residuals of the defining identities of ``kind`` on basis pairs.

    Returns ``[(i, j, residual), ...]`` with 1-based indices; empty means the
    map satisfies the identities exactly.
    """
    if f.shape != (algebra.dim, algebra.dim):
        raise ValueError(f"a map on the algebra must be {algebra.dim} x {algebra.dim}, got {f.shape}")
    return [(i, j, r) for (i, j), r in _defects(algebra, kind, 1, f, {"delta": delta})]


def tensor_defects(
    algebra: OmegaAlgebra, kind: str, t: BilinearMap, omega_sign: Optional[Fraction] = None
) -> list[tuple[tuple[int, ...], Vector]]:
    """Nonzero residuals of the defining identities of ``kind`` on basis tuples.

    Returns ``[(indices, residual), ...]``: basis triples for the biderivation
    and form identities, basis pairs for the symmetry identities.
    """
    return _defects(algebra, kind, 2, t, {"sign": omega_sign})
