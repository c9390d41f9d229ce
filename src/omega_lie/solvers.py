"""Solution spaces of the linear definitional identities.

Each identity (derivation, centroid, commuting map, biderivation, ...) is
written once, as a term list in the registry ``KINDS``, which maps a kind to
the arity of its unknown ``U`` and to its identities.  For example the
derivation identity reads ``U([x,y]) - delta*[U(x),y] - delta*[x,U(y)] = 0``
with ``delta = 1``; ``half_derivation`` pins ``delta = 1/2`` on the same
term list, and ``delta_derivation`` leaves it to the caller.  ``KINDS`` is
the one table from a name to a kind and its fixed parameters: the CLI maps
its labels onto it, and the verification suite residual-checks every entry.
Two independent interpreters read the term lists:

* row assembly turns an identity into exact sparse rows over the vectorized
  unknown, one row per basis tuple and output coordinate, with one small
  kernel per term shape over the nonzero structure constants; the canonical
  nullspace of the rows is the solution space.  Linear maps are vectorized
  row-major over their stored matrix, ``M[r][c] -> r*n + c``; bilinear maps
  ``d[i][j][k] -> (i*n + j)*n + k``;
* ``defects`` evaluates the same terms on every basis tuple, for a list of
  unknowns at once, and reports any nonzero residual, so a re-check shares
  no row indexing with the solver.  Every term is evaluated by the one
  bilinear kernel ``linalg._bilinear`` (the kernel behind
  ``algebra.bracket``, ``algebra.omega_form``, ``BilinearMap.apply`` and
  ``Matrix.apply``) over the cached support of the bracket, the form or
  the unknown, a map read as a ``1 x n x n`` table as in ``Matrix.apply``,
  on sparse values: a basis vector is ``((i, 1),)``, zero is ``()``, and an
  integral entry is held as its ``int``.  Each kind's identities are
  compiled once into numbered steps; at each tuple the steps that do not
  read the unknown (``br(x, y)``, ``w(x, y)``) are evaluated once for all
  unknowns, and a step with a zero argument is zero without a call, which
  is exact because every evaluator is multilinear.  Residuals are summed
  from nonzero entries only and reported as ``Fraction`` tuples.
  ``map_defects`` / ``tensor_defects`` check one unknown.

Every identity is multilinear, so holding on basis tuples is equivalent to
holding on the whole algebra.  An identity that an exchange of two variables
maps to a multiple of itself declares an ``order`` such as ``(x, y, True)``
(``x < y``), and its rows are assembled on the basis tuples in that order
only.  Enumeration is lexicographic, which makes the rows, and so the
canonical bases, fully deterministic.

A kind may extend a parent kind: the parent's identities are a proper
prefix of its own, and both pin the same parameters (``symmetric``, ``skew``
and ``omega_biderivation`` extend ``biderivation``; ``omega_derivation``
extends ``derivation``).  :func:`solve` always assembles every identity's
rows.  A :class:`Session`, which the verification suite creates once per
run, instead remembers each space it solves, keyed by the algebra's value,
the kind and its parameter values, and reads an extending kind off the
parent space: the remaining identities' rows are composed with the parent
echelon's r integer rows, their kernel is taken in those r coordinates and
lifted back (``SubspaceBasis.restricted``).  Canonical bases make the two
answers equal.  A one-off solve keeps the direct path, since it has no
parent space to reuse.

Adding an identity means one term list in ``KINDS`` plus one test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import NamedTuple, Optional, Union

from .algebra import BilinearMap, OmegaAlgebra
from .linalg import (
    Matrix,
    SparseRow,
    SubspaceBasis,
    Vector,
    ZERO,
    _bilinear,
    _exact,
    frac,
    nullspace_of_sparse_rows,
)

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
    "half_derivation": Kind(1, (LEIBNIZ,), fixed={"delta": Fraction(1, 2)}),
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
    settable = _settable(spec)
    given = {name: frac(value) for name, value in given.items() if value is not None}
    unknown = sorted(set(given) - settable)
    if unknown:
        raise ValueError(f"{kind} has no parameter {unknown[0]!r}")
    missing = sorted(settable - set(given) - set(spec.defaults))
    if missing:
        raise ValueError(f"{kind} needs a value for {missing[0]!r}")
    return spec, {**spec.fixed, **spec.defaults, **given}


def _settable(spec: Kind) -> set[str]:
    """The parameters a caller may give ``spec``: those its identities name and it does not pin."""
    return {p for identity in spec.identities for _, p, _ in identity.terms if p} - set(spec.fixed)


def _parent(spec: Kind) -> Optional[str]:
    """The kind whose identities are the longest proper prefix of ``spec``'s and that pins the same parameters.

    Its solution space contains that of ``spec``, which is the part of it the
    remaining identities annihilate.
    """
    parents = [
        name
        for name, other in KINDS.items()
        if len(other.identities) < len(spec.identities)
        and spec.identities[: len(other.identities)] == other.identities
        and other.fixed == spec.fixed
    ]
    return max(parents, key=lambda name: len(KINDS[name].identities), default=None)


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
class SolutionSpace:
    """Canonical solution space of a kind of ``KINDS``.

    ``space`` lives in ambient dimension ``n**(arity + 1)``: the row-major
    vectorization of the stored matrices for a map kind, of the bilinear
    maps for a tensor kind.  An equation is implied by the identities exactly
    when ``space.annihilated_by`` holds for it.
    """

    algebra: OmegaAlgebra
    kind: str
    space: SubspaceBasis

    @property
    def rank(self) -> int:
        return self.space.rank

    def elements(self) -> tuple[Union[Matrix, BilinearMap], ...]:
        """The basis as ``Matrix`` objects for a map kind, ``BilinearMap`` objects for a tensor kind."""
        n = self.algebra.dim
        if KINDS[self.kind].arity == 1:
            return tuple(unvectorize_map(row, n) for row in self.space.basis)
        return tuple(  # d[i][j] is the n columns from (i*n + j)*n on
            BilinearMap(tuple(tuple(row[s : s + n] for s in range(i * n * n, (i + 1) * n * n, n)) for i in range(n)))
            for row in self.space.basis
        )

    # read only by bench/workloads.py's space_defect_error; the bench port (ROADMAP Direction 5 stage 1) deletes it
    maps = tensors = elements


def vectorize_map(matrix: Matrix) -> Vector:
    return tuple(x for row in matrix.rows for x in row)


def unvectorize_map(vec: Vector, n: int) -> Matrix:
    """The n x n matrix whose row-major vectorization is ``vec``."""
    return Matrix(tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n)), n)


def vectorize_tensor(t: BilinearMap) -> Vector:
    return tuple(x for plane in t.tensor for row in plane for x in row)


def _identity_rows(algebra: OmegaAlgebra, identities, values: dict):
    tables = _tables(algebra)
    return (row for identity in identities for row in _rows(algebra, identity, values, tables))


def solve(algebra: OmegaAlgebra, kind: str, **params) -> SolutionSpace:
    """Solution space of a kind of ``KINDS``, from all of its identities' rows.

    ``params`` give values to the parameters a kind leaves open: ``delta`` of
    ``delta_derivation`` (required) and ``sign`` of ``omega_biderivation``;
    ``None`` keeps the default.  A value for a parameter the kind pins, such
    as ``delta`` of ``derivation`` or ``half_derivation``, is an error.
    """
    spec, values = _lookup(kind, params)
    rows = _identity_rows(algebra, spec.identities, values)
    return SolutionSpace(algebra, kind, nullspace_of_sparse_rows(algebra.dim ** (spec.arity + 1), rows))


class Session:
    """The solution spaces of one run, each solved once (see the module docstring).

    :meth:`solve` takes the arguments of :func:`solve` and gives an equal answer.
    """

    def __init__(self) -> None:
        self._solved: dict = {}

    def solve(self, algebra: OmegaAlgebra, kind: str, **params) -> SolutionSpace:
        spec, values = _lookup(kind, params)
        key = (algebra, kind, tuple(sorted(values.items())))
        found = self._solved.get(key)
        if found is None:
            parent = _parent(spec)
            if parent is None:
                found = solve(algebra, kind, **params)
            else:
                parent_spec = KINDS[parent]
                base = self.solve(algebra, parent, **{p: values[p] for p in _settable(parent_spec)})
                rows = _identity_rows(algebra, spec.identities[len(parent_spec.identities) :], values)
                found = SolutionSpace(algebra, kind, base.space.restricted(rows))
            self._solved[key] = found
        return found


def derivations(algebra: OmegaAlgebra) -> SolutionSpace:
    """All ``D`` with ``D([x,y]) = [D(x), y] + [x, D(y)]``."""
    return solve(algebra, "derivation")


def half_derivations(algebra: OmegaAlgebra) -> SolutionSpace:
    """All ``D`` with ``D([x,y]) = ([D(x), y] + [x, D(y)]) / 2``."""
    return solve(algebra, "half_derivation")


def omega_derivations(algebra: OmegaAlgebra) -> SolutionSpace:
    """Derivations compatible with the skew form; always inside ``derivations``."""
    return solve(algebra, "omega_derivation")


def centroid(algebra: OmegaAlgebra) -> SolutionSpace:
    """All ``a`` with ``a([x,y]) = [a(x), y]``."""
    return solve(algebra, "centroid")


def commuting_maps(algebra: OmegaAlgebra) -> SolutionSpace:
    """All ``a`` with ``[a(x), y] = [x, a(y)]``."""
    return solve(algebra, "commuting")


def anticommuting_maps(algebra: OmegaAlgebra) -> SolutionSpace:
    """All ``a`` with ``[a(x), y] = [a(y), x]``."""
    return solve(algebra, "anticommuting")


def biderivations(algebra: OmegaAlgebra) -> SolutionSpace:
    """All bilinear maps that are derivations in each slot."""
    return solve(algebra, "biderivation")


def symmetric_biderivations(algebra: OmegaAlgebra) -> SolutionSpace:
    return solve(algebra, "symmetric")


def skew_biderivations(algebra: OmegaAlgebra) -> SolutionSpace:
    return solve(algebra, "skew")


def omega_biderivations(algebra: OmegaAlgebra, sign: Optional[Fraction] = None) -> SolutionSpace:
    """Biderivations whose partial maps are compatible with the skew form.

    The compatibility family is ``w(delta(x,y), z) = w(y, delta(x,z))`` together
    with ``w(delta(x,y), z) = w(x, delta(z,y))`` (the module default,
    ``sign = -1`` in the term lists).  ``sign = +1`` reads them as sums, the
    reading compatible with omega-derivations.  Always a subspace of
    ``biderivations``.
    """
    return solve(algebra, "omega_biderivation", sign=sign)


# -- residual checks ----------------------------------------------------------


class _Plan(NamedTuple):
    """The identities of a kind with one number of variables, compiled into steps.

    Positions ``0 .. nvars - 1`` hold the basis vectors of a tuple, and each
    distinct subterm is a step at the next position after its arguments:
    ``(position, head, argument positions)``.  ``shared`` lists the steps that
    do not read the unknown and ``own`` the others, each in evaluation order.
    ``identities`` holds ``(width, ((coefficient, position), ...))`` per
    identity, ``width`` being 1 for a form identity and ``n`` otherwise; an
    integral coefficient is held as its ``int``.
    """

    nvars: int
    nsteps: int
    shared: tuple
    own: tuple
    identities: tuple


def _plans(spec: Kind, params: dict, n: int) -> list[_Plan]:
    """One plan per number of variables, in the order the identities first use it."""
    groups: dict[int, list] = {}
    for identity in spec.identities:
        groups.setdefault(_arity(identity), []).append(identity)
    plans = []
    for nvars, identities in groups.items():
        position: dict = {}  # subterm -> position
        shared: list = []
        own: list = []
        reading: set[int] = set()  # positions whose value reads the unknown

        def compile_term(expr) -> int:
            if isinstance(expr, int):
                return expr
            if expr not in position:
                args = tuple(compile_term(a) for a in expr[1:])
                pos = position[expr] = nvars + len(position)
                if expr[0] == "U" or reading.intersection(args):
                    reading.add(pos)
                    own.append((pos, expr[0], args))
                else:
                    shared.append((pos, expr[0], args))
            return position[expr]

        compiled = []
        for identity in identities:
            terms = [(_coefficient(m, p, params), compile_term(expr)) for m, p, expr in identity.terms]
            width = 1 if identity.terms[0][2][0] == "w" else n
            compiled.append((width, tuple((_exact(c), pos) for c, pos in terms)))
        plans.append(_Plan(nvars, len(position), tuple(shared), tuple(own), tuple(compiled)))
    return plans


def _defects(algebra: OmegaAlgebra, kind: str, arity: Optional[int], unknowns, given: dict) -> list[list]:
    """Nonzero residuals of a kind on all basis tuples, one list per unknown.

    Identities with the same number of variables share their tuples: each
    entry is ``(1-based indices, residuals of those identities concatenated)``.
    Every value is sparse, nonzero ``(index, value)`` pairs: a basis vector is
    ``((i, 1),)`` and zero is ``()``.  A step evaluates ``_bilinear`` over
    the support of its operator.  Every step is multilinear, so one with a
    zero argument stays zero without a call.  At each tuple the steps that
    do not read the unknown are evaluated once for all unknowns.
    """
    spec, params = _lookup(kind, given, arity)
    n = algebra.dim
    unknowns = tuple(unknowns)
    for u in unknowns:
        if spec.arity == 1 and not (isinstance(u, Matrix) and u.shape == (n, n)):
            raise ValueError(f"a map on the algebra must be {n} x {n}, got {getattr(u, 'shape', type(u).__name__)}")
        if spec.arity == 2 and not (isinstance(u, BilinearMap) and u.dim == n):
            raise ValueError(
                f"a bilinear map on the algebra must be {n} x {n} x {n}, got {getattr(u, 'dim', type(u).__name__)}"
            )
    supports = {"br": algebra._support, "w": algebra._form_support}
    # a map acts as the 1 x n x n table of its rows (as in Matrix.apply), whose first argument is the scalar 1, kept as the last value
    operators = [u._support if spec.arity == 2 else (u._support,) for u in unknowns]
    found: list[list] = [[] for _ in unknowns]
    for plan in _plans(spec, params, n):
        shared = [(pos, supports[head], *args) for pos, head, args in plan.shared]
        own = [
            [
                (pos, operator if head == "U" else supports[head], *(args if len(args) == 2 else (-1, *args)))
                for pos, head, args in plan.own
            ]
            for operator in operators
        ]
        for idx in product(range(n), repeat=plan.nvars):
            values = [((i, 1),) for i in idx] + [()] * plan.nsteps + [((0, 1),)]
            for pos, support, a, b in shared:
                if values[a] and values[b]:
                    values[pos] = _bilinear(support, values[a], values[b])
            for steps, out in zip(own, found):
                at = values.copy()
                for pos, support, a, b in steps:
                    if at[a] and at[b]:
                        at[pos] = _bilinear(support, at[a], at[b])
                residual: list = []
                for width, terms in plan.identities:
                    sums = [0] * width
                    for c, pos in terms:
                        for k, v in at[pos]:
                            sums[k] += c * v
                    residual += sums
                if any(residual):
                    out.append((tuple(i + 1 for i in idx), tuple(ZERO + v for v in residual)))
    return found


def defects(algebra: OmegaAlgebra, kind: str, unknowns, **params) -> list[list[tuple[tuple[int, ...], Vector]]]:
    """Nonzero residuals of the defining identities of ``kind``, one list per unknown.

    ``unknowns`` are ``Matrix`` objects for a map kind and ``BilinearMap``
    objects for a tensor kind; ``params`` are those of :func:`solve`.  Each
    list holds ``(1-based indices, residual)`` for every basis tuple with a
    nonzero residual; an empty list means that unknown satisfies the
    identities exactly.
    """
    return _defects(algebra, kind, None, unknowns, params)


def map_defects(
    algebra: OmegaAlgebra, kind: str, f: Matrix, delta: Optional[Fraction] = None
) -> list[tuple[int, int, Vector]]:
    """Nonzero residuals of the defining identities of ``kind`` on basis pairs.

    Returns ``[(i, j, residual), ...]`` with 1-based indices; empty means the
    map satisfies the identities exactly.
    """
    return [(i, j, r) for (i, j), r in _defects(algebra, kind, 1, [f], {"delta": delta})[0]]


def tensor_defects(
    algebra: OmegaAlgebra, kind: str, t: BilinearMap, omega_sign: Optional[Fraction] = None
) -> list[tuple[tuple[int, ...], Vector]]:
    """Nonzero residuals of the defining identities of ``kind`` on basis tuples.

    Returns ``[(indices, residual), ...]``: basis triples for the biderivation
    and form identities, basis pairs for the symmetry identities.
    """
    return _defects(algebra, kind, 2, [t], {"sign": omega_sign})[0]
