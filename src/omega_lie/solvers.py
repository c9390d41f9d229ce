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
  kernel per term shape over the algebra's cached supports of the bracket
  and the form and their transposes, applying each term's coefficient as
  it adds; the canonical nullspace of the rows is the solution space.
  Linear maps are vectorized row-major over their stored matrix,
  ``M[r][c] -> r*n + c``; bilinear maps ``d[i][j][k] -> (i*n + j)*n + k``;
* ``defects`` evaluates the same terms on every basis tuple, for a list of
  unknowns at once, and reports any nonzero residual, so a re-check shares
  no row indexing with the solver.  It compiles a kind's identities into
  ordered steps (:func:`_plans`), each one call of the bilinear kernel
  ``linalg._bilinear`` (the kernel behind ``algebra.bracket``,
  ``algebra.omega_form``, ``BilinearMap.apply`` and ``Matrix.apply``) on
  sparse values.  ``map_defects`` / ``tensor_defects`` call it on one
  unknown.

Every identity is multilinear, so holding on basis tuples is equivalent to
holding on the whole algebra.  An identity that an exchange of two variables
maps to a multiple of itself declares an ``order`` such as ``(x, y, True)``
(``x < y``), and its rows are assembled on the basis tuples in that order
only.  Enumeration is lexicographic, which makes the rows, and so the
canonical bases, fully deterministic.

A kind may name a ``parent`` of the same arity that pins the same
parameters; it then lists only its own identities and holds the parent's
too (``symmetric``, ``skew`` and ``omega_biderivation`` name
``biderivation``; ``omega_derivation`` names ``derivation``).  Its space is
the parent's, restricted by its own rows (``SubspaceBasis.restricted``).  A
bilinear map is a biderivation exactly when each slice ``U(e_i, .)`` and
``U(., e_j)`` is a derivation, so ``biderivation`` names ``derivation`` as
its ``slices``: its space P ∩ Q (P, Q spanned by the derivations' rows in
either slot) is read off one Zassenhaus echelon.  Only the other kinds
eliminate over all ``n**(arity + 1)`` unknowns.  :func:`solve` is a
:class:`Session` of one request; the verification suite keeps one per run.

Adding an identity means one term list in ``KINDS`` plus one test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import NamedTuple, Optional, Union

from .algebra import BilinearMap, OmegaAlgebra
from .linalg import (
    Matrix,
    SparseRow,
    SubspaceBasis,
    Vector,
    ZERO,
    _Echelon,
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
    identities: tuple[Identity, ...]  # its own, after those of its parent
    fixed: dict = {}  # parameter values the kind pins
    defaults: dict = {}  # parameter values a caller may override
    parent: Optional[str] = None  # the kind whose solution space contains this one's
    slices: Optional[str] = None  # the linear kind of every slice of a bilinear solution, in either slot


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

KINDS = {
    "derivation": Kind(1, (LEIBNIZ,), fixed={"delta": Fraction(1)}),
    "omega_derivation": Kind(1, (FORM_SKEW,), fixed={"delta": Fraction(1)}, parent="derivation"),
    "centroid": Kind(1, (CENTROID,)),
    "commuting": Kind(1, (COMMUTING,)),
    "anticommuting": Kind(1, (ANTICOMMUTING,)),
    "half_derivation": Kind(1, (LEIBNIZ,), fixed={"delta": Fraction(1, 2)}),
    "delta_derivation": Kind(1, (LEIBNIZ,)),
    "biderivation": Kind(2, (LEIBNIZ_FIRST, LEIBNIZ_SECOND), slices="derivation"),
    "symmetric": Kind(2, (SYMMETRIC,), parent="biderivation"),
    "skew": Kind(2, (SKEW,), parent="biderivation"),
    "omega_biderivation": Kind(2, (FORM_FIRST, FORM_SECOND), defaults={"sign": OMEGA_BIDERIVATION_SIGN}, parent="biderivation"),
}


def _identities(spec: Kind) -> tuple[Identity, ...]:
    """All identities of ``spec``: its parent's, then its own."""
    return (_identities(KINDS[spec.parent]) if spec.parent else ()) + spec.identities


def _lookup(kind: str, given: dict) -> tuple[Kind, dict]:
    """The registry entry of ``kind`` and the values of its parameters.

    A given value overrides a default; ``None`` keeps it.  A value for a
    parameter the kind pins, or does not name, is an error.
    """
    spec = KINDS.get(kind)
    if spec is None:
        raise ValueError(f"unknown kind {kind!r}")
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
    return {p for identity in _identities(spec) for _, p, _ in identity.terms if p} - set(spec.fixed)


def _coefficient(multiplier: int, param: Optional[str], params: dict) -> Union[int, Fraction]:
    return _exact(multiplier * (params[param] if param else 1))


def _variables(expr) -> set[int]:
    if isinstance(expr, int):
        return {expr}
    return set().union(*(_variables(a) for a in expr[1:]))


def _arity(identity: Identity) -> int:
    """Number of variables of an identity."""
    return 1 + max(v for _, _, expr in identity.terms for v in _variables(expr))


# -- row assembly -------------------------------------------------------------


def _tables(algebra: OmegaAlgebra) -> dict:
    """``algebra._support`` and the transposes of it and of ``_form_support``, indexed for the kernels.

    One pass over the nonzero entries scatters each transpose, so its cells list indices in ascending order.
    """
    n = algebra.dim
    tables = {"br": algebra._support}
    for head, support, width in (("br", algebra._support, n), ("w", algebra._form_support, 1)):
        # left[v][k] lists (p, t[p][v][k]), for [U.., v] and w(U.., v);
        # right[v][k] lists (p, t[v][p][k]), for [v, U..] and w(v, U..)
        left, right = ([[[] for _ in range(width)] for _ in range(n)] for _ in range(2))
        for a, plane in enumerate(support):
            for b, cell in enumerate(plane):
                for k, v in cell:
                    left[b][k].append((a, v))
                    right[a][k].append((b, v))
        tables[head, 0], tables[head, 1] = left, right
    return tables


def _kernel(expr, n: int, out: int, tables: dict):
    """Compile one term into ``(slots, step, table, s, t)`` for ``_rows``.

    At the point ``at = (basis indices..., output coordinate)`` the term adds
    its coefficient times ``v`` at column ``sum(at[a] * weight for a, weight
    in slots) + m * step`` for each ``(m, v)`` in ``table[at[s]][at[t]]``, a
    table shared by every term that reads it.  ``out`` is the position of
    the output coordinate in ``at``.
    """
    if expr[0] == "U":  # U(args), one argument possibly a bracket of two variables
        args = expr[1:]
        weights = [n ** (len(args) - s) for s in range(len(args))]
        slots = [(a, wt) for a, wt in zip(args, weights) if isinstance(a, int)] + [(out, 1)]
        inner = [(a, wt) for a, wt in zip(args, weights) if not isinstance(a, int)]
        if not inner:
            return slots, 0, [[((0, 1),)] * n] * n, out, out
        ((_, s, t), step), = inner
        return slots, step, tables["br"], s, t
    # [U(vars), v], [v, U(vars)], w(U(vars), v) or w(v, U(vars))
    head, a, b = expr
    side = 1 if isinstance(a, int) else 0
    unknown, s = (b, a) if side else (a, b)
    args = unknown[1:]
    slots = [(v, n ** (len(args) - i)) for i, v in enumerate(args)]
    return slots, 1, tables[head, side], s, out


def _rows(algebra: OmegaAlgebra, identity: Identity, params: dict, tables: dict):
    """Sparse rows of one identity: per basis tuple, per output coordinate."""
    n = algebra.dim
    nvars = _arity(identity)
    kernels = [(_coefficient(m, p, params), *_kernel(expr, n, nvars, tables)) for m, p, expr in identity.terms]
    outputs = range(1) if identity.terms[0][2][0] == "w" else range(n)
    tuples = product(range(n), repeat=nvars)
    if identity.order:
        first, second, strict = identity.order
        tuples = (p for p in tuples if p[first] < p[second] or (not strict and p[first] == p[second]))
    for point in tuples:
        for k in outputs:
            at = point + (k,)
            row: SparseRow = {}
            for coef, slots, step, table, s, t in kernels:
                base = 0
                for var, weight in slots:
                    base += at[var] * weight
                for m, v in table[at[s]][at[t]]:
                    col = base + m * step
                    old = row.get(col)
                    row[col] = coef * v if old is None else old + coef * v
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


def _solve(solved: dict, algebra: OmegaAlgebra, kind: str, params: dict) -> SolutionSpace:
    """The one solve path (see the module docstring); ``solved`` holds the spaces of ``algebra`` solved so far."""
    spec, values = _lookup(kind, params)
    key = (kind, tuple(sorted(values.items())))
    if key not in solved:
        n = algebra.dim
        if spec.parent:
            base = _solve(solved, algebra, spec.parent, {p: values[p] for p in _settable(KINDS[spec.parent])}).space
            space = base.restricted(_identity_rows(algebra, spec.identities, values))
        elif spec.slices:
            # P holds U(e_i, .) from column i*n*n; Q holds U(., e_j), entry i*n + k at column (i*n + j)*n + k
            der, cube = _solve(solved, algebra, spec.slices, {}).space.rows.values(), n**3
            p = ({h + i * n * n + c: v for h in (0, cube) for c, v in row.items()} for i in range(n) for row in der)
            q = ({(c // n * n + j) * n + c % n: v for c, v in row.items()} for j in range(n) for row in der)
            meet = _Echelon(2 * cube, chain(p, q)).rows  # (p | p), (q | 0): rows pivoting at or after n³ span (0 | P ∩ Q)
            space = _Echelon(cube, ({c - cube: v for c, v in row.items()} for f, row in meet.items() if f >= cube)).span()
        else:
            space = nullspace_of_sparse_rows(n ** (spec.arity + 1), _identity_rows(algebra, spec.identities, values))
        solved[key] = SolutionSpace(algebra, kind, space)
    return solved[key]


def solve(algebra: OmegaAlgebra, kind: str, **params) -> SolutionSpace:
    """Solution space of a kind of ``KINDS``: a :class:`Session` of one request.

    ``params`` give values to the parameters a kind leaves open: ``delta`` of
    ``delta_derivation`` (required) and ``sign`` of ``omega_biderivation``;
    ``None`` keeps the default.  A value for a parameter the kind pins, such
    as ``delta`` of ``derivation`` or ``half_derivation``, is an error.
    """
    return _solve({}, algebra, kind, params)


class Session:
    """The spaces of one run, each solved once, keyed by the algebra's value, the kind and its parameters."""

    def __init__(self) -> None:
        self._solved: dict = {}

    def solve(self, algebra: OmegaAlgebra, kind: str, **params) -> SolutionSpace:
        return _solve(self._solved.setdefault(algebra, {}), algebra, kind, params)


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


def _plans(spec: Kind, params: dict) -> list[tuple]:
    """The identities of ``spec`` compiled into one ``(nvars, steps, identities)`` per number of variables.

    Plans come in the order the identities first use a number of variables.
    Positions ``0 .. nvars - 1`` hold the basis vectors of a tuple, position
    -1 the scalar 1, and each distinct subterm is a step at the next position.
    ``steps`` lists ``(position, head, side, a, b)`` in compile order, which
    is an evaluation order, since a step comes after its arguments ``a`` and
    ``b``; ``side`` is the argument that reads the unknown, ``None`` for
    ``U`` and for a step that does not read it, and ``U`` of one argument
    reads -1 as ``a``.  ``identities`` holds ``(scalar, ((coefficient,
    position), ...))`` per identity, ``scalar`` being true for a form
    identity; an integral coefficient is held as its ``int``.
    """
    groups: dict[int, list] = {}
    for identity in _identities(spec):
        groups.setdefault(_arity(identity), []).append(identity)
    plans = []
    for nvars, identities in groups.items():
        position: dict = {}  # subterm -> position
        steps: list = []
        reading: set[int] = set()  # positions whose value reads the unknown

        def compile_term(expr) -> int:
            if isinstance(expr, int):
                return expr
            if expr not in position:
                args = tuple(compile_term(a) for a in expr[1:])
                pos = position[expr] = nvars + len(position)
                side = next((s for s, a in enumerate(args) if a in reading), None)
                if expr[0] == "U" or side is not None:
                    reading.add(pos)
                a, b = args if len(args) == 2 else (-1, *args)
                steps.append((pos, expr[0], side, a, b))
            return position[expr]

        compiled = []
        for identity in identities:
            terms = tuple((_coefficient(m, p, params), compile_term(expr)) for m, p, expr in identity.terms)
            compiled.append((identity.terms[0][2][0] == "w", terms))
        plans.append((nvars, steps, compiled))
    return plans


def _lifted(support, side: int, r: int, width: int) -> tuple:
    """``support`` on the r-fold direct sum in argument ``side``: entry ``u*n + i`` there goes to ``u*width + m``.

    The lift is block-diagonal: block ``u`` is ``support`` with its outputs
    shifted by ``u*width``.
    """
    def shifted(cell, u):
        return tuple((u * width + m, v) for m, v in cell) if cell else cell

    if side == 0:
        return tuple(tuple(shifted(cell, u) for cell in plane) for u in range(r) for plane in support)
    return tuple(tuple(shifted(cell, u) for u in range(r) for cell in plane) for plane in support)


def defects(algebra: OmegaAlgebra, kind: str, unknowns, **params) -> list[list[tuple[tuple[int, ...], Vector]]]:
    """Nonzero residuals of the defining identities of ``kind``, one list per unknown.

    ``unknowns`` are ``Matrix`` objects for a map kind and ``BilinearMap``
    objects for a tensor kind; ``params`` are those of :func:`solve`.  Each
    list holds ``(1-based indices, residual)`` for every basis tuple with a
    nonzero residual; an empty list means that unknown satisfies the
    identities exactly.  Identities with the same number of variables share
    their tuples, and their residuals are concatenated.

    Every value is sparse, nonzero ``(index, value)`` pairs.  The identities
    are linear in the unknown, so the r unknowns act as one map into their
    r-fold direct sum, and a step that reads it applies the bracket or the
    form lifted block-diagonally in that argument (:func:`_lifted`): each
    step is evaluated once per tuple for all unknowns.  Every step is
    multilinear, so one with a zero argument is zero without a call.
    """
    spec, params = _lookup(kind, params)
    n = algebra.dim
    unknowns = tuple(unknowns)
    for u in unknowns:
        if spec.arity == 1 and not (isinstance(u, Matrix) and u.shape == (n, n)):
            raise ValueError(f"a map on the algebra must be {n} x {n}, got {getattr(u, 'shape', type(u).__name__)}")
        if spec.arity == 2 and not (isinstance(u, BilinearMap) and u.dim == n):
            raise ValueError(
                f"a bilinear map on the algebra must be {n} x {n} x {n}, got {getattr(u, 'dim', type(u).__name__)}"
            )
    if not unknowns:
        return []
    r = len(unknowns)
    # a map acts as the 1 x n x n table of its rows (as in Matrix.apply), whose first argument is the scalar 1;
    # the stacked unknown holds entry k of unknown u at u*n + k
    unknown_supports = [u._support if spec.arity == 2 else (u._support,) for u in unknowns]
    stacked = tuple(
        tuple(
            tuple((u * n + k, v) for u, support in enumerate(unknown_supports) for k, v in support[i][j])
            for j in range(n)
        )
        for i in range(len(unknown_supports[0]))
    )
    operators = {("U", None): stacked, ("br", None): algebra._support, ("w", None): algebra._form_support}
    found: list[list] = [[] for _ in unknowns]
    for nvars, compiled, identities in _plans(spec, params):
        steps = []
        for pos, head, side, a, b in compiled:
            if (head, side) not in operators:
                operators[head, side] = _lifted(operators[head, None], side, r, n if head == "br" else 1)
            steps.append((pos, operators[head, side], a, b))
        # an identity fills sums[start + u*width + m] for unknown u, so each unknown's residual is a slice per identity
        blocks: list = []
        terms: list = []
        size = 0
        for scalar, identity_terms in identities:
            width = 1 if scalar else n
            blocks.append((size, width))
            terms += [(c, pos, size) for c, pos in identity_terms]
            size += width * r
        for idx in product(range(n), repeat=nvars):
            values = [((i, 1),) for i in idx] + [()] * len(steps) + [((0, 1),)]
            for pos, support, a, b in steps:
                if values[a] and values[b]:
                    values[pos] = _bilinear(support, values[a], values[b])
            sums = [0] * size
            for c, pos, start in terms:
                for k, v in values[pos]:
                    sums[start + k] += c * v
            if any(sums):
                indices = tuple(i + 1 for i in idx)
                for u, out in enumerate(found):
                    residual = [v for start, width in blocks for v in sums[start + u * width : start + (u + 1) * width]]
                    if any(residual):
                        out.append((indices, tuple(ZERO + v for v in residual)))
    return found


def map_defects(
    algebra: OmegaAlgebra, kind: str, f: Matrix, delta: Optional[Fraction] = None
) -> list[tuple[int, int, Vector]]:
    """:func:`defects` of one map, as ``[(i, j, residual), ...]`` with 1-based indices."""
    return [(i, j, r) for (i, j), r in defects(algebra, kind, [f], delta=delta)[0]]


def tensor_defects(
    algebra: OmegaAlgebra, kind: str, t: BilinearMap, omega_sign: Optional[Fraction] = None
) -> list[tuple[tuple[int, ...], Vector]]:
    """:func:`defects` of one bilinear map, ``omega_sign`` being its ``sign``: basis triples or pairs, with residuals."""
    return defects(algebra, kind, [t], sign=omega_sign)[0]
