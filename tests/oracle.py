"""References kept apart from the library, for tests to compare against.

* The weighted Jacobi defects of an algebra, evaluated through
  ``algebra.bracket`` and ``algebra.omega_form`` on unit vectors at every
  basis triple, so ``check_axioms``, which reads the tables, can be
  compared against them.
* Biderivation and form-compatibility residual operators, built column by
  column from unit tensors through ``algebra.bracket``,
  ``algebra.omega_form`` and ``BilinearMap.apply`` only, never through the
  solvers' term lists, so the solver output can be compared against them.
* Plain dense Gauss-Jordan elimination, matrix-vector products and row
  combinations over ``Fraction``, sharing no code with ``omega_lie.linalg``,
  so the sparse elimination and ``Matrix.apply`` can be compared against
  textbook ones.
* A dense triple loop for a bilinear map given by its full table, with no
  zero skipped and no support read, so the sparse evaluators (``bracket``,
  ``omega_form``, ``BilinearMap.apply``, ``Matrix.apply``) can be compared
  against the definition.
"""

from fractions import Fraction
from typing import Optional

from omega_lie.algebra import BilinearMap
from omega_lie.linalg import Matrix, SubspaceBasis, nullspace_of_sparse_rows


def oracle_axiom_defects(algebra) -> list:
    """``[(triple, defect)]`` over the basis triples ``i < j < k`` (1-based)
    whose defect ``([[e_i,e_j],e_k] + cyclic) - (w(e_i,e_j) e_k + cyclic)``
    is nonzero, in lexicographic order."""
    n = algebra.dim
    basis = algebra.basis_vectors()
    found = []
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
                if any(defect):
                    found.append(((i + 1, j + 1, k + 1), defect))
    return found


def oracle_leibniz_defects(algebra, unknown) -> list:
    """``[(1-based indices, residual)]`` of the Leibniz identities on every basis tuple, in lexicographic order.

    For a ``Matrix`` the residual at ``(x, y)`` is ``D([x,y]) - [D(x), y] -
    [x, D(y)]``; for a ``BilinearMap`` it is, at ``(x, y, z)``, the residual of
    the first slot ``d([x,y], z) - [x, d(y,z)] - [d(x,z), y]`` followed by
    that of the second ``d(x, [y,z]) - [y, d(x,z)] - [d(x,y), z]``.  Only
    ``bracket``, ``Matrix.apply`` and ``BilinearMap.apply`` are called, on
    unit vectors.
    """
    n = algebra.dim
    e = algebra.basis_vectors()
    br, d = algebra.bracket, unknown.apply

    def minus(a, b, c):
        return [p - q - r for p, q, r in zip(a, b, c)]

    found = []
    if isinstance(unknown, Matrix):
        for i in range(n):
            for j in range(n):
                residual = minus(d(br(e[i], e[j])), br(d(e[i]), e[j]), br(e[i], d(e[j])))
                if any(residual):
                    found.append(((i + 1, j + 1), tuple(residual)))
        return found
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x, y, z = e[i], e[j], e[k]
                residual = minus(d(br(x, y), z), br(x, d(y, z)), br(d(x, z), y)) + minus(
                    d(x, br(y, z)), br(y, d(x, z)), br(d(x, y), z)
                )
                if any(residual):
                    found.append(((i + 1, j + 1, k + 1), tuple(residual)))
    return found


def _operator_rows(columns):
    """Sparse rows of the operator whose ``c``-th column is ``columns[c]``."""
    rows = [{} for _ in columns[0]]
    for c, column in enumerate(columns):
        for r, value in enumerate(column):
            if value:
                rows[r][c] = value
    return [row for row in rows if row]


def oracle_biderivation_rows(algebra, symmetry: Optional[int] = None) -> list:
    """Rows of the biderivation residual operator on vectorized tensors.

    The operator is built column by column from unit tensors, with the
    identities evaluated through the definition (bracket calls); a
    ``symmetry`` of +1 or -1 adds the equations ``d(x,y) = symmetry * d(y,x)``.
    """
    n = algebra.dim
    total = n ** 3
    basis = algebra.basis_vectors()
    columns = []
    for idx in range(total):
        i, rem = divmod(idx, n * n)
        j, k = divmod(rem, n)
        tensor = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        tensor[i][j][k] = Fraction(1)
        bm = BilinearMap(tuple(tuple(tuple(r) for r in p) for p in tensor))
        residuals: list[Fraction] = []
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    ea, eb, ec = basis[a], basis[b], basis[c]
                    residuals.extend(
                        x - y - z
                        for x, y, z in zip(
                            bm.apply(algebra.bracket(ea, eb), ec),
                            algebra.bracket(ea, bm.apply(eb, ec)),
                            algebra.bracket(bm.apply(ea, ec), eb),
                        )
                    )
                    residuals.extend(
                        x - y - z
                        for x, y, z in zip(
                            bm.apply(ea, algebra.bracket(eb, ec)),
                            algebra.bracket(eb, bm.apply(ea, ec)),
                            algebra.bracket(bm.apply(ea, eb), ec),
                        )
                    )
        if symmetry:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        residuals.append(tensor[a][b][c] - symmetry * tensor[b][a][c])
        columns.append(residuals)
    return _operator_rows(columns)


def oracle_biderivation_space(algebra, symmetry: Optional[int] = None) -> SubspaceBasis:
    """Brute-force biderivation space: the nullspace of :func:`oracle_biderivation_rows`."""
    return nullspace_of_sparse_rows(algebra.dim ** 3, oracle_biderivation_rows(algebra, symmetry))[0]


def oracle_form_compatible_rows(algebra, sign: Fraction) -> list:
    """Rows of the operator whose nullspace is the bilinear maps ``d`` with,
    on every basis triple ``(x, y, z)``,

    ``w(d(x,y), z) + sign * w(y, d(x,z)) = 0`` and
    ``w(d(x,y), z) + sign * w(x, d(z,y)) = 0``.

    Stacked with the biderivation rows they define the omega-biderivation
    space; written out here through ``omega_form`` and ``BilinearMap.apply``.
    """
    n = algebra.dim
    total = n ** 3
    basis = algebra.basis_vectors()
    w = algebra.omega_form
    columns = []
    for idx in range(total):
        tensor = [Fraction(0)] * total
        tensor[idx] = Fraction(1)
        d = BilinearMap(
            tuple(tuple(tuple(tensor[(i * n + j) * n : (i * n + j + 1) * n]) for j in range(n)) for i in range(n))
        )
        residuals: list[Fraction] = []
        for ex in basis:
            for ey in basis:
                for ez in basis:
                    residuals.append(w(d.apply(ex, ey), ez) + sign * w(ey, d.apply(ex, ez)))
                    residuals.append(w(d.apply(ex, ey), ez) + sign * w(ex, d.apply(ez, ey)))
        columns.append(residuals)
    return _operator_rows(columns)


def triple_loop(tensor, x, y, width: int) -> tuple:
    """``sum_{i,j,k} x[i] y[j] tensor[i][j][k] e_k`` for ``k < width``, every term computed in ``Fraction``."""
    out = [Fraction(0)] * width
    for i in range(len(x)):
        for j in range(len(y)):
            for k in range(width):
                out[k] += Fraction(x[i]) * Fraction(y[j]) * Fraction(tensor[i][j][k])
    return tuple(out)


def matvec(rows, v) -> tuple:
    """``(M v)_i = sum_j M[i][j] v[j]`` for a matrix given by its rows."""
    return tuple(sum((Fraction(a) * Fraction(b) for a, b in zip(row, v)), Fraction(0)) for row in rows)


def row_combination(x, rows, ncols: int) -> tuple:
    """``sum_i x[i] rows[i]``, term by term, with no zero skipped."""
    total = [Fraction(0)] * ncols
    for coeff, row in zip(x, rows):
        total = [t + Fraction(coeff) * Fraction(v) for t, v in zip(total, row)]
    return tuple(total)


def gauss_jordan(rows, ncols: int) -> tuple[list[tuple], tuple[int, ...]]:
    """Textbook dense reduced row echelon form: ``(nonzero rows, pivot columns)``.

    Each column in turn takes the first remaining row that is nonzero there
    as its pivot row, scales it to a leading 1 and clears the column in
    every other row.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return [tuple(row) for row in m[: len(pivots)]], tuple(pivots)


def dense_kernel(rows, ncols: int) -> tuple:
    """The reduced row echelon basis of ``{v : M v = 0}``, by :func:`gauss_jordan` alone.

    Each free column ``f`` of the echelon form gives the solution with 1 at
    ``f``, 0 at the other free columns and minus the pivot rows' entries in
    column ``f`` at the pivots; the echelon form of those vectors is the
    unique basis the library stores.
    """
    reduced, pivots = gauss_jordan(rows, ncols)
    kernel = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        kernel.append(v)
    return tuple(gauss_jordan(kernel, ncols)[0])


def realized(family, values) -> Matrix:
    """The member ``base + sum_i values[t_i] * directions[i]`` of an affine family."""
    n = family.dim
    out = [list(row) for row in family.base.rows]
    for name, direction in zip(family.parameter_names, family.directions):
        coeff = Fraction(values.get(name, 0))
        for i in range(n):
            for j in range(n):
                out[i][j] += coeff * direction.rows[i][j]
    return Matrix.from_rows(out, ncols=n)
