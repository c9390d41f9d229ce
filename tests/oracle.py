"""Brute-force reference for biderivation spaces, kept apart from the library.

It evaluates the defining identities through ``algebra.bracket``,
``algebra.omega_form`` and ``BilinearMap.apply`` only, never through the
solvers' term lists, so the solver output can be compared against it.
"""

from fractions import Fraction
from typing import Optional

from omega_lie.algebra import BilinearMap
from omega_lie.linalg import Matrix, SubspaceBasis, nullspace


def oracle_biderivation_space(algebra, symmetry: Optional[int] = None) -> SubspaceBasis:
    """Brute-force oracle for biderivation spaces, independent of the solver.

    Builds the residual operator column by column from unit tensors, with the
    identities evaluated through the definition (bracket calls), and returns
    the nullspace.  Used by tests to cross-check the assembled systems.
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
    rows = len(columns[0])
    m = Matrix.from_rows([[columns[c][r] for c in range(total)] for r in range(rows)], ncols=total)
    return nullspace(m)


def oracle_form_compatible_space(algebra, sign: Fraction) -> SubspaceBasis:
    """Bilinear maps ``d`` with, on every basis triple ``(x, y, z)``,

    ``w(d(x,y), z) + sign * w(y, d(x,z)) = 0`` and
    ``w(d(x,y), z) + sign * w(x, d(z,y)) = 0``.

    Intersected with the biderivation space this is the omega-biderivation
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
    rows = len(columns[0])
    m = Matrix.from_rows([[columns[c][r] for c in range(total)] for r in range(rows)], ncols=total)
    return nullspace(m)
