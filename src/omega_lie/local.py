"""Local and 2-local membership analysis with exact certificates.

Given a solution space of matrices (derivations, half-derivations, ...) or
an affine matrix family, this module decides sampled local-membership
questions:

* ``local_closure`` intersects, over a deterministic set of sample points
  ``x``, the linear constraint ``B x in W(x)`` where ``W(x)`` is the set of
  values the space can attain at ``x``.  The result always contains the
  base space, so when the intersection collapses onto the base the collapse
  is a sound certificate: every sampled-local map already lies in the base.
* ``two_local_report`` looks for a point where evaluation is injective on
  the space; at such a point any 2-local map is pinned to a single member
  of the space, which is the rigidity argument it encodes.
* ``affine_local_closure`` runs the same per-point analysis against an
  affine family (base matrix plus parameter directions), as used for the
  structure-preserving matrix families.

Throughout this module a stored matrix ``S`` acts on a point by the plain
column product ``S @ x``, reading index ``k*n + j`` of its vectorized form
as row ``k``, column ``j``.  ``_images`` is the one place where that action
is applied: space elements, single candidate matrices and affine families
are all evaluated through it.  Its transpose, the functional ``q(B x)`` on
``vec(B)``, is written once in ``_point_rows``.  ``_closure`` is the one
closure solve: it turns ``B x in span`` at every sample into one homogeneous
system for ``nullspace_of_sparse_rows``.  ``local_closure`` closes the
space's basis; ``affine_local_closure`` closes the family's directions
alone, because ``B x in base@x + span`` is ``(B - base) x in span`` and the
base solves its own rows.  ``_escape`` is the one point scan, finding where
some ``S x`` leaves ``W(x)``, for both ``recheck_certification`` and
``is_local_member``.

Results are bitwise deterministic for a fixed :class:`SamplePlan`: samples
are the basis vectors, then all pairwise sums, then seeded random vectors.
Samples only ever shrink the candidate, so certification is one-sided: a
collapse proves rigidity, while a non-collapse only reports a witness for
manual study (a degenerate locus could still cut the candidate down).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Mapping, Optional, Sequence

from .algebra import OmegaAlgebra
from .linalg import (
    Matrix,
    SparseRow,
    SubspaceBasis,
    Vector,
    ZERO,
    frac,
    nullspace_of_sparse_rows,
    vector,
)
from .solvers import MapSpace, unvectorize_map, vectorize_map

DEFAULT_SEED = 0xC0FFEE
DEFAULT_RANDOM_COUNT = 8
# Largest random_count a plan accepts; every point costs one evaluation
# subspace per analysed space, so a larger count is refused up front.
MAX_RANDOM_COUNT = 10_000
_RANDOM_ENTRY_POOL = tuple(Fraction(v) for v in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample-point plan: basis, pairwise sums, seeded randoms."""

    seed: int = DEFAULT_SEED
    random_count: int = DEFAULT_RANDOM_COUNT

    def __post_init__(self) -> None:
        if not 0 <= self.random_count <= MAX_RANDOM_COUNT:
            raise ValueError(f"random_count must be between 0 and {MAX_RANDOM_COUNT}, got {self.random_count}")

    def points(self, dim: int) -> tuple[Vector, ...]:
        basis = [
            tuple(Fraction(1) if j == i else ZERO for j in range(dim)) for i in range(dim)
        ]
        sums = [
            tuple(a + b for a, b in zip(basis[i], basis[j]))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        rng = random.Random(self.seed)
        randoms = [
            tuple(rng.choice(_RANDOM_ENTRY_POOL) for _ in range(dim))
            for _ in range(self.random_count)
        ]
        return tuple(basis + sums + randoms)

    def fresh_points(self, dim: int, count: int) -> tuple[Vector, ...]:
        """Extra random rational points from an independent seeded stream."""
        rng = random.Random((self.seed << 4) ^ 1)
        pts = []
        for _ in range(count):
            pts.append(
                tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)
                )
            )
        return tuple(pts)


def _images(vectors: Sequence[Vector], x: Vector, n: int) -> list[Vector]:
    """``S @ x`` for each vectorized ``n x n`` matrix ``S``; entry ``k*n + j`` is ``S[k][j]``.

    Zero entries of ``S`` and of ``x`` are skipped, so a sparse basis costs
    only its nonzeros.
    """
    if len(x) != n:
        raise ValueError(f"point must have length {n}")
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    images = []
    for s in vectors:
        image = []
        for k in range(0, n * n, n):
            acc = ZERO
            for j, xj in support:
                entry = s[k + j]
                if entry:
                    acc += entry * xj
            image.append(acc)
        images.append(tuple(image))
    return images


def evaluation_subspace(space: MapSpace, x: Sequence) -> SubspaceBasis:
    """Attainable values ``{S x : S in space}`` at one point ``x``."""
    n = space.algebra.dim
    return SubspaceBasis.from_generators(n, _images(space.space.basis, vector(x), n))


def _point_rows(x: Vector, span: SubspaceBasis) -> list[SparseRow]:
    """The equations of ``B x in span`` on vec(B).

    One row per functional ``q`` of ``span.annihilator()``:
    sum_{k,j} q_k x_j B[k][j] = 0.
    """
    n = len(x)
    return [
        {k * n + j: q[k] * x[j] for k in range(n) if q[k] for j in range(n) if x[j]}
        for q in span.annihilator().basis
    ]


def _closure(n: int, samples: Sequence[Vector], generators: Sequence[Vector]) -> SubspaceBasis:
    """The space ``{B : B x in span(generators@x) at every sample}``, from one sparse solve.

    The space always contains ``span(generators)``, so a generator outside
    it is a soundness violation.
    """
    rows: list[SparseRow] = []
    for x in samples:
        rows.extend(_point_rows(x, SubspaceBasis.from_generators(n, _images(generators, x, n))))
    space = nullspace_of_sparse_rows(n * n, rows)[0]
    if not space.contains_all(generators):
        raise AssertionError("soundness violation: the closed family escaped its own closure")
    return space


def _escape(space: MapSpace, vectors: Sequence[Vector], points: Sequence[Vector]) -> Optional[Vector]:
    """First of ``points`` where some ``S x``, ``S`` in ``vectors``, leaves ``W(x)``; ``None`` if none."""
    n = space.algebra.dim
    for x in points:
        if not evaluation_subspace(space, x).contains_all(_images(vectors, x, n)):
            return x
    return None


@dataclass(frozen=True)
class LocalClosureResult:
    base: MapSpace
    candidate: SubspaceBasis
    certified: bool
    samples_used: tuple[Vector, ...]
    witness: Optional[Matrix] = None


def local_closure(algebra: OmegaAlgebra, space: MapSpace, plan: Optional[SamplePlan] = None) -> LocalClosureResult:
    """Sampled upper bound on the local set of ``space``, with certificate.

    ``candidate`` is the set of matrices ``B`` with ``B x in W(x)`` at every
    sample; it always contains ``space`` and contains every sampled-local
    map, so ``certified`` (candidate == space) proves that every local map
    is already a member of the space.
    """
    plan = plan or SamplePlan()
    n = algebra.dim
    if space.algebra.dim != n:
        raise ValueError("space and algebra dimensions differ")
    samples = plan.points(n)
    candidate = _closure(n, samples, space.space.basis)
    witness = None
    if candidate != space.space:  # the candidate contains the base, so some row lies outside it
        witness = unvectorize_map(next(r for r in candidate.basis if not space.space.contains(r)), n)
    return LocalClosureResult(space, candidate, witness is None, samples, witness)


def recheck_certification(
    algebra: OmegaAlgebra,
    result: LocalClosureResult,
    points: int = 500,
    plan: Optional[SamplePlan] = None,
) -> bool:
    """Independent spot check of a certified closure on fresh random points.

    Every candidate basis matrix must satisfy ``B x in W(x)`` at each fresh
    point; used by the verification suite to back up ``certified == True``.
    """
    plan = plan or SamplePlan()
    return _escape(result.base, result.candidate.basis, plan.fresh_points(algebra.dim, points)) is None


LOCAL_CERTIFIED = "LOCAL_CERTIFIED"
LOCAL_ON_SAMPLES = "LOCAL_ON_SAMPLES"
NOT_LOCAL = "NOT_LOCAL"


@dataclass(frozen=True)
class LocalMemberVerdict:
    status: str
    witness: Optional[Vector] = None  # point where membership fails


def is_local_member(
    algebra: OmegaAlgebra,
    space: MapSpace,
    candidate: Matrix,
    plan: Optional[SamplePlan] = None,
) -> LocalMemberVerdict:
    """Decide sampled local membership of one matrix against a space.

    ``NOT_LOCAL`` comes with a concrete witness point; membership in the
    base space upgrades the verdict to ``LOCAL_CERTIFIED`` (members of the
    space are local at every point, not just the samples).
    """
    plan = plan or SamplePlan()
    n = algebra.dim
    if candidate.shape != (n, n):
        raise ValueError("candidate matrix has wrong shape")
    candidate_vec = vectorize_map(candidate)
    escape = _escape(space, [candidate_vec], plan.points(n))
    if escape is not None:
        return LocalMemberVerdict(NOT_LOCAL, witness=escape)
    if space.space.contains(candidate_vec):
        return LocalMemberVerdict(LOCAL_CERTIFIED)
    return LocalMemberVerdict(LOCAL_ON_SAMPLES)


@dataclass(frozen=True)
class SeparatingCertificate:
    """A point where evaluation is injective on the space (kernel rank 0)."""

    point: Vector
    kernel_rank: ClassVar[int] = 0
    conclusion: ClassVar[str] = (
        "evaluation at this point is injective on the space, so any map agreeing "
        "pointwise with space members is a single member globally"
    )


def kernel_rank(space: MapSpace, e: Sequence) -> int:
    """Dimension of ``{S in space : S e = 0}``."""
    return space.rank - evaluation_subspace(space, e).rank


RIGID = "RIGID"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TwoLocalReport:
    verdict: str
    certificate: Optional[SeparatingCertificate]
    min_kernel_rank: Optional[int]
    kernel_ranks: tuple[tuple[Vector, int], ...] = ()


def two_local_report(
    algebra: OmegaAlgebra, space: MapSpace, plan: Optional[SamplePlan] = None
) -> TwoLocalReport:
    """Rigidity via a separating vector.

    ``RIGID``: some candidate point pins space members uniquely, hence any
    2-local map w.r.t. the space is globally a member.  ``INCONCLUSIVE``:
    no sampled point separates (for example when the space rank exceeds the
    algebra dimension); the kernel rank at each point scanned is reported.
    """
    plan = plan or SamplePlan()
    ranks = []
    for e in plan.points(algebra.dim):
        rank = kernel_rank(space, e)
        if rank == 0:
            return TwoLocalReport(RIGID, SeparatingCertificate(e), 0)
        ranks.append((e, rank))
    return TwoLocalReport(INCONCLUSIVE, None, min((r for _, r in ranks), default=None), tuple(ranks))


# -- affine families ----------------------------------------------------------


@dataclass(frozen=True)
class AffineCondition:
    """An affine functional of the family parameters that must stay nonzero."""

    constant: Fraction
    coefficients: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, constant, coefficients: Mapping[str, object]) -> "AffineCondition":
        return cls(frac(constant), tuple(sorted((k, frac(v)) for k, v in coefficients.items())))

    def describe(self) -> str:
        parts = [str(self.constant)] if self.constant else []
        for name, coeff in self.coefficients:
            if coeff == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff}*{name}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} != 0"


@dataclass(frozen=True)
class AffineFamily:
    """Matrix family ``base + sum_i t_i * directions[i]`` with open conditions."""

    base: Matrix
    directions: tuple[Matrix, ...]
    open_conditions: tuple[AffineCondition, ...] = ()
    parameter_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = self.base.nrows
        if self.base.ncols != n:
            raise ValueError("affine family base must be square")
        for d in self.directions:
            if d.shape != (n, n):
                raise ValueError("affine family directions must match the base shape")
        if not self.parameter_names:
            object.__setattr__(
                self, "parameter_names", tuple(f"t{i+1}" for i in range(len(self.directions)))
            )
        elif len(self.parameter_names) != len(self.directions):
            raise ValueError("one parameter name per direction required")
        names = self.parameter_names
        if not all(isinstance(name, str) for name in names) or len(set(names)) != len(names):
            raise ValueError(f"parameter names must be distinct strings, got {list(names)}")
        for cond in self.open_conditions:
            undeclared = [name for name, _ in cond.coefficients if name not in names]
            if undeclared:
                raise ValueError(f"open condition {cond.describe()} names undeclared parameters {undeclared}")

    @property
    def dim(self) -> int:
        return self.base.nrows

    def realized(self, values: Mapping[str, object]) -> Matrix:
        out = self.base
        for name, direction in zip(self.parameter_names, self.directions):
            coeff = frac(values.get(name, 0))
            if coeff:
                out = out.add(direction.scale(coeff))
        return out

    def hull_directions(self) -> SubspaceBasis:
        n = self.dim
        return SubspaceBasis.from_generators(n * n, [vectorize_map(d) for d in self.directions])


MATCHES_FAMILY_HULL = "MATCHES_FAMILY_HULL"
EXCEEDS_FAMILY_HULL = "EXCEEDS_FAMILY_HULL"


@dataclass(frozen=True)
class AffineClosureResult:
    family: AffineFamily
    particular: Matrix
    directions: SubspaceBasis
    comparison: str
    caveats: tuple[str, ...]
    samples_used: tuple[Vector, ...]

    @property
    def matches_family_hull(self) -> bool:
        return self.comparison == MATCHES_FAMILY_HULL

    def functional_value(self, coefficients: Mapping[tuple[int, int], object]):
        """Value of ``sum coeff[i,j] * B[i][j]`` over the closure, if constant.

        ``(i, j)`` are 0-based matrix positions.  Returns the constant
        Fraction, or ``None`` when the functional varies over the closure.
        """
        n = self.family.dim
        coeffs = {(i, j): frac(v) for (i, j), v in coefficients.items()}
        for row in self.directions.basis:
            drift = sum((c * row[i * n + j] for (i, j), c in coeffs.items()), ZERO)
            if drift:
                return None
        return sum((c * self.particular.rows[i][j] for (i, j), c in coeffs.items()), ZERO)


def affine_local_closure(
    algebra: OmegaAlgebra, family: AffineFamily, plan: Optional[SamplePlan] = None
) -> AffineClosureResult:
    """All matrices pointwise-attainable by the family at every sample.

    The set ``{B : for all sampled x, B x in base@x + span(direction@x)}``
    is ``base`` plus the closure of the directions alone; its particular
    member is ``base`` with every free coordinate of that closure's system
    set to zero.  The closure is compared against the family's own hull
    directions.  It always contains them (each direction ``D`` has ``D x``
    in the span), so it either matches the hull or exceeds it.
    Open conditions are surfaced as caveats but not enforced: they cut out
    parameter loci, not directions of the hull.
    """
    plan = plan or SamplePlan()
    n = algebra.dim
    if family.dim != n:
        raise ValueError("family and algebra dimensions differ")
    samples = plan.points(n)
    directions = _closure(n, samples, [vectorize_map(d) for d in family.directions])
    caveats = tuple(
        f"open condition (not enforced): {cond.describe()}" for cond in family.open_conditions
    ) + (
        "membership in the closure does not by itself guarantee invertibility at boundary parameters",
    )
    comparison = MATCHES_FAMILY_HULL if directions == family.hull_directions() else EXCEEDS_FAMILY_HULL
    return AffineClosureResult(
        family=family,
        particular=unvectorize_map(directions.reduced_from_last(vectorize_map(family.base)), n),
        directions=directions,
        comparison=comparison,
        caveats=caveats,
        samples_used=samples,
    )
