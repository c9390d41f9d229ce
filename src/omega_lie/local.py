"""Local and 2-local membership analysis with exact certificates.

Given the ``SolutionSpace`` of a map kind (derivations, half-derivations,
...) or an affine matrix family, this module decides sampled local-membership
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
is applied, on sparse integer rows and points.  ``_walk`` is the one walk
over sample points: it reads a space's stored integer rows
(``SubspaceBasis.rows``), scales each point once (``linalg._integral``),
and yields ``W(x)`` from ``_span_at``, the one builder of ``W(x)``: a
``linalg._Echelon`` (the package's one elimination, fraction-free over
``Z``) built from the images ``S x``.  Scaling ``x`` or any ``S`` by a
nonzero rational changes neither ``W(x)`` nor whether ``S x`` lies in it,
so ranks, verdicts and escaping points are those of the rational
computation.  The transpose of the action, the functional ``q(B x)`` on
``vec(B)``, is written once in ``_point_rows``, in integers.  ``_closure``
is the one closure solve: it turns ``B x in span`` at every sample into one
homogeneous system for ``nullspace_of_sparse_rows``.  ``local_closure``
closes the space; ``affine_local_closure`` closes the family's hull
directions alone, because ``B x in base@x + span`` is
``(B - base) x in span`` and the base solves its own rows.  ``_escape`` is
the one point scan, finding where some ``S x`` leaves ``W(x)``, for both
``recheck_certification`` and ``is_local_member``.  Both first reduce the
integer rows they test (the candidate matrix scaled once) against the base's
stored rows (``linalg._reduce``), as members never leave ``W(x)``, and scan
only what lies outside; ``two_local_report`` reads the rank of ``W(e)`` at
each plan point, ``kernel_rank`` at one.  Each entry point refuses a space
whose ambient is not ``n**2``, and a space solved on another algebra.

Results are bitwise deterministic for a fixed :class:`SamplePlan`: samples
are the basis vectors, then all pairwise sums, then eight seeded random
vectors.  Samples only ever shrink the candidate, so certification is
one-sided: a collapse proves rigidity, while a non-collapse only reports a
witness for manual study (a degenerate locus could still cut the candidate
down).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Mapping, Optional, Sequence

from .algebra import OmegaAlgebra
from .linalg import (
    Matrix,
    ONE,
    SubspaceBasis,
    Vector,
    ZERO,
    _Echelon,
    _dense,
    _integral,
    _reduce,
    _to_sparse,
    frac,
    nullspace_of_sparse_rows,
    vector,
)
from .solvers import SolutionSpace, unvectorize_map, vectorize_map

DEFAULT_SEED = 0xC0FFEE
RANDOM_POINTS = 8  # seeded random points of every plan, after the basis and the pairwise sums
# Largest point count of a recheck; every point costs one evaluation per
# analysed space, so a larger count is refused up front.
MAX_RANDOM_COUNT = 10_000
_RANDOM_ENTRY_POOL = tuple(Fraction(v) for v in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sample-point plan: basis, pairwise sums, eight seeded randoms."""

    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:  # random.Random seeds with abs(seed), so -5 would draw the points of 5
            raise ValueError(f"seed must not be negative, got {self.seed}")

    def points(self, dim: int) -> tuple[Vector, ...]:
        basis = [tuple(ONE if j == i else ZERO for j in range(dim)) for i in range(dim)]
        sums = [
            tuple(ONE if k in (i, j) else ZERO for k in range(dim))
            for i in range(dim)
            for j in range(i + 1, dim)
        ]
        rng = random.Random(self.seed)
        randoms = [
            tuple(rng.choice(_RANDOM_ENTRY_POOL) for _ in range(dim))
            for _ in range(RANDOM_POINTS)
        ]
        return tuple(basis + sums + randoms)

    def fresh_points(self, dim: int, count: int) -> tuple[Vector, ...]:
        """Extra random rational points from an independent seeded stream."""
        rng = random.Random((self.seed << 4) ^ 1)
        return tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)) for _ in range(count)
        )


def _images(rows: Sequence[dict[int, int]], x: dict[int, int], n: int) -> list[dict[int, int]]:
    """``S @ x`` as a sparse row for each sparse vectorized ``n x n`` matrix ``S``; entry ``k*n + j`` is ``S[k][j]``.

    Only the nonzeros of ``S`` are visited, each against the sparse point
    ``x``, and zero entries of the image are dropped.  The sums start at
    ``0``, so integer rows and points give integer images.
    """
    images = []
    for s in rows:
        image: dict[int, int] = {}
        for c, entry in s.items():
            k, j = divmod(c, n)
            xj = x.get(j)
            if xj:
                image[k] = image.get(k, 0) + entry * xj
        images.append({k: v for k, v in image.items() if v})
    return images


def _span_at(rows: Sequence[dict[int, int]], x: dict[int, int], n: int) -> _Echelon:
    """``W(x)``, the echelon of the images ``S x``; ``rows`` and ``x`` are sparse integer multiples (``_walk``)."""
    return _Echelon(n, _images(rows, x, n))


def _walk(space, points: Iterable[Sequence], n: int) -> Iterator[tuple[Sequence, dict, _Echelon]]:
    """``(x, scaled x, W(x))`` at each of ``points``, with ``W(x)`` spanned by the images of the subspace ``space``.

    The images are those of its stored integer rows, at each point scaled
    once (``linalg._integral``).  Neither scaling changes ``W(x)`` or
    membership in it, so every rank and membership read off the echelon is
    that of the rational computation.  ``x`` is the point as given.
    """
    for x in points:
        if len(x) != n:
            raise ValueError(f"point must have length {n}")
        scaled_x = _integral(_to_sparse(x))
        yield x, scaled_x, _span_at(space.rows.values(), scaled_x, n)


def _point_rows(x: dict[int, int], span: _Echelon) -> list[dict[int, int]]:
    """The equations of ``B x in span`` on vec(B), in integers, for a sparse integer point ``x``.

    One row per generator ``q`` of ``span.kernel()``, which spans the
    annihilator of the row space: sum_{k,j} q_k x_j B[k][j] = 0.
    """
    n = span.ambient
    return [{k * n + j: q_k * xj for k, q_k in q.items() for j, xj in x.items()} for q in span.kernel()]


def _closure(n: int, samples: Sequence[Vector], generators: SubspaceBasis) -> SubspaceBasis:
    """The space ``{B : B x in generators@x at every sample}``, from one sparse solve.

    The space always contains ``generators``, so a generator outside it is a
    soundness violation.
    """
    rows = [row for _, x, span in _walk(generators, samples, n) for row in _point_rows(x, span)]
    space = nullspace_of_sparse_rows(n * n, rows)
    if not generators.is_subspace_of(space):
        raise AssertionError("soundness violation: the closed family escaped its own closure")
    return space


def _escape(space: SolutionSpace, tested: Sequence[dict[int, int]], points: Sequence[Vector]) -> Optional[Vector]:
    """First of ``points`` where some ``S x``, ``S`` in the sparse integer rows ``tested``, leaves ``W(x)``; ``None`` if none.

    The echelon of the space's images (``_walk``) answers membership exactly.
    """
    n = space.algebra.dim
    for x, scaled_x, span in _walk(space.space, points, n):
        if any(_reduce(span.rows, image) for image in _images(tested, scaled_x, n)):
            return x
    return None


def _dim(algebra: OmegaAlgebra, space: SolutionSpace) -> int:
    """``algebra.dim``, once ``space`` is known to be a space of ``n x n`` maps (ambient ``n**2``) on that algebra."""
    n = algebra.dim
    if space.algebra is not algebra and space.algebra != algebra:
        what = "dimensions differ" if space.algebra.dim != n else "differ"
        raise ValueError(f"space and algebra {what}: the space was solved on {space.algebra.name}, not {algebra.name}")
    if space.space.ambient_dim != n * n:
        raise ValueError(f"expected a space of {n} x {n} maps (ambient {n * n}), got ambient {space.space.ambient_dim}")
    return n


@dataclass(frozen=True)
class LocalClosureResult:
    base: SolutionSpace
    candidate: SubspaceBasis
    certified: bool
    samples_used: tuple[Vector, ...]
    witness: Optional[Matrix] = None


def local_closure(algebra: OmegaAlgebra, space: SolutionSpace, plan: Optional[SamplePlan] = None) -> LocalClosureResult:
    """Sampled upper bound on the local set of ``space``, with certificate.

    ``candidate`` is the set of matrices ``B`` with ``B x in W(x)`` at every
    sample; it always contains ``space`` and contains every sampled-local
    map, so ``certified`` (candidate == space) proves that every local map
    is already a member of the space.
    """
    plan = plan or SamplePlan()
    n = _dim(algebra, space)
    samples = plan.points(n)
    candidate = _closure(n, samples, space.space)
    witness = None
    if candidate != space.space:  # the candidate contains the base, so some row lies outside it
        pivot = next(p for p, row in candidate.rows.items() if _reduce(space.space.rows, row))
        witness = unvectorize_map(_dense(candidate.reduced_row(pivot), n * n), n)
    return LocalClosureResult(space, candidate, witness is None, samples, witness)


def recheck_certification(
    algebra: OmegaAlgebra,
    result: LocalClosureResult,
    points: int = 500,
    plan: Optional[SamplePlan] = None,
) -> bool:
    """Whether every candidate basis matrix ``B`` has ``B x in W(x)`` at ``points`` fresh random points.

    Used by the verification suite to back up ``certified == True``.  A row
    in the base's span stays in ``W(x)`` at every point, by linearity, so
    those rows are decided by containment alone; only the stored rows outside
    the span are scanned (``_escape``) on ``plan.fresh_points(n, points)``.  On a
    certified closure no row is outside, and no point is drawn.  ``points``
    must be an ``int`` (not a bool) in ``1..MAX_RANDOM_COUNT``: zero points
    would check nothing.
    """
    n = _dim(algebra, result.base)
    if isinstance(points, bool) or not isinstance(points, int) or not 1 <= points <= MAX_RANDOM_COUNT:
        raise ValueError(f"points must be between 1 and {MAX_RANDOM_COUNT}, got {points}")
    outside = [row for row in result.candidate.rows.values() if _reduce(result.base.space.rows, row)]
    if not outside:
        return True
    plan = plan or SamplePlan()
    return _escape(result.base, outside, plan.fresh_points(n, points)) is None


LOCAL_CERTIFIED = "LOCAL_CERTIFIED"
LOCAL_ON_SAMPLES = "LOCAL_ON_SAMPLES"
NOT_LOCAL = "NOT_LOCAL"


@dataclass(frozen=True)
class LocalMemberVerdict:
    status: str
    witness: Optional[Vector] = None  # point where membership fails


def is_local_member(
    algebra: OmegaAlgebra,
    space: SolutionSpace,
    candidate: Matrix,
    plan: Optional[SamplePlan] = None,
) -> LocalMemberVerdict:
    """Decide sampled local membership of one matrix against a space.

    ``NOT_LOCAL`` comes with a concrete witness point; membership in the
    base space upgrades the verdict to ``LOCAL_CERTIFIED`` (members of the
    space are local at every point, not just the samples).
    """
    plan = plan or SamplePlan()
    n = _dim(algebra, space)
    if candidate.shape != (n, n):
        raise ValueError("candidate matrix has wrong shape")
    row = _integral(_to_sparse(vectorize_map(candidate)))  # scaled once, for containment and the scan alike
    if not _reduce(space.space.rows, row):  # a member's image never leaves W(x)
        return LocalMemberVerdict(LOCAL_CERTIFIED)
    escape = _escape(space, [row], plan.points(n))
    if escape is not None:
        return LocalMemberVerdict(NOT_LOCAL, witness=escape)
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


def kernel_rank(space: SolutionSpace, e: Sequence) -> int:
    """Dimension of ``{S in space : S e = 0}``: ``space.rank`` minus the rank of ``W(e)``."""
    n = _dim(space.algebra, space)
    return space.rank - next(_walk(space.space, [vector(e)], n))[2].rank


RIGID = "RIGID"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class TwoLocalReport:
    verdict: str
    certificate: Optional[SeparatingCertificate]
    min_kernel_rank: Optional[int]
    kernel_ranks: tuple[tuple[Vector, int], ...] = ()


def two_local_report(
    algebra: OmegaAlgebra, space: SolutionSpace, plan: Optional[SamplePlan] = None
) -> TwoLocalReport:
    """Rigidity via a separating vector.

    ``RIGID``: some candidate point pins space members uniquely, hence any
    2-local map w.r.t. the space is globally a member.  ``INCONCLUSIVE``:
    no sampled point separates (for example when the space rank exceeds the
    algebra dimension); the kernel rank at each point scanned is reported.
    """
    plan = plan or SamplePlan()
    n = _dim(algebra, space)
    ranks = []
    for e, _, span in _walk(space.space, plan.points(n), n):
        rank = space.rank - span.rank
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

        ``(i, j)`` are 0-based matrix positions; one outside the matrix is
        refused with ``ValueError``.  Returns the constant Fraction, or
        ``None`` when the functional varies over the closure.
        """
        n = self.family.dim
        coeffs = {(i, j): frac(v) for (i, j), v in coefficients.items()}
        if outside := [(i, j) for i, j in coeffs if not (0 <= i < n and 0 <= j < n)]:
            raise ValueError(f"positions {outside} lie outside the {n} x {n} matrix")
        if not self.directions.annihilated_by({i * n + j: c for (i, j), c in coeffs.items()}):
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
    hull = family.hull_directions()
    directions = _closure(n, samples, hull)
    caveats = tuple(
        f"open condition (not enforced): {cond.describe()}" for cond in family.open_conditions
    ) + (
        "membership in the closure does not by itself guarantee invertibility at boundary parameters",
    )
    comparison = MATCHES_FAMILY_HULL if directions == hull else EXCEEDS_FAMILY_HULL
    return AffineClosureResult(
        family=family,
        particular=unvectorize_map(directions.reduced_from_last(vectorize_map(family.base)), n),
        directions=directions,
        comparison=comparison,
        caveats=caveats,
        samples_used=samples,
    )
