"""Exact-arithmetic structure theory for finite-dimensional omega-Lie algebras.

The package represents an algebra by rational structure constants together
with a skew bilinear form, and computes, with no floating point anywhere:

* canonical solution spaces of the linear definitional identities
  (derivations, skew-form-compatible derivations, centroid, commuting and
  anticommuting maps, delta-derivations, biderivations and their symmetric,
  skew and form-compatible variants);
* local and 2-local membership analysis with soundness certificates
  (sampled local closures, separating vectors, affine matrix families);
* a catalog of the classified 3- and 4-dimensional algebras plus semisimple
  Lie fixtures, with reference values and a verification suite.
"""

from .algebra import (
    AlgebraFormatError,
    AxiomReport,
    BilinearMap,
    LinearMap,
    OmegaAlgebra,
    OmegaKillingWarning,
    adjoint,
    bracket_tensor,
    center,
    check_axioms,
    content_hash,
    direct_sum,
    dumps,
    from_document,
    is_anti_automorphism,
    is_automorphism,
    is_semisimple_lie,
    killing_form,
    loads,
    to_document,
)
from .catalog import (
    CatalogEntry,
    ExcludedParameterError,
    ExpectedResults,
    UnknownAlgebraError,
    expected,
    get,
    keys,
    list_entries,
)
from .linalg import (
    Matrix,
    SubspaceBasis,
    frac,
    nullspace,
    rref,
)
from .local import (
    AffineCondition,
    AffineFamily,
    AffineClosureResult,
    LocalClosureResult,
    SamplePlan,
    SeparatingCertificate,
    TwoLocalReport,
    affine_local_closure,
    evaluation_subspace,
    is_local_member,
    kernel_rank,
    local_closure,
    recheck_certification,
    two_local_report,
)
from .solvers import (
    MapSpace,
    TensorSpace,
    anticommuting_maps,
    biderivations,
    centroid,
    commuting_maps,
    delta_derivations,
    derivations,
    half_derivations,
    map_defects,
    omega_biderivations,
    omega_derivations,
    skew_biderivations,
    split_biderivation,
    symmetric_biderivations,
    tensor_defects,
)

__version__ = "0.1.0"
