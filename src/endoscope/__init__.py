"""Exact-arithmetic endo-structure invariants of bound quiver representations.

The package computes endosocles and endosocle series of direct sums,
radical-of-category power profiles, and finite matrix subgroups for
representations of bound quiver algebras, with the Kronecker example
families built in.  All arithmetic is exact, over the rationals by
default or over a prime field GF(p).
"""

from .linalg import (
    LinalgError,
    Mat,
    PrimeField,
    QQ,
    Scalar,
    Subspace,
    assemble,
    field_from_name,
    intersect,
    intersect_all,
    invert,
    kernel_basis,
    rref,
    scalar_from_str,
    scalar_to_str,
    solve,
)
from .quiver import (
    AlgebraElement,
    AlgebraPresentation,
    Arrow,
    Path,
    Quiver,
    QuiverError,
    act,
    kronecker,
    multiply,
    trivial_path,
)
from .reps import (
    INFINITY,
    Morphism,
    Representation,
    RepresentationError,
    SubspaceFamily,
    direct_sum,
    dual,
    kronecker_preinjective,
    kronecker_preinjective_right,
    kronecker_preprojective,
    kronecker_regular,
    simple,
    socle,
    sub_from_family,
    sub_inclusion,
    zero_representation,
)
from .homs import (
    DecompositionInconclusive,
    EndoRing,
    HomalgError,
    HomSpace,
    IsoCertificate,
    LocalityUnverified,
    UnsupportedFieldError,
    are_isomorphic,
    end_ring,
    hom_basis,
    hom_dim,
    indecompose,
    inverse_morphism,
    is_isomorphism,
    is_local,
    noniso_subspace,
    require_local,
)
from .endosocle import (
    EndosocleReport,
    EndostructureError,
    SeriesReport,
    SeriesTerm,
    endosocle,
    endosocle_series,
    family_endosocle,
    power_endosocle,
    relative_endosocle_series,
)
from .radical import (
    HaradaSaiReport,
    RadicalError,
    RadicalProfile,
    WitnessChain,
    harada_sai_check,
    radical_profile,
    right_witness,
)
from .matsub import (
    MatrixSubgroupError,
    PointedMatrix,
    check_endo_invariant,
    evaluate,
    image_subgroup,
    meet,
    random_pointed_matrix,
)
from .harness import (
    Family,
    FamilySpec,
    HarnessError,
    length_bounded_kronecker_family,
    suite_names,
    sweep,
    transversal,
    two_route_endosocle_agree,
    verify,
)

__version__ = "0.1.0"
