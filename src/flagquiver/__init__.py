"""Quiver representations, simplicity and stability for tangent bundles
on ADE flag varieties, in exact arithmetic."""

from .errors import (
    BudgetExceeded,
    ComponentVerificationFailed,
    EmptySigma,
    FlagQuiverError,
    MismatchedSystem,
    ModeMismatch,
    NotAmple,
    NotLeviTrivialDeterminant,
    NotMultiplicityFree,
    NotQuadratic,
    NotTwoParameter,
    OppositeRoots,
    UnsupportedParabolic,
    UnsupportedType,
)
from .parabolic import (
    LeviComponent,
    ParabolicData,
    borel,
    build_parabolic,
    levi_components,
)
from .polynomials import IntPoly, multinomial
from .quiver import (
    FULL,
    REDUCED,
    Arrow,
    FlatnessResult,
    InducedQuiver,
    QuiverRep,
    RelationInstance,
    relation_instances,
    to_dot,
    verify_flatness,
)
from .rootsys import (
    RootSystemData,
    Weight,
    build_root_system,
    chevalley_constant,
    coroot_pairing,
    h0_dimension,
    is_dominant,
)
from .schubert import (
    DEFAULT_BUDGET,
    WeylElement,
    coset_count,
    intersection_number,
    intersection_polynomial,
    minimal_coset_reps,
    volume_polynomial,
)
from .stability import (
    BOUNDARY,
    STABLE,
    UNSTABLE,
    Boundary2D,
    ConeInequality,
    DegreeCone,
    EquivalenceReport,
    KingVerdict,
    SigmaCharacter,
    Surd,
    boundary_2d,
    c1_picard,
    degree_cone,
    degree_membership,
    equivalence_check,
    is_sigma_semistable,
    sample_lines,
    sigma_from_polarization,
    stability_cone,
)
from .tangentrep import (
    SimplicityReport,
    TangentRep,
    VERDICT_INCONCLUSIVE,
    VERDICT_SIMPLE,
    VERDICT_WEAKLY_SIMPLE_ONLY,
    closed_subsets,
    dominant_sum_check,
    hom_dimension,
    simplicity_report,
    structure_report,
    tangent_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
