"""Exact-arithmetic weighted projective invariants of colored point configurations."""

from .configuration import (
    Configuration,
    ConfigurationError,
    DegreeReport,
    ProjPoint,
    RTuple,
    Subspace,
    build_configuration,
    configuration_to_json,
    load_configuration,
    parse_configuration,
    validate_h,
)
from .invariant import (
    BasisChoice,
    InvariantValue,
    LinearMorphism,
    MorphismError,
    NotHConfigurationError,
    apply_morphism,
    bracket,
    eves_invariant,
    eves_invariant_with_choices,
)
from .numtheory import (
    ext_gcd,
    integer_nth_root,
    rational_nth_roots,
)
from .reconstruct import (
    CompareReport,
    check_reconstruction_identity,
    compare,
    restrict_pair,
    unit_weight_expansion,
)
from .wps import (
    FieldKind,
    Weight,
    WeightedPoint,
    is_reconstructible,
    nonreconstructible_witness,
    product_map,
    projections_agree,
    reduce_weight,
    wps_equivalent,
)

__version__ = "0.1.0"
