"""xmodkit: finite crossed modules, their invariants, actors, and census."""

__version__ = "0.1.0"

from .catalog import GroupCatalog, catalog_group, import_catalog, load_catalog
from .census import (
    CensusError,
    CensusResult,
    FamilyReport,
    GroupFamilyReport,
    RawKeys,
    all_xmods,
    census,
    classify_families,
    group_census,
    load_census,
    reduce_by_isomorphism,
    save_census,
)
from .derivations import (
    actor,
    all_derivations,
    canonical_morphism,
    class_preserving_actor,
    class_preserving_auts,
    class_preserving_derivations,
    inner_actor,
    whitehead_group,
)
from .groups import (
    CapExceededError,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_group,
    alternating_group,
    automorphism_group,
    center,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    first_iso,
    group_from_generators,
    symmetric_group,
)
from .invariants import (
    center_xmod,
    derived_length,
    derived_subxmod,
    is_aspherical,
    is_nilpotent,
    is_simply_connected,
    is_solvable,
    is_stem_xmod,
    lower_central_series,
    middle_length_of_xmod,
    nilpotency_class,
    prop10_checks,
    rank_of_xmod,
    upper_central_series,
)
from .isoclinism import (
    IsoclinismWitness,
    commutator_pairing,
    hz_subxmod_isoclinism,
    is_isoclinic_group,
    is_isoclinic_xmod,
    validate_witness,
    xmod_family_partition,
)
from .values import LogValue, PairValue
from .xmods import (
    CrossedModule,
    SubXMod,
    XModMorphism,
    identity_xmod,
    inclusion_xmod,
    is_isomorphic_xmod,
    make_xmod,
    module_xmod,
    parse_xmod,
    quotient_xmod,
    serialize_xmod,
    sub_xmod,
    xmod_automorphism_group,
)
