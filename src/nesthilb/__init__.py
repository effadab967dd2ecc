"""Exact-arithmetic localization invariants of nested Hilbert schemes of
points on toric surfaces, with closed-form, universality, and
vertex-operator cross-checks."""

from .characters import (
    DegenerateSpecializationError,
    LocalizationError,
    TrivialWeightError,
    block_character,
    block_character_resolution,
    chern_poly,
    euler_class,
    trivial_multiplicity,
    virtual_tangent_character,
    virtual_tangent_character_resolution,
)
from .engine import (
    InvariantRecord,
    SpecializationDisagreement,
    closed_form_series,
    cobordism_generators,
    enumerate_global_fixed_points,
    enumerate_product_fixed_points,
    gottsche_fixed_point_counts,
    gottsche_product_coefficients,
    invariant_record,
    multi_bundle_invariant,
    predicted_series,
    universal_series_fit,
    z_nest_series,
)
from .fock import (
    Lattice,
    apply_alpha,
    gamma_commutation_check,
    gamma_operator,
    trace_matches_product,
    trace_product_series,
    w_trace,
)
from .laurent import LaurentPoly
from .partitions import (
    EMPTY,
    NestedPair,
    Partition,
    enumerate_nested_pairs,
    enumerate_partitions,
    staircase_numerator,
)
from .series import GradedPoly, Series2, binomial_factor_series, product_formula
from .toric import (
    ChernNumbers,
    EquivariantLineBundle,
    ToricError,
    ToricSurface,
    builtin_surface,
    chern_numbers,
    intersection_number,
    load_surface_config,
)

__version__ = "0.1.0"
