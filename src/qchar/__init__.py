"""Exact q-series arithmetic and dual-route verification of series-product identities.

The package computes the same formal power series two independent ways --
as a finite product of rescaled Euler products, and as a lattice sum over a
positive-definite quadratic exponent function -- and checks the expansions
against each other coefficient by coefficient, to any requested truncation
order, in exact integer arithmetic.
"""

from .qseries import (
    Mismatch,
    ProductSpec,
    QSeries,
    VerifyReport,
    as_rational,
    format_rational,
    normalize_shift,
    phi_series,
    product_series,
    render,
    series_add,
    series_compare,
    series_inv,
    series_mul,
    series_neg,
    series_pow,
    series_sub,
)
from .quadform import (
    LatticeSum,
    WEIGHT_ALTERNATING,
    WEIGHT_FOUR_K_PLUS_ONE,
    kappa_eval,
    lattice_enumerate,
    lattice_min_exponent,
    lattice_sum_series,
)
from .affine import (
    PartitionData,
    SpecializedCharacter,
    compute_N,
    compute_s,
    fundamental_weight_coeffs,
    partitions,
    specialized_character,
    specialized_character_series,
    trace_series,
    verify_proposition,
)
from .identities import (
    CLASSICAL_NAMES,
    IdentitySpec,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL_NAMES",
    "IdentitySpec",
    "LatticeSum",
    "PartitionData",
    "SpecializedCharacter",
    "class1_identity",
    "class2_identity",
    "classical_identity",
    "compute_N",
    "compute_s",
    "fundamental_weight_coeffs",
    "partitions",
    "specialized_character",
    "specialized_character_series",
    "trace_series",
    "verify_identity",
    "verify_proposition",
    "Mismatch",
    "ProductSpec",
    "QSeries",
    "VerifyReport",
    "WEIGHT_ALTERNATING",
    "WEIGHT_FOUR_K_PLUS_ONE",
    "kappa_eval",
    "lattice_enumerate",
    "lattice_min_exponent",
    "lattice_sum_series",
    "as_rational",
    "format_rational",
    "normalize_shift",
    "phi_series",
    "product_series",
    "render",
    "series_add",
    "series_compare",
    "series_inv",
    "series_mul",
    "series_neg",
    "series_pow",
    "series_sub",
    "__version__",
]
