"""Logarithmic derivation modules, graded free resolutions, Betti numbers
and Hilbert-Poincare series over exact rationals."""

from .poly import (
    MonomialOrder,
    NonPositiveWeightError,
    NotQuasiHomogeneous,
    ParseError,
    Polynomial,
    ZeroPolynomialError,
    format_poly,
    infer_weights,
    parse_poly,
    partial_derivative,
    polynomial_gcd,
    squarefree_test,
    u_degree,
)
from .groebner import (
    FreeModule,
    GroebnerBasis,
    buchberger,
    dehomogenize_vector,
    divide,
    homogenize_vector,
    intersect,
    module_equal,
    module_quotient,
    normal_form,
    syzygies,
)
from .derivmod import (
    FactoredPolynomial,
    GradedContext,
    LogModule,
    SaitoCertificate,
    annihilator_check,
    apply_derivation,
    euler_derivation,
    format_derivation,
    generalized_log_module,
    is_graded_submodule,
    log_derivations,
    parse_derivation,
    saito_check,
)
from .resolution import (
    BettiTable,
    ModuleMap,
    Resolution,
    alternating_degree_sum,
    alternating_rank_sum,
    betti_numbers,
    certify_exact,
    free_resolution,
    minimize,
    pad_with_trivial_pair,
)
from .hilbert import (
    HPSeries,
    chi,
    chi_additivity_check,
    dimension_via_pole,
    format_series,
    hp_bruteforce,
    hp_expand,
    hp_free,
    hp_from_resolution,
    hp_quotient,
    verify_coprime_sum,
    verify_degree_identity,
)
from .homog import (
    HomogenizedComplex,
    chi_homogenized,
    homogenize_module,
    homogenize_resolution,
    verify_lemma_intersection,
)

__all__ = [name for name in dir() if not name.startswith("_")]
