"""Twisted Selberg and Ruelle zeta functions from length spectrum data.

The library evaluates the convergent log series of the zeta functions of a
compact hyperbolic manifold of odd dimension, factorizes the Ruelle zeta
through Selberg factors, computes geometric heat and resolvent traces, and
continues the zeta log derivative through its poles from eigenvalue data.
Everything is deterministic: seeded randomness and a fixed, serial
summation order.
"""

from .branching import (
    VirtualRep,
    branch_weights,
    branching_multiplicity,
    exterior_decomposition,
    m_tau_coeffs,
    tau_pm_split,
)
from .chars import CharacterTable, character_table, weight_multiplicities, weyl_character
from .continuation import (
    AnchorSet,
    ContinuedL,
    anchor_set,
    cauchy_plancherel_identity,
    continued_from,
    contour_residue,
    heat_resolvent_identity,
    log_zeta_ratio,
    moment_sum,
    partial_fraction_coeffs,
    residue_order,
    resolvent_trace_geometric,
    resolvent_trace_spectral,
    resolvent_trace_via_heat,
    singularities,
    small_t_combination,
)
from .errors import DomainError, ValidationError, ZetaflowError
from .heat import HeatEvaluation, geometric_heat_trace, heat_totals, spectral_heat_trace
from .plancherel import PlancherelPolynomial, c_sigma, plancherel_polynomial
from .spectra import (
    EigenSpectrum,
    LengthSpectrum,
    PrimitiveClass,
    TwistGrowthCert,
    certify_twist_growth,
    counting_function,
    load_eigen_spectrum,
    load_length_spectrum,
    save,
    synthesize,
    validate_cert,
)
from .verify import CheckResult, fitted_growth_exponent, run_suite
from .weights import GroupData, weyl_action, weyl_dim
from .zeta import (
    SeriesValue,
    TruncationPolicy,
    abscissa_estimate,
    det_term,
    log_derivative,
    ruelle_factorized_log,
    ruelle_log,
    selberg_log,
    z_p_log,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorSet",
    "CharacterTable",
    "CheckResult",
    "ContinuedL",
    "DomainError",
    "EigenSpectrum",
    "GroupData",
    "HeatEvaluation",
    "LengthSpectrum",
    "PlancherelPolynomial",
    "PrimitiveClass",
    "SeriesValue",
    "TruncationPolicy",
    "TwistGrowthCert",
    "ValidationError",
    "VirtualRep",
    "ZetaflowError",
    "abscissa_estimate",
    "anchor_set",
    "branch_weights",
    "branching_multiplicity",
    "c_sigma",
    "cauchy_plancherel_identity",
    "certify_twist_growth",
    "character_table",
    "continued_from",
    "contour_residue",
    "counting_function",
    "det_term",
    "exterior_decomposition",
    "fitted_growth_exponent",
    "geometric_heat_trace",
    "heat_resolvent_identity",
    "heat_totals",
    "load_eigen_spectrum",
    "load_length_spectrum",
    "log_derivative",
    "log_zeta_ratio",
    "m_tau_coeffs",
    "moment_sum",
    "partial_fraction_coeffs",
    "plancherel_polynomial",
    "residue_order",
    "resolvent_trace_geometric",
    "resolvent_trace_spectral",
    "resolvent_trace_via_heat",
    "ruelle_factorized_log",
    "ruelle_log",
    "run_suite",
    "save",
    "selberg_log",
    "singularities",
    "small_t_combination",
    "spectral_heat_trace",
    "synthesize",
    "tau_pm_split",
    "validate_cert",
    "weight_multiplicities",
    "weyl_action",
    "weyl_character",
    "weyl_dim",
    "z_p_log",
]
