"""Twisted Selberg and Ruelle zeta functions from length spectrum data.

The library evaluates the convergent log series of the zeta functions of a
compact hyperbolic manifold of odd dimension, factorizes the Ruelle zeta
through Selberg factors, computes geometric heat and resolvent traces, and
continues the zeta log derivative through its poles from eigenvalue data.
Everything is deterministic: seeded randomness and a fixed, serial
summation order.

Each public name is imported from its home module on first access, so a
command loads only the modules it runs.
"""

import importlib

# home module -> the public names it defines
_EXPORTS = {
    "branching": (
        "branch_weights",
        "branching_multiplicity",
        "exterior_decomposition",
        "m_tau_coeffs",
        "tau_pm_split",
    ),
    "chars": ("CharacterTable", "character_table", "weight_multiplicities", "weyl_character"),
    "continuation": (
        "AnchorSet",
        "ContinuedL",
        "anchor_set",
        "cauchy_plancherel_identity",
        "continued_from",
        "contour_residue",
        "heat_resolvent_identity",
        "log_zeta_ratio",
        "moment_sum",
        "partial_fraction_coeffs",
        "residue_order",
        "resolvent_trace_geometric",
        "resolvent_trace_spectral",
        "resolvent_trace_via_heat",
        "singularities",
        "small_t_combination",
    ),
    "errors": ("DomainError", "ValidationError", "ZetaflowError"),
    "heat": ("geometric_heat_trace", "heat_totals", "spectral_heat_trace"),
    "plancherel": ("PlancherelPolynomial", "c_sigma", "plancherel_polynomial"),
    "spectra": (
        "EigenSpectrum",
        "LengthSpectrum",
        "counting_function",
        "load_eigen_spectrum",
        "load_length_spectrum",
        "save",
        "synthesize",
    ),
    "verify": ("CheckResult", "fitted_growth_exponent", "run_suite"),
    "weights": ("GroupData", "weyl_action", "weyl_dim"),
    "zeta": (
        "SeriesValue",
        "TruncationPolicy",
        "abscissa_estimate",
        "det_term",
        "log_derivative",
        "ruelle_factorization",
        "ruelle_factorized_log",
        "ruelle_log",
        "selberg_log",
        "z_p_log",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name from its home module on first access (PEP 562)
    and keep it in the package namespace, so later reads skip this hook."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
