"""Exact-arithmetic toolkit for symplectic weight combinatorics.

Weights over several real places, the signed-permutation Weyl group and
its dot orbits, parabolic induction embedding data, unitarity bounds for
highest weight modules, unramified local L-factor products, and formal
Fourier expansions with exact positive-definiteness tests.

`import sympl` loads no submodule. Each public name below is looked up
in its submodule on first access (PEP 562), so a caller pays only for
the layers it uses. Names are not copied into this namespace: every
access reads the submodule's current attribute.
"""

_EXPORTS = {
    "ehw": (
        "EhwProfile",
        "ehw_normalize",
        "first_reduction_point",
        "is_unitary_highest_weight",
    ),
    "embeddings": (
        "CharacterDatum",
        "InductionDatum",
        "gl_degenerate_convergence",
        "klingen_convergence",
        "klingen_embedding_datum",
        "klingen_embedding_inverse",
        "principal_series_datum",
        "siegel_degenerate_datum",
    ),
    "errors": ("DomainError",),
    "fourier": (
        "FourierExpansion",
        "PdGrid",
        "SymMatrix",
        "build_pd_grid",
        "corank",
        "cusp_condition_check",
        "filtration_index",
        "format_expansion",
        "gl_transform",
        "grid_variable",
        "in_sym_j",
        "is_cuspidal",
        "is_pd",
        "is_psd",
        "parse_expansion",
        "pit_vanishes",
        "rank",
        "rigidity_check",
        "siegel_phi",
        "slash_invariance_check",
    ),
    "laurent": ("LaurentPoly",),
    "lfactors": (
        "RationalFunction",
        "SatakeDatum",
        "abelian_L",
        "evaluate",
        "gk_value",
        "standard_L",
        "xi",
    ),
    "orbitclassify": (
        "DecompositionReport",
        "OrbitClassification",
        "SurjectivityVerdict",
        "classify_levels",
        "decomposition_report",
        "duality_check",
        "hc_parameter",
        "is_squarefree",
        "level_from_primes",
        "siegel_surjectivity_check",
        "theorem_main_necessary",
    ),
    "scalars": ("as_scalar", "format_scalar"),
    "weights": (
        "VanishingVerdict",
        "Weight",
        "format_weight",
        "holomorphy_vanishing",
        "is_integral",
        "is_k_dominant",
        "parity_class",
        "parse_weight",
        "rho",
    ),
    "weyl": (
        "InfChar",
        "WeylElement",
        "act",
        "compose",
        "dominant_orbit_elements",
        "dot_act",
        "identity",
        "infchar_canonical",
        "infchar_equal",
        "inverse",
        "is_regular",
        "is_sufficiently_regular",
        "orbit_dichotomy_check",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def _submodule(name):
    from importlib import import_module

    return import_module(f"{__name__}.{name}")


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is not None:
        return getattr(_submodule(module), name)
    if name in _EXPORTS:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
