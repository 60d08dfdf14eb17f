"""Exact birational charts for SL_n.

Symbolic realization of the bipartite-word charts of the upper unipotent
group, the flag-type quotient and the full group, with decision procedures
for membership in their coordinate rings, transition maps between chart
parametrizations by chamber minors, and executable verification of the
underlying Weyl-group weight combinatorics for all finite Cartan types at
desk scale.

The public names below are loaded on first use (PEP 562), so importing
the package, or one of its modules, loads only what that use needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "exact_arith": (
        "MultiPoly", "RatFunc", "PoleError", "UniverseError", "DegreeLimitError",
        "ratfunc_normalize", "poly_gcd", "poly_exact_div",
        "substitute", "is_polynomial", "is_laurent_in"),
    "root_data": (
        "CartanDatum", "Weight", "WeylElement", "ChartWeights", "LemmaCheck",
        "VerificationReport", "cartan", "parse_type", "weyl_apply",
        "weyl_from_word", "length", "is_reduced", "longest_element",
        "distinguished_word", "chart_weights", "weight_sets", "verify_lemmas",
        "Unsupported"),
    "sl_realization": (
        "GroupMatrix", "TorusPoint", "MinorSpec", "generator", "torus_point",
        "chart_U", "chart_GmodU", "chart_G", "lift", "iota", "gen_minor",
        "minor_spec", "gauss_decompose", "twist"),
    "braid_engine": (
        "Move", "TransitionMap", "apply_move",
        "available_moves", "word_path", "transition"),
    "membership": (
        "ChartId", "Certificate", "MembershipVerdict", "pullback_U",
        "decide_O_U", "check_invariance", "decide_O_GmodU", "decide_O_G",
        "invert_chart", "u_variables", "g_variables", "param_names",
        "torus_names"),
    "exprparse": ("ParseError", "parse_expression"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # not cached: bircharts.X is always the defining module's X, so a
    # wrapper put on the module's name is the one this lookup returns
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
