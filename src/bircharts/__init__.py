"""Exact birational charts for SL_n.

Symbolic realization of the bipartite-word charts of the upper unipotent
group, the flag-type quotient and the full group, with decision procedures
for membership in their coordinate rings, transition maps between chart
parametrizations by chamber minors, and executable verification of the
underlying Weyl-group weight combinatorics for all finite Cartan types at
desk scale.
"""

__version__ = "0.1.0"

from .exact_arith import (DegreeLimitError, MultiPoly, PoleError, RatFunc,
                          UniverseError, is_laurent_in, is_polynomial,
                          poly_exact_div, poly_gcd, ratfunc_normalize,
                          substitute)
from .root_data import (CartanDatum, ChartWeights, LemmaCheck,
                        VerificationReport, Weight, WeylElement, cartan,
                        chart_weights, distinguished_word, is_reduced, length,
                        longest_element, parse_type, verify_lemmas,
                        weight_sets, weyl_apply, weyl_from_word)
from .sl_realization import (GroupMatrix, MinorSpec, TorusPoint, Unsupported,
                             chart_G, chart_GmodU, chart_U, gauss_decompose,
                             gen_minor, generator, iota, lift, minor_spec,
                             torus_point, twist)
from .braid_engine import (Move, TransitionMap, apply_move, available_moves,
                           transition, word_path)
from .membership import (Certificate, ChartId, MembershipVerdict,
                         check_invariance, decide_O_G, decide_O_GmodU,
                         decide_O_U, g_variables, invert_chart, param_names,
                         pullback_U, torus_names, u_variables)
from .exprparse import ParseError, parse_expression

__all__ = [
    "MultiPoly", "RatFunc", "PoleError", "UniverseError", "DegreeLimitError",
    "ratfunc_normalize", "poly_gcd", "poly_exact_div",
    "substitute", "is_polynomial", "is_laurent_in",
    "CartanDatum", "Weight", "WeylElement", "ChartWeights", "LemmaCheck",
    "VerificationReport", "cartan", "parse_type", "weyl_apply",
    "weyl_from_word", "length", "is_reduced", "longest_element",
    "distinguished_word", "chart_weights", "weight_sets", "verify_lemmas",
    "GroupMatrix", "TorusPoint", "MinorSpec", "generator", "torus_point",
    "chart_U", "chart_GmodU", "chart_G", "lift", "iota", "gen_minor",
    "minor_spec", "gauss_decompose", "twist", "Unsupported",
    "Move", "TransitionMap", "apply_move",
    "available_moves", "word_path", "transition",
    "ChartId", "Certificate", "MembershipVerdict", "pullback_U",
    "decide_O_U", "check_invariance", "decide_O_GmodU", "decide_O_G",
    "invert_chart", "u_variables", "g_variables", "param_names",
    "torus_names",
    "ParseError", "parse_expression",
]
