"""Exact arithmetic for polylogarithms at non-positive integer indices.

The package computes Li(s1,...,sr)(z) = sum_{n1>...>nr>0} n1^s1...nr^sr z^n1
as a canonical rational function in Q[z, 1/(1-z)], expands such values
through the Magnus polynomial basis of the free algebra on two
letters, and generates and verifies Q-linear functional equations
among them.  Everything is exact; no floating point anywhere.
"""

from .freealg import (
    NcPoly,
    lie_bracket,
    poly_to_json_obj,
    poly_x_to_y,
    poly_y_to_x,
)
from .magnus import (
    array_binom,
    basis_word,
    dual_array_binom,
    grade_report,
    lie_power,
    magnus_indices,
    magnus_poly,
    magnus_to_word,
    word_to_magnus,
)
from .polylog import (
    LinComb,
    PipelineDisagreement,
    expand_to_products,
    kernel_element,
    kernel_elements,
    magnus_product_identity,
    nfold_product,
    polylog_map,
    polylog_rational,
    product_letter_word,
    relation_from_record,
    relation_record,
    series_coeffs,
    verify_relation,
    verify_relations,
)
from .ratpoly import RatFun, euler_deriv, geom_mul, taylor_coeffs
from .words import MultiIndex, magnus_index, mpl_index, parse_index

__version__ = "0.1.0"

__all__ = [
    "MultiIndex",
    "mpl_index",
    "magnus_index",
    "parse_index",
    "NcPoly",
    "lie_bracket",
    "poly_x_to_y",
    "poly_y_to_x",
    "poly_to_json_obj",
    "RatFun",
    "euler_deriv",
    "geom_mul",
    "taylor_coeffs",
    "lie_power",
    "magnus_poly",
    "basis_word",
    "array_binom",
    "dual_array_binom",
    "magnus_indices",
    "word_to_magnus",
    "magnus_to_word",
    "grade_report",
    "LinComb",
    "PipelineDisagreement",
    "polylog_rational",
    "polylog_map",
    "series_coeffs",
    "expand_to_products",
    "product_letter_word",
    "nfold_product",
    "magnus_product_identity",
    "kernel_element",
    "kernel_elements",
    "verify_relation",
    "verify_relations",
    "relation_record",
    "relation_from_record",
    "__version__",
]
