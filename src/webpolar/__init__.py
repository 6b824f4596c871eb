"""Exact intersection-theory calculator for plane webs and their invariants.

The package computes, with arbitrary-precision integer arithmetic
throughout: canonical forms and integrals in the cohomology ring of the
point-hyperplane incidence variety of P^n, conormal and plane-field classes
with their characteristic numbers, polar-class degrees, invariance
inequalities with non-invariance certification, degree bounds for smooth
invariant hypersurfaces, and a symbolic lab that cross-validates the
calculus on explicit plane webs F(x, y, p) = 0.
"""

from .classes import (
    CharNumbers,
    NegativeCharNumberWarning,
    WebCharNumbers,
    char_numbers_from_web_class,
    conormal_linear,
    degree_of_variety,
    pencil_class,
    smooth_hypersurface_char_numbers,
    twist_degree,
    variety_class,
    web_char_integrals,
    web_class,
)
from .exprparse import ParseError, parse_poly_expr, parse_ring_expr
from .multipoly import MultiPoly, resultant, variables
from .polar import (
    Certification,
    DegreeBounds,
    InequalityEntry,
    InequalityReport,
    Verdict,
    certify_noninvariance,
    hypersurface_degree_bound,
    integer_root,
    invariance_inequalities,
    polar_degree_variety,
    polar_degree_web,
)
from .ring import (
    RingElement,
    dual_hyperplane,
    hyperplane,
    integrate,
    monomial,
    one,
    tautological_class,
    zero,
)
from .weblab import (
    ImplicitWeb,
    WebReport,
    discriminant_locus,
    end_to_end_check,
    is_invariant,
    polar_curve,
    web_degree,
)

__version__ = "0.1.0"

__all__ = [
    "Certification",
    "CharNumbers",
    "DegreeBounds",
    "ImplicitWeb",
    "InequalityEntry",
    "InequalityReport",
    "MultiPoly",
    "NegativeCharNumberWarning",
    "ParseError",
    "RingElement",
    "Verdict",
    "WebCharNumbers",
    "WebReport",
    "certify_noninvariance",
    "char_numbers_from_web_class",
    "conormal_linear",
    "degree_of_variety",
    "discriminant_locus",
    "dual_hyperplane",
    "end_to_end_check",
    "hyperplane",
    "hypersurface_degree_bound",
    "integer_root",
    "integrate",
    "invariance_inequalities",
    "is_invariant",
    "monomial",
    "one",
    "parse_poly_expr",
    "parse_ring_expr",
    "pencil_class",
    "polar_curve",
    "polar_degree_variety",
    "polar_degree_web",
    "resultant",
    "smooth_hypersurface_char_numbers",
    "tautological_class",
    "twist_degree",
    "variables",
    "variety_class",
    "web_char_integrals",
    "web_class",
    "web_degree",
    "zero",
]
