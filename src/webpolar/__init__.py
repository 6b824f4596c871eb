"""Exact intersection-theory calculator for plane webs and their invariants.

The package computes, with arbitrary-precision integer arithmetic
throughout: canonical forms and integrals in the cohomology ring of the
point-hyperplane incidence variety of P^n, conormal and plane-field classes
with their characteristic numbers, polar-class degrees, invariance
inequalities with non-invariance certification, degree bounds for smooth
invariant hypersurfaces, and a symbolic lab that cross-validates the
calculus on explicit plane webs F(x, y, p) = 0.

The package exports only the names of the README's library sketch and of
the benchmark's library requests.  The rest of the API lives in the
submodules: ``ring``, ``classes``, ``polar``, ``multipoly``, ``exprparse``
and ``weblab``.
"""

from .classes import NegativeCharNumberWarning, WebCharNumbers, smooth_hypersurface_char_numbers
from .exprparse import parse_poly_expr
from .polar import Verdict, invariance_inequalities
from .weblab import ImplicitWeb, discriminant_locus, end_to_end_check

__version__ = "0.1.0"

__all__ = [
    "ImplicitWeb",
    "NegativeCharNumberWarning",
    "Verdict",
    "WebCharNumbers",
    "discriminant_locus",
    "end_to_end_check",
    "invariance_inequalities",
    "parse_poly_expr",
    "smooth_hypersurface_char_numbers",
]
