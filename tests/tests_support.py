"""Helpers shared across test modules."""

import sympy

from webpolar.multipoly import MultiPoly, _bareiss_determinant

SYMPY_VARS = sympy.symbols("x y p t u")


def to_sympy_poly(poly: MultiPoly):
    acc = sympy.Integer(0)
    for exps, coeff in poly.terms().items():
        term = sympy.Integer(coeff)
        for sym, e in zip(SYMPY_VARS, exps):
            if e:
                term *= sym ** e
        acc += term
    return acc


# The Sylvester matrix is the tests' independent reference for resultants:
# the package takes them through the smaller Bezout matrix.

def sylvester_layout(fc: list, gc: list, zero) -> list[list]:
    """Sylvester matrix from coefficient lists in descending degree order."""
    deg_f = len(fc) - 1
    deg_g = len(gc) - 1
    size = deg_f + deg_g
    rows = []
    for shift in range(deg_g):
        rows.append([zero] * shift + fc + [zero] * (size - deg_f - 1 - shift))
    for shift in range(deg_f):
        rows.append([zero] * shift + gc + [zero] * (size - deg_g - 1 - shift))
    return rows


def sylvester_matrix(f: MultiPoly, g: MultiPoly, var: str) -> list[list[MultiPoly]]:
    """The (deg f + deg g)-square Sylvester matrix of f and g in ``var``."""
    if f.degree(var) < 1 or g.degree(var) < 1:
        raise ValueError("both polynomials need positive degree in the elimination variable")
    fc = list(reversed(f.coefficient_list(var)))
    gc = list(reversed(g.coefficient_list(var)))
    return sylvester_layout(fc, gc, MultiPoly.zero())


def sylvester_integer_resultant(fc: list[int], gc: list[int]) -> int:
    """Res(f, g) of integer coefficient lists, descending, as the Bareiss
    determinant of their Sylvester matrix; 1 for two constants."""
    rows = sylvester_layout(fc, gc, 0)
    return _bareiss_determinant(rows) if rows else 1


def twist_degree(k: int, p: int, n: int, deg_w: int) -> int:
    """Degree of the line bundle twisting the defining k-symmetric form.

    The form lives in Sym^k of the (n-p)-forms twisted by
    O(deg W + k*(n-p) + k); this bookkeeping pins how many zeros a
    restriction to a linear subspace must have in total.
    """
    if k < 1:
        raise ValueError(f"multiplicity k must be positive, got {k}")
    if not 1 <= p <= n - 1:
        raise ValueError(f"plane dimension p={p} out of range for n={n}")
    if deg_w < 0:
        raise ValueError(f"web degree must be nonnegative, got {deg_w}")
    return deg_w + k * (n - p) + k
