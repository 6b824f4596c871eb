"""Desk-scale geometric verifier for plane webs given implicitly.

A k-web of the projective plane is presented in an affine chart by an
integer polynomial F(x, y, p), p standing for the slope dy/dx: through a
generic point pass the k curve branches whose slopes are the p-roots of F.
This module measures the web's characteristic numbers exactly from such
tangency geometry, so the abstract two-term degree formulas can be checked
against actual loci: the degree is the tangency count with a symbolic
generic line, whose tangencies are all affine, read off the leading
x-coefficient of F along that line without expanding the restriction.  The
first polar curve through a point z is Res_p(F, c1*p + c0) against the
pencil of lines through z (``polar_curve``), and its degree for a symbolic
generic z is read off F's terms by the same kind of walk
(``polar_curve_degree``), so the curve is never expanded.  Nothing is
sampled and no measurement depends on a seed.  Sampled lines and points,
and the expanded polar curve, stay as independent references for the tests:
``tangency_with_line`` counts projectively, as the degree of the affine
restriction plus the order of tangency at the line's point at infinity,
which a particular line can have.

Two yes/no questions are first asked modulo the word-size prime
CERTIFICATE_PRIME at fixed integer points (CERTIFICATE_POINTS, independent
of any seed), and each answer is certified one-sidedly.  Validation: a
constant gcd of F and F_p modulo q at such a point proves square-freeness,
and only otherwise is the symbolic discriminant Res_p(F, F_p) computed;
that resultant is cached on the web (``ImplicitWeb.discriminant``), so
``discriminant_locus`` reuses it.  Invariance: a nonzero residue of the
cleared numerator G modulo the curve C on a vertical line proves that C
does not divide G, and only otherwise is G expanded and divided exactly,
the one way to answer "invariant".  A curve in x alone takes the same sum
G, in the same chart.  The gcd and the residue come from one small set of
helpers for polynomials in one variable over F_q.
Slope degrees above MAX_SLOPE_DEGREE are refused before any of this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .classes import WebCharNumbers
from .multipoly import _FIELD, MultiPoly, resultant, variables
from .polar import hypersurface_degree_bound, polar_degree_web

COEFFICIENT_SPAN = 999  # random integer samples are drawn from [-999, 999]
# the square-freeness certificate costs O(k^2) word-size operations: on dense
# p-polynomials it took 6 ms at k = 100, 21 ms at k = 200 and 55 ms at
# k = 320, and `web --f "x^100*p^100 - y"` runs in 0.14 s end to end (CPython
# 3.11, one core of a shared 2-vCPU host); the cap bounds the stage after
# it that grows faster in k, the symbolic discriminant
MAX_SLOPE_DEGREE = 100
# a prime above MAX_SLOPE_DEGREE, so k * a_k is a unit wherever a_k is
CERTIFICATE_PRIME = (1 << 61) - 1
# Fixed points of the square-freeness and divisibility certificates, once
# drawn from the box of sample_point: validation depends on no seed and draws
# no sample point.
CERTIFICATE_POINTS = ((792, -251), (-450, 36))


class DegenerateSampleError(RuntimeError):
    """A sampled line or point fell on the bad locus."""


@dataclass(frozen=True)
class AffineLine:
    """The affine line y = a*x + b."""

    a: int
    b: int


class ImplicitWeb:
    """A plane k-web cut out by F(x, y, p) with p the slope variable.

    Validity requires positive degree k in p and square-freeness of F as a
    p-polynomial over the rational function field in x and y, that is, a
    discriminant Res_p(F, F_p) that is not identically zero.  Validation
    first tries the one-sided certificate of ``_certified_square_free`` and
    computes the symbolic discriminant only when that proves nothing; either
    way ``discriminant`` is computed at most once per web.
    """

    def __init__(self, f: MultiPoly):
        if not isinstance(f, MultiPoly):
            raise TypeError(f"expected a MultiPoly, got {type(f).__name__}")
        if not f.uses_only({"x", "y", "p"}):
            raise ValueError("web polynomials may use only the variables x, y and p")
        k = f.degree("p")
        if k < 1:
            raise ValueError("web polynomial is constant in the slope variable p")
        if k > MAX_SLOPE_DEGREE:
            raise ValueError(
                f"web polynomial has degree {k} in the slope variable p, "
                f"more than {MAX_SLOPE_DEGREE}"
            )
        self.f = f
        self.k = k
        if not self._certified_square_free() and self.discriminant.is_zero:
            raise ValueError("web polynomial is not square-free in the slope variable p")

    def _certified_square_free(self) -> bool:
        """True proves F square-free in p; False proves nothing.

        At a point (x0, y0) where the leading p-coefficient of F does not
        vanish modulo the prime q = CERTIFICATE_PRIME, specialisation and
        reduction keep the p-degrees of F and F_p (q > k), so the univariate
        Res_p(F(x0, y0, p), F_p(x0, y0, p)) mod q is the residue of the
        symbolic discriminant's value there.  That residue is nonzero
        exactly when gcd(F(x0, y0, p), F_p(x0, y0, p)) over F_q is constant,
        and a nonzero residue shows that the discriminant is a nonzero
        polynomial.  A point where the leading coefficient vanishes mod q
        is skipped.  The gcd costs O(k^2) word-size operations, whatever
        the size of the coefficients.  A nonzero discriminant of total
        degree D vanishes on at most a D / 1999 share of the sampling box
        (Schwartz-Zippel), and a nonzero value is divisible by q rarely, so
        for square-free input the symbolic fallback is rare.
        """
        k = self.k
        q = CERTIFICATE_PRIME
        for x0, y0 in CERTIFICATE_POINTS:
            specialised = _specialise_mod(self.f, "p", q, x=x0, y=y0)
            if len(specialised) <= k:
                continue
            derivative = [(k - i) * c % q for i, c in enumerate(specialised[:-1])]
            if len(_gcd_mod(specialised, derivative, q)) == 1:
                return True
        return False

    @cached_property
    def discriminant(self) -> MultiPoly:
        """The symbolic discriminant Res_p(F, F_p), computed on first use."""
        return resultant(self.f, self.f.derivative("p"), "p")

    @cached_property
    def infinity_chart(self) -> MultiPoly:
        """The web's implicit polynomial in the chart at x = infinity.

        Under u = 1/x, v = y/x the slope transforms as p = v - u * dv/du, so
        each monomial x^α y^β p^γ becomes u^(N-α-β) v^β (v - u*r)^γ after
        clearing u-denominators with N = deg_{x,y} F.  The variable slots y
        and p are reused for v and r.  Spurious powers of u introduced by
        the clearing are divided out, exactly like content.
        """
        n_clear = self.f.total_degree("x", "y")
        u = MultiPoly.variable("u")
        v = MultiPoly.variable("y")
        r = MultiPoly.variable("p")
        folded = v - u * r
        out = MultiPoly.sum(
            coeff * u ** (n_clear - alpha - beta) * v ** beta * folded ** gamma
            for (alpha, beta, gamma), coeff in self.f.terms_in("x", "y", "p")
        )
        saturation = out.min_degree("u")
        if saturation > 0:
            out = out // u ** saturation
        return out


# -- polynomials in one variable over F_q, q = CERTIFICATE_PRIME -------------------
# A polynomial is its list of residues from the highest degree down, with no
# leading zero, so the zero polynomial is [].


def _specialise_mod(poly: MultiPoly, var: str, q: int, **point: int) -> list[int]:
    """poly as a polynomial in var over F_q, every other variable it uses at point."""
    fixed = []
    for name, value in point.items():
        powers = [1]
        for _ in range(poly.degree(name)):
            powers.append(powers[-1] * value % q)
        fixed.append((poly._shift(name), powers))
    shift = poly._shift(var)
    out = [0] * (poly.degree(var) + 1)
    for key, coeff in poly._terms.items():  # read straight off the packed monomials
        for field, powers in fixed:
            coeff *= powers[key >> field & _FIELD]
        out[key >> shift & _FIELD] += coeff
    return _strip([c % q for c in reversed(out)])


def _strip(f: list[int]) -> list[int]:
    lead = next((i for i, c in enumerate(f) if c), len(f))
    return f[lead:]


def _add_mod(f: list[int], g: list[int], q: int) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = f[:]
    shift = len(f) - len(g)
    for j, c in enumerate(g):
        out[shift + j] = (out[shift + j] + c) % q
    return _strip(out)


def _mul_mod(f: list[int], g: list[int], q: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return [c % q for c in out]  # the leading product is a unit: nothing to strip


def _rem_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """f mod g over F_q, for g nonzero."""
    m, n = len(f) - 1, len(g) - 1
    if m < n:
        return f
    inverse = pow(g[0], -1, q)
    tail = g[1:]
    r = f[:]
    for i in range(m - n + 1):
        factor = r[i] % q * inverse % q
        if factor:  # entries are reduced once, at the end
            r[i + 1:i + n + 1] = [c - factor * b for c, b in zip(r[i + 1:i + n + 1], tail)]
    return _strip([c % q for c in r[m - n + 1:]])


def _gcd_mod(f: list[int], g: list[int], q: int) -> list[int]:
    """A gcd of f and g over F_q up to a unit, by Euclid's algorithm; it stops
    at the first constant remainder, since a nonzero constant is a unit."""
    while len(g) > 1:
        f, g = g, _rem_mod(f, g, q)
    return g or f


def restriction_to_line(web: ImplicitWeb, line: AffineLine) -> MultiPoly:
    """F restricted to the line with the slope pinned to the line's own: g(x)."""
    x = MultiPoly.variable("x")
    return web.f.substitute(y=line.a * x + line.b, p=line.a)


def tangency_with_line(web: ImplicitWeb, line: AffineLine) -> int:
    """Total degree of the tangency divisor cut on the line.

    The count is the degree of the affine restriction g(x), that is the
    affine tangency points with multiplicity over the complex numbers, plus
    the order of tangency at the line's point at infinity, read off in the
    second chart, where the line is v = b*u + a with slope b.
    Raises DegenerateSampleError when the restriction vanishes identically,
    signalling a non-generic (or invariant) line.
    """
    g = restriction_to_line(web, line)
    if g.is_zero:
        raise DegenerateSampleError(f"line y = {line.a}*x + {line.b} is tangent everywhere")
    u = MultiPoly.variable("u")
    at_infinity = web.infinity_chart.substitute(y=line.a + line.b * u, p=line.b)
    if at_infinity.is_zero:
        raise RuntimeError(
            f"internal consistency check failed: the infinity chart vanishes on the line "
            f"y = {line.a}*x + {line.b} whose affine restriction does not"
        )
    return g.degree("x") + at_infinity.min_degree("u")


def _rng(seed: int, stream: str, index: int) -> random.Random:
    # string seeding hashes with sha512 inside random.seed: stable across
    # runs and platforms, and each (stream, index) pair is independent
    return random.Random(f"{seed}:{stream}:{index}")


def sample_line(seed: int, index: int) -> AffineLine:
    rng = _rng(seed, "line", index)
    return AffineLine(rng.randint(-COEFFICIENT_SPAN, COEFFICIENT_SPAN),
                      rng.randint(-COEFFICIENT_SPAN, COEFFICIENT_SPAN))


def sample_point(seed: int, index: int) -> tuple[int, int]:
    rng = _rng(seed, "point", index)
    return (rng.randint(-COEFFICIENT_SPAN, COEFFICIENT_SPAN),
            rng.randint(-COEFFICIENT_SPAN, COEFFICIENT_SPAN))


def web_degree(web: ImplicitWeb) -> int:
    """Degree of the web: tangency count with a symbolic generic line.

    The line y = a*x + b has slope a, so its affine restriction is
    F(x, a*x + b, a), and its x-degree is the count.  Nothing is lost at
    infinity: the generic line meets the line at infinity at a generic point
    and is not tangent there, since in the chart at infinity its restriction
    at u = 0 is that chart at u = 0, which saturation leaves nonzero.  The
    substitution is an invertible change of variables, so the restriction
    never vanishes.  Its coefficient of x^d, a polynomial in a and b, is the
    sum of c * comb(β, d-α) * a^(d-α+γ) * b^(α+β-d) over the terms
    c * x^α y^β p^γ of F with α <= d <= α+β; the count is the largest d
    where that sum is nonzero, so nothing is expanded.

    >>> x, y, p = variables("x", "y", "p")
    >>> web_degree(ImplicitWeb(p**2 - y)), web_degree(ImplicitWeb(x*p - y))
    (1, 0)
    """
    terms = web.f.terms_in("x", "y", "p")
    for d in range(max((alpha + beta for (alpha, beta, _), _ in terms), default=-1), -1, -1):
        coefficient: dict[tuple[int, int], int] = {}
        for (alpha, beta, gamma), coeff in terms:
            if alpha <= d <= alpha + beta:
                key = (d - alpha + gamma, alpha + beta - d)
                coefficient[key] = coefficient.get(key, 0) + coeff * comb(beta, d - alpha)
        if any(coefficient.values()):
            return d
    raise RuntimeError(
        f"internal consistency check failed: F(x, a*x + b, a) vanishes for F = {web.f}"
    )


def _clear_slope(coefficients: list[MultiPoly], c1: MultiPoly, c0: MultiPoly) -> MultiPoly:
    """sum_i a_i * (-c0)^i * c1^(k-i): F at the slope p = -c0/c1, times c1^k.

    Up to the sign (-1)^k this is Res_p(F, c1*p + c0), the resultant of F
    against a polynomial linear in p.  Horner's rule in -c0 takes k products
    by -c0, k by a power of c1 and k - 1 to raise that power.
    """
    k = len(coefficients) - 1
    minus_c0 = -c0
    out, c1_power = coefficients[k], c1
    for i in range(k - 1, -1, -1):
        out = out * minus_c0 + coefficients[i] * c1_power
        if i:
            c1_power = c1_power * c1
    return out


def polar_curve(web: ImplicitWeb, z: tuple) -> MultiPoly:
    """Locus of points whose web tangent passes through z = (z1, z2).

    This expansion is the tests' reference for ``polar_curve_degree``,
    which the lab uses.  A tangent of slope p at (x, y) hits z exactly when
    (y - z2) - p*(x - z1) = 0, so eliminating p against F cuts the curve:
    Res_p(F, c1*p + c0) = (-1)^k * _clear_slope(F, c1, c0) with c1 = z1 - x
    and c0 = y - z2.  The coordinates of z are integers, or polynomials in
    the t and u slots for a symbolic generic point.  The integer content is
    stripped, since only the curve matters, and its degree in x and y must
    come out as k + deg(web).  Raises DegenerateSampleError when an integer
    z has a pencil sharing a component with the web; a symbolic z = (t, u)
    never does, since a_k * u^k is the only term of u-degree k.
    """
    z1, z2 = z
    x, y = variables("x", "y")
    res = _clear_slope(web.f.coefficient_list("p"), z1 - x, y - z2)
    if res.is_zero:
        raise DegenerateSampleError(f"pencil through {z} shares a component with the web")
    return (-res if web.k % 2 else res).primitive_part()


def polar_curve_degree(web: ImplicitWeb) -> int:
    """Degree in x and y of the polar curve through a symbolic generic point.

    Through z = (t, u) the curve is P = sum_i a_i (u - y)^i (t - x)^(k-i),
    the sum of t^α u^β Q_{α,β}(x, y) with
    Q_{α,β} = sum_{i=β}^{k-α} comb(i, β) comb(k-i, α) (-y)^(i-β) (-x)^(k-i-α) a_i,
    so its degree is the largest degree of a Q_{α,β}.  A term c x^a y^b p^γ
    of F lands in degree D through the pairs with α + β = s = a + b + k - D
    and β <= γ <= k - α, at x^(a+k-γ-α) y^(b+γ-β) with the coefficient
    c comb(γ, β) comb(k-γ, α) times the sign (-1)^(k-s), which a monomial
    t^α u^β x^X y^(D-X) fixes.  The walk goes down from D = top + k, top the
    largest total degree of F's terms, and returns the first D where such a
    sum is nonzero, so nothing is expanded.  The first step, α = β = 0,
    usually decides; it descends only where the top form of F vanishes at
    p = y/x, as for a radial factor x*p - y.  ``polar_curve`` is the
    expansion this reads, kept as the tests' reference.

    >>> x, y, p = variables("x", "y", "p")
    >>> polar_curve_degree(ImplicitWeb(p**2 - y)), polar_curve_degree(ImplicitWeb(x*p - y))
    (3, 1)
    """
    k = web.k
    by_degree: dict[int, list[tuple[int, int, int]]] = {}
    for (a, b, gamma), coeff in web.f.terms_in("x", "y", "p"):
        by_degree.setdefault(a + b, []).append((a, gamma, coeff))
    top = max(by_degree)
    for d in range(top + k, -1, -1):
        coefficient: dict[tuple[int, int, int], int] = {}
        for n in range(max(d - k, 0), min(d, top) + 1):
            s = n + k - d
            for a, gamma, coeff in by_degree.get(n, ()):
                for alpha in range(max(s - gamma, 0), min(s, k - gamma) + 1):
                    key = (alpha, s - alpha, a + k - gamma - alpha)
                    coefficient[key] = (coefficient.get(key, 0)
                                        + coeff * comb(gamma, s - alpha) * comb(k - gamma, alpha))
        if any(coefficient.values()):
            return d
    raise RuntimeError(
        f"internal consistency check failed: the polar curve vanishes for F = {web.f}"
    )


def discriminant_locus(web: ImplicitWeb) -> MultiPoly:
    """Where F stops being square-free in p, up to integer content.

    The zero set contains every non-smooth point of the web in this chart;
    for k = 1 it is a nonzero constant.
    """
    return web.discriminant.primitive_part()


def _certified_not_dividing(p_coefficients: list[MultiPoly], curve: MultiPoly) -> bool:
    """True proves that C does not divide G; False proves nothing.

    Specialisation at x = x0 followed by reduction modulo the prime
    q = CERTIFICATE_PRIME is a ring map Z[x, y] -> F_q[y], so C | G over Z
    gives C(x0, y) | G(x0, y) over F_q.  Where C(x0, y) is not constant
    mod q, a nonzero residue g = G(x0, y) mod C(x0, y) therefore proves
    C ∤ G.  The abscissa x0 is the first of CERTIFICATE_POINTS where
    C(x0, y) is not constant: a second one would only repeat the work on
    every invariant curve.  The residue is taken by the Horner rule of
    ``_clear_slope`` with every product reduced mod C(x0, y), so its cost
    does not depend on the size of G.
    """
    q = CERTIFICATE_PRIME
    for x0, _ in CERTIFICATE_POINTS:
        modulus = _specialise_mod(curve, "y", q, x=x0)
        if len(modulus) > 1:
            break
    else:
        return False

    def residue(poly: MultiPoly) -> list[int]:
        return _rem_mod(_specialise_mod(poly, "y", q, x=x0), modulus, q)

    n = len(modulus) - 1
    # C_y(x0, y) is the y-derivative of C(x0, y), nonzero as n < q
    c_y = [(n - i) * c % q for i, c in enumerate(modulus[:-1])]
    minus_c_x = [-c % q for c in residue(curve.derivative("x"))]
    k = len(p_coefficients) - 1
    g, c_y_power = residue(p_coefficients[k]), c_y
    for i in range(k - 1, -1, -1):
        g = _add_mod(_mul_mod(g, minus_c_x, q),
                     _mul_mod(residue(p_coefficients[i]), c_y_power, q), q)
        g = _rem_mod(g, modulus, q)
        if i:
            c_y_power = _rem_mod(_mul_mod(c_y_power, c_y, q), modulus, q)
    return bool(g)


def is_invariant(web: ImplicitWeb, curve: MultiPoly) -> bool:
    """Exact invariance of the plane curve C(x, y) = 0 under the web.

    On the curve the slope is p = -C_x / C_y, so C is invariant exactly
    when C divides G = sum_i a_i * (-C_x)^i * C_y^(k-i), the cleared
    numerator of F along the curve.  A nonzero residue of
    ``_certified_not_dividing`` proves that it does not; only otherwise is
    G expanded and divided exactly.  For a curve in x alone (C_y = 0) the
    sum is a_k * (-C_x)^k, so a vertical line is invariant exactly when
    slope infinity is a branch along it; the factor p^m of F, horizontal
    branches, is stripped first, as on C it only adds (-C_x)^m to G, and
    the certificate, which specialises x, is skipped.  A constant C is
    rejected.
    """
    if not curve.uses_only({"x", "y"}):
        raise ValueError("curves must be polynomials in x and y only")
    if curve.total_degree() < 1:
        raise ValueError("curve polynomial is constant")
    curve = curve.primitive_part()
    coefficients = web.f.coefficient_list("p")
    c_y = curve.derivative("y")
    if c_y.is_zero:
        coefficients = coefficients[next(i for i, a in enumerate(coefficients) if not a.is_zero):]
    elif _certified_not_dividing(coefficients, curve):
        return False
    return curve.divides(_clear_slope(coefficients, c_y, curve.derivative("x")))


@dataclass(frozen=True)
class WebReport:
    """Everything the geometric pipeline measures for one web (and curve)."""

    k: int
    degree: int
    polar_curve_degree: int
    polar_curve_expected: int
    polar_check: bool
    degree_bound: int
    curve_degree: int | None = None
    invariant: bool | None = None
    bound_check: str = "skipped"  # "holds" | "violated" | "skipped"

    def to_dict(self) -> dict:
        out = dict(vars(self))
        if self.curve_degree is None:
            del out["curve_degree"], out["invariant"], out["bound_check"]
        return out


def end_to_end_check(web: ImplicitWeb, curve: MultiPoly | None = None) -> WebReport:
    """Measure (d_0, d_1) = (k, deg W) geometrically and hold the calculus to it.

    The measured numbers become ``WebCharNumbers(n=2, p=1, k=k, d=(k, deg W))``.
    The expected polar degree is ``polar_degree_web(numbers, 1)`` and the
    degree bound is ``hypersurface_degree_bound(numbers).overall``; both are
    cross-checked there against the ring integral.  The measured polar
    degree is the degree in x and y of the polar curve through a symbolic
    generic point, read off F's terms by ``polar_curve_degree``.  When a
    curve is supplied, its invariance is decided and its degree checked
    against the bound (meaningful when the curve's projective closure is
    smooth, which the caller asserts)."""
    k = web.k
    degree = web_degree(web)
    numbers = WebCharNumbers(n=2, p=1, k=k, d=(k, degree))
    polar_deg = polar_curve_degree(web)
    bound = hypersurface_degree_bound(numbers).overall
    expected = polar_degree_web(numbers, 1)
    curve_fields = {}
    if curve is not None:
        invariant = is_invariant(web, curve)
        curve_degree = curve.total_degree()
        if invariant:
            bound_check = "holds" if curve_degree <= bound else "violated"
        else:
            bound_check = "skipped"
        curve_fields = {
            "curve_degree": curve_degree,
            "invariant": invariant,
            "bound_check": bound_check,
        }
    return WebReport(
        k=k,
        degree=degree,
        polar_curve_degree=polar_deg,
        polar_curve_expected=expected,
        polar_check=polar_deg == expected,
        degree_bound=bound,
        **curve_fields,
    )
