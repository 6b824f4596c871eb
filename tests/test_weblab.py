"""Geometric measurements on explicit plane webs.

Degrees are validated three independent ways wherever possible: per-line
tangency counts, the slope-elimination polar curve (whose total degree must
be k + degree), and the chart-at-infinity picture.  The exact degree and
polar curve, computed for a symbolic generic line and point, are compared
with the sampled lines and points and the pencil resultant they replaced,
kept here as references.  Discriminants are checked against sympy.
"""

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import webpolar
import webpolar.weblab as weblab
from tests_support import twist_degree
from webpolar.multipoly import MultiPoly, _bezout_resultant, resultant, variables
from webpolar.weblab import (
    CERTIFICATE_POINTS,
    CERTIFICATE_PRIME,
    AffineLine,
    DegenerateSampleError,
    ImplicitWeb,
    discriminant_locus,
    end_to_end_check,
    is_invariant,
    polar_curve,
    polar_curve_degree,
    restriction_to_line,
    sample_line,
    sample_point,
    tangency_with_line,
    _certified_not_dividing,
    _clear_slope,
    _gcd_mod,
    web_degree,
)

X, Y, P, T, U = variables("x", "y", "p", "t", "u")

CUSP_WEB = P ** 2 - X        # branches y = +-2/3 x^(3/2) + const
PARABOLA_WEB = P ** 2 - Y    # branches are translated parabolas 4y = (x+c)^2
CIRCLE_FOLIATION = X + Y * P  # level curves of x^2 + y^2


def expanded_triple_pencil():
    return (P - 1) * (P - 2) * (P - 3)


# vanishes at every certificate point, so a web whose leading p-coefficient
# carries it can only be validated by the symbolic discriminant
UNCERTIFIABLE = (X - CERTIFICATE_POINTS[0][0]) * (X - CERTIFICATE_POINTS[1][0])


def symbolic_discriminant(f):
    return resultant(f, f.derivative("p"), "p")


def integer_certificate(f):
    """The certificate the residue replaced: the exact univariate
    Res_p(F(x0, y0, p), F_p(x0, y0, p)) at the certificate points."""
    k = f.degree("p")
    for x0, y0 in CERTIFICATE_POINTS:
        specialised = [0] * (k + 1)
        for exps, coeff in f.terms().items():
            specialised[exps[2]] += coeff * x0 ** exps[0] * y0 ** exps[1]
        if not specialised[k]:
            continue
        derivative = [i * c for i, c in enumerate(specialised)]
        if _bezout_resultant(specialised[::-1], derivative[:0:-1]):
            return True
    return False


def unvalidated_web(f):
    """An ``ImplicitWeb`` on f without the square-freeness check."""
    web = ImplicitWeb.__new__(ImplicitWeb)
    web.f, web.k = f, f.degree("p")
    return web


def modular_certificate(f):
    """``ImplicitWeb._certified_square_free`` without validating f first."""
    return unvalidated_web(f)._certified_square_free()


def homogenized_tangency_form(web, line):
    """The tangency divisor of the line as a binary form in t, u.

    The affine restriction g(x) is homogenized via x = t/u and twisted by
    u^e, e the order of tangency at the line's point at infinity, read off
    in the second chart where the line is v = b*u + a with slope b.  Every
    monomial has the same total degree, the count ``tangency_with_line``
    returns directly.
    """
    g = restriction_to_line(web, line)
    if g.is_zero:
        raise DegenerateSampleError(f"line {line} is tangent everywhere")
    t, u = variables("t", "u")
    at_infinity = web.infinity_chart.substitute(y=line.a + line.b * u, p=line.b)
    assert not at_infinity.is_zero
    infinity_order = at_infinity.min_degree("u")
    degree = g.degree("x")
    form = MultiPoly.zero()
    for exps, coeff in g.terms().items():
        form = form + coeff * t ** exps[0] * u ** (degree - exps[0] + infinity_order)
    return form


def sampled_web_degree(web, seed, max_lines=8):
    """The sampled degree the lab used before it was exact: the first two
    agreeing tangency counts with random lines."""
    previous = None
    for index in range(max_lines):
        try:
            value = tangency_with_line(web, sample_line(seed, index))
        except DegenerateSampleError:
            continue
        if value == previous:
            return value
        previous = value
    raise DegenerateSampleError(f"no two agreeing tangency counts within {max_lines} lines")


def pencil_resultant_polar(web, z):
    """The polar curve as the Sylvester resultant against the pencil through z."""
    z1, z2 = z
    return resultant(web.f, (Y - z2) - P * (X - z1), "p")


def expanded_web_degree(web):
    """The degree as the lab read it before: the x-degree of the expanded
    F(x, a*x + b, a), with a and b in the y and p slots."""
    return web.f.substitute(y=Y * X + P, p=Y).degree("x")


def swap_xy(poly):
    return poly.substitute(x=Y, y=X)


def swapped_chart(coefficients, curve):
    """The reciprocal-slope chart with x and y exchanged, for a curve without
    y: an independent reference for the lab's one chart."""
    swapped = [swap_xy(a) for a in reversed(coefficients)]
    while len(swapped) > 1 and swapped[-1].is_zero:
        swapped.pop()
    return swapped, swap_xy(curve)


def exact_invariance(web, curve):
    """The verdict by expansion and exact division alone, as before the
    modular certificate: C divides G = sum_i a_i (-C_x)^i C_y^(k-i), each
    term powered on its own."""
    coefficients = web.f.coefficient_list("p")
    if curve.derivative("y").is_zero:
        coefficients, curve = swapped_chart(coefficients, curve)
    c_x, c_y = curve.derivative("x"), curve.derivative("y")
    k = len(coefficients) - 1
    cleared = MultiPoly.sum(a * (-c_x) ** i * c_y ** (k - i) for i, a in enumerate(coefficients))
    return curve.primitive_part().divides(cleared)


def seeded_web_polynomial(rng, k, degree):
    terms = {}
    for c in range(k + 1):
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                terms[(a, b, c, 0, 0)] = rng.randint(-9, 9)
    terms[(0, degree, k, 0, 0)] = rng.choice([-2, -1, 1, 2])
    return MultiPoly(terms)


def _small_term_maps(max_exp, max_size, coefficients=st.integers(-5, 5)):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * 3, st.just(0), st.just(0)),
        coefficients,
        min_size=1,
        max_size=max_size,
    )


# small integers, and multiples of the certificate's prime, whose residues vanish
_RESIDUE_COEFFICIENTS = st.integers(-5, 5) | st.integers(-3, 3).map(
    lambda c: c * CERTIFICATE_PRIME
)


_SMALL_WEBS = st.one_of(
    st.builds(MultiPoly, _small_term_maps(2, 5)),
    # a squared factor of positive p-degree: never square-free
    st.builds(
        lambda a, b: MultiPoly(a) * MultiPoly(b) ** 2,
        _small_term_maps(1, 3),
        _small_term_maps(1, 2).filter(lambda t: any(e[2] for e, c in t.items() if c)),
    ),
)


def valid_web(terms):
    try:
        return ImplicitWeb(MultiPoly(terms))
    except ValueError:
        assume(False)


class TestImplicitWebValidation:
    def test_k_reads_slope_degree(self):
        assert ImplicitWeb(CUSP_WEB).k == 2
        assert ImplicitWeb(CIRCLE_FOLIATION).k == 1
        assert ImplicitWeb(expanded_triple_pencil()).k == 3

    def test_constant_in_slope_rejected(self):
        with pytest.raises(ValueError):
            ImplicitWeb(MultiPoly.const(5))
        with pytest.raises(ValueError):
            ImplicitWeb(X + Y)

    def test_square_factor_rejected(self):
        with pytest.raises(ValueError):
            ImplicitWeb((P - X) ** 2)
        with pytest.raises(ValueError):
            ImplicitWeb(P ** 2 * (P - 1) * Y)

    def test_slope_degree_capped(self):
        assert ImplicitWeb(P ** weblab.MAX_SLOPE_DEGREE - X).k == weblab.MAX_SLOPE_DEGREE
        with pytest.raises(ValueError, match="more than 100"):
            ImplicitWeb(P ** (weblab.MAX_SLOPE_DEGREE + 1) - X)

    def test_extra_variables_rejected(self):
        with pytest.raises(ValueError):
            ImplicitWeb(P + MultiPoly.variable("t"))


class TestSquareFreeCertificate:
    def test_certified_web_leaves_the_discriminant_for_later(self):
        web = ImplicitWeb(CUSP_WEB)
        assert "discriminant" not in vars(web)
        assert web.discriminant == symbolic_discriminant(CUSP_WEB)

    def test_fallback_accepts_a_square_free_web(self):
        f = UNCERTIFIABLE * P ** 2 + Y
        assert all(UNCERTIFIABLE.evaluate(x=x0, y=y0) == 0 for x0, y0 in CERTIFICATE_POINTS)
        web = ImplicitWeb(f)
        assert "discriminant" in vars(web)  # filled by the fallback
        assert discriminant_locus(web) == symbolic_discriminant(f).primitive_part()

    @pytest.mark.parametrize(
        "f",
        [(P ** 2 - X) ** 2 * (P + Y), UNCERTIFIABLE * (P ** 2 - X) ** 2 * (P + Y)],
        ids=["certificate-points-usable", "leading-coefficient-vanishes"],
    )
    def test_square_factor_rejected(self, f):
        with pytest.raises(ValueError, match="not square-free"):
            ImplicitWeb(f)

    @pytest.mark.parametrize(
        "f", [CUSP_WEB, expanded_triple_pencil(), UNCERTIFIABLE * P ** 2 + Y],
        ids=["certified", "constant-coefficients", "fallback"],
    )
    def test_symbolic_discriminant_computed_at_most_once(self, monkeypatch, f):
        calls = []

        def counting_resultant(g, h, var):
            if g is f:
                calls.append(var)
            return resultant(g, h, var)

        monkeypatch.setattr(weblab, "resultant", counting_resultant)
        web = ImplicitWeb(f)
        discriminant_locus(web)
        discriminant_locus(web)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "f", [P ** 2 - CERTIFICATE_PRIME * X, CERTIFICATE_PRIME * P ** 2 + X * P + Y],
        ids=["residue-vanishes", "leading-coefficient-vanishes"],
    )
    def test_fallback_when_the_residue_proves_nothing(self, f):
        # square-free over Z, and the integer certificate proves it, but every
        # residue mod q vanishes or every point is skipped
        assert integer_certificate(f)
        assert not modular_certificate(f)
        web = ImplicitWeb(f)
        assert "discriminant" in vars(web)
        assert not web.discriminant.is_zero

    def test_wide_leading_coefficient_is_certified(self):
        # the integer certificate ran for minutes on this one
        web = ImplicitWeb(X ** 100 * P ** 100 - Y)
        assert "discriminant" not in vars(web)

    @settings(max_examples=200, deadline=None)
    @given(
        leads=st.tuples(*[st.sampled_from([-3, -1, 1, 2, CERTIFICATE_PRIME + 2])] * 2),
        f_tail=st.lists(_RESIDUE_COEFFICIENTS, min_size=1, max_size=7),
        g_tail=st.lists(_RESIDUE_COEFFICIENTS, max_size=7),
    )
    def test_residue_is_the_integer_resultant_mod_q(self, leads, f_tail, g_tail):
        # descending coefficients, leading ones units mod q, deg f >= deg g:
        # the gcd mod q is constant exactly when the resultant is a unit
        q = CERTIFICATE_PRIME
        f = [leads[0]] + f_tail
        g = [leads[1]] + g_tail[:len(f_tail)]
        gcd = _gcd_mod([c % q for c in f], [c % q for c in g], q)
        assert (len(gcd) == 1) == (_bezout_resultant(f, g) % q != 0)

    @settings(max_examples=150, deadline=None)
    @given(f=_SMALL_WEBS | st.builds(MultiPoly, _small_term_maps(2, 5, _RESIDUE_COEFFICIENTS)))
    def test_modular_certificate_implies_the_integer_one(self, f):
        assume(f.degree("p") >= 1)
        if modular_certificate(f):
            assert integer_certificate(f)

    @settings(max_examples=150, deadline=None)
    @given(f=_SMALL_WEBS, certificate=st.booleans())
    def test_accepts_exactly_the_square_free(self, f, certificate):
        # without certificate points every web takes the symbolic fallback
        assume(f.degree("p") >= 1)
        square_free = not symbolic_discriminant(f).is_zero
        points = weblab.CERTIFICATE_POINTS if certificate else ()
        with mock.patch.object(weblab, "CERTIFICATE_POINTS", points):
            try:
                ImplicitWeb(f)
                accepted = True
            except ValueError:
                accepted = False
        assert accepted == square_free


class TestTangencyWithLine:
    @pytest.mark.parametrize("f", [CUSP_WEB, PARABOLA_WEB, CIRCLE_FOLIATION])
    def test_single_tangency_all_affine(self, f):
        web = ImplicitWeb(f)
        line = AffineLine(5, 7)
        # the whole divisor is affine: no mass at the point at infinity
        assert restriction_to_line(web, line).degree("x") == 1
        assert tangency_with_line(web, line) == 1

    def test_parallel_pencil_has_no_tangencies(self):
        web = ImplicitWeb(P - 4)
        assert tangency_with_line(web, AffineLine(2, 9)) == 0

    def test_radial_pencil_counts_zero_through_infinity(self):
        # leaves are the lines through the origin: the affine restriction is
        # constant and the infinity chart contributes nothing either
        web = ImplicitWeb(X * P - Y)
        assert tangency_with_line(web, AffineLine(3, 5)) == 0

    def test_line_through_the_base_point_is_degenerate(self):
        web = ImplicitWeb(X * P - Y)
        with pytest.raises(DegenerateSampleError):
            tangency_with_line(web, AffineLine(3, 0))

    def test_tangency_escaping_to_infinity_is_still_counted(self):
        # the slope field p = 1/x is tangent to a horizontal line only at
        # x = infinity: the affine restriction is the constant -1, yet the
        # homogenized divisor carries the count at u = 0
        web = ImplicitWeb(X * P - 1)
        generic = AffineLine(6, -2)
        assert tangency_with_line(web, generic) == 1
        horizontal = AffineLine(0, 5)
        # the whole divisor sits at infinity
        assert restriction_to_line(web, horizontal).degree("x") == 0
        assert tangency_with_line(web, horizontal) == 1

    def test_multiplicity_counted(self):
        # F = p^2 - x restricted to a vertical-slopeless line a = 0 gives
        # g = -x: a simple zero; the tangency scheme is reduced here
        web = ImplicitWeb(CUSP_WEB)
        assert tangency_with_line(web, AffineLine(0, 3)) == 1

    @settings(max_examples=150, deadline=None)
    @given(
        terms=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                      st.just(0), st.just(0)).filter(lambda e: e[0] + e[1] <= 2),
            st.integers(-5, 5),
            min_size=1,
            max_size=6,
        ),
        a=st.integers(-3, 3),
        b=st.integers(-3, 3),
    )
    def test_count_is_the_degree_of_the_homogenized_form(self, terms, a, b):
        try:
            web = ImplicitWeb(MultiPoly(terms))
        except ValueError:
            assume(False)
        line = AffineLine(a, b)
        try:
            form = homogenized_tangency_form(web, line)
        except DegenerateSampleError:
            with pytest.raises(DegenerateSampleError):
                tangency_with_line(web, line)
            return
        assert {sum(e) for e in form.terms()} == {form.total_degree()}
        assert tangency_with_line(web, line) == form.total_degree()


class TestWebDegree:
    @pytest.mark.parametrize(
        "f,expected",
        [
            (CUSP_WEB, 1),
            (PARABOLA_WEB, 1),
            (CIRCLE_FOLIATION, 1),
            (P - 4, 0),
            (X * P - Y, 0),
            (expanded_triple_pencil(), 0),
            (P - X, 1),
            (P ** 80 - X, 1),
        ],
    )
    def test_known_webs(self, f, expected):
        assert web_degree(ImplicitWeb(f)) == expected

    @settings(max_examples=200, deadline=None)
    @given(f=st.one_of(
        st.builds(MultiPoly, _small_term_maps(3, 8)),
        # F(x, a*x + b, a) is -b * G(x, a*x + b, a) for F = G * (x*p - y) + H,
        # so the top coefficients cancel and the walk goes below max(α+β)
        st.builds(lambda g, h: MultiPoly(g) * (X * P - Y) + MultiPoly(h),
                  _small_term_maps(2, 4), _small_term_maps(1, 3)),
    ))
    def test_matches_the_expanded_restriction(self, f):
        web = valid_web(f.terms())
        assert web_degree(web) == expanded_web_degree(web)

    def test_vanishing_restriction_is_an_internal_error(self):
        web = ImplicitWeb.__new__(ImplicitWeb)
        web.f, web.k = MultiPoly.zero(), 0
        with pytest.raises(RuntimeError, match="internal consistency"):
            web_degree(web)

    def test_line_choice_independence(self):
        web = ImplicitWeb(PARABOLA_WEB)
        values = set()
        for seed in range(5):
            for index in range(4):
                line = sample_line(seed, index)
                try:
                    values.add(tangency_with_line(web, line))
                except DegenerateSampleError:
                    continue
        assert values == {1}

    def test_generic_affine_foliations(self):
        # a foliation given by a generic affine 1-form of coefficient degree
        # e has degree e; three independent routes must agree (tangency
        # count, polar-curve degree minus one, and the chart-at-infinity
        # saturation)
        rng = random.Random(83)
        for e in (1, 2, 3):
            for _ in range(3):
                a = sum(
                    rng.randint(1, 9) * X ** i * Y ** (j - i)
                    for j in range(e + 1)
                    for i in range(j + 1)
                )
                b = sum(
                    rng.randint(1, 9) * X ** i * Y ** (j - i) + rng.randint(0, 3)
                    for j in range(e + 1)
                    for i in range(j + 1)
                )
                web = ImplicitWeb(a + b * P)
                measured = web_degree(web)
                assert measured == e
                pc = polar_curve(web, (4, 7))
                assert pc.total_degree() - 1 == measured

    @settings(max_examples=150, deadline=None)
    @given(terms=_small_term_maps(2, 6), seed=st.integers(0, 10 ** 6))
    def test_matches_two_agreeing_sampled_lines(self, terms, seed):
        web = valid_web(terms)
        assert web_degree(web) == sampled_web_degree(web, seed)
        # the symbolic line v = b*u + a of the chart at infinity (a and b in
        # the x and t slots) is not tangent at u = 0
        assert web.infinity_chart.substitute(y=X + T * U, p=T).min_degree("u") == 0


class TestPolarCurve:
    def test_cusp_web_polar(self):
        web = ImplicitWeb(CUSP_WEB)
        for z in [(0, 0), (3, 5), (-7, 2)]:
            expected = (Y - z[1]) ** 2 - X * (X - z[0]) ** 2
            assert polar_curve(web, z) == expected
            assert polar_curve(web, z).total_degree() == 3

    def test_circle_foliation_polar(self):
        web = ImplicitWeb(CIRCLE_FOLIATION)
        for z in [(1, 1), (3, -5)]:
            expected = X * (X - z[0]) + Y * (Y - z[1])
            assert polar_curve(web, z) == expected
            assert polar_curve(web, z).total_degree() == 2

    def test_parabola_web_polar(self):
        web = ImplicitWeb(PARABOLA_WEB)
        z = (4, 9)
        assert polar_curve(web, z) == (Y - 9) ** 2 - Y * (X - 4) ** 2

    def test_triple_pencil_polar_splits_into_three_lines(self):
        web = ImplicitWeb(expanded_triple_pencil())
        z = (2, 3)
        product = MultiPoly.one()
        for slope in (1, 2, 3):
            product = product * ((Y - 3) - slope * (X - 2))
        ours = polar_curve(web, z)
        assert ours in (product, -product)
        assert ours.total_degree() == 3

    def test_degree_is_k_plus_web_degree(self):
        rng = random.Random(89)
        for f in [CUSP_WEB, PARABOLA_WEB, CIRCLE_FOLIATION, P ** 2 - X * Y]:
            web = ImplicitWeb(f)
            z = (rng.randint(-99, 99), rng.randint(-99, 99))
            assert polar_curve(web, z).total_degree() == web.k + web_degree(web)

    def test_degenerate_pencil_raises(self):
        # every curve through z of the pencil web through z degenerates
        web = ImplicitWeb((Y - 3) - P * (X - 2))
        with pytest.raises(DegenerateSampleError):
            polar_curve(web, (2, 3))

    @settings(max_examples=150, deadline=None)
    @given(terms=_small_term_maps(2, 6), z=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_equals_the_pencil_resultant(self, terms, z):
        web = valid_web(terms)
        expected = pencil_resultant_polar(web, z)
        if expected.is_zero:
            with pytest.raises(DegenerateSampleError):
                polar_curve(web, z)
        else:
            assert polar_curve(web, z) == expected.primitive_part()
        # the same identity with the point symbolic in the t and u slots
        assert polar_curve(web, (T, U)) == pencil_resultant_polar(web, (T, U)).primitive_part()

    @settings(max_examples=150, deadline=None)
    @given(terms=_small_term_maps(2, 6), seed=st.integers(0, 10 ** 6))
    def test_generic_degree_matches_a_sampled_point(self, terms, seed):
        web = valid_web(terms)
        try:
            sampled = polar_curve(web, sample_point(seed, 0)).total_degree()
        except DegenerateSampleError:
            assume(False)
        assert end_to_end_check(web).polar_curve_degree == sampled


def expanded_polar_degree(web):
    """The reference polar degree: the x/y-degree of the polar curve
    through the symbolic point (t, u), expanded."""
    return polar_curve(web, (T, U)).total_degree("x", "y")


RADIAL = X * P - Y  # the pencil of lines through the origin


class TestPolarCurveDegree:
    @pytest.mark.parametrize("f, degree", [
        (CUSP_WEB, 3),  # the web_plain golden
        (PARABOLA_WEB, 3),  # the web_curve golden
        (CIRCLE_FOLIATION, 2),
        (RADIAL, 1),
        (RADIAL * (P - X), 3),
        (RADIAL ** 2 + P, 2),
        (RADIAL * (P ** 2 - X * Y - 1), 5),  # one step below top + k = 6
        (RADIAL ** 3 + X * P, 4),  # two steps below top + k = 6
    ], ids=["cusp", "parabola", "circles", "radial", "radial-times-line", "radial-squared-plus-p",
            "radial-times-a-web", "radial-cubed-plus-x-p"])
    def test_values(self, f, degree):
        web = unvalidated_web(f)
        assert polar_curve_degree(web) == expanded_polar_degree(web) == degree

    @settings(max_examples=200, deadline=None)
    @given(
        terms=_small_term_maps(2, 5),
        radial_factor=st.integers(0, 2),
        added_power=st.integers(0, 5),
        added_coefficient=st.integers(-2, 2),
        p_power=st.integers(0, 2),
    )
    def test_equals_the_expanded_curve(self, terms, radial_factor, added_power,
                                       added_coefficient, p_power):
        # radial factors and added powers of x*p - y cancel top forms; a
        # factor p^m is not square-free, and both sides read only F's terms
        f = (MultiPoly(terms) * RADIAL ** radial_factor
             + added_coefficient * RADIAL ** added_power) * P ** p_power
        assume(1 <= f.degree("p") <= 5)
        web = unvalidated_web(f)
        assert polar_curve_degree(web) == expanded_polar_degree(web)


class TestDiscriminantLocus:
    def test_cusp_web(self):
        assert discriminant_locus(ImplicitWeb(CUSP_WEB)) == -X

    def test_parabola_web(self):
        assert discriminant_locus(ImplicitWeb(PARABOLA_WEB)) == -Y

    def test_foliations_have_constant_discriminant(self):
        web = ImplicitWeb(P - (X ** 2 + Y))
        assert discriminant_locus(web).total_degree() == 0

    @pytest.mark.parametrize(
        "seed,k,degree,fallback",
        [(0, 2, 1, False), (1, 3, 2, False), (2, 2, 3, False), (3, 3, 3, False),
         (4, 2, 2, True), (5, 3, 1, True)],
    )
    def test_seeded_webs_match_the_symbolic_discriminant(self, seed, k, degree, fallback):
        # exactly Res_p(F, F_p) over its content, also on the fallback path
        from math import gcd

        from tests_support import to_sympy_poly

        f = seeded_web_polynomial(random.Random(f"discriminant:{seed}"), k, degree)
        if fallback:
            f = UNCERTIFIABLE * f
        ours = discriminant_locus(ImplicitWeb(f))
        assert ours == symbolic_discriminant(f).primitive_part()
        x, y, p = sympy.symbols("x y p")
        theirs = sympy.resultant(to_sympy_poly(f), sympy.diff(to_sympy_poly(f), p), p)
        content = gcd(*sympy.Poly(theirs, x, y).coeffs())
        assert sympy.expand(theirs - content * to_sympy_poly(ours)) == 0

    def test_against_sympy(self):
        from tests_support import to_sympy_poly

        x, y, p = sympy.symbols("x y p")
        for f in [CUSP_WEB, PARABOLA_WEB, P ** 2 - X * Y, expanded_triple_pencil()]:
            ours = to_sympy_poly(discriminant_locus(ImplicitWeb(f)))
            theirs = sympy.resultant(to_sympy_poly(f), sympy.diff(to_sympy_poly(f), p), p)
            # equality up to the stripped integer content
            quotient = sympy.simplify(theirs / ours) if ours != 0 else None
            assert quotient is not None and quotient.is_constant()


class TestIsInvariant:
    def test_translated_parabolas(self):
        web = ImplicitWeb(PARABOLA_WEB)
        for c in range(-3, 4):
            assert is_invariant(web, 4 * Y - (X + c) ** 2)

    def test_cusp_web_axis_not_invariant(self):
        assert not is_invariant(ImplicitWeb(CUSP_WEB), Y)

    def test_circles_invariant_under_circle_foliation(self):
        web = ImplicitWeb(CIRCLE_FOLIATION)
        for r2 in (1, 4, 25):
            assert is_invariant(web, X ** 2 + Y ** 2 - r2)

    def test_generic_circle_not_invariant(self):
        web = ImplicitWeb(CIRCLE_FOLIATION)
        assert not is_invariant(web, (X - 1) ** 2 + Y ** 2 - 4)

    def test_vertical_line_along_a_vertical_branch(self):
        # the branch along x = 1 is vertical: a_k = x - 1 vanishes there, so
        # slope infinity is a root, and G = a_k (-C_x)^k in the same chart
        web = ImplicitWeb((X - 1) * P ** 2 - Y)
        assert is_invariant(web, X - 1)
        assert not is_invariant(web, X - 2)

    def test_invariance_is_chart_stable(self):
        # swapping the roles of x and y everywhere must not change verdicts
        web = ImplicitWeb(PARABOLA_WEB)
        swapped_f = MultiPoly.zero()
        coeffs = PARABOLA_WEB.coefficient_list("p")
        k = len(coeffs) - 1
        for i, a in enumerate(coeffs):
            swapped_f = swapped_f + swap_xy(a) * P ** (k - i)
        swapped_web = ImplicitWeb(swapped_f)
        for c in range(-2, 3):
            curve = 4 * Y - (X + c) ** 2
            assert is_invariant(web, curve) == is_invariant(swapped_web, swap_xy(curve))

    @settings(max_examples=150, deadline=None)
    @given(
        curve_terms=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0), st.just(0), st.just(0)),
            st.integers(-3, 3), min_size=1, max_size=4,
        ),
        g_terms=_small_term_maps(1, 3),
        h_terms=_small_term_maps(1, 3),
        planted=st.booleans(),
    )
    def test_invariance_is_stable_under_swapping_x_and_y(
        self, curve_terms, g_terms, h_terms, planted
    ):
        curve = MultiPoly(curve_terms)
        assume(curve.total_degree() >= 1)
        g, h = MultiPoly(g_terms), MultiPoly(h_terms)
        if planted:
            # on C = 0 the slope -C_x / C_y is a root of F
            f = (curve.derivative("y") * P + curve.derivative("x")) * g + curve * h
        else:
            f = g * P + h
        coeffs = f.coefficient_list("p")
        # p dividing F puts a branch at p = infinity in the swapped chart,
        # which a polynomial in p cannot carry
        assume(len(coeffs) > 1 and not coeffs[0].is_zero)
        k = len(coeffs) - 1
        web = valid_web(f.terms())
        swapped_web = ImplicitWeb(MultiPoly.sum(swap_xy(a) * P ** (k - i)
                                                for i, a in enumerate(coeffs)))
        verdict = is_invariant(web, curve)
        assert is_invariant(swapped_web, swap_xy(curve)) == verdict
        if planted and not curve.derivative("y").is_zero:
            assert verdict

    @settings(max_examples=200, deadline=None)
    @given(
        curve_terms=st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.just(0), st.just(0), st.just(0)),
            st.integers(-3, 3), min_size=1, max_size=5,
        ),
        content=st.sampled_from([1, 1, -2, 6]),
        g_terms=_small_term_maps(1, 3),
        h_terms=_small_term_maps(1, 3),
        kind=st.sampled_from(["random", "planted", "vertical"]),
        p_power=st.sampled_from([0, 0, 1, 2]),
    )
    def test_verdict_is_the_exact_division(
        self, curve_terms, content, g_terms, h_terms, kind, p_power
    ):
        curve = MultiPoly(curve_terms)
        if kind == "vertical":
            curve = curve.substitute(y=X + 1)  # a curve in x alone: the swapped chart
        curve = content * curve
        assume(curve.total_degree() >= 1)
        g, h = MultiPoly(g_terms), MultiPoly(h_terms)
        if kind == "random":
            f = g * P + h
        else:
            # C = 0 is invariant where the slope -C_x / C_y (for a vertical
            # curve, p = infinity) is a root of F
            f = (curve.derivative("y") * P + curve.derivative("x")) * g + curve * h
        # a factor p^m puts horizontal branches into the web
        web = valid_web((f * P ** p_power).terms())
        assert is_invariant(web, curve) == exact_invariance(web, curve)

    @settings(max_examples=200, deadline=None)
    @given(
        curve_coefficients=st.lists(st.integers(-4, 4), min_size=2, max_size=5),
        f_terms=_small_term_maps(2, 6),
        planted=st.booleans(),
        p_power=st.sampled_from([0, 0, 1, 2]),
    )
    def test_curve_in_x_alone_divides_the_leading_coefficient(
        self, curve_coefficients, f_terms, planted, p_power
    ):
        # a vertical line is invariant exactly when slope infinity is a
        # branch there, that is where a_k vanishes
        curve = MultiPoly.sum(c * X ** i for i, c in enumerate(curve_coefficients))
        assume(curve.total_degree() >= 1)
        x = sympy.Symbol("x")
        assume(sympy.Poly(curve_coefficients[::-1], x).is_sqf)
        f = MultiPoly(f_terms)
        k = f.degree("p")
        assume(k >= 1)
        if planted:
            # multiply a_k by C, so every root of C carries a vertical branch
            lead = f.coefficient_list("p")[-1]
            f = f + (curve - 1) * lead * P ** k
        web = valid_web((f * P ** p_power).terms())
        a_k = web.f.coefficient_list("p")[-1]
        verdict = is_invariant(web, curve)
        assert verdict == curve.primitive_part().divides(a_k)
        if planted:
            assert verdict

    @pytest.mark.parametrize("f,curve,verdict", [
        (P ** 2 + X * P, X ** 2, False),
        (P ** 2 + X * P, X, False),
        (X * P, X ** 2, False),
        # C | G is not invariance for a non-reduced curve: x = 0 is not
        # invariant under p^2 - y (ROADMAP item 3(b))
        (P ** 2 - Y, X ** 2, True),
        ((X - 1) * P ** 2 - Y, X - 1, True),
    ])
    def test_verdicts_on_curves_in_x_alone(self, f, curve, verdict):
        assert is_invariant(ImplicitWeb(f), curve) is verdict

    @settings(max_examples=200, deadline=None)
    @given(
        curve_terms=st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 3), st.just(0), st.just(0), st.just(0)),
            st.integers(-3, 3) | st.sampled_from([CERTIFICATE_PRIME, 2 * CERTIFICATE_PRIME]),
            min_size=1, max_size=5,
        ),
        f_terms=_small_term_maps(2, 6, _RESIDUE_COEFFICIENTS),
    )
    def test_certificate_implies_exact_non_invariance(self, curve_terms, f_terms):
        curve = MultiPoly(curve_terms).primitive_part()
        assume(not curve.derivative("y").is_zero)
        web = valid_web(f_terms)
        if _certified_not_dividing(web.f.coefficient_list("p"), curve):
            assert not exact_invariance(web, curve)

    def test_certificate_answers_without_expanding(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cleared numerator was expanded")

        monkeypatch.setattr(weblab, "_clear_slope", refuse)
        assert not is_invariant(ImplicitWeb(CUSP_WEB), Y)
        assert not is_invariant(ImplicitWeb(CIRCLE_FOLIATION), (X - 1) ** 2 + Y ** 2 - 4)

    def test_fallback_when_every_residue_vanishes(self, monkeypatch):
        # G = -(x - x0)(x - x1) vanishes at both certificate abscissae, so
        # only the exact division can answer, and y does not divide G
        web = ImplicitWeb(UNCERTIFIABLE * (P - 1))
        assert not _certified_not_dividing(web.f.coefficient_list("p"), Y)
        expansions = []

        def counting_clear_slope(*args):
            expansions.append(args)
            return _clear_slope(*args)

        monkeypatch.setattr(weblab, "_clear_slope", counting_clear_slope)
        assert not is_invariant(web, Y)
        assert len(expansions) == 1

    def test_high_degree_control_curve_answers_promptly(self):
        # expanding and dividing the cleared numerator of this degree-60
        # curve took about a minute; the residue proves non-invariance at once
        env = dict(os.environ, PYTHONPATH=str(Path(webpolar.__file__).parent.parent))
        completed = subprocess.run(
            [sys.executable, "-m", "webpolar", "web", "--f", "p^3 - x*p - y",
             "--curve", "(x+y+1)^60 - x"],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert completed.returncode == 2
        assert "NOT_INVARIANT" in completed.stdout

    @pytest.mark.xfail(strict=True, reason="C | G is not invariance of the zero set when C "
                                           "has a repeated factor; such curves are not refused")
    def test_repeated_factor_is_judged_by_its_zero_set(self):
        web = ImplicitWeb(P ** 3 - X * P - Y)
        line = X + Y + 1
        assert not is_invariant(web, line)
        assert is_invariant(web, line ** 2) == is_invariant(web, line)

    def test_invariant_lines_of_the_radial_pencil(self):
        web = ImplicitWeb(X * P - Y)
        assert is_invariant(web, Y - 5 * X)
        assert is_invariant(web, X)  # the vertical line through the base point
        assert not is_invariant(web, Y - X - 1)

    def test_constant_curve_rejected(self):
        with pytest.raises(ValueError):
            is_invariant(ImplicitWeb(CUSP_WEB), MultiPoly.const(3))

    def test_slope_variable_in_curve_rejected(self):
        with pytest.raises(ValueError):
            is_invariant(ImplicitWeb(CUSP_WEB), P - X)


class TestEndToEnd:
    def test_parabola_web_with_invariant_curve(self):
        report = end_to_end_check(ImplicitWeb(PARABOLA_WEB), 4 * Y - X ** 2)
        assert (report.k, report.degree) == (2, 1)
        assert report.polar_curve_degree == 3 and report.polar_check
        assert report.invariant and report.curve_degree == 2
        assert report.degree_bound == 4 and report.bound_check == "holds"

    def test_circle_foliation_with_invariant_circle(self):
        report = end_to_end_check(ImplicitWeb(CIRCLE_FOLIATION), X ** 2 + Y ** 2 - 1)
        assert (report.k, report.degree) == (1, 1)
        assert report.polar_curve_degree == 2 and report.polar_check
        assert report.invariant and report.bound_check == "holds"
        assert report.curve_degree == 2 and report.degree_bound == 3

    def test_cusp_web_with_non_invariant_curve(self):
        report = end_to_end_check(ImplicitWeb(CUSP_WEB), Y)
        assert (report.k, report.degree) == (2, 1)
        assert report.invariant is False
        assert report.bound_check == "skipped"

    def test_singular_invariant_curve_can_break_the_bound(self):
        # leaves of x*p - 5*y are y = c*x^5; the quintic leaf is invariant
        # but its projective closure is singular, so the smooth-hypersurface
        # bound deg <= k + deg + 1 = 3 rightly fails and must be reported
        web = ImplicitWeb(X * P - 5 * Y)
        quintic = Y - X ** 5
        assert is_invariant(web, quintic)
        report = end_to_end_check(web, quintic)
        assert (report.k, report.degree) == (1, 1)
        assert report.curve_degree == 5 and report.degree_bound == 3
        assert report.bound_check == "violated"

    def test_without_curve(self):
        report = end_to_end_check(ImplicitWeb(CUSP_WEB))
        assert report.invariant is None and report.curve_degree is None
        assert report.to_dict()["polar_check"] is True

    def test_polar_degree_of_the_radial_pencil(self):
        # the top forms of the terms in x and y cancel, so the polar curve
        # x*u - y*t through the symbolic point (t, u) is a line
        report = end_to_end_check(ImplicitWeb(X * P - Y))
        assert (report.k, report.degree, report.polar_curve_degree) == (1, 0, 1)
        assert report.polar_check

    def test_twist_bookkeeping_matches_measured_degree(self):
        # the defining form twisted by O(deg + k(n-p) + k) restricts to a
        # line as a binary form of degree twist - 2k, which must equal the
        # measured tangency count
        for f in [CUSP_WEB, PARABOLA_WEB, CIRCLE_FOLIATION, X * P - Y]:
            web = ImplicitWeb(f)
            degree = web_degree(web)
            assert twist_degree(web.k, 1, 2, degree) - 2 * web.k == degree
