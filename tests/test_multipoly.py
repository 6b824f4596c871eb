"""Exact polynomial arithmetic, division, and resultants.

Resultants and discriminant-style eliminations are cross-checked against an
independent oracle (sympy) and against root-sharing criteria at random
integer points, never against values this module produced itself.
"""

import operator
import random
from fractions import Fraction
from functools import reduce
from math import prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests_support import sylvester_integer_resultant, sylvester_matrix
from webpolar.exprparse import parse_poly_expr
from webpolar.multipoly import (
    MultiPoly,
    _bareiss_determinant,
    _bezout_layout,
    _bezout_resultant,
    _Packing,
    _use_kronecker,
    resultant,
    variables,
)

X, Y, P = variables("x", "y", "p")

_SYMPY_VARS = sympy.symbols("x y p t u")


def to_sympy(poly):
    acc = sympy.Integer(0)
    for exps, coeff in poly.terms().items():
        term = sympy.Integer(coeff)
        for sym, e in zip(_SYMPY_VARS, exps):
            if e:
                term *= sym ** e
        acc += term
    return acc


def random_poly(rng, max_terms=5, max_exp=3, span=9, slots=(0, 1, 2)):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0, 0, 0, 0, 0]
        for slot in slots:
            exps[slot] = rng.randint(0, max_exp)
        coeff = rng.randint(-span, span)
        if coeff:
            terms[tuple(exps)] = coeff
    return MultiPoly(terms)


_TERM_MAPS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3, st.integers(0, 1), st.just(0)),
    st.integers(-9, 9),
    max_size=5,
)


def _reference_exact_div(dividend, divisor):
    """Division that takes the largest remaining monomial with max() each
    step: the quadratic loop the heap-ordered division must reproduce."""
    remainder = dividend.terms()
    quotient = {}
    div_lm, div_lc = divisor.leading_term()
    while remainder:
        lm = max(remainder)
        delta = tuple(a - b for a, b in zip(lm, div_lm))
        if any(e < 0 for e in delta):
            return None
        q, r = divmod(remainder[lm], div_lc)
        if r:
            return None
        quotient[delta] = q
        for exps, coeff in divisor.terms().items():
            key = tuple(a + b for a, b in zip(delta, exps))
            updated = remainder.get(key, 0) - q * coeff
            if updated:
                remainder[key] = updated
            else:
                remainder.pop(key, None)
    return MultiPoly(quotient)


def _value(poly, point):
    """Value at an integer point (x, y, p, t, u), straight from the terms."""
    total = 0
    for exps, coeff in poly.terms().items():
        for value, e in zip(point, exps):
            coeff *= value ** e
        total += coeff
    return total


_POLYS = st.builds(MultiPoly, _TERM_MAPS)
_POINTS = st.tuples(*[st.integers(-5, 5)] * 5)


class TestArithmetic:
    def test_ring_laws(self):
        rng = random.Random(61)
        for _ in range(40):
            f, g, h = (random_poly(rng) for _ in range(3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_power_matches_repeated_product(self):
        f = X + 2 * Y - 3
        acc = MultiPoly.one()
        for e in range(6):
            assert f ** e == acc
            acc = acc * f

    def test_degrees(self):
        f = X ** 2 * Y + P ** 4 - 7
        assert f.degree("x") == 2
        assert f.degree("y") == 1
        assert f.degree("p") == 4
        assert f.total_degree() == 4
        assert MultiPoly.zero().degree("x") == -1

    def test_coefficient_list(self):
        f = (X + 1) * P ** 2 + Y * P - 5
        coeffs = f.coefficient_list("p")
        assert coeffs[0] == MultiPoly.const(-5)
        assert coeffs[1] == Y
        assert coeffs[2] == X + 1

    def test_substitute_line(self):
        f = P ** 2 - X
        g = f.substitute(y=3 * X + 1, p=2)
        assert g == 4 - X

    def test_substitute_polynomial(self):
        f = X * Y
        assert f.substitute(x=Y + 1) == Y ** 2 + Y

    @settings(max_examples=200, deadline=None)
    @given(f=_POLYS, g=_POLYS, h=_POLYS, point=_POINTS)
    def test_substitute_commutes_with_evaluation(self, f, g, h, point):
        image = (_value(g, point), _value(h, point), *point[2:])
        assert _value(f.substitute(x=g, y=h), point) == _value(f, image)

    @settings(max_examples=200, deadline=None)
    @given(polys=st.lists(_POLYS, max_size=6), cancel=st.booleans())
    def test_sum_is_a_fold_of_addition(self, polys, cancel):
        if cancel:
            polys = polys + [-f for f in reversed(polys)]
        total = MultiPoly.sum(polys)
        assert total == reduce(operator.add, polys, MultiPoly.zero())
        assert 0 not in total.terms().values()
        if cancel:
            assert total.is_zero

    @settings(max_examples=200, deadline=None)
    @given(a=_POLYS, b=_POLYS, overlap=st.sampled_from(["none", "all", "some"]))
    def test_subtraction_adds_the_negation(self, a, b, overlap):
        if overlap == "all":
            b = a  # the difference cancels to zero
        elif overlap == "some":
            b = a + b
        difference = a - b
        assert difference == a + (-b)
        assert 0 not in difference.terms().values()
        if overlap == "all":
            assert difference.is_zero
        assert a - 3 == a + (-3) and 3 - a == 3 + (-a)

    def test_evaluate(self):
        f = X ** 2 + Y * P - 4
        assert f.evaluate(x=3, y=2, p=5) == 15

    def test_derivative(self):
        f = X ** 3 * P + Y ** 2
        assert f.derivative("x") == 3 * X ** 2 * P
        assert f.derivative("y") == 2 * Y
        assert f.derivative("t").is_zero

    def test_content_and_primitive_part(self):
        f = 6 * X - 9 * Y
        assert f.content() == 3
        assert f.primitive_part() == 2 * X - 3 * Y
        assert (-4 * X).primitive_part() == -X  # sign of terms is kept

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.variable("z")

    @pytest.mark.parametrize("exps", [(0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0),
                                      (0, 0, 0, 0, 2 ** 63)])
    def test_bad_exponent_tuple_rejected(self, exps):
        with pytest.raises(ValueError):
            MultiPoly({exps: 1})

    def test_power_past_the_exponent_field_rejected(self):
        assert (X ** (2 ** 62)).degree("x") == 2 ** 62
        with pytest.raises(ValueError):
            Y ** (2 ** 63)


class TestExactDivision:
    def test_difference_of_squares(self):
        assert (X ** 2 - Y ** 2).try_exact_div(X - Y) == X + Y

    def test_non_divisible_returns_none(self):
        assert (X ** 2 + 1).try_exact_div(X + Y) is None
        assert (2 * X).try_exact_div(3 * X) is None  # integer quotient required

    def test_random_products_divide_back(self):
        rng = random.Random(67)
        for _ in range(60):
            f = random_poly(rng)
            g = random_poly(rng)
            if g.is_zero:
                continue
            assert (f * g).try_exact_div(g) == f

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            X.try_exact_div(MultiPoly.zero())

    def test_floor_division_is_the_exact_quotient(self):
        assert (X ** 2 - Y ** 2) // (X - Y) == X + Y
        assert (6 * X * Y - 3) // MultiPoly.const(3) == 2 * X * Y - 1
        with pytest.raises(ArithmeticError, match="not divisible"):
            (X ** 2 + 1) // (X + Y)
        with pytest.raises(ArithmeticError, match="not divisible"):
            (2 * X) // (3 * X)  # integer quotient required
        with pytest.raises(ZeroDivisionError):
            X // MultiPoly.zero()

    @pytest.mark.parametrize("dividend,divisor", [
        ("x", "u"), ("x^2*y", "x*y^2"), ("x*t", "t^2"),
    ])
    def test_divisor_larger_only_in_a_less_significant_field(self, dividend, divisor):
        # the packed difference of the monomials is positive, but it borrows
        # from the more significant field
        names = set("xyptu")
        assert parse_poly_expr(dividend, names).try_exact_div(parse_poly_expr(divisor, names)) is None

    @settings(max_examples=300, deadline=None)
    @given(f=st.builds(MultiPoly, _TERM_MAPS), g=st.builds(MultiPoly, _TERM_MAPS))
    def test_products_divide_back(self, f, g):
        if not g.is_zero:
            assert (f * g).try_exact_div(g) == f
            assert (f * g) // g == f

    @settings(max_examples=300, deadline=None)
    @given(
        f=st.builds(MultiPoly, _TERM_MAPS),
        g=st.builds(MultiPoly, _TERM_MAPS),
        noise=st.builds(MultiPoly, _TERM_MAPS),
    )
    def test_agrees_with_largest_monomial_division(self, f, g, noise):
        # f*g + noise is mostly not a multiple of g: the quotient, or the
        # None, must be exactly what the reference loop gives
        if g.is_zero:
            return
        dividend = f * g + noise
        assert dividend.try_exact_div(g) == _reference_exact_div(dividend, g)


def _univariate_gcd_degree(f_coeffs, g_coeffs):
    """Degree of gcd over the rationals, by plain Euclid on Fractions."""

    def strip(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    a = strip([Fraction(v) for v in f_coeffs])
    b = strip([Fraction(v) for v in g_coeffs])
    while b:
        remainder = a[:]
        while remainder and len(remainder) >= len(b):
            factor = remainder[-1] / b[-1]
            shift = len(remainder) - len(b)
            for i, bv in enumerate(b):
                remainder[i + shift] -= factor * bv
            remainder.pop()  # leading term cancelled exactly
            strip(remainder)
        a, b = b, remainder
    return len(a) - 1


class TestResultant:
    def test_evaluation_property(self):
        # the resultant against p - y is F with p replaced by y
        assert resultant(P ** 2 - X, P - Y, "p") == Y ** 2 - X

    def test_symmetry_up_to_sign(self):
        rng = random.Random(71)
        done = 0
        while done < 25:
            f = random_poly(rng, slots=(0, 1, 2))
            g = random_poly(rng, slots=(0, 1, 2))
            df, dg = f.degree("p"), g.degree("p")
            if df < 1 or dg < 1:
                continue
            sign = (-1) ** (df * dg)
            assert resultant(f, g, "p") == sign * resultant(g, f, "p")
            done += 1

    def test_pencil_elimination_matches_hand_expansion(self):
        for z1, z2 in [(0, 0), (3, 5), (-2, 7)]:
            pencil = (Y - z2) - P * (X - z1)
            assert resultant(P ** 2 - X, pencil, "p") == (Y - z2) ** 2 - X * (X - z1) ** 2
            assert resultant(X + Y * P, pencil, "p") == X * (X - z1) + Y * (Y - z2)
            assert resultant(P ** 2 - Y, pencil, "p") == (Y - z2) ** 2 - Y * (X - z1) ** 2

    def test_against_sympy_oracle(self):
        rng = random.Random(73)
        x, y, p = _SYMPY_VARS[:3]
        done = 0
        while done < 30:
            f = random_poly(rng, max_terms=4, max_exp=2)
            g = random_poly(rng, max_terms=4, max_exp=2)
            if f.degree("p") < 1 or g.degree("p") < 1:
                continue
            ours = to_sympy(resultant(f, g, "p"))
            theirs = sympy.resultant(to_sympy(f), to_sympy(g), p)
            assert sympy.expand(ours - theirs) == 0
            done += 1

    def test_vanishes_exactly_at_shared_roots(self):
        rng = random.Random(79)
        done = 0
        while done < 40:
            f = random_poly(rng, max_terms=4, max_exp=2)
            g = random_poly(rng, max_terms=4, max_exp=2)
            if f.degree("p") < 1 or g.degree("p") < 1:
                continue
            res = resultant(f, g, "p")
            x0 = rng.randint(-20, 20)
            y0 = rng.randint(-20, 20)
            f0 = [c.evaluate(x=x0, y=y0) for c in f.coefficient_list("p")]
            g0 = [c.evaluate(x=x0, y=y0) for c in g.coefficient_list("p")]
            # degree drop at the sample point changes what the specialized
            # resultant means; only clean specializations are comparable
            if not f0[-1] or not g0[-1]:
                continue
            shares_root = _univariate_gcd_degree(f0, g0) >= 1
            assert (res.evaluate(x=x0, y=y0) == 0) == shares_root
            done += 1

    def test_degenerate_degrees(self):
        assert resultant(P ** 2 - X, Y, "p") == Y ** 2
        assert resultant(Y, P ** 2 - X, "p") == Y ** 2
        assert resultant(X + 1, Y + 1, "p") == MultiPoly.one()
        with pytest.raises(ValueError):
            resultant(MultiPoly.zero(), P, "p")

    def test_sylvester_shape(self):
        rows = sylvester_matrix(P ** 2 - X, P - Y, "p")
        assert len(rows) == 3 and all(len(r) == 3 for r in rows)
        with pytest.raises(ValueError):
            sylvester_matrix(X, P, "p")


_BIG = st.integers(-(2 ** 100), 2 ** 100)
_COEFFICIENTS = st.one_of(st.integers(-3, 3), st.integers(-9, 9), _BIG)


@st.composite
def _elimination_pairs(draw):
    """(f, g, var) with positive degree in var, over all five slots, with
    small or 100-bit coefficients of either sign; sometimes with a common
    factor (zero resultant) or in the form v^2 + a, v^2 + b*v + a, whose
    Sylvester matrix has a vanishing leading 3x3 minor (a zero pivot)."""
    var = draw(st.sampled_from(["x", "y", "p", "t", "u"]))
    v = MultiPoly.variable(var)
    polys = st.builds(
        MultiPoly,
        st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * 3, *[st.integers(0, 1)] * 2),
            _COEFFICIENTS,
            min_size=1,
            max_size=3,
        ),
    )
    shape = draw(st.sampled_from(["random", "common factor", "zero pivot"]))
    if shape == "zero pivot":
        a, b = (draw(polys).substitute(**{var: 1}) for _ in range(2))
        f, g = v ** 2 + a, v ** 2 + b * v + a
    else:
        f, g = (draw(polys) + draw(st.integers(1, 9)) * v ** draw(st.integers(1, 2))
                for _ in range(2))
        if shape == "common factor":
            common = v + draw(polys).substitute(**{var: 1})
            f, g = f * common, g * common
    assume(f.degree(var) >= 1 and g.degree(var) >= 1)
    # keep each example in milliseconds: both paths grow fast with size
    packing = _Packing(f, g, var)
    assume(packing.box * 8 * packing.width <= 1 << 16)
    return f, g, var


def kronecker(f, g, var, packing=None):
    """The packed path: one integer Bezout determinant at z = 2^b."""
    packing = packing or _Packing(f, g, var)
    return packing.unpack(_bezout_resultant(packing.evaluate(f), packing.evaluate(g)))


def symbolic(f, g, var):
    """The reference: symbolic Bareiss on the Sylvester matrix."""
    return _bareiss_determinant(sylvester_matrix(f, g, var))


def coefficients(poly, var):
    """Coefficients in ``var``, descending, as the Bezout helpers take them."""
    return list(reversed(poly.coefficient_list(var)))


class TestKroneckerResultant:
    """The packed integer determinant against symbolic Bareiss and sympy."""

    @settings(max_examples=300, deadline=None)
    @given(pair=_elimination_pairs())
    def test_matches_symbolic_bareiss(self, pair):
        f, g, var = pair
        assert kronecker(f, g, var) == symbolic(f, g, var)

    @settings(max_examples=100, deadline=None)
    @given(pair=_elimination_pairs())
    def test_antisymmetry(self, pair):
        f, g, var = pair
        sign = (-1) ** (f.degree(var) * g.degree(var))
        assert kronecker(f, g, var) == sign * kronecker(g, f, var)

    def test_common_factor_gives_zero(self):
        common = X * P - Y ** 2 + 7
        assert kronecker((P ** 2 + X) * common, (Y * P - 3) * common, "p").is_zero

    def test_zero_pivot(self):
        # the leading 3x3 minor of this Sylvester matrix vanishes, so the
        # reference exchanges rows; Res = prod over f's roots a of
        # g(a) = y*a, which is y^2 * x
        f, g = P ** 2 + X, P ** 2 + Y * P + X
        leading = [row[:3] for row in sylvester_matrix(f, g, "p")[:3]]
        assert _bareiss_determinant(leading).is_zero
        assert kronecker(f, g, "p") == symbolic(f, g, "p") == resultant(f, g, "p") == X * Y ** 2

    def test_zero_bezout_pivot(self):
        # g is padded by two zeros to degree 3, so the Bezout matrix has a
        # zero top-left entry and both Bezout paths exchange rows; with f of
        # odd degree, Res(f, p + y) = -f(-y) = y^3 - x
        f, g = P ** 3 + X, P + Y
        fc, gc = (coefficients(h, "p") for h in (f, g))
        assert _bezout_layout(fc, gc)[0][0].is_zero
        assert kronecker(f, g, "p") == _bezout_resultant(fc, gc)
        assert kronecker(f, g, "p") == symbolic(f, g, "p") == Y ** 3 - X

    def test_against_sympy(self):
        rng = random.Random(83)
        done = 0
        while done < 20:
            # sympy's resultant takes seconds on four-term inputs in five variables
            span = 2 ** rng.choice([3, 30, 100])
            f = random_poly(rng, max_terms=3, max_exp=2, span=span, slots=(0, 1, 2, 3, 4))
            g = random_poly(rng, max_terms=3, max_exp=2, span=span, slots=(0, 1, 2, 3, 4))
            var = rng.choice(["x", "y", "p", "t", "u"])
            if f.degree(var) < 1 or g.degree(var) < 1:
                continue
            ours = to_sympy(kronecker(f, g, var))
            theirs = sympy.resultant(to_sympy(f), to_sympy(g), _SYMPY_VARS["xyptu".index(var)])
            assert sympy.expand(ours - theirs) == 0
            done += 1

    @pytest.mark.parametrize(
        "c,g",
        [(64, P - 64), (100, P - 100), (100, P ** 2 + 100)],
        ids=["half", "carry", "beyond box"],
    )
    def test_consistency_check_fires_on_a_short_digit(self, c, g):
        # Res(p + c, g) = g(-c) is -128, -200 or 10100 and needs two bytes
        # per digit; with one byte its digits read back as a signed digit
        # of -128, a carry out of the top digit, or a digit beyond the box
        f = P + c
        packing = _Packing(f, g, "p")
        assert packing.box == 1 and packing.width > 1
        assert kronecker(f, g, "p", packing) == g.evaluate(p=-c)
        packing.width = 1
        with pytest.raises(RuntimeError, match="coefficient bound"):
            kronecker(f, g, "p", packing)


def _times_root(descending, root):
    """Descending coefficients of the given polynomial times (p - root)."""
    out = descending + [0]
    for i in range(1, len(out)):
        out[i] -= root * descending[i - 1]
    return out


_LEADS = st.one_of(st.integers(-9, 9), _BIG).filter(bool)


@st.composite
def _integer_pairs(draw, relation):
    """(fc, gc, common): descending integer coefficient lists of degrees 0-8
    with nonzero leading coefficients, deg f <, = or > deg g as ``relation``
    says; when ``common``, both have the root drawn last, so Res = 0."""
    if relation == "=":
        m = n = draw(st.integers(0, 8))
    else:
        low = draw(st.integers(0, 7))
        high = draw(st.integers(low + 1, 8))
        m, n = (low, high) if relation == "<" else (high, low)
    common = min(m, n) >= 1 and draw(st.booleans())
    fc, gc = ([draw(_LEADS)] + draw(st.lists(_COEFFICIENTS, min_size=d, max_size=d))
              for d in (m - common, n - common))
    if common:
        root = draw(st.integers(-9, 9))
        fc, gc = _times_root(fc, root), _times_root(gc, root)
    return fc, gc, common


@st.composite
def _sparse_pairs(draw):
    """(f, g) in x, y, p that ``_use_kronecker`` leaves to the symbolic path:
    two to four terms of x,y-degree up to 40 and p-degree up to 4, with
    small or 100-bit coefficients; g is f_p or drawn like f."""
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 40)] * 2, st.integers(0, 4), st.just(0), st.just(0)),
        _COEFFICIENTS.filter(bool),
        min_size=2,
        max_size=4,
    )
    f = MultiPoly(draw(terms))
    g = f.derivative("p") if draw(st.booleans()) else MultiPoly(draw(terms))
    assume(f.degree("p") >= 1 and g.degree("p") >= 1)
    assume(not _use_kronecker(f, g, _Packing(f, g, "p")))
    return f, g


# entries in [-2, 2] make zero pivots and row exchanges common
_SQUARE_MATRICES = st.integers(1, 6).flatmap(
    lambda size: st.lists(st.lists(st.integers(-2, 2), min_size=size, max_size=size),
                          min_size=size, max_size=size)
)


class TestBareissDeterminant:
    """One routine, with ``//`` as its division, on both entry types."""

    @settings(max_examples=200, deadline=None)
    @given(rows=_SQUARE_MATRICES)
    @example(rows=[[0, 2, 1], [3, 1, 4], [1, 5, 9]])  # zero first pivot
    @example(rows=[[1, 2, 3], [2, 4, 7], [5, 1, 1]])  # zero pivot after one step
    @example(rows=[[0, 1, 2], [0, 3, 4], [0, 5, 6]])  # zero column: no pivot at all
    def test_integer_and_constant_entries_agree(self, rows):
        det = _bareiss_determinant(rows)
        assert det == sympy.Matrix(rows).det()
        assert _bareiss_determinant([[MultiPoly.const(c) for c in row] for row in rows]) == det


class TestBezoutResultant:
    """Both Bezout paths against the Sylvester reference, sympy and the
    product of root differences."""

    @pytest.mark.parametrize("relation", ["<", "=", ">"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_integer_path_matches_sylvester(self, relation, data):
        fc, gc, common = data.draw(_integer_pairs(relation))
        res = _bezout_resultant(fc, gc)
        assert res == sylvester_integer_resultant(fc, gc)
        if common:
            assert res == 0

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(1, 7))
    def test_product_of_root_differences(self, m, n):
        # f = 2 prod (p - a_i), g = -3 prod (p - b_j):
        # Res(f, g) = 2^n (-3)^m prod (a_i - b_j), both signs and the
        # division by a_m^(m-n) pinned without any matrix
        rng = random.Random(10 * m + n)
        alphas = [2 * rng.randint(-5, 5) for _ in range(m)]
        betas = [2 * rng.randint(-5, 5) + 1 for _ in range(n)]  # odd: no shared root
        fc, gc = [2], [-3]
        for a in alphas:
            fc = _times_root(fc, a)
        for b in betas:
            gc = _times_root(gc, b)
        scale = 2 ** n * (-3) ** m
        assert _bezout_resultant(fc, gc) == scale * prod(a - b for a in alphas for b in betas)
        # the polynomial path, with every root of f moved by x and of g by y
        f = prod((P - a - X for a in alphas), start=MultiPoly.const(2))
        g = prod((P - b - Y for b in betas), start=MultiPoly.const(-3))
        expected = prod((X + a - Y - b for a in alphas for b in betas),
                        start=MultiPoly.const(scale))
        fc, gc = coefficients(f, "p"), coefficients(g, "p")
        assert _bezout_resultant(fc, gc) == expected
        assert resultant(f, g, "p") == expected

    def test_layout_is_the_bezoutian(self):
        # entry (i, j) is the coefficient of s^(m-1-i) t^(m-1-j) in
        # (f(s) g(t) - f(t) g(s)) / (s - t), read off by sympy
        s, t = sympy.symbols("s t")
        rng = random.Random(97)
        for _ in range(30):
            m = rng.randint(1, 6)
            fc = [rng.choice([-2, -1, 1, 3])] + [rng.randint(-9, 9) for _ in range(m)]
            gc = [rng.randint(-9, 9) for _ in range(rng.randint(1, m + 1))]
            f, g = sympy.Poly(fc, s).as_expr(), sympy.Poly(gc, s).as_expr()
            bezoutian = sympy.Poly(
                sympy.cancel((f * g.subs(s, t) - f.subs(s, t) * g) / (s - t)), s, t
            )
            entry = bezoutian.coeff_monomial
            assert _bezout_layout(fc, gc) == [
                [entry(s ** (m - 1 - i) * t ** (m - 1 - j)) for j in range(m)] for i in range(m)
            ]

    @settings(max_examples=60, deadline=None)
    @given(pair=_sparse_pairs())
    def test_symbolic_path_matches_sylvester(self, pair):
        f, g = pair
        assert resultant(f, g, "p") == symbolic(f, g, "p")

    @pytest.mark.parametrize("text_f,text_g", [
        ("x^40*p^3 + y^40*p + 1", "3*x^40*p^2 + y^40"),
        ("x^30*p^4 + y^30*p^2 + x*p + 7", "x^12*y^3*p^3 - y^20*p + 5"),
        ("x^12*y^3*p + 3*y^20", "x^25*p^4 + y^25*p^2 - x*y"),
    ])
    def test_symbolic_path_against_sympy(self, text_f, text_g):
        f, g = (parse_poly_expr(text, {"x", "y", "p"}) for text in (text_f, text_g))
        assert not _use_kronecker(f, g, _Packing(f, g, "p"))
        theirs = sympy.resultant(to_sympy(f), to_sympy(g), _SYMPY_VARS[2])
        assert sympy.expand(to_sympy(resultant(f, g, "p")) - theirs) == 0


class TestDispatch:
    """Which path ``resultant`` takes on inputs on either side of the rule."""

    @pytest.mark.parametrize("text", ["x^40*p^3 + y^40*p + 1", "x^30*p^4 + y^30*p^2 + x*p + 7"])
    def test_sparse_high_degree_stays_symbolic(self, text):
        f = parse_poly_expr(text, {"x", "y", "p"})
        g = f.derivative("p")
        assert not _use_kronecker(f, g, _Packing(f, g, "p"))
        assert resultant(f, g, "p") == symbolic(f, g, "p")

    def test_dense_web_is_packed(self):
        # k = 4, every p-coefficient of x,y-degree 3 with all 10 monomials
        rng = random.Random(89)
        f = MultiPoly({
            (a, b, c, 0, 0): rng.choice([v for v in range(-9, 10) if v])
            for c in range(5) for a in range(4) for b in range(4 - a)
        })
        g = f.derivative("p")
        assert _use_kronecker(f, g, _Packing(f, g, "p"))
        assert resultant(f, g, "p") == kronecker(f, g, "p")


class TestRendering:
    def test_slope_polynomial(self):
        assert str(P ** 2 - X) == "p^2 - x"

    def test_round_trip_examples(self):
        assert str(-X) == "-x"
        assert str(4 * Y - X ** 2) == "-x^2 + 4*y"
        assert str(MultiPoly.zero()) == "0"
        assert str(MultiPoly.const(-7)) == "-7"

    def test_doctests(self):
        import doctest

        import webpolar.multipoly
        import webpolar.polar
        import webpolar.ring
        import webpolar.weblab

        for module in (webpolar.multipoly, webpolar.ring, webpolar.polar, webpolar.weblab):
            failures = doctest.testmod(module).failed
            assert failures == 0, module.__name__
