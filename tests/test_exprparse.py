"""Grammar, error positions, and print/parse round trips."""

import random

import pytest

from webpolar.exprparse import (
    MAX_EXPANDED_TERMS,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING_DEPTH,
    MAX_SOURCE_LENGTH,
    ParseError,
    parse_expr,
    parse_poly_expr,
    parse_ring_expr,
)
from webpolar.multipoly import MultiPoly, variables
from webpolar.ring import RingElement, dual_hyperplane, hyperplane

X, Y, P = variables("x", "y", "p")


class TestGrammar:
    def test_ring_expression(self):
        h, c = hyperplane(2), dual_hyperplane(2)
        assert parse_ring_expr("h^2 - h*c", 2) == h ** 2 - h * c

    def test_web_polynomial(self):
        assert parse_poly_expr("p^2 - x", {"x", "y", "p"}) == P ** 2 - X

    def test_parentheses_and_literals(self):
        assert parse_poly_expr("(x + 2)*(x - 2)", {"x", "y"}) == X ** 2 - 4

    def test_leading_minus(self):
        assert parse_poly_expr("-x", {"x", "y"}) == -X
        assert parse_ring_expr("-h - c", 3) == -hyperplane(3) - dual_hyperplane(3)

    def test_power_binds_tighter_than_product(self):
        assert parse_poly_expr("2*x^3", {"x"}) == 2 * X ** 3

    def test_subtraction_associates_left(self):
        assert parse_poly_expr("x - 1 - 1", {"x"}) == X - 2

    def test_big_integers(self):
        big = 10 ** 40
        assert parse_poly_expr(f"{big}*x", {"x"}) == big * X


class TestErrors:
    def test_double_caret_position(self):
        with pytest.raises(ParseError) as err:
            parse_ring_expr("h^^2", 2)
        assert err.value.column == 3
        assert err.value.line == 1

    def test_negative_exponent(self):
        with pytest.raises(ParseError) as err:
            parse_ring_expr("h^-2", 2)
        assert "nonnegative" in str(err.value)

    def test_unknown_variable(self):
        with pytest.raises(ParseError) as err:
            parse_ring_expr("h + x", 2)
        assert "unknown variable 'x'" in str(err.value)
        assert err.value.column == 5

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_poly_expr("2x", {"x"})
        with pytest.raises(ParseError):
            parse_ring_expr("h c", 2)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_poly_expr("(x + 1", {"x"})

    def test_stray_character(self):
        with pytest.raises(ParseError) as err:
            parse_poly_expr("x + $", {"x"})
        assert err.value.column == 5

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("", {"x"})


class TestLimits:
    def test_nesting_at_the_limit_parses(self):
        depth = MAX_NESTING_DEPTH
        assert parse_poly_expr("(" * depth + "x" + ")" * depth, {"x"}) == X
        assert parse_poly_expr("(x*" * depth + "x" + ")" * depth, {"x"}) == X ** (depth + 1)

    def test_nesting_beyond_the_limit_rejected(self):
        depth = MAX_NESTING_DEPTH + 1
        with pytest.raises(ParseError) as err:
            parse_poly_expr("(" * depth + "x" + ")" * depth, {"x"})
        assert err.value.column == depth

    def test_long_sums_and_products_do_not_recurse(self):
        # far more terms than the interpreter's recursion limit
        assert parse_poly_expr("+".join(["x"] * 5000), {"x"}) == 5000 * X
        assert parse_ring_expr("*".join(["1"] * 5000) + "*h", 2) == hyperplane(2)

    def test_exponent_limit(self):
        assert parse_poly_expr(f"x^{MAX_EXPONENT}", {"x"}) == X ** MAX_EXPONENT
        with pytest.raises(ParseError) as err:
            parse_poly_expr(f"x^{MAX_EXPONENT + 1}", {"x"})
        assert err.value.column == 3

    def test_literal_digit_limit(self):
        big = 10 ** (MAX_LITERAL_DIGITS - 1)
        assert parse_poly_expr(f"{big}*x", {"x"}) == big * X
        with pytest.raises(ParseError):
            parse_poly_expr(f"{big * 10}*x", {"x"})

    def test_length_limit(self):
        padded = "x" + " " * (MAX_SOURCE_LENGTH - 1)
        assert parse_poly_expr(padded, {"x"}) == X
        with pytest.raises(ParseError):
            parse_poly_expr(padded + " ", {"x"})

    def test_power_expansion_limit(self):
        # (x + y + p)^e may reach (e + 1)^3 terms
        web = {"x", "y", "p"}
        edge = 20
        assert (edge + 1) ** 3 <= MAX_EXPANDED_TERMS < (edge + 2) ** 3
        assert parse_poly_expr(f"(x + y + p)^{edge}", web) == (X + Y + P) ** edge
        with pytest.raises(ParseError) as err:
            parse_poly_expr("1 + (x + y + p)^200", web)
        assert err.value.column == 16
        assert "8120601 terms" in str(err.value)
        # the bound counts only the variables the base uses
        assert parse_poly_expr(f"x^{MAX_EXPONENT}", web) == X ** MAX_EXPONENT

    def test_product_expansion_limit(self):
        # T_a * T_b terms before the product is formed
        side = "+".join(f"x^{i}" for i in range(100))
        assert len(parse_poly_expr(f"({side})*({side})", {"x"}).terms()) == 199
        with pytest.raises(ParseError) as err:
            parse_poly_expr(f"({side})*({side}+y)", {"x", "y"})
        assert err.value.column == len(side) + 3
        assert f"more than {MAX_EXPANDED_TERMS}" in str(err.value)

    def test_ring_expressions_are_not_capped(self):
        assert parse_ring_expr("(h + c)^4", 2) == (hyperplane(2) + dual_hyperplane(2)) ** 4


class TestRoundTrip:
    def test_ring_elements(self):
        rng = random.Random(97)
        for n in range(1, 7):
            for _ in range(15):
                coeffs = {}
                for a in range(n + 1):
                    for b in range(n):
                        value = rng.randint(-9, 9)
                        if value:
                            coeffs[(a, b)] = value
                element = RingElement(n, coeffs)
                assert parse_ring_expr(str(element), n) == element

    def test_polynomials(self):
        rng = random.Random(101)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exps = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2), 0, 0)
                value = rng.randint(-99, 99)
                if value:
                    terms[exps] = value
            poly = MultiPoly(terms)
            assert parse_poly_expr(str(poly), {"x", "y", "p"}) == poly

    def test_zero_round_trips(self):
        assert parse_poly_expr("0", {"x"}) == MultiPoly.zero()
        assert str(MultiPoly.zero()) == "0"
