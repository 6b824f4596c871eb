"""Grammar, error positions, and print/parse round trips.

The one-pass reader is compared with the tokenizer, AST and evaluator it
replaced, kept below as the reference (with the ASCII lexer the grammar
promises): values must agree, and on malformed input so must the
ParseError's message, line and column.
"""

import random
from dataclasses import dataclass, field
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webpolar.exprparse import (
    MAX_EXPANDED_TERMS,
    MAX_EXPANDED_TOTAL,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING_DEPTH,
    MAX_SOURCE_LENGTH,
    ParseError,
    parse_poly_expr,
    parse_ring_expr,
)
from webpolar.multipoly import VARIABLES, MultiPoly, SparsePoly, variables
from webpolar.ring import MAX_DIMENSION, RingElement, dual_hyperplane, hyperplane, zero

X, Y, P = variables("x", "y", "p")

# -- reference: tokenize, parse to an AST, then evaluate ---------------------------


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object
    position: tuple[int, int] = field(compare=False)  # line and column of the '*'


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    position: tuple[int, int] = field(compare=False)  # line and column of the '^'
    group: bool = field(compare=False)  # whether the base is in parentheses


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    line: int
    column: int


def _is_name_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def _tokenize(source: str) -> list[_Token]:
    if len(source) > MAX_SOURCE_LENGTH:
        raise ParseError(f"input longer than {MAX_SOURCE_LENGTH} characters", 1, 1)
    tokens = []
    line, column = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in "0123456789":
            start = i
            while i < len(source) and source[i] in "0123456789":
                i += 1
            text = source[start:i]
            if len(text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", line, column
                )
            tokens.append(_Token("int", text, line, column))
            column += len(text)
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            start = i
            while i < len(source) and _is_name_char(source[i]):
                i += 1
            text = source[start:i]
            tokens.append(_Token("name", text, line, column))
            column += len(text)
            continue
        if ch in "+-*^()":
            tokens.append(_Token("op", ch, line, column))
            column += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(_Token("end", "", line, column))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allowed: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def expr(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            node = Neg(self.term())
        else:
            node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            star = self.advance()
            node = Mul(node, self.factor(), (star.line, star.column))
        return node

    def factor(self):
        group = self.peek().kind == "op" and self.peek().text == "("
        node = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            token = self.peek()
            if token.kind != "int":
                if token.kind == "op" and token.text == "-":
                    self.fail("exponent must be a nonnegative integer", token)
                self.fail("expected an integer exponent after '^'", token)
            exponent = int(token.text)
            if exponent > MAX_EXPONENT:
                self.fail(f"exponent larger than {MAX_EXPONENT}", token)
            self.advance()
            node = Pow(node, exponent, (caret.line, caret.column), group)
        return node

    def base(self):
        token = self.peek()
        if token.kind == "int":
            self.advance()
            return Lit(int(token.text))
        if token.kind == "name":
            self.advance()
            if token.text not in self.allowed:
                expected = ", ".join(sorted(self.allowed))
                self.fail(f"unknown variable {token.text!r} (expected one of: {expected})", token)
            return Var(token.text)
        if token.kind == "op" and token.text == "(":
            if self.depth == MAX_NESTING_DEPTH:
                self.fail(f"parentheses nested deeper than {MAX_NESTING_DEPTH}", token)
            self.advance()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.peek()
            if closing.kind != "op" or closing.text != ")":
                self.fail("expected ')'", closing)
            self.advance()
            return node
        self.fail(f"expected a number, variable or '(', found {token.text or 'end of input'!r}")


def parse_expr(source: str, allowed):
    parser = _Parser(_tokenize(source), frozenset(allowed))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r} after expression", trailing)
    return node


def evaluate(node, env: dict, const, check=None):
    """Fold an AST given variable values and an integer embedding; ``check``
    runs before every product and power and may refuse it by raising."""
    if isinstance(node, (Add, Sub, Mul)):
        spine = []
        while isinstance(node, (Add, Sub, Mul)):
            spine.append(node)
            node = node.left
        value = evaluate(node, env, const, check)
        for op in reversed(spine):
            right = evaluate(op.right, env, const, check)
            if isinstance(op, Add):
                value = value + right
            elif isinstance(op, Sub):
                value = value - right
            else:
                if check is not None:
                    check(op, value, right)
                value = value * right
        return value
    if isinstance(node, Lit):
        return const(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.operand, env, const, check)
    if isinstance(node, Pow):
        base = evaluate(node.base, env, const, check)
        if check is not None:
            check(node, base, node.exponent)
        return base ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def expansion_check(names):
    """The reader's expansion bounds as a ``check`` for ``evaluate``.

    A product, or a power of a group, may reach MAX_EXPANDED_TERMS terms, and
    the bounds above 1 may add up to MAX_EXPANDED_TOTAL per expression.  A
    power of a variable or literal stays a monomial and is not counted, but
    a literal's power may not pass MAX_LITERAL_DIGITS digits.
    """
    total = 0

    def check(node, left, right):
        nonlocal total
        if isinstance(node, Pow):
            if isinstance(node.base, Lit) and node.base.value ** right >= 10 ** MAX_LITERAL_DIGITS:
                raise ParseError(f"power of a literal longer than {MAX_LITERAL_DIGITS} digits",
                                 *node.position)
            if not node.group:
                return
            bound = prod(right * max(left.degree(name), 0) + 1 for name in names)
        else:
            bound = len(left.terms()) * len(right.terms())
        if bound <= 1:
            return
        total += bound
        if bound > MAX_EXPANDED_TERMS:
            message = f"expansion may reach {bound} terms, more than {MAX_EXPANDED_TERMS}"
        elif total > MAX_EXPANDED_TOTAL:
            message = (f"expansions may reach {total} terms in total, "
                       f"more than {MAX_EXPANDED_TOTAL}")
        else:
            return
        raise ParseError(message, *node.position)

    return check


def reference_ring_expr(source: str, n: int):
    node = parse_expr(source, {"h", "c"})
    env = {"h": hyperplane(n), "c": dual_hyperplane(n)}
    return evaluate(node, env, lambda v: RingElement(n, {(0, 0): v}), expansion_check("hc"))


def reference_poly_expr(source: str, allowed: set[str]):
    node = parse_expr(source, allowed)
    env = {name: MultiPoly.variable(name) for name in allowed}
    return evaluate(node, env, MultiPoly.const, expansion_check(allowed))


def outcome(parse, *args):
    """The value, or the ParseError's message, line and column."""
    try:
        return parse(*args)
    except ParseError as err:
        return str(err), err.line, err.column


def random_expression(rng: random.Random, names: list[str], depth: int = 4) -> str:
    """A random expression tree over ``names``: parentheses, powers, unary
    minus, products of sums and zero literals, at most a few hundred terms."""
    if depth == 0 or rng.random() < 0.3:
        leaf = rng.choice(names + ["0", "1", "2", "3", "12"])
        return f"{leaf}^{rng.randint(0, 3)}" if rng.random() < 0.3 else leaf
    left = random_expression(rng, names, depth - 1)
    right = random_expression(rng, names, depth - 1)
    shape = rng.randrange(5)
    if shape == 0:
        return left + rng.choice(["+", " - ", "*", " * "]) + right
    if shape == 1:
        return f"({left})*({right})"
    if shape == 2:
        return f"({left})^{rng.randint(0, 3)}"
    if shape == 3:
        return f"(-{left})"
    return f"(-{left} + {right})"


def budget_expression(rng: random.Random, u: str, v: str) -> str:
    """A sum of products of powers of one-variable groups whose expansion
    bounds add up to near MAX_EXPANDED_TOTAL, on either side of it; now and
    then one product passes MAX_EXPANDED_TERMS."""
    target = rng.randint(MAX_EXPANDED_TOTAL * 2 // 3, MAX_EXPANDED_TOTAL * 4 // 3)
    pieces, total = [], 0
    while total < target:
        a, b = rng.randint(30, 101), rng.randint(30, 101)
        total += (a + 2) * (b + 2) - 1  # two powers and their product
        pieces.append(f"({u} + {rng.randint(1, 3)})^{a}*({v} - {rng.randint(1, 3)})^{b}")
    return " + ".join(pieces)


_MUTATION_ALPHABET = "xyphc_a09+-*^() \n\t$\u00b2\u0663\u00e9\u00a0"


def mutate(rng: random.Random, source: str) -> str:
    """One to three random single-character edits."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(source))
        ch = rng.choice(_MUTATION_ALPHABET)
        source = rng.choice([
            source[:i] + ch + source[i:],
            source[:i] + source[i + 1:],
            source[:i] + ch + source[i + 1:],
        ])
    return source


_WEB = {"x", "y", "p"}


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
            parse_poly_expr("", {"x"})

    @pytest.mark.parametrize("source", ["x^\u00b2 - p", "x^\u0663 - p"], ids=["superscript", "arabic-indic"])
    def test_non_ascii_digit_rejected(self, source):
        # the lexer is ASCII: neither is read as an exponent
        with pytest.raises(ParseError) as err:
            parse_poly_expr(source, _WEB)
        assert (err.value.line, err.value.column) == (1, 3)
        assert f"unexpected character {source[2]!r}" in str(err.value)

    def test_unicode_whitespace_separates(self):
        assert parse_poly_expr("x\u00a0+\u2003y\r\n- p", _WEB) == X + Y - P

    def test_lexical_error_comes_before_a_syntax_error(self):
        with pytest.raises(ParseError) as err:
            parse_poly_expr("x + + $", _WEB)
        assert (str(err.value), err.value.column) == (
            "line 1, column 7: unexpected character '$'", 7
        )

    @pytest.mark.parametrize("source,column,message", [
        ("(x+y+1)^99 + (x+y+1)^99 + (x+y+p)^40 + $", 40, "unexpected character '$'"),
        ("(x+y+1)^99 + (x+y+1)^99 + 1" + "1" * 4001, 27,
         f"integer literal longer than {MAX_LITERAL_DIGITS} digits"),
    ], ids=["stray-character", "long-literal"])
    def test_lexical_error_is_found_before_any_expansion(self, monkeypatch, source, column, message):
        def no_expansion(*args):
            raise AssertionError("a group was expanded")

        monkeypatch.setattr(SparsePoly, "__pow__", no_expansion)
        with pytest.raises(ParseError) as err:
            parse_poly_expr(source, _WEB)
        assert str(err.value) == f"line 1, column {column}: {message}"

    def test_syntax_error_comes_before_an_expansion_refusal(self):
        with pytest.raises(ParseError) as err:
            parse_poly_expr("(x + y + p)^200 + )", _WEB)
        assert "found ')'" in str(err.value)
        assert err.value.column == 19


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_polynomial_values(self, rng):
        source = rng.choice(["", "-"]) + random_expression(rng, ["x", "y", "p"])
        assert parse_poly_expr(source, _WEB) == reference_poly_expr(source, _WEB)

    @settings(max_examples=300, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 4))
    def test_ring_values(self, rng, n):
        source = rng.choice(["", "-"]) + random_expression(rng, ["h", "c"])
        assert parse_ring_expr(source, n) == reference_ring_expr(source, n)

    # fixed seeds, not hypothesis: a draw costs up to ~0.2 s, so shrinking
    # a failure would take many minutes
    @pytest.mark.parametrize("seed", range(20))
    def test_ring_values_at_the_bounds(self, seed):
        # at n = 100 a ring value has as many terms as a polynomial in two
        # variables, so these sums reach both expansion bounds
        source = budget_expression(random.Random(seed), "h", "c")
        assert (outcome(parse_ring_expr, source, MAX_DIMENSION)
                == outcome(reference_ring_expr, source, MAX_DIMENSION))

    @pytest.mark.parametrize("seed", range(20))
    def test_polynomial_values_at_the_bounds(self, seed):
        source = budget_expression(random.Random(seed), "x", "y")
        assert outcome(parse_poly_expr, source, _WEB) == outcome(reference_poly_expr, source, _WEB)

    @settings(max_examples=500, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_polynomial_errors(self, rng):
        source = mutate(rng, random_expression(rng, ["x", "y", "p", "h"]))
        assert outcome(parse_poly_expr, source, _WEB) == outcome(reference_poly_expr, source, _WEB)

    @settings(max_examples=500, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_ring_errors(self, rng):
        source = mutate(rng, random_expression(rng, ["h", "c", "x"]))
        assert outcome(parse_ring_expr, source, 3) == outcome(reference_ring_expr, source, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_ring_errors_at_the_bounds(self, seed):
        rng = random.Random(seed)
        source = mutate(rng, budget_expression(rng, "h", "c"))
        assert (outcome(parse_ring_expr, source, MAX_DIMENSION)
                == outcome(reference_ring_expr, source, MAX_DIMENSION))

    @pytest.mark.parametrize("source", [
        "(x + y + p)^200", "1 + (x+y+p)^20*(x+y+p)^2", "(x^100*y^100*p^100)^1",
        "0*(x+y+p)^30*(x+y+p)^30", "(x+y+p)^30*0", "(x+y+p)^20*(x-x)*(x+y+p)^20",
        "2*((x+1)^100*(y+1)^98 + p^2 + p^3)",  # a sum of 10,001 terms is not capped
        "((x+1)^100*(y+1)^98 + p^2 + p^3)*0",
        "(x+y+p)^30*(x+y+p)^30 + (x+y+p)^200",
        "(x+y+1)^50 + " * 11 + "(x+y+1)^50",  # 12 * 2601 = 31,212 in total
        " + ".join(["(x+1)^99*(y+1)^99"] * 3),  # the third '*' crosses the total
        "(x+1)^99*(y+1)^99*(p+1)^2 + (x+y+p)^30",
        "9999^1000*x - 10000^1000*y", "(x+y+p)^200 + 10000^1000", "10000^1000*(x+y+p)^200",
        "(10000^1000*x)^2", "0^1000*(x+y+p)^200",
    ], ids=["power", "product", "power-one", "zero-first", "zero-last", "zero-group",
            "long-group", "long-group-times-zero", "first-refusal", "total-of-powers",
            "total-of-products", "per-operation-first", "literal-power",
            "expansion-before-literal-power", "literal-power-before-expansion",
            "literal-power-in-a-group", "zero-literal-power"])
    def test_expansion_refusals(self, source):
        assert outcome(parse_poly_expr, source, _WEB) == outcome(reference_poly_expr, source, _WEB)


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

    def test_literal_power_limit(self):
        # 9999^1000 has 4,000 digits and 10000^1000 = 10^4000 has 4,001
        assert parse_ring_expr("9999^1000*h", 2) == 9999 ** 1000 * hyperplane(2)
        assert parse_poly_expr(f"{'9' * 400}^10*x", {"x"}) == (10 ** 400 - 1) ** 10 * X
        for source, column in [("10000^1000*h", 6), (f"1{'0' * 400}^10*h", 402),
                               (f"2*{'9' * MAX_LITERAL_DIGITS}^1000*h", 4003)]:
            with pytest.raises(ParseError) as err:
                parse_ring_expr(source, 2)
            assert (str(err.value), err.value.column) == (
                f"line 1, column {column}: power of a literal longer than "
                f"{MAX_LITERAL_DIGITS} digits", column)

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

    def test_ring_power(self):
        assert parse_ring_expr("(h + c)^4", 2) == (hyperplane(2) + dual_hyperplane(2)) ** 4

    def test_long_ring_product_folds_into_one_monomial(self):
        # c^14000000 lies far above the top degree 2n - 1 = 31
        assert parse_ring_expr("*".join(["c^1000"] * 14000), 16) == zero(16)


# each reader on two variables; at n = 100 no ring relation touches these
# expressions, so both readers must meet the bounds alike
_READERS = {
    "poly": (lambda source: parse_poly_expr(source, {"x", "y"}), "x", "y"),
    "ring": (lambda source: parse_ring_expr(source, 100), "h", "c"),
}


@pytest.mark.parametrize("reader", _READERS.values(), ids=_READERS.keys())
class TestOneReader:
    def test_power_expansion_limit(self, reader):
        parse, u, v = reader
        # prod_v (e * deg_v(a) + 1) is 100^2 at the bound
        assert len(parse(f"({u}*{v} + 1)^99").terms()) == 100
        with pytest.raises(ParseError) as err:
            parse(f"1 + ({u} + {v} + 1)^400")
        assert (str(err.value), err.value.column) == (
            "line 1, column 16: expansion may reach 160801 terms, more than 10000", 16
        )

    def test_product_expansion_limit(self, reader):
        parse, u, v = reader
        left = "+".join(f"{u}^{i}" for i in range(100))
        right = "+".join(f"{v}^{i}" for i in range(100))
        assert len(parse(f"({left})*({right})").terms()) == MAX_EXPANDED_TERMS
        with pytest.raises(ParseError) as err:
            parse(f"({left})*({right}+{u})")
        column = len(left) + 3
        assert (str(err.value), err.value.column) == (
            f"line 1, column {column}: expansion may reach 10100 terms, more than 10000", column
        )

    def test_expansion_total(self, reader):
        parse, u, v = reader
        left = "+".join(f"{u}^{i}" for i in range(100))
        right = "+".join(f"{v}^{i}" for i in range(100))
        # three products at the per-operation bound reach the total exactly
        at_total = " + ".join([f"({left})*({right})"] * 3)
        assert 3 * MAX_EXPANDED_TERMS == MAX_EXPANDED_TOTAL
        assert len(parse(at_total).terms()) == MAX_EXPANDED_TERMS
        with pytest.raises(ParseError) as err:
            parse(f"{at_total} + ({u} + 1)*({v} + 1) + ({u} + {v})^2")
        column = len(at_total) + 11  # the last "*"
        assert (str(err.value), err.value.column) == (
            f"line 1, column {column}: expansions may reach 30004 terms in total, "
            "more than 30000", column
        )

    def test_total_refusal_comes_after_syntax_and_lexical_errors(self, reader):
        parse, u, v = reader
        crossing = " + ".join([f"({u} + {v} + 1)^40*({u} - 1)^2"] * 8)  # 4,267 each
        with pytest.raises(ParseError, match="in total"):
            parse(crossing + " + 1")
        with pytest.raises(ParseError) as err:
            parse(crossing + " + )")
        assert "found ')'" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse(crossing + " + ) $")
        assert "unexpected character '$'" in str(err.value)


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

    @settings(max_examples=200, deadline=None)
    @given(terms=st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * 5), st.integers(-10 ** 30, 10 ** 30), max_size=12,
    ))
    def test_any_polynomial(self, terms):
        poly = MultiPoly(terms)
        assert parse_poly_expr(str(poly), set(VARIABLES)) == poly
        assert MultiPoly(poly.terms()) == poly

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), coeffs=st.dictionaries(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(-10 ** 30, 10 ** 30),
        max_size=12,
    ))
    def test_any_ring_element(self, n, coeffs):
        element = RingElement(n, coeffs)
        assert parse_ring_expr(str(element), n) == element
        assert RingElement(n, element.coefficients()) == element

    def test_zero_round_trips(self):
        assert parse_poly_expr("0", {"x"}) == MultiPoly.zero()
        assert str(MultiPoly.zero()) == "0"
