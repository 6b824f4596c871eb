"""Recursive-descent parser for the calculator's polynomial expressions.

Grammar (ASCII, explicit '*', '^' for powers, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | var | '(' expr ')'

Ring expressions use the variables h and c (c standing in for the dual
hyperplane class, which has no keyboard spelling); web polynomials use
x, y and p.  Every printed canonical form re-parses to the same value.

Inputs come from the command line, so the parser bounds what it accepts
(each check costs O(1) per token) and raises ParseError beyond:

    MAX_SOURCE_LENGTH   characters of input
    MAX_LITERAL_DIGITS  digits of one integer literal, below CPython's
                        default 4300-digit limit on int/str conversion
    MAX_NESTING_DEPTH   parentheses open at once; the parser recurses once
                        per level, so this keeps it far from the
                        interpreter's recursion limit
    MAX_EXPONENT        value of an exponent after '^'
    MAX_EXPANDED_TERMS  terms a polynomial product or power may reach,
                        checked before it is expanded: T_a * T_b for a
                        product a * b, and prod_v (e * deg_v(a) + 1) for a
                        power a^e

Long sums and products nest only to the left, and ``evaluate`` walks that
spine in a loop, so their length is bounded by MAX_SOURCE_LENGTH alone.
The expansion bound also bounds the work: a product takes T_a * T_b term
pairs, and a power by squaring in x, y and p about MAX_EXPANDED_TERMS^2 / 64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

MAX_SOURCE_LENGTH = 100_000
MAX_LITERAL_DIGITS = 4000
MAX_NESTING_DEPTH = 100
MAX_EXPONENT = 1000
MAX_EXPANDED_TERMS = 10_000


class ParseError(ValueError):
    """Syntax or vocabulary error, carrying 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# -- AST ---------------------------------------------------------------------


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


# -- lexer ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'end'
    text: str
    line: int
    column: int


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
        if ch.isdigit():
            start = i
            while i < len(source) and source[i].isdigit():
                i += 1
            text = source[start:i]
            if len(text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal longer than {MAX_LITERAL_DIGITS} digits", line, column
                )
            tokens.append(_Token("int", text, line, column))
            column += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < len(source) and (source[i].isalnum() or source[i] == "_"):
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
            node = Pow(node, exponent, (caret.line, caret.column))
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


def parse_expr(source: str, allowed: frozenset[str] | set[str]):
    """Parse to an AST, restricted to the given variable vocabulary."""
    parser = _Parser(_tokenize(source), frozenset(allowed))
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail(f"unexpected {trailing.text!r} after expression", trailing)
    return node


def evaluate(node, env: dict, const, check=None):
    """Fold an AST in any commutative ring given variable values and an
    integer embedding.

    ``check(node, left, right)``, when given, runs before every product
    (``right`` its right operand) and power (``right`` the exponent) and
    may refuse it by raising.
    """
    if isinstance(node, (Add, Sub, Mul)):
        # sums and products nest to the left: fold the spine in a loop, so
        # that long inputs do not recurse once per term
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


def parse_ring_expr(source: str, n: int):
    """Parse and evaluate a ring expression in h and c."""
    from .ring import RingElement, dual_hyperplane, hyperplane

    node = parse_expr(source, {"h", "c"})
    env = {"h": hyperplane(n), "c": dual_hyperplane(n)}
    return evaluate(node, env, lambda v: RingElement(n, {(0, 0): v}))


def parse_poly_expr(source: str, allowed: set[str]):
    """Parse and evaluate a polynomial expression over the given variables."""
    from .multipoly import MultiPoly

    def check_expansion(node, left, right):
        if isinstance(node, Pow):
            bound = prod(right * max(left.degree(name), 0) + 1 for name in allowed)
        else:
            bound = len(left.terms()) * len(right.terms())
        if bound > MAX_EXPANDED_TERMS:
            raise ParseError(
                f"expansion may reach {bound} terms, more than {MAX_EXPANDED_TERMS}",
                *node.position,
            )

    node = parse_expr(source, allowed)
    env = {name: MultiPoly.variable(name) for name in allowed}
    return evaluate(node, env, MultiPoly.const, check_expansion)
