"""One-pass reader for the calculator's polynomial expressions.

Grammar (ASCII, explicit '*', '^' for powers, no implicit multiplication):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | var | '(' expr ')'

The lexer is ASCII: an integer is [0-9]+, a name [A-Za-z_][A-Za-z0-9_]*,
and any other character that is not whitespace (``str.isspace``) is an
error with its line and column, so a superscript or non-Latin digit is
refused rather than read as a number.  Ring expressions use the variables
h and c (c standing in for the dual hyperplane class, which has no keyboard
spelling); web polynomials use x, y and p.  Every printed canonical form
re-parses to the same value.

The reader evaluates while it parses, in the ring of the zero it is given.
A product of literals and variable powers stays one (packed monomial,
coefficient) pair, as in ``multipoly.SparsePoly``; a sum adds its terms into
one raw map, which the ring's ``_normal`` turns into a value.  Only groups
in parentheses and their powers go through the ring's arithmetic.
One compiled regex splits the input in one linear scan.  Whitespace is
skipped between its matches, never matched by a '\\s*' prefix, which would
backtrack quadratically on a long run of blanks.

Inputs come from the command line, so the reader bounds what it accepts
(each check costs O(1) per token) and raises ParseError beyond:

    MAX_SOURCE_LENGTH   characters of input
    MAX_LITERAL_DIGITS  digits of one integer literal, and of a literal's
                        power, below CPython's default 4300-digit limit on
                        int/str conversion; a power is refused at its '^'
                        before it is computed
    MAX_NESTING_DEPTH   parentheses open at once; the reader recurses once
                        per level, so this keeps it far from the
                        interpreter's recursion limit
    MAX_EXPONENT        value of an exponent after '^'
    MAX_EXPANDED_TERMS  terms a product or power may reach,
                        checked before it is expanded: T_a * T_b for a
                        product a * b, and prod_v (e * deg_v(a) + 1) for a
                        power a^e
    MAX_EXPANDED_TOTAL  the sum of those bounds, over every product and
                        power of one expression whose bound is above 1

A monomial factor has one term or none, and a power of a variable has at
most MAX_EXPONENT + 1 terms, so only products and powers of groups can pass
the expansion bound.  Errors come out as if the input were tokenized,
parsed and evaluated in turn: a lexical error anywhere wins over a syntax
error, and a syntax error anywhere over a refused expansion or literal
power, the first of which is raised.  Lexical errors are searched for
before parsing starts, so none waits on an expansion.  Sums and products
are read in loops, so their length is bounded by MAX_SOURCE_LENGTH alone.
The per-operation bound bounds the work of each product or power: a
product takes T_a * T_b term pairs, and a power by squaring in x, y and p
about MAX_EXPANDED_TERMS^2 / 64.  The total
bounds the whole expression, so a long sum of powers, each at the
per-operation bound, is refused at the operation whose bound takes the
total past MAX_EXPANDED_TOTAL.
"""

from __future__ import annotations

import re
from itertools import islice

MAX_SOURCE_LENGTH = 100_000
MAX_LITERAL_DIGITS = 4000
MAX_NESTING_DEPTH = 100
MAX_EXPONENT = 1000
MAX_EXPANDED_TERMS = 10_000
MAX_EXPANDED_TOTAL = 30_000

# one token per match: an integer, a name, or any other non-space character
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\S")
_DIGITS = frozenset("0123456789")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# the lexical errors: a character no token admits, and an integer token (a
# digit run that does not continue a name) longer than MAX_LITERAL_DIGITS
_STRAY = re.compile(r"[^\sA-Za-z0-9_+\-*^()]")
_LONG_LITERAL = re.compile(r"(?<![A-Za-z0-9_])[0-9]{%d}" % (MAX_LITERAL_DIGITS + 1))
# a power of a literal may not reach _LITERAL_LIMIT, the least integer of
# MAX_LITERAL_DIGITS + 1 digits; every integer of fewer bits than it is smaller
_LITERAL_LIMIT = 10 ** MAX_LITERAL_DIGITS
_LITERAL_LIMIT_BITS = _LITERAL_LIMIT.bit_length()


class ParseError(ValueError):
    """Syntax or vocabulary error, carrying 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _line_column(source: str, offset: int) -> tuple[int, int]:
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


class _Reader:
    """Recursive descent over the tokens of ``source``, evaluating as it goes.

    Values are built in the ring of ``zero``, from raw maps of packed
    monomials to coefficients through its ``_normal``; ``names`` are the
    variables the source may use.
    """

    def __init__(self, source: str, zero, names):
        if len(source) > MAX_SOURCE_LENGTH:
            raise ParseError(f"input longer than {MAX_SOURCE_LENGTH} characters", 1, 1)
        # the first lexical error wins, before anything is parsed or expanded;
        # a literal past the limit needs that many characters before the stray
        stray = _STRAY.search(source)
        end = stray.start() if stray else len(source)
        literal = end > MAX_LITERAL_DIGITS and _LONG_LITERAL.search(source, 0, end)
        if literal:
            raise ParseError(f"integer literal longer than {MAX_LITERAL_DIGITS} digits",
                             *_line_column(source, literal.start()))
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}", *_line_column(source, end))
        self.source = source
        self.tokens = _TOKEN.findall(source)
        self.tokens.append("")  # end of input
        self.index = 0
        self.depth = 0
        self.zero = zero
        self.shifts = {name: zero._shift(name) for name in names}
        self.expanded = 0  # the bounds of the expansions allowed so far
        self.refused = None  # the first refusal, raised after parsing

    def read(self):
        value = self.expr()
        trailing = self.tokens[self.index]
        if trailing:
            self.fail(f"unexpected {trailing!r} after expression")
        if self.refused is not None:
            raise self.refused
        return self.make(value)

    def make(self, raw: dict):
        return self.zero._new(self.zero._normal(raw))

    def position(self, index: int) -> tuple[int, int]:
        """Line and column of token ``index``; the end of input past the last."""
        match = next(islice(_TOKEN.finditer(self.source), index, None), None)
        return _line_column(self.source, match.start() if match else len(self.source))

    def fail(self, message: str):
        raise ParseError(message, *self.position(self.index))

    def allow(self, bound: int, index: int) -> bool:
        """Whether a product or power of up to ``bound`` terms may be expanded.

        Each expansion (``bound`` above 1) also counts ``bound`` against the
        whole expression's MAX_EXPANDED_TOTAL.  The first refusal is kept and
        raised once the whole input has parsed; after it nothing is expanded.
        """
        if self.refused is not None or bound <= 1:
            return self.refused is None
        self.expanded += bound
        if bound > MAX_EXPANDED_TERMS:
            message = f"expansion may reach {bound} terms, more than {MAX_EXPANDED_TERMS}"
        elif self.expanded > MAX_EXPANDED_TOTAL:
            message = (f"expansions may reach {self.expanded} terms in total, "
                       f"more than {MAX_EXPANDED_TOTAL}")
        else:
            return True
        self.refused = ParseError(message, *self.position(index))
        return False

    def literal_power(self, value: int, exponent: int, index: int) -> int:
        """value^exponent, unless it would pass MAX_LITERAL_DIGITS digits.

        The power has between (b-1)*e + 1 and b*e bits for b the bit length
        of the value, so only a power within e bits of the limit is computed
        to decide.  A refusal is kept like an expansion refusal; after one,
        the value is returned unchanged, since it is never used.
        """
        if self.refused is not None:
            return value
        bits = value.bit_length()
        if bits * exponent < _LITERAL_LIMIT_BITS:
            return value ** exponent
        if (bits - 1) * exponent < _LITERAL_LIMIT_BITS:
            power = value ** exponent
            if power < _LITERAL_LIMIT:
                return power
        self.refused = ParseError(f"power of a literal longer than {MAX_LITERAL_DIGITS} digits",
                                  *self.position(index))
        return value

    def expr(self) -> dict:
        tokens = self.tokens
        out: dict = {}
        sign = 1
        if tokens[self.index] == "-":
            self.index += 1
            sign = -1
        while True:
            self.term(sign, out)
            op = tokens[self.index]
            if op == "+":
                sign = 1
            elif op == "-":
                sign = -1
            else:
                return out
            self.index += 1

    def term(self, coeff: int, out: dict):
        """Read a product and add it, times ``coeff``, into the map ``out``."""
        tokens = self.tokens
        key = 0
        poly = None  # product of the groups read so far
        count = 1  # terms of the whole product so far
        star = None  # index of the '*' before the current factor
        while True:
            token = tokens[self.index]
            shift = self.shifts.get(token)
            right = 1  # terms of the current factor
            if shift is not None:
                self.index += 1
                exponent = self.exponent()
                key += (1 if exponent is None else exponent) << shift
            elif token[:1] in _DIGITS:
                value = self.integer()
                self.index += 1
                caret = self.index
                exponent = self.exponent()
                if exponent is not None:
                    value = self.literal_power(value, exponent, caret)
                coeff *= value
                right = 1 if value else 0
            elif token == "(":
                group = self.group()
                right = len(group._terms)
            elif token[:1] in _NAME_START:
                expected = ", ".join(sorted(self.shifts))
                self.fail(f"unknown variable {token!r} (expected one of: {expected})")
            else:
                self.fail(f"expected a number, variable or '(', found {token or 'end of input'!r}")
            refused = star is not None and not self.allow(count * right, star)
            if token == "(" and not refused:
                poly = group if poly is None else poly * group
                count = len(poly._terms)
            if not coeff:
                count = 0
            if tokens[self.index] != "*":
                break
            star = self.index
            self.index += 1
        if poly is None:
            out[key] = out.get(key, 0) + coeff
        elif coeff:
            for e, c in poly._terms.items():
                e += key
                out[e] = out.get(e, 0) + coeff * c

    def group(self):
        """'(' expr ')' and an optional power, as a ring element."""
        if self.depth == MAX_NESTING_DEPTH:
            self.fail(f"parentheses nested deeper than {MAX_NESTING_DEPTH}")
        self.index += 1
        self.depth += 1
        value = self.make(self.expr())
        self.depth -= 1
        if self.tokens[self.index] != ")":
            self.fail("expected ')'")
        self.index += 1
        caret = self.index
        exponent = self.exponent()
        if exponent is None:
            return value
        bound = 1
        for name in self.shifts:
            bound *= exponent * max(value.degree(name), 0) + 1
        if not self.allow(bound, caret):
            return value
        return value ** exponent

    def exponent(self) -> int | None:
        """The exponent after a '^', or None when there is no '^'."""
        if self.tokens[self.index] != "^":
            return None
        self.index += 1
        token = self.tokens[self.index]
        if token[:1] not in _DIGITS:
            if token == "-":
                self.fail("exponent must be a nonnegative integer")
            self.fail("expected an integer exponent after '^'")
        exponent = self.integer()
        if exponent > MAX_EXPONENT:
            self.fail(f"exponent larger than {MAX_EXPONENT}")
        self.index += 1
        return exponent

    def integer(self) -> int:
        """The value of the literal at the current token."""
        return int(self.tokens[self.index])


def parse_ring_expr(source: str, n: int):
    """Parse and evaluate a ring expression in h and c."""
    from .ring import RingElement

    return _Reader(source, RingElement(n), RingElement.VARIABLES).read()


def parse_poly_expr(source: str, allowed: set[str]):
    """Parse and evaluate a polynomial expression over the given variables."""
    from .multipoly import MultiPoly

    return _Reader(source, MultiPoly(), allowed).read()
